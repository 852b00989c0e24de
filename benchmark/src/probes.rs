//! Layer probes for the traced run, driven at each workload's own sizes.
//!
//! They follow the component benches of `iba-bench` (event-queue hold,
//! forwarding-table lookup, `arbitrate_pass`), but take their inputs from
//! the workload: the fabric it runs on, the (switch, DLID) pairs its
//! packets visit, its pending event depth and its latencies.

use crate::summary::Summary;
use crate::workload::{Fabric, Workload};
use iba_core::{NodeRef, SimTime, SwitchId};
use iba_engine::{CalendarQueue, EventQueue, StreamRng};
use iba_sim::Network;
use iba_stats::LogHistogram;
use iba_topology::Topology;
use iba_workloads::HostGenerator;
use std::hint::black_box;
use std::time::Instant;

/// Batches each microprobe is timed in; the probe reports the median
/// batch.
const BATCHES: usize = 15;

/// Median ns per operation over [`BATCHES`] batches of `ops` calls.
fn ns_per_op(ops: usize, mut op: impl FnMut(usize)) -> f64 {
    let per_batch: Vec<f64> = (0..BATCHES)
        .map(|b| {
            let t = Instant::now();
            for i in 0..ops {
                op(b * ops + i);
            }
            t.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    Summary::of(&per_batch).median
}

/// One traffic generator per host, seeded as the simulator seeds them.
fn generators(w: &Workload, topo: &Topology, traffic_seed: u64) -> Vec<HostGenerator> {
    let root = StreamRng::from_seed(traffic_seed);
    let hosts = topo.num_hosts();
    topo.host_ids()
        .map(|h| {
            HostGenerator::with_groups(h, hosts, hosts / topo.num_switches(), w.spec, &root)
                .expect("workload spec validated by the simulator")
        })
        .collect()
}

/// `HostGenerator::generate`, round-robin over the workload's hosts.
pub fn generate_ns(w: &Workload, fabric: &Fabric, traffic_seed: u64) -> f64 {
    let mut gens = generators(w, &fabric.topology, traffic_seed);
    let n = gens.len();
    ns_per_op(20_000, |i| {
        black_box(gens[i % n].generate());
    })
}

/// `FaRouting::route` over the (switch, DLID) pairs the workload's
/// first packets visit along their escape paths, with adaptive and
/// deterministic DLIDs in the workload's proportion.
pub fn route_ns(w: &Workload, fabric: &Fabric, traffic_seed: u64) -> f64 {
    let (topo, routing) = (&fabric.topology, &fabric.routing);
    let mut gens = generators(w, topo, traffic_seed);
    let mut pairs = Vec::new();
    'fill: for round in 0.. {
        let g = &mut gens[round % topo.num_hosts()];
        let src = g.host();
        let p = g.generate();
        let dlid = routing.dlid(p.dst, p.adaptive).expect("host has a LID");
        let mut sw = topo.host_switch(src);
        loop {
            pairs.push((sw, dlid));
            if pairs.len() == 4096 {
                break 'fill;
            }
            let port = routing.route(sw, dlid).expect("routable").escape;
            match topo.endpoint(sw, port).map(|e| e.node) {
                Some(NodeRef::Switch(next)) => sw = next,
                _ => break,
            }
        }
    }
    let n = pairs.len();
    ns_per_op(20_000, |i| {
        let (sw, dlid): (SwitchId, _) = pairs[i % n];
        black_box(routing.route(black_box(sw), black_box(dlid)).ok());
    })
}

/// Deterministic delays shaped like the simulator's: mostly short hops
/// (a cut-through or a link) and now and then a long generation gap.
fn delay(i: usize) -> u64 {
    let x = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40;
    if x.is_multiple_of(8) {
        1_000 + x % 3_000
    } else {
        20 + x % 120
    }
}

/// The event-queue hold model at `depth` pending events: pop one event,
/// schedule one. Returns ns per (schedule + pop) for the binary heap and
/// for the calendar queue.
pub fn queue_op_ns(depth: usize) -> (f64, f64) {
    macro_rules! hold {
        ($q:expr) => {{
            let mut q = $q;
            for i in 0..depth {
                q.schedule(SimTime::from_ns(delay(i) * (i as u64 % 64)), i);
            }
            ns_per_op(50_000, |i| {
                let (t, ev) = q.pop().expect("the hold keeps the queue full");
                q.schedule(t.plus_ns(delay(i)), black_box(ev));
            })
        }};
    }
    (hold!(EventQueue::new()), hold!(CalendarQueue::new()))
}

/// `LogHistogram::record` over values spread between the run's median
/// and maximum latency.
pub fn hist_record_ns(p50_ns: u64, max_ns: u64) -> f64 {
    let span = max_ns.saturating_sub(p50_ns).max(1);
    let mut h = LogHistogram::new();
    let ns = ns_per_op(100_000, |i| {
        h.record(black_box(
            p50_ns + (i as u64).wrapping_mul(0x9e37_79b9) % span,
        ));
    });
    black_box(h.count());
    ns
}

/// What the arbitration probe saw.
#[derive(Clone, Copy, Debug)]
pub struct ArbitrationProbe {
    /// Median ns per `Network::arbitrate_pass`.
    pub pass_ns: f64,
    /// Mean grants per pass.
    pub grants_per_pass: f64,
    /// Median pending depth seen: one generation event per host plus
    /// one per resident packet.
    pub pending_depth: usize,
}

/// Probe `arbitrate_pass` on a network of its own, advanced past the
/// warm-up into the steady state and then stepped between passes so
/// every pass sees live traffic.
pub fn arbitration(net: &mut Network<'_>, hosts: usize) -> ArbitrationProbe {
    let warmup = net.config().warmup;
    while net.now() < warmup && net.advance(10_000) > 0 {}
    let (mut pass_ns, mut depth) = (Vec::new(), Vec::new());
    let mut grants = 0usize;
    for _ in 0..200 {
        if net.advance(500) == 0 {
            break;
        }
        let t = Instant::now();
        grants += black_box(net.arbitrate_pass());
        pass_ns.push(t.elapsed().as_nanos() as f64);
        depth.push((hosts + net.residual_packets()) as f64);
    }
    ArbitrationProbe {
        pass_ns: Summary::of(&pass_ns).median,
        grants_per_pass: grants as f64 / pass_ns.len() as f64,
        pending_depth: Summary::of(&depth).median as usize,
    }
}
