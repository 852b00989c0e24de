//! The parallel engine's determinism contract, end to end:
//!
//! * `shards(1)` routes through the serial engine and is byte-identical
//!   to a build without the option — same `RunResult`, same per-decision
//!   forwarding trace;
//! * for a fixed fabric every `shards(n > 1)` produces identical results
//!   — the conservative window protocol plus canonical event keys make
//!   queue order independent of the partition;
//! * neither the worker-thread count nor the event-queue backend is
//!   observable from inside the simulation;
//! * the chaos invariants (drain, quiescence, credit conservation)
//!   survive the parallel engine under a fault mix with APM migration;
//! * the serial-only subsystems are rejected at build time instead of
//!   silently misbehaving.

use iba_core::SimTime;
use iba_routing::{FaRouting, RoutingConfig};
use iba_sim::{
    Network, QueueBackend, RecorderOpts, RecoveryPolicy, RunResult, SimConfig, TraceOpts,
    TraceStep, Tracer,
};
use iba_topology::IrregularConfig;
use iba_workloads::{FaultSchedule, WorkloadSpec};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(mut h: u64, x: u64) -> u64 {
    for b in x.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Digest of every forwarding decision in `tracer` — the same fold as
/// the serial golden-trace test, so digests are comparable across
/// engines.
fn trace_digest(tracer: &Tracer) -> (u64, u64) {
    let mut ids: Vec<_> = tracer.traces().keys().copied().collect();
    ids.sort();
    let mut digest = FNV_OFFSET;
    let mut forwards = 0u64;
    for id in ids {
        for (at, step) in &tracer.trace(id).unwrap().steps {
            if let TraceStep::Forwarded {
                sw,
                out_port,
                via_escape,
                from_escape_head,
            } = step
            {
                forwards += 1;
                digest = fnv(digest, id.0);
                digest = fnv(digest, at.as_ns());
                digest = fnv(digest, sw.0 as u64);
                digest = fnv(digest, out_port.0 as u64);
                digest = fnv(digest, *via_escape as u64);
                digest = fnv(digest, *from_escape_head as u64);
            }
        }
    }
    (digest, forwards)
}

/// The fixed golden scenario with a shard/thread/backend configuration
/// bolted on, returning the run result and the decision digest.
fn run_golden_scenario(
    shards: usize,
    threads: usize,
    backend: QueueBackend,
) -> (RunResult, (u64, u64)) {
    let topo = IrregularConfig::paper(8, 42).generate().unwrap();
    let routing = FaRouting::build(&topo, RoutingConfig::two_options()).unwrap();
    let mut cfg = SimConfig::test(7);
    cfg.queue_backend = backend;
    let mut net = Network::builder(&topo, &routing)
        .workload(WorkloadSpec::uniform32(0.02))
        .config(cfg)
        .trace(TraceOpts::all(1_000_000))
        .shards(shards)
        .threads(threads)
        .build()
        .unwrap();
    let result = net.run();
    let digest = trace_digest(net.tracer().expect("tracing enabled"));
    (result, digest)
}

#[test]
fn parallel_shards1_is_byte_identical_to_serial() {
    // The explicit-but-trivial partition must route through the serial
    // engine: same result, same per-decision trace, and both equal to
    // the long-standing golden pin (see golden_decisions.rs).
    let (serial, serial_digest) = {
        let topo = IrregularConfig::paper(8, 42).generate().unwrap();
        let routing = FaRouting::build(&topo, RoutingConfig::two_options()).unwrap();
        let mut net = Network::builder(&topo, &routing)
            .workload(WorkloadSpec::uniform32(0.02))
            .config(SimConfig::test(7))
            .trace(TraceOpts::all(1_000_000))
            .build()
            .unwrap();
        let result = net.run();
        let digest = trace_digest(net.tracer().unwrap());
        (result, digest)
    };
    let (one_shard, one_digest) = run_golden_scenario(1, 1, QueueBackend::BinaryHeap);
    assert_eq!(serial, one_shard);
    assert_eq!(serial_digest, one_digest);
    assert_eq!(
        (
            serial_digest.0,
            serial_digest.1,
            serial.delivered,
            serial.events
        ),
        (4751788033291509704, 2270, 984, 17645),
        "shards(1) drifted from the serial golden trace"
    );
}

#[test]
fn parallel_results_invariant_in_shard_count() {
    let (two, two_digest) = run_golden_scenario(2, 1, QueueBackend::BinaryHeap);
    let (four, four_digest) = run_golden_scenario(4, 1, QueueBackend::BinaryHeap);
    assert_eq!(two, four, "partition count leaked into the results");
    assert_eq!(two.events, four.events);
    assert_eq!(
        two_digest, four_digest,
        "partition count leaked into the trace"
    );
    // The parallel engine is a different (deterministic) simulation, not
    // a reordering of the serial one: per-switch RNG substreams replace
    // the shared serial streams. Sanity-check it still simulates the
    // same fabric under the same load.
    assert!(two.delivered > 0);
    assert_eq!(two.order_violations, 0);
    assert_eq!(two.duplicate_deliveries, 0);
}

#[test]
fn parallel_results_invariant_in_shard_count_with_deterministic_traffic() {
    // The golden scenario is fully adaptive, so its trackers stay empty.
    // Half-deterministic traffic populates every shard's tracker; the
    // order counters are summed per shard, not re-derived from merged
    // trackers, and must still agree across partitions.
    let run = |shards| {
        let topo = IrregularConfig::paper(8, 42).generate().unwrap();
        let routing = FaRouting::build(&topo, RoutingConfig::two_options()).unwrap();
        let mut net = Network::builder(&topo, &routing)
            .workload(WorkloadSpec::uniform32(0.02).with_adaptive_fraction(0.5))
            .config(SimConfig::test(7))
            .shards(shards)
            .build()
            .unwrap();
        net.run()
    };
    let two = run(2);
    let four = run(4);
    assert_eq!(two, four, "partition count leaked into the results");
    assert!(two.delivered > 0);
    assert_eq!(two.order_violations, 0);
    assert_eq!(two.duplicate_deliveries, 0);
}

#[test]
fn parallel_results_invariant_across_threads_and_backends() {
    let base = run_golden_scenario(4, 1, QueueBackend::BinaryHeap);
    for (threads, backend) in [
        (2, QueueBackend::BinaryHeap),
        (4, QueueBackend::BinaryHeap),
        (1, QueueBackend::Calendar),
        (4, QueueBackend::Calendar),
    ] {
        let run = run_golden_scenario(4, threads, backend);
        assert_eq!(
            base, run,
            "threads={threads} backend={backend:?} leaked into the results"
        );
    }
}

#[test]
fn parallel_golden_digest_is_pinned() {
    // Pins the parallel engine's own decision stream (recorded at its
    // introduction) so later scheduler/window changes can prove they
    // did not alter a single arbitration outcome.
    let (result, digest) = run_golden_scenario(2, 2, QueueBackend::BinaryHeap);
    assert_eq!(
        (digest.0, digest.1, result.delivered, result.events),
        (16868182816042369493, 2270, 984, 17854),
        "parallel forwarding decisions drifted from the golden trace"
    );
}

/// An APM-migration chaos mix on the parallel engine: a flapping link
/// whose windows all close, so the fabric must end whole and drain to
/// full quiescence — and the result must not depend on the partition.
fn run_chaos(shards: usize, threads: usize) -> RunResult {
    let topo = IrregularConfig::paper(16, 5).generate().unwrap();
    let fa = FaRouting::build_with_apm(&topo, RoutingConfig::two_options()).unwrap();
    let a = topo.switch_ids().next().unwrap();
    let (_, b, _) = topo.switch_neighbors(a).next().unwrap();
    let schedule = FaultSchedule::flapping(SimTime::from_us(15), a, b, 2_000, 3_000, 3).unwrap();
    let cfg = SimConfig::test(5);
    let horizon = cfg.horizon();
    let mut net = Network::builder(&topo, &fa)
        .workload(WorkloadSpec::uniform32(0.02))
        .config(cfg)
        .faults(&schedule, RecoveryPolicy::ApmMigrate, 0)
        .shards(shards)
        .threads(threads)
        .build()
        .unwrap();
    let (result, drained) = net.run_until_drained(horizon, horizon.plus_ns(400_000));

    assert_eq!(result.faults_injected, 3, "three down flanks");
    assert_eq!(net.active_faults(), 0);
    assert!(drained, "shards={shards}: network failed to drain");
    assert_eq!(net.residual_packets(), 0, "shards={shards}");
    assert!(net.is_quiescent(), "shards={shards}");
    let audit = net.credit_audit();
    assert!(audit.is_empty(), "shards={shards}: credit leak: {audit:?}");
    assert_eq!(result.duplicate_deliveries, 0, "shards={shards}");
    assert_eq!(
        result.generated - result.source_drops,
        result.delivered + result.drops_in_transit,
        "shards={shards}: conservation: injected = delivered + dropped at drain"
    );
    result
}

#[test]
fn parallel_chaos_drains_and_conserves() {
    let two = run_chaos(2, 2);
    let four = run_chaos(4, 4);
    assert_eq!(two, four, "fault mix results depend on the partition");
}

#[test]
fn parallel_telemetry_samples_cover_the_whole_fabric() {
    let topo = IrregularConfig::paper(16, 9).generate().unwrap();
    let fa = FaRouting::build(&topo, RoutingConfig::two_options()).unwrap();
    let cfg = SimConfig::test(9);
    let num_vls = cfg.data_vls as usize;
    let mut net = Network::builder(&topo, &fa)
        .workload(WorkloadSpec::uniform32(0.02))
        .config(cfg)
        .telemetry(iba_sim::TelemetryOpts::every_ns(2_000))
        .shards(4)
        .threads(2)
        .build()
        .unwrap();
    let result = net.run();
    assert!(result.delivered > 0);
    let mem = net
        .telemetry_sink()
        .and_then(|s| s.as_memory())
        .expect("memory sink");
    let report = mem.report().expect("report flushed");
    assert_eq!(report.switches.len(), topo.num_switches());
    assert!(!mem.samples().is_empty());
    for sample in mem.samples() {
        // The merge splices per-shard slices back into full fabric-wide
        // samples, in (switch, vl) order.
        assert_eq!(sample.occupancy.len(), topo.num_switches() * num_vls);
        assert!(sample
            .occupancy
            .windows(2)
            .all(|w| (w[0].sw.0, w[0].vl.0) < (w[1].sw.0, w[1].vl.0)));
    }
    // The per-switch forwarding counters survive the merge: their sum
    // covers at least the measured forwards (telemetry also counts the
    // warmup the stats window excludes).
    let telemetry_forwards: u64 = report
        .switches
        .iter()
        .map(|s| s.adaptive_forwards + s.escape_forwards)
        .sum();
    assert!(telemetry_forwards >= result.adaptive_forwards + result.escape_forwards);
}

#[test]
fn parallel_rejects_serial_only_subsystems() {
    let topo = IrregularConfig::paper(16, 5).generate().unwrap();
    let fa = FaRouting::build(&topo, RoutingConfig::two_options()).unwrap();
    let a = topo.switch_ids().next().unwrap();
    let (_, b, _) = topo.switch_neighbors(a).next().unwrap();
    let schedule = FaultSchedule::single(SimTime::from_us(20), a, b).unwrap();

    let recorder = Network::builder(&topo, &fa)
        .workload(WorkloadSpec::uniform32(0.02))
        .config(SimConfig::test(5))
        .recorder(RecorderOpts::default())
        .shards(2)
        .build();
    assert!(recorder.is_err(), "flight recorder must require shards = 1");

    let resweep = Network::builder(&topo, &fa)
        .workload(WorkloadSpec::uniform32(0.02))
        .config(SimConfig::test(5))
        .faults(&schedule, RecoveryPolicy::SmResweep, 2_000)
        .shards(2)
        .build();
    assert!(resweep.is_err(), "SmResweep must require shards = 1");
    let serial = Network::builder(&topo, &fa)
        .workload(WorkloadSpec::uniform32(0.02))
        .config(SimConfig::test(5))
        .faults(&schedule, RecoveryPolicy::SmResweep, 2_000)
        .shards(1)
        .build();
    assert!(serial.is_ok(), "the same schedule is accepted on shards(1)");
}
