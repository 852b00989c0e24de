//! Arbitration on switches with more than 64 ports.
//!
//! Each switch keeps a `u128` occupancy index with one bit per input
//! port, and arbitration sweeps only the inputs whose bit is set. A
//! narrower mask would overflow at port 64 and skip every input above
//! it, which leaves packets stuck there. This fabric attaches hosts at
//! ports 64 and up, so every run must drain with conserved credits. It
//! must also give the same result on both queue backends and on every
//! shard count.

use iba_routing::{FaRouting, RoutingConfig};
use iba_sim::{Network, QueueBackend, RunResult, SimConfig};
use iba_topology::{IrregularConfig, Topology};
use iba_workloads::WorkloadSpec;

fn run(topo: &Topology, shards: Option<usize>, backend: QueueBackend) -> RunResult {
    let routing = FaRouting::build(topo, RoutingConfig::two_options()).unwrap();
    let mut cfg = SimConfig::test(3);
    cfg.queue_backend = backend;
    let horizon = cfg.horizon();
    let mut builder = Network::builder(topo, &routing)
        .workload(WorkloadSpec::uniform32(0.002))
        .config(cfg);
    if let Some(n) = shards {
        builder = builder.shards(n);
    }
    let mut net = builder.build().unwrap();
    let (result, drained) = net.run_until_drained(horizon, horizon.plus_ns(400_000));
    let label = format!("shards={shards:?} backend={backend:?}");
    assert!(drained, "{label}: network failed to drain");
    assert_eq!(net.residual_packets(), 0, "{label}");
    let audit = net.credit_audit();
    assert!(audit.is_empty(), "{label}: audit: {audit:?}");
    assert!(result.delivered > 0, "{label}");
    assert_eq!(result.generated, result.delivered, "{label}");
    result
}

#[test]
fn arbitration_serves_inputs_beyond_port_63() {
    let topo = IrregularConfig {
        switches: 4,
        inter_switch_links: 2,
        hosts_per_switch: 68,
        seed: 11,
    }
    .generate()
    .unwrap();
    assert_eq!(topo.ports_per_switch(), 70);
    let high = topo
        .host_ids()
        .filter(|&h| topo.host_attachment(h).1.index() >= 64)
        .count();
    assert!(high > 0, "no host is attached above port 63");

    let heap = run(&topo, None, QueueBackend::BinaryHeap);
    let calendar = run(&topo, None, QueueBackend::Calendar);
    assert_eq!(heap, calendar, "queue backend leaked into the results");

    let two = run(&topo, Some(2), QueueBackend::BinaryHeap);
    let four = run(&topo, Some(4), QueueBackend::BinaryHeap);
    assert_eq!(two, four, "shard count leaked into the results");
}
