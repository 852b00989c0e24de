//! The health gate must report a throughput collapse as failed
//! operations, never as a slow run that passes. The case is the serial
//! engine's collapse at the saturation knee: 192 switches, topology
//! seed 1, `uniform32(0.02)`, where the serial engine delivers about half
//! of what it generates by the horizon.
//!
//! Run with `cargo test --release --offline --manifest-path
//! benchmark/Cargo.toml`; a debug build takes minutes.

use iba_benchmark::{check, run, Fabric, Spans, Workload};
use iba_workloads::WorkloadSpec;

fn gate_on(switches: usize, rate: f64) -> iba_benchmark::Verdict {
    let w = Workload {
        name: "gate-self-test",
        switches,
        spec: WorkloadSpec::uniform32(rate),
        shards: 1,
        measure_us: 240,
        observed: false,
    };
    let mut spans = Spans::new();
    let fabric = Fabric::generate(switches, 1, &mut spans).expect("paper fabric");
    let mut net = w.network(&fabric, 100, false, &mut spans).expect("network");
    check(&run(&w, &mut net, &mut spans))
}

#[test]
fn serial_collapse_at_the_knee_fails_the_gate() {
    let v = gate_on(192, 0.02);
    assert!(!v.passed(), "the collapse passed the gate: {v:?}");
    assert!(
        v.failed > v.attempted / 10,
        "the collapse should leave many packets undelivered: {v:?}"
    );
}

#[test]
fn a_healthy_run_passes_the_gate() {
    let v = gate_on(16, 0.015);
    assert!(v.passed(), "{v:?}");
    assert_eq!(v.failed, 0);
    assert!(v.attempted > 0);
}
