//! Peak memory at scale: a 512-switch fabric on the 2-shard engine must
//! run to drain in under 250 MB peak resident set (`VmHWM`).
//!
//! This file is its own test binary and holds a single test, so no other
//! test's allocations can raise the process high-water mark it reads.
//! Release-only, like the CI step that runs it: the budget is for the
//! optimised build.
//!
//! Run it with `cargo test --release -p iba-sim --test memory_scaling`.

#![cfg(target_os = "linux")]

use iba_routing::{FaRouting, RoutingConfig};
use iba_sim::{Network, SimConfig};
use iba_topology::IrregularConfig;
use iba_workloads::WorkloadSpec;

/// Peak-RSS budget at 512 switches, in MB.
const PEAK_RSS_BUDGET_MB: f64 = 250.0;

/// This process's peak resident set size (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .expect("VmHWM line")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .expect("VmHWM in kB");
    kb as f64 / 1024.0
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: 512-switch build")]
fn peak_rss_at_512_switches_on_2_shards_stays_under_budget() {
    let topo = IrregularConfig::paper(512, 1).generate().unwrap();
    let routing = FaRouting::build(&topo, RoutingConfig::two_options()).unwrap();
    let cfg = SimConfig::test(1);
    let horizon = cfg.horizon();
    let mut net = Network::builder(&topo, &routing)
        .workload(WorkloadSpec::uniform32(0.01))
        .config(cfg)
        .shards(2)
        .threads(2)
        .build()
        .unwrap();
    let (result, drained) = net.run_until_drained(horizon, horizon.plus_ns(100_000));
    assert!(drained, "512-switch run failed to drain: {result:?}");
    assert!(result.delivered > 0);

    let peak = peak_rss_mb();
    assert!(
        peak < PEAK_RSS_BUDGET_MB,
        "peak RSS {peak:.1} MB at 512 switches on 2 shards (budget {PEAK_RSS_BUDGET_MB} MB)"
    );
}
