//! The correctness gate every run passes before a number is printed.
//!
//! An operation is one generated packet. It fails when it is still
//! undelivered at the drain deadline, delivered twice, or delivered out
//! of order. A run whose credit audit is not empty after the drain, or
//! that leaves packets resident in the fabric, fails outright.

use crate::workload::Outcome;
use iba_sim::RunResult;

/// The gate's verdict on one run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Verdict {
    /// Packets generated.
    pub attempted: u64,
    /// Packets undelivered at the deadline, duplicated or out of order.
    pub failed: u64,
    /// Why the run failed; empty for a healthy, correct run.
    pub problems: Vec<String>,
}

impl Verdict {
    /// Whether the run passed.
    pub fn passed(&self) -> bool {
        self.problems.is_empty()
    }
}

/// Judge one run.
pub fn check(out: &Outcome) -> Verdict {
    let r = &out.result;
    let undelivered = r.generated.saturating_sub(r.delivered);
    let failed = undelivered + r.order_violations + r.duplicate_deliveries;
    let mut problems = Vec::new();
    if undelivered > 0 || !out.drained {
        problems.push(format!(
            "{undelivered} of {} packets undelivered at the drain deadline",
            r.generated
        ));
    }
    if r.order_violations > 0 {
        problems.push(format!("{} order violations", r.order_violations));
    }
    if r.duplicate_deliveries > 0 {
        problems.push(format!("{} duplicate deliveries", r.duplicate_deliveries));
    }
    if r.source_drops > 0 || r.drops_in_transit > 0 {
        problems.push(format!(
            "{} source drops, {} drops in transit",
            r.source_drops, r.drops_in_transit
        ));
    }
    if out.residual_packets > 0 {
        problems.push(format!(
            "{} packets resident after the drain",
            out.residual_packets
        ));
    }
    if let Some(first) = out.credit_audit.first() {
        problems.push(format!(
            "credit audit: {} violations, first: {first}",
            out.credit_audit.len()
        ));
    }
    Verdict {
        attempted: r.generated,
        failed,
        problems,
    }
}

/// The gate over every run of one benchmark process. Each run must pass
/// [`check`], and all of them — repeats, the traced run, the bare
/// reference of an observed workload — must produce the same simulated
/// outputs. Runs with the same observers must also process the same
/// number of events.
#[derive(Clone, Debug, Default)]
pub struct Gate {
    /// Packets generated over all admitted runs.
    pub attempted: u64,
    /// Failed packets over all admitted runs.
    pub failed: u64,
    /// Every problem found, prefixed by the run it was found in.
    pub problems: Vec<String>,
    digest: Option<u64>,
    events: [Option<u64>; 2],
}

impl Gate {
    /// Judge one run; `observed` says whether its observers were armed.
    pub fn admit(&mut self, label: &str, out: &Outcome, observed: bool) {
        let v = check(out);
        self.attempted += v.attempted;
        self.failed += v.failed;
        self.problems
            .extend(v.problems.into_iter().map(|p| format!("{label}: {p}")));
        let d = digest(&out.result);
        if *self.digest.get_or_insert(d) != d {
            self.problems.push(format!(
                "{label}: simulated outputs differ (digest {d:016x}, first run {:016x})",
                self.digest.unwrap_or_default()
            ));
        }
        let events = out.result.events;
        let first = *self.events[observed as usize].get_or_insert(events);
        if first != events {
            self.problems
                .push(format!("{label}: {events} events, first run {first}"));
        }
    }

    /// Whether every admitted run passed.
    pub fn passed(&self) -> bool {
        self.problems.is_empty()
    }

    /// Events of the admitted runs with (`true`) or without observers.
    pub fn events(&self, observed: bool) -> Option<u64> {
        self.events[observed as usize]
    }

    /// The digest every admitted run reproduced.
    pub fn digest(&self) -> Option<u64> {
        self.digest
    }
}

/// FNV-1a digest of a run's simulated outputs: everything the model
/// computes except the event count, which observers legitimately raise,
/// and the host-time fields.
pub fn digest(r: &RunResult) -> u64 {
    let words = [
        r.generated,
        r.injected,
        r.delivered,
        r.measured_packets,
        r.avg_latency_ns.to_bits(),
        r.max_latency_ns,
        r.p50_latency_ns.unwrap_or(u64::MAX),
        r.p90_latency_ns.unwrap_or(u64::MAX),
        r.p99_latency_ns.unwrap_or(u64::MAX),
        r.p999_latency_ns.unwrap_or(u64::MAX),
        r.accepted_bytes_per_ns_per_switch.to_bits(),
        r.avg_hops.to_bits(),
        r.escape_forwards,
        r.adaptive_forwards,
        r.order_violations,
        r.duplicate_deliveries,
        r.max_host_queue as u64,
        r.source_drops,
        r.drops_in_transit,
    ];
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}
