//! The benchmark's workloads and the calls that set up and run them.
//!
//! Every workload is built the same way: `IrregularConfig::paper`,
//! `FaRouting::build(.., RoutingConfig::two_options())` and
//! `SimConfig::paper`, with open-loop Poisson traffic that stops at the
//! horizon and a run that continues until the fabric has drained. A
//! healthy run therefore delivers every generated packet; a collapse
//! leaves packets undelivered at the drain deadline, and the gate counts
//! them as failed operations.

use crate::spans::Spans;
use iba_core::SimTime;
use iba_routing::{FaRouting, RoutingConfig};
use iba_sim::{Network, RecorderOpts, RunResult, SimConfig, TelemetryOpts};
use iba_topology::{IrregularConfig, Topology};
use iba_workloads::WorkloadSpec;
use std::error::Error;

/// Simulated time a run may take to drain after generation stops at the
/// horizon. Healthy runs drain within a few microseconds; the serial
/// collapse at the saturation knee needs hundreds.
const DRAIN_GRACE_NS: u64 = 100_000;

/// One benchmark workload: a fabric size, a traffic mix and an engine.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Switches in the irregular fabric.
    pub switches: usize,
    /// Traffic each host generates.
    pub spec: WorkloadSpec,
    /// Engine partitions; 1 is the serial engine.
    pub shards: usize,
    /// Length of the measurement window after the paper's warm-up.
    pub measure_us: u64,
    /// Whether telemetry, the flight recorder and the metrics plane are
    /// armed, with the registry filled and the recorder dumped after the
    /// run.
    pub observed: bool,
}

/// The workloads, in the order `BENCHMARK.json` lists them.
pub fn workloads() -> [Workload; 4] {
    let uniform32 = WorkloadSpec::uniform32(0.015);
    [
        Workload {
            name: "uniform32-64sw",
            switches: 64,
            spec: uniform32,
            shards: 1,
            measure_us: 240,
            observed: false,
        },
        Workload {
            name: "uniform32-256sw-2shard",
            switches: 256,
            spec: uniform32,
            shards: 2,
            measure_us: 240,
            observed: false,
        },
        Workload {
            name: "mixed256-64sw",
            switches: 64,
            spec: WorkloadSpec {
                packet_bytes: 256,
                adaptive_fraction: 0.5,
                ..WorkloadSpec::uniform32(0.01)
            },
            shards: 1,
            measure_us: 24_000,
            observed: false,
        },
        Workload {
            name: "uniform32-64sw-observed",
            switches: 64,
            spec: uniform32,
            shards: 1,
            measure_us: 240,
            observed: true,
        },
    ]
}

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<Workload> {
    workloads().into_iter().find(|w| w.name == name)
}

/// The two seeds of a run: one for the fabric, one for the traffic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Seeds {
    /// `IrregularConfig::paper` seed.
    pub topology: u64,
    /// `SimConfig::paper` seed.
    pub traffic: u64,
}

/// A generated fabric with its compiled FA routing.
pub struct Fabric {
    /// The wired topology.
    pub topology: Topology,
    /// FA routing over up*/down* escape paths.
    pub routing: FaRouting,
}

impl Fabric {
    /// Generate the fabric and compile its routing, recording a
    /// `topology.generate` and a `routing.build` span.
    pub fn generate(
        switches: usize,
        seed: u64,
        spans: &mut Spans,
    ) -> Result<Fabric, Box<dyn Error>> {
        spans.enter("topology.generate");
        let topology = IrregularConfig::paper(switches, seed).generate();
        spans.exit();
        let topology = topology?;
        spans.enter("routing.build");
        let routing = FaRouting::build(&topology, RoutingConfig::two_options());
        spans.exit();
        Ok(Fabric {
            topology,
            routing: routing?,
        })
    }
}

impl Workload {
    /// Worker threads the sharded engine uses: one per shard, capped at
    /// the host's available parallelism.
    pub fn threads(&self) -> usize {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        self.shards.min(cores).max(1)
    }

    /// The simulation configuration of this workload.
    pub fn config(&self, traffic_seed: u64) -> SimConfig {
        SimConfig {
            measure_window: SimTime::from_us(self.measure_us),
            ..SimConfig::paper(traffic_seed)
        }
    }

    /// Build the network for one run, recording a `sim.build` span.
    /// `profile` arms the metrics plane on a bare workload, for the
    /// traced run's engine profile.
    pub fn network<'a>(
        &self,
        fabric: &'a Fabric,
        traffic_seed: u64,
        profile: bool,
        spans: &mut Spans,
    ) -> Result<Network<'a>, Box<dyn Error>> {
        let mut b = Network::builder(&fabric.topology, &fabric.routing)
            .workload(self.spec)
            .config(self.config(traffic_seed));
        if self.shards > 1 {
            b = b.shards(self.shards).threads(self.threads());
        }
        if self.observed {
            b = b
                .telemetry(TelemetryOpts::default())
                .recorder(RecorderOpts::default());
        }
        if self.observed || profile {
            b = b.metrics();
        }
        spans.enter("sim.build");
        let net = b.build();
        spans.exit();
        Ok(net?)
    }

    /// The same workload with every observer off: the reference whose
    /// simulated outputs an observed run must reproduce.
    pub fn bare(&self) -> Workload {
        Workload {
            observed: false,
            ..*self
        }
    }
}

/// What one run left behind, for the gate.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// The run's result.
    pub result: RunResult,
    /// Whether every generated packet was delivered by the deadline.
    pub drained: bool,
    /// `Network::credit_audit` after the drain (empty when conserved).
    pub credit_audit: Vec<String>,
    /// `Network::residual_packets` after the drain.
    pub residual_packets: usize,
    /// Host nanoseconds of the run's `sim.run` span.
    pub run_ns: u64,
}

impl Outcome {
    fn collect(net: &Network<'_>, result: RunResult, drained: bool, run_ns: u64) -> Outcome {
        Outcome {
            result,
            drained,
            credit_audit: net.credit_audit(),
            residual_packets: net.residual_packets(),
            run_ns,
        }
    }
}

/// Run `net` to drain inside one `sim.run` span. An observed workload
/// then fills the metrics registry and dumps the flight recorder inside
/// the same span, because a user of the observation layer pays for both.
pub fn run(w: &Workload, net: &mut Network<'_>, spans: &mut Spans) -> Outcome {
    let horizon = net.config().horizon();
    spans.enter("sim.run");
    let (result, drained) = net.run_until_drained(horizon, horizon.plus_ns(DRAIN_GRACE_NS));
    if w.observed {
        observe(net, &result, spans);
    }
    let run_ns = spans.exit();
    Outcome::collect(net, result, drained, run_ns)
}

/// The traced run: the same simulation advanced in fixed event slices
/// up to the horizon (one `sim.advance` span each), then drained in a
/// `sim.drain` span. Returns the outcome and, per slice, the simulated
/// time it started at, the events it processed and its host duration.
pub fn run_sliced(
    w: &Workload,
    net: &mut Network<'_>,
    slice_events: u64,
    spans: &mut Spans,
) -> (Outcome, Vec<Slice>) {
    let horizon = net.config().horizon();
    let mut slices = Vec::new();
    spans.enter("sim.run");
    loop {
        let start = net.now();
        spans.enter("sim.advance");
        let events = net.advance(slice_events);
        let ns = spans.exit();
        if events == 0 {
            break;
        }
        slices.push(Slice { start, events, ns });
    }
    spans.enter("sim.drain");
    let (result, drained) = net.run_until_drained(horizon, horizon.plus_ns(DRAIN_GRACE_NS));
    spans.exit();
    if w.observed {
        observe(net, &result, spans);
    }
    let run_ns = spans.exit();
    (Outcome::collect(net, result, drained, run_ns), slices)
}

/// One `sim.advance` slice of a traced run.
#[derive(Clone, Copy, Debug)]
pub struct Slice {
    /// Simulated time at the start of the slice.
    pub start: SimTime,
    /// Events the slice processed.
    pub events: u64,
    /// Host nanoseconds the slice took.
    pub ns: u64,
}

fn observe(net: &Network<'_>, result: &RunResult, spans: &mut Spans) {
    spans.enter("stats.metrics_registry");
    std::hint::black_box(net.metrics_registry(result));
    spans.exit();
    spans.enter("observe.flight_dump");
    std::hint::black_box(net.flight_dump());
    spans.exit();
}
