//! The repository benchmark's command line.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload uniform32-64sw --seed 1 --seconds 25 --trace 0
//! ```
//!
//! `--seed` is the traffic seed and `--topology-seed` the fabric's, so a
//! claim can be re-checked on a fabric and traffic nobody tuned on.
//!
//! One workload per process, so `peak_rss_mb` never carries another
//! workload's memory. `--trace 0` prints the end-to-end metrics, `--trace
//! 1` the per-layer ledger of a separate traced run. Every run passes the
//! correctness gate before a number is printed; the last line of standard
//! output is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. A failed gate prints no metrics and exits non-zero.

use iba_benchmark::host::{self, HostInfo};
use iba_benchmark::probes;
use iba_benchmark::{
    run, run_sliced, workload, workloads, Fabric, Gate, Outcome, Seeds, Spans, Summary, Workload,
};
use std::error::Error;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// The fabric every workload runs on unless `--topology-seed` names
/// another. `--seed` varies the traffic only: between fabrics the
/// simulated p99 latency moves by up to 20 %, more than a bound can
/// absorb, so the fabric is part of the workload's definition.
const TOPOLOGY_SEED: u64 = 1;
/// Fewest set-ups per process; `setup_s` is their median.
const MIN_SETUPS: usize = 5;
/// Share of the measuring time given to repeated set-ups.
const SETUP_SHARE: f64 = 0.2;
/// Fewest timed runs per process, whatever `--seconds` says.
const MIN_RUNS: usize = 3;
/// Events per `sim.advance` slice of the traced run.
const SLICE_EVENTS: u64 = 200_000;

type Res<T> = Result<T, Box<dyn Error>>;

struct Args {
    workload: Workload,
    seeds: Seeds,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut name, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut topology_seed = None;
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let num = || {
                value
                    .parse::<u64>()
                    .map_err(|e| format!("{flag} {value}: {e}"))
            };
            match flag.as_str() {
                "--workload" => name = Some(value.clone()),
                "--seed" => seed = Some(num()?),
                "--topology-seed" => topology_seed = Some(num()?),
                "--seconds" => seconds = Some(num()?),
                "--trace" => trace = Some(num()? != 0),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let name = name.ok_or("--workload is required")?;
        let workload = workload(&name).ok_or_else(|| {
            let names: Vec<_> = workloads().iter().map(|w| w.name).collect();
            format!(
                "unknown workload {name}; choose one of {}",
                names.join(", ")
            )
        })?;
        Ok(Args {
            workload,
            seeds: Seeds {
                topology: topology_seed.unwrap_or(TOPOLOGY_SEED),
                traffic: seed.unwrap_or(1),
            },
            seconds: seconds.unwrap_or(10).max(1),
            trace: trace.unwrap_or(false),
        })
    }
}

/// One reported metric; `summary` is present for repeated timings.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    summary: Option<Summary>,
}

#[derive(Default)]
struct Report {
    gate: Gate,
    metrics: Vec<Metric>,
}

impl Report {
    fn value(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            summary: None,
        });
    }

    fn median(&mut self, name: &'static str, samples: &[f64], unit: &'static str) {
        let (value, summary) = if samples.is_empty() {
            (0.0, None)
        } else {
            let s = Summary::of(samples);
            (s.median, Some(s))
        };
        self.metrics.push(Metric {
            name,
            value,
            unit,
            summary,
        });
    }
}

/// Build a network for `w` and run it to drain.
fn one_run(w: &Workload, fabric: &Fabric, traffic_seed: u64, spans: &mut Spans) -> Res<Outcome> {
    let mut net = w.network(fabric, traffic_seed, false, spans)?;
    Ok(run(w, &mut net, spans))
}

/// The set-ups of one process. They are interleaved with its runs, so
/// that `setup_s` and `run_s` sample the same stretch of a noisy host.
struct Setups<'w> {
    w: &'w Workload,
    seeds: Seeds,
    started: Instant,
    /// The fabric of the latest set-up; every run uses it.
    fabric: Fabric,
    /// Set-up times in seconds.
    times: Vec<f64>,
    /// One `setup` span per set-up, each with a `topology.generate`,
    /// `routing.build` and `sim.build` child.
    spans: Spans,
}

impl<'w> Setups<'w> {
    fn start(w: &'w Workload, seeds: Seeds) -> Res<Setups<'w>> {
        let started = Instant::now();
        let mut spans = Spans::new();
        let (fabric, t) = Self::set_up(w, seeds, &mut spans)?;
        Ok(Setups {
            w,
            seeds,
            started,
            fabric,
            times: vec![t],
            spans,
        })
    }

    /// Generate the fabric, compile its routing and build the network.
    fn set_up(w: &Workload, seeds: Seeds, spans: &mut Spans) -> Res<(Fabric, f64)> {
        spans.enter("setup");
        let fabric = Fabric::generate(w.switches, seeds.topology, spans)?;
        drop(w.network(&fabric, seeds.traffic, false, spans)?);
        Ok((fabric, secs(spans.exit())))
    }

    /// Set up again until set-ups have taken [`SETUP_SHARE`] of the time
    /// since the first, and at least [`MIN_SETUPS`] times.
    fn catch_up(&mut self) -> Res<()> {
        let share = |s: &Self| s.times.iter().sum::<f64>() / s.started.elapsed().as_secs_f64();
        while self.times.len() < MIN_SETUPS || share(self) < SETUP_SHARE {
            let (fabric, t) = Self::set_up(self.w, self.seeds, &mut self.spans)?;
            self.fabric = fabric;
            self.times.push(t);
        }
        Ok(())
    }
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

fn untraced(args: &Args, deadline: Instant) -> Res<Report> {
    let (w, traffic) = (&args.workload, args.seeds.traffic);
    let mut report = Report::default();
    let mut setups = Setups::start(w, args.seeds)?;
    let mut spans = Spans::new();
    if w.observed {
        let bare = one_run(&w.bare(), &setups.fabric, traffic, &mut spans)?;
        report.gate.admit("bare reference", &bare, false);
    }
    let mut outs = Vec::new();
    while outs.len() < MIN_RUNS || Instant::now() < deadline {
        setups.catch_up()?;
        let out = one_run(w, &setups.fabric, traffic, &mut spans)?;
        report
            .gate
            .admit(&format!("run {}", outs.len() + 1), &out, w.observed);
        outs.push(out);
    }
    let run_s: Vec<f64> = outs.iter().map(|o| secs(o.run_ns)).collect();
    let rate: Vec<f64> = outs
        .iter()
        .map(|o| o.result.events as f64 / secs(o.run_ns))
        .collect();
    let r = &outs[0].result;
    report.median("run_s", &run_s, "s");
    report.median("events_per_s", &rate, "1/s");
    report.median("setup_s", &setups.times, "s");
    report.value("peak_rss_mb", host::peak_rss_mb(), "MB");
    report.value(
        "accepted_traffic",
        r.accepted_bytes_per_ns_per_switch,
        "B/ns/switch",
    );
    report.value("sim_latency_avg_ns", r.avg_latency_ns, "ns");
    report.value(
        "sim_latency_p99_ns",
        r.p99_latency_ns.ok_or("no measured packets")? as f64,
        "ns",
    );
    Ok(report)
}

/// Memory probes, run first while the process is fresh: the RSS growth
/// across one `build()`, and for an observed workload the growth of the
/// peak RSS from a bare run to an observed one. Admits the runs it
/// makes to the gate.
fn memory(w: &Workload, seeds: Seeds, gate: &mut Gate) -> Res<(f64, f64)> {
    let mut spans = Spans::new();
    let fabric = Fabric::generate(w.switches, seeds.topology, &mut spans)?;
    let rss0 = host::rss_mb();
    let net = w.network(&fabric, seeds.traffic, false, &mut spans)?;
    let build_mb = host::rss_mb() - rss0;
    drop(net);
    let mut observe_mb = 0.0;
    if w.observed {
        gate.admit(
            "bare reference",
            &one_run(&w.bare(), &fabric, seeds.traffic, &mut spans)?,
            false,
        );
        let bare_peak = host::peak_rss_mb();
        gate.admit(
            "first observed run",
            &one_run(w, &fabric, seeds.traffic, &mut spans)?,
            true,
        );
        observe_mb = host::peak_rss_mb() - bare_peak;
    }
    Ok((build_mb, observe_mb))
}

fn traced(args: &Args, deadline: Instant) -> Res<Report> {
    let (w, seeds) = (&args.workload, args.seeds);
    let mut report = Report::default();
    let (build_mb, observe_mb) = memory(w, seeds, &mut report.gate)?;
    let mut setups = Setups::start(w, seeds)?;
    let mut spans = Spans::new();

    // Untraced runs to hold the traced ones against, then traced runs:
    // sliced advance, drain, and the engine profile.
    let mut untraced_s = Vec::new();
    while untraced_s.len() < MIN_RUNS {
        setups.catch_up()?;
        let out = one_run(w, &setups.fabric, seeds.traffic, &mut spans)?;
        report.gate.admit(
            &format!("untraced run {}", untraced_s.len() + 1),
            &out,
            w.observed,
        );
        untraced_s.push(secs(out.run_ns));
    }
    let (mut traced_s, mut per_event, mut drain_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut last = None;
    while traced_s.len() < MIN_RUNS || Instant::now() < deadline {
        setups.catch_up()?;
        let mut net = w.network(&setups.fabric, seeds.traffic, w.shards > 1, &mut spans)?;
        let (out, slices) = run_sliced(w, &mut net, SLICE_EVENTS, &mut spans);
        report.gate.admit(
            &format!("traced run {}", traced_s.len() + 1),
            &out,
            w.observed,
        );
        let cfg = net.config();
        per_event.extend(
            slices
                .iter()
                .filter(|s| s.start >= cfg.warmup && s.start < cfg.horizon())
                .map(|s| s.ns as f64 / s.events as f64),
        );
        traced_s.push(secs(out.run_ns));
        drain_s.push(secs(
            *spans.durations("sim.drain").last().expect("drain span"),
        ));
        last = Some((out, net.engine_profile().cloned()));
    }
    let (out, profile) = last.expect("at least one traced run");
    let r = &out.result;

    // Layer probes at this workload's sizes.
    let fabric = &setups.fabric;
    let route_ns = probes::route_ns(w, fabric, seeds.traffic);
    let generate_ns = probes::generate_ns(w, fabric, seeds.traffic);
    let arb = {
        let mut net = w
            .bare()
            .network(fabric, seeds.traffic, false, &mut Spans::new())?;
        probes::arbitration(&mut net, fabric.topology.num_hosts())
    };
    let (heap_ns, calendar_ns) = probes::queue_op_ns(arb.pending_depth);
    let hist_ns = probes::hist_record_ns(r.p50_latency_ns.unwrap_or(1), r.max_latency_ns);

    let setup = |name| -> Vec<f64> {
        setups
            .spans
            .self_times(name)
            .into_iter()
            .map(secs)
            .collect()
    };
    let run_phase = |name| -> Vec<f64> { spans.self_times(name).into_iter().map(secs).collect() };
    report.median("topology.generate_s", &setup("topology.generate"), "s");
    report.median("routing.build_s", &setup("routing.build"), "s");
    report.value("routing.route_ns", route_ns, "ns");
    report.value("routing.escape_share", r.escape_fraction(), "ratio");
    report.value("engine.queue_op_ns", heap_ns, "ns");
    report.value("engine.calendar_queue_op_ns", calendar_ns, "ns");
    report.value("engine.pending_depth", arb.pending_depth as f64, "count");
    let p = profile.unwrap_or_default();
    report.value("engine.windows", p.windows as f64, "count");
    report.value(
        "engine.events_per_window_p50",
        p.events_per_window.quantile(0.5).unwrap_or(0) as f64,
        "count",
    );
    report.value("engine.barrier_wait_share", p.barrier_wait_share(), "ratio");
    report.value(
        "engine.mailbox_msgs_per_event",
        p.mailbox_msgs as f64 / r.events as f64,
        "ratio",
    );
    report.median("sim.build_s", &setup("sim.build"), "s");
    report.value("sim.build_rss_mb", build_mb, "MB");
    report.median("sim.advance_ns_per_event", &per_event, "ns");
    report.value(
        "sim.advance_spread",
        Summary::of(&per_event).spread(),
        "ratio",
    );
    report.value("sim.arbitrate_pass_ns", arb.pass_ns, "ns");
    report.value("sim.grants_per_pass", arb.grants_per_pass, "count");
    report.value(
        "sim.events_per_packet",
        r.events as f64 / r.generated as f64,
        "ratio",
    );
    report.median("sim.drain_s", &drain_s, "s");
    report.value("sim.max_host_queue", r.max_host_queue as f64, "count");
    report.value("workloads.generate_ns", generate_ns, "ns");
    report.value("stats.hist_record_ns", hist_ns, "ns");
    report.median(
        "stats.metrics_registry_s",
        &run_phase("stats.metrics_registry"),
        "s",
    );
    let extra_events = match (report.gate.events(true), report.gate.events(false)) {
        (Some(observed), Some(bare)) => observed as f64 - bare as f64,
        _ => 0.0,
    };
    report.value("observe.extra_events", extra_events, "count");
    report.median(
        "observe.flight_dump_s",
        &run_phase("observe.flight_dump"),
        "s",
    );
    report.value("observe.rss_mb", observe_mb, "MB");
    report.value(
        "trace.overhead_s",
        Summary::of(&traced_s).median - Summary::of(&untraced_s).median,
        "s",
    );

    println!("self time per span:");
    for sp in [&setups.spans, &spans] {
        let mut names: Vec<&str> = sp.spans().iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        for name in names {
            let st = sp.self_times(name);
            println!(
                "  {name:<24} n={:<6} total {:.6} s",
                st.len(),
                secs(st.iter().sum())
            );
        }
    }
    Ok(report)
}

/// The result line. Metrics are printed only when the gate passed.
fn json(report: &Report) -> String {
    let correct = report.gate.passed();
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .filter(|_| correct)
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.gate.attempted,
        report.gate.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let start = Instant::now();
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let w = &args.workload;
    let host = HostInfo::detect();
    println!(
        "host: nproc {} | cpu {} | available_parallelism {} | engine threads used {}",
        host.nproc,
        host.cpu_model,
        host.available_parallelism,
        w.threads()
    );
    println!(
        "workload {}: {} switches, {} shard(s), {} B packets, adaptive {}, {} B/ns/host, observed {} | topology seed {}, traffic seed {} | {}",
        w.name,
        w.switches,
        w.shards,
        w.spec.packet_bytes,
        w.spec.adaptive_fraction,
        w.spec.injection_rate,
        w.observed,
        args.seeds.topology,
        args.seeds.traffic,
        if args.trace { "traced" } else { "untraced" }
    );
    let deadline = start + Duration::from_secs(args.seconds);
    let measured = if args.trace {
        traced(&args, deadline)
    } else {
        untraced(&args, deadline)
    };
    let report = match measured {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if !report.gate.passed() {
        for p in &report.gate.problems {
            println!("gate FAILED: {p}");
        }
        println!("{}", json(&report));
        return ExitCode::FAILURE;
    }
    if let Some(m) = report.metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("error: metric {} is not finite", m.name);
        return ExitCode::FAILURE;
    }
    println!(
        "gate passed: {} packets, 0 failed, simulated-output digest {:016x}",
        report.gate.attempted,
        report.gate.digest().unwrap_or_default()
    );
    for m in &report.metrics {
        match m.summary {
            Some(s) => println!(
                "{:<30} {:>16.6} {:<12} median of {}, q1 {:.6}, q3 {:.6}, spread {:.2} %",
                m.name,
                m.value,
                m.unit,
                s.n,
                s.q1,
                s.q3,
                100.0 * s.spread()
            ),
            None => println!("{:<30} {:>16.6} {}", m.name, m.value, m.unit),
        }
    }
    println!("{}", json(&report));
    ExitCode::SUCCESS
}
