//! The dvmp benchmark: wall time of one simulated week per workload.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-week --seed 42 --seconds 45 --trace 0
//! ```
//!
//! Each workload is a batch replay of a request stream generated from the
//! seed, run through the public `Simulation` API on one thread. With
//! `--trace 0` the process reports the end-to-end metrics; with
//! `--trace 1` it reports the per-layer metrics of a separate traced run
//! (placement calls timed by a policy decorator, `dvmp_obs` counters).
//! Every run's report is checked against a checked-mode reference run,
//! and for seed 42 against pinned outputs. The last line of standard
//! output is one JSON object; the exit code is non-zero when any check
//! fails. Without `--workload` every workload runs, each in its own
//! process.

mod gate;
mod stats;
mod trace;
mod workload;

use dvmp::prelude::{PlacementPolicy, RunReport, Scenario, Simulation};
use dvmp_obs::CounterSnapshot;
use serde::Value;
use std::cell::RefCell;
use std::fmt::Write as _;
use std::io::Write as _;
use std::process::{Command, ExitCode, Stdio};
use std::rc::Rc;
use std::time::Instant;
use trace::{RunLayers, SpanLog, TimedPolicy};
use workload::Workload;

const USAGE: &str =
    "usage: perfbench [--workload <name>] [--seed <n>] [--seconds <n>] [--trace <0|1>]\n\
     workloads: paper-week, elastic-1k-week, scaled-10k-week, firstfit-50k-week (default: all)\n\
     --seconds defaults to BENCHMARK.json's run_seconds";

/// Timed runs per process, at least, however long they take.
const MIN_RUNS: usize = 3;
/// Scenario builds before each timed run. The builds are spread over the
/// whole measuring window, so `setup_s`, their median, sees the same host
/// as `run_s`. One cold build before the window is left out.
const BUILDS_PER_RUN: usize = 3;
/// Request-stream generations in a traced process: at least
/// `MIN_GENERATIONS`, and more until `GENERATE_SECONDS` have passed.
const MIN_GENERATIONS: usize = 3;
const GENERATE_SECONDS: f64 = 1.0;

/// Metrics reported with `--trace 0`, as listed in `BENCHMARK.json`.
const END_TO_END: &[(&str, &str)] = &[
    ("run_s", "s"),
    ("vm_requests_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Metrics reported with `--trace 1`, as listed in `BENCHMARK.json`.
const PER_LAYER: &[(&str, &str)] = &[
    ("placement.place.calls", "count"),
    ("placement.place.busy_s", "s"),
    ("placement.place.p50_us", "us"),
    ("placement.place.p99_us", "us"),
    ("placement.place.queued_share", "fraction"),
    ("placement.plan.calls", "count"),
    ("placement.plan.busy_s", "s"),
    ("placement.plan.p50_us", "us"),
    ("placement.plan.p99_us", "us"),
    ("placement.plan.useful_share", "fraction"),
    ("placement.plan.migrations_proposed", "count"),
    ("placement.migrations_committed_share", "fraction"),
    ("placement.delta.calls", "count"),
    ("placement.delta.busy_s", "s"),
    ("placement.busy_share", "fraction"),
    ("placement.passes.compressed", "count"),
    ("placement.passes.delta", "count"),
    ("placement.passes.fresh", "count"),
    ("placement.passes.rounds", "count"),
    ("placement.poisons", "count"),
    ("placement.patch_cols", "count"),
    ("placement.rebuild_fallbacks", "count"),
    ("core.span_s", "s"),
    ("core.build_s", "s"),
    ("core.self_s", "s"),
    ("core.ns_per_event", "ns"),
    ("core.events", "count"),
    ("simcore.events_dispatched", "count"),
    ("cluster.journal_drains", "count"),
    ("cluster.journal_dirty_vms", "count"),
    ("forecast.spare_decisions", "count"),
    ("workload.generate_s", "s"),
    ("trace.overhead_share", "fraction"),
];

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

/// The measuring window `BENCHMARK.json` gives one run, in seconds; the
/// default of `--seconds`, so that the window has one source.
fn run_seconds() -> u64 {
    let spec = serde_json::parse_str(include_str!("../../BENCHMARK.json"));
    match spec.as_ref().ok().and_then(|s| s.get("run_seconds")) {
        Some(Value::U64(n)) => *n,
        _ => panic!("BENCHMARK.json has no whole-number run_seconds"),
    }
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: gate::PINNED_SEED,
        seconds: run_seconds(),
        trace: false,
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, not {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                let w =
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?;
                args.workload = Some(w);
            }
            "--seed" => args.seed = number()?,
            "--seconds" => {
                args.seconds = number()?;
                if args.seconds == 0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(args)
}

/// The unit `BENCHMARK.json` gives a metric.
fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| *unit)
        .unwrap_or_else(|| panic!("metric {name} is not listed in BENCHMARK.json"))
}

/// What one process measured and checked.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, String)>,
}

impl Outcome {
    fn metric(&mut self, name: &str, value: f64) {
        self.metrics
            .push((name.into(), value, unit_of(name).into()));
    }

    fn fail(&mut self, why: &str) {
        println!("FAILED {why}");
        self.failed += 1;
    }

    /// Counts one checked run, recording why it failed if it did.
    fn check(&mut self, label: &str, why: Option<String>) {
        self.attempted += 1;
        if let Some(why) = why {
            self.fail(&format!("{label}: {why}"));
        }
    }

    /// Fails unless exactly the metrics of `table` were reported, in order.
    fn expect_metrics(&mut self, table: &[(&str, &str)]) {
        let names: Vec<&str> = self.metrics.iter().map(|(n, _, _)| n.as_str()).collect();
        let wanted: Vec<&str> = table.iter().map(|(n, _)| *n).collect();
        if names != wanted {
            self.fail(&format!("reported metrics {names:?}, expected {wanted:?}"));
        }
    }

    fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }

    /// Prints the metric table and the JSON result line.
    fn finish(&self) -> ExitCode {
        for (name, value, unit) in &self.metrics {
            println!("  {name:<38} {value:>16.6} {unit}");
        }
        println!("{}", self.json());
        let _ = std::io::stdout().flush();
        if self.failed == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(w) => bench_one(w, &args).finish(),
        None => bench_all(&args).finish(),
    }
}

/// One simulated run on fresh copies of the scenario's inputs; only
/// `Simulation::new` and `run` fall inside the returned time.
fn timed_run(s: &Scenario, policy: Box<dyn PlacementPolicy>) -> (f64, RunReport) {
    let (fleet, requests, resizes) = (
        s.fleet().clone(),
        s.requests().to_vec(),
        s.resizes().to_vec(),
    );
    let cfg = s.sim.clone();
    let t = Instant::now();
    let report = Simulation::new(fleet, requests, policy, cfg)
        .with_resizes(resizes)
        .run();
    (t.elapsed().as_secs_f64(), report)
}

/// Calls `run` until `seconds` have passed and at least `min` calls are done.
fn repeat<T>(seconds: f64, min: usize, mut run: impl FnMut() -> T) -> Vec<T> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min || start.elapsed().as_secs_f64() < seconds {
        out.push(run());
    }
    out
}

fn bench_one(w: Workload, args: &Args) -> Outcome {
    let seed = args.seed;
    println!(
        "perfbench {} seed {seed} seconds {} trace {}",
        w.name(),
        args.seconds,
        u8::from(args.trace)
    );
    let mut scenario = Some(w.scenario(seed));
    let mut setup_times = Vec::new();
    let plain = repeat(args.seconds as f64, MIN_RUNS, || {
        for _ in 0..BUILDS_PER_RUN {
            // Drop the previous build first, so only one is ever alive.
            drop(scenario.take());
            let t = Instant::now();
            scenario = Some(w.scenario(seed));
            setup_times.push(t.elapsed().as_secs_f64());
        }
        timed_run(scenario.as_ref().expect("just built"), w.policy())
    });
    let scenario = scenario.expect("at least one build");
    let n_requests = scenario.requests().len();
    let run_times: Vec<f64> = plain.iter().map(|(t, _)| *t).collect();
    let run_s = stats::median(&run_times).expect("at least one run");
    print_spread("run_s", &run_times);
    println!("run_s each: {run_times:.3?}");
    // Read before the checked run, whose oracle holds a reference model.
    let peak_rss = peak_rss_mib();
    let traced = args.trace.then(|| traced_runs(w, &scenario, args.seconds));

    // The reference: the same inputs in checked mode, after every timed
    // run (checked mode turns the global obs switch on for good).
    let mut out = Outcome::default();
    let mut checked_scenario = scenario;
    checked_scenario.sim.checked = true;
    let (_, checked) = timed_run(&checked_scenario, w.policy());
    let reference = gate::canonical(&checked);
    let fp = gate::Fingerprint::of(&checked);
    println!(
        "fingerprint: energy_kwh {:?} migrations {} arrivals {} waited {} never_started {}",
        fp.energy_kwh, fp.migrations, fp.arrivals, fp.waited_requests, fp.never_started
    );
    let violations = checked.oracle.as_ref().map(|o| o.total_violations());
    let checked_why = match violations {
        Some(0) => gate::check_run(w, seed, &checked, &reference),
        Some(n) => Some(format!("{n} oracle violations")),
        None => Some("checked run carries no oracle summary".into()),
    };
    out.check("checked run", checked_why);
    for (i, (_, report)) in plain.iter().enumerate() {
        out.check(
            &format!("timed run {i}"),
            gate::check_run(w, seed, report, &reference),
        );
    }

    let Some(traced) = traced else {
        out.metric("run_s", run_s);
        out.metric("vm_requests_per_s", n_requests as f64 / run_s);
        print_spread("setup_s", &setup_times);
        out.metric(
            "setup_s",
            stats::median(&setup_times).expect("at least one build"),
        );
        match peak_rss {
            Some(mib) => out.metric("peak_rss_mib", mib),
            None => out.fail("VmHWM unreadable from /proc/self/status"),
        }
        out.expect_metrics(END_TO_END);
        return out;
    };
    let first_counts = counts(&traced.runs[0].counters);
    for (i, t) in traced.runs.iter().enumerate() {
        let why = gate::check_run(w, seed, &t.report, &reference).or_else(|| {
            let differ: Vec<&str> = counts(&t.counters)
                .iter()
                .zip(&first_counts)
                .filter(|(a, b)| a != b)
                .map(|((name, _), _)| *name)
                .collect();
            (!differ.is_empty())
                .then(|| format!("obs counters differ from traced run 0: {differ:?}"))
        });
        out.check(&format!("traced run {i}"), why);
    }
    let mut generated = 0;
    let generate_times = repeat(GENERATE_SECONDS, MIN_GENERATIONS, || {
        let t = Instant::now();
        generated = w.generate_requests(seed);
        t.elapsed().as_secs_f64()
    });
    if generated != n_requests {
        out.fail(&format!(
            "workload layer generated {generated} requests, the scenario has {n_requests}"
        ));
    }
    let generate_s = stats::median(&generate_times).expect("at least one generation");
    layer_metrics(&mut out, &traced, run_s, generate_s);
    out.expect_metrics(PER_LAYER);
    write_spans(w, seed, &traced.log);
    out
}

/// Prints the quartiles of one process's samples of a metric.
fn print_spread(name: &str, values: &[f64]) {
    if let (Some([q1, mid, q3]), Some(spread)) =
        (stats::quartiles(values), stats::relative_iqr(values))
    {
        println!(
            "{name}: n {} q1 {q1:.6} median {mid:.6} q3 {q3:.6} spread {spread:.4}",
            values.len()
        );
    }
}

/// The counter deltas of one run, gauges left out: a gauge holds the
/// last value set, so its difference between two snapshots means nothing.
/// The rest repeat exactly between runs of the same inputs.
fn counts(c: &CounterSnapshot) -> Vec<(&'static str, u64)> {
    let mut v = c.entries();
    v.retain(|(name, _)| !name.ends_with("_gauge"));
    v
}

struct TracedRun {
    report: RunReport,
    counters: CounterSnapshot,
    build_s: f64,
    events: u64,
    layers: RunLayers,
}

struct Traced {
    runs: Vec<TracedRun>,
    log: SpanLog,
}

/// The traced runs: obs counters on, every placement call timed. Only
/// ever called after the untraced runs, because the obs switch is
/// process-global and cannot be turned back off safely mid-process.
fn traced_runs(w: Workload, s: &Scenario, seconds: u64) -> Traced {
    dvmp_obs::set_enabled(true);
    let log = Rc::new(RefCell::new(SpanLog::default()));
    let runs = repeat(seconds as f64 / 2.0, 1, || {
        let (fleet, requests, resizes) = (
            s.fleet().clone(),
            s.requests().to_vec(),
            s.resizes().to_vec(),
        );
        let cfg = s.sim.clone();
        let policy = Box::new(TimedPolicy::new(w.policy(), Rc::clone(&log)));
        let before = dvmp_obs::counters_snapshot();
        let run = log.borrow_mut().begin_run();
        let t = Instant::now();
        let sim = Simulation::new(fleet, requests, policy, cfg).with_resizes(resizes);
        let build_s = t.elapsed().as_secs_f64();
        let (report, events) = sim.run_counting();
        log.borrow_mut().end_run();
        let counters = dvmp_obs::counters_snapshot().delta_from(&before);
        let layers = RunLayers::from_spans(&log.borrow().run_spans(run));
        TracedRun {
            report,
            counters,
            build_s,
            events,
            layers,
        }
    });
    let log = Rc::try_unwrap(log)
        .unwrap_or_else(|_| panic!("every TimedPolicy was dropped with its run"))
        .into_inner();
    Traced { runs, log }
}

fn layer_metrics(out: &mut Outcome, traced: &Traced, untraced_run_s: f64, generate_s: f64) {
    let runs = &traced.runs;
    // Timings: the median over traced runs. Counts repeat exactly, so the
    // first run's serve.
    let med = |f: &dyn Fn(&TracedRun) -> f64| {
        stats::median(&runs.iter().map(f).collect::<Vec<_>>()).expect("at least one traced run")
    };
    let secs = |ns: u64| ns as f64 / 1e9;
    let busy = |v: &[u64]| secs(v.iter().sum());
    let pct_us = |v: &[u64], p| stats::percentile(v, p).map_or(0.0, |ns| ns as f64 / 1e3);
    let share = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let first = &runs[0];
    let l = &first.layers;
    let c = &first.counters;

    let place_calls = l.place_ns.len() as u64;
    let plan_calls = l.plan_ns.len() as u64;
    out.metric("placement.place.calls", place_calls as f64);
    out.metric("placement.place.busy_s", med(&|r| busy(&r.layers.place_ns)));
    out.metric(
        "placement.place.p50_us",
        med(&|r| pct_us(&r.layers.place_ns, 50)),
    );
    out.metric(
        "placement.place.p99_us",
        med(&|r| pct_us(&r.layers.place_ns, 99)),
    );
    out.metric("placement.place.queued_share", share(l.queued, place_calls));
    out.metric("placement.plan.calls", plan_calls as f64);
    out.metric("placement.plan.busy_s", med(&|r| busy(&r.layers.plan_ns)));
    out.metric(
        "placement.plan.p50_us",
        med(&|r| pct_us(&r.layers.plan_ns, 50)),
    );
    out.metric(
        "placement.plan.p99_us",
        med(&|r| pct_us(&r.layers.plan_ns, 99)),
    );
    out.metric(
        "placement.plan.useful_share",
        share(l.useful_plans, plan_calls),
    );
    out.metric(
        "placement.plan.migrations_proposed",
        l.migrations_proposed as f64,
    );
    out.metric(
        "placement.migrations_committed_share",
        share(first.report.total_migrations, l.migrations_proposed),
    );
    out.metric("placement.delta.calls", l.delta_ns.len() as f64);
    out.metric("placement.delta.busy_s", med(&|r| busy(&r.layers.delta_ns)));
    out.metric(
        "placement.busy_share",
        med(&|r| r.layers.placement_ns() as f64 / r.layers.run_ns as f64),
    );
    out.metric(
        "placement.passes.compressed",
        c.plan_passes_compressed as f64,
    );
    out.metric("placement.passes.delta", c.plan_passes_delta as f64);
    out.metric("placement.passes.fresh", c.plan_passes_fresh as f64);
    out.metric("placement.passes.rounds", c.compressed_round_passes as f64);
    out.metric("placement.poisons", c.compressed_poisons as f64);
    out.metric("placement.patch_cols", c.compressed_patch_cols as f64);
    out.metric(
        "placement.rebuild_fallbacks",
        c.plan_rebuild_fallbacks as f64,
    );
    let span_s = med(&|r| secs(r.layers.run_ns));
    out.metric("core.span_s", span_s);
    out.metric("core.build_s", med(&|r| r.build_s));
    out.metric("core.self_s", med(&|r| secs(r.layers.core_self_ns)));
    out.metric(
        "core.ns_per_event",
        med(&|r| r.layers.core_self_ns as f64 / r.events.max(1) as f64),
    );
    out.metric("core.events", first.events as f64);
    out.metric("simcore.events_dispatched", c.events_dispatched as f64);
    out.metric("cluster.journal_drains", c.journal_drains as f64);
    out.metric("cluster.journal_dirty_vms", c.journal_dirty_vms as f64);
    out.metric("forecast.spare_decisions", c.spare_decisions as f64);
    out.metric("workload.generate_s", generate_s);
    out.metric("trace.overhead_share", span_s / untraced_run_s - 1.0);
    println!("traced runs: {}", runs.len());
}

/// Writes the traced runs' spans to `perfbench/out/`.
fn write_spans(w: Workload, seed: u64, log: &SpanLog) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("spans-{}-seed{seed}.csv", w.name()));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|_| std::fs::File::create(&path))
        .and_then(|f| {
            let mut f = std::io::BufWriter::new(f);
            log.write_csv(&mut f)?;
            f.flush()
        });
    match written {
        Ok(()) => println!("spans: {}", path.display()),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
}

/// The process's peak resident set (VmHWM), in MiB.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Runs every workload, each in a child process of its own so that
/// `peak_rss_mib` covers one workload, and merges their results under
/// `<workload>.<metric>` names.
fn bench_all(args: &Args) -> Outcome {
    let exe = std::env::current_exe().expect("the running executable has a path");
    let mut out = Outcome::default();
    for w in Workload::ALL {
        let child = Command::new(&exe)
            .args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(Stdio::inherit())
            .output();
        let output = match child {
            Ok(o) => o,
            Err(e) => {
                out.fail(&format!("{}: could not start: {e}", w.name()));
                continue;
            }
        };
        let text = String::from_utf8_lossy(&output.stdout);
        let lines: Vec<&str> = text.lines().collect();
        for line in &lines[..lines.len().saturating_sub(1)] {
            println!("{line}");
        }
        match lines.last().map(|l| serde_json::parse_str(l)) {
            Some(Ok(result)) => merge(&mut out, w, &result),
            _ => out.fail(&format!(
                "{}: no result line (exit {:?})",
                w.name(),
                output.status.code()
            )),
        }
    }
    out
}

fn merge(out: &mut Outcome, w: Workload, result: &Value) {
    let num = |v: Option<&Value>| match v {
        Some(Value::F64(f)) => Some(*f),
        Some(Value::U64(n)) => Some(*n as f64),
        Some(Value::I64(n)) => Some(*n as f64),
        _ => None,
    };
    let attempted = num(result.get("attempted")).unwrap_or(0.0) as u64;
    let failed = num(result.get("failed")).unwrap_or(0.0) as u64;
    out.attempted += attempted;
    out.failed += failed;
    let metrics = result.get("metrics").and_then(Value::as_map).unwrap_or(&[]);
    for (name, m) in metrics {
        let unit = m.get("unit").and_then(Value::as_str).unwrap_or("");
        if let Some(v) = num(m.get("value")) {
            out.metrics
                .push((format!("{}.{name}", w.name()), v, unit.into()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_every_argument() {
        let a = args(&[
            "--workload",
            "scaled-10k-week",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, Some(Workload::Scaled10k));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 12, true));
    }

    #[test]
    fn default_window_is_benchmark_json_run_seconds() {
        let a = args(&[]).unwrap();
        assert_eq!(a.seconds, run_seconds());
    }

    #[test]
    fn rejects_bad_arguments() {
        for bad in [
            &["--workload", "nope"][..],
            &["--seed", "-1"],
            &["--seconds", "0"],
            &["--trace", "2"],
            &["--seed"],
            &["--verbose", "1"],
        ] {
            assert!(args(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn result_line_has_the_documented_shape() {
        let mut o = Outcome::default();
        o.check("run", None);
        o.metric("run_s", 1.25);
        let v = serde_json::parse_str(&o.json()).unwrap();
        let keys: Vec<&str> = v
            .as_map()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            o.json(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"run_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn counts_leave_gauges_out() {
        let c = CounterSnapshot {
            events_dispatched: 5,
            spare_servers_gauge: 9,
            ..CounterSnapshot::default()
        };
        let v = counts(&c);
        assert!(v.contains(&("events_dispatched", 5)));
        assert!(v.iter().all(|(name, _)| !name.ends_with("_gauge")));
    }

    /// The metric tables above and `BENCHMARK.json` list the same metrics.
    #[test]
    fn metric_tables_match_benchmark_json() {
        let spec = serde_json::parse_str(include_str!("../../BENCHMARK.json")).unwrap();
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(&str, &str)> = spec
                .get(key)
                .and_then(Value::as_seq)
                .unwrap()
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(Value::as_str).unwrap(),
                        m.get("unit").and_then(Value::as_str).unwrap(),
                    )
                })
                .collect();
            assert_eq!(listed, table, "{key}");
        }
    }
}
