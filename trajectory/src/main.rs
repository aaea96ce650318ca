//! `trajectory`: the repository's benchmark. Five named serving workloads,
//! end-to-end metrics measured over the wire with tracing off, and a
//! per-layer trace taken in-process from the layers' public functions.
//!
//! ```text
//! trajectory --workload NAME --seed N --seconds S --trace 0|1   one run; last stdout line is the result JSON
//! trajectory [--seed 7] [--seconds 10] [--quick]                every workload, untraced then traced, one child process each
//!            [--out FILE] [--trace-out FILE]                    append a record per run / write the spans of the traced run
//! trajectory --compare A B                                      apply the bounds to two --out files (A the parent)
//! trajectory --manifest                                         print BENCHMARK.json
//! ```
//!
//! See `README.md` beside this package for the workloads, the metrics and
//! how to read the trace.

#![forbid(unsafe_code)]
// `mahif::Error` carries its context inline; see the same allowance in
// `mahif`'s crate root.
#![allow(clippy::result_large_err)]

mod check;
mod compare;
mod gen;
mod load;
mod replay;
mod spec;
mod stats;
mod trace;

use std::io::Write;
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use mahif_serve::Json;

use crate::gen::Plan;
use crate::spec::{WorkloadDef, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out: Option<String>,
    trace_out: Option<String>,
    compare: Option<(String, String)>,
    manifest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 7,
        seconds: RUN_SECONDS as f64,
        trace: false,
        quick: false,
        out: None,
        trace_out: None,
        compare: None,
        manifest: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must lie in (0, 60]".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--quick" => args.quick = true,
            "--out" => args.out = Some(value()?),
            "--trace-out" => args.trace_out = Some(value()?),
            "--compare" => args.compare = Some((value()?, value()?)),
            "--manifest" => args.manifest = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.quick && args.compare.is_some() {
        return Err("--quick runs cannot be compared".to_string());
    }
    Ok(args)
}

/// The result of one run, in the two shapes it is written in.
struct RunResult {
    correct: bool,
    attempted: usize,
    failed: usize,
    /// `(name, unit, value)`; a metric the run could not support (p90 of a
    /// `--quick` run) is absent.
    metrics: Vec<(&'static str, &'static str, f64)>,
}

impl RunResult {
    /// The driver's result line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`.
    fn line(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, unit, value)| {
                let cell = Json::obj([("value", Json::Float(*value)), ("unit", Json::str(*unit))]);
                (name.to_string(), cell)
            })
            .collect();
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Int(self.attempted as i64)),
            ("failed", Json::Int(self.failed as i64)),
            ("metrics", Json::Obj(metrics)),
        ])
    }

    /// The `--out` record `--compare` reads.
    fn record(&self, def: &WorkloadDef, args: &Args) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, _, value)| (name.to_string(), Json::Float(*value)))
            .collect();
        Json::obj([
            ("workload", Json::str(def.name)),
            ("seed", Json::Int(args.seed as i64)),
            ("seconds", Json::Float(args.seconds)),
            ("quick", Json::Bool(args.quick)),
            ("trace", Json::Bool(args.trace)),
            ("cores", Json::Int(load::cores() as i64)),
            ("clients", Json::Int(load::clients() as i64)),
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Int(self.attempted as i64)),
            ("failed", Json::Int(self.failed as i64)),
            ("metrics", Json::Obj(metrics)),
        ])
    }
}

/// The untraced run: set-up, warm-up, the timed window, the oracle check.
fn run_untraced(plan: &Plan, seconds: f64) -> RunResult {
    let (served, setup_s) = load::set_up(plan, 5);
    let clients = load::clients();
    // Counts end the run; a box several times slower than the reference
    // gives up taking new operations here and reports what it did.
    let give_up = Duration::from_secs_f64(seconds * 4.0 + 20.0);
    let warm_to = plan.warmup_ops;
    load::run_window(&served.addr, plan, 0, warm_to, clients, give_up);
    let (window, rss_peaks) = stats::windowed_peak_rss_mb(|| {
        load::run_window(
            &served.addr,
            plan,
            warm_to,
            warm_to + plan.timed_ops,
            clients,
            give_up,
        )
    });
    let checked = check::check(&served, plan);
    served.handle.stop();

    let attempted = window.outcomes.len();
    if attempted < plan.timed_ops {
        eprintln!(
            "gave up after {attempted} of {} timed operations",
            plan.timed_ops
        );
    }
    let ok: Vec<f64> = window
        .outcomes
        .iter()
        .filter(|o| o.ok)
        .map(|o| o.seconds * 1e3)
        .collect();
    let scenarios: usize = window.outcomes.iter().map(|o| o.scenarios).sum();
    let bytes: usize = window.outcomes.iter().map(|o| o.bytes).sum();
    let per_scenario = |total: f64| total / scenarios.max(1) as f64;
    let values = [
        Some(setup_s),
        stats::median(&ok),
        stats::tail_percentile(&ok, 90.0),
        Some(scenarios as f64 / window.wall_seconds),
        Some(per_scenario(window.cpu_seconds * 1e3)),
        stats::median(&rss_peaks),
        Some(per_scenario(bytes as f64)),
    ];
    println!(
        "{}: {} timed operations ({} warm-up), {clients} closed-loop clients on {} cores, \
         {scenarios} scenarios in {:.2} s",
        plan.def.name,
        attempted,
        plan.warmup_ops,
        load::cores(),
        window.wall_seconds
    );
    let mut metrics = Vec::new();
    for (metric, value) in END_TO_END.iter().zip(values) {
        match value {
            Some(value) => {
                println!("  {:<30} {value:>14.4} {}", metric.name, metric.unit);
                metrics.push((metric.name, metric.unit, value));
            }
            None => println!(
                "  {:<30} {:>14} (refused: {} samples)",
                metric.name,
                "n/a",
                ok.len()
            ),
        }
    }
    println!("  {:<30} {:>14} samples", "request latency", ok.len());
    let failed = attempted - ok.len();
    println!(
        "  {:<30} {:>14.6} ratio ({failed} of {attempted})",
        "failed_share",
        failed as f64 / attempted.max(1) as f64
    );
    let correct = match &checked {
        Ok(verified) => {
            println!("  oracle check: {verified} distinct requests equal naive and composed");
            failed == 0
        }
        Err(what) => {
            println!("  oracle check FAILED: {what}");
            false
        }
    };
    RunResult {
        correct,
        attempted,
        failed,
        metrics,
    }
}

fn run_traced(plan: Plan, seconds: f64, args: &Args) -> RunResult {
    let name = plan.def.name;
    let run = replay::run(plan, seconds);
    println!(
        "{name}: traced replay, plan cache {} hits / {} misses / {} evictions, {} no-op proofs, \
         {} rejections",
        run.stats.plan_cache_hits,
        run.stats.plan_cache_misses,
        run.stats.plan_cache_evictions,
        run.stats.analyzer_noop_proofs,
        run.stats.analyzer_rejections
    );
    let mut metrics = Vec::new();
    for metric in &PER_LAYER {
        let value = run.metrics[metric.name];
        println!(
            "  {:<34} {value:>14.4} {:<6} -> {}",
            metric.name, metric.unit, metric.should_move
        );
        metrics.push((metric.name, metric.unit, value));
    }
    for complaint in &run.complaints {
        println!("  traced run FAILED: {complaint}");
    }
    if let Some(path) = &args.trace_out {
        let document = trace::spans_json(&run.spans);
        std::fs::write(path, format!("{document}\n")).expect("write --trace-out");
        println!("  wrote {} spans to {path}", run.spans.len());
    }
    RunResult {
        correct: run.correct,
        attempted: run.attempted,
        failed: run.failed,
        metrics,
    }
}

fn run_one(def: &'static WorkloadDef, args: &Args) -> ExitCode {
    let seconds = if args.quick {
        args.seconds / 10.0
    } else {
        args.seconds
    };
    let mut plan = Plan::generate(def, args.seed, seconds);
    if args.quick {
        // A smoke test of the harness: the oracle costs as much per request
        // at a tenth of the counts.
        plan.check.truncate(2);
    }
    let result = if args.trace {
        run_traced(plan, seconds, args)
    } else {
        run_untraced(&plan, seconds)
    };
    if let Some(path) = &args.out {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .expect("open --out");
        writeln!(file, "{}", result.record(def, args)).expect("append to --out");
    }
    println!("{}", result.line());
    ExitCode::SUCCESS
}

/// Every workload in its own child process, so that peak memory and
/// allocator state do not leak from one workload into the next.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("own path");
    let mut healthy = true;
    for def in &WORKLOADS {
        for trace in ["0", "1"] {
            let mut child = Command::new(&exe);
            child
                .args(["--workload", def.name, "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()]);
            if args.quick {
                child.arg("--quick");
            }
            if let Some(out) = &args.out {
                child.args(["--out", out]);
            }
            if let (Some(path), "1") = (&args.trace_out, trace) {
                child.args(["--trace-out", &format!("{path}.{}", def.name)]);
            }
            let output = child
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit())
                .output()
                .expect("run a workload in a child process");
            let stdout = String::from_utf8_lossy(&output.stdout);
            let (report, line) = stdout.trim_end().rsplit_once('\n').unwrap_or(("", &stdout));
            println!("{report}");
            let verdict = Json::parse(line).ok();
            let passed = output.status.success()
                && verdict.as_ref().is_some_and(|v| {
                    v.get("correct").and_then(Json::as_bool) == Some(true)
                        && v.get("failed").and_then(Json::as_i64) == Some(0)
                });
            if !passed {
                println!("  {} (trace {trace}) did not pass: {line}", def.name);
                healthy = false;
            }
        }
    }
    if healthy {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_compare(a: &str, b: &str) -> Result<ExitCode, String> {
    let read = |path: &str| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        compare::parse_runs(&text).map_err(|e| format!("{path}: {e}"))
    };
    let rows = compare::compare(&read(a)?, &read(b)?);
    print!("{}", compare::render(&rows));
    let regressed = rows
        .iter()
        .filter(|r| r.verdict == compare::Verdict::Regressed)
        .count();
    println!("{} rows, {regressed} regressed", rows.len());
    Ok(if regressed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| {
        if args.manifest {
            print!("{}", spec::manifest());
            return Ok(ExitCode::SUCCESS);
        }
        if let Some((a, b)) = &args.compare {
            return run_compare(a, b);
        }
        match &args.workload {
            None => Ok(run_all(&args)),
            Some(name) => {
                let def = spec::workload(name).ok_or_else(|| {
                    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {name}; one of {}", names.join(", "))
                })?;
                Ok(run_one(def, &args))
            }
        }
    });
    outcome.unwrap_or_else(|message| {
        eprintln!("trajectory: {message}");
        ExitCode::from(2)
    })
}
