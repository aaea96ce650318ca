//! The benchmark's declarations: workloads, end-to-end metrics with their
//! bounds, per-layer metrics with the end-to-end metric each should move.
//! `BENCHMARK.json` is rendered from these tables (`trajectory --manifest`),
//! so the file the driver reads and the names the program prints cannot
//! drift apart.

use mahif_serve::Json;
use mahif_workload::DatasetKind;

/// Seconds one run measures (`run_seconds` of `BENCHMARK.json`); request
/// counts are `ops_per_second × seconds`, so this is also the default of
/// `--seconds`.
pub const RUN_SECONDS: u64 = 10;

/// One registered history of a workload.
#[derive(Debug, Clone, Copy)]
pub struct HistoryDef {
    pub name: &'static str,
    pub kind: DatasetKind,
    pub rows: usize,
    /// U: statements in the history.
    pub updates: usize,
    /// D: percent of updates dependent on the modified statement.
    pub dependent_pct: u32,
    /// T: percent of tuples each dependent update touches.
    pub affected_pct: u32,
}

/// How a workload's requests are drawn; see `gen::Plan`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Every request is a sweep of `k` constants never sent before.
    FreshSweeps { k: usize },
    /// `catalogue` distinct k-sweeps drawn Zipf(s=1).
    Zipf { k: usize, catalogue: usize },
    /// k=1: 80 % from a 16-body catalogue, 15 % provable no-ops, 5 %
    /// ill-typed scripts (expected 400).
    LightMix,
    /// register → two k-sweeps → delete, latency per whole operation.
    Churn { k: usize },
}

#[derive(Debug, Clone, Copy)]
pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
    pub histories: &'static [HistoryDef],
    pub shape: Shape,
    /// Timed operations per second of `--seconds`, fixed so that the timed
    /// part lasts about `--seconds` on the 2-core reference box. Counts,
    /// not the clock, end a run: both sides of a comparison then answer
    /// exactly the same requests and program-side counts repeat.
    pub ops_per_second: f64,
    /// Operations the in-process traced replay covers per second of
    /// `--seconds` (a count, like the timed run's, so that the replay's
    /// plan-cache hits and misses repeat exactly).
    pub replay_ops_per_second: f64,
    /// The replay answers every operation through `Session::execute`; it
    /// also composes, prices the spans, runs the oracle and the stand-alone
    /// layer measurements on every `replay_stride`-th — these cost several
    /// times the request itself.
    pub replay_stride: usize,
}

const fn history(
    name: &'static str,
    kind: DatasetKind,
    rows: usize,
    updates: usize,
    dependent_pct: u32,
    affected_pct: u32,
) -> HistoryDef {
    HistoryDef {
        name,
        kind,
        rows,
        updates,
        dependent_pct,
        affected_pct,
    }
}

const fn taxi(name: &'static str, rows: usize, updates: usize, d: u32, t: u32) -> HistoryDef {
    history(name, DatasetKind::Taxi, rows, updates, d, t)
}

pub const WORKLOADS: [WorkloadDef; 5] = [
    WorkloadDef {
        name: "explore_cold",
        why: "fresh k=8 sweeps over three 2-5k-row histories: every plan-cache lookup misses, so program slicing, the solver and symbolic compression do most of the work",
        histories: &[
            taxi("taxi", 5_000, 24, 10, 10),
            history("stock", DatasetKind::TpccStock, 5_000, 24, 10, 10),
            history("ycsb", DatasetKind::Ycsb, 2_000, 24, 10, 10),
        ],
        shape: Shape::FreshSweeps { k: 8 },
        ops_per_second: 15.0,
        replay_ops_per_second: 1.0,
        replay_stride: 1,
    },
    WorkloadDef {
        name: "scan_heavy",
        why: "fresh k=4 sweeps over 20k rows with half the tuples affected and ~4 MB answers: plan building, reenactment, delta and response encoding dominate, slicing does not",
        histories: &[taxi("taxi", 20_000, 12, 50, 50)],
        shape: Shape::FreshSweeps { k: 4 },
        ops_per_second: 12.0,
        replay_ops_per_second: 0.8,
        replay_stride: 1,
    },
    WorkloadDef {
        name: "repeat_skewed",
        why: "96 distinct k=4 sweeps drawn Zipf(1) against a 64-plan cache: the dashboard that re-asks, exercising plan-cache hits, misses and evictions together",
        histories: &[taxi("taxi", 5_000, 12, 10, 10)],
        shape: Shape::Zipf {
            k: 4,
            catalogue: 96,
        },
        ops_per_second: 120.0,
        replay_ops_per_second: 40.0,
        replay_stride: 8,
    },
    WorkloadDef {
        name: "interactive_light",
        why: "k=1 requests on 300 rows (80 % cached, 15 % provable no-ops, 5 % ill-typed 400s): engine work is near zero, so http, json, admission, net and the analyzer do most of the work",
        histories: &[taxi("taxi", 300, 12, 10, 10)],
        shape: Shape::LightMix,
        ops_per_second: 4_000.0,
        replay_ops_per_second: 40.0,
        replay_stride: 1,
    },
    WorkloadDef {
        name: "register_churn",
        why: "register a 5k-row history, ask two k=4 sweeps, delete it: registration as a write path, so work moved from the batch path into registration shows as a loss here",
        histories: &[taxi("resident", 5_000, 12, 10, 10)],
        shape: Shape::Churn { k: 4 },
        ops_per_second: 15.0,
        replay_ops_per_second: 1.2,
        replay_stride: 1,
    },
];

pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// Measured with tracing off, per workload. The time and memory bounds are
/// as wide as they are because the reference box is: a 2-vCPU VM whose speed
/// shifts by 25-45 % for tens of minutes at a time. Within one such regime
/// the quartile spread of ten runs is at most 7 % (p50), 12 % (p90), 7 %
/// (throughput, CPU) and 11 % (memory); see README.md. `failed_share` is
/// not in this
/// table because it is 0 on a healthy commit (a bound on 0 means nothing):
/// it travels as the `attempted` / `failed` keys of the result line.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "request_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: "request_p90_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "scenarios_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_ms_per_scenario",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "response_bytes_per_scenario",
        unit: "B",
        better: Better::Lower,
        bound: 0.01,
    },
];

#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric and workload this layer metric should move
    /// (README only; `BENCHMARK.json` has no key for it).
    pub should_move: &'static str,
}

const fn us(name: &'static str, should_move: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit: "us",
        better: Better::Lower,
        should_move,
    }
}

const fn count(
    name: &'static str,
    unit: &'static str,
    better: Better,
    m: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        should_move: m,
    }
}

/// Measured by the traced run (`--trace 1`). A `*_us` metric named `X_us`
/// is the median over replayed operations of the self time of the spans
/// named `X` in that operation.
pub const PER_LAYER: [PerLayer; 43] = [
    us(
        "serve.http.parse_head_us",
        "request_p50_ms @ interactive_light",
    ),
    us(
        "serve.wire.decode_batch_us",
        "request_p50_ms @ interactive_light; flat @ explore_cold",
    ),
    us(
        "serve.wire.decode_register_us",
        "setup_s @ all; request_p50_ms @ register_churn",
    ),
    count("serve.wire.request_bytes", "B", Better::Lower, "input size"),
    us(
        "serve.wire.encode_us",
        "request_p50_ms @ scan_heavy, repeat_skewed",
    ),
    count(
        "serve.wire.response_bytes",
        "B",
        Better::Lower,
        "response_bytes_per_scenario @ all",
    ),
    us("serve.http.write_us", "request_p50_ms @ scan_heavy"),
    us(
        "serve.admission.queue_us",
        "request_p90_ms @ interactive_light",
    ),
    count(
        "serve.admission.shed",
        "count",
        Better::Lower,
        "failed operations @ all (must stay 0)",
    ),
    us(
        "serve.server.residual_us",
        "request_p50_ms @ interactive_light",
    ),
    us(
        "analyze.build_us",
        "setup_s; request_p50_ms @ register_churn",
    ),
    us("analyze.validate_us", "request_p50_ms @ interactive_light"),
    count(
        "analyze.noop_share",
        "ratio",
        Better::Higher,
        "scenarios_per_s @ interactive_light",
    ),
    count(
        "analyze.rejections",
        "count",
        Better::Lower,
        "must equal the generated 400 count",
    ),
    us(
        "core.session.register_us",
        "setup_s; request_p50_ms @ register_churn",
    ),
    us(
        "core.session.execute_hit_us",
        "request_p50_ms @ repeat_skewed, interactive_light",
    ),
    us(
        "core.session.execute_miss_us",
        "request_p50_ms @ explore_cold, scan_heavy; request_p90_ms @ repeat_skewed",
    ),
    count(
        "core.provision.hit_ratio",
        "ratio",
        Better::Higher,
        "request_p50_ms @ repeat_skewed; 0 @ explore_cold",
    ),
    count(
        "core.provision.evictions",
        "count",
        Better::Lower,
        "request_p90_ms @ repeat_skewed",
    ),
    count(
        "core.provision.cache_mb",
        "MB",
        Better::Lower,
        "peak_rss_mb @ scan_heavy, repeat_skewed",
    ),
    us("history.normalize_us", "request_p50_ms @ interactive_light"),
    us(
        "history.naive_us",
        "none: the paper's N for one scenario, base of core.engine.speedup_vs_naive",
    ),
    us("history.delta.intern_us", "request_p50_ms @ scan_heavy"),
    count(
        "history.delta_tuples_per_scenario",
        "count",
        Better::Lower,
        "response_bytes_per_scenario",
    ),
    us("slicing.groups.group_us", "flat everywhere (guard)"),
    us(
        "slicing.program.slice_us",
        "request_p50_ms, scenarios_per_s @ explore_cold; flat @ scan_heavy, interactive_light",
    ),
    count(
        "slicing.program.kept_share",
        "ratio",
        Better::Lower,
        "core.engine.member_us -> request_p50_ms @ scan_heavy",
    ),
    us(
        "slicing.domains.scan_us",
        "request_p50_ms @ explore_cold; if moved to registration: setup_s, register_churn",
    ),
    us(
        "symbolic.compress.relation_us",
        "request_p50_ms @ explore_cold; if moved to registration: setup_s, register_churn",
    ),
    count(
        "solver.search.calls",
        "count",
        Better::Lower,
        "slicing.program.slice_us -> explore_cold",
    ),
    us("slicing.data.conditions_us", "request_p50_ms @ scan_heavy"),
    count(
        "slicing.data.kept_tuple_share",
        "ratio",
        Better::Lower,
        "core.engine.*_us @ scan_heavy",
    ),
    us(
        "core.engine.plan_build_us",
        "request_p50_ms @ scan_heavy; request_p90_ms @ repeat_skewed",
    ),
    us(
        "core.engine.member_us",
        "request_p50_ms @ scan_heavy, repeat_skewed",
    ),
    count(
        "core.engine.speedup_vs_naive",
        "ratio",
        Better::Higher,
        "reproduction check of Figs. 14-16, all workloads",
    ),
    us("storage.columnar.encode_us", "request_p50_ms @ scan_heavy"),
    us(
        "reenact.columnar.side_us",
        "request_p50_ms, cpu_ms_per_scenario @ scan_heavy",
    ),
    us(
        "reenact.builder.row_side_us",
        "guard: cost of a row fallback @ scan_heavy",
    ),
    count(
        "reenact.columnar.batches",
        "count",
        Better::Higher,
        "explains reenact.columnar.side_us",
    ),
    count(
        "reenact.columnar.row_fallbacks",
        "count",
        Better::Lower,
        "> 0 explains a scan_heavy regression",
    ),
    count(
        "expr.vector.predicates",
        "count",
        Better::Higher,
        "explains reenact.columnar.side_us",
    ),
    count(
        "trace.coverage",
        "ratio",
        Better::Higher,
        "validity: must lie in [0.9, 1.1] @ explore_cold, scan_heavy",
    ),
    count(
        "trace.overhead_share",
        "ratio",
        Better::Lower,
        "validity: cost of the bench-side spans",
    ),
];

/// The directory that holds the benchmark, relative to the repository root.
pub const BENCH_DIR: &str = "trajectory";

/// `BENCHMARK.json`, exactly the keys the builder's contract allows.
pub fn manifest() -> String {
    let obj = |pairs: Vec<(&'static str, Json)>| Json::obj(pairs);
    let strings = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(*s)).collect());
    let workloads = WORKLOADS
        .iter()
        .map(|w| obj(vec![("name", Json::str(w.name)), ("why", Json::str(w.why))]))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            obj(vec![
                ("name", Json::str(m.name)),
                ("unit", Json::str(m.unit)),
                ("better", Json::str(m.better.label())),
                ("bound", Json::Float(m.bound)),
            ])
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            obj(vec![
                ("name", Json::str(m.name)),
                ("unit", Json::str(m.unit)),
                ("better", Json::str(m.better.label())),
            ])
        })
        .collect();
    let manifest_path = format!("{BENCH_DIR}/Cargo.toml");
    let doc = obj(vec![
        (
            "command",
            strings(&[
                "cargo",
                "run",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
                &manifest_path,
                "--",
            ]),
        ),
        ("paths", strings(&[BENCH_DIR])),
        ("run_seconds", Json::Int(RUN_SECONDS as i64)),
        ("workloads", Json::Arr(workloads)),
        ("end_to_end", Json::Arr(end_to_end)),
        ("per_layer", Json::Arr(per_layer)),
    ]);
    format!("{doc}\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn tables_meet_the_manifest_limits() {
        let mut names: Vec<&str> = Vec::new();
        names.extend(WORKLOADS.iter().map(|w| w.name));
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for name in &names {
            assert!(valid_name(name), "{name}");
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
        assert!(manifest().len() < 64 * 1024);
    }

    #[test]
    fn committed_manifest_is_the_rendered_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            Json::parse(&committed).expect("BENCHMARK.json parses"),
            Json::parse(&manifest()).expect("manifest parses"),
            "regenerate with `trajectory --manifest > BENCHMARK.json`"
        );
    }
}
