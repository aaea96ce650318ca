//! `trajectory --compare A B`: applies each end-to-end metric's bound per
//! workload to two sets of recorded runs (`--out` files, one JSON record per
//! line, `A` the parent).

use std::collections::BTreeMap;

use mahif_serve::Json;

use crate::spec::{Better, EndToEnd, END_TO_END, WORKLOADS};
use crate::stats::{median, spread};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// Within the bound, but either side's own runs spread wider than the
    /// bound, so "unchanged" cannot be claimed.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One `(metric, workload)` row.
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub a: f64,
    pub b: f64,
    /// Share of A's median by which B is worse (negative: better).
    pub worse: f64,
    pub spread: f64,
    pub verdict: Verdict,
}

/// The row of one metric on one workload from its values on both sides;
/// `None` when a side has none.
pub fn judge_metric(workload: &str, metric: &EndToEnd, a: &[f64], b: &[f64]) -> Option<Row> {
    let (ma, mb) = (median(a)?, median(b)?);
    let worse = match metric.better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    };
    let spread = spread(a).max(spread(b));
    let verdict = if worse > metric.bound {
        Verdict::Regressed
    } else if spread > metric.bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    Some(Row {
        workload: workload.to_string(),
        metric: metric.name,
        a: ma,
        b: mb,
        worse,
        spread,
        verdict,
    })
}

/// Runs of one file: workload → metric → values, plus workload → failed
/// share per run.
#[derive(Default)]
pub struct Runs {
    pub values: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    pub failed_share: BTreeMap<String, Vec<f64>>,
}

/// Parses `--out` records; quick runs and traced runs are refused.
pub fn parse_runs(text: &str) -> Result<Runs, String> {
    let mut runs = Runs::default();
    for (number, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let record = Json::parse(line).map_err(|e| format!("line {}: {e}", number + 1))?;
        if record.get("quick").and_then(Json::as_bool) == Some(true) {
            return Err(format!(
                "line {}: a --quick run cannot be compared",
                number + 1
            ));
        }
        if record.get("trace").and_then(Json::as_bool) == Some(true) {
            continue;
        }
        let field = |key: &str| {
            record
                .get(key)
                .ok_or(format!("line {}: no '{key}'", number + 1))
        };
        let workload = field("workload")?.as_str().unwrap_or("?").to_string();
        let attempted = field("attempted")?.as_f64().unwrap_or(0.0);
        let mut failed = field("failed")?.as_f64().unwrap_or(0.0);
        if field("correct")?.as_bool() != Some(true) {
            failed = attempted.max(1.0);
        }
        runs.failed_share
            .entry(workload.clone())
            .or_default()
            .push(failed / attempted.max(1.0));
        if let Json::Obj(metrics) = field("metrics")? {
            let per_metric = runs.values.entry(workload).or_default();
            for (name, value) in metrics {
                if let Some(v) = value.as_f64() {
                    per_metric.entry(name.clone()).or_default().push(v);
                }
            }
        }
    }
    Ok(runs)
}

/// One row per `(metric, workload)` present on both sides, workloads in
/// table order, plus a `failed_share` row per workload (bound +0).
pub fn compare(a: &Runs, b: &Runs) -> Vec<Row> {
    let mut rows = Vec::new();
    for w in WORKLOADS.iter().map(|w| w.name) {
        let (Some(va), Some(vb)) = (a.values.get(w), b.values.get(w)) else {
            continue;
        };
        for metric in &END_TO_END {
            let (Some(xa), Some(xb)) = (va.get(metric.name), vb.get(metric.name)) else {
                continue;
            };
            rows.extend(judge_metric(w, metric, xa, xb));
        }
        let share = |runs: &Runs| median(&runs.failed_share[w]).unwrap_or(0.0);
        let (fa, fb) = (share(a), share(b));
        rows.push(Row {
            workload: w.to_string(),
            metric: "failed_share",
            a: fa,
            b: fb,
            worse: fb - fa,
            spread: 0.0,
            verdict: if fb > fa {
                Verdict::Regressed
            } else {
                Verdict::Ok
            },
        });
    }
    rows
}

pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<18} {:<28} {:>12} {:>12} {:>8} {:>8}  verdict\n",
        "workload", "metric", "A median", "B median", "worse", "spread"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<18} {:<28} {:>12.4} {:>12.4} {:>7.1}% {:>7.1}%  {}\n",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.worse * 100.0,
            r.spread * 100.0,
            r.verdict.label()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A lower-is-better and a higher-is-better metric with a 10 % bound.
    fn verdict(better: Better, a: &[f64], b: &[f64]) -> Verdict {
        let metric = EndToEnd {
            name: "synthetic",
            unit: "ms",
            better,
            bound: 0.10,
        };
        judge_metric("w", &metric, a, b).unwrap().verdict
    }

    #[test]
    fn verdicts_on_synthetic_pairs() {
        let steady = [100.0, 101.0, 99.0, 100.5];
        // Lower is better: 5 % slower is ok, 20 % slower is regressed.
        assert_eq!(
            verdict(Better::Lower, &steady, &[105.0, 104.0, 106.0]),
            Verdict::Ok
        );
        assert_eq!(
            verdict(Better::Lower, &steady, &[120.0, 119.0, 121.0]),
            Verdict::Regressed
        );
        // Faster is never a regression.
        assert_eq!(
            verdict(Better::Lower, &steady, &[50.0, 51.0, 49.0]),
            Verdict::Ok
        );
        // Higher is better: a 20 % drop regresses, a gain does not.
        assert_eq!(
            verdict(Better::Higher, &steady, &[80.0, 81.0, 79.0]),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(Better::Higher, &steady, &[130.0, 131.0]),
            Verdict::Ok
        );
        // Same median, but B's runs spread over 40 %: unresolved.
        assert_eq!(
            verdict(Better::Lower, &steady, &[80.0, 100.0, 100.0, 120.0, 125.0]),
            Verdict::Unresolved
        );
    }

    #[test]
    fn records_group_by_workload_and_quick_runs_are_refused() {
        let line = |workload: &str, p50: f64, failed: u32, quick: bool| {
            format!(
                r#"{{"workload":"{workload}","quick":{quick},"trace":false,"correct":true,"attempted":100,"failed":{failed},"metrics":{{"request_p50_ms":{p50}}}}}"#
            )
        };
        let a = parse_runs(
            &[
                line("explore_cold", 100.0, 0, false),
                line("explore_cold", 102.0, 0, false),
            ]
            .join("\n"),
        )
        .unwrap();
        let b = parse_runs(
            &[
                line("explore_cold", 130.0, 3, false),
                line("explore_cold", 131.0, 3, false),
            ]
            .join("\n"),
        )
        .unwrap();
        let rows = compare(&a, &b);
        let by = |m: &str| rows.iter().find(|r| r.metric == m).unwrap().verdict;
        assert_eq!(by("request_p50_ms"), Verdict::Regressed);
        assert_eq!(by("failed_share"), Verdict::Regressed);
        assert!(compare(&a, &a).iter().all(|r| r.verdict == Verdict::Ok));
        assert!(parse_runs(&line("explore_cold", 1.0, 0, true)).is_err());
    }
}
