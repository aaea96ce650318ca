//! # mahif-bench
//!
//! Experiment harness regenerating the evaluation of Section 13 of the
//! paper: every figure and table is a function over (dataset, workload
//! parameters, methods) that produces the same series the paper plots. The
//! `figures` binary prints them as text tables
//! (`cargo run --release -p mahif-bench --bin figures`). The repository's
//! recorded performance numbers — five named workloads end to end and per
//! layer — live in `trajectory/README.md`.
//!
//! Sizes are scaled down from the paper's 5M–50M rows to laptop-scale
//! defaults (see [`ExperimentConfig`]); the *shapes* (which method wins, how
//! runtimes scale with `U`, `D`, `T`, `M`) are the reproduction target, not
//! the absolute numbers.

#![forbid(unsafe_code)]

use std::time::Duration;

use mahif::{EngineConfig, Method, Session, WhatIfAnswer};
use mahif_workload::{Dataset, DatasetKind, WorkloadSpec};

/// Scaled-down experiment sizing.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Rows of the small taxi dataset (stands in for the paper's 5M sample).
    pub taxi_small_rows: usize,
    /// Rows of the large taxi dataset (stands in for the paper's 50M sample).
    pub taxi_large_rows: usize,
    /// Rows of the TPC-C stock relation (paper: 10M).
    pub tpcc_rows: usize,
    /// Rows of the YCSB usertable (paper: 5M).
    pub ycsb_rows: usize,
    /// The history lengths swept by most figures.
    pub update_counts: Vec<usize>,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            taxi_small_rows: 2_000,
            taxi_large_rows: 10_000,
            tpcc_rows: 5_000,
            ycsb_rows: 2_000,
            update_counts: vec![10, 20, 50, 100, 200],
            seed: 42,
        }
    }
}

/// A named dataset instance used by an experiment.
#[derive(Debug, Clone)]
pub struct NamedDataset {
    /// Label used in the printed tables (matches the paper's legends).
    pub label: String,
    /// The generated dataset.
    pub dataset: Dataset,
}

impl ExperimentConfig {
    /// The four datasets of the paper's evaluation.
    pub fn datasets(&self) -> Vec<NamedDataset> {
        vec![
            NamedDataset {
                label: format!("Taxi ({})", format_rows(self.taxi_small_rows)),
                dataset: Dataset::generate(DatasetKind::Taxi, self.taxi_small_rows, self.seed),
            },
            NamedDataset {
                label: format!("Taxi ({})", format_rows(self.taxi_large_rows)),
                dataset: Dataset::generate(DatasetKind::Taxi, self.taxi_large_rows, self.seed),
            },
            NamedDataset {
                label: "TPCC".to_string(),
                dataset: Dataset::generate(DatasetKind::TpccStock, self.tpcc_rows, self.seed),
            },
            NamedDataset {
                label: "YCSB".to_string(),
                dataset: Dataset::generate(DatasetKind::Ycsb, self.ycsb_rows, self.seed),
            },
        ]
    }

    /// The two taxi datasets (small and large), used by the breakdown and
    /// insert/mixed workload figures.
    pub fn taxi_datasets(&self) -> Vec<NamedDataset> {
        self.datasets().into_iter().take(2).collect()
    }
}

fn format_rows(rows: usize) -> String {
    if rows >= 1_000_000 {
        format!("{}M", rows / 1_000_000)
    } else if rows >= 1_000 {
        format!("{}K", rows / 1_000)
    } else {
        format!("{rows}")
    }
}

/// The measured outcome of answering one what-if query with one method.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Total wall-clock runtime.
    pub total: Duration,
    /// Program-slicing time (the `PS` column of Figure 16).
    pub program_slicing: Duration,
    /// Data-slicing time.
    pub data_slicing: Duration,
    /// Copy time (naïve only; the `Creation` series of Figure 15).
    pub copy: Duration,
    /// Query/history execution time (`Exe`).
    pub execution: Duration,
    /// Delta computation time.
    pub delta_time: Duration,
    /// Number of annotated tuples in the answer.
    pub delta_size: usize,
    /// Statements reenacted after slicing.
    pub statements_reenacted: usize,
    /// Input tuples after data slicing.
    pub input_tuples: usize,
}

impl Measurement {
    fn from_answer(answer: &WhatIfAnswer) -> Measurement {
        Measurement {
            total: answer.timings.total(),
            program_slicing: answer.timings.program_slicing,
            data_slicing: answer.timings.data_slicing,
            copy: answer.timings.copy,
            execution: answer.timings.execution,
            delta_time: answer.timings.delta,
            delta_size: answer.delta.len(),
            statements_reenacted: answer.stats.statements_reenacted,
            input_tuples: answer.stats.input_tuples,
        }
    }
}

/// Runs one experiment cell: registers the workload's history with a
/// session, answers the what-if query with `method`, and returns the
/// measurement.
pub fn run_cell(
    dataset: &Dataset,
    spec: &WorkloadSpec,
    method: Method,
    engine: &EngineConfig,
) -> Measurement {
    let workload = spec.generate(dataset);
    let session = Session::with_history("bench", dataset.database.clone(), workload.history)
        .expect("workload histories always execute");
    let answer = session
        .on("bench")
        .modifications(workload.modifications)
        .method(method)
        .config(engine.clone())
        .run()
        .expect("what-if answering must not fail")
        .into_answer();
    Measurement::from_answer(&answer)
}

/// Formats a duration in seconds with millisecond resolution.
pub fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// Renders a simple aligned text table.
pub fn render_table(title: &str, header: &[String], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    out.push_str(&format!("## {title}\n"));
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    out.push_str(&fmt_row(header));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row));
        out.push('\n');
    }
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_cell_produces_consistent_answers_across_methods() {
        let dataset = Dataset::generate(DatasetKind::Taxi, 200, 7);
        let spec = WorkloadSpec::default().with_updates(10);
        let engine = EngineConfig::default();
        let reference = run_cell(&dataset, &spec, Method::Naive, &engine);
        assert!(reference.delta_size > 0);
        for method in Method::all() {
            let m = run_cell(&dataset, &spec, method, &engine);
            assert_eq!(m.delta_size, reference.delta_size, "{}", method.label());
        }
    }

    #[test]
    fn table_rendering_aligns_columns() {
        let table = render_table(
            "Demo",
            &["U".to_string(), "Runtime".to_string()],
            &[
                vec!["10".to_string(), "0.5".to_string()],
                vec!["200".to_string(), "12.0".to_string()],
            ],
        );
        assert!(table.contains("## Demo"));
        assert!(table.contains("Runtime"));
        assert!(table.lines().count() >= 5);
    }

    #[test]
    fn experiment_config_datasets() {
        let config = ExperimentConfig {
            taxi_small_rows: 50,
            taxi_large_rows: 100,
            tpcc_rows: 50,
            ycsb_rows: 50,
            update_counts: vec![5],
            seed: 1,
        };
        let ds = config.datasets();
        assert_eq!(ds.len(), 4);
        assert!(ds[0].label.starts_with("Taxi"));
        assert_eq!(config.taxi_datasets().len(), 2);
        assert_eq!(format_rows(5_000_000), "5M");
        assert_eq!(format_rows(2_000), "2K");
        assert_eq!(format_rows(200), "200");
    }

    #[test]
    fn secs_formatting() {
        assert_eq!(secs(Duration::from_millis(1500)), "1.500");
    }
}
