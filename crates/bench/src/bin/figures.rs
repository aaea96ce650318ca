//! Regenerates every figure and table of the paper's evaluation (Section 13)
//! as text tables.
//!
//! ```text
//! cargo run -p mahif-bench --release --bin figures -- all
//! cargo run -p mahif-bench --release --bin figures -- fig14 fig16
//! cargo run -p mahif-bench --release --bin figures -- --quick all
//! cargo run -p mahif-bench --release --bin figures -- --small 5000 --large 20000 fig18
//! ```
//!
//! Runtimes are reported in seconds. Sizes are scaled down from the paper's
//! 5M–50M rows (see `--small` / `--large`); shapes, not absolute numbers, are
//! the reproduction target.

use std::env;

use mahif::{EngineConfig, Method};
use mahif_bench::{render_table, run_cell, secs, ExperimentConfig, Measurement, NamedDataset};
use mahif_workload::WorkloadSpec;

fn main() {
    let args: Vec<String> = env::args().skip(1).collect();
    let mut config = ExperimentConfig::default();
    let mut experiments: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => {
                config.taxi_small_rows = 500;
                config.taxi_large_rows = 1_500;
                config.tpcc_rows = 1_000;
                config.ycsb_rows = 500;
                config.update_counts = vec![10, 20, 50];
            }
            "--small" => {
                i += 1;
                config.taxi_small_rows = args[i].parse().expect("--small takes a row count");
            }
            "--large" => {
                i += 1;
                config.taxi_large_rows = args[i].parse().expect("--large takes a row count");
            }
            "--updates" => {
                i += 1;
                config.update_counts = args[i]
                    .split(',')
                    .map(|s| s.parse().expect("--updates takes a comma-separated list"))
                    .collect();
            }
            "--seed" => {
                i += 1;
                config.seed = args[i].parse().expect("--seed takes an integer");
            }
            other => experiments.push(other.to_string()),
        }
        i += 1;
    }
    if experiments.is_empty() {
        experiments.push("all".to_string());
    }
    let all = [
        "fig14", "fig15", "fig16", "fig17", "fig18", "fig19", "fig20", "fig21", "fig22", "fig23",
        "fig24", "fig25", "ablation",
    ];
    let selected: Vec<&str> = if experiments.iter().any(|e| e == "all") {
        all.to_vec()
    } else {
        experiments.iter().map(|s| s.as_str()).collect()
    };

    println!("# Mahif-rs experiment harness (scaled reproduction of Section 13)");
    println!(
        "datasets: taxi-small={} rows, taxi-large={} rows, tpcc={} rows, ycsb={} rows; U sweep {:?}\n",
        config.taxi_small_rows,
        config.taxi_large_rows,
        config.tpcc_rows,
        config.ycsb_rows,
        config.update_counts
    );

    for experiment in selected {
        match experiment {
            "fig14" => fig14(&config),
            "fig15" => fig15(&config),
            "fig16" => fig16(&config),
            "fig17" => fig17(&config),
            "fig18" => fig18(&config),
            "fig19" => fig19(&config),
            "fig20" => fig20(&config),
            "fig21" => {
                fig_datasets_with_t(&config, 0, "Figure 21: datasets with T0 (<1% affected)")
            }
            "fig22" => fig_datasets_with_t(&config, 10, "Figure 22: datasets with T10"),
            "fig23" => fig_datasets_with_t(&config, 25, "Figure 23: datasets with T25"),
            "fig24" => fig24(&config),
            "fig25" => fig25(&config),
            "ablation" => ablation(&config),
            other => {
                eprintln!("unknown experiment `{other}` (expected fig14..fig25, ablation, all)")
            }
        }
    }
}

fn methods_header(methods: &[Method]) -> Vec<String> {
    let mut h = vec!["dataset".to_string(), "U".to_string()];
    h.extend(methods.iter().map(|m| m.label().to_string()));
    h
}

/// Sweep over U and datasets for a fixed method set. The workhorse of
/// Figures 14, 18 and 21–25.
fn sweep(
    config: &ExperimentConfig,
    datasets: &[NamedDataset],
    methods: &[Method],
    spec_for_u: impl Fn(usize) -> WorkloadSpec,
    engine: &EngineConfig,
) -> Vec<Vec<String>> {
    let mut rows = Vec::new();
    for named in datasets {
        for &u in &config.update_counts {
            let spec = spec_for_u(u).with_seed(config.seed);
            let mut row = vec![named.label.clone(), u.to_string()];
            for &method in methods {
                let m = run_cell(&named.dataset, &spec, method, engine);
                row.push(secs(m.total));
            }
            rows.push(row);
        }
    }
    rows
}

fn fig14(config: &ExperimentConfig) {
    let methods = [Method::Naive, Method::ReenactPsDs];
    let rows = sweep(
        config,
        &config.datasets(),
        &methods,
        |u| WorkloadSpec::default().with_updates(u),
        &EngineConfig::default(),
    );
    print!(
        "{}",
        render_table(
            "Figure 14: Naive vs Mahif (R+PS+DS), runtime in seconds",
            &methods_header(&methods),
            &rows
        )
    );
}

fn fig15(config: &ExperimentConfig) {
    let mut rows = Vec::new();
    for named in config.taxi_datasets() {
        for &u in &config.update_counts {
            let spec = WorkloadSpec::default()
                .with_updates(u)
                .with_seed(config.seed);
            let m = run_cell(
                &named.dataset,
                &spec,
                Method::Naive,
                &EngineConfig::default(),
            );
            rows.push(vec![
                named.label.clone(),
                u.to_string(),
                secs(m.copy),
                secs(m.execution),
                secs(m.delta_time),
                secs(m.total),
            ]);
        }
    }
    print!(
        "{}",
        render_table(
            "Figure 15: breakdown of the naive method (Creation / Exe / Delta)",
            &[
                "dataset".into(),
                "U".into(),
                "Creation".into(),
                "Exe".into(),
                "Delta".into(),
                "total".into()
            ],
            &rows
        )
    );
}

fn fig16(config: &ExperimentConfig) {
    let mut rows = Vec::new();
    for named in config.taxi_datasets() {
        for &u in &config.update_counts {
            let spec = WorkloadSpec::default()
                .with_updates(u)
                .with_seed(config.seed);
            let optimized = run_cell(
                &named.dataset,
                &spec,
                Method::ReenactPsDs,
                &EngineConfig::default(),
            );
            let reenact_only = run_cell(
                &named.dataset,
                &spec,
                Method::Reenact,
                &EngineConfig::default(),
            );
            let exe = optimized.total - optimized.program_slicing;
            rows.push(vec![
                named.label.clone(),
                u.to_string(),
                secs(optimized.program_slicing),
                secs(exe),
                secs(optimized.total),
                secs(reenact_only.total),
            ]);
        }
    }
    print!(
        "{}",
        render_table(
            "Figure 16 (table): breakdown of Mahif — PS, Exe, R+PS+DS vs R",
            &[
                "dataset".into(),
                "U".into(),
                "PS".into(),
                "Exe".into(),
                "R+PS+DS".into(),
                "R".into()
            ],
            &rows
        )
    );
}

fn fig17(config: &ExperimentConfig) {
    let methods = [
        Method::Reenact,
        Method::ReenactPs,
        Method::ReenactDs,
        Method::ReenactPsDs,
    ];
    let dataset = &config.datasets()[0];
    let u = 100.min(*config.update_counts.last().unwrap_or(&100));
    let mut rows = Vec::new();
    for m_count in [1usize, 5, 10, 20] {
        let spec = WorkloadSpec::default()
            .with_updates(u)
            .with_modifications(m_count)
            .with_dependent_pct(20.max((m_count * 100 / u) as u32))
            .with_seed(config.seed);
        let mut row = vec![dataset.label.clone(), m_count.to_string()];
        for &method in &methods {
            let m = run_cell(&dataset.dataset, &spec, method, &EngineConfig::default());
            row.push(secs(m.total));
        }
        rows.push(row);
    }
    let mut header = vec!["dataset".to_string(), "M".to_string()];
    header.extend(methods.iter().map(|m| m.label().to_string()));
    print!(
        "{}",
        render_table(
            &format!("Figure 17: multiple modifications (U{u})"),
            &header,
            &rows
        )
    );
}

fn fig18(config: &ExperimentConfig) {
    let methods = [Method::Reenact, Method::ReenactPsDs];
    let rows = sweep(
        config,
        &config.datasets(),
        &methods,
        |u| WorkloadSpec::default().with_updates(u),
        &EngineConfig::default(),
    );
    print!(
        "{}",
        render_table(
            "Figure 18: reenactment alone vs reenactment with both optimizations",
            &methods_header(&methods),
            &rows
        )
    );
}

fn fig19(config: &ExperimentConfig) {
    let dataset = &config.datasets()[0];
    let u = 100.min(*config.update_counts.last().unwrap_or(&100));
    let methods = [Method::ReenactPs, Method::ReenactPsDs];
    let mut rows = Vec::new();
    for d in [1u32, 10, 25, 50, 75, 100] {
        let spec = WorkloadSpec::default()
            .with_updates(u)
            .with_dependent_pct(d)
            .with_affected_pct(10)
            .with_seed(config.seed);
        let mut row = vec![dataset.label.clone(), format!("{d}%")];
        for &method in &methods {
            let m = run_cell(&dataset.dataset, &spec, method, &EngineConfig::default());
            row.push(secs(m.total));
        }
        rows.push(row);
    }
    print!(
        "{}",
        render_table(
            &format!("Figure 19: varying percentage of dependent updates (U{u}, T10)"),
            &[
                "dataset".into(),
                "D".into(),
                "R+PS".into(),
                "R+PS+DS".into()
            ],
            &rows
        )
    );
}

fn fig20(config: &ExperimentConfig) {
    let dataset = &config.datasets()[0];
    let u = 100.min(*config.update_counts.last().unwrap_or(&100));
    let methods = [
        Method::Reenact,
        Method::ReenactPs,
        Method::ReenactDs,
        Method::ReenactPsDs,
    ];
    let mut rows = Vec::new();
    for t in [3u32, 12, 38, 68, 80] {
        let spec = WorkloadSpec::default()
            .with_updates(u)
            .with_dependent_pct(1)
            .with_affected_pct(t)
            .with_seed(config.seed);
        let mut row = vec![dataset.label.clone(), format!("{t}%")];
        for &method in &methods {
            let m = run_cell(&dataset.dataset, &spec, method, &EngineConfig::default());
            row.push(secs(m.total));
        }
        rows.push(row);
    }
    let mut header = vec!["dataset".to_string(), "T".to_string()];
    header.extend(methods.iter().map(|m| m.label().to_string()));
    print!(
        "{}",
        render_table(
            &format!("Figure 20: varying percentage of affected data (U{u}, D1)"),
            &header,
            &rows
        )
    );
}

fn fig_datasets_with_t(config: &ExperimentConfig, t: u32, title: &str) {
    let methods = [Method::ReenactPs, Method::ReenactDs, Method::ReenactPsDs];
    let rows = sweep(
        config,
        &config.datasets(),
        &methods,
        |u| WorkloadSpec::default().with_updates(u).with_affected_pct(t),
        &EngineConfig::default(),
    );
    print!("{}", render_table(title, &methods_header(&methods), &rows));
}

fn fig24(config: &ExperimentConfig) {
    let methods = [Method::ReenactPs, Method::ReenactDs, Method::ReenactPsDs];
    let rows = sweep(
        config,
        &config.taxi_datasets(),
        &methods,
        |u| {
            WorkloadSpec::default()
                .with_updates(u)
                .with_insert_pct(10)
                .with_affected_pct(10)
        },
        &EngineConfig::default(),
    );
    print!(
        "{}",
        render_table(
            "Figure 24: insert workload (I10, T10)",
            &methods_header(&methods),
            &rows
        )
    );
}

fn fig25(config: &ExperimentConfig) {
    let methods = [Method::ReenactPs, Method::ReenactDs, Method::ReenactPsDs];
    let rows = sweep(
        config,
        &config.taxi_datasets(),
        &methods,
        |u| {
            WorkloadSpec::default()
                .with_updates(u)
                .with_insert_pct(10)
                .with_delete_pct(10)
                .with_affected_pct(10)
        },
        &EngineConfig::default(),
    );
    print!(
        "{}",
        render_table(
            "Figure 25: mixed workload (I10, X10, T10)",
            &methods_header(&methods),
            &rows
        )
    );
}

/// Ablations of the engine's design choices: the insert-split
/// optimization, the compressed-database constraint, the choice of slicer and
/// the compression granularity.
fn ablation(config: &ExperimentConfig) {
    let dataset = &config.datasets()[0];
    let u = 50.min(*config.update_counts.last().unwrap_or(&50));
    let spec = WorkloadSpec::default()
        .with_updates(u)
        .with_insert_pct(10)
        .with_seed(config.seed);

    let mut rows = Vec::new();
    let variants: Vec<(&str, EngineConfig)> = vec![
        ("default (dependency slicer)", EngineConfig::default()),
        (
            "greedy slicer (Sec. 8.3.3)",
            EngineConfig {
                use_greedy_slicer: true,
                ..Default::default()
            },
        ),
        (
            "no insert split (Sec. 10 off)",
            EngineConfig {
                disable_insert_split: true,
                ..Default::default()
            },
        ),
        (
            "no Φ_D constraint",
            EngineConfig {
                skip_compression_constraint: true,
                ..Default::default()
            },
        ),
        (
            "Φ_D grouped by key (8 groups)",
            EngineConfig {
                compression: mahif_symbolic::CompressionConfig::group_by(
                    dataset.dataset.kind.key_attribute(),
                )
                .with_max_groups(8),
                ..Default::default()
            },
        ),
    ];
    for (label, engine) in &variants {
        let m: Measurement = run_cell(&dataset.dataset, &spec, Method::ReenactPsDs, engine);
        rows.push(vec![
            label.to_string(),
            secs(m.program_slicing),
            secs(m.total),
            m.statements_reenacted.to_string(),
            m.delta_size.to_string(),
        ]);
    }
    print!(
        "{}",
        render_table(
            &format!("Ablation: R+PS+DS variants ({}, U{u}, I10)", dataset.label),
            &[
                "variant".into(),
                "PS".into(),
                "total".into(),
                "stmts kept".into(),
                "|Δ|".into()
            ],
            &rows
        )
    );
}
