//! Criterion micro-benchmarks for the core components of Mahif-rs.
//!
//! These complement the `figures` binary (which regenerates the paper's
//! end-to-end figures) with component-level measurements: reenactment query
//! construction and evaluation, data-slicing push-down, program slicing
//! (symbolic execution + solver), MILP compilation, delta computation and the
//! end-to-end methods at a small fixed scale.

use criterion::{criterion_group, criterion_main, Criterion};

use mahif::{EngineConfig, Method, Session};
use mahif_bench::run_cell;
use mahif_history::HistoricalWhatIf;
use mahif_query::evaluate;
use mahif_reenact::reenact_history;
use mahif_slicing::{data_slicing_conditions, program_slice, ProgramSlicingConfig};
use mahif_solver::compile_to_milp;
use mahif_workload::{Dataset, DatasetKind, WorkloadSpec};

const ROWS: usize = 500;
const UPDATES: usize = 20;

fn setup() -> (Dataset, mahif_workload::GeneratedWorkload) {
    let dataset = Dataset::generate(DatasetKind::Taxi, ROWS, 7);
    let workload = WorkloadSpec::default()
        .with_updates(UPDATES)
        .generate(&dataset);
    (dataset, workload)
}

fn bench_reenactment(c: &mut Criterion) {
    let (dataset, workload) = setup();
    let relation = dataset.kind.relation();
    let schema = dataset.relation().schema.clone();

    c.bench_function("reenactment/build_query", |b| {
        b.iter(|| reenact_history(&workload.history, relation, &schema))
    });

    let query = reenact_history(&workload.history, relation, &schema);
    c.bench_function("reenactment/evaluate_query", |b| {
        b.iter(|| evaluate(&query, &dataset.database).unwrap())
    });

    c.bench_function("reenactment/direct_history_execution", |b| {
        b.iter(|| workload.history.execute(&dataset.database).unwrap())
    });
}

fn bench_slicing(c: &mut Criterion) {
    let (dataset, workload) = setup();
    let query = HistoricalWhatIf::new(
        workload.history.clone(),
        dataset.database.clone(),
        workload.modifications.clone(),
    );
    let normalized = query.normalize().unwrap();

    c.bench_function("slicing/data_slicing_conditions", |b| {
        b.iter(|| {
            data_slicing_conditions(
                &normalized.original,
                &normalized.modified,
                &normalized.modified_positions,
            )
            .unwrap()
        })
    });

    c.bench_function("slicing/program_slice_dependency", |b| {
        b.iter(|| {
            program_slice(
                &normalized.original,
                &normalized.modified,
                &normalized.modified_positions,
                &query.database,
                &ProgramSlicingConfig::default(),
            )
            .unwrap()
        })
    });
}

fn bench_solver(c: &mut Criterion) {
    use mahif_expr::builder::*;
    // The running-example dependency condition (Example 9) as a
    // representative solver input.
    let fee1 = ite(ge(var("p"), lit(50)), lit(0), var("f"));
    let cond = and(
        ge(var("p"), lit(50)),
        and(
            and(eq(var("c"), slit("UK")), le(var("p"), lit(100))),
            ge(fee1, lit(0)),
        ),
    );
    c.bench_function("solver/compile_to_milp", |b| {
        b.iter(|| compile_to_milp(&cond, 1_000_000))
    });

    use mahif_solver::{Domain, SatProblem, Solver};
    let problem = SatProblem::new(
        vec![
            ("p".to_string(), Domain::IntRange(0, 10_000)),
            ("f".to_string(), Domain::IntRange(0, 100)),
            (
                "c".to_string(),
                Domain::StrChoices(vec!["UK".into(), "US".into()]),
            ),
        ],
        cond.clone(),
    );
    let solver = Solver::new();
    c.bench_function("solver/check_sat", |b| b.iter(|| solver.check(&problem)));
}

fn bench_delta(c: &mut Criterion) {
    let (dataset, workload) = setup();
    let original = workload.history.execute(&dataset.database).unwrap();
    let modified = workload
        .modifications
        .apply(&workload.history)
        .unwrap()
        .execute(&dataset.database)
        .unwrap();
    c.bench_function("delta/database_delta", |b| {
        b.iter(|| mahif_history::DatabaseDelta::compute(&original, &modified))
    });
}

fn bench_end_to_end(c: &mut Criterion) {
    let dataset = Dataset::generate(DatasetKind::Taxi, ROWS, 7);
    let spec = WorkloadSpec::default().with_updates(UPDATES);
    let engine = EngineConfig::default();
    let mut group = c.benchmark_group("end_to_end");
    group.sample_size(10);
    for method in Method::all() {
        group.bench_function(method.label(), |b| {
            b.iter(|| run_cell(&dataset, &spec, method, &engine))
        });
    }
    group.finish();
}

fn bench_batch_scenarios(c: &mut Criterion) {
    // A k=8 sweep over the same history: the session funnel's best case
    // (one shared program slice, parallel execution) against the sequential
    // loop of independent single requests it replaces.
    const K: usize = 8;
    let (dataset, workload) = setup();
    let sweep = workload.sweep_variants(K);
    // Cache-disabled session: criterion re-runs the same sweep every
    // iteration, and the point of this comparison is batching vs a
    // sequential loop — with the provisioning cache on, iterations 2+ of
    // both variants would measure cache hits instead.
    let session = Session::with_config(mahif::SessionConfig::disabled());
    session
        .register("bench", dataset.database.clone(), workload.history.clone())
        .unwrap();

    let mut group = c.benchmark_group("batch_scenarios");
    group.sample_size(10);
    group.bench_function("sequential_k8", |b| {
        b.iter(|| {
            sweep
                .iter()
                .map(|(_, m)| {
                    session
                        .on("bench")
                        .modifications(m.clone())
                        .method(Method::ReenactPsDs)
                        .run()
                        .unwrap()
                })
                .collect::<Vec<_>>()
        })
    });
    group.bench_function("run_batch_k8", |b| {
        b.iter(|| {
            session
                .on("bench")
                .method(Method::ReenactPsDs)
                .run_batch(sweep.iter().map(|(name, m)| (name.clone(), m.clone())))
                .unwrap()
        })
    });
    group.finish();
}

fn bench_columnar(c: &mut Criterion) {
    // The columnar reenactment path vs the `without_columnar()` row-path
    // ablation: a k ∈ {8, 32} sweep over a 5,000-row taxi dataset with a
    // 12-update history, answered with reenactment-dominated methods (R
    // and R+DS) where the per-tuple evaluator is the bottleneck the typed
    // columns remove.
    // Identical per-scenario deltas both ways (tests/columnar_equiv.rs);
    // the numbers are recorded in the `columnar` phase of
    // `BENCH_batch.json` at the repo root.
    let dataset = Dataset::generate(DatasetKind::Taxi, 5_000, 7);
    let workload = WorkloadSpec::default().with_updates(12).generate(&dataset);
    // Cache-disabled so every iteration reenacts instead of answering from
    // a provisioned plan (and the ablation stays comparable — it would be
    // cache-ineligible anyway).
    let session = Session::with_config(mahif::SessionConfig::disabled());
    session
        .register("bench", dataset.database.clone(), workload.history.clone())
        .unwrap();
    println!(
        "environment: cores={} parallelism=1 (single worker isolates the evaluator difference)",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    );

    let mut group = c.benchmark_group("columnar");
    group.sample_size(10);
    for method in [Method::Reenact, Method::ReenactDs] {
        let tag = match method {
            Method::Reenact => "r",
            _ => "r_ds",
        };
        for k in [8usize, 32] {
            let sweep = workload.sweep_variants(k);
            let run = |columnar: bool| {
                let request = session.on("bench").method(method).parallelism(1);
                let request = if columnar {
                    request
                } else {
                    request.without_columnar()
                };
                request
                    .run_batch(sweep.iter().map(|(name, m)| (name.clone(), m.clone())))
                    .unwrap()
            };
            // A quick self-check outside criterion's loops: the grep-able
            // `columnar ok:` line CI asserts on, from one warm pair.
            let warm = run(true);
            assert!(warm.stats.columnar_batches > 0);
            let start = std::time::Instant::now();
            let cold = run(true);
            let columnar_time = start.elapsed();
            let start = std::time::Instant::now();
            let row = run(false);
            let row_time = start.elapsed();
            assert_eq!(row.stats.columnar_batches, 0);
            println!(
                "columnar ok: {:.2}x speedup ({tag}_k{k}_1t, {} batches, {} vectorized predicates, {} fallbacks)",
                row_time.as_secs_f64() / columnar_time.as_secs_f64(),
                cold.stats.columnar_batches,
                cold.stats.vectorized_predicates,
                cold.stats.row_fallbacks,
            );
            group.bench_function(format!("columnar_{tag}_k{k}_1t"), |b| b.iter(|| run(true)));
            group.bench_function(format!("row_{tag}_k{k}_1t"), |b| b.iter(|| run(false)));
        }
    }
    group.finish();
}

fn bench_provisioning(c: &mut Criterion) {
    // The provisioning cache's best case: the identical k=8 sweep repeated
    // against one session. `cold` answers on a cache-disabled session
    // (slice + plan rebuilt every iteration); `warm` answers on a default
    // session whose first run provisioned the plan, so every iteration is
    // a cache hit that drops straight into group-plan answering. The
    // answers are byte-identical (tests/provisioning.rs).
    const K: usize = 8;
    let (dataset, workload) = setup();
    let sweep = workload.sweep_variants(K);
    let run = |session: &Session| {
        session
            .on("bench")
            .method(Method::ReenactPsDs)
            .run_batch(sweep.iter().map(|(name, m)| (name.clone(), m.clone())))
            .unwrap()
    };

    let cold_session = Session::with_config(mahif::SessionConfig::disabled());
    cold_session
        .register("bench", dataset.database.clone(), workload.history.clone())
        .unwrap();
    let warm_session =
        Session::with_history("bench", dataset.database.clone(), workload.history.clone()).unwrap();
    run(&warm_session); // provision the plan once, outside the timing loop

    let mut group = c.benchmark_group("provisioning");
    group.sample_size(10);
    group.bench_function("cold_k8", |b| b.iter(|| run(&cold_session)));
    group.bench_function("warm_k8", |b| b.iter(|| run(&warm_session)));
    group.finish();
}

criterion_group!(
    benches,
    bench_reenactment,
    bench_slicing,
    bench_solver,
    bench_delta,
    bench_end_to_end,
    bench_batch_scenarios,
    bench_columnar,
    bench_provisioning
);
criterion_main!(benches);
