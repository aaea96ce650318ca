//! Batch-vs-single equivalence: `run_batch` must produce exactly the delta
//! of k independent single-query requests, for every
//! execution method — including scenario groups that share one program
//! slice (the cache-hit path) and randomly generated scenario batches.

use proptest::prelude::*;

use mahif::{
    sweep, EngineConfig, ImpactSpec, Method, RefinePolicy, Response, ScenarioSpec, Session,
};
use mahif_expr::builder::*;
use mahif_history::statement::{running_example_database, running_example_history};
use mahif_history::{History, Modification, ModificationSet, SetClause, Statement};
use mahif_slicing::{program_slice, program_slice_multi, ProgramSlicingConfig};
use mahif_storage::{Attribute, Database, Relation, Schema, Tuple};
use mahif_workload::{Dataset, DatasetKind, WorkloadSpec};

fn running_example_session() -> Session {
    Session::with_history(
        "retail",
        running_example_database(),
        History::new(running_example_history()),
    )
    .unwrap()
}

fn threshold(t: i64) -> Statement {
    Statement::update(
        "Order",
        SetClause::single("ShippingFee", lit(0)),
        ge(attr("Price"), lit(t)),
    )
}

/// Answers `set` as one batch request.
fn run_batch(session: &Session, history: &str, set: &[ScenarioSpec], method: Method) -> Response {
    session
        .on(history)
        .method(method)
        .run_batch(set.iter().cloned())
        .unwrap()
}

/// Asserts that every scenario of `set` gets the same delta from the batch
/// as from an independent single-query request, for the given method.
fn assert_batch_matches_singles(
    session: &Session,
    history: &str,
    set: &[ScenarioSpec],
    method: Method,
) {
    let batch = run_batch(session, history, set, method);
    assert_eq!(batch.scenarios.len(), set.len());
    for (scenario, answer) in set.iter().zip(&batch.scenarios) {
        let single = session
            .on(history)
            .modifications(scenario.modifications().clone())
            .method(method)
            .run()
            .unwrap();
        assert_eq!(
            &answer.answer.delta,
            single.delta(),
            "scenario {} method {} batch delta diverged",
            scenario.name(),
            method.label()
        );
    }
}

/// The k=8 sweep of the acceptance criteria: identical deltas across all
/// methods, with the whole sweep answered by a single shared slice.
#[test]
fn k8_sweep_matches_singles_across_methods() {
    let session = running_example_session();
    let set = sweep("threshold", 0, [42i64, 48, 52, 55, 60, 65, 75, 100], |t| {
        threshold(*t)
    });
    assert_eq!(set.len(), 8);
    // The cold batch first: the stats assert the within-batch sharing the
    // paper promises, which only the first run of a sweep performs — later
    // identical batches answer from the session's provisioning cache.
    let batch = run_batch(&session, "retail", &set, Method::ReenactPsDs);
    assert_eq!(batch.stats.slice_groups, 1, "a sweep shares one slice");
    assert_eq!(batch.stats.shared_slice_hits, 7);
    for method in Method::all() {
        assert_batch_matches_singles(&session, "retail", &set, method);
    }
    // The equivalence loop re-ran the sweep warm (and its singles hit the
    // sweep's certified plans), so the provisioning cache demonstrably
    // served byte-identical answers above.
    assert!(session.stats().plan_cache_hits > 0);
}

/// Scenarios over *different* positions and modification kinds (replace,
/// delete, insert) form separate groups but still match singles exactly.
#[test]
fn heterogeneous_batch_matches_singles_across_methods() {
    let session = running_example_session();
    let set = [
        ScenarioSpec::new(
            "replace-u1",
            ModificationSet::single_replace(0, threshold(60)),
        ),
        ScenarioSpec::new(
            "replace-u1-low",
            ModificationSet::single_replace(0, threshold(40)),
        ),
        ScenarioSpec::new(
            "drop-u2",
            ModificationSet::new(vec![Modification::delete(1)]),
        ),
        ScenarioSpec::new(
            "extra-us-surcharge",
            ModificationSet::new(vec![Modification::insert(
                3,
                Statement::update(
                    "Order",
                    SetClause::single("ShippingFee", add(attr("ShippingFee"), lit(1))),
                    eq(attr("Country"), slit("US")),
                ),
            )]),
        ),
        ScenarioSpec::new(
            "replace-and-delete",
            ModificationSet::new(vec![
                Modification::replace(0, threshold(70)),
                Modification::delete(2),
            ]),
        ),
    ];
    // Cold first: within-batch sharing stats are a first-run property (a
    // warm batch reuses cached plans and computes no slice at all).
    let batch = run_batch(&session, "retail", &set, Method::ReenactPsDs);
    // The two u1 replacements share a group; the others are singletons.
    assert_eq!(batch.stats.slice_groups, 4);
    assert_eq!(batch.stats.shared_slice_hits, 1);
    for method in Method::all() {
        assert_batch_matches_singles(&session, "retail", &set, method);
    }
}

/// Batches over a history that *contains inserts* must survive the group
/// plans' original-side caching: the insert-split of Section 10 reenacts the
/// full suffix after each insert, and that shared original-side result must
/// still be byte-identical to every member's own, for every method.
#[test]
fn insert_history_batches_match_singles_across_methods() {
    use mahif_expr::Value;

    let mut statements = running_example_history();
    statements.push(Statement::insert_values(
        "Order",
        Tuple::new(vec![
            Value::int(15),
            Value::str("Eve"),
            Value::str("UK"),
            Value::int(55),
            Value::int(7),
        ]),
    ));
    statements.push(Statement::update(
        "Order",
        SetClause::single("ShippingFee", lit(1)),
        ge(attr("Price"), lit(52)),
    ));
    let session = Session::with_history(
        "retail",
        running_example_database(),
        History::new(statements),
    )
    .unwrap();
    // A slice-sharing sweep (one group) plus heterogeneous members that
    // modify the history around the insert.
    let mut set = sweep("threshold", 0, [48i64, 55, 60, 70], |t| threshold(*t));
    set.push(ScenarioSpec::new(
        "drop-insert",
        ModificationSet::new(vec![Modification::delete(3)]),
    ));
    set.push(ScenarioSpec::new(
        "late-update",
        ModificationSet::single_replace(
            4,
            Statement::update(
                "Order",
                SetClause::single("ShippingFee", lit(2)),
                ge(attr("Price"), lit(54)),
            ),
        ),
    ));
    // Cold first: the sweep's group shares one original-side reenactment —
    // a first-run property, since a warm batch reuses cached plans.
    let batch = run_batch(&session, "retail", &set, Method::ReenactPsDs);
    assert_eq!(batch.stats.slice_groups, 3);
    assert_eq!(batch.stats.original_reenactments, 3);
    for method in Method::all() {
        assert_batch_matches_singles(&session, "retail", &set, method);
    }
    // The disable-insert-split ablation agrees too.
    let no_split = session
        .on("retail")
        .method(Method::ReenactPsDs)
        .config(EngineConfig {
            disable_insert_split: true,
            ..Default::default()
        })
        .run_batch(set.iter().cloned())
        .unwrap();
    for (a, b) in batch.scenarios.iter().zip(&no_split.scenarios) {
        assert_eq!(a.answer.delta, b.answer.delta, "{}", a.name);
    }
}

/// An `INSERT ... SELECT` in the history flows scenario-dependent data into
/// another relation; the group path must still match singles exactly.
#[test]
fn insert_query_history_batches_match_singles() {
    use mahif_query::{ProjectItem, Query};
    use mahif_storage::{Attribute as Attr, Relation as Rel, Schema as Sch};

    let mut db = running_example_database();
    let arch_schema = Sch::shared(
        "Archive",
        vec![
            Attr::int("ID"),
            Attr::str("Customer"),
            Attr::str("Country"),
            Attr::int("Price"),
            Attr::int("ShippingFee"),
        ],
    );
    db.add_relation(Rel::empty(arch_schema)).unwrap();
    let mut statements = running_example_history();
    statements.push(Statement::insert_query(
        "Archive",
        Query::project(
            vec![
                ProjectItem::identity("ID"),
                ProjectItem::identity("Customer"),
                ProjectItem::identity("Country"),
                ProjectItem::identity("Price"),
                ProjectItem::identity("ShippingFee"),
            ],
            Query::select(ge(attr("ShippingFee"), lit(5)), Query::scan("Order")),
        ),
    ));
    let session = Session::with_history("retail", db, History::new(statements)).unwrap();
    let set = sweep("threshold", 0, [50i64, 55, 60], |t| threshold(*t));
    for method in Method::all() {
        assert_batch_matches_singles(&session, "retail", &set, method);
    }
}

/// The configurations (thread counts, slice refinement, greedy slicer)
/// never change any delta.
#[test]
fn batch_configurations_agree() {
    let session = running_example_session();
    let set = sweep("threshold", 0, [55i64, 60, 65, 70], |t| threshold(*t));
    let reference = run_batch(&session, "retail", &set, Method::ReenactPsDs);
    let request = || session.on("retail").method(Method::ReenactPsDs);
    let configs = [
        ("one thread", request().parallelism(1)),
        ("three threads", request().parallelism(3)),
        ("refine always", request().refine(RefinePolicy::Always)),
        (
            "greedy slicer",
            request().config(EngineConfig {
                use_greedy_slicer: true,
                ..Default::default()
            }),
        ),
    ];
    for (config, request) in configs {
        let batch = request.run_batch(set.iter().cloned()).unwrap();
        for (a, b) in reference.scenarios.iter().zip(&batch.scenarios) {
            assert_eq!(a.answer.delta, b.answer.delta, "config {config}");
        }
    }
}

/// Workload-generator sweeps at a larger scale: the batch engine answers a
/// generated k=6 sweep identically to the sequential loop and shares one
/// slice for it.
#[test]
fn generated_workload_sweep_matches_singles() {
    let dataset = Dataset::generate(DatasetKind::Taxi, 300, 11);
    let workload = WorkloadSpec::default().with_updates(12).generate(&dataset);
    let session =
        Session::with_history("taxi", dataset.database.clone(), workload.history.clone()).unwrap();
    let set: Vec<ScenarioSpec> = workload
        .sweep_variants(6)
        .into_iter()
        .map(Into::into)
        .collect();
    // Cold first (within-batch sharing is a first-run property; warm
    // batches answer from the provisioning cache).
    let batch = run_batch(&session, "taxi", &set, Method::ReenactPsDs);
    assert_eq!(batch.stats.slice_groups, 1);
    assert_eq!(batch.stats.shared_slice_hits, 5);
    for method in [Method::Naive, Method::ReenactDs, Method::ReenactPsDs] {
        assert_batch_matches_singles(&session, "taxi", &set, method);
    }
}

/// Exact-count guard on the slicer, over the three histories of the
/// benchmark's `explore_cold` workload (dataset seed 11, workload seed 7,
/// U=24, D=10, T=10): a k=8 sweep keeps the modified statement and its one
/// dependent update and asks the solver 22 times, and so does each member on
/// its own. A faster dependency test must return the same slice after the
/// same number of solver calls.
#[test]
fn explore_cold_slices_keep_their_exact_counts() {
    let histories = [
        (DatasetKind::Taxi, 5_000),
        (DatasetKind::TpccStock, 5_000),
        (DatasetKind::Ycsb, 2_000),
    ];
    let config = ProgramSlicingConfig::default();
    for (kind, rows) in histories {
        let dataset = Dataset::generate(kind, rows, 11);
        let workload = WorkloadSpec::default()
            .with_updates(24)
            .with_dependent_pct(10)
            .with_affected_pct(10)
            .with_seed(7)
            .generate(&dataset);
        let history = &workload.history;
        let mut variants = Vec::new();
        let mut positions = Vec::new();
        for (_, mods) in workload.sweep_variants(8) {
            let (original, modified, p) = mods.normalize(history).unwrap();
            assert_eq!(original.statements(), history.statements());
            positions = p;
            variants.push(modified);
        }
        let sweep = program_slice_multi(history, &variants, &positions, &dataset.database, &config)
            .unwrap();
        assert_eq!(sweep.kept_positions, [0, 10], "{kind:?} k=8");
        assert_eq!(sweep.solver_calls, 22, "{kind:?} k=8");
        for (v, variant) in variants.iter().enumerate() {
            let own =
                program_slice(history, variant, &positions, &dataset.database, &config).unwrap();
            assert_eq!(own.kept_positions, [0, 10], "{kind:?} variant {v}");
            assert_eq!(own.solver_calls, 22, "{kind:?} variant {v}");
        }
    }
}

/// Ranking sanity over the generated sweep: a larger surcharge moves the
/// metric further from the actual history, so the ranking is monotone in
/// the adjustment amount.
#[test]
fn generated_sweep_ranking_is_monotone() {
    let dataset = Dataset::generate(DatasetKind::Taxi, 200, 5);
    let workload = WorkloadSpec::default().with_updates(8).generate(&dataset);
    let session =
        Session::with_history("taxi", dataset.database.clone(), workload.history.clone()).unwrap();
    let ranking = session
        .on("taxi")
        .method(Method::ReenactPsDs)
        .impact(ImpactSpec::sum_of("taxi_trips", "fare"))
        .run_batch(workload.sweep_variants(4))
        .unwrap()
        .ranking()
        .unwrap();
    // The modified statement updates `fare` (the first value attribute) and
    // sweep_variants adds `5 + v` on top, so the fare impact grows with v:
    // adjust+8 ranks first.
    assert_eq!(ranking.best().unwrap().name, "adjust+8");
    let changes: Vec<i64> = ranking
        .entries
        .iter()
        .map(|e| e.report.net_change())
        .collect();
    assert!(changes.windows(2).all(|w| w[0] >= w[1]), "{changes:?}");
}

// ---------------------------------------------------------------------------
// Property tests: random batches over the R(K, V) relation.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum GenStatement {
    UpdateByKey { lo: i64, hi: i64, delta: i64 },
    UpdateByValue { threshold: i64, value: i64 },
    DeleteByKey { lo: i64, hi: i64 },
}

impl GenStatement {
    fn to_statement(&self) -> Statement {
        match self {
            GenStatement::UpdateByKey { lo, hi, delta } => Statement::update(
                "R",
                SetClause::single("V", add(attr("V"), lit(*delta))),
                and(ge(attr("K"), lit(*lo)), lt(attr("K"), lit(*hi))),
            ),
            GenStatement::UpdateByValue { threshold, value } => Statement::update(
                "R",
                SetClause::single("V", lit(*value)),
                ge(attr("V"), lit(*threshold)),
            ),
            GenStatement::DeleteByKey { lo, hi } => {
                Statement::delete("R", and(ge(attr("K"), lit(*lo)), lt(attr("K"), lit(*hi))))
            }
        }
    }
}

fn arb_statement() -> impl Strategy<Value = GenStatement> {
    prop_oneof![
        (0i64..20, 1i64..10, -5i64..10).prop_map(|(lo, len, delta)| GenStatement::UpdateByKey {
            lo,
            hi: lo + len,
            delta,
        }),
        (0i64..60, 0i64..50)
            .prop_map(|(threshold, value)| GenStatement::UpdateByValue { threshold, value }),
        (0i64..20, 1i64..5).prop_map(|(lo, len)| GenStatement::DeleteByKey { lo, hi: lo + len }),
    ]
}

fn database(rows: usize, values: &[i64]) -> Database {
    let schema = Schema::shared("R", vec![Attribute::int("K"), Attribute::int("V")]);
    let mut relation = Relation::empty(schema);
    for k in 0..rows {
        let v = values[k % values.len()].rem_euclid(50);
        relation
            .insert(Tuple::from_iter_values([k as i64, v]))
            .unwrap();
    }
    let mut db = Database::new();
    db.add_relation(relation).unwrap();
    db
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A random batch of replacement scenarios — some sharing the modified
    /// position (cache hits), some not — matches k independent calls under
    /// every method.
    #[test]
    fn random_batches_match_singles(
        statements in prop::collection::vec(arb_statement(), 2..6),
        replacements in prop::collection::vec(arb_statement(), 2..6),
        position_seeds in prop::collection::vec(0usize..6, 2..6),
        values in prop::collection::vec(-20i64..60, 4..10),
    ) {
        let db = database(25, &values);
        let history = History::new(statements.iter().map(|s| s.to_statement()).collect());
        let session = Session::with_history("r", db, history).expect("history executes");
        let k = replacements.len().min(position_seeds.len());
        let set: Vec<ScenarioSpec> = (0..k)
            .map(|i| {
                // Half the scenarios pin position 0 so groups form; the rest
                // scatter over the history.
                let position = if i % 2 == 0 { 0 } else { position_seeds[i] % statements.len() };
                ScenarioSpec::new(
                    format!("s{i}"),
                    ModificationSet::single_replace(position, replacements[i].to_statement()),
                )
            })
            .collect();
        for method in Method::all() {
            let batch = session
                .on("r")
                .method(method)
                .run_batch(set.iter().cloned())
                .expect("batch succeeds");
            for (scenario, answer) in set.iter().zip(&batch.scenarios) {
                let single = session
                    .on("r")
                    .modifications(scenario.modifications().clone())
                    .method(method)
                    .run()
                    .expect("single what-if succeeds")
                    .into_answer();
                prop_assert_eq!(
                    &answer.answer.delta,
                    &single.delta,
                    "scenario {} method {}",
                    scenario.name(),
                    method.label()
                );
            }
        }
    }
}
