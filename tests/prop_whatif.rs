//! Property-based correctness tests: for *randomly generated* databases,
//! histories and modifications, every execution method must produce exactly
//! the answer obtained by directly executing the original and modified
//! histories. This exercises the whole stack — reenactment, data slicing,
//! program slicing, the symbolic execution and the solver — against the
//! ground truth.

use proptest::prelude::*;

use mahif::{Method, RefinePolicy, Session};
use mahif_expr::builder::*;
use mahif_expr::Expr;
use mahif_history::{
    HistoricalWhatIf, History, Modification, ModificationSet, SetClause, Statement,
};
use mahif_storage::{Attribute, Database, Relation, Schema, Tuple};

/// A compact description of a generated update/delete statement over the
/// two-integer-attribute relation `R(K, V)`.
#[derive(Debug, Clone)]
enum GenStatement {
    /// `UPDATE R SET V = V + delta WHERE lo <= K AND K < hi`
    UpdateByKey { lo: i64, hi: i64, delta: i64 },
    /// `UPDATE R SET V = c WHERE V >= threshold`
    UpdateByValue { threshold: i64, value: i64 },
    /// `DELETE FROM R WHERE lo <= K AND K < hi`
    DeleteByKey { lo: i64, hi: i64 },
    /// `INSERT INTO R VALUES (k, v)`
    Insert { k: i64, v: i64 },
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
            GenStatement::Insert { k, v } => {
                Statement::insert_values("R", Tuple::from_iter_values([*k, *v]))
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
        (30i64..40, 0i64..50).prop_map(|(k, v)| GenStatement::Insert { k, v }),
    ]
}

fn arb_history() -> impl Strategy<Value = Vec<GenStatement>> {
    prop::collection::vec(arb_statement(), 1..8)
}

/// The database `R(K, V)` with keys `0..rows` and pseudo-random values.
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

fn check_all_methods(
    db: &Database,
    statements: &[GenStatement],
    modifications: ModificationSet,
) -> Result<(), TestCaseError> {
    let history = History::new(statements.iter().map(|s| s.to_statement()).collect());
    let reference = HistoricalWhatIf::new(history.clone(), db.clone(), modifications.clone())
        .answer_by_direct_execution()
        .expect("direct execution succeeds");
    let session = Session::with_history("prop", db.clone(), history).expect("history executes");
    for method in Method::all() {
        let answer = session
            .on("prop")
            .modifications(modifications.clone())
            .method(method)
            .run()
            .expect("what-if succeeds")
            .into_answer();
        prop_assert_eq!(
            &answer.delta,
            &reference,
            "method {} disagrees with direct execution",
            method.label()
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Replacing a random statement with another random statement of the same
    /// kind never changes the agreement between methods.
    #[test]
    fn replacement_modifications_agree(
        statements in arb_history(),
        replacement in arb_statement(),
        position_seed in 0usize..8,
        values in prop::collection::vec(-20i64..60, 4..10),
    ) {
        let db = database(25, &values);
        let position = position_seed % statements.len();
        let modifications = ModificationSet::new(vec![Modification::replace(
            position,
            replacement.to_statement(),
        )]);
        check_all_methods(&db, &statements, modifications)?;
    }

    /// Deleting a random statement from the history.
    #[test]
    fn deletion_modifications_agree(
        statements in arb_history(),
        position_seed in 0usize..8,
        values in prop::collection::vec(-20i64..60, 4..10),
    ) {
        let db = database(25, &values);
        let position = position_seed % statements.len();
        let modifications = ModificationSet::new(vec![Modification::delete(position)]);
        check_all_methods(&db, &statements, modifications)?;
    }

    /// Inserting a random statement into the history.
    #[test]
    fn insertion_modifications_agree(
        statements in arb_history(),
        inserted in arb_statement(),
        position_seed in 0usize..9,
        values in prop::collection::vec(-20i64..60, 4..10),
    ) {
        let db = database(25, &values);
        let position = position_seed % (statements.len() + 1);
        let modifications = ModificationSet::new(vec![Modification::insert(
            position,
            inserted.to_statement(),
        )]);
        check_all_methods(&db, &statements, modifications)?;
    }

    /// Grouped batches: k replacement scenarios at the *same* position form
    /// one slice-sharing group answered via a group plan (shared original
    /// reenactment, shared slice). Every member's delta must equal its
    /// independent single-query answer under every method — including
    /// histories containing inserts (the generator produces
    /// `INSERT INTO R VALUES`), so the insert-split survives the
    /// original-side caching. Also exercises the refinement ablation.
    #[test]
    fn grouped_batches_match_singles(
        statements in arb_history(),
        replacements in prop::collection::vec(arb_statement(), 2..5),
        position_seed in 0usize..8,
        values in prop::collection::vec(-20i64..60, 4..10),
    ) {
        let db = database(25, &values);
        let history = History::new(statements.iter().map(|s| s.to_statement()).collect());
        let session =
            Session::with_history("prop", db, history.clone()).expect("history executes");
        let position = position_seed % statements.len();
        let scenarios: Vec<(String, ModificationSet)> = replacements
            .iter()
            .enumerate()
            .map(|(i, r)| {
                (
                    format!("s{i}"),
                    ModificationSet::single_replace(position, r.to_statement()),
                )
            })
            .collect();
        // The expected grouping, derived from the same normalization the
        // funnel uses: scenarios group when `(original, positions)` agree
        // (replacing an insert with a different-kind statement pads the
        // histories and lands in a different group than an insert-to-insert
        // replacement, and a replacement equal to the original normalizes
        // to no positions at all).
        let normalized: Vec<mahif_history::NormalizedWhatIf> = scenarios
            .iter()
            .map(|(_, m)| {
                let (original, modified, modified_positions) =
                    m.normalize(&history).expect("normalizes");
                mahif_history::NormalizedWhatIf {
                    original,
                    modified,
                    modified_positions,
                }
            })
            .collect();
        let expected_groups = mahif_slicing::group_scenarios(&normalized);
        let expected_reenactments = expected_groups
            .groups
            .iter()
            .filter(|g| !g.positions.is_empty())
            .count();
        for method in Method::all() {
            // The analyzer ablation keeps the derived grouping exact: with
            // the analyzer on, a replacement that normalizes to no
            // positions (equal to the original) is proven a no-op at
            // admission and never reaches planning, shrinking
            // `slice_groups` below the expectation. The singles below stay
            // on the default path, so the delta comparison also
            // cross-checks analyzer-on against analyzer-off answers.
            let batch = session
                .on("prop")
                .method(method)
                .without_analyzer()
                .run_batch(scenarios.clone())
                .expect("batch succeeds");
            // One original reenactment per non-empty group (the single
            // relation `R`), never one per scenario.
            if method.uses_program_slicing() {
                prop_assert_eq!(
                    batch.stats.slice_groups,
                    expected_groups.groups.len(),
                    "statements {:?} replacements {:?} position {}",
                    statements,
                    replacements,
                    position
                );
                prop_assert_eq!(
                    batch.stats.original_reenactments,
                    expected_reenactments,
                    "statements {:?} replacements {:?} position {}",
                    statements,
                    replacements,
                    position
                );
            }
            for (name, mods) in &scenarios {
                let single = session
                    .on("prop")
                    .modifications(mods.clone())
                    .method(method)
                    .run()
                    .expect("single what-if succeeds")
                    .into_answer();
                prop_assert_eq!(
                    &batch.get(name).unwrap().answer.delta,
                    &single.delta,
                    "scenario {} method {}",
                    name,
                    method.label()
                );
            }
        }
        // The refinement path answers identically too.
        let refined = session
            .on("prop")
            .method(Method::ReenactPsDs)
            .refine(RefinePolicy::Always)
            .run_batch(scenarios.clone())
            .expect("refined batch succeeds");
        for (name, mods) in &scenarios {
            let single = session
                .on("prop")
                .modifications(mods.clone())
                .run()
                .expect("single what-if succeeds")
                .into_answer();
            prop_assert_eq!(
                &refined.get(name).unwrap().answer.delta,
                &single.delta,
                "refined scenario {}",
                name
            );
        }
    }

    /// Two modifications at once (replace + delete).
    #[test]
    fn multiple_modifications_agree(
        statements in prop::collection::vec(arb_statement(), 2..8),
        replacement in arb_statement(),
        seed_a in 0usize..8,
        seed_b in 0usize..8,
        values in prop::collection::vec(-20i64..60, 4..10),
    ) {
        let db = database(25, &values);
        let pos_a = seed_a % statements.len();
        let pos_b = seed_b % statements.len();
        let modifications = ModificationSet::new(vec![
            Modification::replace(pos_a, replacement.to_statement()),
            Modification::delete(pos_b),
        ]);
        check_all_methods(&db, &statements, modifications)?;
    }
}

/// A non-random regression guard: the no-op modification (replacing a
/// statement with itself) always yields an empty delta under every method.
#[test]
fn self_replacement_yields_empty_delta() {
    let db = database(25, &[3, 7, 11, 42]);
    let statements = [
        GenStatement::UpdateByKey {
            lo: 0,
            hi: 10,
            delta: 5,
        },
        GenStatement::DeleteByKey { lo: 15, hi: 18 },
    ];
    let history = History::new(statements.iter().map(|s| s.to_statement()).collect());
    let session = Session::with_history("prop", db, history.clone()).unwrap();
    let modifications = ModificationSet::single_replace(0, history.statements()[0].clone());
    for method in Method::all() {
        let answer = session
            .on("prop")
            .modifications(modifications.clone())
            .method(method)
            .run()
            .unwrap();
        assert!(answer.delta().is_empty(), "method {}", method.label());
    }
}

/// Another targeted case: a modification whose condition is unsatisfiable
/// over the data (no tuple has K >= 1000) produces an empty delta, and
/// program slicing excludes every statement.
#[test]
fn unsatisfiable_modification_produces_empty_answer() {
    let db = database(25, &[1, 2, 3]);
    let statements = [
        GenStatement::UpdateByKey {
            lo: 0,
            hi: 10,
            delta: 5,
        },
        GenStatement::UpdateByKey {
            lo: 5,
            hi: 15,
            delta: 2,
        },
    ];
    let history = History::new(statements.iter().map(|s| s.to_statement()).collect());
    let session = Session::with_history("prop", db, history).unwrap();
    // Replace u1 with an update over an empty key range: both histories then
    // differ only in a statement that never fires.
    let never = Statement::update(
        "R",
        SetClause::single("V", lit(0)),
        and(ge(attr("K"), lit(1000)), lt(attr("K"), lit(1001))),
    );
    let modifications = ModificationSet::new(vec![Modification::insert(2, never)]);
    for method in Method::all() {
        let answer = session
            .on("prop")
            .modifications(modifications.clone())
            .method(method)
            .run()
            .unwrap();
        assert!(answer.delta().is_empty(), "method {}", method.label());
    }
    let optimized = session
        .on("prop")
        .modifications(modifications.clone())
        .method(Method::ReenactPsDs)
        .run()
        .unwrap()
        .into_answer();
    // Data slicing filters every input tuple (the modified statement's
    // condition matches nothing in the key domain).
    assert_eq!(optimized.stats.input_tuples, 0);
    let _ = Expr::true_();
}
