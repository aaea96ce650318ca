//! Registration computes `H(D)` on the columnar trunk
//! (`mahif_reenact::execute_history`) and falls back to the row executor
//! (`History::execute`) for histories the trunk declines. Both must give
//! the same state: for generated histories, `Session::register(..)
//! .current_state()` is `Vec`-equal to `history.execute(&initial)` — the
//! same tuples, in the same order, under the same schema — and a history
//! that fails to execute fails registration with the same error.
//!
//! The generator reuses `columnar_equiv`'s shapes over `R(K, V-with-NULLs,
//! C)` and adds the ones where direct execution and reenactment part ways
//! or the trunk must decline: DELETE and UPDATE conditions that are NULL
//! on some rows (direct execution keeps and skips those rows), `SET V =
//! NULL`, a type-changing `SET`, division by zero on matched or only on
//! unmatched rows, and inserts. A second relation `S` rides along
//! untouched (and feeds `INSERT … SELECT`).
//!
//! `SessionStats::register_row_fallbacks` counts the declines: exactly the
//! declined shapes below, and 0 on the three workload datasets.

use std::sync::Arc;

use proptest::prelude::*;

use mahif::{ErrorKind, Session};
use mahif_expr::builder::*;
use mahif_expr::{Expr, Value};
use mahif_history::{History, SetClause, Statement};
use mahif_query::Query;
use mahif_storage::{Attribute, Database, Relation, Schema, Tuple};
use mahif_workload::{Dataset, DatasetKind, WorkloadSpec};

/// A generated statement over `R(K int, V int-or-null, C str)`.
#[derive(Debug, Clone)]
enum GenStatement {
    /// `UPDATE R SET V = V + delta WHERE lo <= K AND K < hi`.
    UpdateByKey { lo: i64, hi: i64, delta: i64 },
    /// `UPDATE R SET V = value WHERE C = tag`.
    UpdateByTag { tag: char, value: i64 },
    /// `UPDATE R SET V = NULL WHERE V >= threshold`: the condition is NULL
    /// on NULL rows, which direct execution leaves unchanged.
    UpdateToNull { threshold: i64 },
    /// `DELETE FROM R WHERE V < threshold`: the condition is NULL on NULL
    /// rows, which direct execution keeps.
    DeleteByValue { threshold: i64 },
    /// `INSERT INTO R VALUES (k, v-or-null, tag)`: the trunk declines.
    Insert { k: i64, v: Option<i64>, tag: char },
    /// `UPDATE R SET K = K / V WHERE V < t` (a zero `V` is matched: the
    /// row executor faults) or `WHERE V > t` (zeros are unmatched: it does
    /// not, but the trunk evaluates the division everywhere and declines).
    DivideByValue { threshold: i64, matched: bool },
    /// `UPDATE R SET C = value WHERE K < value`: an integer into the
    /// string column. The trunk declines the mixed column.
    Retype { value: i64 },
}

impl GenStatement {
    fn to_statement(&self) -> Statement {
        match self {
            GenStatement::UpdateByKey { lo, hi, delta } => Statement::update(
                "R",
                SetClause::single("V", add(attr("V"), lit(*delta))),
                and(ge(attr("K"), lit(*lo)), lt(attr("K"), lit(*hi))),
            ),
            GenStatement::UpdateByTag { tag, value } => Statement::update(
                "R",
                SetClause::single("V", lit(*value)),
                eq(attr("C"), slit(tag.to_string())),
            ),
            GenStatement::UpdateToNull { threshold } => Statement::update(
                "R",
                SetClause::single("V", null()),
                ge(attr("V"), lit(*threshold)),
            ),
            GenStatement::DeleteByValue { threshold } => {
                Statement::delete("R", lt(attr("V"), lit(*threshold)))
            }
            GenStatement::Insert { k, v, tag } => Statement::insert_values(
                "R",
                Tuple::new(vec![
                    Value::Int(*k),
                    v.map_or(Value::Null, Value::Int),
                    Value::from(tag.to_string()),
                ]),
            ),
            GenStatement::DivideByValue { threshold, matched } => {
                let cond = if *matched {
                    lt(attr("V"), lit(*threshold))
                } else {
                    gt(attr("V"), lit(*threshold))
                };
                Statement::update("R", SetClause::single("K", div(attr("K"), attr("V"))), cond)
            }
            GenStatement::Retype { value } => Statement::update(
                "R",
                SetClause::single("C", lit(*value)),
                lt(attr("K"), lit(*value)),
            ),
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
        (0u8..3, 0i64..50).prop_map(|(t, value)| GenStatement::UpdateByTag {
            tag: char::from(b'a' + t),
            value,
        }),
        (20i64..45).prop_map(|threshold| GenStatement::UpdateToNull { threshold }),
        (0i64..25).prop_map(|threshold| GenStatement::DeleteByValue { threshold }),
        // A negative `v` encodes a NULL insert value (the shim has no
        // `prop::option`).
        (30i64..40, -10i64..50, 0u8..3).prop_map(|(k, v, t)| GenStatement::Insert {
            k,
            v: (v >= 0).then_some(v),
            tag: char::from(b'a' + t),
        }),
        (0i64..10, 0u8..2).prop_map(|(threshold, m)| GenStatement::DivideByValue {
            threshold,
            matched: m == 0,
        }),
        (0i64..25).prop_map(|value| GenStatement::Retype { value }),
    ]
}

fn arb_history() -> impl Strategy<Value = Vec<GenStatement>> {
    prop::collection::vec(arb_statement(), 1..8)
}

fn kvc(relation: &str) -> Arc<Schema> {
    Schema::shared(
        relation,
        vec![
            Attribute::int("K"),
            Attribute::int("V"),
            Attribute::str("C"),
        ],
    )
}

fn row(k: i64, v: Option<i64>, c: &str) -> Tuple {
    Tuple::new(vec![
        Value::Int(k),
        v.map_or(Value::Null, Value::Int),
        Value::from(c.to_string()),
    ])
}

/// `R(K, V, C)` with keys `0..rows`, `V` NULL for values divisible by 3
/// and 0 for the value 50, `C` cycling over three tags; plus a three-row
/// `S` of the same shape that no generated statement modifies.
fn database(rows: usize, values: &[i64]) -> Database {
    let mut r = Relation::empty(kvc("R"));
    for k in 0..rows {
        let raw = values[k % values.len()];
        let v = (raw % 3 != 0).then(|| raw.rem_euclid(50));
        let tag = char::from(b'a' + (k % 3) as u8);
        r.insert(row(k as i64, v, &tag.to_string())).unwrap();
    }
    let mut s = Relation::empty(kvc("S"));
    for (k, v) in [(100, Some(1)), (101, None), (102, Some(0))] {
        s.insert(row(k, v, "s")).unwrap();
    }
    let mut db = Database::new();
    db.add_relation(r).unwrap();
    db.add_relation(s).unwrap();
    db
}

/// Registers `history` over `db` in a fresh session and checks the
/// registered `H(D)` against the row executor's: `Vec`-equal states with
/// the initial relations' schema `Arc`s, or the same error. Returns the
/// session's `register_row_fallbacks`.
fn check_register(db: &Database, history: History) -> u64 {
    let want = history.execute(db);
    let session = Session::new();
    let got = session.register("h", db.clone(), history.clone());
    match (want, got) {
        (Ok(want), Ok(_)) => {
            let registered = session.history("h").unwrap();
            let current = registered.current_state();
            assert_eq!(current, &want, "H(D) differs for {history}");
            for (name, relation) in current.iter() {
                let declared = &registered.initial_state().relation(name).unwrap().schema;
                assert!(
                    Arc::ptr_eq(&relation.schema, declared),
                    "{name} is not under its declared schema"
                );
            }
        }
        (Err(want), Err(got)) => {
            assert_eq!(got.kind, ErrorKind::History(want), "for {history}");
        }
        (want, got) => panic!(
            "row executor {:?}, registration {:?} for {history}",
            want.map(|_| ()),
            got.map(|_| ())
        ),
    }
    session.stats().register_row_fallbacks
}

fn history_of(statements: &[GenStatement]) -> History {
    History::new(statements.iter().map(GenStatement::to_statement).collect())
}

/// True when the trunk must decline `statements` whatever the data.
fn declined_by_shape(statements: &[GenStatement]) -> bool {
    statements
        .iter()
        .any(|s| matches!(s, GenStatement::Insert { .. } | GenStatement::Retype { .. }))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Registration's `H(D)` is the row executor's, tuple for tuple, and
    /// a history the trunk can express never counts as a fallback unless
    /// it may fault (division).
    #[test]
    fn registered_state_equals_row_execution(
        statements in arb_history(),
        values in prop::collection::vec(-20i64..60, 4..10),
    ) {
        let db = database(25, &values);
        let fallbacks = check_register(&db, history_of(&statements));
        let may_fault = statements
            .iter()
            .any(|s| matches!(s, GenStatement::DivideByValue { .. }));
        if declined_by_shape(&statements) {
            prop_assert_eq!(fallbacks, 1);
        } else if !may_fault {
            prop_assert_eq!(fallbacks, 0, "{:?}", &statements);
        }
    }
}

/// A fixed database with NULL and zero `V`s.
fn fixed_db() -> Database {
    database(25, &[3, 7, 50, 11, 42, 5])
}

/// Registers `statements` over [`fixed_db`] (see [`check_register`]) and
/// returns the fallback count.
fn fixed(statements: Vec<Statement>) -> u64 {
    check_register(&fixed_db(), History::new(statements))
}

#[test]
fn delete_with_null_condition_keeps_the_row() {
    let mut r = Relation::empty(kvc("R"));
    for t in [
        row(1, None, "a"),
        row(2, Some(5), "a"),
        row(3, Some(10), "a"),
    ] {
        r.insert(t).unwrap();
    }
    let mut db = Database::new();
    db.add_relation(r).unwrap();
    let history = History::new(vec![Statement::delete("R", lt(attr("V"), lit(7)))]);
    let session = Session::with_history("h", db.clone(), history.clone()).unwrap();
    let current = session.history("h").unwrap().current_state().clone();
    assert_eq!(
        current.relation("R").unwrap().tuples,
        vec![row(1, None, "a"), row(3, Some(10), "a")]
    );
    assert_eq!(current, history.execute(&db).unwrap());
    assert_eq!(session.stats().register_row_fallbacks, 0);
}

#[test]
fn null_conditions_and_null_assignments_run_on_the_trunk() {
    let statements = vec![
        // NULL on the NULL rows: they keep their tag.
        Statement::update(
            "R",
            SetClause::single("C", slit("z")),
            gt(attr("V"), lit(3)),
        ),
        // A literal NULL condition matches nothing.
        Statement::update("R", SetClause::single("V", lit(1)), null()),
        Statement::update("R", SetClause::single("V", null()), ge(attr("K"), lit(20))),
        Statement::delete("R", eq(attr("V"), lit(42))),
    ];
    assert_eq!(fixed(statements), 0);
}

#[test]
fn type_changing_set_is_declined() {
    let retype = Statement::update("R", SetClause::single("C", lit(7)), lt(attr("K"), lit(5)));
    assert_eq!(fixed(vec![retype]), 1);
}

#[test]
fn division_by_zero_on_a_matched_row_fails_the_same_way() {
    // V is 0 on some rows and 0 < 1 matches them.
    let divide = Statement::update(
        "R",
        SetClause::single("K", div(attr("K"), attr("V"))),
        lt(attr("V"), lit(1)),
    );
    let history = History::new(vec![divide.clone()]);
    assert!(history.execute(&fixed_db()).is_err());
    assert_eq!(fixed(vec![divide]), 1);
}

#[test]
fn division_by_zero_on_unmatched_rows_only_gives_equal_states() {
    let divide = Statement::update(
        "R",
        SetClause::single("K", div(attr("K"), attr("V"))),
        gt(attr("V"), lit(0)),
    );
    let history = History::new(vec![divide.clone()]);
    assert!(history.execute(&fixed_db()).is_ok());
    assert_eq!(fixed(vec![divide]), 1);
}

#[test]
fn inserts_are_declined() {
    let update = Statement::update("R", SetClause::single("V", lit(9)), lt(attr("K"), lit(3)));
    let values = Statement::insert_values("R", row(50, None, "b"));
    let select = Statement::insert_query("R", Query::scan("S"));
    assert_eq!(fixed(vec![update.clone(), values]), 1);
    assert_eq!(fixed(vec![update, select]), 1);
}

#[test]
fn unknown_relation_fails_the_same_way() {
    let update = Statement::update("Missing", SetClause::single("V", lit(1)), Expr::true_());
    let history = History::new(vec![update.clone()]);
    assert!(history.execute(&fixed_db()).is_err());
    assert_eq!(fixed(vec![update]), 1);
}

#[test]
fn untouched_relation_is_carried_over() {
    let update = Statement::update("R", SetClause::single("V", lit(9)), lt(attr("K"), lit(3)));
    let db = fixed_db();
    let session = Session::with_history("h", db.clone(), History::new(vec![update])).unwrap();
    let registered = session.history("h").unwrap();
    assert_eq!(
        registered.current_state().relation("S").unwrap(),
        db.relation("S").unwrap()
    );
    assert_eq!(session.stats().register_row_fallbacks, 0);
}

/// The benchmark's histories: every dataset kind at its workload shape
/// (`explore_cold`'s three, and `scan_heavy`'s 20k-row taxi history)
/// registers on the trunk and equals the row executor's state.
#[test]
fn workload_datasets_register_on_the_trunk() {
    let shapes = [
        (DatasetKind::Taxi, 5_000, 24, 10, 10),
        (DatasetKind::TpccStock, 5_000, 24, 10, 10),
        (DatasetKind::Ycsb, 2_000, 24, 10, 10),
        (DatasetKind::Taxi, 20_000, 12, 50, 50),
    ];
    for (kind, rows, updates, dependent, affected) in shapes {
        let dataset = Dataset::generate(kind, rows, 11);
        let workload = WorkloadSpec::default()
            .with_updates(updates)
            .with_dependent_pct(dependent)
            .with_affected_pct(affected)
            .with_seed(7)
            .generate(&dataset);
        let fallbacks = check_register(&dataset.database, workload.history);
        assert_eq!(fallbacks, 0, "{kind:?} at {rows} rows fell back");
    }
}
