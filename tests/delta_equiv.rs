//! Property-based equivalence of the sort-merge delta with the bag
//! definition: a tuple with `l` copies in `L` and `r` in `R` appears
//! `l − r` times as `−t` or `r − l` times as `+t` (ordered by tuple, then
//! `−` before `+`). The reference below counts each side's copies in a
//! hash map instead of merging. Random bags cover duplicates on either
//! side, tuples on both sides, NULLs, a column that mixes `Int`, `Str` and
//! `Bool` at runtime, empty sides and identical sides, through both
//! `RelationDelta::compute` and `DatabaseDelta::compute`.
//!
//! The engine's delta copies nothing: its `−` tuples are positions into a
//! shared, sorted original side and its `+` tuples are moved out of the
//! modified side (`RelationDelta::compute_sorted`). It must be the same
//! delta as the copying `compute` in every observable way — `==`, the
//! annotated sequence, the display, the lists and the wire bytes — and an
//! answer that points into a group plan's original side must keep
//! encoding the same bytes after the plan is gone.
//!
//! The duplicate-tuple probe at the end commits the case where a set delta
//! went wrong: every method must answer like N, and a `SUM` impact must
//! equal the difference of the two states' sums.

use std::collections::HashMap;
use std::sync::Arc;

use proptest::prelude::*;

use mahif::{EngineConfig, GroupPlan, ImpactSpec, Method, Session};
use mahif_expr::builder::{add, attr, eq, ge, lit};
use mahif_expr::Value;
use mahif_history::{
    Annotation, DatabaseDelta, DeltaInterner, History, ModificationSet, NormalizedWhatIf,
    RelationDelta, SetClause, Statement, WhatIfRef,
};
use mahif_serve::{encode_delta, encode_response, write_response_body};
use mahif_slicing::ProgramSliceResult;
use mahif_storage::{Attribute, Database, Relation, Schema, SchemaRef, Tuple, VersionedDatabase};

fn schema(name: &str) -> SchemaRef {
    Schema::shared(
        name,
        vec![
            Attribute::int("K"),
            Attribute::int("M"),
            Attribute::int("V"),
        ],
    )
}

/// Each tuple of `left` as often as its multiplicity in `left` exceeds
/// its multiplicity in `right`.
fn bag_difference<'a>(left: &'a Relation, right: &Relation) -> Vec<&'a Tuple> {
    let mut surplus: HashMap<&Tuple, i64> = HashMap::new();
    for t in &left.tuples {
        *surplus.entry(t).or_default() += 1;
    }
    for t in &right.tuples {
        if let Some(n) = surplus.get_mut(t) {
            *n -= 1;
        }
    }
    surplus
        .into_iter()
        .flat_map(|(t, n)| std::iter::repeat_n(t, n.max(0) as usize))
        .collect()
}

/// The annotated sequence by definition: both bag differences, ordered by
/// tuple, then `−` before `+`.
fn reference_sequence(left: &Relation, right: &Relation) -> Vec<(Annotation, Tuple)> {
    let minus = bag_difference(left, right)
        .into_iter()
        .map(|t| (Annotation::Minus, t.clone()));
    let plus = bag_difference(right, left)
        .into_iter()
        .map(|t| (Annotation::Plus, t.clone()));
    let mut tuples: Vec<(Annotation, Tuple)> = minus.chain(plus).collect();
    let rank = |a: Annotation| matches!(a, Annotation::Plus);
    tuples.sort_by(|a, b| a.1.total_cmp(&b.1).then_with(|| rank(a.0).cmp(&rank(b.0))));
    tuples
}

/// The delta by definition, built from the reference sequence's two lists.
fn reference_delta(relation: &str, left: &Relation, right: &Relation) -> RelationDelta {
    let sequence = reference_sequence(left, right);
    let of = |annotation| {
        sequence
            .iter()
            .filter(|(a, _)| *a == annotation)
            .map(|(_, t)| t.clone())
            .collect()
    };
    RelationDelta::new(
        relation,
        left.schema.clone(),
        of(Annotation::Minus),
        of(Annotation::Plus),
    )
}

/// Asserts that `a` and `b` are the same delta to every observer: `==`,
/// the annotated sequence, the display, the length, both lists and the
/// wire bytes.
fn assert_same_delta(a: &RelationDelta, b: &RelationDelta) {
    assert_eq!(a, b);
    assert!(a.iter().eq(b.iter()), "annotated sequences differ");
    assert_eq!(a.len(), b.len());
    assert_eq!(a.plus_tuples(), b.plus_tuples());
    assert!(a.minus_tuples().eq(b.minus_tuples()), "minus lists differ");
    let (a, b) = (
        DatabaseDelta::from_relations(vec![a.clone()]),
        DatabaseDelta::from_relations(vec![b.clone()]),
    );
    assert_eq!(a.to_string(), b.to_string());
    assert_eq!(encode_delta(&a).to_string(), encode_delta(&b).to_string());
}

/// A value of the mixed column: `Int`, `Str`, `Bool` or NULL at runtime.
fn mixed(tag: u8, n: i64) -> Value {
    match tag {
        0 => Value::Int(n),
        1 => Value::str(format!("s{n}")),
        2 => Value::Bool(n % 2 == 0),
        _ => Value::Null,
    }
}

/// A tuple drawn from a small domain, so that duplicates and tuples shared
/// between the two sides are common.
fn arb_tuple() -> impl Strategy<Value = Tuple> {
    (0i64..4, 0u8..4, 0i64..3, 0i64..4).prop_map(|(k, tag, m, v)| {
        Tuple::new(vec![
            Value::Int(k),
            mixed(tag, m),
            if v == 0 { Value::Null } else { Value::Int(v) },
        ])
    })
}

/// How the right side is derived from the left.
#[derive(Debug, Clone)]
enum Shape {
    /// Independent bags.
    Independent,
    /// The same bag, reordered.
    Identical,
    /// The right side is empty.
    EmptyRight,
    /// The left side is empty.
    EmptyLeft,
    /// The left bag with some tuples dropped, some repeated and the
    /// independent ones added.
    Overlapping,
}

fn arb_shape() -> impl Strategy<Value = Shape> {
    prop_oneof![
        Just(Shape::Independent),
        Just(Shape::Identical),
        Just(Shape::EmptyRight),
        Just(Shape::EmptyLeft),
        Just(Shape::Overlapping),
        Just(Shape::Overlapping),
    ]
}

fn arb_bag() -> impl Strategy<Value = Vec<Tuple>> {
    prop::collection::vec(arb_tuple(), 0..24)
}

fn sides(shape: &Shape, left: Vec<Tuple>, extra: Vec<Tuple>) -> (Relation, Relation) {
    let right = match shape {
        Shape::Independent => extra,
        Shape::Identical => left.iter().rev().cloned().collect(),
        Shape::EmptyRight => Vec::new(),
        Shape::EmptyLeft => return (relation(Vec::new()), relation(extra)),
        Shape::Overlapping => left
            .iter()
            .enumerate()
            .flat_map(|(i, t)| std::iter::repeat_n(t.clone(), i % 3))
            .chain(extra)
            .collect(),
    };
    (relation(left), relation(right))
}

fn relation(tuples: Vec<Tuple>) -> Relation {
    Relation::new(schema("R"), tuples).expect("arity 3")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The merge agrees with the definition on one relation, both ways,
    /// and on already sorted sides.
    #[test]
    fn relation_delta_equals_the_bag_difference_definition(
        shape in arb_shape(),
        left in arb_bag(),
        extra in arb_bag(),
        other in arb_bag(),
    ) {
        let (left, right) = sides(&shape, left, extra);
        let expected = reference_delta("R", &left, &right);
        let owned = RelationDelta::compute("R", &left, &right);
        assert_same_delta(&owned, &expected);
        prop_assert!(owned.iter().map(|(a, t)| (a, t.clone())).eq(reference_sequence(&left, &right)));
        assert_same_delta(
            &RelationDelta::compute("R", &right, &left),
            &reference_delta("R", &right, &left),
        );

        // The engine's path: a shared sorted original side, the modified
        // side moved in.
        let (mut sorted_left, mut sorted_right) = (left.clone(), right.clone());
        sorted_left.sort();
        sorted_right.sort();
        let original = Arc::new(sorted_left);
        let shared = RelationDelta::compute_sorted("R", &original, sorted_right);
        prop_assert!(shared.shares_original(&original));
        assert_same_delta(&shared, &owned);
        assert_same_delta(&shared, &expected);

        // Two deltas over one shared side are equal exactly when their
        // definitions are, whether or not they picked the same positions.
        let other = relation(other);
        let mut other_sorted = other.clone();
        other_sorted.sort();
        prop_assert_eq!(
            shared == RelationDelta::compute_sorted("R", &original, other_sorted),
            expected == reference_delta("R", &left, &other)
        );

        // The interner dedupes an owned delta against an equal shared one.
        let mut shared_db = DatabaseDelta::from_relations(vec![shared]);
        let mut owned_db = DatabaseDelta::from_relations(vec![owned]);
        let mut interner = DeltaInterner::new();
        prop_assert_eq!(interner.intern(&mut shared_db), 0);
        prop_assert_eq!(interner.intern(&mut owned_db), expected.len());
        prop_assert!(Arc::ptr_eq(&shared_db.relations[0], &owned_db.relations[0]));
        if matches!(shape, Shape::Identical) {
            prop_assert!(RelationDelta::compute("R", &left, &right).is_empty());
        }
    }

    /// The database delta is the per-relation definition over the union of
    /// relation names, a missing relation counting as empty and empty
    /// deltas dropped.
    #[test]
    fn database_delta_equals_the_bag_difference_definition(
        shape in arb_shape(),
        left in arb_bag(),
        extra in arb_bag(),
        only_left in arb_bag(),
        only_right in arb_bag(),
    ) {
        let (r_left, r_right) = sides(&shape, left, extra);
        let mut db_left = Database::new();
        let mut db_right = Database::new();
        db_left.put_relation(r_left.clone());
        db_right.put_relation(r_right.clone());
        let a = Relation::new(schema("A"), only_left).expect("arity 3");
        let z = Relation::new(schema("Z"), only_right).expect("arity 3");
        db_left.put_relation(a.clone());
        db_right.put_relation(z.clone());
        let expected: Vec<RelationDelta> = [
            reference_delta("A", &a, &Relation::empty(schema("A"))),
            reference_delta("R", &r_left, &r_right),
            reference_delta("Z", &Relation::empty(schema("Z")), &z),
        ]
        .into_iter()
        .filter(|d| !d.is_empty())
        .collect();
        prop_assert_eq!(
            DatabaseDelta::compute(&db_left, &db_right),
            DatabaseDelta::from_relations(expected)
        );
    }
}

/// `SUM(V)` over `relation`'s tuples (every `V` is a non-NULL integer).
fn sum_v(relation: &Relation) -> i64 {
    relation
        .tuples
        .iter()
        .map(|t| t.values[1].as_int().expect("V is an integer"))
        .sum()
}

fn set_v_where_v_is(v: i64) -> Statement {
    Statement::update(
        "R",
        SetClause::new(vec![("V".to_string(), lit(5))]),
        eq(attr("V"), lit(v)),
    )
}

/// `R(G, V) = {(1,5), (1,6)}`, history `UPDATE R SET V = 5 WHERE V = 6`,
/// and the what-if replaces its condition with `V = 7`. `H(D)` holds two
/// copies of `(1,5)` and `H[M](D)` one, so the answer is
/// `{−(1,5), +(1,6)}`: a set delta drops the `−`, and data slicing, which
/// keeps one copy of `(1,5)` on each side, disagreed with it.
#[test]
fn duplicate_tuple_probe_agrees_with_n_under_every_method() {
    let schema = Schema::shared("R", vec![Attribute::int("G"), Attribute::int("V")]);
    let rows = [[1, 5], [1, 6]].map(|row| Tuple::new(row.map(Value::Int).to_vec()));
    let mut initial = Database::new();
    initial.put_relation(Relation::new(schema.clone(), rows.to_vec()).expect("arity 2"));
    let history = History::new(vec![set_v_where_v_is(6)]);
    let modified = History::new(vec![set_v_where_v_is(7)]);
    let actual = history.execute(&initial).expect("history runs");
    let hypothetical = modified.execute(&initial).expect("what-if history runs");
    let session = Session::with_history("dup", initial, history).expect("registers");

    let spec = ImpactSpec::sum_of("R", "V");
    let expected = DatabaseDelta::from_relations(vec![RelationDelta::new(
        "R",
        schema,
        vec![rows[0].clone()],
        vec![rows[1].clone()],
    )]);
    let sum = |db: &Database| sum_v(db.relation("R").expect("R exists"));
    let true_change = sum(&hypothetical) - sum(&actual);
    assert_eq!((sum(&actual), sum(&hypothetical), true_change), (10, 11, 1));
    for method in Method::all() {
        let response = session
            .on("dup")
            .replace(0, set_v_where_v_is(7))
            .method(method)
            .impact(spec.clone())
            .run()
            .unwrap_or_else(|e| panic!("{method}: {e}"));
        assert_eq!(response.delta(), &expected, "{method}");
        let report = response.impact().expect("impact requested");
        assert_eq!(report.net_change(), true_change, "{method}");
        assert_eq!(report.baseline, Some(sum(&actual)), "{method}");
        assert_eq!(
            report.hypothetical_total(),
            Some(sum(&hypothetical)),
            "{method}"
        );
    }
}

/// `R(K, V)` with duplicate and NULL `V`s, the history
/// `UPDATE R SET V = V + 1 WHERE V >= 50`, and the what-if that moves the
/// threshold to `t`.
fn threshold_case() -> (Database, History, impl Fn(i64) -> ModificationSet) {
    let schema = Schema::shared("R", vec![Attribute::int("K"), Attribute::int("V")]);
    let rows = (0..120)
        .map(|k| {
            let v = if k % 17 == 0 {
                Value::Null
            } else {
                Value::Int(k % 90)
            };
            Tuple::new(vec![Value::Int(k % 40), v])
        })
        .collect();
    let mut initial = Database::new();
    initial.put_relation(Relation::new(schema, rows).expect("arity 2"));
    let bump = |t: i64| {
        Statement::update(
            "R",
            SetClause::single("V", add(attr("V"), lit(1))),
            ge(attr("V"), lit(t)),
        )
    };
    let history = History::new(vec![bump(50)]);
    (initial, history, move |t| {
        ModificationSet::single_replace(0, bump(t))
    })
}

/// A group plan's members point their `−` tuples into the plan's own
/// original side (nothing copied), equal N's owned answers, and are
/// deduped against them by the interner.
#[test]
fn member_deltas_point_into_the_plans_original_side() {
    let (initial, history, what_if) = threshold_case();
    let current = history.execute(&initial).expect("history runs");
    let versioned = VersionedDatabase::new(initial.clone(), current.clone());
    let modifications: Vec<ModificationSet> = [30, 45, 70].map(&what_if).into();
    let normalized: Vec<NormalizedWhatIf> = modifications
        .iter()
        .map(|m| {
            WhatIfRef::new(&history, &initial, m)
                .normalize()
                .expect("normalizes")
        })
        .collect();
    let members: Vec<&NormalizedWhatIf> = normalized.iter().collect();
    let plan = GroupPlan::build(
        &members,
        &ProgramSliceResult::keep_all(history.len()),
        &versioned,
        Method::Reenact,
        &EngineConfig::default(),
        None,
    )
    .expect("plan builds");
    let original = plan.original_side("R").expect("the plan covers R");
    let mut interner = DeltaInterner::new();
    for (member, m) in normalized.iter().zip(&modifications) {
        let mut answer = plan
            .answer_in_group(member, &versioned)
            .expect("member answers");
        let delta = answer.delta.relation("R").expect("R differs");
        assert!(delta.shares_original(original));
        let hypothetical = m
            .apply(&history)
            .expect("modifies")
            .execute(&initial)
            .expect("what-if history runs");
        let mut naive = DatabaseDelta::compute(&current, &hypothetical);
        let naive_r = naive.relation("R").expect("R differs");
        assert!(!naive_r.shares_original(original));
        assert_same_delta(delta, naive_r);
        assert_eq!(answer.delta, naive);
        interner.intern(&mut answer.delta);
        assert_eq!(interner.intern(&mut naive), naive.len());
        assert!(Arc::ptr_eq(&naive.relations[0], &answer.delta.relations[0]));
    }
}

/// A served answer holds the plan's original side, not the plan: after
/// the history (and with it every cached plan) is gone, the response
/// encodes the same bytes, through the reference tree and the served
/// writer alike.
#[test]
fn response_encodes_the_same_bytes_after_its_plan_is_evicted() {
    let (initial, history, what_if) = threshold_case();
    let session = Session::with_history("h", initial, history).expect("registers");
    let mut request = session.on("h").method(Method::ReenactPsDs);
    for t in [30, 45, 70] {
        request = request.scenario((format!("t{t}"), what_if(t)));
    }
    let response = request.run().expect("answers");
    assert!(!response.delta().is_empty());
    let encode = |response: &mahif::Response| {
        let mut written = String::new();
        write_response_body(response, &mut written);
        (encode_response(response).to_string(), written)
    };
    let before = encode(&response);
    assert_eq!(before.0, before.1);
    let registered = session.history("h").expect("registered");
    assert!(!registered.provisioned().cache().is_empty());
    assert!(registered.provisioned().cache().clear() > 0);
    drop(registered);
    session.unregister("h").expect("unregisters");
    assert_eq!(encode(&response), before);
}
