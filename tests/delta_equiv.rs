//! Property-based equivalence of the sort-merge delta with the bag
//! definition: a tuple with `l` copies in `L` and `r` in `R` appears
//! `l − r` times as `−t` or `r − l` times as `+t` (ordered by tuple, then
//! `−` before `+`). The reference below counts each side's copies in a
//! hash map instead of merging. Random bags cover duplicates on either
//! side, tuples on both sides, NULLs, a column that mixes `Int`, `Str` and
//! `Bool` at runtime, empty sides and identical sides, through both
//! `RelationDelta::compute` and `DatabaseDelta::compute`.
//!
//! The duplicate-tuple probe at the end commits the case where a set delta
//! went wrong: every method must answer like N, and a `SUM` impact must
//! equal the difference of the two states' sums.

use std::collections::HashMap;

use proptest::prelude::*;

use mahif::{ImpactSpec, Method, Session};
use mahif_expr::builder::{attr, eq, lit};
use mahif_expr::Value;
use mahif_history::{
    Annotation, DatabaseDelta, DeltaTuple, History, RelationDelta, SetClause, Statement,
};
use mahif_storage::{Attribute, Database, Relation, Schema, SchemaRef, Tuple};

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

/// The delta by definition: both bag differences, then sorted.
fn reference_delta(relation: &str, left: &Relation, right: &Relation) -> RelationDelta {
    let minus = bag_difference(left, right)
        .into_iter()
        .map(|t| (Annotation::Minus, t));
    let plus = bag_difference(right, left)
        .into_iter()
        .map(|t| (Annotation::Plus, t));
    let mut tuples: Vec<DeltaTuple> = minus
        .chain(plus)
        .map(|(annotation, t)| DeltaTuple {
            annotation,
            tuple: t.clone(),
        })
        .collect();
    let rank = |a: Annotation| matches!(a, Annotation::Plus);
    tuples.sort_by(|a, b| {
        a.tuple
            .total_cmp(&b.tuple)
            .then_with(|| rank(a.annotation).cmp(&rank(b.annotation)))
    });
    RelationDelta {
        relation: relation.to_string(),
        schema: left.schema.clone(),
        tuples,
    }
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
    ) {
        let (left, right) = sides(&shape, left, extra);
        let expected = reference_delta("R", &left, &right);
        prop_assert_eq!(RelationDelta::compute("R", &left, &right), expected.clone());
        prop_assert_eq!(
            RelationDelta::compute("R", &right, &left),
            reference_delta("R", &right, &left)
        );
        let (mut sorted_left, mut sorted_right) = (left.clone(), right.clone());
        sorted_left.sort();
        sorted_right.sort();
        prop_assert_eq!(
            RelationDelta::compute_sorted("R", &sorted_left, &sorted_right),
            expected
        );
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
    let expected = DatabaseDelta::from_relations(vec![RelationDelta {
        relation: "R".to_string(),
        schema,
        tuples: vec![
            DeltaTuple {
                annotation: Annotation::Minus,
                tuple: rows[0].clone(),
            },
            DeltaTuple {
                annotation: Annotation::Plus,
                tuple: rows[1].clone(),
            },
        ],
    }]);
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
