//! The wire encoding, pinned byte for byte. The expected strings are
//! literals, not the output of the encoder under test, so a change to the
//! serializer that alters any byte — integer digits, escapes, key order,
//! separators — fails here even when server and client would agree with
//! each other. A random-tree round trip checks that what the writer emits
//! is what the parser reads back, and random responses check that the
//! served batch writer emits exactly the reference tree's bytes.

use std::sync::OnceLock;
use std::time::Duration;

use proptest::prelude::*;

use mahif::{
    BatchStats, EngineStats, GroupImpact, ImpactReport, ImpactSpec, Method, PhaseTimings, Response,
    ScenarioResponse, Session, WhatIfAnswer,
};
use mahif_expr::{DataType, Value};
use mahif_history::statement::{
    running_example_database, running_example_history, running_example_u1_prime,
};
use mahif_history::{DatabaseDelta, History, ModificationSet, RelationDelta};
use mahif_serve::{encode_delta, encode_response, write_response_body, Json};
use mahif_storage::{Attribute, Schema, Tuple};

/// Extreme and negative integers, NULL, booleans, and strings that need
/// every kind of escape next to ones that need none.
fn golden_delta() -> DatabaseDelta {
    let schema = Schema::shared(
        "Order",
        vec![
            Attribute::int("ID"),
            Attribute::str("Note"),
            Attribute::int("Fee"),
            Attribute::new("Paid", DataType::Bool),
            Attribute::str("Memo"),
        ],
    );
    let order = RelationDelta::new(
        "Order",
        schema.clone(),
        vec![Tuple::new(vec![
            Value::Int(i64::MIN),
            Value::str("plain"),
            Value::Int(-5),
            Value::Bool(true),
            Value::Null,
        ])],
        vec![Tuple::new(vec![
            Value::Int(-1),
            Value::str("quote \" back \\ bell \u{7} tab\t del \u{7f}"),
            Value::Int(0),
            Value::Bool(false),
            Value::str("naïve ☃ 𝄞"),
        ])],
    );
    let z = RelationDelta::new(
        "Z \"q\"",
        schema,
        Vec::new(),
        vec![Tuple::new(vec![
            Value::Int(i64::MAX),
            Value::str(""),
            Value::Null,
            Value::Null,
            Value::str("\n\r\u{1f}\u{0}"),
        ])],
    );
    DatabaseDelta::from_relations(vec![order, z])
}

#[test]
fn delta_encoding_matches_golden_bytes() {
    let expected = concat!(
        r#"{"relations":[{"relation":"Order","inserted":[[-1,"quote \" back \\ bell \u0007 tab\t del "#,
        "\u{7f}",
        r#"",0,false,"naïve ☃ 𝄞"]],"deleted":[[-9223372036854775808,"plain",-5,true,null]]},"#,
        r#"{"relation":"Z \"q\"","inserted":[[9223372036854775807,"",null,null,"\n\r\u001f\u0000"]],"deleted":[]}],"tuples":3}"#,
    );
    let encoded = encode_delta(&golden_delta());
    let mut written = String::new();
    encoded.write_into(&mut written);
    assert_eq!(written, expected);
    assert_eq!(encoded.to_string(), expected, "Display is the same writer");
    assert_eq!(Json::parse(expected).unwrap(), encoded);
}

#[test]
fn response_encoding_matches_golden_bytes() {
    let session = Session::with_history(
        "retail",
        running_example_database(),
        History::new(running_example_history()),
    )
    .unwrap();
    let response = session
        .on("retail")
        .modifications(ModificationSet::single_replace(
            0,
            running_example_u1_prime(),
        ))
        .method(Method::ReenactPsDs)
        .impact(ImpactSpec::sum_of("Order", "ShippingFee"))
        .run()
        .unwrap();
    // `stats` carries wall-clock fields; everything else is deterministic.
    let Json::Obj(pairs) = encode_response(&response) else {
        panic!("a response encodes as an object");
    };
    let deterministic = Json::Obj(pairs.into_iter().filter(|(k, _)| k != "stats").collect());
    let expected = concat!(
        r#"{"history":"retail","method":"R+PS+DS","scenarios":[{"name":"default","#,
        r#""delta":{"relations":[{"relation":"Order","inserted":[[12,"Alex","UK",50,10]],"#,
        r#""deleted":[[12,"Alex","UK",50,5]]}],"tuples":2},"#,
        r#""impact":{"relation":"Order","metric":"ShippingFee","baseline":17,"plus_total":10,"#,
        r#""minus_total":5,"rows_added":1,"rows_removed":1,"net_change":5}}]}"#,
    );
    assert_eq!(deterministic.to_string(), expected);
    // The served writer: the same bytes up to the `stats` tail.
    let mut served = String::new();
    write_response_body(&response, &mut served);
    let stats_at = served.rfind(",\"stats\":").expect("stats close the body");
    assert_eq!(format!("{}}}", &served[..stats_at]), expected);
}

/// A string drawn from characters that need escaping, multi-byte ones and
/// plain ASCII.
fn arb_string() -> impl Strategy<Value = String> {
    const POOL: &[char] = &[
        'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{8}', '\u{c}', '\u{1f}',
        '\u{7f}', 'é', '☃', '𝄞',
    ];
    prop::collection::vec(0usize..POOL.len(), 0..12)
        .prop_map(|picks| picks.into_iter().map(|i| POOL[i]).collect())
}

fn arb_json() -> impl Strategy<Value = Json> {
    let leaf = prop_oneof![
        Just(Json::Null),
        Just(Json::Bool(true)),
        Just(Json::Bool(false)),
        Just(Json::Int(i64::MIN)),
        Just(Json::Int(i64::MAX)),
        (-1_000_000i64..1_000_000).prop_map(Json::Int),
        // Fractional floats only: an integral one encodes as an integer.
        (-1000i64..1000).prop_map(|n| Json::Float(n as f64 + 0.25)),
        arb_string().prop_map(Json::Str),
    ];
    leaf.prop_recursive(4, 64, 6, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..6).prop_map(Json::Arr),
            prop::collection::vec((arb_string(), inner), 0..6).prop_map(Json::Obj),
        ]
    })
}

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        Just(Value::Bool(true)),
        Just(Value::Bool(false)),
        Just(Value::Int(i64::MIN)),
        Just(Value::Int(i64::MAX)),
        (-1_000_000i64..1_000_000).prop_map(Value::Int),
        arb_string().prop_map(Value::str),
    ]
}

fn arb_relation_delta() -> impl Strategy<Value = RelationDelta> {
    let tuple = (0u8..2, prop::collection::vec(arb_value(), 1..5))
        .prop_map(|(plus, values)| (plus == 1, Tuple::new(values)));
    (arb_string(), prop::collection::vec(tuple, 0..6)).prop_map(|(relation, tuples)| {
        let (plus, minus): (Vec<_>, Vec<_>) = tuples.into_iter().partition(|(plus, _)| *plus);
        let list = |side: Vec<(bool, Tuple)>| side.into_iter().map(|(_, t)| t).collect();
        RelationDelta::new(
            relation.clone(),
            Schema::shared(relation, vec![Attribute::int("K")]),
            list(minus),
            list(plus),
        )
    })
}

fn arb_impact() -> impl Strategy<Value = Option<ImpactReport>> {
    let report = (
        arb_string(),
        arb_string(),
        prop_oneof![Just(None), (-1000i64..1000).prop_map(Some)],
        (i64::MIN / 4..i64::MAX / 4, -1000i64..1000),
        (0usize..1000, 0usize..1000),
    )
        .prop_map(
            |(relation, metric_name, baseline, (plus_total, minus_total), (added, removed))| {
                ImpactReport {
                    relation,
                    metric_name,
                    overall: GroupImpact {
                        key: Vec::new(),
                        plus_total,
                        minus_total,
                        rows_added: added,
                        rows_removed: removed,
                    },
                    groups: Vec::new(),
                    baseline,
                }
            },
        );
    prop_oneof![Just(None), report.prop_map(Some)]
}

fn arb_scenario() -> impl Strategy<Value = ScenarioResponse> {
    (
        arb_string(),
        prop::collection::vec(arb_relation_delta(), 0..4),
        arb_impact(),
    )
        .prop_map(|(name, relations, impact)| ScenarioResponse {
            name,
            answer: WhatIfAnswer {
                delta: DatabaseDelta::from_relations(relations),
                timings: PhaseTimings::default(),
                stats: EngineStats::default(),
            },
            impact,
        })
}

/// A response to overwrite field by field (`Response` is built by the
/// session only).
fn template() -> &'static Response {
    static TEMPLATE: OnceLock<Response> = OnceLock::new();
    TEMPLATE.get_or_init(|| {
        Session::with_history(
            "retail",
            running_example_database(),
            History::new(running_example_history()),
        )
        .unwrap()
        .on("retail")
        .modifications(ModificationSet::single_replace(
            0,
            running_example_u1_prime(),
        ))
        .run()
        .unwrap()
    })
}

fn arb_response() -> impl Strategy<Value = Response> {
    let stats = (
        0usize..64,
        0u64..5_000_000,
        prop::collection::vec((arb_string(), 0u64..5_000_000), 0..3),
    )
        .prop_map(|(count, micros, relations)| BatchStats {
            scenarios: count,
            solver_calls: count * 3,
            total: Duration::from_micros(micros),
            execution: Duration::from_nanos(micros * 7 + 1),
            plan_relations: relations
                .into_iter()
                .map(|(name, micros)| (name, Duration::from_micros(micros)))
                .collect(),
            ..BatchStats::default()
        });
    (
        arb_string(),
        0usize..5,
        prop::collection::vec(arb_scenario(), 0..4),
        stats,
    )
        .prop_map(|(history, method, scenarios, stats)| {
            let mut response = template().clone();
            response.history = history;
            response.method = Method::all()[method];
            response.scenarios = scenarios;
            response.stats = stats;
            response
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Whatever the writer emits, the parser reads back as the same tree.
    #[test]
    fn written_trees_parse_back(tree in arb_json()) {
        let mut written = String::new();
        tree.write_into(&mut written);
        prop_assert_eq!(Json::parse(&written).unwrap(), tree);
    }

    /// The served batch writer emits the reference tree's bytes: several
    /// relations, empty `inserted` / `deleted` arrays, escaped strings,
    /// NULLs, booleans, extreme integers, and scenarios with and without
    /// an impact report. The `stats` tail is compared too, because both
    /// encode the same durations.
    #[test]
    fn served_writer_matches_the_reference_tree(response in arb_response()) {
        let mut served = String::new();
        write_response_body(&response, &mut served);
        prop_assert_eq!(served, encode_response(&response).to_string());
    }
}
