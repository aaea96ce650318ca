//! Integration tests driving the engine entirely through SQL text
//! (`mahif-sqlparse`) — the way the examples and a downstream user would use
//! the library.

use mahif::{Method, Session};
use mahif_expr::Value;
use mahif_history::statement::running_example_database;
use mahif_history::{Modification, ModificationSet};
use mahif_sqlparse::{parse_history, parse_statement};
use mahif_workload::{Dataset, DatasetKind};

#[test]
fn running_example_in_sql_matches_the_paper() {
    let history = parse_history(
        "UPDATE Order SET ShippingFee = 0 WHERE Price >= 50;
         UPDATE Order SET ShippingFee = ShippingFee + 5
           WHERE Country = 'UK' AND Price <= 100;
         UPDATE Order SET ShippingFee = ShippingFee - 2
           WHERE Price <= 30 AND ShippingFee >= 10;",
    )
    .unwrap();
    let session = Session::with_history("retail", running_example_database(), history).unwrap();

    let modifications = ModificationSet::single_replace(
        0,
        parse_statement("UPDATE Order SET ShippingFee = 0 WHERE Price >= 60").unwrap(),
    );

    for method in Method::all() {
        let answer = session
            .on("retail")
            .modifications(modifications.clone())
            .method(method)
            .run()
            .unwrap()
            .into_answer();
        // Example 2: Δ = {−o6, +o6'} — Alex's order pays 10 instead of 5.
        assert_eq!(answer.delta.len(), 2, "method {}", method.label());
        let order = answer.delta.relation("Order").unwrap();
        let removed = order.minus_tuples().next().unwrap();
        assert_eq!(removed.value(0), Some(&Value::int(12)));
        assert_eq!(removed.value(4), Some(&Value::int(5)));
        assert_eq!(order.plus_tuples()[0].value(4), Some(&Value::int(10)));
    }
}

#[test]
fn sql_history_with_insert_select_and_case() {
    // A history that uses INSERT ... SELECT and CASE WHEN, both supported by
    // the parser and the engine.
    let history = parse_history(
        "UPDATE Order SET ShippingFee = CASE WHEN Price >= 50 THEN 0 ELSE ShippingFee END;
         INSERT INTO Order SELECT ID + 100 AS ID, Customer, Country, Price, ShippingFee
           FROM Order WHERE Country = 'UK';
         UPDATE Order SET ShippingFee = ShippingFee + 1 WHERE ID >= 100;",
    )
    .unwrap();
    let session = Session::with_history("retail", running_example_database(), history).unwrap();
    // Current state: 4 original + 2 archived UK orders.
    let retail = session.history("retail").unwrap();
    let current = retail.current_state();
    assert_eq!(current.relation("Order").unwrap().len(), 6);

    let modifications = ModificationSet::single_replace(
        2,
        parse_statement("UPDATE Order SET ShippingFee = ShippingFee + 3 WHERE ID >= 100").unwrap(),
    );
    let mut reference = None;
    for method in Method::all() {
        let answer = session
            .on("retail")
            .modifications(modifications.clone())
            .method(method)
            .run()
            .unwrap()
            .into_answer();
        match &reference {
            None => reference = Some(answer.delta.clone()),
            Some(r) => assert_eq!(r, &answer.delta, "method {}", method.label()),
        }
    }
    // The two archived UK orders get a different surcharge: 2 minus + 2 plus.
    assert_eq!(reference.unwrap().len(), 4);
}

#[test]
fn taxi_policy_scenario_in_sql() {
    let dataset = Dataset::generate(DatasetKind::Taxi, 400, 5);
    let history = parse_history(
        "UPDATE taxi_trips SET extras = extras + 400 WHERE pickup_area >= 70;
         UPDATE taxi_trips SET tips = tips + 25 WHERE trip_miles_x100 >= 1500;
         UPDATE taxi_trips SET trip_total = fare + tips + tolls + extras;",
    )
    .unwrap();
    let session = Session::with_history("taxi", dataset.database.clone(), history).unwrap();

    let what_if = ModificationSet::new(vec![Modification::replace(
        0,
        parse_statement("UPDATE taxi_trips SET extras = extras + 600 WHERE pickup_area >= 70")
            .unwrap(),
    )]);
    let optimized = session
        .on("taxi")
        .modifications(what_if.clone())
        .method(Method::ReenactPsDs)
        .run()
        .unwrap()
        .into_answer();
    let naive = session
        .on("taxi")
        .modifications(what_if.clone())
        .method(Method::Naive)
        .run()
        .unwrap()
        .into_answer();
    assert_eq!(optimized.delta, naive.delta);
    // Only airport-area trips differ; the delta is a strict subset of all
    // trips and data slicing must have filtered the input accordingly.
    assert!(!optimized.delta.is_empty());
    assert!(optimized.stats.input_tuples < dataset.rows);
    // The final total-recomputation statement depends on the modified
    // surcharge, so program slicing must keep it.
    assert_eq!(optimized.stats.statements_reenacted, 3);
}

#[test]
fn parse_errors_surface_cleanly() {
    assert!(parse_history("UPDATE Order SET WHERE x = 1").is_err());
    assert!(parse_statement("DROP TABLE Order").is_err());
}

#[test]
fn whatif_script_end_to_end() {
    // The running example posed entirely in SQL text: history plus a what-if
    // script replacing the free-shipping threshold and dropping the discount
    // statement.
    let history = parse_history(
        "UPDATE Order SET ShippingFee = 0 WHERE Price >= 50;
         UPDATE Order SET ShippingFee = ShippingFee + 5 WHERE Country = 'UK' AND Price <= 100;
         UPDATE Order SET ShippingFee = ShippingFee - 2 WHERE Price <= 30 AND ShippingFee >= 10;",
    )
    .unwrap();
    let session = Session::with_history("retail", running_example_database(), history).unwrap();
    let answer = session
        .on("retail")
        .sql("REPLACE STATEMENT 1 WITH UPDATE Order SET ShippingFee = 0 WHERE Price >= 60;")
        .method(Method::ReenactPsDs)
        .run()
        .unwrap();
    // Same answer as the hand-built running example: Alex's order changes.
    assert_eq!(answer.delta().len(), 2);

    // Dropping the UK surcharge statement affects both UK orders.
    let answer = session
        .on("retail")
        .sql("DROP STATEMENT 2;")
        .method(Method::ReenactPsDs)
        .run()
        .unwrap();
    let naive = session
        .on("retail")
        .sql("DROP STATEMENT 2;")
        .method(Method::Naive)
        .run()
        .unwrap();
    assert_eq!(answer.delta(), naive.delta());
    assert!(answer.delta().len() >= 2);

    // Scripts with several clauses and 1-based numbering.
    let m = mahif_sqlparse::parse_whatif(
        "REPLACE STATEMENT 2 WITH UPDATE Order SET ShippingFee = ShippingFee + 6 WHERE Country = 'UK';
         INSERT STATEMENT AT 4 DELETE FROM Order WHERE Price < 10;
         DROP STATEMENT 3;",
    )
    .unwrap();
    assert_eq!(m.len(), 3);

    // Errors surface cleanly and carry the scenario/history context.
    let err = session
        .on("retail")
        .sql("FROBNICATE STATEMENT 1")
        .method(Method::Naive)
        .run()
        .unwrap_err();
    assert!(matches!(err.kind, mahif::ErrorKind::InvalidWhatIfScript(_)));
    assert!(err.to_string().contains("history 'retail'"), "{err}");
    assert!(mahif_sqlparse::parse_whatif("DROP STATEMENT 0").is_err());
}
