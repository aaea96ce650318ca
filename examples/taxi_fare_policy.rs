//! A larger what-if analysis on the synthetic taxi-trips dataset (the shape
//! of the paper's evaluation workload): the city retroactively asks how
//! revenue would change if an airport surcharge had been $6 instead of $4.
//!
//! Run with:
//! ```text
//! cargo run --release --example taxi_fare_policy
//! ```

use mahif::{Method, Session};
use mahif_history::{ModificationSet, SetClause, Statement};
use mahif_sqlparse::{parse_history, parse_statement};
use mahif_workload::{Dataset, DatasetKind};

fn main() {
    // A scaled-down taxi-trips relation (the paper samples 5M / 50M rows from
    // the Chicago open-data portal; we generate 5k synthetic rows with the
    // same schema shape; see `mahif_workload::Dataset`).
    let dataset = Dataset::generate(DatasetKind::Taxi, 5_000, 2024);

    // The fare-policy history that was actually executed: an airport
    // surcharge, a downtown congestion fee, a loyalty discount and a total
    // recomputation.
    let history = parse_history(
        "UPDATE taxi_trips SET extras = extras + 400 WHERE pickup_area >= 76;
         UPDATE taxi_trips SET extras = extras + 150 WHERE pickup_area <= 8;
         UPDATE taxi_trips SET tips = tips + 50 WHERE trip_miles_x100 >= 1000;
         UPDATE taxi_trips SET fare = fare - 100 WHERE trip_seconds >= 3600 AND fare >= 2000;
         UPDATE taxi_trips SET trip_total = fare + tips + tolls + extras;",
    )
    .expect("history parses");

    let session =
        Session::with_history("taxi", dataset.database.clone(), history).expect("history executes");

    // What if the airport surcharge had been $6.00 instead of $4.00?
    let modifications = ModificationSet::single_replace(
        0,
        parse_statement("UPDATE taxi_trips SET extras = extras + 600 WHERE pickup_area >= 76")
            .unwrap(),
    );

    let answer = session
        .on("taxi")
        .modifications(modifications.clone())
        .method(Method::ReenactPsDs)
        .run()
        .expect("what-if succeeds")
        .into_answer();

    // Revenue impact: sum of trip_total over the + tuples minus the − tuples.
    let order_delta = answer
        .delta
        .relation("taxi_trips")
        .expect("the surcharge change affects some trips");
    let total_idx = dataset
        .relation()
        .schema
        .index_of("trip_total")
        .expect("schema has trip_total");
    let plus: i64 = order_delta
        .plus_tuples()
        .iter()
        .map(|t| t.value(total_idx).unwrap().as_int().unwrap())
        .sum();
    let minus: i64 = order_delta
        .minus_tuples()
        .map(|t| t.value(total_idx).unwrap().as_int().unwrap())
        .sum();

    println!(
        "{} trips would have been billed differently",
        order_delta.plus_tuples().len()
    );
    println!("revenue impact: +${:.2}", (plus - minus) as f64 / 100.0);
    println!(
        "engine work: {} of {} statements reenacted, {} of {} tuples read, runtime {:?}",
        answer.stats.statements_reenacted,
        answer.stats.statements_total,
        answer.stats.input_tuples,
        answer.stats.total_tuples,
        answer.timings.total()
    );

    // Cross-check with the naive baseline (and show the cost difference).
    let naive = session
        .on("taxi")
        .modifications(modifications.clone())
        .method(Method::Naive)
        .run()
        .unwrap()
        .into_answer();
    assert_eq!(naive.delta, answer.delta);
    println!(
        "naive baseline produced the same answer in {:?} (copy {:?}, execute {:?}, delta {:?})",
        naive.timings.total(),
        naive.timings.copy,
        naive.timings.execution,
        naive.timings.delta
    );

    // A second, programmatically-built scenario: drop the loyalty discount.
    let drop_discount = ModificationSet::single_replace(
        3,
        Statement::update(
            "taxi_trips",
            SetClause::single("fare", mahif_expr::builder::attr("fare")),
            mahif_expr::Expr::false_(),
        ),
    );
    let answer2 = session
        .on("taxi")
        .modifications(drop_discount)
        .method(Method::ReenactPsDs)
        .run()
        .unwrap()
        .into_answer();
    println!(
        "dropping the long-trip discount would change {} trips",
        answer2
            .delta
            .relation("taxi_trips")
            .map(|d| d.plus_tuples().len())
            .unwrap_or(0)
    );
}
