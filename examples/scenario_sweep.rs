//! Scenario sweep: the running example's what-if question asked five times
//! at once, batch-first.
//!
//! The paper's analyst asks one hypothetical — *"what if the free-shipping
//! threshold had been $60 instead of $50?"*. A real analyst sweeps the
//! parameter: *"…$55? $60? $65? $70? $75?"*. A single `run_batch` request
//! answers all five over the registered history: the session funnel
//! normalizes each scenario once, computes **one** shared program slice for
//! the whole sweep, runs the scenarios in parallel and attaches an impact
//! report per scenario, and the response ranks the thresholds by
//! shipping-fee revenue.
//!
//! Run with:
//! ```text
//! cargo run --example scenario_sweep
//! ```

use std::cmp::Reverse;

use mahif::{sweep, ImpactSpec, Method, Session};
use mahif_expr::builder::*;
use mahif_history::statement::{running_example_database, running_example_history};
use mahif_history::{History, SetClause, Statement};

fn threshold(t: i64) -> Statement {
    Statement::update(
        "Order",
        SetClause::single("ShippingFee", lit(0)),
        ge(attr("Price"), lit(t)),
    )
}

fn main() {
    // The Order table of Figure 1 and the shipping-fee history of Figure 2,
    // registered once.
    let session = Session::with_history(
        "retail",
        running_example_database(),
        History::new(running_example_history()),
    )
    .expect("history executes");

    // Sweep u1's free-shipping threshold: one scenario per candidate value,
    // all replacing statement 0 of the history — answered by one request.
    let response = session
        .on("retail")
        .method(Method::ReenactPsDs)
        .impact(ImpactSpec::sum_of("Order", "ShippingFee"))
        .run_batch(sweep("threshold", 0, [55i64, 60, 65, 70, 75], |t| {
            threshold(*t)
        }))
        .expect("batch answering succeeds");

    println!(
        "Answered {} scenarios on {} threads: {} shared program slice(s), \
         {} cache hit(s), total {:?}",
        response.stats.scenarios,
        response.stats.threads,
        response.stats.slice_groups,
        response.stats.shared_slice_hits,
        response.stats.total,
    );
    for s in &response {
        let report = s.impact.as_ref().expect("impact was requested");
        println!(
            "  {:<14} |Δ| = {}  fee revenue {:+}",
            s.name,
            s.answer.delta.len(),
            report.net_change()
        );
    }

    // The same response ranks the thresholds by the impact metric.
    let ranking = response.ranking().expect("impact was requested");
    println!("\n{ranking}");
    // It leads with the largest net change printed above (a tie goes to
    // the smaller name), and its ranks run 1..k.
    let (largest, Reverse(name)) = response
        .iter()
        .map(|s| {
            (
                s.impact.as_ref().unwrap().net_change(),
                Reverse(s.name.as_str()),
            )
        })
        .max()
        .expect("the sweep is not empty");
    let best = ranking.best().expect("the sweep is not empty");
    assert_eq!(
        (best.name.as_str(), best.report.net_change()),
        (name, largest)
    );
    let ranks: Vec<usize> = ranking.entries.iter().map(|e| e.rank).collect();
    assert_eq!(ranks, (1..=response.len()).collect::<Vec<_>>());

    // The batch answers are exactly the single-query answers — single
    // queries are batches of one through the same funnel.
    for t in [55i64, 60, 65, 70, 75] {
        let single = session
            .on("retail")
            .replace(0, threshold(t))
            .method(Method::ReenactPsDs)
            .run()
            .unwrap();
        let in_batch = response.get(&format!("threshold/{t}")).unwrap();
        assert_eq!(single.delta(), &in_batch.answer.delta);
    }
    println!("(verified: every batch delta equals the independent what-if answer)");
}
