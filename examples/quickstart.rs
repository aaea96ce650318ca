//! Quickstart: the running example of the paper (Figures 1–4) on the
//! session API.
//!
//! An online retailer implemented a new shipping-fee policy as three updates.
//! The analyst asks: *"what if the free-shipping threshold had been $60
//! instead of $50?"* — a historical what-if query replacing the first update
//! of the history.
//!
//! The workflow is register-once / ask-many: a [`Session`] materializes the
//! states `D` and `H(D)` when the history is registered, and every what-if
//! request (built fluently with `session.on(..)`) borrows them — no
//! per-query copies of the history or database.
//!
//! Run with:
//! ```text
//! cargo run --example quickstart
//! ```

use mahif::{Method, Session};
use mahif_history::statement::{
    running_example_database, running_example_history, running_example_u1_prime,
};
use mahif_history::History;

fn main() {
    // The Order table of Figure 1 and the shipping-fee history of Figure 2.
    let database = running_example_database();
    let history = History::new(running_example_history());
    println!("History:\n{history}");

    // Register both under a name; this materializes the two states `D` and
    // `H(D)` used for time travel, exactly once.
    let session = Session::with_history("retail", database, history).expect("history executes");
    let retail = session.history("retail").unwrap();
    println!("Current state (Figure 3):\n{}", retail.current_state());

    // Bob's what-if question: replace u1 by u1' (threshold $60 instead of $50),
    // answered with the fully optimized method (Algorithm 2).
    let response = session
        .on("retail")
        .replace(0, running_example_u1_prime())
        .method(Method::ReenactPsDs)
        .run()
        .expect("what-if answering succeeds");

    println!("Answer Δ(H(D), H[M](D)) — Example 2 of the paper:");
    print!("{}", response.answer());

    // The same answer is produced by every method; the optimized one reenacts
    // fewer statements over less data.
    let naive = session
        .on("retail")
        .replace(0, running_example_u1_prime())
        .method(Method::Naive)
        .run()
        .unwrap();
    assert_eq!(naive.delta(), response.delta());
    println!(
        "naive total: {:?}, optimized total: {:?}",
        naive.answer().timings.total(),
        response.answer().timings.total()
    );

    // The session registered the history once, no matter how many requests ran.
    let stats = session.stats();
    println!(
        "session: {} request(s) answered over {} registration(s)",
        stats.requests, stats.version_chains_built
    );
}
