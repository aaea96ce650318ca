//! Integration tests for the cross-request provisioning cache
//! (`mahif::provision`): a registered history carries precomputed
//! provisioning state and a plan cache keyed by (generation, method,
//! position set, plan-shape config), so a repeated batch skips slicing and
//! plan construction entirely.
//!
//! The contracts under test:
//!
//! * **Byte-identical answers** — a warm (cache-hit) batch returns exactly
//!   the bytes a cold session returns, across methods and batch shapes.
//! * **Invalidation** — re-registering a history name with different
//!   contents bumps the generation: the next identical batch is a miss
//!   (never a stale hit) and its answers match a cold session on the *new*
//!   contents.
//! * **Opt-out** — `without_plan_cache()` requests neither read nor
//!   populate the cache.

use mahif::{sweep, Method, Response, Session};
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

/// A history with the same shape as the running example but different
/// contents: u2 grants a `+9` UK shipping surcharge instead of `+5`, so the
/// same sweep produces different deltas than on [`running_example_history`].
fn alternate_history() -> Vec<Statement> {
    let mut statements = running_example_history();
    statements[1] = Statement::update(
        "Order",
        SetClause::single("ShippingFee", add(attr("ShippingFee"), lit(9))),
        and(eq(attr("Country"), slit("UK")), le(attr("Price"), lit(100))),
    );
    statements
}

const THRESHOLDS: [i64; 4] = [41, 55, 65, 75];

fn run_sweep(session: &Session, history: &str, method: Method) -> Response {
    session
        .on(history)
        .method(method)
        .run_batch(sweep("t", 0, THRESHOLDS, |t| threshold(*t)))
        .expect("sweep batch succeeds")
}

fn assert_same_answers(got: &Response, want: &Response, context: &str) {
    assert_eq!(got.len(), want.len(), "{context}");
    for (a, b) in got.scenarios.iter().zip(&want.scenarios) {
        assert_eq!(a.name, b.name, "{context}");
        assert_eq!(
            a.answer.delta, b.answer.delta,
            "{context}: scenario {}",
            a.name
        );
    }
}

/// Warm batches are byte-identical to a cold session, for every method and
/// for both the k>1 sweep and the single-query (singleton plan) shape.
#[test]
fn warm_batches_match_cold_sessions_across_methods() {
    for method in Method::all() {
        let warm = Session::with_history(
            "retail",
            running_example_database(),
            History::new(running_example_history()),
        )
        .unwrap();
        let first = run_sweep(&warm, "retail", method);
        let second = run_sweep(&warm, "retail", method);
        assert_same_answers(&second, &first, &format!("repeat sweep, method {method}"));

        // A cold session (fresh cache) agrees with the warm repeat.
        let cold = Session::with_history(
            "retail",
            running_example_database(),
            History::new(running_example_history()),
        )
        .unwrap();
        let reference = run_sweep(&cold, "retail", method);
        assert_same_answers(
            &second,
            &reference,
            &format!("warm vs cold, method {method}"),
        );

        // Single queries (singleton plans) repeat byte-identically too.
        let single_a = warm
            .on("retail")
            .replace(0, threshold(60))
            .method(method)
            .run()
            .unwrap();
        let single_b = warm
            .on("retail")
            .replace(0, threshold(60))
            .method(method)
            .run()
            .unwrap();
        assert_eq!(
            single_a.delta(),
            single_b.delta(),
            "single query repeat, method {method}"
        );
    }
}

/// Re-registering a history name with *different contents* invalidates the
/// cache: the next identical batch is a miss (the generation key can never
/// match a stale plan) and answers match a cold session on the new
/// contents.
#[test]
fn reregistration_with_different_contents_is_a_miss_with_correct_answers() {
    let session = Session::with_history(
        "retail",
        running_example_database(),
        History::new(running_example_history()),
    )
    .unwrap();

    // Cold then warm on the original contents: the repeat hits.
    let cold_old = run_sweep(&session, "retail", Method::ReenactPsDs);
    let warm_old = run_sweep(&session, "retail", Method::ReenactPsDs);
    assert_same_answers(&warm_old, &cold_old, "warm repeat, original contents");
    let before = session.stats();
    assert_eq!(before.plan_cache_misses, 1, "one cold sweep missed");
    assert_eq!(before.plan_cache_hits, 1, "one warm sweep hit");
    assert_eq!(before.plan_cache_entries, 1, "one sweep plan provisioned");

    // Re-register the same name with different contents (a re-register is
    // unregister + register: `register` rejects duplicate names).
    session.unregister("retail").unwrap();
    assert_eq!(
        session.stats().plan_cache_entries,
        0,
        "unregistration drops the history's cached plans from the gauge"
    );
    session
        .register(
            "retail",
            running_example_database(),
            History::new(alternate_history()),
        )
        .unwrap();

    // The very same batch is now a *miss*, and its answers match a cold
    // session registered directly with the new contents.
    let after_reregister = run_sweep(&session, "retail", Method::ReenactPsDs);
    let stats = session.stats();
    assert_eq!(
        stats.plan_cache_misses, 2,
        "the batch after re-registration must miss, not reuse a stale plan"
    );
    assert_eq!(stats.plan_cache_hits, 1, "no stale hit");

    let cold_new = Session::with_history(
        "retail",
        running_example_database(),
        History::new(alternate_history()),
    )
    .unwrap();
    let reference = run_sweep(&cold_new, "retail", Method::ReenactPsDs);
    assert_same_answers(
        &after_reregister,
        &reference,
        "post-reregistration vs cold on new contents",
    );
    // Sanity: the new contents genuinely answer differently, so a stale
    // plan could not have produced these bytes.
    assert!(
        after_reregister
            .scenarios
            .iter()
            .zip(&cold_old.scenarios)
            .any(|(a, b)| a.answer.delta != b.answer.delta),
        "the alternate history must change the sweep's answers for the \
         invalidation check to have teeth"
    );

    // And the repeat on the new generation hits again, byte-identically.
    let warm_new = run_sweep(&session, "retail", Method::ReenactPsDs);
    assert_same_answers(&warm_new, &reference, "warm repeat, new contents");
    assert_eq!(session.stats().plan_cache_hits, 2);
}

/// `without_plan_cache()` opts a request out entirely: no lookup is
/// recorded and no plan is provisioned, while answers stay identical.
#[test]
fn without_plan_cache_neither_reads_nor_populates() {
    let session = Session::with_history(
        "retail",
        running_example_database(),
        History::new(running_example_history()),
    )
    .unwrap();

    let opted_out = session
        .on("retail")
        .method(Method::ReenactPsDs)
        .without_plan_cache()
        .run_batch(sweep("t", 0, THRESHOLDS, |t| threshold(*t)))
        .unwrap();
    let stats = session.stats();
    assert_eq!(stats.plan_cache_hits, 0);
    assert_eq!(stats.plan_cache_misses, 0, "opt-out requests do no lookups");
    assert_eq!(
        stats.plan_cache_entries, 0,
        "opt-out requests cache nothing"
    );

    // The cached path answers byte-identically to the opted-out run.
    let cached = run_sweep(&session, "retail", Method::ReenactPsDs);
    assert_same_answers(&cached, &opted_out, "cached vs opted-out");
    assert_eq!(session.stats().plan_cache_misses, 1);
}

/// Scenarios that are not grouped — every scenario of a method without
/// program slicing, or a lone query — each run as a singleton plan. A cold
/// run misses once per scenario and folds each plan's shared work into
/// that scenario's own answer; the repeat answers every scenario from the
/// cache and reenacts no original side.
#[test]
fn ungrouped_scenarios_are_cached_singleton_plans() {
    let session = Session::with_history(
        "retail",
        running_example_database(),
        History::new(running_example_history()),
    )
    .unwrap();
    let run = || {
        session
            .on("retail")
            .method(Method::ReenactDs)
            .run_batch(sweep("t", 0, [55, 60, 65], |t| threshold(*t)))
            .unwrap()
    };

    let before = session.stats();
    let cold = run();
    let after_cold = session.stats();
    assert_eq!(after_cold.plan_cache_misses - before.plan_cache_misses, 3);
    assert_eq!(after_cold.plan_cache_hits, before.plan_cache_hits);
    // One relation in the running example: one original-side reenactment
    // per singleton plan, each folded into its scenario's answer.
    assert_eq!(cold.stats.original_reenactments, 3);
    assert_eq!(
        after_cold.original_reenactments - before.original_reenactments,
        3
    );
    for s in &cold.scenarios {
        assert!(!s.answer.stats.shared_work, "{} folds its own work", s.name);
        assert_eq!(s.answer.stats.original_reenactments, 1, "{}", s.name);
    }

    let warm = run();
    let after_warm = session.stats();
    assert_eq!(after_warm.plan_cache_hits - after_cold.plan_cache_hits, 3);
    assert_eq!(after_warm.plan_cache_misses, after_cold.plan_cache_misses);
    assert_eq!(warm.stats.original_reenactments, 0);
    assert_eq!(
        after_warm.original_reenactments,
        after_cold.original_reenactments
    );
    for s in &warm.scenarios {
        assert!(
            s.answer.stats.shared_work,
            "{} answers from the cache",
            s.name
        );
    }
    assert_same_answers(&warm, &cold, "warm vs cold singleton plans");

    // A cold single query with program slicing folds its slice's solver
    // calls into its own answer.
    let single = session
        .on("retail")
        .replace(0, threshold(70))
        .method(Method::ReenactPsDs)
        .run()
        .unwrap();
    assert_eq!(
        session.stats().plan_cache_misses,
        after_warm.plan_cache_misses + 1
    );
    assert!(single.answer().stats.solver_calls > 0);
    assert!(!single.answer().stats.shared_work);
    assert_eq!(
        single.stats.solver_calls,
        single.answer().stats.solver_calls
    );
}
