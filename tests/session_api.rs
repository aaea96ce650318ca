//! Integration tests for the `Session`/`WhatIfRequest` redesign:
//!
//! * a session answers k sweep queries without re-executing or re-cloning
//!   the registered states `D` and `H(D)` (observable via `Session::stats`);
//! * error paths surface the unified `mahif::Error` and its `Display`
//!   names the offending scenario and history;
//! * `Method` round-trips its paper labels through `Display`/`FromStr`.

use mahif::{ErrorKind, Method, Session};
use mahif_expr::builder::*;
use mahif_history::statement::{running_example_database, running_example_history};
use mahif_history::{History, SetClause, Statement};

fn retail_session() -> Session {
    Session::with_history(
        "retail",
        running_example_database(),
        History::new(running_example_history()),
    )
    .unwrap()
}

fn threshold(t: i64) -> Statement {
    Statement::update(
        "Order",
        SetClause::single("ShippingFee", lit(0)),
        ge(attr("Price"), lit(t)),
    )
}

/// Regression for the borrow refactor: answering k sweep queries neither
/// re-executes nor re-clones the registered states `D` and `H(D)` — the
/// session materializes them exactly once at registration.
#[test]
fn k_sweep_queries_reuse_the_registered_states() {
    let session = retail_session();
    assert_eq!(session.stats().version_chains_built, 1);

    let thresholds = [52i64, 55, 58, 60, 65, 70, 75, 100];
    for &t in &thresholds {
        let response = session
            .on("retail")
            .replace(0, threshold(t))
            .method(Method::ReenactPsDs)
            .run()
            .unwrap();
        assert_eq!(response.stats.scenarios, 1);
    }

    let stats = session.stats();
    assert_eq!(
        stats.version_chains_built, 1,
        "k queries must not re-execute the registered history"
    );
    assert_eq!(stats.requests, thresholds.len() as u64);
    assert_eq!(stats.scenarios_answered, thresholds.len() as u64);

    // The same sweep as one batch: one more request, one shared slice for
    // all k scenarios, and still exactly one registration materialized.
    let response = session
        .on("retail")
        .method(Method::ReenactPsDs)
        .run_batch(mahif::sweep("threshold", 0, thresholds, |t| threshold(*t)))
        .unwrap();
    assert_eq!(response.stats.slice_groups, 1);
    assert_eq!(response.stats.shared_slice_hits, thresholds.len() - 1);
    let stats = session.stats();
    assert_eq!(stats.version_chains_built, 1);
    assert_eq!(stats.requests, thresholds.len() as u64 + 1);
    assert_eq!(stats.slices_shared as usize, thresholds.len() - 1);
}

/// Malformed what-if SQL surfaces the unified error, naming the scenario
/// and the history.
#[test]
fn malformed_sql_names_the_offending_scenario() {
    let session = retail_session();
    let err = session
        .on("retail")
        .named("bad-script")
        .sql("FROBNICATE STATEMENT 1")
        .method(Method::ReenactPsDs)
        .run()
        .unwrap_err();
    assert!(
        matches!(err.kind, ErrorKind::InvalidWhatIfScript(_)),
        "{err:?}"
    );
    let text = err.to_string();
    assert!(text.contains("scenario 'bad-script'"), "{text}");
    assert!(text.contains("history 'retail'"), "{text}");
}

/// Requests against an unregistered history fail with `UnknownHistory`,
/// naming the history.
#[test]
fn unknown_history_names_the_history() {
    let session = retail_session();
    let err = session
        .on("warehouse")
        .replace(0, threshold(60))
        .run()
        .unwrap_err();
    assert!(matches!(err.kind, ErrorKind::UnknownHistory(_)), "{err:?}");
    assert!(err.to_string().contains("history 'warehouse'"), "{}", err);
}

/// An out-of-range modification position is rejected by the static
/// analyzer at admission, naming the scenario; with the analyzer disabled
/// the wrapped history error still surfaces with normalization-phase
/// context, so neither path panics the engine.
#[test]
fn out_of_range_position_names_scenario_and_phase() {
    let session = retail_session();
    let err = session
        .on("retail")
        .named("too-far")
        .replace(99, threshold(60))
        .method(Method::ReenactPsDs)
        .run()
        .unwrap_err();
    assert!(matches!(err.kind, ErrorKind::Analysis(_)), "{err:?}");
    let text = err.to_string();
    assert!(text.contains("scenario 'too-far'"), "{text}");
    assert!(text.contains("history 'retail'"), "{text}");
    assert!(text.contains("admission failed"), "{text}");
    // Under the analyzer ablation the pre-analyzer contract holds: the
    // wrapped history error surfaces from normalization instead.
    let err = session
        .on("retail")
        .named("too-far")
        .replace(99, threshold(60))
        .method(Method::ReenactPsDs)
        .without_analyzer()
        .run()
        .unwrap_err();
    assert!(matches!(err.kind, ErrorKind::History(_)), "{err:?}");
    assert!(err.to_string().contains("scenario 'too-far'"), "{err}");
    // The naive path reports the same unified error kind.
    let naive_err = session
        .on("retail")
        .replace(99, threshold(60))
        .method(Method::Naive)
        .without_analyzer()
        .run()
        .unwrap_err();
    assert!(matches!(naive_err.kind, ErrorKind::History(_)));
    assert!(naive_err.to_string().contains("history 'retail'"));
}

/// `Method` round-trips the paper labels through `Display`/`FromStr`.
#[test]
fn method_labels_round_trip() {
    for method in Method::all() {
        let label = method.to_string();
        assert_eq!(label, method.label());
        assert_eq!(label.parse::<Method>().unwrap(), method);
    }
    let err = "fancy".parse::<Method>().unwrap_err();
    assert!(matches!(err.kind, ErrorKind::UnknownMethod(_)));
    assert!(err.to_string().contains("fancy"));
}
