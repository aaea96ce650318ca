//! Integration tests for the `Session`/`WhatIfRequest` redesign:
//!
//! * a session answers k sweep queries without re-executing or re-cloning
//!   the registered states `D` and `H(D)` (observable via `Session::stats`);
//! * error paths surface the unified `mahif::Error` and its `Display`
//!   names the offending scenario and history;
//! * `Method` round-trips its paper labels through `Display`/`FromStr`;
//! * `Response::ranking` orders a batch's impact reports, and
//!   `Response::trace_spans` names the batch's phases.

use std::time::Duration;

use mahif::{ErrorKind, ImpactSpec, Method, Session};
use mahif_expr::builder::*;
use mahif_history::statement::{running_example_database, running_example_history};
use mahif_history::{History, ModificationSet, SetClause, Statement};

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

/// `Response::ranking` orders the impact reports by net change, largest
/// first, breaks ties by name and numbers the ranks from 1; each entry
/// carries the baseline over `H(D)`. Without `.impact(..)` there is no
/// ranking.
#[test]
fn ranking_orders_impacts_and_breaks_ties_by_name() {
    let session = retail_session();
    let scenario =
        |name: &'static str, t: i64| (name, ModificationSet::single_replace(0, threshold(t)));
    // "zeta" and "alpha" ask the same question, so they tie.
    let batch = [
        scenario("zeta", 60),
        scenario("alpha", 60),
        scenario("mid", 100),
    ];
    let response = session
        .on("retail")
        .impact(ImpactSpec::sum_of("Order", "ShippingFee"))
        .run_batch(batch.clone())
        .unwrap();
    let ranking = response.ranking().unwrap();
    let order: Vec<(usize, &str)> = ranking
        .entries
        .iter()
        .map(|e| (e.rank, e.name.as_str()))
        .collect();
    // A higher free-shipping threshold waives fewer fees.
    assert_eq!(order, [(1, "mid"), (2, "alpha"), (3, "zeta")]);
    assert_eq!(ranking.best().unwrap().name, "mid");
    let changes: Vec<i64> = ranking
        .entries
        .iter()
        .map(|e| e.report.net_change())
        .collect();
    assert!(
        changes[0] > changes[1] && changes[1] == changes[2],
        "{changes:?}"
    );
    // Current fees total 17 (Figure 3); threshold 60 charges Alex 5 more.
    assert_eq!(ranking.baseline, 17);
    let alpha = ranking.get("alpha").unwrap();
    assert_eq!(alpha.report.net_change(), 5);
    assert_eq!(alpha.report.hypothetical_total(), Some(22));
    assert_eq!(
        (ranking.relation.as_str(), ranking.metric_name.as_str()),
        ("Order", "ShippingFee")
    );

    let text = ranking.to_string();
    assert!(
        text.starts_with("scenario ranking by SUM(ShippingFee) over Order:\n"),
        "{text}"
    );
    assert!(
        text.contains("net change") && text.contains("hypo total"),
        "{text}"
    );
    assert!(text.contains("actual total: 17"), "{text}");

    let unranked = session.on("retail").run_batch(batch).unwrap();
    assert!(unranked.ranking().is_none());
}

/// `Response::trace_spans` over a 3-member sweep names the plan and
/// execute phases and the group plan's per-relation work, offsets every
/// span by `start` and omits zero-duration spans.
#[test]
fn trace_spans_cover_the_batch_phases() {
    let session = retail_session();
    let response = session
        .on("retail")
        .method(Method::ReenactPsDs)
        .run_batch(mahif::sweep("threshold", 0, [55i64, 60, 65], |t| {
            threshold(*t)
        }))
        .unwrap();
    let start = Duration::from_millis(1);
    let spans = response.trace_spans(start);
    let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
    assert!(names.contains(&"plan"), "{names:?}");
    assert!(names.contains(&"execute"), "{names:?}");
    // The sweep forms one multi-member group, so the group plan's shared
    // reenactment appears with per-relation children.
    assert!(names.contains(&"execute.group"), "{names:?}");
    assert!(
        names.iter().any(|n| n.starts_with("execute.group.")),
        "{names:?}"
    );
    for span in &spans {
        assert!(span.start >= start, "spans are offset by `start`");
        assert!(!span.duration.is_zero(), "zero-duration spans are omitted");
    }
}
