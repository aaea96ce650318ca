//! # mahif
//!
//! The Mahif middleware: efficient answering of **historical what-if
//! queries** (HWQs) over an in-memory transactional database, reproducing
//! *"Efficient Answering of Historical What-if Queries"* (SIGMOD 2022).
//!
//! A historical what-if query asks how the current database state would
//! differ if the transactional history had been different — e.g. *"how would
//! revenue be affected if we had charged an additional $6 for shipping?"*.
//! Formally it is a triple `(H, D, M)`: the history, the database state
//! before the history, and a set of modifications (replace / insert / delete
//! statements); the answer is the symmetric difference
//! `Δ(H(D), H[M](D))`.
//!
//! ## The session model
//!
//! The public API is built around a long-lived [`Session`]:
//!
//! 1. **Register** expensive state once. [`Session::register`] names a
//!    `(D, H)` pair and executes the history a single time to materialize
//!    the two states `D` and `H(D)`. A session holds any number of
//!    histories.
//! 2. **Ask** many cheap hypotheticals. [`Session::on`] starts a fluent
//!    [`WhatIfRequest`]; `run()` answers a single query, `run_batch(..)` a
//!    whole scenario sweep. Either way the request flows through the one
//!    [`Session::execute`] funnel — *single queries are batches of one* —
//!    so shared program slices, the worker pool and impact reporting apply
//!    uniformly. The engine borrows the registered history and initial
//!    state; no entry point clones them per call
//!    (see [`Session::stats`]).
//! 3. **Read** the uniform [`Response`]: per-scenario delta + timings +
//!    work stats + optional [`ImpactReport`], plus batch-level
//!    [`BatchStats`].
//!
//! Every fallible step reports the unified [`Error`], which names the
//! failing [`Phase`] and — when known — the offending
//! scenario and history.
//!
//! ## Quick start
//!
//! ```
//! use mahif::{Method, Session};
//! use mahif_history::statement::{
//!     running_example_database, running_example_history, running_example_u1_prime,
//! };
//! use mahif_history::History;
//!
//! // Register the running-example database and shipping-fee history.
//! let session = Session::with_history(
//!     "retail",
//!     running_example_database(),
//!     History::new(running_example_history()),
//! )
//! .unwrap();
//!
//! // "What if the free-shipping threshold had been $60 instead of $50?"
//! let response = session
//!     .on("retail")
//!     .replace(0, running_example_u1_prime())
//!     .method(Method::ReenactPsDs)
//!     .run()
//!     .unwrap();
//!
//! // Alex's order (ID 12) would pay $10 instead of $5.
//! assert_eq!(response.delta().len(), 2);
//! ```
//!
//! ## Execution methods
//!
//! | method | description |
//! |---|---|
//! | [`Method::Naive`] | Algorithm 1: copy the pre-history state, run `H[M]`, diff against the current state |
//! | [`Method::Reenact`] | reenact both histories as queries over the time-travel state and diff (Section 5) |
//! | [`Method::ReenactDs`] | reenactment + data slicing (Section 6) |
//! | [`Method::ReenactPs`] | reenactment + program slicing (Sections 7–9) |
//! | [`Method::ReenactPsDs`] | reenactment + both optimizations (Algorithm 2, the Mahif default) |
//!
//! [`Method`] round-trips its paper labels through `Display`/`FromStr`
//! (`"R+PS+DS".parse::<Method>()`), so CLI and serving layers can name
//! methods exactly as the figures do.

#![forbid(unsafe_code)]
// The unified `Error` carries its phase/scenario/history context inline,
// which makes the `Err` variant larger than clippy's 128-byte heuristic.
// What-if error paths are cold (registration or per-request failures), so
// the flat, cloneable context struct is the better trade than boxing.
#![allow(clippy::result_large_err)]

pub mod config;
pub mod engine;
pub mod error;
pub mod impact;
mod pool;
pub mod provision;
pub mod request;
pub mod response;
pub mod session;
pub mod stats;

pub use config::{Budget, Deadline, EngineConfig, Method, RefinePolicy};
pub use engine::{answer_normalized, answer_what_if, compute_program_slice, GroupPlan};
pub use error::{BudgetBreach, Error, ErrorKind, MahifError, Phase};
pub use impact::{
    impact_of, GroupImpact, ImpactReport, ImpactSpec, RankedScenario, ScenarioComparison,
};
pub use mahif_analyze::{AnalysisError, HistoryAnalysis};
pub use mahif_query::QueryError;
pub use provision::{CachedPlan, PlanCache, PlanKey, Provisioned, SessionConfig};
pub use request::{ScenarioSpec, WhatIfRequest};
pub use response::{BatchStats, Response, ScenarioResponse};
pub use session::{sweep, RegisteredHistory, Session, SessionMetrics, SessionStats};
pub use stats::{EngineStats, PhaseTimings, WhatIfAnswer};
