//! Static history/scenario analysis.
//!
//! The paper's central observation is that an update history is a *program*
//! amenable to static analysis — program slicing exploits that at plan
//! time; this crate exploits it **before** the engine runs at all:
//!
//! - **At registration** ([`HistoryAnalysis::build`], called once from
//!   `Session::register`): per-attribute type + nullability inference
//!   evolved statement by statement through the history, statement read/write summaries and the def-use
//!   dependency graph (reusing `mahif_slicing::summaries`), and detection
//!   of statically dead statements (vacuous conditions, shadowed writes).
//! - **At admission** ([`HistoryAnalysis::validate`]): unknown relations or
//!   attributes, type-mismatched predicates and malformed parameter
//!   substitutions in a scenario become structured [`AnalysisError`]s —
//!   HTTP 400s at the serve layer — instead of mid-execution faults.
//! - **No-op proofs** ([`HistoryAnalysis::prove_noop`]): a scenario whose
//!   modifications provably cannot change the final state (identity
//!   replacements, vacuous statements, writes shadowed by a later
//!   unconditional overwrite) is answered as an empty delta without any
//!   slicing or reenactment, counted as `analyzer_noop_proofs`.
//!
//! Everything here is syntactic and conservative: `validate` may reject
//! scenarios the engine could technically execute (strictness is the
//! contract), and `prove_noop` answers `false` whenever a proof is out of
//! reach (completeness is not).

#![forbid(unsafe_code)]

pub mod analysis;
pub mod error;
pub mod infer;

pub use analysis::{total, vacuous, HistoryAnalysis, Liveness};
pub use error::AnalysisError;
pub use infer::{check_statement, evolve_statement, infer_expr, RelationTypes, TypeEnv};
