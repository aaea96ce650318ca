//! # mahif-history
//!
//! Transactional histories, hypothetical modifications and the definition of
//! historical what-if queries (Sections 2–4 of the paper).
//!
//! * [`Statement`] — update / delete / insert statements with the semantics
//!   of Equations (1)–(4);
//! * [`History`] — a sequence of statements, with prefixes `H_i`,
//!   restrictions `H_I` and execution over a database (optionally recording
//!   every intermediate version for time travel);
//! * [`Modification`] / [`ModificationSet`] — `u ← u'`, `ins_i(u)`, `del(i)`
//!   and the construction of the modified history `H[M]`, including the
//!   no-op padding trick of Section 6 that turns inserts/deletes of
//!   statements into replacements;
//! * [`DatabaseDelta`] — the symmetric difference `Δ(D, D')` with `+`/`−`
//!   annotations;
//! * [`HistoricalWhatIf`] — the query `H = (H, D, M)` itself;
//! * [`naive`] — Algorithm 1, the baseline that copies the database and
//!   executes the modified history directly.

#![forbid(unsafe_code)]

pub mod delta;
pub mod error;
pub mod history;
pub mod hwq;
pub mod modification;
pub mod naive;
pub mod statement;

pub use delta::{Annotation, DatabaseDelta, DeltaInterner, RelationDelta};
pub use error::HistoryError;
pub use history::History;
pub use hwq::{HistoricalWhatIf, NormalizedWhatIf, WhatIfRef};
pub use modification::{Modification, ModificationSet};
pub use naive::{naive_what_if, NaiveBreakdown, NaiveResult};
pub use statement::{SetClause, Statement};
