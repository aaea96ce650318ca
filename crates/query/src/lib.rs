//! # mahif-query
//!
//! Relational algebra query representation and evaluation.
//!
//! Reenactment (Definition 3 of the paper) turns a transactional history into
//! a query built from projections over conditional expressions, selections,
//! and unions; computing the answer of a historical what-if query adds bag
//! difference ("delta queries", Section 4/5.2); inserts with queries
//! (`INSERT ... SELECT`) additionally need joins. This crate provides exactly
//! that algebra:
//!
//! * [`Query`] — the algebra AST (scan, select, project, union, difference,
//!   join, inline values);
//! * [`evaluate`] — a straightforward bag-semantics evaluator over
//!   [`mahif_storage::Database`];
//! * [`infer_schema`] — output schema computation;
//! * [`pushdown`] — the `(θ)↓Q` and `(θ)[R]↓Q` condition push-down operators
//!   of Section 6, used by data slicing;
//! * [`aggregate`] — grouped aggregation (`SUM`/`COUNT`/`AVG`/`MIN`/`MAX`),
//!   used by the impact-analysis layer to answer the paper's motivating
//!   "how would revenue change" question over a what-if delta.

#![forbid(unsafe_code)]

pub mod aggregate;
pub mod ast;
pub mod catalog;
pub mod error;
pub mod eval;
pub mod pushdown;
pub mod schema_infer;

pub use aggregate::{aggregate_relation, AggFunc, Aggregate, AggregateQuery};
pub use ast::{ProjectItem, Query};
pub use catalog::Catalog;
pub use error::QueryError;
pub use eval::{count_where, evaluate, filter_relation, project_single};
pub use pushdown::{push_condition, push_condition_for_relation};
pub use schema_infer::infer_schema;
