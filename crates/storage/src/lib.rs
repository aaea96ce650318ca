//! # mahif-storage
//!
//! The in-memory relational storage substrate of Mahif-rs.
//!
//! The paper's system is a middleware on top of PostgreSQL and relies on the
//! backend for (a) storing relations, (b) evaluating queries, and (c) *time
//! travel* — access to the database state as of the start of the
//! transactional history. This crate replaces (a) and (c):
//!
//! * [`Schema`], [`Tuple`], [`Relation`] — bag-semantics relations over the
//!   value domain of [`mahif_expr::Value`];
//! * [`Database`] — a named collection of relations;
//! * [`VersionedDatabase`] — the two states `D` and `H(D)`, which is how the
//!   "time travel" access to `D` (the state before the history) is provided
//!   to the what-if engine.
//!
//! Query evaluation (b) lives in `mahif-query`.

#![forbid(unsafe_code)]

pub mod columnar;
pub mod database;
pub mod error;
pub mod intern;
pub mod relation;
pub mod schema;
pub mod tuple;
pub mod versioned;

pub use columnar::ColumnarRelation;
pub use database::Database;
pub use error::StorageError;
pub use intern::StringInterner;
pub use relation::{one_sided_tuples, Relation, Side};
pub use schema::{Attribute, Schema, SchemaRef};
pub use tuple::{Tuple, TupleBindings};
pub use versioned::VersionedDatabase;
