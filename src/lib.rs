//! Workspace-level façade for the Mahif reproduction of *"Efficient
//! Answering of Historical What-if Queries"* (SIGMOD 2022).
//!
//! This crate exists so that the repository-level `tests/` and `examples/`
//! directories have a package to attach to; it simply re-exports the
//! member crates under short names. Library users should depend on the
//! member crates (`mahif`, `mahif-history`, …) directly.

pub use mahif as core;
pub use mahif_causal as causal;
pub use mahif_expr as expr;
pub use mahif_history as history;
pub use mahif_provenance as provenance;
pub use mahif_slicing as slicing;
pub use mahif_solver as solver;
pub use mahif_sqlparse as sqlparse;
pub use mahif_storage as storage;
pub use mahif_symbolic as symbolic;
pub use mahif_workload as workload;
