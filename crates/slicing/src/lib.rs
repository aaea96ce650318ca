//! # mahif-slicing
//!
//! The two optimizations of the paper that make reenactment-based answering
//! of historical what-if queries fast:
//!
//! * **Data slicing** (Section 6, [`data`]): derive selection conditions
//!   `θ^DS_H` / `θ^DS_{H[M]}` that filter the *input* of the reenactment
//!   queries down to the tuples that can possibly contribute to the delta
//!   (any delta tuple must be affected by a modified statement), pushing the
//!   conditions through the statements that precede the modification.
//! * **Program slicing** (Sections 7–9, [`program`] and [`greedy`]): exclude
//!   *statements* whose presence provably cannot influence the delta, proven
//!   by symbolic execution of the histories over a single-tuple VC-database
//!   constrained by the compressed database Φ_D and a satisfiability check.
//!   [`program`] implements the optimized dependency test of Section 9 (the
//!   default used by the engine and the experiments); [`greedy`] implements
//!   the general candidate-testing algorithm of Section 8.3.3 based on the
//!   slicing condition ζ.
//!
//! Both optimizations are *conservative*: when a condition cannot be derived
//! or a satisfiability check is inconclusive, data is not filtered and
//! statements are not excluded, so the answer of the what-if query is always
//! exactly `Δ(H(D), H[M](D))`.

#![forbid(unsafe_code)]

pub mod data;
pub mod domains;
pub mod error;
pub mod greedy;
pub mod groups;
pub mod multi;
pub mod program;
pub mod summaries;

pub use data::{
    apply_data_slicing, data_slicing_conditions, data_slicing_conditions_multi,
    DataSlicingConditions,
};
pub use domains::domains_for_relation;
pub use error::SlicingError;
pub use greedy::{greedy_slice, GreedyConfig};
pub use groups::{
    canonical_positions, group_scenarios, position_set_hash, ScenarioGroup, ScenarioGroups,
};
pub use multi::{
    program_slice_multi, program_slice_multi_with_context, refine_slice_for_variant,
    SymbolicGroupContext,
};
pub use program::{program_slice, ProgramSliceResult, ProgramSlicingConfig};
pub use summaries::{statement_summaries, statement_summary, StatementKind, StatementSummary};
