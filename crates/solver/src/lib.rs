//! # mahif-solver
//!
//! Constraint solving for program slicing (Sections 8.3.2, 9 and 11 of the
//! paper).
//!
//! The paper translates the slicing condition `ζ(H, I, Φ_D)` into a MILP
//! program (Figure 13) and solves it with CPLEX. CPLEX is proprietary and not
//! available here, so this crate provides two from-scratch components:
//!
//! * [`search`] — the default decision procedure: an exact branch-and-prune
//!   solver over bounded integer / categorical domains using integer interval
//!   arithmetic. Every SAT answer is backed by a concrete assignment that is
//!   re-verified by exact evaluation of the source formula; UNSAT answers are
//!   produced only when abstract evaluation refutes the formula on every
//!   explored box. When resource limits are hit the solver returns
//!   [`SatResult::Unknown`], which callers must treat conservatively (an
//!   update is only excluded from reenactment when independence is *proved*).
//! * [`milp`] — the faithful port of the Figure 13 compilation scheme from
//!   logical conditions to big-M linear constraints, together with assignment
//!   extension/verification utilities. It exists for fidelity to the paper
//!   and for cross-validation in tests; the engine's default decision
//!   procedure is the exact search.
//!
//! The problems handed to this crate have a very specific shape (see
//! [`SatProblem`]): a set of *base variables* with finite domains (the
//! attributes of the single symbolic tuple of `D0`, bounded by the compressed
//! database constraint Φ_D), a list of *definitions* introducing derived
//! variables (`x_{A,i} := if θ then e else x_{A,i-1}`, from the VC-table
//! global condition), and a quantifier-free *condition* to test for
//! satisfiability.

#![forbid(unsafe_code)]

pub mod domain;
pub mod interval;
pub mod milp;
pub mod search;

pub use domain::{dependency_cone, Assignment, Domain, SatProblem, SatResult};
pub use milp::{compile_to_milp, LinearConstraint, LinearExpr, MilpProgram, MilpVarKind};
pub use search::{SearchConfig, Solver};
