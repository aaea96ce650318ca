//! # mahif-scenario
//!
//! The **scenario batch layer**: named what-if scenarios, sweeps and
//! cross-scenario ranking over a [`mahif::Session`].
//!
//! The paper answers one query `(H, D, M)` at a time, but real what-if
//! analysis is exploratory — an analyst sweeps a parameter ("what if the
//! free-shipping threshold had been $55 / $60 / $65…?") or compares
//! alternative policies over the same history. This crate names those
//! hypotheticals and ranks their impacts:
//!
//! * [`Scenario`] — a named [`ModificationSet`](mahif_history::ModificationSet)
//!   or what-if SQL script, with sweep helpers
//!   ([`Scenario::sweep_replace`], [`Scenario::sweep_replace_values`]);
//! * [`ScenarioSet`] (alias [`BatchWhatIf`]) — registers scenarios over one
//!   history of a [`mahif::Session`] and answers them all with
//!   [`ScenarioSet::answer_all`];
//! * [`BatchAnswer`] — per-scenario deltas plus batch work statistics, with
//!   [`BatchAnswer::rank_by`] reducing the batch to a ranked impact table
//!   via an [`ImpactSpec`](mahif::ImpactSpec).
//!
//! ## What is shared
//!
//! Execution funnels into [`mahif::Session::execute`] — the same path
//! single queries take (a single query is a batch of one):
//!
//! | work | per-call engines (pre-`Session`) | the session funnel |
//! |---|---|---|
//! | versioned database | cloned per call | borrowed, registered once |
//! | normalization | per call | once per scenario, grouped |
//! | program slice | per call | **one per group** ([`mahif_slicing::program_slice_multi`]) |
//! | execution | sequential | parallel worker pool |
//!
//! Scenarios whose normalizations share the original history and modified
//! positions (every parameter sweep) form a *group* answered with a single
//! shared program slice, certified for all members at once. The per-scenario
//! deltas are byte-identical to k independent single-query requests.
//!
//! ## Example
//!
//! ```
//! use mahif::{ImpactSpec, Method, Session};
//! use mahif_history::statement::{running_example_database, running_example_history};
//! use mahif_history::{History, SetClause, Statement};
//! use mahif_expr::builder::*;
//! use mahif_scenario::{Scenario, ScenarioSet};
//!
//! let session = Session::with_history(
//!     "retail",
//!     running_example_database(),
//!     History::new(running_example_history()),
//! )
//! .unwrap();
//!
//! // Sweep the free-shipping threshold.
//! let mut set = ScenarioSet::over(&session, "retail");
//! set.add_all(Scenario::sweep_replace_values("threshold", 0, [55i64, 60, 65], |t| {
//!     Statement::update(
//!         "Order",
//!         SetClause::single("ShippingFee", lit(0)),
//!         ge(attr("Price"), lit(*t)),
//!     )
//! }))
//! .unwrap();
//!
//! let batch = set.answer_all(Method::ReenactPsDs).unwrap();
//! assert_eq!(batch.stats.slice_groups, 1); // one shared slice for the sweep
//! let ranking = batch.rank_by(&ImpactSpec::sum_of("Order", "ShippingFee")).unwrap();
//! assert_eq!(ranking.best().unwrap().name, "threshold/65");
//! ```

#![forbid(unsafe_code)]
// `ScenarioError` wraps the unified `mahif::Error` (which carries its
// context inline); error paths are cold, see the same allow in `mahif`.
#![allow(clippy::result_large_err)]

pub mod batch;
pub mod compare;
pub mod error;
pub mod scenario;

pub use batch::{BatchAnswer, BatchConfig, BatchStats, BatchWhatIf, ScenarioAnswer, ScenarioSet};
pub use compare::{rank_scenarios, RankedScenario, ScenarioComparison};
pub use error::ScenarioError;
pub use scenario::Scenario;
