//! Execution methods and engine configuration.

use std::fmt;
use std::str::FromStr;
use std::time::{Duration, Instant};

use mahif_solver::SearchConfig;
use mahif_symbolic::CompressionConfig;

use crate::error::{BudgetBreach, Error, ErrorKind};

/// The execution strategies compared in the paper's evaluation (Section 13.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// `N`: the naïve algorithm — copy the pre-history state, execute the
    /// modified history, diff against the current state.
    Naive,
    /// `R`: reenactment only.
    Reenact,
    /// `R+DS`: reenactment with data slicing.
    ReenactDs,
    /// `R+PS`: reenactment with program slicing.
    ReenactPs,
    /// `R+PS+DS`: reenactment with both optimizations (Algorithm 2).
    ReenactPsDs,
}

impl Method {
    /// All methods, in the order used by the benchmark harness.
    pub fn all() -> [Method; 5] {
        [
            Method::Naive,
            Method::Reenact,
            Method::ReenactDs,
            Method::ReenactPs,
            Method::ReenactPsDs,
        ]
    }

    /// Short label used in reports (matches the paper's figures).
    pub fn label(&self) -> &'static str {
        match self {
            Method::Naive => "N",
            Method::Reenact => "R",
            Method::ReenactDs => "R+DS",
            Method::ReenactPs => "R+PS",
            Method::ReenactPsDs => "R+PS+DS",
        }
    }

    /// Whether this method applies data slicing.
    pub fn uses_data_slicing(&self) -> bool {
        matches!(self, Method::ReenactDs | Method::ReenactPsDs)
    }

    /// Whether this method applies program slicing.
    pub fn uses_program_slicing(&self) -> bool {
        matches!(self, Method::ReenactPs | Method::ReenactPsDs)
    }
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for Method {
    type Err = Error;

    /// Parses a paper label (`N`, `R`, `R+DS`, `R+PS`, `R+PS+DS`) back into
    /// a method, so CLI flags and serving-layer request fields can name
    /// methods as the figures do. Matching is case-insensitive and ignores
    /// surrounding whitespace; the long names (`naive`, `reenact`, …) are
    /// accepted as aliases.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let canonical = s.trim().to_ascii_uppercase();
        match canonical.as_str() {
            "N" | "NAIVE" => Ok(Method::Naive),
            "R" | "REENACT" => Ok(Method::Reenact),
            "R+DS" | "REENACTDS" => Ok(Method::ReenactDs),
            "R+PS" | "REENACTPS" => Ok(Method::ReenactPs),
            "R+PS+DS" | "REENACTPSDS" => Ok(Method::ReenactPsDs),
            _ => Err(Error::new(ErrorKind::UnknownMethod(s.trim().to_string()))),
        }
    }
}

/// Per-request resource budget, enforced by the session's explicit
/// *admit → plan → execute* lifecycle (see [`crate::Session::execute`]).
///
/// A budget turns a runaway request into a fast, structured failure
/// ([`ErrorKind::BudgetExceeded`]) instead of an unbounded computation — the
/// contract a serving layer needs before it can promise latency to anyone
/// else in the queue. All limits are optional; the default budget is
/// unlimited, preserving embedded-use behavior.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Budget {
    /// Maximum number of scenarios a single request may carry. Checked at
    /// admission, before any work is done.
    pub max_scenarios: Option<usize>,
    /// Maximum slicing solver calls the planning phase may spend (the
    /// request's deduplicated [`crate::BatchStats::solver_calls`]). Checked
    /// when the slices are in hand, before execution starts.
    pub max_solver_calls: Option<usize>,
    /// Wall-clock deadline for the whole request, measured from admission.
    /// Checked at every phase boundary and inside the group-plan loop, so an
    /// over-deadline batch fails between units of work instead of running to
    /// completion.
    pub deadline: Option<Duration>,
}

impl Budget {
    /// A budget with no limits (the default).
    pub fn unlimited() -> Self {
        Budget::default()
    }

    /// Caps the number of scenarios per request.
    pub fn with_max_scenarios(mut self, limit: usize) -> Self {
        self.max_scenarios = Some(limit);
        self
    }

    /// Caps the slicing solver calls per request.
    pub fn with_max_solver_calls(mut self, limit: usize) -> Self {
        self.max_solver_calls = Some(limit);
        self
    }

    /// Sets the wall-clock deadline per request.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// True when no limit is set.
    pub fn is_unlimited(&self) -> bool {
        self.max_scenarios.is_none() && self.max_solver_calls.is_none() && self.deadline.is_none()
    }

    /// The field-wise minimum of this budget and `ceiling`: for each limit,
    /// whichever is stricter wins, and a limit only one side sets applies.
    /// Serving layers use this to impose an operator-side ceiling over
    /// client-supplied budgets — a client omitting its budget must not get
    /// an unlimited one.
    pub fn capped_by(self, ceiling: &Budget) -> Budget {
        fn stricter<T: Ord>(a: Option<T>, b: Option<T>) -> Option<T> {
            match (a, b) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, None) => a,
                (None, b) => b,
            }
        }
        Budget {
            max_scenarios: stricter(self.max_scenarios, ceiling.max_scenarios),
            max_solver_calls: stricter(self.max_solver_calls, ceiling.max_solver_calls),
            deadline: stricter(self.deadline, ceiling.deadline),
        }
    }

    /// Starts the wall clock on this budget's deadline (if any). Called once
    /// at admission; the resulting [`Deadline`] is threaded through the
    /// planning and execution phases.
    pub fn start_clock(&self) -> Option<Deadline> {
        self.deadline.map(Deadline::after)
    }
}

/// An armed wall-clock deadline, derived from [`Budget::deadline`] at
/// admission and threaded into the engine (including the group-plan loop)
/// so long-running shared work fails fast with a structured
/// [`ErrorKind::BudgetExceeded`].
#[derive(Debug, Clone, Copy)]
pub struct Deadline {
    started: Instant,
    limit: Duration,
}

impl Deadline {
    /// Arms a deadline `limit` from now.
    pub fn after(limit: Duration) -> Self {
        Deadline {
            started: Instant::now(),
            limit,
        }
    }

    /// True when the deadline has passed.
    pub fn expired(&self) -> bool {
        self.started.elapsed() >= self.limit
    }

    /// Errors with [`ErrorKind::BudgetExceeded`] when the deadline has
    /// passed.
    pub fn check(&self) -> Result<(), Error> {
        let elapsed = self.started.elapsed();
        if elapsed >= self.limit {
            Err(Error::new(ErrorKind::BudgetExceeded(
                BudgetBreach::Deadline {
                    limit: self.limit,
                    elapsed,
                },
            )))
        } else {
            Ok(())
        }
    }
}

/// When the engine refines a group member's program slice below the group's
/// certified union slice (see `EngineConfig::refine`).
///
/// Refinement pays a few extra solver calls per member to cut that member's
/// reenactment cost; whether that trade wins depends on the group. The
/// default [`RefinePolicy::Auto`] applies a cost model: refine only when the
/// group is large enough for the shared symbolic context to amortize the
/// per-member solver calls *and* the union slice keeps enough statements
/// that shrinking it can matter. `Always` and `Never` override the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefinePolicy {
    /// Never refine.
    Never,
    /// Refine every member of every multi-member group.
    Always,
    /// Refine a member only when its group has at least `min_group_size`
    /// members and the group's union slice keeps at least `min_union_slice`
    /// statements.
    Auto {
        /// Minimum group size before refinement is attempted. Small groups
        /// rarely over-approximate much, and the shared context is
        /// amortized over fewer members.
        min_group_size: usize,
        /// Minimum number of statements the union slice must keep. A slice
        /// that is already tiny has nothing worth shrinking.
        min_union_slice: usize,
    },
}

impl RefinePolicy {
    /// The default automatic cost model: refine members of groups with at
    /// least 5 members whose union slice keeps at least 4 statements.
    pub fn auto() -> Self {
        RefinePolicy::Auto {
            min_group_size: 5,
            min_union_slice: 4,
        }
    }

    /// True when this policy can ever refine (i.e. the refinement pass is
    /// worth setting up at all).
    pub fn considers_refinement(&self) -> bool {
        !matches!(self, RefinePolicy::Never)
    }

    /// Whether a member of a group with `group_size` members sharing a
    /// union slice of `union_slice_statements` kept statements should be
    /// refined.
    pub fn should_refine(&self, group_size: usize, union_slice_statements: usize) -> bool {
        match *self {
            RefinePolicy::Never => false,
            RefinePolicy::Always => group_size > 1,
            RefinePolicy::Auto {
                min_group_size,
                min_union_slice,
            } => group_size >= min_group_size && union_slice_statements >= min_union_slice,
        }
    }
}

impl Default for RefinePolicy {
    fn default() -> Self {
        RefinePolicy::auto()
    }
}

/// Tunables of the reenactment-based engine.
#[derive(Debug, Clone, Default)]
pub struct EngineConfig {
    /// Database compression used by program slicing (Section 8.3.1).
    pub compression: CompressionConfig,
    /// Solver resource limits.
    pub solver: SearchConfig,
    /// Use the general greedy slicer (Section 8.3.3) instead of the
    /// optimized dependency test (Section 9).
    pub use_greedy_slicer: bool,
    /// Disable the insert-split optimization of Section 10 (inserts are then
    /// reenacted inline as unions inside the reenactment query).
    pub disable_insert_split: bool,
    /// Do not add the compressed-database constraint Φ_D to the slicing
    /// condition (ablation).
    pub skip_compression_constraint: bool,
    /// Disable the columnar reenactment path: every per-relation reenactment
    /// then runs tuple-at-a-time through the row evaluator, as before the
    /// columnar data plane existed (ablation / byte-identity baseline; the
    /// answers are identical either way, since the columnar path falls back
    /// to the row path for anything it cannot reproduce exactly).
    pub disable_columnar: bool,
    /// Disable the static analyzer's admission checks and no-op proofs:
    /// scenarios are then neither pre-validated against the inferred types
    /// (type errors surface mid-execution instead of as admission
    /// rejections) nor short-circuited when provably independent (ablation /
    /// byte-identity baseline; proven no-ops answer identically either way).
    pub disable_analyzer: bool,
    /// When to refine a member's program slice below the group's certified
    /// union slice (cheaply, reusing the group's symbolic context) and
    /// answer the member with its own smaller slice. Pays a few extra
    /// solver calls per member to cut reenactment cost when the union slice
    /// is dominated by statements only few members need; the default
    /// [`RefinePolicy::Auto`] decides per group via a cost model.
    pub refine: RefinePolicy,
    /// Per-request resource budget (scenario count, solver calls,
    /// wall-clock deadline), enforced by the session's admit → plan →
    /// execute lifecycle and threaded into the group-plan loop. Unlimited
    /// by default.
    pub budget: Budget,
}

impl EngineConfig {
    /// The program-slicing view of this configuration (the mapping every
    /// slicing entry point — single or shared — applies).
    pub fn slicing(&self) -> mahif_slicing::ProgramSlicingConfig {
        mahif_slicing::ProgramSlicingConfig {
            compression: self.compression.clone(),
            solver: self.solver.clone(),
            skip_compression_constraint: self.skip_compression_constraint,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_and_flags() {
        assert_eq!(Method::Naive.label(), "N");
        assert_eq!(Method::ReenactPsDs.label(), "R+PS+DS");
        assert!(Method::ReenactPsDs.uses_data_slicing());
        assert!(Method::ReenactPsDs.uses_program_slicing());
        assert!(!Method::Reenact.uses_data_slicing());
        assert!(Method::ReenactDs.uses_data_slicing());
        assert!(!Method::ReenactDs.uses_program_slicing());
        assert!(Method::ReenactPs.uses_program_slicing());
        assert_eq!(Method::all().len(), 5);
    }

    #[test]
    fn labels_round_trip_through_from_str() {
        for method in Method::all() {
            // Display matches the paper label …
            assert_eq!(method.to_string(), method.label());
            // … and parses back to the same method.
            assert_eq!(method.label().parse::<Method>().unwrap(), method);
            // Parsing is case-insensitive and whitespace-tolerant.
            let relaxed = format!("  {}  ", method.label().to_lowercase());
            assert_eq!(relaxed.parse::<Method>().unwrap(), method);
        }
        let err = "R+XX".parse::<Method>().unwrap_err();
        assert!(matches!(
            err.kind,
            crate::error::ErrorKind::UnknownMethod(ref label) if label == "R+XX"
        ));
        assert!(err.to_string().contains("R+XX"));
    }

    #[test]
    fn default_config() {
        let c = EngineConfig::default();
        assert!(!c.use_greedy_slicer);
        assert!(!c.disable_insert_split);
        assert!(!c.skip_compression_constraint);
        assert!(!c.disable_columnar);
        assert!(!c.disable_analyzer);
        assert_eq!(c.refine, RefinePolicy::auto());
        assert!(c.budget.is_unlimited());
    }

    #[test]
    fn budget_builders_and_clock() {
        let b = Budget::unlimited()
            .with_max_scenarios(8)
            .with_max_solver_calls(100)
            .with_deadline(Duration::from_millis(50));
        assert!(!b.is_unlimited());
        assert_eq!(b.max_scenarios, Some(8));
        assert_eq!(b.max_solver_calls, Some(100));
        let clock = b.start_clock().expect("deadline set");
        assert!(!clock.expired());
        assert!(clock.check().is_ok());
        assert!(Budget::unlimited().start_clock().is_none());

        let expired = Deadline::after(Duration::ZERO);
        assert!(expired.expired());
        let err = expired.check().unwrap_err();
        assert!(matches!(
            err.kind,
            ErrorKind::BudgetExceeded(BudgetBreach::Deadline { .. })
        ));
        assert!(err.to_string().contains("deadline"), "{err}");
    }

    #[test]
    fn budget_capping_takes_the_stricter_limit_per_field() {
        let client = Budget::unlimited()
            .with_max_scenarios(100)
            .with_deadline(Duration::from_secs(1));
        let ceiling = Budget::unlimited()
            .with_max_scenarios(8)
            .with_max_solver_calls(50)
            .with_deadline(Duration::from_secs(30));
        let effective = client.capped_by(&ceiling);
        assert_eq!(effective.max_scenarios, Some(8), "ceiling is stricter");
        assert_eq!(
            effective.max_solver_calls,
            Some(50),
            "only the ceiling set it"
        );
        assert_eq!(
            effective.deadline,
            Some(Duration::from_secs(1)),
            "client is stricter"
        );
        // An absent client budget inherits the ceiling wholesale.
        assert_eq!(Budget::unlimited().capped_by(&ceiling), ceiling);
        // An unlimited ceiling changes nothing.
        assert_eq!(client.capped_by(&Budget::unlimited()), client);
    }

    #[test]
    fn refine_policy_cost_model() {
        assert!(!RefinePolicy::Never.considers_refinement());
        assert!(RefinePolicy::Always.considers_refinement());
        assert!(RefinePolicy::auto().considers_refinement());
        // Always refines any multi-member group, never a singleton.
        assert!(RefinePolicy::Always.should_refine(2, 1));
        assert!(!RefinePolicy::Always.should_refine(1, 100));
        assert!(!RefinePolicy::Never.should_refine(100, 100));
        // Auto needs both thresholds met.
        let auto = RefinePolicy::auto();
        assert!(auto.should_refine(5, 4));
        assert!(auto.should_refine(8, 10));
        assert!(!auto.should_refine(4, 10), "group too small");
        assert!(!auto.should_refine(8, 3), "union slice already tiny");
    }
}
