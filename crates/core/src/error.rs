//! The unified public error type.
//!
//! Every fallible operation of the middleware — registering a history,
//! building a request, answering a single query or a batch — reports one
//! [`Error`]: the underlying cause ([`ErrorKind`], wrapping the per-crate
//! error enums) plus the context a service operator needs to act on it —
//! the engine [`Phase`] that failed and, when known, the names of the
//! offending scenario and registered history.

use std::fmt;
use std::time::Duration;

use mahif_analyze::AnalysisError;
use mahif_expr::ExprError;
use mahif_history::HistoryError;
use mahif_query::QueryError;
use mahif_slicing::SlicingError;
use mahif_sqlparse::ParseError;
use mahif_storage::StorageError;
use mahif_symbolic::SymbolicError;

/// The engine phase in which an error occurred.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum Phase {
    /// Registering a history with a session (executing it to `H(D)`).
    Register,
    /// Building the request (parsing what-if SQL, resolving names).
    Build,
    /// Admitting the request (validating scenarios against the session's
    /// registry and the request [`crate::Budget`], before any engine work).
    Admission,
    /// Normalizing modifications against the registered history.
    Normalize,
    /// Program slicing (symbolic execution + solver).
    ProgramSlicing,
    /// Data slicing, reenactment and delta computation.
    Execution,
    /// Reducing a delta to an aggregate impact report.
    Impact,
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let label = match self {
            Phase::Register => "registration",
            Phase::Build => "request building",
            Phase::Admission => "admission",
            Phase::Normalize => "normalization",
            Phase::ProgramSlicing => "program slicing",
            Phase::Execution => "execution",
            Phase::Impact => "impact analysis",
        };
        f.write_str(label)
    }
}

/// Which limit of a [`crate::Budget`] a request exceeded, with the limit and
/// the observed value — structured so serving layers can map the breach to a
/// response (and clients can right-size their next request) without parsing
/// message text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum BudgetBreach {
    /// The request carried more scenarios than `Budget::max_scenarios`.
    Scenarios {
        /// The configured limit.
        limit: usize,
        /// Scenarios the request carried.
        requested: usize,
    },
    /// Planning spent more slicing solver calls than
    /// `Budget::max_solver_calls`.
    SolverCalls {
        /// The configured limit.
        limit: usize,
        /// Solver calls the planning phase spent.
        used: usize,
    },
    /// The wall-clock deadline of `Budget::deadline` passed.
    Deadline {
        /// The configured limit.
        limit: Duration,
        /// Elapsed wall-clock time when the breach was detected.
        elapsed: Duration,
    },
}

impl fmt::Display for BudgetBreach {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BudgetBreach::Scenarios { limit, requested } => write!(
                f,
                "request carries {requested} scenarios, over the budget of {limit}"
            ),
            BudgetBreach::SolverCalls { limit, used } => write!(
                f,
                "planning spent {used} solver calls, over the budget of {limit}"
            ),
            BudgetBreach::Deadline { limit, elapsed } => {
                write!(f, "deadline of {limit:?} passed ({elapsed:?} elapsed)")
            }
        }
    }
}

/// What went wrong, wrapping the per-crate error enums behind one public
/// surface.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ErrorKind {
    /// Underlying history error (normalization, application, execution).
    History(HistoryError),
    /// Underlying storage error.
    Storage(StorageError),
    /// Underlying query-evaluation error.
    Query(QueryError),
    /// Underlying slicing error.
    Slicing(SlicingError),
    /// Underlying expression error.
    Expr(ExprError),
    /// Underlying symbolic-execution error.
    Symbolic(SymbolicError),
    /// The static analyzer rejected the request before any engine work: an
    /// unknown relation/attribute, a type-mismatched predicate or a
    /// malformed parameter substitution (a client mistake, not an engine
    /// fault — HTTP 400 at the serve layer).
    Analysis(AnalysisError),
    /// A what-if script did not parse.
    InvalidWhatIfScript(ParseError),
    /// A request named a history that was never registered.
    UnknownHistory(String),
    /// A history was registered twice under the same name.
    DuplicateHistory(String),
    /// Two scenarios of one request share a name.
    DuplicateScenario(String),
    /// A method label did not parse (see [`crate::Method`]'s `FromStr`).
    UnknownMethod(String),
    /// A batch request carried no scenarios.
    EmptyRequest,
    /// The request exceeded its [`crate::Budget`] (scenario count, solver
    /// calls or deadline); the breach names the limit and the observed
    /// value.
    BudgetExceeded(BudgetBreach),
    /// A worker thread panicked while answering a scenario.
    WorkerPanicked,
}

impl fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ErrorKind::History(e) => write!(f, "history error: {e}"),
            ErrorKind::Storage(e) => write!(f, "storage error: {e}"),
            ErrorKind::Query(e) => write!(f, "query error: {e}"),
            ErrorKind::Slicing(e) => write!(f, "slicing error: {e}"),
            ErrorKind::Expr(e) => write!(f, "expression error: {e}"),
            ErrorKind::Symbolic(e) => write!(f, "symbolic execution error: {e}"),
            ErrorKind::Analysis(e) => write!(f, "static analysis rejected the request: {e}"),
            ErrorKind::InvalidWhatIfScript(e) => write!(f, "invalid what-if script: {e}"),
            ErrorKind::UnknownHistory(name) => {
                write!(f, "no history named '{name}' is registered")
            }
            ErrorKind::DuplicateHistory(name) => {
                write!(f, "a history named '{name}' is already registered")
            }
            ErrorKind::DuplicateScenario(name) => {
                write!(f, "the request already contains a scenario named '{name}'")
            }
            ErrorKind::UnknownMethod(label) => {
                write!(
                    f,
                    "unknown method '{label}' (expected one of N, R, R+DS, R+PS, R+PS+DS)"
                )
            }
            ErrorKind::EmptyRequest => write!(f, "the request contains no scenarios"),
            ErrorKind::BudgetExceeded(breach) => write!(f, "budget exceeded: {breach}"),
            ErrorKind::WorkerPanicked => write!(f, "worker thread panicked"),
        }
    }
}

/// Errors raised by the Mahif middleware: a cause plus where it happened.
///
/// The struct is `#[non_exhaustive]`; construct errors through the `From`
/// impls or [`Error::new`] and refine them with the builder-style context
/// setters. `Display` always names the phase and, when known, the offending
/// scenario and history, so a log line alone locates the failure.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct Error {
    /// What went wrong.
    pub kind: ErrorKind,
    /// The engine phase that failed, when known.
    pub phase: Option<Phase>,
    /// The scenario being processed, when known.
    pub scenario: Option<String>,
    /// The registered history the request ran against, when known.
    pub history: Option<String>,
}

impl Error {
    /// Creates an error with no context.
    pub fn new(kind: ErrorKind) -> Self {
        Error {
            kind,
            phase: None,
            scenario: None,
            history: None,
        }
    }

    /// Stamps the engine phase (overwrites an earlier stamp: the outermost
    /// funnel knows best which phase it was driving).
    pub fn in_phase(mut self, phase: Phase) -> Self {
        self.phase = Some(phase);
        self
    }

    /// Names the scenario that was being processed.
    pub fn for_scenario(mut self, scenario: impl Into<String>) -> Self {
        self.scenario = Some(scenario.into());
        self
    }

    /// Names the registered history the request ran against.
    pub fn on_history(mut self, history: impl Into<String>) -> Self {
        self.history = Some(history.into());
        self
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.phase {
            Some(phase) => write!(f, "{phase} failed")?,
            None => write!(f, "what-if answering failed")?,
        }
        if let Some(scenario) = &self.scenario {
            write!(f, " for scenario '{scenario}'")?;
        }
        if let Some(history) = &self.history {
            write!(f, " on history '{history}'")?;
        }
        write!(f, ": {}", self.kind)
    }
}

impl std::error::Error for Error {}

impl From<ErrorKind> for Error {
    fn from(kind: ErrorKind) -> Self {
        Error::new(kind)
    }
}

macro_rules! wrap_error {
    ($source:ty, $variant:ident) => {
        impl From<$source> for Error {
            fn from(e: $source) -> Self {
                Error::new(ErrorKind::$variant(e))
            }
        }
    };
}

wrap_error!(HistoryError, History);
wrap_error!(StorageError, Storage);
wrap_error!(QueryError, Query);
wrap_error!(SlicingError, Slicing);
wrap_error!(ExprError, Expr);
wrap_error!(SymbolicError, Symbolic);
wrap_error!(AnalysisError, Analysis);
wrap_error!(ParseError, InvalidWhatIfScript);

/// Legacy name of [`Error`], kept so code written against the pre-`Session`
/// API keeps compiling.
pub type MahifError = Error;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversions() {
        let e: Error = StorageError::UnknownRelation("R".into()).into();
        assert!(e.to_string().contains("unknown relation"));
        let e: Error = SlicingError::HistoriesNotAligned {
            original: 1,
            modified: 2,
        }
        .into();
        assert!(e.to_string().contains("not aligned"));
    }

    #[test]
    fn context_is_rendered() {
        let e = Error::new(ErrorKind::UnknownHistory("retail".into()))
            .in_phase(Phase::Build)
            .for_scenario("threshold/60")
            .on_history("retail");
        let s = e.to_string();
        assert!(s.contains("request building failed"), "{s}");
        assert!(s.contains("scenario 'threshold/60'"), "{s}");
        assert!(s.contains("history 'retail'"), "{s}");
        assert!(s.contains("no history named 'retail'"), "{s}");
    }

    #[test]
    fn phase_labels_are_distinct() {
        let phases = [
            Phase::Register,
            Phase::Build,
            Phase::Admission,
            Phase::Normalize,
            Phase::ProgramSlicing,
            Phase::Execution,
            Phase::Impact,
        ];
        let labels: std::collections::BTreeSet<String> =
            phases.iter().map(|p| p.to_string()).collect();
        assert_eq!(labels.len(), phases.len());
    }

    #[test]
    fn budget_breaches_render_limit_and_observed_value() {
        let e = Error::new(ErrorKind::BudgetExceeded(BudgetBreach::Scenarios {
            limit: 8,
            requested: 12,
        }))
        .in_phase(Phase::Admission)
        .on_history("retail");
        let s = e.to_string();
        assert!(s.contains("admission failed"), "{s}");
        assert!(s.contains("budget exceeded"), "{s}");
        assert!(s.contains("12 scenarios"), "{s}");
        assert!(s.contains("budget of 8"), "{s}");

        let e = Error::new(ErrorKind::BudgetExceeded(BudgetBreach::SolverCalls {
            limit: 10,
            used: 42,
        }));
        assert!(e.to_string().contains("42 solver calls"), "{e}");

        let e = Error::new(ErrorKind::BudgetExceeded(BudgetBreach::Deadline {
            limit: Duration::from_millis(5),
            elapsed: Duration::from_millis(7),
        }));
        assert!(e.to_string().contains("deadline"), "{e}");
    }

    #[test]
    fn without_context_display_still_names_the_kind() {
        let e = Error::new(ErrorKind::WorkerPanicked);
        assert!(e.to_string().contains("worker thread panicked"));
        assert!(e.to_string().contains("what-if answering failed"));
    }
}
