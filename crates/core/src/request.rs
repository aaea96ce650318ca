//! The fluent what-if request builder.
//!
//! A [`WhatIfRequest`] is obtained from [`Session::on`](crate::Session::on)
//! and describes one request against a registered history: one or more
//! named scenarios (modification sets), the execution [`Method`], the
//! [`EngineConfig`], batching knobs and an optional [`ImpactSpec`]. The
//! terminal [`run`](WhatIfRequest::run) / [`run_batch`](WhatIfRequest::run_batch)
//! calls funnel into [`Session::execute`](crate::Session::execute) — single
//! queries are batches of one, so every optimization of the batch path
//! (shared program slices, the worker pool) applies uniformly.
//!
//! ```
//! use mahif::{Method, Session};
//! use mahif_history::statement::{
//!     running_example_database, running_example_history, running_example_u1_prime,
//! };
//! use mahif_history::History;
//!
//! let session = Session::with_history(
//!     "retail",
//!     running_example_database(),
//!     History::new(running_example_history()),
//! )
//! .unwrap();
//!
//! let response = session
//!     .on("retail")
//!     .replace(0, running_example_u1_prime())
//!     .method(Method::ReenactPsDs)
//!     .run()
//!     .unwrap();
//! assert_eq!(response.delta().len(), 2);
//! ```

use mahif_history::{Modification, ModificationSet, Statement};

use crate::config::{Budget, EngineConfig, Method, RefinePolicy};
use crate::error::{Error, Phase};
use crate::impact::ImpactSpec;
use crate::response::Response;
use crate::session::Session;

/// One named scenario of a request: a name plus the modification set it
/// applies to the registered history.
///
/// Tuples convert for free: `("threshold/60", mods).into()`, and
/// [`sweep`](crate::sweep) builds one per value of a parameter sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    name: String,
    modifications: ModificationSet,
}

impl ScenarioSpec {
    /// Creates a named scenario.
    pub fn new(name: impl Into<String>, modifications: ModificationSet) -> Self {
        ScenarioSpec {
            name: name.into(),
            modifications,
        }
    }

    /// The scenario's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The scenario's modifications.
    pub fn modifications(&self) -> &ModificationSet {
        &self.modifications
    }
}

impl<N: Into<String>> From<(N, ModificationSet)> for ScenarioSpec {
    fn from((name, modifications): (N, ModificationSet)) -> Self {
        ScenarioSpec::new(name, modifications)
    }
}

/// The name given to the inline scenario of an unnamed single query.
pub(crate) const DEFAULT_SCENARIO: &str = "default";

/// The decomposed request handed to the session's execute funnel.
pub(crate) struct RequestParts {
    pub history: String,
    pub scenarios: Vec<ScenarioSpec>,
    pub method: Method,
    pub config: EngineConfig,
    pub parallelism: usize,
    pub no_plan_cache: bool,
    pub impact: Option<ImpactSpec>,
}

/// A fluent what-if request against one registered history of a
/// [`Session`]. See the [module docs](self) for an example.
#[derive(Debug, Clone)]
#[must_use = "a request does nothing until `run()` or `run_batch(..)` executes it"]
pub struct WhatIfRequest<'s> {
    session: &'s Session,
    history: String,
    /// Completed scenarios added via [`Self::scenario`] / [`Self::run_batch`].
    scenarios: Vec<ScenarioSpec>,
    /// The inline scenario accumulated by [`Self::replace`] & friends.
    inline: Vec<Modification>,
    inline_name: Option<String>,
    method: Method,
    config: EngineConfig,
    parallelism: usize,
    no_plan_cache: bool,
    impact: Option<ImpactSpec>,
    /// Whether `run_batch` was the terminal call: an empty batch is then a
    /// reportable error, not an implicit empty single query.
    batched: bool,
    /// First builder error (e.g. a what-if script that did not parse),
    /// deferred so the fluent chain stays infallible until `run`.
    deferred: Option<Error>,
}

impl<'s> WhatIfRequest<'s> {
    pub(crate) fn new(session: &'s Session, history: String) -> Self {
        WhatIfRequest {
            session,
            history,
            scenarios: Vec::new(),
            inline: Vec::new(),
            inline_name: None,
            method: Method::ReenactPsDs,
            config: EngineConfig::default(),
            parallelism: 0,
            no_plan_cache: false,
            impact: None,
            batched: false,
            deferred: None,
        }
    }

    /// Adds a *replace* modification to the inline scenario: statement
    /// `position` of the history is hypothetically replaced by `statement`.
    pub fn replace(mut self, position: usize, statement: Statement) -> Self {
        self.inline.push(Modification::replace(position, statement));
        self
    }

    /// Adds a *delete* modification: statement `position` is hypothetically
    /// removed from the history.
    pub fn delete(mut self, position: usize) -> Self {
        self.inline.push(Modification::delete(position));
        self
    }

    /// Adds an *insert* modification: `statement` is hypothetically inserted
    /// before position `position` of the history.
    pub fn insert(mut self, position: usize, statement: Statement) -> Self {
        self.inline.push(Modification::insert(position, statement));
        self
    }

    /// Adds all modifications of `modifications` to the inline scenario.
    pub fn modifications(mut self, modifications: ModificationSet) -> Self {
        self.inline.extend(modifications.into_modifications());
        self
    }

    /// Parses a what-if script in SQL text (see
    /// [`mahif_sqlparse::parse_whatif`]) into the inline scenario, e.g.
    /// `"REPLACE STATEMENT 1 WITH UPDATE Order SET ShippingFee = 0 WHERE Price >= 60"`.
    /// A parse failure is reported by `run`, naming the scenario (the
    /// scenario name is resolved at `run` time, so `.named(..)` may come
    /// before or after `.sql(..)` in the chain).
    pub fn sql(mut self, script: &str) -> Self {
        match mahif_sqlparse::parse_whatif(script) {
            Ok(modifications) => self.inline.extend(modifications.into_modifications()),
            Err(e) => {
                let err = Error::from(e).in_phase(Phase::Build);
                self.deferred.get_or_insert(err);
            }
        }
        self
    }

    /// Names the inline scenario (defaults to `"default"`). The name appears
    /// in the [`Response`] and in error messages.
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.inline_name = Some(name.into());
        self
    }

    /// Adds a complete named scenario to the batch.
    pub fn scenario(mut self, scenario: impl Into<ScenarioSpec>) -> Self {
        self.scenarios.push(scenario.into());
        self
    }

    /// Sets the execution method (default: [`Method::ReenactPsDs`], the
    /// paper's fully optimized Algorithm 2).
    pub fn method(mut self, method: Method) -> Self {
        self.method = method;
        self
    }

    /// Sets the engine configuration (solver limits, compression, ablation
    /// switches).
    pub fn config(mut self, config: EngineConfig) -> Self {
        self.config = config;
        self
    }

    /// Requests an aggregate impact report per scenario, with the metric
    /// baseline taken from the registered history's current state.
    pub fn impact(mut self, spec: ImpactSpec) -> Self {
        self.impact = Some(spec);
        self
    }

    /// Sets the worker-thread count for batch execution (`0` = the
    /// machine's available parallelism, the default).
    pub fn parallelism(mut self, threads: usize) -> Self {
        self.parallelism = threads;
        self
    }

    /// Opts this request out of the session's cross-request provisioning
    /// cache: no cached plan is reused and no plan built for this request
    /// is cached (the answers are identical either way; see
    /// `mahif::provision`).
    pub fn without_plan_cache(mut self) -> Self {
        self.no_plan_cache = true;
        self
    }

    /// Disables the columnar reenactment path: every per-relation
    /// reenactment then runs tuple-at-a-time through the row evaluator
    /// (ablation / byte-identity baseline; the answers are identical
    /// either way).
    pub fn without_columnar(mut self) -> Self {
        self.config.disable_columnar = true;
        self
    }

    /// Disables the static analyzer's admission checks and no-op proofs
    /// for this request: scenarios are neither pre-validated against the
    /// inferred attribute types nor short-circuited when provably
    /// independent (ablation / byte-identity baseline; proven no-ops
    /// answer identically either way).
    pub fn without_analyzer(mut self) -> Self {
        self.config.disable_analyzer = true;
        self
    }

    /// Sets when a multi-member group's members are re-sliced below the
    /// group's certified union slice (default: the [`RefinePolicy::Auto`]
    /// cost model; `Always` and `Never` override it). See
    /// `EngineConfig::refine`.
    pub fn refine(mut self, policy: RefinePolicy) -> Self {
        self.config.refine = policy;
        self
    }

    /// Sets the request's resource [`Budget`] (scenario count, solver
    /// calls, wall-clock deadline). An over-budget request fails fast with
    /// a structured `ErrorKind::BudgetExceeded` in the admit or plan phase
    /// instead of running away; see the [`crate::Session`] lifecycle docs.
    pub fn budget(mut self, budget: Budget) -> Self {
        self.config.budget = budget;
        self
    }

    /// Executes the request and returns the uniform [`Response`].
    ///
    /// The inline scenario (everything accumulated via [`Self::replace`],
    /// [`Self::sql`], …) joins any scenarios added with [`Self::scenario`];
    /// a request with no modifications at all answers one empty scenario
    /// (whose delta is empty).
    pub fn run(self) -> Result<Response, Error> {
        let session = self.session;
        session.execute(self)
    }

    /// Adds every scenario of `batch` and executes the request. This is the
    /// batch-first entry point: `k` scenarios are normalized together,
    /// grouped, answered with one program slice per group on a worker pool.
    /// An empty batch (no scenarios from `batch`, none added earlier, no
    /// inline modifications) is an error, not an empty single query.
    pub fn run_batch<S: Into<ScenarioSpec>>(
        mut self,
        batch: impl IntoIterator<Item = S>,
    ) -> Result<Response, Error> {
        self.scenarios.extend(batch.into_iter().map(Into::into));
        self.batched = true;
        self.run()
    }

    /// Decomposes the builder for the session funnel, surfacing deferred
    /// builder errors and materializing the inline scenario.
    pub(crate) fn into_parts(self) -> Result<RequestParts, Error> {
        let inline_name = self
            .inline_name
            .clone()
            .unwrap_or_else(|| DEFAULT_SCENARIO.to_string());
        if let Some(err) = self.deferred {
            // Builder errors concern the inline scenario; its name is only
            // final here, after the whole chain ran.
            return Err(err.for_scenario(inline_name).on_history(self.history));
        }
        let mut scenarios = Vec::new();
        // The inline scenario leads, in the position single-query callers
        // expect; it is materialized when it has modifications or a name, or
        // when it is the whole request (`run()` on an empty chain answers
        // one empty scenario; an empty `run_batch` is an error instead).
        if !self.inline.is_empty()
            || self.inline_name.is_some()
            || (self.scenarios.is_empty() && !self.batched)
        {
            scenarios.push(ScenarioSpec::new(
                inline_name,
                ModificationSet::new(self.inline),
            ));
        }
        scenarios.extend(self.scenarios);
        Ok(RequestParts {
            history: self.history,
            scenarios,
            method: self.method,
            config: self.config,
            parallelism: self.parallelism,
            no_plan_cache: self.no_plan_cache,
            impact: self.impact,
        })
    }
}
