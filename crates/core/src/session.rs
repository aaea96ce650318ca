//! The multi-history session: the middleware's long-lived, shareable
//! service core.
//!
//! A [`Session`] registers any number of **named** histories — each
//! registration executes the history once to materialize the two states
//! `D` and `H(D)` (the deployment equivalent is a DBMS with time travel
//! plus the statement log) — and then answers what-if requests against
//! them. Requests are built fluently with [`Session::on`] and executed by
//! the single [`Session::execute`] funnel: a single query is a batch of
//! one, so shared-slice grouping and the worker pool apply to every entry
//! point.
//! The engine borrows the registered history and initial state per request
//! — answering is O(answer), never O(|H| + |D|) in copies — which
//! [`Session::stats`] makes observable: `version_chains_built` stays at the
//! number of registrations no matter how many requests run.
//!
//! ## Concurrency
//!
//! The session is a *shared* service core: `Session` is `Send + Sync`, the
//! registry lives behind a `RwLock`, and **every** operation — including
//! [`Session::register`] and [`Session::unregister`] — takes `&self`, so
//! many threads can serve requests against one `Arc<Session>` while
//! histories come and go. Requests hold no registry lock while executing
//! (they clone out the registered history's `Arc` at admission), so a slow
//! batch never blocks registration or other requests.
//!
//! ## Request lifecycle
//!
//! [`Session::execute`] runs an explicit three-phase lifecycle:
//!
//! 1. **Admit** — resolve the history, validate the scenario set and check
//!    the request [`Budget`](crate::Budget)'s scenario limit; arm the wall-clock deadline.
//! 2. **Plan** — normalize, group and slice the scenarios; an over-budget
//!    solver bill or a passed deadline fails here, before execution.
//! 3. **Execute** — build group plans and answer members on the worker
//!    pool, re-checking the deadline between units of work.
//!
//! A breached budget reports a structured
//! [`ErrorKind::BudgetExceeded`] naming the limit and the observed value.
//!
//! ```
//! use mahif::{ImpactSpec, Method, Session};
//! use mahif_history::statement::{
//!     running_example_database, running_example_history, running_example_u1_prime,
//! };
//! use mahif_history::History;
//!
//! let session = Session::new();
//! session
//!     .register(
//!         "retail",
//!         running_example_database(),
//!         History::new(running_example_history()),
//!     )
//!     .unwrap();
//!
//! // "What if the free-shipping threshold had been $60 instead of $50?"
//! let response = session
//!     .on("retail")
//!     .replace(0, running_example_u1_prime())
//!     .method(Method::ReenactPsDs)
//!     .impact(ImpactSpec::sum_of("Order", "ShippingFee"))
//!     .run()
//!     .unwrap();
//!
//! assert_eq!(response.delta().len(), 2);
//! assert_eq!(response.impact().unwrap().net_change(), 5);
//! assert_eq!(session.stats().version_chains_built, 1);
//! ```

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use mahif_history::{
    DatabaseDelta, DeltaInterner, History, ModificationSet, NormalizedWhatIf, WhatIfRef,
};
use mahif_slicing::{
    group_scenarios, program_slice_multi_with_context, refine_slice_for_variant,
    ProgramSliceResult, ScenarioGroups, SymbolicGroupContext,
};
use mahif_storage::{Database, VersionedDatabase};

use crate::config::{Deadline, EngineConfig, Method};
use crate::engine::{answer_normalized, answer_what_if, compute_program_slice, GroupPlan};
use crate::error::{BudgetBreach, Error, ErrorKind, Phase};
use crate::impact::ImpactReport;
use crate::pool::{collect_results, resolve_parallelism, run_indexed};
use crate::provision::{CachedPlan, PlanKey, Provisioned, SessionConfig};
use crate::request::{RequestParts, ScenarioSpec, WhatIfRequest};
use crate::response::{BatchStats, Response, ScenarioResponse};
use crate::stats::{EngineStats, PhaseTimings, WhatIfAnswer};

/// One history registered with a [`Session`]: the statement log plus the
/// two states `D` and `H(D)` materialized at registration.
#[derive(Debug, Clone)]
pub struct RegisteredHistory {
    name: String,
    history: History,
    versioned: VersionedDatabase,
    /// Provisioning state precomputed at registration (see
    /// [`crate::provision`]): per-statement dependency summaries plus the
    /// history's cross-request plan cache. Lives on the registered state —
    /// an unregister/re-register replaces it wholesale (and bumps the
    /// session's generation), so a stale plan can never be served.
    provisioned: Provisioned,
}

impl RegisteredHistory {
    /// The name the history was registered under.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The registered transactional history.
    pub fn history(&self) -> &History {
        &self.history
    }

    /// The two states `D` and `H(D)` (time travel).
    pub fn versions(&self) -> &VersionedDatabase {
        &self.versioned
    }

    /// The initial database state `D` (before the history).
    pub fn initial_state(&self) -> &Database {
        self.versioned.initial()
    }

    /// The current database state `H(D)`, computed once at registration
    /// on the columnar trunk (or by the row executor,
    /// [`History::execute`], for histories the trunk declines). Either way
    /// it equals the row executor's result tuple for tuple, in order and
    /// under the same schemas.
    pub fn current_state(&self) -> &Database {
        self.versioned.current()
    }

    /// The provisioning state precomputed at registration: dependency
    /// summaries plus the history's cross-request plan cache.
    pub fn provisioned(&self) -> &Provisioned {
        &self.provisioned
    }
}

/// Monotonic work counters of a session (interior mutability: answering
/// borrows the session immutably).
///
/// One mutex guards all values: counters are only touched in whole-request
/// (or whole-registration) commits and whole-set snapshots, so a snapshot
/// can never observe half of a request's counters — also as fields grow.
/// Committing is rare (once per request, not per scenario), so a plain
/// mutex is the right tool; do not "optimize" individual counters into
/// lock-free atomics, that would reintroduce torn snapshots. Lock order:
/// registry lock (if held) strictly before this one.
#[derive(Debug, Default)]
struct Counters {
    values: Mutex<CounterValues>,
}

#[derive(Debug, Clone, Copy, Default)]
struct CounterValues {
    version_chains_built: u64,
    requests: u64,
    scenarios_answered: u64,
    slices_computed: u64,
    slices_shared: u64,
    original_reenactments: u64,
    refined_slices: u64,
    delta_tuples_deduped: u64,
}

impl Counters {
    /// Applies one atomic multi-counter commit.
    fn commit(&self, apply: impl FnOnce(&mut CounterValues)) {
        apply(&mut self.values.lock().expect("counter lock poisoned"));
    }

    /// The single consistent read path over the counters: both
    /// [`Session::stats`] and any serving layer's `/stats` endpoint go
    /// through here, and only ever see whole committed requests.
    fn snapshot(&self, histories: usize) -> SessionStats {
        let v = *self.values.lock().expect("counter lock poisoned");
        SessionStats {
            histories,
            version_chains_built: v.version_chains_built,
            requests: v.requests,
            scenarios_answered: v.scenarios_answered,
            slices_computed: v.slices_computed,
            slices_shared: v.slices_shared,
            original_reenactments: v.original_reenactments,
            refined_slices: v.refined_slices,
            delta_tuples_deduped: v.delta_tuples_deduped,
            // Filled from the live metric cells by `Session::stats` — the
            // plan-cache values are mutated at cache-lookup/insert time on
            // the lock-free monitoring path, so `/stats` and `/metrics`
            // read the very same cells.
            plan_cache_hits: 0,
            plan_cache_misses: 0,
            plan_cache_evictions: 0,
            plan_cache_entries: 0,
            columnar_batches: 0,
            vectorized_predicates: 0,
            row_fallbacks: 0,
            register_row_fallbacks: 0,
            analyzer_rejections: 0,
            analyzer_noop_proofs: 0,
        }
    }
}

impl Clone for Counters {
    fn clone(&self) -> Self {
        Counters {
            values: Mutex::new(*self.values.lock().expect("counter lock poisoned")),
        }
    }
}

/// A snapshot of a session's lifetime work counters (see
/// [`Session::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct SessionStats {
    /// Histories currently registered.
    pub histories: usize,
    /// Registrations materialized — increments only in
    /// [`Session::register`]. Staying constant across requests is the
    /// observable form of the zero-clone guarantee: no request re-executes
    /// or re-clones a registered history.
    pub version_chains_built: u64,
    /// Requests executed (a batch counts once).
    pub requests: u64,
    /// Scenarios answered across all requests.
    pub scenarios_answered: u64,
    /// Program slices computed (one per slice-sharing group).
    pub slices_computed: u64,
    /// Scenarios that reused a group's shared slice.
    pub slices_shared: u64,
    /// Original-side reenactments performed: one per `(group plan,
    /// relation)` plus one per relation for scenarios answered outside a
    /// shared plan. For batches this grows by `groups × relations`, not
    /// `scenarios × relations` — the observable once-per-group guarantee.
    pub original_reenactments: u64,
    /// Group members whose slice was refined below the group's union slice
    /// (see `EngineConfig::refine`).
    pub refined_slices: u64,
    /// Annotated delta tuples deduplicated across batch answers (identical
    /// relation deltas stored once; see `mahif_history::DeltaInterner`).
    pub delta_tuples_deduped: u64,
    /// Provisioning-cache lookups that reused a cached [`crate::GroupPlan`]
    /// — the group (or single scenario) skipped program slicing and plan
    /// building entirely. Unlike the request counters above, the four
    /// plan-cache values read the same atomic cells as `/metrics` (they are
    /// recorded at lookup/insert time, including for requests that later
    /// fail), so both endpoints agree by construction.
    pub plan_cache_hits: u64,
    /// Provisioning-cache lookups that found no certified plan to reuse.
    pub plan_cache_misses: u64,
    /// Cached plans evicted by the per-history LRU bounds (see
    /// [`crate::SessionConfig`]).
    pub plan_cache_evictions: u64,
    /// Plans currently cached across registered histories (approximate
    /// while an unregister races an in-flight request's insert).
    pub plan_cache_entries: u64,
    /// Per-relation reenactments answered on the columnar path
    /// (batch-at-a-time over typed columns). Like the plan-cache values,
    /// the three columnar counters read the same atomic cells as
    /// `/metrics`, so both endpoints agree by construction.
    pub columnar_batches: u64,
    /// Flat predicate/projection programs evaluated vectorized by those
    /// columnar reenactments.
    pub vectorized_predicates: u64,
    /// Per-relation reenactments that attempted the columnar path but fell
    /// back to the row evaluator (inexpressible statement or predicate,
    /// mixed-type column, or a runtime fault the row path must reproduce).
    pub row_fallbacks: u64,
    /// Registrations whose `H(D)` the columnar trunk declined (an insert,
    /// an unknown relation, a relation or statement it cannot encode or
    /// compile, or a runtime fault), so the row executor
    /// [`History::execute`] ran instead — counted whether or not that
    /// execution then succeeded. Reads the same atomic cell as `/metrics`.
    pub register_row_fallbacks: u64,
    /// Requests rejected at admission by the static analyzer (unknown
    /// relation/attribute, type-mismatched predicate, malformed parameter
    /// substitution). Rejected requests never reach the success-path
    /// counter commit, so this value lives in the same atomic cell
    /// `/metrics` scrapes — the two endpoints agree by construction.
    pub analyzer_rejections: u64,
    /// Scenarios proven independent by the static analyzer and answered as
    /// an empty delta without slicing or reenactment (byte-identical to
    /// the full answer). Reads the same atomic cell as `/metrics`.
    pub analyzer_noop_proofs: u64,
}

/// The session's always-on telemetry mirror: lock-cheap atomic counters
/// and latency histograms recorded alongside (never instead of) the
/// internal `Counters` commit. The mutex-guarded counters stay the one
/// *consistent* snapshot path (`/stats`); these atomics are the
/// *monitoring* path (`/metrics`), where Prometheus-style scrapes are racy
/// by nature and cross-counter consistency is not promised. A serving
/// layer adopts the handles into its [`mahif_obs::Registry`] via
/// [`SessionMetrics::register_into`], so the scrape reads the very cells
/// the session increments.
#[derive(Debug)]
pub struct SessionMetrics {
    /// Requests executed (a batch counts once), mirroring
    /// [`SessionStats::requests`].
    pub requests: Arc<mahif_obs::Counter>,
    /// Scenarios answered, mirroring [`SessionStats::scenarios_answered`].
    pub scenarios_answered: Arc<mahif_obs::Counter>,
    /// Slicing solver calls spent across requests (the deduplicated
    /// request-level count; see `BatchStats::solver_calls`).
    pub solver_calls: Arc<mahif_obs::Counter>,
    /// Statements reenacted across all answers (after program slicing).
    pub statements_reenacted: Arc<mahif_obs::Counter>,
    /// Annotated delta tuples deduplicated across batch answers.
    pub delta_tuples_deduped: Arc<mahif_obs::Counter>,
    /// Per-request planning latency (normalize + slicing phases).
    pub plan_seconds: Arc<mahif_obs::Histogram>,
    /// Per-request execution latency (reenactment + diffing, including
    /// group-plan building).
    pub execute_seconds: Arc<mahif_obs::Histogram>,
    /// Provisioning-cache plan reuses, mirrored into
    /// [`SessionStats::plan_cache_hits`].
    pub plan_cache_hits: Arc<mahif_obs::Counter>,
    /// Provisioning-cache lookups without a reusable plan, mirrored into
    /// [`SessionStats::plan_cache_misses`].
    pub plan_cache_misses: Arc<mahif_obs::Counter>,
    /// Cached plans evicted by the LRU bounds, mirrored into
    /// [`SessionStats::plan_cache_evictions`].
    pub plan_cache_evictions: Arc<mahif_obs::Counter>,
    /// Plans currently cached across registered histories (gauge), mirrored
    /// into [`SessionStats::plan_cache_entries`].
    pub plan_cache_entries: Arc<mahif_obs::Gauge>,
    /// Per-relation reenactments answered on the columnar path, mirrored
    /// into [`SessionStats::columnar_batches`].
    pub columnar_batches: Arc<mahif_obs::Counter>,
    /// Vectorized predicate/projection programs evaluated, mirrored into
    /// [`SessionStats::vectorized_predicates`].
    pub vectorized_predicates: Arc<mahif_obs::Counter>,
    /// Columnar attempts that fell back to the row evaluator, mirrored
    /// into [`SessionStats::row_fallbacks`].
    pub row_fallbacks: Arc<mahif_obs::Counter>,
    /// Registrations whose `H(D)` came from the row executor, mirrored
    /// into [`SessionStats::register_row_fallbacks`].
    pub register_row_fallbacks: Arc<mahif_obs::Counter>,
    /// Requests rejected at admission by the static analyzer, mirrored
    /// into [`SessionStats::analyzer_rejections`].
    pub analyzer_rejections: Arc<mahif_obs::Counter>,
    /// Scenarios proven independent and answered as empty deltas without
    /// engine work, mirrored into [`SessionStats::analyzer_noop_proofs`].
    pub analyzer_noop_proofs: Arc<mahif_obs::Counter>,
}

impl Default for SessionMetrics {
    fn default() -> Self {
        SessionMetrics {
            requests: Arc::new(mahif_obs::Counter::new()),
            scenarios_answered: Arc::new(mahif_obs::Counter::new()),
            solver_calls: Arc::new(mahif_obs::Counter::new()),
            statements_reenacted: Arc::new(mahif_obs::Counter::new()),
            delta_tuples_deduped: Arc::new(mahif_obs::Counter::new()),
            plan_seconds: Arc::new(mahif_obs::Histogram::latency()),
            execute_seconds: Arc::new(mahif_obs::Histogram::latency()),
            plan_cache_hits: Arc::new(mahif_obs::Counter::new()),
            plan_cache_misses: Arc::new(mahif_obs::Counter::new()),
            plan_cache_evictions: Arc::new(mahif_obs::Counter::new()),
            plan_cache_entries: Arc::new(mahif_obs::Gauge::new()),
            columnar_batches: Arc::new(mahif_obs::Counter::new()),
            vectorized_predicates: Arc::new(mahif_obs::Counter::new()),
            row_fallbacks: Arc::new(mahif_obs::Counter::new()),
            register_row_fallbacks: Arc::new(mahif_obs::Counter::new()),
            analyzer_rejections: Arc::new(mahif_obs::Counter::new()),
            analyzer_noop_proofs: Arc::new(mahif_obs::Counter::new()),
        }
    }
}

impl SessionMetrics {
    /// Adopts the session's live metric cells into `registry` under their
    /// canonical `mahif_*` names, so a `/metrics` scrape and the session's
    /// own increments read the same atomics.
    pub fn register_into(&self, registry: &mahif_obs::Registry) {
        registry.adopt_counter(
            "mahif_engine_requests_total",
            "What-if requests executed by the session (a batch counts once)",
            Arc::clone(&self.requests),
        );
        registry.adopt_counter(
            "mahif_scenarios_answered_total",
            "Scenarios answered across all requests",
            Arc::clone(&self.scenarios_answered),
        );
        registry.adopt_counter(
            "mahif_solver_calls_total",
            "Slicing solver satisfiability checks spent across requests",
            Arc::clone(&self.solver_calls),
        );
        registry.adopt_counter(
            "mahif_statements_reenacted_total",
            "History statements reenacted after program slicing",
            Arc::clone(&self.statements_reenacted),
        );
        registry.adopt_counter(
            "mahif_delta_tuples_deduped_total",
            "Annotated delta tuples deduplicated across batch answers",
            Arc::clone(&self.delta_tuples_deduped),
        );
        registry.adopt_histogram(
            "mahif_plan_seconds",
            "Per-request planning latency (normalize + slicing phases), seconds",
            Arc::clone(&self.plan_seconds),
        );
        registry.adopt_histogram(
            "mahif_execute_seconds",
            "Per-request execution latency (reenactment + diffing), seconds",
            Arc::clone(&self.execute_seconds),
        );
        registry.adopt_counter(
            "mahif_plan_cache_hits_total",
            "Provisioning-cache lookups that reused a cached group plan",
            Arc::clone(&self.plan_cache_hits),
        );
        registry.adopt_counter(
            "mahif_plan_cache_misses_total",
            "Provisioning-cache lookups without a certified plan to reuse",
            Arc::clone(&self.plan_cache_misses),
        );
        registry.adopt_counter(
            "mahif_plan_cache_evictions_total",
            "Cached plans evicted by the provisioning cache's LRU bounds",
            Arc::clone(&self.plan_cache_evictions),
        );
        registry.adopt_gauge(
            "mahif_plan_cache_entries",
            "Plans currently cached across registered histories",
            Arc::clone(&self.plan_cache_entries),
        );
        registry.adopt_counter(
            "mahif_columnar_batches_total",
            "Per-relation reenactments answered on the columnar path",
            Arc::clone(&self.columnar_batches),
        );
        registry.adopt_counter(
            "mahif_vectorized_predicates_total",
            "Predicate/projection programs evaluated vectorized over columns",
            Arc::clone(&self.vectorized_predicates),
        );
        registry.adopt_counter(
            "mahif_row_fallbacks_total",
            "Columnar reenactment attempts that fell back to the row evaluator",
            Arc::clone(&self.row_fallbacks),
        );
        registry.adopt_counter(
            "mahif_register_row_fallbacks_total",
            "Registrations whose H(D) the columnar trunk declined to the row executor",
            Arc::clone(&self.register_row_fallbacks),
        );
        registry.adopt_counter(
            "mahif_analyzer_rejections_total",
            "Requests rejected at admission by the static analyzer",
            Arc::clone(&self.analyzer_rejections),
        );
        registry.adopt_counter(
            "mahif_analyzer_noop_proofs_total",
            "Scenarios proven independent and answered without engine work",
            Arc::clone(&self.analyzer_noop_proofs),
        );
    }
}

/// The Mahif middleware session: registers named histories once and answers
/// many what-if requests against them, from any number of threads sharing
/// one `Arc<Session>`. See the [module docs](self).
#[derive(Debug, Default)]
pub struct Session {
    histories: RwLock<Vec<Arc<RegisteredHistory>>>,
    counters: Counters,
    metrics: SessionMetrics,
    /// Provisioning knobs (plan-cache bounds); fixed at construction.
    config: SessionConfig,
    /// Monotonic registration generation, bumped by every `register` and
    /// baked into every plan-cache key: a plan provisioned for an earlier
    /// registration under the same name can never match after a
    /// re-register.
    generations: AtomicU64,
}

// The whole point of the service core: one `Arc<Session>` shared across
// threads. Compile-time regression guard.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Session>();
};

impl Clone for Session {
    /// Clones the session *state*: the registered histories (shared via
    /// `Arc`, not re-executed) and a snapshot of the counters. The clone is
    /// an independent session — later registrations and requests on one are
    /// not visible on the other.
    fn clone(&self) -> Self {
        // The telemetry mirror starts fresh: metric handles may be adopted
        // into a registry, and a clone sharing them would double-count.
        // `/stats` consistency comes from `counters` — except the four
        // plan-cache values, which live in the metric cells; seed the fresh
        // cells with their current values so the clone's `stats()` matches
        // the original's at clone time.
        let metrics = SessionMetrics::default();
        metrics
            .plan_cache_hits
            .add(self.metrics.plan_cache_hits.get());
        metrics
            .plan_cache_misses
            .add(self.metrics.plan_cache_misses.get());
        metrics
            .plan_cache_evictions
            .add(self.metrics.plan_cache_evictions.get());
        metrics
            .plan_cache_entries
            .set(self.metrics.plan_cache_entries.get());
        metrics
            .columnar_batches
            .add(self.metrics.columnar_batches.get());
        metrics
            .vectorized_predicates
            .add(self.metrics.vectorized_predicates.get());
        metrics.row_fallbacks.add(self.metrics.row_fallbacks.get());
        metrics
            .register_row_fallbacks
            .add(self.metrics.register_row_fallbacks.get());
        metrics
            .analyzer_rejections
            .add(self.metrics.analyzer_rejections.get());
        metrics
            .analyzer_noop_proofs
            .add(self.metrics.analyzer_noop_proofs.get());
        Session {
            histories: RwLock::new(self.registry().clone()),
            counters: self.counters.clone(),
            metrics,
            config: self.config,
            generations: AtomicU64::new(self.generations.load(Ordering::Relaxed)),
        }
    }
}

/// A request admitted for execution: the resolved history plus the
/// validated scenario set and the armed deadline. Phase 1 of the lifecycle.
struct AdmittedRequest {
    total_start: Instant,
    registered: Arc<RegisteredHistory>,
    history: String,
    scenarios: Vec<ScenarioSpec>,
    /// Scenarios the static analyzer proved independent at admission, with
    /// their original position in the request's scenario order. They skip
    /// planning and execution entirely and rejoin the answer stream as
    /// empty deltas in phase 3.
    noops: Vec<(usize, ScenarioSpec)>,
    method: Method,
    config: EngineConfig,
    threads: usize,
    no_plan_cache: bool,
    impact: Option<crate::impact::ImpactSpec>,
    deadline: Option<Deadline>,
}

impl AdmittedRequest {
    /// Stamps request context onto a scenario-scoped error.
    fn context(&self, e: Error, phase: Phase, scenario: &ScenarioSpec) -> Error {
        e.in_phase(phase)
            .for_scenario(scenario.name().to_string())
            .on_history(self.history.clone())
    }

    /// Stamps request context onto a group-scoped error. Shared work is
    /// computed for the whole group at once, so the error names every
    /// member rather than guessing one.
    fn group_context(&self, e: Error, phase: Phase, groups: &ScenarioGroups, g: usize) -> Error {
        let members = groups.groups[g]
            .members
            .iter()
            .map(|&i| self.scenarios[i].name())
            .collect::<Vec<_>>()
            .join(", ");
        e.in_phase(phase)
            .for_scenario(members)
            .on_history(self.history.clone())
    }

    /// Errors if the request's deadline has passed, stamping `phase`.
    fn check_deadline(&self, phase: Phase) -> Result<(), Error> {
        match &self.deadline {
            Some(deadline) => deadline
                .check()
                .map_err(|e| e.in_phase(phase).on_history(self.history.clone())),
            None => Ok(()),
        }
    }
}

/// The planned work of an admitted request. Phase 2 of the lifecycle: for
/// reenactment methods this owns the normalization, grouping and (possibly
/// refined) program slices; the naïve method has nothing to precompute.
enum PlannedWork {
    Naive,
    Reenact {
        normalized: Vec<NormalizedWhatIf>,
        /// The units of work: the slice-sharing groups when the request
        /// shares slices, else one singleton group per scenario.
        groups: ScenarioGroups,
        /// One program slice per group.
        slices: Vec<Arc<ProgramSliceResult>>,
        /// Per scenario: a member slice refined below its group's slice.
        refined: Vec<Option<Arc<ProgramSliceResult>>>,
        /// Provisioning-cache hits, one per group. A hit group's slice was
        /// *not* computed this request (it comes from the cached entry),
        /// and its members answer from the cached plan in phase 3.
        cached: Vec<Option<Arc<CachedPlan>>>,
    },
}

impl Session {
    /// Creates an empty session with default provisioning knobs (the plan
    /// cache enabled with the [`SessionConfig`] defaults).
    pub fn new() -> Self {
        Session::default()
    }

    /// Creates an empty session with explicit provisioning knobs.
    /// [`SessionConfig::disabled`] turns the cross-request plan cache off
    /// entirely — every request plans from scratch, the pre-provisioning
    /// behavior (benchmark baselines use this to measure the cold path).
    pub fn with_config(config: SessionConfig) -> Self {
        Session {
            config,
            ..Session::default()
        }
    }

    /// The session's provisioning configuration.
    pub fn config(&self) -> SessionConfig {
        self.config
    }

    /// Convenience constructor: a session with one registered history.
    pub fn with_history(
        name: impl Into<String>,
        initial: Database,
        history: History,
    ) -> Result<Self, Error> {
        let session = Session::new();
        session.register(name, initial, history)?;
        Ok(session)
    }

    /// A snapshot of the current registry (read lock scope helper).
    fn registry(&self) -> std::sync::RwLockReadGuard<'_, Vec<Arc<RegisteredHistory>>> {
        self.histories.read().expect("history registry poisoned")
    }

    /// Registers a database and the transactional history that was executed
    /// over it under `name`. The history is executed once to materialize
    /// the two states `D` and `H(D)`; every later request borrows them.
    /// `H(D)` is computed on the columnar trunk
    /// ([`mahif_reenact::execute_history`]); a history the trunk declines
    /// (inserts, an unknown relation, a shape it cannot compile, a runtime
    /// fault) runs through the row executor [`History::execute`] instead,
    /// whose result or error is authoritative, and counts as a
    /// [`SessionStats::register_row_fallbacks`].
    /// Takes `&self`: registration is a concurrent service operation, safe
    /// from any thread sharing the session.
    pub fn register(
        &self,
        name: impl Into<String>,
        initial: Database,
        history: History,
    ) -> Result<&Self, Error> {
        let name = name.into();
        let duplicate = |name: String| {
            Error::new(ErrorKind::DuplicateHistory(name.clone()))
                .in_phase(Phase::Register)
                .on_history(name)
        };
        // Cheap pre-check under the read lock: an already-taken name must
        // not pay for executing a history it will then discard.
        if self.registry().iter().any(|h| h.name == name) {
            return Err(duplicate(name));
        }
        // Intern repeated string values across the registered state before
        // executing the history: both registered states, the columnar
        // string pools and every reenactment result built from them then
        // share one allocation per distinct string instead of re-cloning it
        // per tuple. Equality, hashing and ordering are
        // untouched (see `mahif_storage::StringInterner`).
        let mut initial = initial;
        mahif_storage::StringInterner::new().intern_database(&mut initial);
        // Execute the history outside the registry lock — it is the
        // expensive part, and other threads' requests must not stall on it.
        // The authoritative duplicate check runs again under the write
        // lock, so two racing registrations of one name still resolve to
        // exactly one winner.
        let current = match mahif_reenact::execute_history(&history, &initial) {
            Some(current) => current,
            None => {
                self.metrics.register_row_fallbacks.inc();
                history.execute(&initial).map_err(|e| {
                    Error::from(e)
                        .in_phase(Phase::Register)
                        .on_history(name.clone())
                })?
            }
        };
        // Provision the history while still outside the lock: the
        // generation is globally monotonic (never reused even across racing
        // registrations), and the dependency summaries and static analysis
        // (type inference, def-use graph, liveness) are single passes over
        // the statements.
        let generation = self.generations.fetch_add(1, Ordering::Relaxed) + 1;
        let provisioned = Provisioned::build(&initial, &history, generation, self.config);
        let mut histories = self.histories.write().expect("history registry poisoned");
        if histories.iter().any(|h| h.name == name) {
            return Err(duplicate(name));
        }
        histories.push(Arc::new(RegisteredHistory {
            name,
            history,
            versioned: VersionedDatabase::new(initial, current),
            provisioned,
        }));
        // Commit the counter while still holding the registry write lock so
        // a concurrent `stats()` sees the new history and its registration
        // together (see `Counters`).
        self.counters.commit(|c| c.version_chains_built += 1);
        Ok(self)
    }

    /// Removes the history registered under `name`. In-flight requests
    /// against it finish normally (they hold their own `Arc` to the
    /// registered state); requests admitted afterwards report
    /// [`ErrorKind::UnknownHistory`].
    pub fn unregister(&self, name: &str) -> Result<(), Error> {
        let mut histories = self.histories.write().expect("history registry poisoned");
        match histories.iter().position(|h| h.name == name) {
            Some(idx) => {
                let removed = histories.remove(idx);
                // The removed history's cached plans leave the session with
                // it (in-flight requests may briefly keep the detached
                // state alive via their own `Arc`).
                self.metrics
                    .plan_cache_entries
                    .sub(removed.provisioned.cache().len() as i64);
                Ok(())
            }
            None => Err(Error::new(ErrorKind::UnknownHistory(name.to_string()))
                .in_phase(Phase::Register)
                .on_history(name.to_string())),
        }
    }

    /// Starts a fluent what-if request against the history registered under
    /// `name`. Name resolution is deferred to `run`, so the chain itself is
    /// infallible.
    pub fn on(&self, name: impl Into<String>) -> WhatIfRequest<'_> {
        WhatIfRequest::new(self, name.into())
    }

    /// The registered history named `name` (a shared handle: the registered
    /// state stays alive while the handle does, even across a concurrent
    /// [`Session::unregister`]).
    pub fn history(&self, name: &str) -> Result<Arc<RegisteredHistory>, Error> {
        self.registry()
            .iter()
            .find(|h| h.name == name)
            .cloned()
            .ok_or_else(|| {
                Error::new(ErrorKind::UnknownHistory(name.to_string()))
                    .in_phase(Phase::Build)
                    .on_history(name.to_string())
            })
    }

    /// The registered histories at this moment, in registration order.
    pub fn histories(&self) -> Vec<Arc<RegisteredHistory>> {
        self.registry().clone()
    }

    /// Number of registered histories.
    pub fn len(&self) -> usize {
        self.registry().len()
    }

    /// True when no history is registered.
    pub fn is_empty(&self) -> bool {
        self.registry().is_empty()
    }

    /// A consistent snapshot of the session's lifetime work counters: the
    /// one read path over the counters (serving layers expose exactly this
    /// snapshot), serialized against counter commits so it never reflects a
    /// half-committed request.
    pub fn stats(&self) -> SessionStats {
        let histories = self.registry();
        let mut stats = self.counters.snapshot(histories.len());
        // The plan-cache values come from the live metric cells (the same
        // atomics `/metrics` scrapes), so the two observability surfaces
        // agree by construction.
        stats.plan_cache_hits = self.metrics.plan_cache_hits.get();
        stats.plan_cache_misses = self.metrics.plan_cache_misses.get();
        stats.plan_cache_evictions = self.metrics.plan_cache_evictions.get();
        stats.plan_cache_entries = self.metrics.plan_cache_entries.get().max(0) as u64;
        // So do the columnar-path counters: one cell each, read here and
        // scraped by `/metrics`.
        stats.columnar_batches = self.metrics.columnar_batches.get();
        stats.vectorized_predicates = self.metrics.vectorized_predicates.get();
        stats.row_fallbacks = self.metrics.row_fallbacks.get();
        stats.register_row_fallbacks = self.metrics.register_row_fallbacks.get();
        // And the analyzer counters: rejections happen on requests that
        // never reach the success-path commit, so both values live in the
        // metric cells.
        stats.analyzer_rejections = self.metrics.analyzer_rejections.get();
        stats.analyzer_noop_proofs = self.metrics.analyzer_noop_proofs.get();
        stats
    }

    /// The session's always-on telemetry mirror (see [`SessionMetrics`]):
    /// lock-cheap atomics a serving layer adopts into its metrics registry.
    pub fn metrics(&self) -> &SessionMetrics {
        &self.metrics
    }

    /// Executes a request through the explicit three-phase lifecycle
    /// (admit → plan → execute; see the [module docs](self)). This is the
    /// single funnel every public entry point goes through — `run()`,
    /// `run_batch(..)` and any serving layer all end here, so batch
    /// optimizations and budget enforcement reach every entry point.
    pub fn execute(&self, request: WhatIfRequest<'_>) -> Result<Response, Error> {
        let parts = request.into_parts()?;
        let admitted = self.admit(parts)?;
        let mut stats = BatchStats {
            // Proven no-ops are answered, so they count as scenarios of
            // the batch even though they skip planning and execution.
            scenarios: admitted.scenarios.len() + admitted.noops.len(),
            threads: admitted.threads,
            ..Default::default()
        };
        let planned = self.plan(&admitted, &mut stats)?;
        self.execute_planned(admitted, planned, stats)
    }

    /// Phase 1: admission. Resolves the history, validates the scenario
    /// set, enforces the budget's scenario limit and arms the deadline —
    /// all before any engine work, so an inadmissible request is rejected
    /// in O(k).
    fn admit(&self, parts: RequestParts) -> Result<AdmittedRequest, Error> {
        let total_start = Instant::now();
        let RequestParts {
            history,
            scenarios,
            method,
            config,
            parallelism,
            no_plan_cache,
            impact,
        } = parts;
        let registered = self.history(&history)?;
        if scenarios.is_empty() {
            return Err(Error::new(ErrorKind::EmptyRequest)
                .in_phase(Phase::Admission)
                .on_history(history));
        }
        // The scenario-count budget comes before the quadratic duplicate
        // scan: an over-budget request must be rejected in O(1), not after
        // O(k²) name comparisons over the very payload the budget exists
        // to bound.
        if let Some(limit) = config.budget.max_scenarios {
            if scenarios.len() > limit {
                return Err(
                    Error::new(ErrorKind::BudgetExceeded(BudgetBreach::Scenarios {
                        limit,
                        requested: scenarios.len(),
                    }))
                    .in_phase(Phase::Admission)
                    .on_history(history),
                );
            }
        }
        for (i, s) in scenarios.iter().enumerate() {
            if scenarios[..i].iter().any(|other| other.name() == s.name()) {
                return Err(
                    Error::new(ErrorKind::DuplicateScenario(s.name().to_string()))
                        .in_phase(Phase::Admission)
                        .for_scenario(s.name().to_string())
                        .on_history(history),
                );
            }
        }
        // The static analyzer's admission pass (skipped only under the
        // `disable_analyzer` ablation). First strict pre-validation: a
        // scenario the registration-time type inference proves would fault
        // mid-execution — unknown relation/attribute, type-mismatched
        // predicate, unbound parameter variable, out-of-bounds position —
        // is rejected here as a structured `ErrorKind::Analysis` before
        // any engine work. Then no-op proofs: a scenario whose
        // modifications provably cannot change the final state is
        // partitioned out and answered as an empty delta in phase 3,
        // skipping normalization, slicing and reenactment entirely.
        let mut scenarios = scenarios;
        let mut noops = Vec::new();
        if !config.disable_analyzer {
            let analysis = registered.provisioned().analysis();
            for s in &scenarios {
                if let Err(e) = analysis.validate(s.modifications()) {
                    self.metrics.analyzer_rejections.inc();
                    return Err(Error::from(e)
                        .in_phase(Phase::Admission)
                        .for_scenario(s.name().to_string())
                        .on_history(history));
                }
            }
            let mut kept = Vec::with_capacity(scenarios.len());
            for (position, s) in scenarios.into_iter().enumerate() {
                if analysis.prove_noop(s.modifications()) {
                    noops.push((position, s));
                } else {
                    kept.push(s);
                }
            }
            scenarios = kept;
            // Recorded at proof time like the plan-cache counters (i.e.
            // even if the surviving scenarios later breach the budget), so
            // `/stats` and `/metrics` read the same cell.
            self.metrics.analyzer_noop_proofs.add(noops.len() as u64);
        }
        let threads = resolve_parallelism(parallelism, scenarios.len());
        let deadline = config.budget.start_clock();
        Ok(AdmittedRequest {
            total_start,
            registered,
            history,
            scenarios,
            noops,
            method,
            config,
            threads,
            no_plan_cache,
            impact,
            deadline,
        })
    }

    /// Whether a request may use the cross-request provisioning cache.
    /// The greedy slicer is an ablation that exists to measure the uncached
    /// engine, so it bypasses the cache entirely; `Naive` never reaches
    /// here.
    fn cache_eligible(&self, req: &AdmittedRequest) -> bool {
        self.config.cache_enabled() && !req.no_plan_cache && !req.config.use_greedy_slicer
    }

    /// Phase 2: planning. Normalizes, groups and slices the scenarios (for
    /// reenactment methods), refines member slices per the configured
    /// [`crate::RefinePolicy`], and enforces the budget's solver-call limit
    /// and deadline — an over-budget batch fails here, before execution
    /// spends anything.
    fn plan(&self, req: &AdmittedRequest, stats: &mut BatchStats) -> Result<PlannedWork, Error> {
        if req.method == Method::Naive {
            // The naïve algorithm re-executes the modified history over a
            // copy of the pre-history state; nothing is plannable beyond
            // the registered states.
            return Ok(PlannedWork::Naive);
        }
        let AdmittedRequest {
            registered,
            scenarios,
            method,
            config,
            threads,
            ..
        } = req;
        let (method, threads) = (*method, *threads);
        let base_db = registered.versioned.initial();

        // Normalize once per scenario, then split the scenarios into the
        // request's units of work. Scenarios that can share a program slice
        // are grouped; otherwise — single queries, methods without program
        // slicing, or the greedy slicer whose certificates are pairwise
        // only — every scenario is a group of one.
        let normalize_start = Instant::now();
        let normalized = scenarios
            .iter()
            .map(|s| {
                WhatIfRef::new(&registered.history, base_db, s.modifications())
                    .normalize()
                    .map_err(|e| req.context(Error::from(e), Phase::Normalize, s))
            })
            .collect::<Result<Vec<NormalizedWhatIf>, Error>>()?;
        let share =
            scenarios.len() > 1 && method.uses_program_slicing() && !config.use_greedy_slicer;
        let groups = if share {
            group_scenarios(&normalized)
        } else {
            ScenarioGroups::singletons(&normalized)
        };
        stats.normalize = normalize_start.elapsed();
        req.check_deadline(Phase::Normalize)?;

        // Cross-request provisioning: look up cached plans *before*
        // slicing — a hit reuses the entry's certified slice here and its
        // `GroupPlan` in phase 3, skipping slicing and `GroupPlan::build`
        // entirely. The key is a cheap filter; `PlanCache::lookup` then
        // verifies the original history, the positions and every member's
        // certification by full structural equality, so a plan is only
        // ever reused for queries it was built for.
        let slice_start = Instant::now();
        let cache_on = self.cache_eligible(req);
        let provisioned = registered.provisioned();
        let cached: Vec<Option<Arc<CachedPlan>>> = groups
            .groups
            .iter()
            .map(|group| {
                if !cache_on {
                    return None;
                }
                let members: Vec<&History> = group
                    .members
                    .iter()
                    .map(|&i| &normalized[i].modified)
                    .collect();
                let key = PlanKey::new(provisioned.generation(), method, &group.positions, config);
                provisioned
                    .cache()
                    .lookup(&key, &group.original, &group.positions, &members)
            })
            .collect();
        let hits = cached.iter().filter(|c| c.is_some()).count();
        if cache_on {
            self.metrics.plan_cache_hits.add(hits as u64);
            self.metrics
                .plan_cache_misses
                .add((cached.len() - hits) as u64);
        }

        // One program slice per group. A provisioned hit reuses the cached
        // slice. No symbolic context is kept in the cache, so members of
        // hit groups skip refinement — refinement never changes answers,
        // only per-member cost, and a hit already skipped the work
        // refinement would trim.
        let computed = run_indexed(groups.groups.len(), threads, |g| {
            if let Some(entry) = &cached[g] {
                return Ok((Arc::clone(entry.slice()), None));
            }
            let group = &groups.groups[g];
            // A group of one slices its query alone: refinement only
            // applies to larger groups, so it needs no symbolic context.
            if let [only] = group.members[..] {
                return compute_program_slice(&normalized[only], base_db, method, config)
                    .map(|slice| (Arc::new(slice), None))
                    .map_err(|e| req.group_context(e, Phase::ProgramSlicing, &groups, g));
            }
            // Borrow each member's modified history from the normalization
            // results instead of cloning it into the group.
            let variants: Vec<&History> = group
                .members
                .iter()
                .map(|&i| &normalized[i].modified)
                .collect();
            program_slice_multi_with_context(
                &group.original,
                &variants,
                &group.positions,
                base_db,
                &config.slicing(),
            )
            .map(|(slice, ctx)| (Arc::new(slice), Some(ctx)))
            .map_err(|e| req.group_context(Error::from(e), Phase::ProgramSlicing, &groups, g))
        });
        let (slices, contexts): (
            Vec<Arc<ProgramSliceResult>>,
            Vec<Option<SymbolicGroupContext>>,
        ) = collect_results(computed)?.into_iter().unzip();
        // Only slices actually computed this request count as work; hit
        // groups reuse a slice computed by an earlier request.
        stats.slice_groups = cached.len() - hits;
        stats.shared_slice_hits = scenarios.len() - groups.groups.len();
        req.check_deadline(Phase::ProgramSlicing)?;

        // Optional per-member refinement: shrink a member's slice below the
        // certified union (reusing the group's symbolic context) and answer
        // it solo with the smaller slice when refinement helps. The
        // RefinePolicy decides per member — `Always`/`Never` are the
        // explicit overrides, `Auto` applies the group-size / union-slice
        // cost model.
        let refined: Vec<Option<Arc<ProgramSliceResult>>> = if config.refine.considers_refinement()
        {
            let computed = run_indexed(scenarios.len(), threads, |i| {
                let g = groups.scenario_group[i];
                let group_size = groups.groups[g].members.len();
                if group_size <= 1
                    || !config
                        .refine
                        .should_refine(group_size, slices[g].kept_positions.len())
                {
                    return Ok(None);
                }
                // Members of provisioned-hit groups answer from the cached
                // plan; the hit skipped slicing, so there is no symbolic
                // context to refine against (and nothing left to save).
                let Some(context) = &contexts[g] else {
                    return Ok(None);
                };
                req.check_deadline(Phase::ProgramSlicing)?;
                refine_slice_for_variant(
                    &normalized[i].original,
                    &normalized[i].modified,
                    &normalized[i].modified_positions,
                    base_db,
                    &config.slicing(),
                    &slices[g],
                    context,
                )
                .map(|r| {
                    (r.kept_positions.len() < slices[g].kept_positions.len()).then(|| Arc::new(r))
                })
                .map_err(|e| req.context(Error::from(e), Phase::ProgramSlicing, &scenarios[i]))
            });
            collect_results(computed)?
        } else {
            vec![None; scenarios.len()]
        };
        stats.refined_slices = refined.iter().filter(|r| r.is_some()).count();
        // The request's deduplicated slicing solver cost: each distinct
        // slice counted once. Refinement solver calls are member work — a
        // refined member re-reports them in its own answer (`shared_work`
        // stays false) — so they are not added here; refinement
        // *wall-clock* still falls inside `stats.slicing`, which times the
        // phase, not member attributions.
        // Hit groups spent no solver calls this request — their slice's
        // bill was paid by the request that built the cached plan — so a
        // warm request passes a solver budget its cold twin may breach:
        // the budget bounds actual spend.
        stats.solver_calls = slices
            .iter()
            .zip(cached.iter())
            .filter(|(_, c)| c.is_none())
            .map(|(s, _)| s.solver_calls)
            .sum::<usize>();
        stats.slicing = slice_start.elapsed();
        if let Some(limit) = config.budget.max_solver_calls {
            if stats.solver_calls > limit {
                return Err(
                    Error::new(ErrorKind::BudgetExceeded(BudgetBreach::SolverCalls {
                        limit,
                        used: stats.solver_calls,
                    }))
                    .in_phase(Phase::ProgramSlicing)
                    .on_history(req.history.clone()),
                );
            }
        }
        req.check_deadline(Phase::ProgramSlicing)?;

        Ok(PlannedWork::Reenact {
            normalized,
            groups,
            slices,
            refined,
            cached,
        })
    }

    /// Phase 3: execution. Builds group plans (the shared original-side
    /// reenactment), answers every scenario on the worker pool — checking
    /// the deadline between units of work — deduplicates deltas, computes
    /// impact reports and commits the work counters.
    fn execute_planned(
        &self,
        mut req: AdmittedRequest,
        planned: PlannedWork,
        mut stats: BatchStats,
    ) -> Result<Response, Error> {
        let registered = &req.registered;
        let scenarios = &req.scenarios;
        let (method, config, threads) = (req.method, &req.config, req.threads);
        let cache_on = self.cache_eligible(&req);

        let answers: Vec<WhatIfAnswer> = match &planned {
            PlannedWork::Naive => {
                // Nothing is shareable beyond the registered states, so
                // scenarios just run in parallel.
                let exec_start = Instant::now();
                let answers = self.run_pool(threads, scenarios, |i| {
                    req.check_deadline(Phase::Execution)?;
                    let query = WhatIfRef::new(
                        &registered.history,
                        registered.versioned.initial(),
                        scenarios[i].modifications(),
                    );
                    answer_what_if(query, &registered.versioned, method, config)
                        .map_err(|e| req.context(e, Phase::Execution, &scenarios[i]))
                })?;
                stats.execution = exec_start.elapsed();
                answers
            }
            PlannedWork::Reenact {
                normalized,
                groups,
                slices,
                refined,
                cached,
            } => {
                // Group execution plans: the original-side reenactment is
                // identical across a group's members, so compute it once per
                // group and answer members against the cached results. A
                // singleton group is the single-query engine itself. The
                // execution phase covers plan building (the groups' shared
                // reenactment work) plus member answering.
                let exec_start = Instant::now();
                // Build plans only for cache-miss groups with at least one
                // member that was not refined away; a hit group answers from
                // its cached plan, and a fully refined group would never use
                // its plan's cached original-side results.
                let needs_plan: Vec<bool> = groups
                    .groups
                    .iter()
                    .enumerate()
                    .map(|(g, group)| {
                        cached[g].is_none() && group.members.iter().any(|&i| refined[i].is_none())
                    })
                    .collect();
                let plan_results = run_indexed(groups.groups.len(), threads, |g| {
                    if !needs_plan[g] {
                        return Ok(None);
                    }
                    let members: Vec<&NormalizedWhatIf> = groups.groups[g]
                        .members
                        .iter()
                        .map(|&i| &normalized[i])
                        .collect();
                    // A panicking build fails the request like a panicking
                    // member answer (see `run_pool`), naming the group.
                    catch_unwind(AssertUnwindSafe(|| {
                        GroupPlan::build(
                            &members,
                            &slices[g],
                            &registered.versioned,
                            method,
                            config,
                            req.deadline,
                        )
                    }))
                    .unwrap_or_else(|_| Err(Error::new(ErrorKind::WorkerPanicked)))
                    .map(Some)
                    .map_err(|e| req.group_context(e, Phase::Execution, groups, g))
                });
                let plans = collect_results(plan_results)?;
                // One handle per group: the provisioned hit, or the freshly
                // built plan wrapped with its certification metadata and —
                // when caching is on — inserted into the history's cache for
                // later requests. A racing request that inserted an equivalent
                // entry first wins ties; this request still answers from its
                // own plan.
                let provisioned = registered.provisioned();
                let handles: Vec<Option<Arc<CachedPlan>>> = plans
                    .into_iter()
                    .enumerate()
                    .map(|(g, plan)| match (&cached[g], plan) {
                        (Some(entry), _) => Some(Arc::clone(entry)),
                        (None, Some(plan)) => {
                            let group = &groups.groups[g];
                            let entry = Arc::new(CachedPlan::new(
                                PlanKey::new(
                                    provisioned.generation(),
                                    method,
                                    &group.positions,
                                    config,
                                ),
                                group.original.clone(),
                                &group.positions,
                                group
                                    .members
                                    .iter()
                                    .map(|&i| normalized[i].modified.clone())
                                    .collect(),
                                Arc::clone(&slices[g]),
                                plan,
                            ));
                            if cache_on {
                                self.record_insert(provisioned.cache().insert(Arc::clone(&entry)));
                            }
                            Some(entry)
                        }
                        (None, None) => None,
                    })
                    .collect();
                // Singleton groups fold their shared work into the member's
                // own answer (exact single-query behavior), so only
                // multi-member plans report shared work at the batch level —
                // and only *freshly built* ones: a hit group's shared
                // reenactment happened in an earlier request, so a warm batch
                // adds nothing here.
                let fresh_multi: Vec<&GroupPlan> = handles
                    .iter()
                    .zip(cached.iter())
                    .filter(|(_, c)| c.is_none())
                    .filter_map(|(h, _)| h.as_deref())
                    .map(CachedPlan::plan)
                    .filter(|p| p.group_size() > 1)
                    .collect();
                stats.group_reenactment = fresh_multi.iter().map(|p| p.shared_duration()).sum();
                stats.original_reenactments = fresh_multi
                    .iter()
                    .map(|p| p.original_reenactments())
                    .sum::<usize>();
                // The shared original-side phase of those same fresh
                // multi-member plans is also where their columnar work
                // happened (singleton plans fold it into the member's answer,
                // summed below with the rest).
                for plan in &fresh_multi {
                    let shared = plan.shared_columnar();
                    stats.columnar_batches += shared.batches;
                    stats.vectorized_predicates += shared.predicates;
                    stats.row_fallbacks += shared.fallbacks;
                }
                // Per-relation breakdown of the shared reenactment, merged
                // across plans (sorted by relation name — the plans' own
                // orders already are).
                let mut by_relation: std::collections::BTreeMap<String, Duration> =
                    std::collections::BTreeMap::new();
                for plan in &fresh_multi {
                    for (relation, duration) in plan.relation_timings() {
                        *by_relation.entry(relation.to_string()).or_default() += duration;
                    }
                }
                stats.plan_relations = by_relation.into_iter().collect();

                let answers = self.run_pool(threads, scenarios, |i| {
                    req.check_deadline(Phase::Execution)?;
                    let g = groups.scenario_group[i];
                    match &refined[i] {
                        // A refined member answers solo with its own smaller
                        // slice (its original-side reenactment is over the
                        // *refined* sliced history, so it cannot reuse the
                        // plan's cached results).
                        Some(slice) => answer_normalized(
                            &normalized[i],
                            slice,
                            &registered.versioned,
                            method,
                            config,
                        ),
                        None => {
                            let entry = handles[g]
                                .as_ref()
                                .expect("a plan exists for every group with unrefined members");
                            if cached[g].is_some() {
                                // Cross-request hit: byte-identical delta,
                                // shared phases never folded (this request did
                                // not perform them).
                                entry
                                    .plan()
                                    .answer_cached(&normalized[i], &registered.versioned)
                            } else {
                                entry
                                    .plan()
                                    .answer_in_group(&normalized[i], &registered.versioned)
                            }
                        }
                    }
                    .map_err(|e| req.context(e, Phase::Execution, &scenarios[i]))
                })?;
                stats.execution = exec_start.elapsed();
                answers
            }
        };

        // Statically proven no-ops rejoin the answer stream here, at their
        // original request positions, as empty answers: the analyzer
        // certified the delta empty (`DatabaseDelta::default()`, exactly
        // what the full pipeline returns for them — only non-empty
        // relation deltas are ever stored), and no engine phase ran, so
        // every timing and work counter is zero. Downstream phases —
        // interning, impact, the response zip — treat them exactly like
        // executed answers.
        let total = req.scenarios.len() + req.noops.len();
        let mut specs: Vec<ScenarioSpec> = Vec::with_capacity(total);
        let mut merged: Vec<WhatIfAnswer> = Vec::with_capacity(total);
        let mut executed = std::mem::take(&mut req.scenarios).into_iter().zip(answers);
        let mut noops = std::mem::take(&mut req.noops).into_iter().peekable();
        for position in 0..total {
            match noops.peek() {
                Some(&(p, _)) if p == position => {
                    let (_, spec) = noops.next().expect("peeked entry exists");
                    specs.push(spec);
                    merged.push(WhatIfAnswer {
                        delta: DatabaseDelta::default(),
                        timings: PhaseTimings::default(),
                        stats: EngineStats::default(),
                    });
                }
                _ => {
                    let (spec, answer) = executed
                        .next()
                        .expect("one executed answer per non-noop scenario");
                    specs.push(spec);
                    merged.push(answer);
                }
            }
        }
        let answers = merged;

        // Scenarios answered outside a multi-member plan (singleton plans,
        // refined members) report their own original-side reenactments;
        // add them to the plans' once-per-group count.
        stats.original_reenactments += answers
            .iter()
            .map(|a| a.stats.original_reenactments)
            .sum::<usize>();
        // Columnar-path work of the member answers themselves (modified-side
        // reenactments everywhere, plus the folded shared phase of singleton
        // plans and refined members).
        for answer in &answers {
            stats.columnar_batches += answer.stats.columnar_batches;
            stats.vectorized_predicates += answer.stats.vectorized_predicates;
            stats.row_fallbacks += answer.stats.row_fallbacks;
        }

        // Share the storage of identical answers across the batch (the
        // base-plus-diff representation of a sweep's deltas): equal
        // relation deltas collapse to one allocation, observably via
        // `delta_tuples_deduped`. Content equality is untouched. A single
        // answer has nothing to share, so the single-query hot path skips
        // the pass entirely.
        let mut answers = answers;
        if answers.len() > 1 {
            let mut interner = DeltaInterner::new();
            for answer in &mut answers {
                stats.delta_tuples_deduped += interner.intern(&mut answer.delta);
            }
        }

        // Optional impact phase: reduce each delta to an aggregate report
        // with the metric baseline taken from the current state. The
        // baseline is one `SUM` over `H(D)` for the whole request, taken
        // when the first report needs it.
        let reports = match &req.impact {
            None => vec![None; answers.len()],
            Some(spec) => {
                let mut baseline = None;
                let mut report_for = |answer: &WhatIfAnswer| -> Result<ImpactReport, Error> {
                    let mut report = answer.impact(spec)?;
                    let total = match baseline {
                        Some(total) => total,
                        None => *baseline.insert(spec.baseline(registered.current_state())?),
                    };
                    report.baseline = Some(total);
                    Ok(report)
                };
                answers
                    .iter()
                    .zip(&specs)
                    .map(|(answer, s)| {
                        report_for(answer)
                            .map(Some)
                            .map_err(|e| req.context(e, Phase::Impact, s))
                    })
                    .collect::<Result<Vec<_>, Error>>()?
            }
        };

        // Count the work only once it actually succeeded, so `stats()`
        // never reports failed requests as answered — and commit all of a
        // request's counters as one unit, so a concurrent snapshot never
        // observes half of them.
        self.counters.commit(|c| {
            c.requests += 1;
            c.scenarios_answered += specs.len() as u64;
            c.slices_computed += stats.slice_groups as u64;
            c.slices_shared += stats.shared_slice_hits as u64;
            c.original_reenactments += stats.original_reenactments as u64;
            c.refined_slices += stats.refined_slices as u64;
            c.delta_tuples_deduped += stats.delta_tuples_deduped as u64;
        });

        // The telemetry mirror records the same successful request into
        // the lock-free monitoring atomics (scrapes are racy by design;
        // the commit above stays the consistent snapshot path). Statement
        // counts come from the answers: group members report the shared
        // slice's kept-statement count each, so the total reflects work
        // actually reenacted per scenario.
        self.metrics.requests.inc();
        self.metrics.scenarios_answered.add(specs.len() as u64);
        self.metrics.solver_calls.add(stats.solver_calls as u64);
        self.metrics.statements_reenacted.add(
            answers
                .iter()
                .map(|a| a.stats.statements_reenacted as u64)
                .sum(),
        );
        self.metrics
            .delta_tuples_deduped
            .add(stats.delta_tuples_deduped as u64);
        self.metrics
            .columnar_batches
            .add(stats.columnar_batches as u64);
        self.metrics
            .vectorized_predicates
            .add(stats.vectorized_predicates as u64);
        self.metrics.row_fallbacks.add(stats.row_fallbacks as u64);
        self.metrics
            .plan_seconds
            .observe_duration(stats.normalize + stats.slicing);
        self.metrics
            .execute_seconds
            .observe_duration(stats.execution);

        stats.total = req.total_start.elapsed();
        let scenarios = specs
            .into_iter()
            .zip(answers)
            .zip(reports)
            .map(|((spec, answer), impact)| ScenarioResponse {
                name: spec.name().to_string(),
                answer,
                impact,
            })
            .collect();
        Ok(Response::new(req.history, req.method, scenarios, stats))
    }

    /// Records a plan-cache insert's outcome into the monitoring cells
    /// (entry gauge and eviction counter). Lock-free: called from worker
    /// threads on the execution path.
    fn record_insert(&self, outcome: crate::provision::InsertOutcome) {
        if outcome.inserted {
            self.metrics.plan_cache_entries.add(1);
        }
        if outcome.evicted > 0 {
            self.metrics
                .plan_cache_evictions
                .add(outcome.evicted as u64);
            self.metrics.plan_cache_entries.sub(outcome.evicted as i64);
        }
    }

    /// Runs `answer` for every scenario on the worker pool, converting
    /// worker panics into [`ErrorKind::WorkerPanicked`].
    fn run_pool(
        &self,
        threads: usize,
        scenarios: &[ScenarioSpec],
        answer: impl Fn(usize) -> Result<WhatIfAnswer, Error> + Sync,
    ) -> Result<Vec<WhatIfAnswer>, Error> {
        let results = run_indexed(scenarios.len(), threads, |i| {
            catch_unwind(AssertUnwindSafe(|| answer(i))).unwrap_or_else(|_| {
                Err(Error::new(ErrorKind::WorkerPanicked)
                    .in_phase(Phase::Execution)
                    .for_scenario(scenarios[i].name().to_string()))
            })
        });
        collect_results(results)
    }
}

/// Builds a parameter sweep for `session.on(..).run_batch(..)`: one
/// scenario per value, named `"{prefix}/{value}"`, each replacing the
/// statement at `position` with `make(value)`. Every scenario modifies the
/// same position, so the batch answers them with one shared program slice;
/// add `.impact(spec)` and read [`Response::ranking`] to rank the values.
pub fn sweep<V: std::fmt::Display>(
    prefix: &str,
    position: usize,
    values: impl IntoIterator<Item = V>,
    make: impl Fn(&V) -> mahif_history::Statement,
) -> Vec<ScenarioSpec> {
    values
        .into_iter()
        .map(|value| {
            let statement = make(&value);
            ScenarioSpec::new(
                format!("{prefix}/{value}"),
                ModificationSet::new(vec![mahif_history::Modification::replace(
                    position, statement,
                )]),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Budget, RefinePolicy};
    use crate::impact::ImpactSpec;
    use mahif_expr::builder::*;
    use mahif_history::statement::{
        running_example_database, running_example_history, running_example_u1_prime,
    };
    use mahif_history::{SetClause, Statement};
    use std::time::Duration;

    fn session() -> Session {
        Session::with_history(
            "retail",
            running_example_database(),
            History::new(running_example_history()),
        )
        .unwrap()
    }

    fn threshold(t: i64) -> Statement {
        Statement::update(
            "Order",
            SetClause::single("ShippingFee", lit(0)),
            ge(attr("Price"), lit(t)),
        )
    }

    #[test]
    fn registration_materializes_versions_once() {
        let s = session();
        let reg = s.history("retail").unwrap();
        assert_eq!(reg.name(), "retail");
        assert_eq!(reg.history().len(), 3);
        let db = running_example_database();
        assert!(reg.initial_state().set_eq(&db));
        assert!(reg
            .current_state()
            .set_eq(&reg.history().execute(&db).unwrap()));
        // Figure 3: the current state has Jack's fee waived.
        let fee = reg.current_state().relation("Order").unwrap().tuples[2].value(4);
        assert_eq!(fee, Some(&mahif_expr::Value::int(0)));
        assert_eq!(s.stats().version_chains_built, 1);
        assert_eq!(s.len(), 1);
        assert!(!s.is_empty());
    }

    #[test]
    fn failed_registration_leaves_the_session_unchanged() {
        let s = session();
        let broken = mahif_sqlparse::parse_history("UPDATE Nope SET x = 1 WHERE true;").unwrap();
        let err = s
            .register("broken", running_example_database(), broken)
            .unwrap_err();
        assert_eq!(err.phase, Some(Phase::Register));
        assert_eq!(err.history.as_deref(), Some("broken"));
        assert_eq!(s.len(), 1);
        assert_eq!(s.stats().version_chains_built, 1);
        // Nothing of the failed attempt holds the name.
        s.register(
            "broken",
            running_example_database(),
            History::new(running_example_history()),
        )
        .unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.stats().version_chains_built, 2);
    }

    #[test]
    fn duplicate_registration_is_rejected() {
        let s = session();
        let err = s
            .register(
                "retail",
                running_example_database(),
                History::new(running_example_history()),
            )
            .unwrap_err();
        assert!(matches!(err.kind, ErrorKind::DuplicateHistory(_)));
        assert!(err.to_string().contains("retail"));
    }

    #[test]
    fn registration_chains_and_unregister_frees_the_name() {
        let s = session();
        // `register` takes `&self` and returns `&Self`, so service code can
        // chain registrations on a shared session.
        s.register(
            "a",
            running_example_database(),
            History::new(running_example_history()),
        )
        .unwrap()
        .register(
            "b",
            running_example_database(),
            History::new(running_example_history()),
        )
        .unwrap();
        assert_eq!(s.len(), 3);

        // A handle obtained before unregistration stays usable: the state
        // is shared, not dropped from under the caller.
        let handle = s.history("a").unwrap();
        s.unregister("a").unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(handle.current_state().total_tuples(), 4);
        assert_eq!(s.stats().histories, 2);
        // The registration counter is monotonic — unregistration does not
        // undo it.
        assert_eq!(s.stats().version_chains_built, 3);

        // Requests against the removed name now fail; the name is free for
        // re-registration.
        let err = s.on("a").run().unwrap_err();
        assert!(matches!(err.kind, ErrorKind::UnknownHistory(_)));
        let err = s.unregister("a").unwrap_err();
        assert!(matches!(err.kind, ErrorKind::UnknownHistory(_)));
        s.register(
            "a",
            running_example_database(),
            History::new(running_example_history()),
        )
        .unwrap();
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn session_is_shared_across_threads() {
        // The core concurrency contract: one Arc<Session>, many threads,
        // registration and execution both through `&self`.
        let s = Arc::new(session());
        std::thread::scope(|scope| {
            for t in 0..4 {
                let s = Arc::clone(&s);
                scope.spawn(move || {
                    let response = s
                        .on("retail")
                        .replace(0, threshold(55 + t))
                        .run()
                        .expect("concurrent request succeeds");
                    assert_eq!(response.len(), 1);
                });
            }
            let s2 = Arc::clone(&s);
            scope.spawn(move || {
                s2.register(
                    "retail-threaded",
                    running_example_database(),
                    History::new(running_example_history()),
                )
                .expect("concurrent registration succeeds");
            });
        });
        assert_eq!(s.len(), 2);
        assert_eq!(s.stats().requests, 4);
    }

    #[test]
    fn single_query_all_methods_agree() {
        let s = session();
        let reference = s
            .on("retail")
            .replace(0, running_example_u1_prime())
            .method(Method::Naive)
            .run()
            .unwrap();
        assert_eq!(reference.delta().len(), 2);
        for method in Method::all() {
            let response = s
                .on("retail")
                .replace(0, running_example_u1_prime())
                .method(method)
                .run()
                .unwrap();
            assert_eq!(response.delta(), reference.delta(), "method {method}");
            assert_eq!(response.len(), 1);
            assert_eq!(response.scenarios[0].name, "default");
        }
    }

    #[test]
    fn batch_shares_one_slice_across_a_sweep() {
        let s = session();
        let response = s
            .on("retail")
            .method(Method::ReenactPsDs)
            .run_batch(sweep("threshold", 0, [55i64, 60, 65, 70, 75], |t| {
                threshold(*t)
            }))
            .unwrap();
        assert_eq!(response.len(), 5);
        assert_eq!(response.stats.slice_groups, 1);
        assert_eq!(response.stats.shared_slice_hits, 4);
        assert!(response.get("threshold/60").is_some());
        assert!(response.get("nope").is_none());
        // Each batch answer equals the single-query answer.
        for spec in sweep("threshold", 0, [55i64, 60, 65, 70, 75], |t| threshold(*t)) {
            let single = s
                .on("retail")
                .modifications(spec.modifications().clone())
                .run()
                .unwrap();
            assert_eq!(
                &response.get(spec.name()).unwrap().answer.delta,
                single.delta(),
                "{}",
                spec.name()
            );
        }
    }

    #[test]
    fn group_plan_reenacts_the_original_once_per_group() {
        let s = session();
        let thresholds = [55i64, 60, 65, 70, 75];
        let response = s
            .on("retail")
            .method(Method::ReenactPsDs)
            .run_batch(sweep("threshold", 0, thresholds, |t| threshold(*t)))
            .unwrap();
        // One group over one relation: groups × relations = 1, not k × 1.
        assert_eq!(response.stats.slice_groups, 1);
        assert_eq!(response.stats.original_reenactments, 1);
        // Members carry the shared-work flag and no re-attributed shared
        // timings; the shared cost is reported once at the batch level.
        for member in &response.scenarios {
            assert!(member.answer.stats.shared_work);
            assert_eq!(member.answer.stats.original_reenactments, 0);
            assert_eq!(
                member.answer.timings.program_slicing,
                std::time::Duration::ZERO
            );
        }
        // Most thresholds (65..75) waive the same two orders: their equal
        // deltas share storage.
        assert!(response.stats.delta_tuples_deduped > 0);
        // The shared slice's solver calls are reported once at the batch
        // level, not per member.
        assert!(response.stats.solver_calls > 0);
        for member in &response.scenarios {
            assert_eq!(member.answer.stats.solver_calls, 0);
        }
        // The session counters accumulate the same numbers.
        assert_eq!(s.stats().original_reenactments, 1);
        assert_eq!(
            s.stats().delta_tuples_deduped,
            response.stats.delta_tuples_deduped as u64
        );
    }

    #[test]
    fn slice_refinement_is_counted_and_preserves_answers() {
        // Extend the history with an update only low thresholds interact
        // with, so a mixed sweep's union slice keeps it while refinement
        // drops it for the high-threshold members.
        let mut statements = running_example_history();
        statements.push(Statement::update(
            "Order",
            SetClause::single("ShippingFee", lit(3)),
            and(ge(attr("Price"), lit(30)), le(attr("Price"), lit(35))),
        ));
        let s = Session::with_history(
            "retail",
            running_example_database(),
            History::new(statements),
        )
        .unwrap();
        let thresholds = [32i64, 60, 65];
        let reference = s
            .on("retail")
            .method(Method::ReenactPsDs)
            .run_batch(sweep("threshold", 0, thresholds, |t| threshold(*t)))
            .unwrap();
        assert_eq!(
            reference.stats.refined_slices, 0,
            "a 3-member group is below RefinePolicy::auto()'s group-size threshold"
        );
        let refined = s
            .on("retail")
            .method(Method::ReenactPsDs)
            .refine(RefinePolicy::Always)
            .run_batch(sweep("threshold", 0, thresholds, |t| threshold(*t)))
            .unwrap();
        assert!(
            refined.stats.refined_slices > 0,
            "the high thresholds' slices shrink below the union"
        );
        assert_eq!(
            s.stats().refined_slices,
            refined.stats.refined_slices as u64
        );
        for (a, b) in reference.scenarios.iter().zip(&refined.scenarios) {
            assert_eq!(a.answer.delta, b.answer.delta, "{}", a.name);
        }
        // The explicit opt-out always wins.
        let never = s
            .on("retail")
            .method(Method::ReenactPsDs)
            .refine(RefinePolicy::Never)
            .run_batch(sweep("threshold", 0, thresholds, |t| threshold(*t)))
            .unwrap();
        assert_eq!(never.stats.refined_slices, 0);
    }

    #[test]
    fn auto_refine_policy_triggers_on_large_groups_with_large_slices() {
        // A history whose union slice keeps several statements: the
        // modified threshold update, the fee surcharge that reads what the
        // threshold wrote, and two band updates that only the low
        // thresholds interact with. A 5-member sweep then meets both Auto
        // thresholds, and the high-threshold members' slices shrink below
        // the union — with the *default* configuration, no explicit opt-in.
        let mut statements = running_example_history();
        statements.push(Statement::update(
            "Order",
            SetClause::single("ShippingFee", lit(3)),
            and(ge(attr("Price"), lit(30)), le(attr("Price"), lit(35))),
        ));
        statements.push(Statement::update(
            "Order",
            SetClause::single("ShippingFee", lit(4)),
            and(ge(attr("Price"), lit(36)), le(attr("Price"), lit(41))),
        ));
        let s = Session::with_history(
            "retail",
            running_example_database(),
            History::new(statements),
        )
        .unwrap();
        let thresholds = [32i64, 38, 60, 65, 70];
        let auto = s
            .on("retail")
            .method(Method::ReenactPsDs)
            .run_batch(sweep("threshold", 0, thresholds, |t| threshold(*t)))
            .unwrap();
        assert_eq!(auto.stats.slice_groups, 1, "one 5-member group");
        assert!(
            auto.stats.refined_slices > 0,
            "Auto refines: group size {} ≥ 5 and the union slice is large enough",
            thresholds.len()
        );
        // The cost model changes the plan, never the answers.
        let never = s
            .on("retail")
            .method(Method::ReenactPsDs)
            .refine(RefinePolicy::Never)
            .run_batch(sweep("threshold", 0, thresholds, |t| threshold(*t)))
            .unwrap();
        assert_eq!(never.stats.refined_slices, 0);
        for (a, b) in auto.scenarios.iter().zip(&never.scenarios) {
            assert_eq!(a.answer.delta, b.answer.delta, "{}", a.name);
        }
    }

    #[test]
    fn scenario_budget_is_enforced_at_admission() {
        let s = session();
        let err = s
            .on("retail")
            .budget(Budget::unlimited().with_max_scenarios(2))
            .run_batch(sweep("threshold", 0, [55i64, 60, 65], |t| threshold(*t)))
            .unwrap_err();
        assert!(
            matches!(
                err.kind,
                ErrorKind::BudgetExceeded(BudgetBreach::Scenarios {
                    limit: 2,
                    requested: 3
                })
            ),
            "{err:?}"
        );
        assert_eq!(err.phase, Some(Phase::Admission));
        // Nothing ran: the rejected request is not counted as answered.
        assert_eq!(s.stats().requests, 0);
        // At the limit, the batch is admitted and answered.
        let ok = s
            .on("retail")
            .budget(Budget::unlimited().with_max_scenarios(2))
            .run_batch(sweep("threshold", 0, [55i64, 60], |t| threshold(*t)))
            .unwrap();
        assert_eq!(ok.len(), 2);
    }

    #[test]
    fn solver_call_budget_fails_during_planning() {
        let s = session();
        let err = s
            .on("retail")
            .method(Method::ReenactPsDs)
            .budget(Budget::unlimited().with_max_solver_calls(0))
            .run_batch(sweep("threshold", 0, [55i64, 60], |t| threshold(*t)))
            .unwrap_err();
        assert!(
            matches!(
                err.kind,
                ErrorKind::BudgetExceeded(BudgetBreach::SolverCalls { limit: 0, .. })
            ),
            "{err:?}"
        );
        assert_eq!(err.phase, Some(Phase::ProgramSlicing));
        assert_eq!(s.stats().requests, 0);
        // Counters commit per whole request: a failed plan contributes no
        // slice work either.
        assert_eq!(s.stats().slices_computed, 0);
        assert_eq!(s.stats().slices_shared, 0);
        // Methods that never call the solver are unaffected by the limit.
        let ok = s
            .on("retail")
            .method(Method::Reenact)
            .budget(Budget::unlimited().with_max_solver_calls(0))
            .replace(0, threshold(60))
            .run()
            .unwrap();
        assert_eq!(ok.len(), 1);
    }

    #[test]
    fn expired_deadline_fails_fast_with_a_structured_error() {
        let s = session();
        let err = s
            .on("retail")
            .budget(Budget::unlimited().with_deadline(Duration::ZERO))
            .run_batch(sweep("threshold", 0, [55i64, 60, 65], |t| threshold(*t)))
            .unwrap_err();
        assert!(
            matches!(
                err.kind,
                ErrorKind::BudgetExceeded(BudgetBreach::Deadline { .. })
            ),
            "{err:?}"
        );
        assert_eq!(s.stats().requests, 0);
        // A generous deadline admits and answers normally.
        let ok = s
            .on("retail")
            .budget(Budget::unlimited().with_deadline(Duration::from_secs(3600)))
            .replace(0, threshold(60))
            .run()
            .unwrap();
        assert_eq!(ok.len(), 1);
        assert_eq!(s.stats().requests, 1);
    }

    #[test]
    fn stats_count_work_not_copies() {
        let s = session();
        for t in [55i64, 60, 65] {
            s.on("retail").replace(0, threshold(t)).run().unwrap();
        }
        let stats = s.stats();
        assert_eq!(stats.version_chains_built, 1, "no request re-registers");
        assert_eq!(stats.requests, 3);
        assert_eq!(stats.scenarios_answered, 3);
    }

    #[test]
    fn multiple_histories_are_independent() {
        let s = session();
        s.register(
            "retail-2",
            running_example_database(),
            History::new(running_example_history()),
        )
        .unwrap();
        let a = s
            .on("retail")
            .replace(0, running_example_u1_prime())
            .run()
            .unwrap();
        let b = s
            .on("retail-2")
            .replace(0, running_example_u1_prime())
            .run()
            .unwrap();
        assert_eq!(a.delta(), b.delta());
        assert_eq!(a.history, "retail");
        assert_eq!(b.history, "retail-2");
        assert_eq!(s.stats().version_chains_built, 2);
    }

    #[test]
    fn unknown_history_is_reported_with_context() {
        let s = session();
        let err = s
            .on("nope")
            .replace(0, running_example_u1_prime())
            .run()
            .unwrap_err();
        assert!(matches!(err.kind, ErrorKind::UnknownHistory(_)));
        assert!(err.to_string().contains("'nope'"), "{err}");
    }

    #[test]
    fn empty_request_answers_one_empty_scenario() {
        let s = session();
        let response = s.on("retail").run().unwrap();
        assert_eq!(response.len(), 1);
        assert!(response.delta().is_empty());
    }

    #[test]
    fn empty_run_batch_is_an_error_not_a_silent_default() {
        let s = session();
        let empty: Vec<ScenarioSpec> = Vec::new();
        let err = s.on("retail").run_batch(empty).unwrap_err();
        assert!(matches!(err.kind, ErrorKind::EmptyRequest), "{err:?}");
        assert!(err.to_string().contains("no scenarios"), "{err}");
        // Inline modifications still count as a scenario for run_batch.
        let empty: Vec<ScenarioSpec> = Vec::new();
        let response = s
            .on("retail")
            .replace(0, threshold(60))
            .run_batch(empty)
            .unwrap();
        assert_eq!(response.len(), 1);
    }

    #[test]
    fn failed_requests_are_not_counted_as_answered() {
        let s = session();
        s.on("nope").run().unwrap_err();
        s.on("retail").sql("FROB").run().unwrap_err();
        let stats = s.stats();
        assert_eq!(stats.requests, 0);
        assert_eq!(stats.scenarios_answered, 0);
        s.on("retail").replace(0, threshold(60)).run().unwrap();
        assert_eq!(s.stats().requests, 1);
        assert_eq!(s.stats().scenarios_answered, 1);
    }

    #[test]
    fn sql_error_uses_the_final_inline_name_regardless_of_order() {
        let s = session();
        // `.named()` after `.sql()` — the error must still name 'late'.
        let err = s.on("retail").sql("FROB").named("late").run().unwrap_err();
        assert!(err.to_string().contains("scenario 'late'"), "{err}");
    }

    #[test]
    fn duplicate_scenario_names_are_rejected() {
        let s = session();
        let err = s
            .on("retail")
            .scenario(("a", ModificationSet::single_replace(0, threshold(55))))
            .scenario(("a", ModificationSet::single_replace(0, threshold(60))))
            .run()
            .unwrap_err();
        assert!(matches!(err.kind, ErrorKind::DuplicateScenario(_)));
        assert!(err.to_string().contains("'a'"));
        assert_eq!(err.phase, Some(Phase::Admission));
    }

    #[test]
    fn impact_reports_ride_along_uniformly() {
        let s = session();
        let response = s
            .on("retail")
            .impact(ImpactSpec::sum_of("Order", "ShippingFee"))
            .run_batch(sweep("threshold", 0, [60i64, 100], |t| threshold(*t)))
            .unwrap();
        let t60 = response.get("threshold/60").unwrap();
        let report = t60.impact.as_ref().unwrap();
        // Current fees total 17 (Figure 3); threshold 60 charges Alex 5 more.
        assert_eq!(report.baseline, Some(17));
        assert_eq!(report.net_change(), 5);
    }

    #[test]
    fn display_of_response_names_scenarios() {
        let s = session();
        let response = s
            .on("retail")
            .named("bob")
            .replace(0, running_example_u1_prime())
            .run()
            .unwrap();
        let text = response.to_string();
        assert!(text.contains("scenario 'bob'"), "{text}");
        assert!(text.contains("history 'retail'"), "{text}");
    }

    #[test]
    fn clone_snapshots_state_without_rerunning_histories() {
        let s = session();
        s.on("retail").replace(0, threshold(60)).run().unwrap();
        let clone = s.clone();
        assert_eq!(clone.stats(), s.stats());
        // The clone is independent: new work on the original is invisible.
        s.on("retail").replace(0, threshold(65)).run().unwrap();
        assert_eq!(clone.stats().requests + 1, s.stats().requests);
        // Policy knob: `RefinePolicy` default is the Auto cost model.
        assert_eq!(EngineConfig::default().refine, RefinePolicy::auto());
    }

    #[test]
    fn parallelism_one_runs_on_one_thread() {
        let response = session()
            .on("retail")
            .parallelism(1)
            .run_batch(sweep("threshold", 0, [55i64, 60, 65], |t| threshold(*t)))
            .unwrap();
        assert_eq!(response.stats.threads, 1);
        assert!(response.stats.total >= response.stats.execution);
    }

    #[test]
    fn a_subset_of_a_provisioned_sweep_hits_its_plan() {
        let s = session();
        let batch = |values: &[i64]| sweep("threshold", 0, values.to_vec(), |t| threshold(*t));
        s.on("retail")
            .run_batch(batch(&[55, 60, 65, 70, 75]))
            .unwrap();
        assert_eq!(s.stats().plan_cache_hits, 0);
        // The sweep's group plan certifies each member, so a two-member
        // subset answers from it.
        let subset = s.on("retail").run_batch(batch(&[60, 70])).unwrap();
        assert!(s.stats().plan_cache_hits > 0);
        for t in [60, 70] {
            let name = format!("threshold/{t}");
            let single = s.on("retail").replace(0, threshold(t)).run().unwrap();
            assert_eq!(&subset.get(&name).unwrap().answer.delta, single.delta());
        }
    }
}
