//! The scenario batch API: answering k what-if scenarios over one
//! registered history with shared work.
//!
//! Since the `Session` redesign the heavy lifting lives in
//! [`mahif::Session::execute`] — *the* funnel all entry points share — and
//! [`ScenarioSet`] is a convenience layer over it: named [`Scenario`]s,
//! duplicate-name checking, and ranking of the per-scenario impacts
//! ([`BatchAnswer::rank_by`]). The funnel executes a batch as **group
//! plans** (`mahif::GroupPlan`): scenarios whose normalizations share the
//! original history and modified positions form a group (a scenario that
//! shares with none is a group of one), and everything that depends only
//! on the shared side is computed once per group:
//!
//! * each scenario normalized once, then **grouped**;
//! * **one program slice per group** (via
//!   [`mahif_slicing::program_slice_multi`]) instead of one per scenario,
//!   optionally refined per member
//!   ([`BatchConfig::with_slice_refinement`]);
//! * **one original-side reenactment per `(group, relation)`** — the
//!   original history's reenactment result is identical across a group's
//!   members, so members only reenact their own modified side and diff
//!   against the group's cached original relations (observable via
//!   [`BatchStats::original_reenactments`]);
//! * identical answers across the batch **stored once** (equal relation
//!   deltas share one allocation; [`BatchStats::delta_tuples_deduped`]);
//! * the session's versioned database **borrowed** for every scenario —
//!   never cloned per call; and
//! * scenarios answered **in parallel** across a scoped thread pool.
//!
//! The per-scenario deltas are exactly those of the single-query engine:
//! shared slices are supersets of each member's individual slice, the
//! group's symmetric data-slicing conditions only admit tuples that cancel
//! in each member's delta, and both are certified answer-preserving — so
//! only the work changes, never the answer.

use mahif::{ImpactSpec, Method, Response, Session, WhatIfAnswer};

use crate::compare::{rank_scenarios, ScenarioComparison};
use crate::error::ScenarioError;
use crate::scenario::Scenario;

pub use mahif::BatchStats;

/// Configuration of a batch run.
#[derive(Debug, Clone, Default)]
pub struct BatchConfig {
    /// The single-query engine configuration applied to every scenario.
    pub engine: mahif::EngineConfig,
    /// Number of worker threads; `0` uses the machine's available
    /// parallelism.
    pub parallelism: usize,
}

impl BatchConfig {
    /// Sets the worker-thread count (`0` = auto).
    pub fn with_parallelism(mut self, parallelism: usize) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Disables the static analyzer's admission pre-validation and no-op
    /// proofs (ablation / byte-identity baseline; proven no-ops answer
    /// identically either way).
    pub fn without_analyzer(mut self) -> Self {
        self.engine.disable_analyzer = true;
        self
    }

    /// Forces per-member refinement of the group's union slice for every
    /// multi-member group — the explicit override over the default
    /// `mahif::RefinePolicy::Auto` cost model (see
    /// `mahif::EngineConfig::refine`).
    pub fn with_slice_refinement(mut self) -> Self {
        self.engine.refine = mahif::RefinePolicy::Always;
        self
    }

    /// Disables per-member slice refinement entirely (the explicit opt-out
    /// of the Auto cost model).
    pub fn without_slice_refinement(mut self) -> Self {
        self.engine.refine = mahif::RefinePolicy::Never;
        self
    }
}

/// One scenario's answer within a batch.
#[derive(Debug, Clone)]
pub struct ScenarioAnswer {
    /// The scenario's name.
    pub name: String,
    /// The what-if answer. Its **delta** is identical to what a single
    /// request returns for the same scenario. Timings are attributed
    /// without double counting: a member of a multi-scenario group reports
    /// only its own work (modified-side reenactment + delta) and carries
    /// `stats.shared_work = true`, while
    /// the group's shared slicing and original-reenactment time is
    /// reported **once** in [`BatchStats::slicing`] /
    /// [`BatchStats::group_reenactment`] — so summing those member timings
    /// plus the batch-level shared fields gives the true batch cost.
    /// Scenarios answered outside a multi-member plan (singleton groups,
    /// refined members) fold their slicing work like single queries; see
    /// [`BatchStats::solver_calls`] for the deduplicated accounting.
    pub answer: WhatIfAnswer,
}

/// The result of answering a scenario batch.
#[derive(Debug, Clone)]
pub struct BatchAnswer {
    /// Per-scenario answers, in registration order.
    pub answers: Vec<ScenarioAnswer>,
    /// Work statistics.
    pub stats: BatchStats,
}

impl BatchAnswer {
    /// The answer of the scenario with the given name.
    pub fn get(&self, name: &str) -> Option<&ScenarioAnswer> {
        self.answers.iter().find(|a| a.name == name)
    }

    /// Ranks the scenarios by the net change of `spec`'s metric (largest
    /// first). See [`ScenarioComparison`].
    pub fn rank_by(&self, spec: &ImpactSpec) -> Result<ScenarioComparison, ScenarioError> {
        rank_scenarios(&self.answers, spec, None)
    }

    /// Like [`Self::rank_by`], with before/after totals computed against the
    /// current database state.
    pub fn rank_by_with_baseline(
        &self,
        spec: &ImpactSpec,
        current_state: &mahif_storage::Database,
    ) -> Result<ScenarioComparison, ScenarioError> {
        rank_scenarios(&self.answers, spec, Some(current_state))
    }

    /// The batch's phase timings as trace [`mahif_obs::Span`]s, offset so
    /// the first span starts at `start` — the same conversion (and span
    /// vocabulary: `plan`, `plan.slicing`, `execute.group.<relation>`, …)
    /// the serving layer grafts into request traces, so a library caller
    /// timing a batch reads the breakdown exactly as `/debug/slow` and
    /// `Server-Timing` report it. See [`mahif::Response::trace_spans`].
    pub fn trace_spans(&self, start: std::time::Duration) -> Vec<mahif_obs::Span> {
        mahif::batch_trace_spans(
            &self.stats,
            self.answers.iter().map(|a| &a.answer.timings),
            start,
        )
    }

    fn from_response(response: Response) -> BatchAnswer {
        let stats = response.stats.clone();
        BatchAnswer {
            answers: response
                .scenarios
                .into_iter()
                .map(|s| ScenarioAnswer {
                    name: s.name,
                    answer: s.answer,
                })
                .collect(),
            stats,
        }
    }
}

/// A batch of named what-if scenarios over one registered history of a
/// [`Session`].
#[derive(Debug, Clone)]
pub struct ScenarioSet<'a> {
    session: &'a Session,
    history: String,
    scenarios: Vec<Scenario>,
}

/// The batch API is also known as `BatchWhatIf` in the paper-facing docs.
pub type BatchWhatIf<'a> = ScenarioSet<'a>;

impl<'a> ScenarioSet<'a> {
    /// Creates an empty scenario set over the history registered under
    /// `history` in `session`.
    pub fn over(session: &'a Session, history: impl Into<String>) -> Self {
        ScenarioSet {
            session,
            history: history.into(),
            scenarios: Vec::new(),
        }
    }

    /// Registers a scenario; names must be unique within the set.
    pub fn add(&mut self, scenario: Scenario) -> Result<&mut Self, ScenarioError> {
        if self.scenarios.iter().any(|s| s.name() == scenario.name()) {
            return Err(ScenarioError::DuplicateName(scenario.name().to_string()));
        }
        self.scenarios.push(scenario);
        Ok(self)
    }

    /// Registers a scenario given as a what-if SQL script.
    pub fn add_sql(&mut self, name: &str, script: &str) -> Result<&mut Self, ScenarioError> {
        let scenario = Scenario::from_sql(name, script)?;
        self.add(scenario)
    }

    /// Registers a whole sweep (see [`Scenario::sweep_replace`]).
    pub fn add_all(
        &mut self,
        scenarios: impl IntoIterator<Item = Scenario>,
    ) -> Result<&mut Self, ScenarioError> {
        for s in scenarios {
            self.add(s)?;
        }
        Ok(self)
    }

    /// The registered scenarios, in registration order.
    pub fn scenarios(&self) -> &[Scenario] {
        &self.scenarios
    }

    /// Number of registered scenarios.
    pub fn len(&self) -> usize {
        self.scenarios.len()
    }

    /// True when no scenario is registered.
    pub fn is_empty(&self) -> bool {
        self.scenarios.is_empty()
    }

    /// Answers every scenario with the default batch configuration.
    pub fn answer_all(&self, method: Method) -> Result<BatchAnswer, ScenarioError> {
        self.answer_all_configured(method, &BatchConfig::default())
    }

    /// Answers every scenario by funneling the whole set into
    /// [`Session::execute`]: normalization is shared, scenario groups share
    /// one program slice each, the registered states `D` and `H(D)` are
    /// borrowed (never cloned), and scenarios run in parallel. Re-answering the same
    /// (or an overlapping) set against an unchanged history additionally
    /// reuses the session's provisioning cache (`mahif::provision`), which
    /// skips slicing and plan construction entirely — the interactive
    /// re-run-the-sweep loop this batch API exists for.
    pub fn answer_all_configured(
        &self,
        method: Method,
        config: &BatchConfig,
    ) -> Result<BatchAnswer, ScenarioError> {
        if self.scenarios.is_empty() {
            return Err(ScenarioError::EmptyScenarioSet);
        }
        let response = self
            .session
            .on(&self.history)
            .method(method)
            .config(config.engine.clone())
            .parallelism(config.parallelism)
            .run_batch(self.scenarios.iter().cloned())?;
        Ok(BatchAnswer::from_response(response))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mahif_expr::builder::*;
    use mahif_history::statement::{
        running_example_database, running_example_history, running_example_u1_prime,
    };
    use mahif_history::{History, Modification, ModificationSet, SetClause, Statement};

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

    fn sweep_set<'a>(session: &'a Session, thresholds: &[i64]) -> ScenarioSet<'a> {
        let mut set = ScenarioSet::over(session, "retail");
        set.add_all(Scenario::sweep_replace_values(
            "threshold",
            0,
            thresholds.iter().copied(),
            |t| threshold(*t),
        ))
        .unwrap();
        set
    }

    fn single(session: &Session, mods: &ModificationSet, method: Method) -> WhatIfAnswer {
        session
            .on("retail")
            .modifications(mods.clone())
            .method(method)
            .run()
            .unwrap()
            .into_answer()
    }

    #[test]
    fn registration_rejects_duplicates_and_counts() {
        let session = session();
        let mut set = ScenarioSet::over(&session, "retail");
        assert!(set.is_empty());
        set.add(Scenario::new(
            "a",
            ModificationSet::single_replace(0, running_example_u1_prime()),
        ))
        .unwrap();
        let err = set
            .add(Scenario::new("a", ModificationSet::default()))
            .unwrap_err();
        assert!(matches!(err, ScenarioError::DuplicateName(_)));
        assert_eq!(set.len(), 1);
        assert_eq!(set.scenarios()[0].name(), "a");
    }

    #[test]
    fn empty_set_errors() {
        let session = session();
        let set = ScenarioSet::over(&session, "retail");
        assert!(matches!(
            set.answer_all(Method::ReenactPsDs),
            Err(ScenarioError::EmptyScenarioSet)
        ));
    }

    #[test]
    fn unknown_history_surfaces_the_unified_error() {
        let session = session();
        let mut set = ScenarioSet::over(&session, "nope");
        set.add(Scenario::new(
            "a",
            ModificationSet::single_replace(0, running_example_u1_prime()),
        ))
        .unwrap();
        let err = set.answer_all(Method::ReenactPsDs).unwrap_err();
        assert!(err.to_string().contains("'nope'"), "{err}");
    }

    #[test]
    fn batch_matches_single_calls_for_every_method() {
        let session = session();
        let set = sweep_set(&session, &[55, 60, 65, 70]);
        for method in Method::all() {
            let batch = set.answer_all(method).unwrap();
            assert_eq!(batch.answers.len(), 4);
            for (scenario, answer) in set.scenarios().iter().zip(&batch.answers) {
                let reference = single(&session, scenario.modifications(), method);
                assert_eq!(
                    answer.answer.delta,
                    reference.delta,
                    "scenario {} method {}",
                    scenario.name(),
                    method.label()
                );
            }
        }
    }

    #[test]
    fn sweep_shares_one_slice() {
        let session = session();
        let set = sweep_set(&session, &[55, 60, 65, 70, 75]);
        let batch = set.answer_all(Method::ReenactPsDs).unwrap();
        assert_eq!(batch.stats.scenarios, 5);
        assert_eq!(batch.stats.slice_groups, 1);
        assert_eq!(batch.stats.shared_slice_hits, 4);
    }

    #[test]
    fn mixed_positions_form_separate_groups() {
        let session = session();
        let mut set = sweep_set(&session, &[55, 60]);
        set.add(Scenario::new(
            "drop-u2",
            ModificationSet::new(vec![Modification::delete(1)]),
        ))
        .unwrap();
        let batch = set.answer_all(Method::ReenactPsDs).unwrap();
        assert_eq!(batch.stats.slice_groups, 2);
        assert_eq!(batch.stats.shared_slice_hits, 1);
        // Answers still match singles.
        for (scenario, answer) in set.scenarios().iter().zip(&batch.answers) {
            let reference = single(&session, scenario.modifications(), Method::ReenactPsDs);
            assert_eq!(answer.answer.delta, reference.delta, "{}", scenario.name());
        }
    }

    #[test]
    fn repeated_answer_all_hits_the_provisioning_cache() {
        let session = session();
        let set = sweep_set(&session, &[55, 60, 65, 70, 75]);
        let first = set.answer_all(Method::ReenactPsDs).unwrap();
        assert_eq!(session.stats().plan_cache_hits, 0);
        // The interactive re-run: same set, same history — answered from
        // the provisioned plan, byte-identically.
        let second = set.answer_all(Method::ReenactPsDs).unwrap();
        assert!(session.stats().plan_cache_hits > 0);
        for (a, b) in first.answers.iter().zip(&second.answers) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.answer.delta, b.answer.delta);
        }
        // An overlapping subset of the provisioned sweep also hits: the
        // group plan certifies each member individually.
        let subset = sweep_set(&session, &[60, 70]);
        let hits_before = session.stats().plan_cache_hits;
        let sub = subset.answer_all(Method::ReenactPsDs).unwrap();
        assert!(session.stats().plan_cache_hits > hits_before);
        for (answer, scenario) in sub.answers.iter().zip(subset.scenarios()) {
            let reference = single(&session, scenario.modifications(), Method::ReenactPsDs);
            assert_eq!(answer.answer.delta, reference.delta, "{}", scenario.name());
        }
    }

    #[test]
    fn single_threaded_configuration_matches() {
        let session = session();
        let set = sweep_set(&session, &[55, 60, 65]);
        let parallel = set.answer_all(Method::ReenactPsDs).unwrap();
        let serial = set
            .answer_all_configured(
                Method::ReenactPsDs,
                &BatchConfig::default().with_parallelism(1),
            )
            .unwrap();
        assert_eq!(serial.stats.threads, 1);
        for (a, b) in parallel.answers.iter().zip(&serial.answers) {
            assert_eq!(a.answer.delta, b.answer.delta);
        }
    }

    #[test]
    fn trace_spans_cover_the_batch_phases() {
        let session = session();
        let set = sweep_set(&session, &[55, 60, 65]);
        let batch = set.answer_all(Method::ReenactPsDs).unwrap();
        let start = std::time::Duration::from_millis(1);
        let spans = batch.trace_spans(start);
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        assert!(names.contains(&"plan"), "{names:?}");
        assert!(names.contains(&"execute"), "{names:?}");
        // The sweep forms one multi-member group, so the group plan's
        // shared reenactment appears with per-relation children.
        assert!(names.contains(&"execute.group"), "{names:?}");
        assert!(
            names.iter().any(|n| n.starts_with("execute.group.")),
            "{names:?}"
        );
        for span in &spans {
            assert!(span.start >= start, "spans are offset by `start`");
            assert!(!span.duration.is_zero(), "zero-duration spans are omitted");
        }
    }

    #[test]
    fn get_by_name_and_stats_totals() {
        let session = session();
        let set = sweep_set(&session, &[55, 60]);
        let batch = set.answer_all(Method::ReenactPsDs).unwrap();
        assert!(batch.get("threshold/55").is_some());
        assert!(batch.get("nope").is_none());
        assert!(batch.stats.total >= batch.stats.execution);
    }

    #[test]
    fn sql_scenarios_join_the_batch() {
        let session = session();
        let mut set = ScenarioSet::over(&session, "retail");
        set.add_sql(
            "sql/60",
            "REPLACE STATEMENT 1 WITH UPDATE Order SET ShippingFee = 0 WHERE Price >= 60",
        )
        .unwrap();
        let batch = set.answer_all(Method::ReenactPsDs).unwrap();
        let reference = session
            .on("retail")
            .sql("REPLACE STATEMENT 1 WITH UPDATE Order SET ShippingFee = 0 WHERE Price >= 60")
            .method(Method::ReenactPsDs)
            .run()
            .unwrap();
        assert_eq!(batch.answers[0].answer.delta, *reference.delta());
    }
}
