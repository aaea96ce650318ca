//! The uniform answer of a what-if request.
//!
//! Single queries are batches of one, so every request — `run()` or
//! `run_batch(...)` — produces the same [`Response`]: one
//! [`ScenarioResponse`] per scenario (delta + timings + work stats +
//! optional impact report) plus the request-level [`BatchStats`].

use std::fmt;
use std::time::Duration;

use mahif_history::DatabaseDelta;

use crate::config::Method;
use crate::impact::{ImpactReport, ScenarioComparison};
use crate::stats::WhatIfAnswer;

/// Work statistics of one executed request.
///
/// A single query is a batch of one, so these are always present; for k > 1
/// they describe the shared work (one program slice per scenario group, a
/// scoped worker pool).
#[derive(Debug, Clone, Default)]
pub struct BatchStats {
    /// Number of scenarios answered.
    pub scenarios: usize,
    /// Worker threads used.
    pub threads: usize,
    /// Distinct program slices computed (slice-sharing groups).
    pub slice_groups: usize,
    /// Scenarios that reused a group slice instead of computing their own.
    pub shared_slice_hits: usize,
    /// Original-side reenactments performed across the request: one per
    /// `(group plan, relation)` plus one per relation for scenarios
    /// answered outside a shared plan. For a k-scenario single-group sweep
    /// this equals `groups × relations` — not `k × relations` — which is
    /// the observable form of the once-per-group reenactment guarantee.
    pub original_reenactments: usize,
    /// Members of multi-scenario groups whose program slice was refined
    /// below the group's certified union slice (and answered with the
    /// smaller slice). Driven by `EngineConfig::refine` — the default
    /// `RefinePolicy::Auto` cost model, or the explicit overrides.
    pub refined_slices: usize,
    /// The request's **deduplicated** slicing solver cost: satisfiability
    /// checks of each distinct program slice computed for the request —
    /// one per group when sharing, one per scenario otherwise — counted
    /// once, excluding per-member refinements (those are member work,
    /// reported in the refined member's own `EngineStats`).
    ///
    /// Per-member attribution varies by path: members of a multi-member
    /// group plan report `0` in their own `EngineStats::solver_calls`
    /// (their `shared_work` flag is set), while scenarios answered solo —
    /// single queries, singleton groups, refined members — fold the slice
    /// they were answered with into their own stats, exactly like a
    /// standalone single query. So
    /// read *this* field for the request's true solver cost; summing
    /// member counts on top can re-count a shared slice on the solo paths.
    pub solver_calls: usize,
    /// Annotated delta tuples whose storage was deduplicated across the
    /// request's answers (scenarios with identical relation deltas share
    /// one allocation; see `mahif_history::DeltaInterner`).
    pub delta_tuples_deduped: usize,
    /// Per-relation reenactments the request answered on the columnar
    /// path (batch-at-a-time over typed columns): the shared original-side
    /// phase of freshly built multi-member plans plus every member's
    /// modified-side work. Byte-identical results either way — see
    /// `EngineConfig::disable_columnar` for the ablation.
    pub columnar_batches: usize,
    /// Flat predicate/projection programs evaluated vectorized by those
    /// columnar reenactments.
    pub vectorized_predicates: usize,
    /// Per-relation reenactments that attempted the columnar path but fell
    /// back to the row evaluator (inexpressible statement or predicate,
    /// mixed-type column, or a runtime fault the row path must reproduce).
    pub row_fallbacks: usize,
    /// Wall-clock time normalizing and grouping the scenarios.
    pub normalize: Duration,
    /// Wall-clock time of the slicing phase: computing the (shared or
    /// per-scenario) program slices plus any per-member refinements. Note
    /// a refined member *also* reports its refinement's duration as its
    /// own `program_slicing` time — this field is the phase's wall clock,
    /// not a sum of member attributions.
    pub slicing: Duration,
    /// Wall-clock time of the group plans' shared work (group data-slicing
    /// conditions + original-side reenactments), summed over multi-member
    /// groups. This shared cost is reported **once** here, and members of
    /// those plans cover only their member-specific work in their own
    /// `PhaseTimings` (their `EngineStats::shared_work` flag is set) — so
    /// member timings plus this field give the true batch cost without
    /// double counting. Scenarios answered
    /// outside a multi-member plan fold their work like single queries
    /// (see [`solver_calls`](Self::solver_calls)). It is a component of
    /// [`execution`](Self::execution), not an addition to it.
    pub group_reenactment: Duration,
    /// Wall-clock time reenacting and diffing all scenarios, including
    /// building the group plans (their shared reenactment work).
    pub execution: Duration,
    /// End-to-end wall-clock time of the request.
    pub total: Duration,
    /// Per-relation breakdown of the group plans' shared original-side
    /// reenactment ([`group_reenactment`](Self::group_reenactment)),
    /// summed across multi-member plans and sorted by relation name. Empty
    /// when no multi-member plan was built. Tracing layers graft these as
    /// child spans so a slow plan build names the relation that cost it.
    pub plan_relations: Vec<(String, Duration)>,
}

/// One scenario's answer within a [`Response`].
#[derive(Debug, Clone)]
pub struct ScenarioResponse {
    /// The scenario's name (`"default"` for an unnamed single query).
    pub name: String,
    /// The what-if answer: delta, per-phase timings, work statistics.
    pub answer: WhatIfAnswer,
    /// The aggregate impact report, when the request carried an
    /// [`crate::ImpactSpec`]. The baseline is taken from the registered
    /// history's current state.
    pub impact: Option<ImpactReport>,
}

/// The answer of a what-if request: per-scenario answers plus batch-level
/// work statistics, uniform for single and batch requests.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct Response {
    /// The registered history the request ran against.
    pub history: String,
    /// The execution method used.
    pub method: Method,
    /// Per-scenario answers, in request order (never empty).
    pub scenarios: Vec<ScenarioResponse>,
    /// Work statistics of the whole request.
    pub stats: BatchStats,
}

impl Response {
    pub(crate) fn new(
        history: String,
        method: Method,
        scenarios: Vec<ScenarioResponse>,
        stats: BatchStats,
    ) -> Self {
        debug_assert!(!scenarios.is_empty(), "a response answers >= 1 scenario");
        Response {
            history,
            method,
            scenarios,
            stats,
        }
    }

    /// The first (for a single query: the only) scenario's answer.
    pub fn answer(&self) -> &WhatIfAnswer {
        &self.scenarios[0].answer
    }

    /// The first scenario's delta `Δ(H(D), H[M](D))`.
    pub fn delta(&self) -> &DatabaseDelta {
        &self.answer().delta
    }

    /// The first scenario's impact report, when the request carried an
    /// impact spec.
    pub fn impact(&self) -> Option<&ImpactReport> {
        self.scenarios[0].impact.as_ref()
    }

    /// The answer of the scenario with the given name.
    pub fn get(&self, name: &str) -> Option<&ScenarioResponse> {
        self.scenarios.iter().find(|s| s.name == name)
    }

    /// Number of scenarios answered.
    pub fn len(&self) -> usize {
        self.scenarios.len()
    }

    /// A response always answers at least one scenario; this exists for
    /// clippy's `len_without_is_empty` and always returns `false`.
    pub fn is_empty(&self) -> bool {
        self.scenarios.is_empty()
    }

    /// Iterates over the per-scenario answers in request order.
    pub fn iter(&self) -> std::slice::Iter<'_, ScenarioResponse> {
        self.scenarios.iter()
    }

    /// Grafts the engine's phase timings into trace [`mahif_obs::Span`]s, offset so
    /// the first span starts at `start` (the handler's offset for the
    /// engine call within its own trace).
    ///
    /// This is *the* conversion between the engine's [`BatchStats`] /
    /// [`PhaseTimings`](crate::PhaseTimings) and span-shaped traces —
    /// serving layers and library callers share it, so `Server-Timing`
    /// headers, the slow-query log, and in-process tracing all name the
    /// same sections:
    ///
    /// * `plan` — normalize + slicing wall clock, with children
    ///   `plan.normalize` and `plan.slicing`;
    /// * `execute` — the execution phase wall clock, with children
    ///   `execute.group` (the group plans' shared data slicing +
    ///   original-side reenactment, itself broken down per relation as
    ///   `execute.group.<relation>`) and the per-scenario
    ///   [`PhaseTimings`](crate::PhaseTimings) summed across the batch
    ///   (`execute.copy`, `execute.program_slicing`,
    ///   `execute.data_slicing`, `execute.reenact`, `execute.delta`).
    ///
    /// Child spans under `execute` aggregate work that ran in parallel on
    /// the worker pool, so their summed durations may exceed the parent's
    /// wall clock; their `start` offsets equal the parent's (the engine
    /// records durations, not per-worker offsets). Zero-duration children
    /// are omitted — a `ReenactPsDs` batch reports no `execute.copy`.
    pub fn trace_spans(&self, start: Duration) -> Vec<mahif_obs::Span> {
        let mut spans = Vec::new();
        let push = |spans: &mut Vec<mahif_obs::Span>, name: &str, at: Duration, d: Duration| {
            if !d.is_zero() {
                spans.push(mahif_obs::Span {
                    name: name.to_string(),
                    start: at,
                    duration: d,
                });
            }
        };
        let stats = &self.stats;
        let plan = stats.normalize + stats.slicing;
        push(&mut spans, "plan", start, plan);
        push(&mut spans, "plan.normalize", start, stats.normalize);
        push(
            &mut spans,
            "plan.slicing",
            start + stats.normalize,
            stats.slicing,
        );
        let exec_start = start + plan;
        push(&mut spans, "execute", exec_start, stats.execution);
        push(
            &mut spans,
            "execute.group",
            exec_start,
            stats.group_reenactment,
        );
        for (relation, duration) in &stats.plan_relations {
            push(
                &mut spans,
                &format!("execute.group.{relation}"),
                exec_start,
                *duration,
            );
        }
        // The per-scenario engine timings, summed across the batch.
        let mut copy = Duration::ZERO;
        let mut ps = Duration::ZERO;
        let mut ds = Duration::ZERO;
        let mut exe = Duration::ZERO;
        let mut delta = Duration::ZERO;
        for t in self.scenarios.iter().map(|s| &s.answer.timings) {
            copy += t.copy;
            ps += t.program_slicing;
            ds += t.data_slicing;
            exe += t.execution;
            delta += t.delta;
        }
        push(&mut spans, "execute.copy", exec_start, copy);
        push(&mut spans, "execute.program_slicing", exec_start, ps);
        push(&mut spans, "execute.data_slicing", exec_start, ds);
        push(&mut spans, "execute.reenact", exec_start, exe);
        push(&mut spans, "execute.delta", exec_start, delta);
        spans
    }

    /// The request's scenarios ranked by the net change of the impact
    /// metric, largest first, ties broken by name, with 1-based ranks and
    /// the metric's baseline over the current state. `None` when the
    /// request carried no [`ImpactSpec`](crate::ImpactSpec).
    pub fn ranking(&self) -> Option<ScenarioComparison> {
        let reports = self
            .scenarios
            .iter()
            .map(|s| Some((s.name.clone(), s.impact.clone()?)))
            .collect::<Option<Vec<_>>>()?;
        ScenarioComparison::rank(reports)
    }

    /// Consumes the response into the first scenario's answer (the whole
    /// answer for a single query).
    pub fn into_answer(self) -> WhatIfAnswer {
        self.scenarios
            .into_iter()
            .next()
            .expect("a response answers >= 1 scenario")
            .answer
    }
}

impl<'a> IntoIterator for &'a Response {
    type Item = &'a ScenarioResponse;
    type IntoIter = std::slice::Iter<'a, ScenarioResponse>;

    fn into_iter(self) -> Self::IntoIter {
        self.scenarios.iter()
    }
}

impl fmt::Display for Response {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "response for history '{}' ({}, {} scenario(s), {} slice group(s), total {:?}):",
            self.history,
            self.method,
            self.stats.scenarios,
            self.stats.slice_groups,
            self.stats.total
        )?;
        for s in &self.scenarios {
            writeln!(f, "scenario '{}':", s.name)?;
            write!(f, "{}", s.answer)?;
            if let Some(report) = &s.impact {
                write!(f, "{report}")?;
            }
        }
        Ok(())
    }
}
