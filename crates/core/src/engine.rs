//! The reenactment-based execution engine (Algorithm 2) and the dispatch to
//! the naïve baseline (Algorithm 1).
//!
//! The engine is organized around **group execution plans**: scenarios of a
//! batch whose normalizations share the original history and the modified
//! positions form a group (see `mahif_slicing::groups`), and everything in
//! the reenactment pipeline that depends only on the shared side is computed
//! once per group by [`GroupPlan::build`] — the sliced original history, the
//! group-level data-slicing conditions and, crucially, the *original-side
//! reenactment result per relation*, which is identical across all group
//! members. [`GroupPlan::answer_in_group`] then answers one member with only
//! the member-specific work: the modified-side reenactment and the delta
//! against the cached original relations. A single query is a group of one,
//! so [`answer_normalized`] is a thin wrapper that builds a singleton plan
//! and answers it.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mahif_expr::Expr;
use mahif_history::{
    naive_what_if, DatabaseDelta, History, NormalizedWhatIf, RelationDelta, WhatIfRef,
};
use mahif_query::{count_where, evaluate, filter_relation};
use mahif_reenact::columnar::reenact_side_columnar;
use mahif_reenact::split::{split_reenactment, SplitReenactment};
use mahif_slicing::{
    apply_data_slicing, data_slicing_conditions, data_slicing_conditions_multi, greedy_slice,
    program_slice, DataSlicingConditions, GreedyConfig, ProgramSliceResult,
};
use mahif_storage::{ColumnarRelation, Database, Relation, VersionedDatabase};

use crate::config::{Deadline, EngineConfig, Method};
use crate::error::MahifError;
use crate::stats::{EngineStats, PhaseTimings, WhatIfAnswer};

/// Answers a historical what-if query with the given method.
///
/// The query is the borrowed view [`WhatIfRef`] (a `&HistoricalWhatIf`
/// converts via `Into`): the engine never clones the registered history or
/// the pre-history state, so a long-lived [`crate::Session`] answers every
/// request against the state it registered once. `versioned` must hold
/// `query.database` as `D` and the result of executing `query.history`
/// over it as `H(D)` (the session maintains it); the naive method reads
/// only `H(D)`.
pub fn answer_what_if<'a>(
    query: impl Into<WhatIfRef<'a>>,
    versioned: &VersionedDatabase,
    method: Method,
    config: &EngineConfig,
) -> Result<WhatIfAnswer, MahifError> {
    let query = query.into();
    match method {
        Method::Naive => answer_naive(query, versioned.current()),
        _ => answer_reenactment(query, versioned, method, config),
    }
}

fn answer_naive(
    query: WhatIfRef<'_>,
    current_state: &Database,
) -> Result<WhatIfAnswer, MahifError> {
    let result = naive_what_if(query, current_state)?;
    let stats = EngineStats {
        statements_total: query.history.len(),
        statements_reenacted: query.history.len(),
        solver_calls: 0,
        input_tuples: query.database.total_tuples(),
        total_tuples: query.database.total_tuples(),
        ..Default::default()
    };
    Ok(WhatIfAnswer {
        delta: result.delta,
        timings: PhaseTimings {
            copy: result.breakdown.creation,
            execution: result.breakdown.execution,
            delta: result.breakdown.delta,
            ..Default::default()
        },
        stats,
    })
}

fn answer_reenactment(
    query: WhatIfRef<'_>,
    versioned: &VersionedDatabase,
    method: Method,
    config: &EngineConfig,
) -> Result<WhatIfAnswer, MahifError> {
    // Normalize the modifications into two equal-length histories related by
    // replacements only (Section 3 / Section 6).
    let normalized = query.normalize()?;
    let slice = compute_program_slice(&normalized, versioned.initial(), method, config)?;
    answer_normalized(&normalized, &slice, versioned, method, config)
}

/// Phase 1 of the reenactment engine: the program slice for a normalized
/// what-if query (the trivial keep-all slice for methods without program
/// slicing). Exposed so batch engines can compute — or share — slices
/// separately from reenactment; see [`answer_normalized`].
pub fn compute_program_slice(
    normalized: &NormalizedWhatIf,
    base_db: &Database,
    method: Method,
    config: &EngineConfig,
) -> Result<ProgramSliceResult, MahifError> {
    if !method.uses_program_slicing() || normalized.modified_positions.is_empty() {
        return Ok(ProgramSliceResult::keep_all(normalized.original.len()));
    }
    let start = Instant::now();
    let mut result = if config.use_greedy_slicer {
        greedy_slice(
            &normalized.original,
            &normalized.modified,
            &normalized.modified_positions,
            base_db,
            &GreedyConfig {
                compression: config.compression.clone(),
                solver: config.solver.clone(),
            },
        )?
    } else {
        program_slice(
            &normalized.original,
            &normalized.modified,
            &normalized.modified_positions,
            base_db,
            &config.slicing(),
        )?
    };
    result.duration = start.elapsed();
    Ok(result)
}

/// Phases 2–4 of the reenactment engine (data slicing, reenactment, delta)
/// for an already-normalized query and an already-computed program slice.
///
/// `slice` must be answer-preserving for `normalized` over the initial state
/// of `versioned` — either produced by [`compute_program_slice`] for this
/// exact query, or a shared slice certified for a whole scenario group (see
/// `mahif_slicing::program_slice_multi`). Keeping more statements than the
/// per-query minimum is always sound; the delta is unchanged, only the
/// reenactment cost grows.
///
/// A single query is a group of one: this builds a singleton [`GroupPlan`]
/// and answers its only member, with the shared phases' timings folded into
/// the member's answer.
pub fn answer_normalized(
    normalized: &NormalizedWhatIf,
    slice: &ProgramSliceResult,
    versioned: &VersionedDatabase,
    method: Method,
    config: &EngineConfig,
) -> Result<WhatIfAnswer, MahifError> {
    let plan = GroupPlan::build(&[normalized], slice, versioned, method, config, None)?;
    plan.answer_in_group(normalized, versioned)
}

/// Work counters for the columnar reenactment path, threaded through
/// [`reenact_side`] so one call site can attribute the work to either the
/// plan's shared original-side phase or a member's answer.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ColumnarCounters {
    /// Per-relation reenactments answered batch-at-a-time.
    pub batches: usize,
    /// Flat predicate/projection programs evaluated vectorized.
    pub predicates: usize,
    /// Attempted columnar reenactments that declined and re-ran on the row
    /// path (not counted when the path is disabled by configuration).
    pub fallbacks: usize,
}

/// The once-per-group half of the reenactment engine.
///
/// Scenarios whose normalizations share `(original, modified_positions)` —
/// a slice-sharing group — also share everything in phases 2–3 that depends
/// only on the original side: the sliced original history, the data-slicing
/// conditions and the original-side reenactment result per relation. A
/// `GroupPlan` computes all of that exactly once;
/// [`answer_in_group`](Self::answer_in_group) answers one member with only
/// the member-specific work (modified-side reenactment + delta against the
/// cached original relations).
///
/// **Why the original side is shareable.** Per-scenario data slicing
/// derives a condition pair that may differ across members (each member's
/// filter mentions *its* replacement's condition). The plan instead uses
/// the group-level symmetric conditions of
/// [`data_slicing_conditions_multi`]: one condition per relation — the
/// disjunction of all members' per-side conditions — applied to *both*
/// sides of *every* member. Tuples kept beyond a member's own filter are,
/// for that member, unaffected by the modification; they reenact to
/// identical rows on both sides and cancel in the symmetric difference, so
/// every member's delta is byte-identical to its individual answer while
/// the original-side reenactment query (and result) becomes literally the
/// same for all members. A singleton group keeps the member's own
/// (possibly asymmetric) conditions, so single queries behave exactly as
/// before.
///
/// A plan owns everything it needs (its `EngineConfig` is cloned at build
/// time), so it can outlive the request that built it — the session's
/// cross-request provisioning cache (see `crate::provision`) stores plans
/// and answers later requests from them via
/// [`answer_cached`](Self::answer_cached).
#[derive(Debug)]
pub struct GroupPlan {
    method: Method,
    config: EngineConfig,
    slice_duration: Duration,
    solver_calls: usize,
    statements_total: usize,
    statements_reenacted: usize,
    group_size: usize,
    /// Empty groups (no modified positions) answer the empty delta.
    empty: bool,
    /// Positions kept by the group's program slice; members restrict their
    /// modified histories to these.
    kept_positions: Vec<usize>,
    conditions: DataSlicingConditions,
    /// Group conditions are symmetric (same condition on both sides), so
    /// per-member input counts equal the original-side counts.
    symmetric: bool,
    /// Relations touched by the group's sliced histories, sorted.
    relations: Vec<String>,
    /// For multi-member groups, the data-sliced base relation materialized
    /// once per relation (parallel to `relations`): the group condition is
    /// evaluated over the stored relation a single time, and every member
    /// reenacts over the pre-filtered tuples with a `true` condition —
    /// instead of k members each re-evaluating the condition over the full
    /// relation. `None` when the condition is trivial (nothing to filter)
    /// or when an `INSERT ... SELECT` is in play (its branches must read
    /// unfiltered base relations).
    filtered_base: Vec<Option<Database>>,
    /// Columnar encoding of each relation's reenactment base (parallel to
    /// `relations`), built once at plan time so neither the shared phase
    /// nor any of the k members re-encodes the stored tuples. Follows the
    /// same source as the row path: the pre-filtered shadow relation when
    /// one was materialized, the stored relation otherwise. `None` when the
    /// relation has a mixed-type column (no typed encoding) or the columnar
    /// path is disabled by configuration.
    columnar_base: Vec<Option<ColumnarRelation>>,
    /// Columnar-path work counters of the shared original-side phase,
    /// folded into the answer for singleton groups (like the shared
    /// timings) and reported at the batch level otherwise.
    shared_columnar: ColumnarCounters,
    /// Original-side reenactment result per relation (parallel to
    /// `relations`) — the shared half of phase 3, computed once and sorted
    /// by `Tuple::total_cmp` for the members' delta merges. Shared, not
    /// copied, by every member's delta: its `−` tuples are positions into
    /// these relations (see `RelationDelta`).
    original_results: Vec<Arc<Relation>>,
    /// `count_matching` of the original-side condition per relation
    /// (parallel to `relations`), for the input-tuple statistics.
    original_matching: Vec<usize>,
    total_tuples: usize,
    shared_data_slicing: Duration,
    shared_reenactment: Duration,
    /// Wall-clock time of the shared original-side reenactment, per
    /// relation (parallel to `relations`) — the per-relation breakdown of
    /// `shared_reenactment`, surfaced to tracing layers so a slow plan
    /// build is attributable to the relation that cost it.
    relation_timings: Vec<Duration>,
}

// Cached plans are shared across request threads on one `Arc<Session>`.
// Compile-time regression guard.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<GroupPlan>();
};

impl GroupPlan {
    /// Builds the plan for a slice-sharing group.
    ///
    /// `members` are the group's normalized queries: all must share the
    /// original history and modified positions (the grouping invariant of
    /// `mahif_slicing::group_scenarios`), and `slice` must be
    /// answer-preserving for every member (a shared
    /// `program_slice_multi` slice, or any per-member slice for a
    /// singleton group).
    ///
    /// `deadline` is the request budget's armed wall clock (if any): the
    /// plan's per-relation loop — the group's shared data slicing and
    /// original-side reenactment — re-checks it between relations, so an
    /// over-deadline batch fails fast with a structured
    /// `ErrorKind::BudgetExceeded` instead of reenacting every relation
    /// first.
    pub fn build(
        members: &[&NormalizedWhatIf],
        slice: &ProgramSliceResult,
        versioned: &VersionedDatabase,
        method: Method,
        config: &EngineConfig,
        deadline: Option<Deadline>,
    ) -> Result<GroupPlan, MahifError> {
        let first = members
            .first()
            .ok_or_else(|| MahifError::from(mahif_slicing::SlicingError::EmptyScenarioGroup))?;
        let statements_total = first.original.len();
        if first.modified_positions.is_empty() {
            return Ok(GroupPlan {
                method,
                config: config.clone(),
                slice_duration: Duration::default(),
                solver_calls: 0,
                statements_total,
                statements_reenacted: 0,
                group_size: members.len(),
                empty: true,
                kept_positions: Vec::new(),
                conditions: DataSlicingConditions::default(),
                symmetric: true,
                relations: Vec::new(),
                filtered_base: Vec::new(),
                columnar_base: Vec::new(),
                shared_columnar: ColumnarCounters::default(),
                original_results: Vec::new(),
                original_matching: Vec::new(),
                total_tuples: 0,
                shared_data_slicing: Duration::default(),
                shared_reenactment: Duration::default(),
                relation_timings: Vec::new(),
            });
        }

        // The reenactment base is the time-travel state `D` before the
        // history. Program slicing (both the dependency test and the greedy
        // ζ check) certifies that the sliced histories produce the same
        // delta as the full histories *over this state*, so no later
        // snapshot is needed.
        let base_db = versioned.initial();

        let sliced_original = first.original.restrict(&slice.kept_positions);
        // Positions of the modified statements within the restricted
        // histories, via a single position → index map (not a quadratic
        // `position()` scan per modified statement).
        let kept_index: BTreeMap<usize, usize> = slice
            .kept_positions
            .iter()
            .enumerate()
            .map(|(idx, &p)| (p, idx))
            .collect();
        let restricted_positions: Vec<usize> = first
            .modified_positions
            .iter()
            .filter_map(|p| kept_index.get(p).copied())
            .collect();

        // Phase 2: data slicing. Singleton groups use the member's own
        // (possibly asymmetric) conditions — exactly the single-query
        // behavior; larger groups use the symmetric group conditions so the
        // original side is shared.
        let symmetric = members.len() > 1;
        let mut shared_data_slicing = Duration::default();
        let conditions: DataSlicingConditions = if method.uses_data_slicing() {
            let start = Instant::now();
            let c = if symmetric {
                let sliced_variants: Vec<History> = members
                    .iter()
                    .map(|m| m.modified.restrict(&slice.kept_positions))
                    .collect();
                data_slicing_conditions_multi(
                    &sliced_original,
                    &sliced_variants,
                    &restricted_positions,
                )?
            } else {
                let sliced_modified = first.modified.restrict(&slice.kept_positions);
                data_slicing_conditions(&sliced_original, &sliced_modified, &restricted_positions)?
            };
            shared_data_slicing = start.elapsed();
            c
        } else {
            DataSlicingConditions::default()
        };

        // Relations touched by the group: the sliced original plus every
        // member's sliced modified statements (identical across members by
        // the normalization invariant, but unioned for safety).
        let mut relation_set: BTreeSet<String> = BTreeSet::new();
        for stmt in sliced_original.statements() {
            relation_set.insert(stmt.relation().to_string());
        }
        for member in members {
            for &p in &restricted_positions {
                let original_pos = slice.kept_positions[p];
                if let Ok(stmt) = member.modified.statement(original_pos) {
                    relation_set.insert(stmt.relation().to_string());
                }
            }
        }
        let relations: Vec<String> = relation_set.into_iter().collect();

        // Materialize the data-sliced base relation once per relation for
        // multi-member groups: the (possibly large) group condition is then
        // evaluated once instead of once per member. `INSERT ... SELECT`
        // branches read unfiltered base relations through the same database
        // handle, so their presence anywhere in the group's histories
        // disables the materialization (the inline filter path is used
        // instead — identical results either way).
        let has_insert_query = first
            .original
            .statements()
            .iter()
            .chain(members.iter().flat_map(|m| m.modified.statements()))
            .any(|s| matches!(s, mahif_history::Statement::InsertQuery { .. }));
        let start = Instant::now();
        let mut filtered_base: Vec<Option<Database>> = Vec::with_capacity(relations.len());
        for relation in &relations {
            if let Some(deadline) = &deadline {
                deadline.check()?;
            }
            let cond = conditions.original_for(relation);
            if symmetric && !has_insert_query && !cond.is_true() {
                let filtered = filter_relation(base_db.relation(relation)?, &cond)?;
                let mut shadow = Database::new();
                shadow.put_relation(filtered);
                filtered_base.push(Some(shadow));
            } else {
                filtered_base.push(None);
            }
        }

        // Encode each relation's reenactment base into typed columns once
        // for the whole group — the shared phase and every member consume
        // the same immutable batch (its columns are `Arc`-shared, so a
        // member's reenactment never copies untouched attributes). The
        // source mirrors the row path's choice: the shadow relation when
        // one was materialized, the stored relation otherwise.
        let columnar_base: Vec<Option<ColumnarRelation>> = relations
            .iter()
            .zip(filtered_base.iter())
            .map(|(relation, shadow)| {
                if config.disable_columnar {
                    return Ok(None);
                }
                let rel = match shadow {
                    Some(shadow) => shadow.relation(relation)?,
                    None => base_db.relation(relation)?,
                };
                Ok(rel.to_columnar())
            })
            .collect::<Result<_, MahifError>>()?;

        // Phase 3a: the original-side reenactment, once per relation for the
        // whole group.
        let mut shared_columnar = ColumnarCounters::default();
        let mut original_results = Vec::with_capacity(relations.len());
        let mut relation_timings = Vec::with_capacity(relations.len());
        for ((relation, shadow), cbase) in relations
            .iter()
            .zip(filtered_base.iter())
            .zip(columnar_base.iter())
        {
            if let Some(deadline) = &deadline {
                deadline.check()?;
            }
            let relation_start = Instant::now();
            let schema = base_db.relation(relation)?.schema.clone();
            let (db, cond) = match shadow {
                Some(shadow) => (shadow, Expr::true_()),
                None => (base_db, conditions.original_for(relation)),
            };
            let mut original = reenact_side(
                &sliced_original,
                &first.original,
                relation,
                &schema,
                &cond,
                db,
                config,
                cbase.as_ref(),
                &mut shared_columnar,
            )?;
            // Sorted once here, so every member's delta is a merge against
            // it and sorts only its own modified side.
            original.sort();
            original_results.push(Arc::new(original));
            relation_timings.push(relation_start.elapsed());
        }
        let shared_reenactment = start.elapsed();

        // Input-size statistics shared by the group (outside the timed
        // phases).
        let mut total_tuples = 0;
        let mut original_matching = Vec::with_capacity(relations.len());
        for (relation, shadow) in relations.iter().zip(filtered_base.iter()) {
            let rel = base_db.relation(relation)?;
            total_tuples += rel.len();
            original_matching.push(match shadow {
                Some(shadow) => shadow.relation(relation)?.len(),
                None => count_matching(rel, &conditions.original_for(relation))?,
            });
        }

        Ok(GroupPlan {
            method,
            config: config.clone(),
            slice_duration: slice.duration,
            solver_calls: slice.solver_calls,
            statements_total,
            statements_reenacted: slice.kept_positions.len(),
            group_size: members.len(),
            empty: false,
            kept_positions: slice.kept_positions.clone(),
            conditions,
            symmetric,
            relations,
            filtered_base,
            columnar_base,
            shared_columnar,
            original_results,
            original_matching,
            total_tuples,
            shared_data_slicing,
            shared_reenactment,
            relation_timings,
        })
    }

    /// Answers one group member: reenacts the member's modified history per
    /// relation (phase 3b) and computes the delta against the plan's cached
    /// original-side results (phase 4).
    ///
    /// `member` must be one of the normalized queries the plan was built
    /// from (same original history, same modified positions). For a
    /// singleton group the shared phases' timings and work counters are
    /// folded into the member's answer — the exact single-query behavior;
    /// for larger groups the member reports only its own work, with
    /// [`EngineStats::shared_work`] set so consumers know the shared
    /// slicing / original-reenactment cost is reported once at the batch
    /// level instead (see `BatchStats`).
    pub fn answer_in_group(
        &self,
        member: &NormalizedWhatIf,
        versioned: &VersionedDatabase,
    ) -> Result<WhatIfAnswer, MahifError> {
        self.answer_member(member, versioned, self.group_size == 1)
    }

    /// Answers one member from a *reused* plan: the delta is byte-identical
    /// to [`answer_in_group`](Self::answer_in_group), but the shared phases
    /// are never folded into the member's answer — a cross-request cache
    /// hit did not slice, derive conditions or reenact the original side,
    /// so re-attributing that work (even for a singleton plan) would
    /// overstate what the request actually did. [`EngineStats::shared_work`]
    /// is set so consumers know the shared cost lives elsewhere.
    pub fn answer_cached(
        &self,
        member: &NormalizedWhatIf,
        versioned: &VersionedDatabase,
    ) -> Result<WhatIfAnswer, MahifError> {
        self.answer_member(member, versioned, false)
    }

    /// The member-specific half of the engine; `fold_shared` re-attributes
    /// the plan's shared phases (slice, conditions, original reenactment)
    /// to this answer — exact single-query behavior for freshly built
    /// singleton plans.
    fn answer_member(
        &self,
        member: &NormalizedWhatIf,
        versioned: &VersionedDatabase,
        fold_shared: bool,
    ) -> Result<WhatIfAnswer, MahifError> {
        let solo = fold_shared;
        let mut timings = PhaseTimings::default();
        let mut stats = EngineStats {
            statements_total: self.statements_total,
            ..Default::default()
        };
        if self.empty {
            return Ok(WhatIfAnswer {
                delta: DatabaseDelta::default(),
                timings,
                stats,
            });
        }
        stats.statements_reenacted = self.statements_reenacted;
        stats.shared_work = !solo;
        if solo {
            // Fold the shared phases into the only member, as a standalone
            // single query reports them.
            timings.program_slicing = self.slice_duration;
            timings.data_slicing = self.shared_data_slicing;
            stats.solver_calls = self.solver_calls;
            stats.original_reenactments = self.relations.len();
            stats.columnar_batches = self.shared_columnar.batches;
            stats.vectorized_predicates = self.shared_columnar.predicates;
            stats.row_fallbacks = self.shared_columnar.fallbacks;
        }

        let base_db = versioned.initial();
        let sliced_modified = member.modified.restrict(&self.kept_positions);

        // Phase 3b: the member's modified-side reenactment, over the plan's
        // pre-filtered base relations where materialized.
        let start = Instant::now();
        let mut member_columnar = ColumnarCounters::default();
        let mut modified_results = Vec::with_capacity(self.relations.len());
        for ((relation, shadow), cbase) in self
            .relations
            .iter()
            .zip(self.filtered_base.iter())
            .zip(self.columnar_base.iter())
        {
            let schema = base_db.relation(relation)?.schema.clone();
            let (db, cond) = match shadow {
                Some(shadow) => (shadow, Expr::true_()),
                None => (base_db, self.conditions.modified_for(relation)),
            };
            modified_results.push(reenact_side(
                &sliced_modified,
                &member.modified,
                relation,
                &schema,
                &cond,
                db,
                &self.config,
                cbase.as_ref(),
                &mut member_columnar,
            )?);
        }
        stats.columnar_batches += member_columnar.batches;
        stats.vectorized_predicates += member_columnar.predicates;
        stats.row_fallbacks += member_columnar.fallbacks;
        timings.execution = start.elapsed();
        if solo {
            timings.execution += self.shared_reenactment;
        }

        // Phase 4: delta against the cached (pre-sorted) original-side
        // results; only the member's own side needs sorting. The delta
        // points into the shared original side and moves its `+` tuples out
        // of the member's: no tuple is copied.
        let start = Instant::now();
        let mut deltas = Vec::new();
        for ((relation, left), mut right) in self
            .relations
            .iter()
            .zip(self.original_results.iter())
            .zip(modified_results)
        {
            right.sort();
            let delta = RelationDelta::compute_sorted(relation, left, right);
            if !delta.is_empty() {
                deltas.push(delta);
            }
        }
        timings.delta = start.elapsed();

        // Input-size statistics. Group conditions are symmetric, so the
        // modified-side count equals the cached original-side count; only a
        // singleton group's asymmetric conditions need a second count.
        stats.total_tuples = self.total_tuples;
        for (relation, &original_count) in self.relations.iter().zip(self.original_matching.iter())
        {
            let modified_count = if self.symmetric {
                original_count
            } else {
                let rel = base_db.relation(relation)?;
                count_matching(rel, &self.conditions.modified_for(relation))?
            };
            stats.input_tuples += original_count.max(modified_count);
        }

        Ok(WhatIfAnswer {
            delta: DatabaseDelta::from_relations(deltas),
            timings,
            stats,
        })
    }

    /// Number of scenarios the plan was built for.
    pub fn group_size(&self) -> usize {
        self.group_size
    }

    /// Number of original-side reenactments the plan performed (one per
    /// relation; `0` for an empty group).
    pub fn original_reenactments(&self) -> usize {
        self.relations.len()
    }

    /// Wall-clock time of the plan's shared phases (group data-slicing
    /// conditions + original-side reenactment).
    pub fn shared_duration(&self) -> Duration {
        self.shared_data_slicing + self.shared_reenactment
    }

    /// Columnar-path work counters of the plan's shared original-side
    /// phase. Like `shared_duration`, these are reported at the batch
    /// level for multi-member groups (a singleton group folds them into
    /// its member's answer instead).
    pub(crate) fn shared_columnar(&self) -> ColumnarCounters {
        self.shared_columnar
    }

    /// The execution method the plan was built for.
    pub fn method(&self) -> Method {
        self.method
    }

    /// The relations the plan's cached original-side results cover, sorted.
    /// The provisioning cache records these per entry so a future
    /// streaming-append path can invalidate exactly the plans whose
    /// dependencies an appended statement touches.
    pub fn relations(&self) -> &[String] {
        &self.relations
    }

    /// The plan's sorted original-side reenactment of `relation`, the side
    /// every member's delta points its `−` tuples into (`None` for a
    /// relation the plan does not cover).
    pub fn original_side(&self, relation: &str) -> Option<&Arc<Relation>> {
        let i = self.relations.iter().position(|r| r == relation)?;
        Some(&self.original_results[i])
    }

    /// A rough estimate of the plan's resident size in bytes (cached
    /// relation tuples dominate). Used by the provisioning cache's byte
    /// budget; deliberately cheap and approximate, not an allocator count.
    pub fn approx_bytes(&self) -> usize {
        // A stored tuple is a Vec of values plus per-tuple bookkeeping;
        // 64 bytes is a deliberately generous per-tuple charge so the byte
        // budget errs toward evicting early rather than blowing the cap.
        const TUPLE_COST: usize = 64;
        let cached_tuples: usize = self.original_results.iter().map(|r| r.len()).sum::<usize>()
            + self
                .filtered_base
                .iter()
                .flatten()
                .map(Database::total_tuples)
                .sum::<usize>();
        let columnar_bytes: usize = self
            .columnar_base
            .iter()
            .flatten()
            .map(ColumnarRelation::approx_bytes)
            .sum();
        1024 + cached_tuples * TUPLE_COST + columnar_bytes + self.kept_positions.len() * 16
    }

    /// The shared original-side reenactment time per relation, in the
    /// plan's (sorted) relation order — the per-relation breakdown of
    /// [`shared_duration`](Self::shared_duration)'s reenactment half.
    pub fn relation_timings(&self) -> impl Iterator<Item = (&str, Duration)> {
        self.relations
            .iter()
            .map(String::as_str)
            .zip(self.relation_timings.iter().copied())
    }
}

fn count_matching(rel: &Relation, cond: &Expr) -> Result<usize, MahifError> {
    if cond.is_true() {
        return Ok(rel.len());
    }
    if cond.is_false() {
        return Ok(0);
    }
    Ok(count_where(rel, cond)?)
}

/// Reenacts one history over one relation, applying the data-slicing
/// condition and, unless disabled, the insert-split of Section 10 (the
/// no-insert branch reenacts the *sliced* history over the filtered stored
/// relation, the insert branches reenact the *unsliced* suffix over each
/// insert's own small input, and the results are unioned).
///
/// The columnar fast path is tried first when a typed encoding of the base
/// relation is available (`columnar_base`, or an ad-hoc encoding when the
/// caller has none): it produces tuple-for-tuple the same relation as the
/// row path or declines (`None`), in which case the row path below runs
/// unchanged — so every error the row evaluator would report still
/// surfaces, and `disable_columnar` is a pure ablation switch.
#[allow(clippy::too_many_arguments)]
fn reenact_side(
    sliced: &History,
    full_tail: &History,
    relation: &str,
    schema: &mahif_storage::SchemaRef,
    condition: &Expr,
    base_db: &Database,
    config: &EngineConfig,
    columnar_base: Option<&ColumnarRelation>,
    counters: &mut ColumnarCounters,
) -> Result<Relation, MahifError> {
    let has_inserts = full_tail.statements().iter().any(|s| {
        s.relation() == relation
            && matches!(
                s,
                mahif_history::Statement::InsertValues { .. }
                    | mahif_history::Statement::InsertQuery { .. }
            )
    });
    // The inline-insert ablation (`disable_insert_split` with inserts in
    // play) reenacts the full suffix through the query evaluator; the
    // columnar path only mirrors the split shape, so it stands aside there
    // rather than counting a fallback.
    if !(config.disable_columnar || (has_inserts && config.disable_insert_split)) {
        let owned;
        let cbase = match columnar_base {
            Some(c) => Some(c),
            None => {
                owned = base_db
                    .relation(relation)
                    .ok()
                    .and_then(Relation::to_columnar);
                owned.as_ref()
            }
        };
        match cbase.and_then(|cb| {
            reenact_side_columnar(sliced, full_tail, relation, schema, condition, base_db, cb)
        }) {
            Some(outcome) => {
                counters.batches += 1;
                counters.predicates += outcome.vectorized_predicates;
                return Ok(outcome.relation);
            }
            None => counters.fallbacks += 1,
        }
    }
    if !has_inserts {
        let query = apply_data_slicing(sliced, relation, schema, condition);
        return Ok(evaluate(&query, base_db)?);
    }
    if config.disable_insert_split {
        // Without the split, inserted tuples flow through the inline unions of
        // the reenactment query, so statements excluded by program slicing
        // would silently not be applied to them. Reenacting the full suffix
        // keeps the ablation correct (and shows what the split buys).
        let query = apply_data_slicing(full_tail, relation, schema, condition);
        return Ok(evaluate(&query, base_db)?);
    }
    // Insert split: reenact the sliced updates/deletes over the filtered
    // scan, and each insert's contribution under the full suffix, then union.
    let SplitReenactment {
        no_insert_query, ..
    } = split_reenactment(sliced, relation, schema);
    let SplitReenactment {
        insert_branches, ..
    } = split_reenactment(full_tail, relation, schema);
    let filtered = if condition.is_true() {
        no_insert_query
    } else {
        inject_filter(no_insert_query, relation, condition)
    };
    let mut result = evaluate(&filtered, base_db)?;
    for branch in insert_branches {
        let branch_result = evaluate(&branch, base_db)?;
        result = result.union_all(&branch_result)?;
    }
    Ok(result)
}

/// Replaces the single base scan of `relation` in a no-insert reenactment
/// query with a filtered scan.
fn inject_filter(
    query: mahif_query::Query,
    relation: &str,
    condition: &Expr,
) -> mahif_query::Query {
    use mahif_query::Query;
    match query {
        Query::Scan { relation: r } if r == relation => {
            Query::select(condition.clone(), Query::Scan { relation: r })
        }
        Query::Select { cond, input } => Query::Select {
            cond,
            input: Box::new(inject_filter(*input, relation, condition)),
        },
        Query::Project { items, input } => Query::Project {
            items,
            input: Box::new(inject_filter(*input, relation, condition)),
        },
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mahif_expr::builder::*;
    use mahif_expr::Value;
    use mahif_history::statement::{
        running_example_database, running_example_history, running_example_u1_prime,
    };
    use mahif_history::{HistoricalWhatIf, Modification, ModificationSet, SetClause, Statement};
    use mahif_storage::Tuple;

    /// The pair `D`, `H(D)` for `history` over `db`.
    fn versioned(history: &History, db: &Database) -> VersionedDatabase {
        VersionedDatabase::new(db.clone(), history.execute(db).unwrap())
    }

    fn setup(modifications: ModificationSet) -> (HistoricalWhatIf, VersionedDatabase) {
        let db = running_example_database();
        let history = History::new(running_example_history());
        let versioned = versioned(&history, &db);
        (HistoricalWhatIf::new(history, db, modifications), versioned)
    }

    fn all_methods_agree(modifications: ModificationSet) {
        let (query, versioned) = setup(modifications);
        let reference = query.answer_by_direct_execution().unwrap();
        for method in Method::all() {
            let answer =
                answer_what_if(&query, &versioned, method, &EngineConfig::default()).unwrap();
            assert_eq!(
                answer.delta,
                reference,
                "method {} disagrees with direct execution",
                method.label()
            );
        }
    }

    #[test]
    fn all_methods_running_example() {
        all_methods_agree(ModificationSet::single_replace(
            0,
            running_example_u1_prime(),
        ));
    }

    #[test]
    fn all_methods_statement_deletion() {
        all_methods_agree(ModificationSet::new(vec![Modification::delete(1)]));
    }

    #[test]
    fn all_methods_statement_insertion() {
        let extra = Statement::update(
            "Order",
            SetClause::single("ShippingFee", add(attr("ShippingFee"), lit(1))),
            eq(attr("Country"), slit("US")),
        );
        all_methods_agree(ModificationSet::new(vec![Modification::insert(3, extra)]));
    }

    #[test]
    fn all_methods_multiple_modifications() {
        let u3_prime = Statement::update(
            "Order",
            SetClause::single("ShippingFee", sub(attr("ShippingFee"), lit(2))),
            and(le(attr("Price"), lit(40)), ge(attr("ShippingFee"), lit(10))),
        );
        all_methods_agree(ModificationSet::new(vec![
            Modification::replace(0, running_example_u1_prime()),
            Modification::replace(2, u3_prime),
        ]));
    }

    #[test]
    fn all_methods_with_inserts_in_history() {
        // Extend the history with an insert and a delete, then modify u1.
        let db = running_example_database();
        let mut statements = running_example_history();
        statements.push(Statement::insert_values(
            "Order",
            Tuple::new(vec![
                Value::int(15),
                Value::str("Eve"),
                Value::str("UK"),
                Value::int(55),
                Value::int(7),
            ]),
        ));
        statements.push(Statement::update(
            "Order",
            SetClause::single("ShippingFee", lit(1)),
            ge(attr("Price"), lit(52)),
        ));
        let history = History::new(statements);
        let versioned = versioned(&history, &db);
        let query = HistoricalWhatIf::new(
            history,
            db,
            ModificationSet::single_replace(0, running_example_u1_prime()),
        );
        let reference = query.answer_by_direct_execution().unwrap();
        for method in Method::all() {
            for disable_split in [false, true] {
                let config = EngineConfig {
                    disable_insert_split: disable_split,
                    ..Default::default()
                };
                let answer = answer_what_if(&query, &versioned, method, &config).unwrap();
                assert_eq!(
                    answer.delta,
                    reference,
                    "method {} (split disabled: {disable_split}) disagrees",
                    method.label()
                );
            }
        }
    }

    #[test]
    fn group_plan_matches_single_answers_and_counts_shared_work() {
        // A threshold sweep forms one group; the plan must answer every
        // member byte-identically to the single-query path while reenacting
        // the original side exactly once (per relation).
        let db = running_example_database();
        let history = History::new(running_example_history());
        let versioned = versioned(&history, &db);
        let thresholds = [55i64, 60, 65, 70];
        let make = |t: i64| {
            Statement::update(
                "Order",
                SetClause::single("ShippingFee", lit(0)),
                ge(attr("Price"), lit(t)),
            )
        };
        let normalized: Vec<NormalizedWhatIf> = thresholds
            .iter()
            .map(|&t| {
                let mods = ModificationSet::single_replace(0, make(t));
                WhatIfRef::new(&history, versioned.initial(), &mods)
                    .normalize()
                    .unwrap()
            })
            .collect();
        let members: Vec<&NormalizedWhatIf> = normalized.iter().collect();
        let variants: Vec<&History> = normalized.iter().map(|n| &n.modified).collect();
        let slice = mahif_slicing::program_slice_multi(
            &normalized[0].original,
            &variants,
            &normalized[0].modified_positions,
            versioned.initial(),
            &EngineConfig::default().slicing(),
        )
        .unwrap();
        let config = EngineConfig::default();
        let plan = GroupPlan::build(
            &members,
            &slice,
            &versioned,
            Method::ReenactPsDs,
            &config,
            None,
        )
        .unwrap();
        assert_eq!(plan.group_size(), 4);
        assert_eq!(
            plan.original_reenactments(),
            1,
            "one relation, reenacted once for the whole group"
        );
        assert_eq!(plan.method(), Method::ReenactPsDs);
        for (i, member) in normalized.iter().enumerate() {
            let answer = plan.answer_in_group(member, &versioned).unwrap();
            let mods = ModificationSet::single_replace(0, make(thresholds[i]));
            let reference = HistoricalWhatIf::new(history.clone(), db.clone(), mods.clone())
                .answer_by_direct_execution()
                .unwrap();
            assert_eq!(answer.delta, reference, "member {i} delta diverged");
            // Members report only their own work; the shared phases are
            // flagged, zeroed and reported at the plan level.
            assert!(answer.stats.shared_work);
            assert_eq!(answer.stats.original_reenactments, 0);
            assert_eq!(answer.timings.program_slicing, Duration::ZERO);
            assert_eq!(answer.timings.data_slicing, Duration::ZERO);
            // And match the single-query engine byte for byte on the delta.
            let query = HistoricalWhatIf::new(history.clone(), db.clone(), mods);
            let single = answer_what_if(&query, &versioned, Method::ReenactPsDs, &config).unwrap();
            assert_eq!(answer.delta, single.delta, "member {i} vs single");
            assert!(!single.stats.shared_work, "singles fold their own work");
            assert_eq!(single.stats.original_reenactments, 1);
        }
    }

    #[test]
    fn empty_group_plan_is_rejected_and_empty_positions_answer_empty() {
        let db = running_example_database();
        let history = History::new(running_example_history());
        let versioned = versioned(&history, &db);
        let config = EngineConfig::default();
        assert!(GroupPlan::build(
            &[],
            &ProgramSliceResult::keep_all(3),
            &versioned,
            Method::ReenactPsDs,
            &config,
            None
        )
        .is_err());
        let mods = ModificationSet::default();
        let normalized = WhatIfRef::new(&history, versioned.initial(), &mods)
            .normalize()
            .unwrap();
        let plan = GroupPlan::build(
            &[&normalized],
            &ProgramSliceResult::keep_all(3),
            &versioned,
            Method::ReenactPsDs,
            &config,
            None,
        )
        .unwrap();
        assert_eq!(plan.original_reenactments(), 0);
        let answer = plan.answer_in_group(&normalized, &versioned).unwrap();
        assert!(answer.delta.is_empty());
    }

    #[test]
    fn greedy_slicer_configuration() {
        let (query, versioned) = setup(ModificationSet::single_replace(
            0,
            running_example_u1_prime(),
        ));
        let reference = query.answer_by_direct_execution().unwrap();
        let config = EngineConfig {
            use_greedy_slicer: true,
            ..Default::default()
        };
        let answer = answer_what_if(&query, &versioned, Method::ReenactPsDs, &config).unwrap();
        assert_eq!(answer.delta, reference);
        assert!(answer.stats.solver_calls > 0);
    }

    #[test]
    fn stats_reflect_slicing() {
        let (query, versioned) = setup(ModificationSet::single_replace(
            0,
            running_example_u1_prime(),
        ));
        let answer = answer_what_if(
            &query,
            &versioned,
            Method::ReenactPsDs,
            &EngineConfig::default(),
        )
        .unwrap();
        // u3 is excluded by program slicing, the data slice keeps 2 of 4
        // tuples.
        assert_eq!(answer.stats.statements_total, 3);
        assert_eq!(answer.stats.statements_reenacted, 2);
        assert_eq!(answer.stats.total_tuples, 4);
        assert_eq!(answer.stats.input_tuples, 2);
        assert!(answer.timings.program_slicing > std::time::Duration::ZERO);
        // Reenactment-only has no slicing cost and full input.
        let plain = answer_what_if(
            &query,
            &versioned,
            Method::Reenact,
            &EngineConfig::default(),
        )
        .unwrap();
        assert_eq!(plain.stats.statements_reenacted, 3);
        assert_eq!(plain.stats.input_tuples, 4);
        assert_eq!(plain.stats.solver_calls, 0);
    }

    #[test]
    fn empty_modifications_give_empty_answer() {
        let (query, versioned) = setup(ModificationSet::default());
        for method in Method::all() {
            let answer =
                answer_what_if(&query, &versioned, method, &EngineConfig::default()).unwrap();
            assert!(answer.delta.is_empty(), "method {}", method.label());
        }
    }
}
