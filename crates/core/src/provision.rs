//! Provisioning: per-history precomputed state and the cross-request plan
//! cache.
//!
//! The batch engine shares work *within* one request (one program slice and
//! one original-side reenactment per slice-sharing group). Provisioning —
//! after "Algorithms for Provisioning Queries and Analytics" (Assadi,
//! Khanna, Li, Tannen) — extends the idea *across* requests: registering a
//! history precomputes a compact [`Provisioned`] state (per-statement
//! dependency summaries plus a [`PlanCache`]), so a repeated or overlapping
//! scenario sweep against an unchanged history skips program slicing and
//! [`GroupPlan::build`] entirely and drops straight into the member-answer
//! phase.
//!
//! ## Soundness of cross-request reuse
//!
//! A cached multi-member plan's slice and symmetric data-slicing conditions
//! are certified for the member set it was built from. Supersets are sound
//! — tuples and statements kept beyond one member's needs reenact
//! identically on both sides and cancel in the symmetric difference — so a
//! plan built for members `S` answers any member `m ∈ S` byte-identically
//! to `m`'s individual answer. A member *not* in `S` may need work the
//! plan's slice or conditions exclude, so every [`CachedPlan`] records the
//! modified histories it was certified for and a lookup only hits when
//! **every** incoming member is certified — verified by full structural
//! equality, never by hash alone (the same rule
//! `mahif_slicing::group_scenarios` follows).
//!
//! ## Keys and invalidation
//!
//! Entries are keyed by `(history generation, canonical position set,
//! Method, plan-shape EngineConfig knobs)`; the key is a cheap filter, the
//! original history / positions / member certifications are then compared
//! structurally. The generation is bumped on every (re-)registration and
//! the cache itself lives on the registered history's state — which is
//! replaced wholesale on unregister/re-register — so a stale plan can never
//! be served. [`PlanCache::invalidate_relations`] is the finer-grained hook
//! a future streaming-append path will use: each entry records the
//! relations its cached results cover, so an appended statement invalidates
//! exactly the plans whose dependencies it touches.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use mahif_analyze::HistoryAnalysis;
use mahif_history::{History, Statement};
use mahif_slicing::{canonical_positions, position_set_hash, ProgramSliceResult};
use mahif_storage::Database;

use crate::config::{EngineConfig, Method};
use crate::engine::GroupPlan;

/// Session-wide provisioning knobs (see [`crate::Session::with_config`]).
///
/// Both limits apply per registered history (each history owns its own
/// [`PlanCache`]); setting either to `0` disables caching entirely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionConfig {
    /// Maximum cached plans per registered history (LRU beyond it).
    pub max_cached_plans: usize,
    /// Approximate byte budget per registered history's cache. Entry sizes
    /// are estimated from their cached relation tuples
    /// (see [`GroupPlan::approx_bytes`]).
    pub max_cached_plan_bytes: usize,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            max_cached_plans: 64,
            max_cached_plan_bytes: 64 << 20,
        }
    }
}

impl SessionConfig {
    /// A configuration with the plan cache disabled (every request plans
    /// from scratch — the pre-provisioning behavior).
    pub fn disabled() -> Self {
        SessionConfig {
            max_cached_plans: 0,
            max_cached_plan_bytes: 0,
        }
    }

    /// True when the plan cache is enabled.
    pub fn cache_enabled(&self) -> bool {
        self.max_cached_plans > 0 && self.max_cached_plan_bytes > 0
    }
}

/// The cheap-filter half of a cache entry's identity: history generation,
/// execution method, the canonical position set's hash, and a fingerprint
/// of the `EngineConfig` knobs that affect plan shape. Key equality gates
/// the mandatory structural verification (original history, positions,
/// member certifications) — it never replaces it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanKey {
    generation: u64,
    method: Method,
    positions_hash: u64,
    config_fingerprint: String,
}

impl PlanKey {
    /// Builds the key for a group of scenarios modifying `positions` of the
    /// history registered at `generation`, executed with `method` under
    /// `config`.
    pub fn new(
        generation: u64,
        method: Method,
        positions: &[usize],
        config: &EngineConfig,
    ) -> Self {
        PlanKey {
            generation,
            method,
            positions_hash: position_set_hash(positions),
            config_fingerprint: plan_shape_fingerprint(config),
        }
    }

    /// The history generation the key binds to.
    pub fn generation(&self) -> u64 {
        self.generation
    }
}

/// The `EngineConfig` knobs that change what a built plan *is* (its slice,
/// conditions or cached reenactment results), rendered to a comparable
/// string. The budget is deliberately excluded: it bounds how much a
/// request may spend, not what the resulting plan looks like — and a cached
/// plan spends nothing. The refine policy is included because it decides
/// which members bypass the plan (and whether the slicing pass must keep
/// symbolic contexts), so requests differing in it must not share entries.
/// The columnar toggle is included because a plan bakes its config into
/// member answering (and carries the columnar-encoded bases): an ablation
/// request must not be answered through a columnar-enabled cached plan, or
/// the flag would stop isolating the path it ablates.
fn plan_shape_fingerprint(config: &EngineConfig) -> String {
    format!(
        "compression={:?} solver={:?} greedy={} insert_split={} compression_constraint={} refine={:?} columnar={}",
        config.compression,
        config.solver,
        config.use_greedy_slicer,
        !config.disable_insert_split,
        !config.skip_compression_constraint,
        config.refine,
        !config.disable_columnar,
    )
}

/// One provisioned plan: a [`GroupPlan`] plus everything needed to decide —
/// structurally — whether a later request may reuse it.
#[derive(Debug)]
pub struct CachedPlan {
    key: PlanKey,
    /// The group's padded original history (structural identity check).
    original: History,
    /// The canonical modified-position set.
    positions: Vec<usize>,
    /// The padded modified histories the plan's slice and conditions were
    /// certified for. A lookup hits only when every incoming member appears
    /// here (full structural comparison).
    certified: Vec<History>,
    /// The group's program slice, kept so a hit can report slice metadata
    /// (and so refinement-size checks see the real kept set).
    slice: Arc<ProgramSliceResult>,
    plan: GroupPlan,
    approx_bytes: usize,
    /// Monotonic recency tick (see [`PlanCache`]): updated on every hit
    /// under the read lock, so readers never block each other.
    last_used: AtomicU64,
}

impl CachedPlan {
    /// Wraps a freshly built plan with its certification metadata.
    pub fn new(
        key: PlanKey,
        original: History,
        positions: &[usize],
        certified: Vec<History>,
        slice: Arc<ProgramSliceResult>,
        plan: GroupPlan,
    ) -> Self {
        // Certified histories differ from the original only at the modified
        // positions, so charge only the plan's cached data plus a small
        // per-member overhead — not k full history copies.
        let approx_bytes = plan.approx_bytes() + certified.len() * 256;
        CachedPlan {
            key,
            original,
            positions: canonical_positions(positions),
            certified,
            slice,
            plan,
            approx_bytes,
            last_used: AtomicU64::new(0),
        }
    }

    /// The reusable plan.
    pub fn plan(&self) -> &GroupPlan {
        &self.plan
    }

    /// The group's program slice.
    pub fn slice(&self) -> &Arc<ProgramSliceResult> {
        &self.slice
    }

    /// The entry's key.
    pub fn key(&self) -> &PlanKey {
        &self.key
    }

    /// Number of members the plan is certified for.
    pub fn certified_members(&self) -> usize {
        self.certified.len()
    }

    /// Estimated resident size in bytes.
    pub fn approx_bytes(&self) -> usize {
        self.approx_bytes
    }

    /// Key + structural identity check (key filter first, then the full
    /// history / position comparison — never hash alone).
    fn matches(&self, key: &PlanKey, original: &History, positions: &[usize]) -> bool {
        self.key == *key
            && self.positions == positions
            && self.original.statements() == original.statements()
    }

    /// True when every member of `members` is one of the modified histories
    /// the plan was certified for.
    fn certifies(&self, members: &[&History]) -> bool {
        members.iter().all(|m| {
            self.certified
                .iter()
                .any(|c| c.statements() == m.statements())
        })
    }
}

/// The outcome of a [`PlanCache::insert`].
#[derive(Debug, Clone, Copy, Default)]
pub struct InsertOutcome {
    /// False when an equivalent (or strictly more capable) entry already
    /// existed — the racing builder's entry is dropped, not duplicated.
    pub inserted: bool,
    /// Entries evicted to satisfy the entry-count / byte budgets.
    pub evicted: usize,
}

/// A bounded, concurrency-safe store of [`CachedPlan`]s, one per registered
/// history.
///
/// Lookups take the read lock only — recency is an atomic tick per entry,
/// bumped from a shared counter, so concurrent readers never block each
/// other. A miss builds its plan entirely outside the lock and inserts
/// once under the write lock; if a racing request inserted an equivalent
/// entry first, the newcomer is dropped. Eviction is LRU by tick, driven by
/// both an entry-count cap and an approximate byte budget.
#[derive(Debug)]
pub struct PlanCache {
    limits: SessionConfig,
    tick: AtomicU64,
    entries: RwLock<Vec<Arc<CachedPlan>>>,
}

impl PlanCache {
    /// An empty cache bounded by `limits`.
    pub fn new(limits: SessionConfig) -> Self {
        PlanCache {
            limits,
            tick: AtomicU64::new(0),
            entries: RwLock::new(Vec::new()),
        }
    }

    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed) + 1
    }

    fn read(&self) -> std::sync::RwLockReadGuard<'_, Vec<Arc<CachedPlan>>> {
        self.entries.read().expect("plan cache poisoned")
    }

    fn write(&self) -> std::sync::RwLockWriteGuard<'_, Vec<Arc<CachedPlan>>> {
        self.entries.write().expect("plan cache poisoned")
    }

    /// Finds an entry matching `key` + `original` + `positions` whose
    /// certified member set covers every history in `members`. `positions`
    /// must be canonical (sorted, deduped) — normalized modified-position
    /// sets already are.
    pub fn lookup(
        &self,
        key: &PlanKey,
        original: &History,
        positions: &[usize],
        members: &[&History],
    ) -> Option<Arc<CachedPlan>> {
        let entries = self.read();
        for entry in entries.iter() {
            if entry.matches(key, original, positions) && entry.certifies(members) {
                entry.last_used.store(self.next_tick(), Ordering::Relaxed);
                return Some(Arc::clone(entry));
            }
        }
        None
    }

    /// Inserts a freshly built entry, unless an entry that certifies at
    /// least the same members under the same identity already exists (a
    /// racing request won — its entry serves both). Evicts
    /// least-recently-used entries while the cache exceeds either budget,
    /// but never the entry just inserted.
    pub fn insert(&self, entry: Arc<CachedPlan>) -> InsertOutcome {
        if !self.limits.cache_enabled() {
            return InsertOutcome::default();
        }
        let mut entries = self.write();
        let duplicate = entries.iter().any(|existing| {
            existing.matches(&entry.key, &entry.original, &entry.positions)
                && entry.certified.iter().all(|m| {
                    existing
                        .certified
                        .iter()
                        .any(|c| c.statements() == m.statements())
                })
        });
        if duplicate {
            return InsertOutcome::default();
        }
        entry.last_used.store(self.next_tick(), Ordering::Relaxed);
        let newest = Arc::as_ptr(&entry) as usize;
        entries.push(entry);
        let mut evicted = 0;
        loop {
            let over_count = entries.len() > self.limits.max_cached_plans;
            let over_bytes = entries.iter().map(|e| e.approx_bytes).sum::<usize>()
                > self.limits.max_cached_plan_bytes;
            if !(over_count || over_bytes) || entries.len() <= 1 {
                break;
            }
            let victim = entries
                .iter()
                .enumerate()
                .filter(|(_, e)| Arc::as_ptr(e) as usize != newest)
                .min_by_key(|(_, e)| e.last_used.load(Ordering::Relaxed))
                .map(|(i, _)| i);
            match victim {
                Some(i) => {
                    entries.remove(i);
                    evicted += 1;
                }
                None => break,
            }
        }
        InsertOutcome {
            inserted: true,
            evicted,
        }
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.read().len()
    }

    /// True when no plan is cached.
    pub fn is_empty(&self) -> bool {
        self.read().is_empty()
    }

    /// Estimated resident size of all entries, in bytes.
    pub fn approx_bytes(&self) -> usize {
        self.read().iter().map(|e| e.approx_bytes).sum()
    }

    /// Drops every entry whose plan covers any of `relations`, returning
    /// how many were dropped. This is the invalidation hook for streaming
    /// appends: the slicing machinery knows which relations an appended
    /// statement touches, and only plans reading those relations can be
    /// stale.
    pub fn invalidate_relations(&self, relations: &[&str]) -> usize {
        let mut entries = self.write();
        let before = entries.len();
        entries.retain(|e| {
            !e.plan
                .relations()
                .iter()
                .any(|r| relations.contains(&r.as_str()))
        });
        before - entries.len()
    }

    /// Drops every entry, returning how many were dropped.
    pub fn clear(&self) -> usize {
        let mut entries = self.write();
        let before = entries.len();
        entries.clear();
        before
    }
}

impl Clone for PlanCache {
    /// Clones the cache *contents* (entries are shared `Arc`s, never
    /// rebuilt) with fresh lock and tick state.
    fn clone(&self) -> Self {
        PlanCache {
            limits: self.limits,
            tick: AtomicU64::new(self.tick.load(Ordering::Relaxed)),
            entries: RwLock::new(self.read().clone()),
        }
    }
}

/// Per-history provisioning state, computed once at
/// [`crate::Session::register`] time: the registration generation,
/// per-statement dependency summaries, and the history's [`PlanCache`].
///
/// The dependency summaries are the compact "sketch" of the provisioning
/// idea applied to our setting: which relation each statement touches,
/// which positions insert, and the inverse relation → positions index —
/// enough to decide, without re-reading the history, which cached plans an
/// appended or changed statement could invalidate
/// (see [`PlanCache::invalidate_relations`]).
#[derive(Debug, Clone)]
pub struct Provisioned {
    generation: u64,
    /// `statement_relations[p]` is the relation statement `p` writes.
    statement_relations: Vec<String>,
    /// Positions of `INSERT` statements (both values and query forms).
    insert_positions: Vec<usize>,
    /// Relation → positions of the statements writing it, ascending.
    by_relation: BTreeMap<String, Vec<usize>>,
    /// The static analysis of the registered chain over the initial
    /// database: inferred attribute types, dependency graph, liveness.
    /// Computed once here, consulted on every admitted request (shared so
    /// session clones never re-analyze).
    analysis: Arc<HistoryAnalysis>,
    cache: PlanCache,
}

impl Provisioned {
    /// Precomputes the provisioning state for `history` over `initial`,
    /// registered as generation `generation`, with the cache bounded by
    /// `limits`.
    pub fn build(
        initial: &Database,
        history: &History,
        generation: u64,
        limits: SessionConfig,
    ) -> Self {
        let mut statement_relations = Vec::with_capacity(history.len());
        let mut insert_positions = Vec::new();
        let mut by_relation: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (position, statement) in history.statements().iter().enumerate() {
            let relation = statement.relation().to_string();
            by_relation
                .entry(relation.clone())
                .or_default()
                .push(position);
            statement_relations.push(relation);
            if matches!(
                statement,
                Statement::InsertValues { .. } | Statement::InsertQuery { .. }
            ) {
                insert_positions.push(position);
            }
        }
        Provisioned {
            generation,
            statement_relations,
            insert_positions,
            by_relation,
            analysis: Arc::new(HistoryAnalysis::build(initial, history)),
            cache: PlanCache::new(limits),
        }
    }

    /// The static analysis of the registered chain (types, dependency
    /// graph, liveness) — the artifact admission checks and no-op proofs
    /// run against.
    pub fn analysis(&self) -> &HistoryAnalysis {
        &self.analysis
    }

    /// The monotonic registration generation this state belongs to. Bumped
    /// by every (re-)registration on the session, and part of every
    /// [`PlanKey`], so plans provisioned for an earlier registration of the
    /// same name can never match.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The history's plan cache.
    pub fn cache(&self) -> &PlanCache {
        &self.cache
    }

    /// The relation statement `position` writes, if the position exists.
    pub fn statement_relation(&self, position: usize) -> Option<&str> {
        self.statement_relations.get(position).map(String::as_str)
    }

    /// Positions of the statements writing `relation`, ascending.
    pub fn positions_touching(&self, relation: &str) -> &[usize] {
        self.by_relation
            .get(relation)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Positions of `INSERT` statements, ascending.
    pub fn insert_positions(&self) -> &[usize] {
        &self.insert_positions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mahif_expr::builder::*;
    use mahif_history::statement::{running_example_database, running_example_history};
    use mahif_history::{ModificationSet, SetClause, WhatIfRef};
    use mahif_storage::{Tuple, VersionedDatabase};

    fn provisioned() -> Provisioned {
        let history = History::new(running_example_history());
        Provisioned::build(
            &running_example_database(),
            &history,
            1,
            SessionConfig::default(),
        )
    }

    fn threshold(t: i64) -> Statement {
        Statement::update(
            "Order",
            SetClause::single("ShippingFee", lit(0)),
            ge(attr("Price"), lit(t)),
        )
    }

    /// Builds a real singleton entry for the running example so cache tests
    /// exercise genuine plans, not stubs.
    fn entry_for(t: i64, generation: u64) -> (Arc<CachedPlan>, History) {
        let db = running_example_database();
        let history = History::new(running_example_history());
        let versioned = VersionedDatabase::new(db.clone(), history.execute(&db).unwrap());
        let mods = ModificationSet::single_replace(0, threshold(t));
        let normalized = WhatIfRef::new(&history, versioned.initial(), &mods)
            .normalize()
            .unwrap();
        let config = EngineConfig::default();
        let slice = Arc::new(
            crate::engine::compute_program_slice(
                &normalized,
                versioned.initial(),
                Method::ReenactPsDs,
                &config,
            )
            .unwrap(),
        );
        let plan = GroupPlan::build(
            &[&normalized],
            &slice,
            &versioned,
            Method::ReenactPsDs,
            &config,
            None,
        )
        .unwrap();
        let key = PlanKey::new(
            generation,
            Method::ReenactPsDs,
            &normalized.modified_positions,
            &config,
        );
        let entry = CachedPlan::new(
            key,
            normalized.original.clone(),
            &normalized.modified_positions,
            vec![normalized.modified.clone()],
            slice,
            plan,
        );
        (Arc::new(entry), normalized.modified)
    }

    #[test]
    fn dependency_summaries_index_the_history() {
        let p = provisioned();
        assert_eq!(p.generation(), 1);
        assert_eq!(p.statement_relation(0), Some("Order"));
        assert_eq!(p.statement_relation(99), None);
        assert_eq!(p.positions_touching("Order"), &[0, 1, 2]);
        assert!(p.positions_touching("Nope").is_empty());
        assert!(p.insert_positions().is_empty());

        // A history with an insert records its position.
        let mut statements = running_example_history();
        statements.push(Statement::insert_values(
            "Order",
            Tuple::new(vec![
                mahif_expr::Value::int(99),
                mahif_expr::Value::str("Zoe"),
                mahif_expr::Value::str("US"),
                mahif_expr::Value::int(10),
                mahif_expr::Value::int(2),
            ]),
        ));
        let with_insert = Provisioned::build(
            &running_example_database(),
            &History::new(statements),
            2,
            SessionConfig::default(),
        );
        assert_eq!(with_insert.insert_positions(), &[3]);
    }

    #[test]
    fn lookup_requires_key_structure_and_certification() {
        let cache = PlanCache::new(SessionConfig::default());
        let (entry, certified_member) = entry_for(60, 1);
        let key = entry.key().clone();
        let original = entry.original.clone();
        let positions = entry.positions.clone();
        assert!(cache.insert(Arc::clone(&entry)).inserted);
        assert_eq!(cache.len(), 1);
        assert!(cache.approx_bytes() > 0);

        // The certified member hits; an uncertified one misses even though
        // key, original and positions all match.
        assert!(cache
            .lookup(&key, &original, &positions, &[&certified_member])
            .is_some());
        let (_, other_member) = entry_for(75, 1);
        assert!(cache
            .lookup(&key, &original, &positions, &[&other_member])
            .is_none());

        // A different generation (re-registration) misses.
        let stale = PlanKey::new(2, Method::ReenactPsDs, &positions, &EngineConfig::default());
        assert!(cache
            .lookup(&stale, &original, &positions, &[&certified_member])
            .is_none());

        // A different method misses.
        let other_method = PlanKey::new(1, Method::ReenactDs, &positions, &EngineConfig::default());
        assert!(cache
            .lookup(&other_method, &original, &positions, &[&certified_member])
            .is_none());

        // Re-inserting an equivalent entry is dropped (insert-once).
        let (again, _) = entry_for(60, 1);
        assert!(!cache.insert(again).inserted);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn eviction_is_lru_and_bounded() {
        let cache = PlanCache::new(SessionConfig {
            max_cached_plans: 2,
            max_cached_plan_bytes: usize::MAX,
        });
        let (a, member_a) = entry_for(55, 1);
        let (b, _) = entry_for(60, 1);
        let (c, _) = entry_for(65, 1);
        let key = a.key().clone();
        let original = a.original.clone();
        let positions = a.positions.clone();
        assert!(cache.insert(Arc::clone(&a)).inserted);
        assert!(cache.insert(b).inserted);
        // Touch `a` so `b` is the LRU victim when `c` arrives.
        assert!(cache
            .lookup(&key, &original, &positions, &[&member_a])
            .is_some());
        let outcome = cache.insert(c);
        assert!(outcome.inserted);
        assert_eq!(outcome.evicted, 1);
        assert_eq!(cache.len(), 2);
        assert!(
            cache
                .lookup(&key, &original, &positions, &[&member_a])
                .is_some(),
            "the recently used entry survived"
        );
    }

    #[test]
    fn byte_budget_evicts_and_invalidate_targets_relations() {
        let (a, _) = entry_for(55, 1);
        let tiny = PlanCache::new(SessionConfig {
            max_cached_plans: 100,
            // Below one entry's size: the newest entry is still retained
            // (the budget never evicts down to zero usefulness), but a
            // second insert evicts the first.
            max_cached_plan_bytes: a.approx_bytes(),
        });
        assert!(tiny.insert(a).inserted);
        let (b, _) = entry_for(60, 1);
        let outcome = tiny.insert(b);
        assert!(outcome.inserted);
        assert_eq!(outcome.evicted, 1, "byte budget forced LRU out");
        assert_eq!(tiny.len(), 1);

        // Relation-targeted invalidation: the running example only touches
        // Order, so invalidating an unrelated relation drops nothing.
        assert_eq!(tiny.invalidate_relations(&["Customer"]), 0);
        assert_eq!(tiny.invalidate_relations(&["Order"]), 1);
        assert!(tiny.is_empty());
        assert_eq!(tiny.clear(), 0);
    }

    #[test]
    fn disabled_config_rejects_inserts() {
        assert!(!SessionConfig::disabled().cache_enabled());
        assert!(SessionConfig::default().cache_enabled());
        let cache = PlanCache::new(SessionConfig::disabled());
        let (a, _) = entry_for(55, 1);
        assert!(!cache.insert(a).inserted);
        assert!(cache.is_empty());
    }

    #[test]
    fn fingerprint_tracks_plan_shape_knobs_only() {
        let base = EngineConfig::default();
        let mut budget_only = base.clone();
        budget_only.budget = crate::config::Budget::unlimited().with_max_scenarios(3);
        assert_eq!(
            plan_shape_fingerprint(&base),
            plan_shape_fingerprint(&budget_only),
            "the budget bounds spend, not plan shape"
        );
        let mut no_split = base.clone();
        no_split.disable_insert_split = true;
        assert_ne!(
            plan_shape_fingerprint(&base),
            plan_shape_fingerprint(&no_split)
        );
        let mut refine = base.clone();
        refine.refine = crate::config::RefinePolicy::Never;
        assert_ne!(
            plan_shape_fingerprint(&base),
            plan_shape_fingerprint(&refine)
        );
        let mut row_only = base.clone();
        row_only.disable_columnar = true;
        assert_ne!(
            plan_shape_fingerprint(&base),
            plan_shape_fingerprint(&row_only),
            "the columnar ablation must not reuse columnar-enabled plans"
        );
    }
}
