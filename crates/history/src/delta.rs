//! Database deltas: the symmetric difference `Δ(D, D')` with `+`/`−`
//! annotations (Section 3).
//!
//! A relation delta is a sort-merge with bag semantics: both sides are
//! sorted by [`Tuple::total_cmp`] and walked once
//! ([`mahif_storage::one_sided_tuples`]). A tuple with `l` copies in the
//! original and `r` in the modified state appears `l − r` times as `−` or
//! `r − l` times as `+`, so equal multiplicities cancel. Counting copies
//! is what makes data slicing exact under duplicate tuples (a tuple
//! outside the slice occurs equally often on both sides) and what makes a
//! `SUM` over the delta equal the difference of the two states' `SUM`s.
//! The output is already in delta order (tuple, then `−` before `+`).
//!
//! A relation delta copies none of the tuples the engine reenacted: its
//! `−` tuples are positions into the original side they came from, which a
//! group plan shares with every member's answer, and its `+` tuples are
//! moved out of the member's own modified side (see [`RelationDelta`]).
//!
//! Per-relation deltas are stored behind [`Arc`] so that a batch of
//! what-if scenarios whose answers coincide (the common case in a
//! parameter sweep: most thresholds waive the same two orders) can share
//! one allocation of the common tuples — the base of a *base + diff*
//! representation. [`DeltaInterner`] performs that sharing after a batch
//! is answered; equality and display semantics are unchanged, only the
//! storage is deduplicated.

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

use mahif_storage::{one_sided_tuples, Database, Relation, SchemaRef, Side, Tuple};

/// Whether a delta tuple appears only in the second database (`+`) or only in
/// the first (`−`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Annotation {
    /// Tuple present in `D'` but not `D` (new under the hypothetical
    /// history).
    Plus,
    /// Tuple present in `D` but not `D'` (removed under the hypothetical
    /// history).
    Minus,
}

impl fmt::Display for Annotation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Annotation::Plus => write!(f, "+"),
            Annotation::Minus => write!(f, "-"),
        }
    }
}

/// The delta of one relation: its `−` tuples and its `+` tuples, each list
/// in tuple order.
///
/// **What it shares.** The `−` tuples are positions into an original side
/// held behind an [`Arc`]. On the engine path that side is the group
/// plan's sorted original-side reenactment, the one every member of the
/// group and every later cache hit merges against, so no `−` tuple is
/// copied. An answer that is still held keeps that side alive after its
/// plan is evicted from the provisioning cache. The `+` tuples are owned:
/// the engine moves them out of the member's own modified side and drops
/// the rest there. [`compute`](Self::compute) on borrowed relations (the
/// naive method N, [`DatabaseDelta::compute`], tests) copies just the
/// picked tuples into a side of its own.
///
/// **What it means.** The annotated sequence — [`iter`](Self::iter), `==`
/// and the display — is the merge of the two lists by
/// [`Tuple::total_cmp`], `−` before `+` on equal tuples. A computed delta
/// has no such ties (a tuple is never surplus on both sides), and the two
/// lists are exactly the sequence's `−` and `+` tuples, so equality
/// compares the lists.
#[derive(Clone)]
pub struct RelationDelta {
    /// Relation name.
    pub relation: String,
    /// Relation schema.
    pub schema: SchemaRef,
    /// The side the `−` tuples are drawn from.
    original: Arc<Relation>,
    /// Positions of the `−` tuples in `original`.
    minus: Vec<usize>,
    /// The `+` tuples.
    plus: Vec<Tuple>,
}

/// References to `relation`'s tuples, sorted by [`Tuple::total_cmp`].
fn sorted(relation: &Relation) -> Vec<&Tuple> {
    let mut refs: Vec<&Tuple> = relation.tuples.iter().collect();
    refs.sort_unstable_by(|a, b| a.total_cmp(b));
    refs
}

impl RelationDelta {
    /// A delta from its two lists, in the order given (tuple order for a
    /// delta as computed).
    pub fn new(
        relation: impl Into<String>,
        schema: SchemaRef,
        minus: Vec<Tuple>,
        plus: Vec<Tuple>,
    ) -> RelationDelta {
        RelationDelta {
            relation: relation.into(),
            minus: (0..minus.len()).collect(),
            original: Arc::new(Relation {
                schema: schema.clone(),
                tuples: minus,
            }),
            schema,
            plus,
        }
    }

    /// Computes `Δ(left, right)` for a single relation, counting copies:
    /// `t` appears `max(0, #right(t) − #left(t))` times as `+t` and
    /// `max(0, #left(t) − #right(t))` times as `−t`. Only the picked
    /// tuples are copied.
    pub fn compute(relation: &str, left: &Relation, right: &Relation) -> RelationDelta {
        let (left_sorted, right_sorted) = (sorted(left), sorted(right));
        let (mut minus, mut plus) = (Vec::new(), Vec::new());
        one_sided_tuples(&left_sorted, &right_sorted, |side, i| match side {
            Side::Left => minus.push(left_sorted[i].clone()),
            Side::Right => plus.push(right_sorted[i].clone()),
        });
        RelationDelta::new(relation, left.schema.clone(), minus, plus)
    }

    /// [`compute`](Self::compute) for two relations whose tuples are
    /// already sorted by [`Tuple::total_cmp`] (see [`Relation::sort`]),
    /// copying nothing: the `−` tuples stay in `left` and are referenced
    /// by position, and the `+` tuples are moved out of `right`, whose
    /// other tuples are dropped. The kept buffer is shrunk when most of
    /// `right` was dropped, so a held delta's memory follows its own
    /// size, not the relation's.
    pub fn compute_sorted(
        relation: &str,
        left: &Arc<Relation>,
        mut right: Relation,
    ) -> RelationDelta {
        let (mut minus, mut plus) = (Vec::new(), Vec::new());
        one_sided_tuples(&left.tuples, &right.tuples, |side, i| match side {
            Side::Left => minus.push(i),
            Side::Right => plus.push(i),
        });
        right.retain_positions(&plus);
        if right.tuples.capacity() > 2 * right.tuples.len() {
            right.tuples.shrink_to_fit();
        }
        RelationDelta {
            relation: relation.to_string(),
            schema: left.schema.clone(),
            original: Arc::clone(left),
            minus,
            plus: right.tuples,
        }
    }

    /// Number of annotated tuples.
    pub fn len(&self) -> usize {
        self.minus.len() + self.plus.len()
    }

    /// True when the delta is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The tuples annotated `+`, in delta order.
    pub fn plus_tuples(&self) -> &[Tuple] {
        &self.plus
    }

    /// The tuples annotated `−`, in delta order.
    pub fn minus_tuples(&self) -> impl ExactSizeIterator<Item = &Tuple> + Clone + '_ {
        self.minus.iter().map(|&i| &self.original.tuples[i])
    }

    /// True when the `−` tuples are positions into `side` rather than a
    /// copy of their own.
    pub fn shares_original(&self, side: &Arc<Relation>) -> bool {
        Arc::ptr_eq(&self.original, side)
    }

    /// The annotated tuples in delta order: the merge of the `−` and `+`
    /// lists by [`Tuple::total_cmp`], `−` first on equal tuples.
    pub fn iter(&self) -> impl Iterator<Item = (Annotation, &Tuple)> + '_ {
        let mut minus = self.minus_tuples().peekable();
        let mut plus = self.plus.iter().peekable();
        std::iter::from_fn(move || {
            let take_minus = match (minus.peek(), plus.peek()) {
                (Some(m), Some(p)) => m.total_cmp(p) != Ordering::Greater,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => return None,
            };
            if take_minus {
                minus.next().map(|t| (Annotation::Minus, t))
            } else {
                plus.next().map(|t| (Annotation::Plus, t))
            }
        })
    }
}

impl PartialEq for RelationDelta {
    fn eq(&self, other: &RelationDelta) -> bool {
        self.relation == other.relation
            && self.schema == other.schema
            && self.minus.len() == other.minus.len()
            && self.plus == other.plus
            // Two answers of one plan point into the same side: equal
            // positions are equal tuples, with no tuple compared.
            && ((Arc::ptr_eq(&self.original, &other.original) && self.minus == other.minus)
                || self.minus_tuples().eq(other.minus_tuples()))
    }
}

impl fmt::Debug for RelationDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RelationDelta")
            .field("relation", &self.relation)
            .field("schema", &self.schema)
            .field("minus", &self.minus_tuples().collect::<Vec<_>>())
            .field("plus", &self.plus)
            .finish()
    }
}

/// The delta of an entire database: one [`RelationDelta`] per relation that
/// differs.
///
/// Relation deltas are reference-counted so identical answers across a
/// scenario batch can share storage (see [`DeltaInterner`]); two deltas
/// compare equal whenever their relation deltas compare equal, shared or
/// not.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DatabaseDelta {
    /// Per-relation deltas (only non-empty ones are stored), sorted by
    /// relation name.
    pub relations: Vec<Arc<RelationDelta>>,
}

impl DatabaseDelta {
    /// Builds a delta from owned per-relation deltas (callers need not care
    /// about the shared representation).
    pub fn from_relations(relations: Vec<RelationDelta>) -> DatabaseDelta {
        DatabaseDelta {
            relations: relations.into_iter().map(Arc::new).collect(),
        }
    }

    /// Computes `Δ(left, right)` over all relations present in either
    /// database. Relations missing from one side are treated as empty.
    pub fn compute(left: &Database, right: &Database) -> DatabaseDelta {
        let mut names: Vec<String> = left.relation_names();
        for n in right.relation_names() {
            if !names.contains(&n) {
                names.push(n);
            }
        }
        names.sort();
        let mut relations = Vec::new();
        for name in names {
            let delta = match (left.relation(&name), right.relation(&name)) {
                (Ok(l), Ok(r)) => RelationDelta::compute(&name, l, r),
                (Ok(l), Err(_)) => {
                    RelationDelta::compute(&name, l, &Relation::empty(l.schema.clone()))
                }
                (Err(_), Ok(r)) => {
                    RelationDelta::compute(&name, &Relation::empty(r.schema.clone()), r)
                }
                (Err(_), Err(_)) => continue,
            };
            if !delta.is_empty() {
                relations.push(delta);
            }
        }
        DatabaseDelta::from_relations(relations)
    }

    /// Computes the delta restricted to the given relations.
    pub fn compute_for_relations(
        left: &Database,
        right: &Database,
        relations: &[String],
    ) -> DatabaseDelta {
        let mut out = Vec::new();
        for name in relations {
            if let (Ok(l), Ok(r)) = (left.relation(name), right.relation(name)) {
                let delta = RelationDelta::compute(name, l, r);
                if !delta.is_empty() {
                    out.push(delta);
                }
            }
        }
        out.sort_by(|a, b| a.relation.cmp(&b.relation));
        DatabaseDelta::from_relations(out)
    }

    /// Total number of annotated tuples across all relations.
    pub fn len(&self) -> usize {
        self.relations.iter().map(|r| r.len()).sum()
    }

    /// True when no relation differs.
    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }

    /// The delta of a specific relation, if it differs.
    pub fn relation(&self, name: &str) -> Option<&RelationDelta> {
        self.relations
            .iter()
            .find(|r| r.relation == name)
            .map(Arc::as_ref)
    }

    /// Number of annotated tuples whose storage is shared with another
    /// [`DatabaseDelta`] (i.e. held behind an `Arc` with other references).
    /// Purely observational — used by batch statistics.
    pub fn shared_tuples(&self) -> usize {
        self.relations
            .iter()
            .filter(|r| Arc::strong_count(r) > 1)
            .map(|r| r.len())
            .sum()
    }
}

/// Interns equal relation deltas across the answers of a scenario batch so
/// the common base of a sweep is stored once ("base + per-scenario diff":
/// relation deltas equal to an earlier scenario's become shared references —
/// the base — while genuinely different relation deltas stay owned — the
/// diff).
///
/// Interning never changes what a delta *contains*: equality, iteration
/// order and display are untouched. It only collapses identical allocations,
/// which for a k-scenario sweep where most thresholds produce the same
/// answer reduces delta storage from `O(k · |Δ|)` to `O(|Δ|)`.
#[derive(Debug, Default)]
pub struct DeltaInterner {
    /// Seen relation deltas, bucketed by [`relation_delta_key`] so
    /// interning a batch stays linear in the number of distinct deltas (a
    /// full-content equality check runs only within a bucket). Held as
    /// [`Weak`] references: the interner never keeps a delta alive and never
    /// inflates `Arc::strong_count`, so [`DatabaseDelta::shared_tuples`]
    /// counts only genuine sharing between answers.
    seen: std::collections::HashMap<u64, Vec<std::sync::Weak<RelationDelta>>>,
    deduped_tuples: usize,
}

/// The interner's bucket key: the relation, the tuple count and up to
/// three sampled tuples of each list (first, middle, last). Hashing every
/// tuple would cost as much as the equality check it is meant to spare;
/// the samples already separate the deltas a sweep produces, and full `==`
/// decides within a bucket.
fn relation_delta_key(delta: &RelationDelta) -> u64 {
    use std::hash::{Hash, Hasher};
    fn samples<'a>(n: usize, at: impl Fn(usize) -> &'a Tuple, hasher: &mut impl Hasher) {
        n.hash(hasher);
        if n > 0 {
            for i in [0, n / 2, n - 1] {
                at(i).hash(hasher);
            }
        }
    }
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    delta.relation.hash(&mut hasher);
    let minus = |i: usize| &delta.original.tuples[delta.minus[i]];
    samples(delta.minus.len(), minus, &mut hasher);
    samples(delta.plus.len(), |i| &delta.plus[i], &mut hasher);
    hasher.finish()
}

impl DeltaInterner {
    /// Creates an empty interner (typically one per answered batch).
    pub fn new() -> DeltaInterner {
        DeltaInterner::default()
    }

    /// Rewrites `delta` in place so every relation delta equal to one seen
    /// earlier shares that earlier allocation. Returns the number of
    /// annotated tuples deduplicated by this call.
    pub fn intern(&mut self, delta: &mut DatabaseDelta) -> usize {
        let mut deduped = 0;
        for rel in &mut delta.relations {
            let bucket = self.seen.entry(relation_delta_key(rel)).or_default();
            bucket.retain(|w| w.strong_count() > 0);
            if let Some(existing) = bucket
                .iter()
                .filter_map(std::sync::Weak::upgrade)
                .find(|s| **s == **rel)
            {
                if !Arc::ptr_eq(&existing, rel) {
                    deduped += rel.len();
                    *rel = existing;
                }
            } else {
                bucket.push(Arc::downgrade(rel));
            }
        }
        self.deduped_tuples += deduped;
        deduped
    }

    /// Total annotated tuples deduplicated over the interner's lifetime.
    pub fn deduped_tuples(&self) -> usize {
        self.deduped_tuples
    }
}

impl fmt::Display for DatabaseDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return writeln!(f, "Δ = ∅");
        }
        for rel in &self.relations {
            writeln!(f, "Δ[{}]:", rel.relation)?;
            for (annotation, tuple) in rel.iter() {
                writeln!(f, "  {annotation}{tuple}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::History;
    use crate::modification::ModificationSet;
    use crate::statement::{
        running_example_database, running_example_history, running_example_u1_prime,
    };
    use mahif_expr::Value;

    #[test]
    fn delta_of_identical_databases_is_empty() {
        let db = running_example_database();
        let d = DatabaseDelta::compute(&db, &db);
        assert!(d.is_empty());
        assert_eq!(d.len(), 0);
        assert!(d.to_string().contains("∅"));
    }

    #[test]
    fn running_example_delta_matches_example_2() {
        // Δ(H(D), H[M](D)) = {−o6, +o6'}: Alex's order with fee 5 removed,
        // fee 10 added.
        let db = running_example_database();
        let h = History::new(running_example_history());
        let m = ModificationSet::single_replace(0, running_example_u1_prime());
        let hd = h.execute(&db).unwrap();
        let hmd = m.apply(&h).unwrap().execute(&db).unwrap();
        let delta = DatabaseDelta::compute(&hd, &hmd);
        assert_eq!(delta.len(), 2);
        let order_delta = delta.relation("Order").unwrap();
        let minus: Vec<&Tuple> = order_delta.minus_tuples().collect();
        let plus = order_delta.plus_tuples();
        assert_eq!(minus.len(), 1);
        assert_eq!(plus.len(), 1);
        assert_eq!(minus[0].value(0), Some(&Value::int(12)));
        assert_eq!(minus[0].value(4), Some(&Value::int(5)));
        assert_eq!(plus[0].value(0), Some(&Value::int(12)));
        assert_eq!(plus[0].value(4), Some(&Value::int(10)));
    }

    #[test]
    fn delta_display_contains_annotations() {
        let db = running_example_database();
        let h = History::new(running_example_history());
        let m = ModificationSet::single_replace(0, running_example_u1_prime());
        let hd = h.execute(&db).unwrap();
        let hmd = m.apply(&h).unwrap().execute(&db).unwrap();
        let delta = DatabaseDelta::compute(&hd, &hmd);
        let s = delta.to_string();
        assert!(s.contains("Δ[Order]"));
        assert!(s.contains("+"));
        assert!(s.contains("-"));
    }

    #[test]
    fn compute_for_relations_filters() {
        let db = running_example_database();
        let h = History::new(running_example_history());
        let m = ModificationSet::single_replace(0, running_example_u1_prime());
        let hd = h.execute(&db).unwrap();
        let hmd = m.apply(&h).unwrap().execute(&db).unwrap();
        let delta = DatabaseDelta::compute_for_relations(&hd, &hmd, &["Order".to_string()]);
        assert_eq!(delta.len(), 2);
        let none = DatabaseDelta::compute_for_relations(&hd, &hmd, &["Other".to_string()]);
        assert!(none.is_empty());
    }

    #[test]
    fn delta_is_symmetric_up_to_annotation_swap() {
        let db = running_example_database();
        let h = History::new(running_example_history());
        let m = ModificationSet::single_replace(0, running_example_u1_prime());
        let hd = h.execute(&db).unwrap();
        let hmd = m.apply(&h).unwrap().execute(&db).unwrap();
        let d1 = DatabaseDelta::compute(&hd, &hmd);
        let d2 = DatabaseDelta::compute(&hmd, &hd);
        assert_eq!(d1.len(), d2.len());
        let r1 = d1.relation("Order").unwrap();
        let r2 = d2.relation("Order").unwrap();
        assert_eq!(r1.plus_tuples().len(), r2.minus_tuples().len());
        assert_eq!(r1.minus_tuples().len(), r2.plus_tuples().len());
    }

    #[test]
    fn interner_shares_equal_relation_deltas() {
        let db = running_example_database();
        let h = History::new(running_example_history());
        let m = ModificationSet::single_replace(0, running_example_u1_prime());
        let hd = h.execute(&db).unwrap();
        let hmd = m.apply(&h).unwrap().execute(&db).unwrap();
        let reference = DatabaseDelta::compute(&hd, &hmd);

        // Two scenarios with the same answer, one with a different answer.
        let mut a = DatabaseDelta::compute(&hd, &hmd);
        let mut b = DatabaseDelta::compute(&hd, &hmd);
        let mut c = DatabaseDelta::compute(&hmd, &hd);
        let mut interner = DeltaInterner::new();
        assert_eq!(interner.intern(&mut a), 0, "first answer owns its delta");
        assert_eq!(
            interner.intern(&mut b),
            reference.len(),
            "equal answer shares the base"
        );
        assert_eq!(interner.intern(&mut c), 0, "different answer stays owned");
        assert_eq!(interner.deduped_tuples(), reference.len());

        // Sharing is observable but equality semantics are unchanged.
        assert!(std::sync::Arc::ptr_eq(&a.relations[0], &b.relations[0]));
        assert_eq!(a, reference);
        assert_eq!(b, reference);
        assert_ne!(c, reference);
        assert_eq!(b.shared_tuples(), reference.len());
        // The interner holds only weak references: a delta no other answer
        // shares reports zero shared tuples even while the interner lives.
        assert_eq!(c.shared_tuples(), 0);
        // Re-interning an already shared delta dedupes nothing new.
        assert_eq!(interner.intern(&mut b), 0);
    }

    #[test]
    fn interner_separates_deltas_that_share_a_bucket_key() {
        let schema = mahif_storage::Schema::shared("R", vec![mahif_storage::Attribute::int("A")]);
        let delta_of = |values: &[i64]| {
            DatabaseDelta::from_relations(vec![RelationDelta::new(
                "R",
                schema.clone(),
                Vec::new(),
                values
                    .iter()
                    .map(|&v| Tuple::from_iter_values([v]))
                    .collect(),
            )])
        };
        // Same relation, length and first / middle / last tuples: one key,
        // different contents.
        let mut a = delta_of(&[1, 2, 3, 4, 5]);
        let mut b = delta_of(&[1, 9, 3, 4, 5]);
        let mut c = delta_of(&[1, 2, 3, 4, 5]);
        assert_eq!(
            relation_delta_key(&a.relations[0]),
            relation_delta_key(&b.relations[0])
        );
        let mut interner = DeltaInterner::new();
        assert_eq!(interner.intern(&mut a), 0);
        assert_eq!(interner.intern(&mut b), 0, "a different delta stays owned");
        assert!(!Arc::ptr_eq(&a.relations[0], &b.relations[0]));
        assert_eq!(interner.intern(&mut c), 5, "an equal delta is shared");
        assert!(Arc::ptr_eq(&a.relations[0], &c.relations[0]));
        assert_eq!(b, delta_of(&[1, 9, 3, 4, 5]));
    }

    #[test]
    fn equality_over_one_shared_side_compares_the_picked_tuples() {
        let schema = mahif_storage::Schema::shared("R", vec![mahif_storage::Attribute::int("A")]);
        let relation = |values: &[i64]| {
            let tuples = values.iter().map(|&v| Tuple::from_iter_values([v]));
            Relation::new(schema.clone(), tuples.collect()).unwrap()
        };
        let original = Arc::new(relation(&[1, 2]));
        // Same side, same number of `−` tuples, different positions.
        let drops_2 = RelationDelta::compute_sorted("R", &original, relation(&[1]));
        let drops_1 = RelationDelta::compute_sorted("R", &original, relation(&[2]));
        assert!(drops_2.shares_original(&original) && drops_1.shares_original(&original));
        assert_ne!(drops_2, drops_1);
        let again = RelationDelta::compute_sorted("R", &original, relation(&[1]));
        assert_eq!(drops_2, again);
        let owned = RelationDelta::compute("R", &original, &relation(&[1]));
        assert!(!owned.shares_original(&original));
        assert_eq!(owned, drops_2);
    }

    #[test]
    fn a_small_delta_over_a_large_side_holds_only_its_own_tuples() {
        let schema = mahif_storage::Schema::shared("R", vec![mahif_storage::Attribute::int("A")]);
        let relation = |values: std::ops::Range<i64>| {
            let tuples = values.map(|v| Tuple::from_iter_values([v]));
            Relation::new(schema.clone(), tuples.collect()).unwrap()
        };
        let original = Arc::new(relation(0..10_000));
        // Every original tuple survives and three are new: the modified
        // side's buffer of 10,003 tuples must not stay behind the delta.
        let delta = RelationDelta::compute_sorted("R", &original, relation(0..10_003));
        assert_eq!(delta.plus_tuples().len(), 3);
        assert!(delta.plus.capacity() <= 2 * delta.plus.len());
        assert_eq!(
            delta,
            RelationDelta::compute("R", &original, &relation(0..10_003))
        );
    }

    #[test]
    fn missing_relation_treated_as_empty() {
        let db = running_example_database();
        let empty = mahif_storage::Database::new();
        let d = DatabaseDelta::compute(&db, &empty);
        assert_eq!(d.len(), 4);
        assert!(d.relation("Order").unwrap().plus_tuples().is_empty());
        let d2 = DatabaseDelta::compute(&empty, &db);
        assert_eq!(d2.relation("Order").unwrap().plus_tuples().len(), 4);
    }
}
