//! Bag-semantics relations, and the sort-merge that compares two of them.
//!
//! The paper's formalization uses set semantics for reenactment
//! (Definition 3) and phrases the statements (Equations 1–4) and the
//! delta over sets of tuples. We store relations as bags (the order of
//! tuples is an implementation detail). Two bags are compared with bag
//! semantics by [`one_sided_tuples`]: both sides sorted by
//! [`Tuple::total_cmp`], then walked once, counting the lengths of the two
//! runs of each tuple and reporting the copies by which one side exceeds
//! the other. The delta in `mahif-history` and the query evaluator's
//! difference are both built on it.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt;

use mahif_expr::Value;

use crate::error::StorageError;
use crate::schema::{Schema, SchemaRef};
use crate::tuple::Tuple;

/// A relation instance: a schema plus a bag of tuples.
#[derive(Debug, Clone, PartialEq)]
pub struct Relation {
    /// The relation's schema.
    pub schema: SchemaRef,
    /// The tuples (bag semantics; order not meaningful).
    pub tuples: Vec<Tuple>,
}

impl Relation {
    /// Creates an empty relation with the given schema.
    pub fn empty(schema: SchemaRef) -> Self {
        Relation {
            schema,
            tuples: Vec::new(),
        }
    }

    /// Creates a relation from a schema and tuples, validating arity.
    pub fn new(schema: SchemaRef, tuples: Vec<Tuple>) -> Result<Self, StorageError> {
        for t in &tuples {
            if t.arity() != schema.arity() {
                return Err(StorageError::ArityMismatch {
                    relation: schema.relation.clone(),
                    expected: schema.arity(),
                    actual: t.arity(),
                });
            }
        }
        Ok(Relation { schema, tuples })
    }

    /// Number of tuples (bag cardinality).
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True when the relation holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Iterator over tuples.
    pub fn iter(&self) -> std::slice::Iter<'_, Tuple> {
        self.tuples.iter()
    }

    /// Mutable iterator over tuples (values only — arity cannot change
    /// through an iterator), used by in-place string interning.
    pub fn tuples_mut(&mut self) -> impl Iterator<Item = &mut Tuple> {
        self.tuples.iter_mut()
    }

    /// Appends a tuple, validating arity.
    pub fn insert(&mut self, tuple: Tuple) -> Result<(), StorageError> {
        if tuple.arity() != self.schema.arity() {
            return Err(StorageError::ArityMismatch {
                relation: self.schema.relation.clone(),
                expected: self.schema.arity(),
                actual: tuple.arity(),
            });
        }
        self.tuples.push(tuple);
        Ok(())
    }

    /// Appends a tuple built from convertible values.
    pub fn insert_values<I, V>(&mut self, values: I) -> Result<(), StorageError>
    where
        I: IntoIterator<Item = V>,
        V: Into<Value>,
    {
        self.insert(Tuple::from_iter_values(values))
    }

    /// Returns the distinct tuples of this relation (set projection of the
    /// bag), preserving first-occurrence order.
    pub fn distinct(&self) -> Relation {
        let mut seen: HashMap<&Tuple, ()> = HashMap::with_capacity(self.tuples.len());
        let mut out = Vec::new();
        for t in &self.tuples {
            if seen.insert(t, ()).is_none() {
                out.push(t.clone());
            }
        }
        Relation {
            schema: self.schema.clone(),
            tuples: out,
        }
    }

    /// Multiplicity map: tuple → number of occurrences.
    pub fn counts(&self) -> HashMap<&Tuple, usize> {
        let mut m: HashMap<&Tuple, usize> = HashMap::with_capacity(self.tuples.len());
        for t in &self.tuples {
            *m.entry(t).or_insert(0) += 1;
        }
        m
    }

    /// Set membership test.
    pub fn contains(&self, tuple: &Tuple) -> bool {
        self.tuples.iter().any(|t| t == tuple)
    }

    /// Sorts the tuples in place by [`Tuple::total_cmp`] — the order
    /// [`one_sided_tuples`] expects. Tuple order inside a bag carries no
    /// meaning, so this changes no query answer.
    pub fn sort(&mut self) {
        self.tuples.sort_unstable_by(Tuple::total_cmp);
    }

    /// Keeps only the tuples at `positions` (strictly ascending, as
    /// [`one_sided_tuples`] emits them) and drops the rest in place: the
    /// kept tuples move, none is copied.
    pub fn retain_positions(&mut self, positions: &[usize]) {
        let mut next = positions.iter().copied().peekable();
        let mut position = 0;
        self.tuples.retain(|_| {
            let keep = next.next_if_eq(&position).is_some();
            position += 1;
            keep
        });
    }

    /// Bag union of two union-compatible relations (keeps the left schema).
    pub fn union_all(&self, other: &Relation) -> Result<Relation, StorageError> {
        if !self.schema.union_compatible(&other.schema) {
            return Err(StorageError::ArityMismatch {
                relation: self.schema.relation.clone(),
                expected: self.schema.arity(),
                actual: other.schema.arity(),
            });
        }
        let mut tuples = self.tuples.clone();
        tuples.extend(other.tuples.iter().cloned());
        Ok(Relation {
            schema: self.schema.clone(),
            tuples,
        })
    }

    /// Returns the tuples sorted by [`Tuple::total_cmp`]; useful for stable
    /// comparisons in tests and reports.
    pub fn sorted_tuples(&self) -> Vec<Tuple> {
        let mut v = self.tuples.clone();
        v.sort_by(|a, b| a.total_cmp(b));
        v
    }

    /// Set equality: same distinct tuples regardless of order/multiplicity.
    pub fn set_eq(&self, other: &Relation) -> bool {
        let a: std::collections::HashSet<&Tuple> = self.tuples.iter().collect();
        let b: std::collections::HashSet<&Tuple> = other.tuples.iter().collect();
        a == b
    }

    /// Replaces the schema (e.g. renaming for the naive algorithm's copy).
    pub fn with_schema(&self, schema: SchemaRef) -> Result<Relation, StorageError> {
        if schema.arity() != self.schema.arity() {
            return Err(StorageError::ArityMismatch {
                relation: schema.relation.clone(),
                expected: schema.arity(),
                actual: self.schema.arity(),
            });
        }
        Ok(Relation {
            schema,
            tuples: self.tuples.clone(),
        })
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", Schema::to_string(&self.schema))?;
        for t in &self.tuples {
            writeln!(f, "  {t}")?;
        }
        Ok(())
    }
}

/// The side of a two-bag comparison a tuple occurs on alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// Only in the left bag.
    Left,
    /// Only in the right bag.
    Right,
}

/// Walks two bags sorted by [`Tuple::total_cmp`] once and calls `emit`
/// once per copy by which a tuple's multiplicity on one side exceeds its
/// multiplicity on the other, with the copy's position in that side's
/// slice, in ascending tuple order: bag semantics, so a tuple with `l`
/// copies on the left and `r` on the right is emitted `l − r` times as
/// [`Side::Left`] or `r − l` times as [`Side::Right`], and never when
/// `l = r`. `total_cmp` reports `Equal` exactly when `==` holds (NULL
/// equals NULL; values of different types never compare equal), so this
/// is the bag difference taken both ways. The positions of each side are
/// distinct and ascending, ready for [`Relation::retain_positions`]; the
/// caller picks the tuples, so nothing is copied here.
pub fn one_sided_tuples<L, R>(left: &[L], right: &[R], mut emit: impl FnMut(Side, usize))
where
    L: Borrow<Tuple>,
    R: Borrow<Tuple>,
{
    debug_assert!(left.is_sorted_by(|a, b| a.borrow().total_cmp(b.borrow()).is_le()));
    debug_assert!(right.is_sorted_by(|a, b| a.borrow().total_cmp(b.borrow()).is_le()));
    let mut emit_run = |side, start: usize, copies: usize| {
        for position in start..start + copies {
            emit(side, position);
        }
    };
    let (mut i, mut j) = (0, 0);
    while i < left.len() && j < right.len() {
        let (l, r) = (left[i].borrow(), right[j].borrow());
        match l.total_cmp(r) {
            Ordering::Less => {
                let end = run_end(left, i);
                emit_run(Side::Left, i, end - i);
                i = end;
            }
            Ordering::Greater => {
                let end = run_end(right, j);
                emit_run(Side::Right, j, end - j);
                j = end;
            }
            Ordering::Equal => {
                let (l_end, r_end) = (run_end(left, i), run_end(right, j));
                let (l_copies, r_copies) = (l_end - i, r_end - j);
                emit_run(Side::Left, i, l_copies.saturating_sub(r_copies));
                emit_run(Side::Right, j, r_copies.saturating_sub(l_copies));
                i = l_end;
                j = r_end;
            }
        }
    }
    emit_run(Side::Left, i, left.len() - i);
    emit_run(Side::Right, j, right.len() - j);
}

/// The index one past the run of tuples equal to `sorted[start]`.
fn run_end<T: Borrow<Tuple>>(sorted: &[T], start: usize) -> usize {
    let first = sorted[start].borrow();
    start
        + 1
        + sorted[start + 1..]
            .iter()
            .take_while(|t| (*t).borrow() == first)
            .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Attribute;

    fn order_schema() -> SchemaRef {
        Schema::shared(
            "Order",
            vec![
                Attribute::int("ID"),
                Attribute::str("Country"),
                Attribute::int("Price"),
            ],
        )
    }

    fn sample() -> Relation {
        let mut r = Relation::empty(order_schema());
        r.insert_values([Value::int(11), Value::str("UK"), Value::int(20)])
            .unwrap();
        r.insert_values([Value::int(12), Value::str("UK"), Value::int(50)])
            .unwrap();
        r.insert_values([Value::int(13), Value::str("US"), Value::int(60)])
            .unwrap();
        r
    }

    #[test]
    fn insert_and_len() {
        let r = sample();
        assert_eq!(r.len(), 3);
        assert!(!r.is_empty());
        assert!(Relation::empty(order_schema()).is_empty());
    }

    #[test]
    fn arity_validation() {
        let mut r = Relation::empty(order_schema());
        let err = r.insert(Tuple::from_iter_values([Value::int(1)]));
        assert!(matches!(err, Err(StorageError::ArityMismatch { .. })));
        let bad = Relation::new(
            order_schema(),
            vec![Tuple::from_iter_values([Value::int(1)])],
        );
        assert!(bad.is_err());
    }

    #[test]
    fn distinct_and_counts() {
        let mut r = sample();
        r.insert_values([Value::int(11), Value::str("UK"), Value::int(20)])
            .unwrap();
        assert_eq!(r.len(), 4);
        assert_eq!(r.distinct().len(), 3);
        let counts = r.counts();
        let dup = Tuple::from_iter_values([Value::int(11), Value::str("UK"), Value::int(20)]);
        assert_eq!(counts.get(&dup), Some(&2));
    }

    fn one_sided(left: &Relation, right: &Relation) -> Vec<(Side, Tuple)> {
        let (mut left, mut right) = (left.clone(), right.clone());
        left.sort();
        right.sort();
        let mut out = Vec::new();
        one_sided_tuples(&left.tuples, &right.tuples, |side, i| {
            let t = match side {
                Side::Left => &left.tuples[i],
                Side::Right => &right.tuples[i],
            };
            out.push((side, t.clone()))
        });
        out
    }

    #[test]
    fn one_sided_tuples_is_the_bag_difference_both_ways() {
        let a = sample();
        let mut b = sample();
        b.tuples.remove(0);
        let removed = a.tuples[0].clone();
        assert_eq!(one_sided(&a, &b), vec![(Side::Left, removed.clone())]);
        assert_eq!(one_sided(&b, &a), vec![(Side::Right, removed.clone())]);
        assert!(one_sided(&a, &a).is_empty());
        // Bag semantics: each tuple is reported once per copy by which its
        // multiplicity on one side exceeds the other's.
        let mut dup = a.clone();
        dup.tuples.extend(a.tuples.iter().cloned());
        let mut surplus: Vec<(Side, Tuple)> =
            a.tuples.iter().map(|t| (Side::Left, t.clone())).collect();
        surplus.sort_by(|x, y| x.1.total_cmp(&y.1));
        assert_eq!(one_sided(&dup, &a), surplus);
        let mut b_dup = b.clone();
        b_dup.tuples.extend(b.tuples.iter().cloned());
        assert_eq!(
            one_sided(&dup, &b_dup),
            vec![(Side::Left, removed.clone()), (Side::Left, removed)]
        );
        // Equal multiplicities cancel, however large.
        let mut triple = dup.clone();
        triple.tuples.extend(a.tuples.iter().cloned());
        assert!(one_sided(&triple, &triple).is_empty());
        assert_eq!(one_sided(&triple, &dup), surplus);
    }

    #[test]
    fn retain_positions_keeps_exactly_the_picked_tuples_in_order() {
        let a = sample();
        let mut kept = a.clone();
        kept.retain_positions(&[0, 2]);
        assert_eq!(kept.tuples, vec![a.tuples[0].clone(), a.tuples[2].clone()]);
        let mut none = a.clone();
        none.retain_positions(&[]);
        assert!(none.is_empty());
        let mut all = a.clone();
        all.retain_positions(&[0, 1, 2]);
        assert_eq!(all, a);
    }

    #[test]
    fn union_all_and_compatibility() {
        let a = sample();
        let b = sample();
        let u = a.union_all(&b).unwrap();
        assert_eq!(u.len(), 6);
        let other = Relation::empty(Schema::shared("X", vec![Attribute::int("A")]));
        assert!(a.union_all(&other).is_err());
    }

    #[test]
    fn set_eq_ignores_order_and_duplicates() {
        let a = sample();
        let mut b = sample();
        b.tuples.reverse();
        b.insert_values([Value::int(13), Value::str("US"), Value::int(60)])
            .unwrap();
        assert!(a.set_eq(&b));
        b.insert_values([Value::int(99), Value::str("US"), Value::int(1)])
            .unwrap();
        assert!(!a.set_eq(&b));
    }

    #[test]
    fn sorted_tuples_are_stable() {
        let mut r = sample();
        r.tuples.reverse();
        let sorted = r.sorted_tuples();
        assert_eq!(sorted[0].value(0), Some(&Value::int(11)));
        assert_eq!(sorted[2].value(0), Some(&Value::int(13)));
    }

    #[test]
    fn with_schema_renames() {
        let r = sample();
        let renamed_schema = Schema::shared(
            "Order_copy",
            vec![
                Attribute::int("ID"),
                Attribute::str("Country"),
                Attribute::int("Price"),
            ],
        );
        let c = r.with_schema(renamed_schema).unwrap();
        assert_eq!(c.schema.relation, "Order_copy");
        assert_eq!(c.len(), 3);
        let bad = Schema::shared("X", vec![Attribute::int("A")]);
        assert!(r.with_schema(bad).is_err());
    }

    #[test]
    fn display_contains_rows() {
        let r = sample();
        let s = r.to_string();
        assert!(s.contains("Order("));
        assert!(s.contains("(11, 'UK', 20)"));
    }
}
