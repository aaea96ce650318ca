//! Data slicing (Section 6): filter the inputs of reenactment to the tuples
//! that can possibly contribute to the answer of the what-if query.
//!
//! Any tuple in `Δ(H(D), H[M](D))` must be derived from an input tuple that
//! is *affected* by at least one statement changed by the modifications — in
//! the original history, the modified history, or both. For every
//! modification we therefore derive a condition over the statement's input
//! (the disjunction of the original and replacement statements' conditions
//! for updates, the tighter asymmetric conditions for deletes), push it down
//! through the statements that precede the modification (substituting
//! attributes with the conditional update expressions, Figure 9), and filter
//! the reenactment input with the disjunction over all modifications.

use std::collections::BTreeMap;
use std::sync::Arc;

use mahif_expr::{simplify, substitute_attrs, Expr, SubstMap};
use mahif_history::{History, Statement};
use mahif_query::Query;
use mahif_reenact::reenact_history_over;
use mahif_storage::Schema;

use crate::error::SlicingError;

/// Per-relation data-slicing conditions for the original and the modified
/// history.
#[derive(Debug, Clone, Default)]
pub struct DataSlicingConditions {
    /// Condition to apply to the reenactment input of the original history,
    /// per relation.
    pub original: BTreeMap<String, Expr>,
    /// Condition to apply to the reenactment input of the modified history,
    /// per relation.
    pub modified: BTreeMap<String, Expr>,
}

impl DataSlicingConditions {
    /// Condition for `relation` on the original-history side (`true` when
    /// data slicing derived no restriction).
    pub fn original_for(&self, relation: &str) -> Expr {
        self.original
            .get(relation)
            .cloned()
            .unwrap_or_else(Expr::true_)
    }

    /// Condition for `relation` on the modified-history side.
    pub fn modified_for(&self, relation: &str) -> Expr {
        self.modified
            .get(relation)
            .cloned()
            .unwrap_or_else(Expr::true_)
    }
}

/// The condition under which a statement *affects* its input tuples: the
/// `WHERE` condition for updates and deletes, `false` for inserts (inserted
/// tuples are not derived from existing input tuples) and for no-ops.
fn affected_condition(statement: &Statement) -> Expr {
    match statement {
        Statement::Update { cond, .. } => cond.clone(),
        Statement::Delete { cond, .. } => cond.clone(),
        Statement::InsertValues { .. } => Expr::false_(),
        // An INSERT ... SELECT contributes tuples computed from other data;
        // restricting existing input tuples is not possible without analyzing
        // the query, so the contribution is conservatively `true` (handled by
        // the caller via `affects_everything`).
        Statement::InsertQuery { .. } => Expr::true_(),
    }
}

fn is_insert_query(statement: &Statement) -> bool {
    matches!(statement, Statement::InsertQuery { .. })
}

/// Computes the data-slicing conditions for normalized histories `original` /
/// `modified` (equal length, differing exactly at `positions`).
pub fn data_slicing_conditions(
    original: &History,
    modified: &History,
    positions: &[usize],
) -> Result<DataSlicingConditions, SlicingError> {
    if original.len() != modified.len() {
        return Err(SlicingError::HistoriesNotAligned {
            original: original.len(),
            modified: modified.len(),
        });
    }
    let single_modification = positions.len() == 1;

    // Per relation, collect the pushed-down condition of every modification.
    let mut per_relation_original: BTreeMap<String, Vec<Expr>> = BTreeMap::new();
    let mut per_relation_modified: BTreeMap<String, Vec<Expr>> = BTreeMap::new();

    for &p in positions {
        let a = original.statement(p)?;
        let b = modified.statement(p)?;
        let relation = a.relation().to_string();

        // The conservative fallback: a modified INSERT ... SELECT may affect
        // arbitrary tuples downstream, so no input filtering is possible for
        // this modification.
        if is_insert_query(a) || is_insert_query(b) {
            per_relation_original
                .entry(relation.clone())
                .or_default()
                .push(Expr::true_());
            per_relation_modified
                .entry(relation)
                .or_default()
                .push(Expr::true_());
            continue;
        }

        let (cond_original, cond_modified) = match (a, b) {
            // Both deletes and a single modification: the asymmetric,
            // simplified conditions of Section 6 (θ^DS_H = θ_{u'},
            // θ^DS_{H[M]} = θ_u).
            (Statement::Delete { cond: theta_a, .. }, Statement::Delete { cond: theta_b, .. })
                if single_modification =>
            {
                (theta_b.clone(), theta_a.clone())
            }
            // General case (updates, mixed update/no-op pairs, multiple
            // modifications): the symmetric over-approximation θ_u ∨ θ_{u'}
            // (Equation 7).
            _ => {
                let disj = simplify(&Expr::Or(
                    Arc::new(affected_condition(a)),
                    Arc::new(affected_condition(b)),
                ));
                (disj.clone(), disj)
            }
        };

        // Push each condition down through the statements preceding the
        // modification in its own history.
        let pushed_original = push_down(cond_original, original, p, &relation);
        let pushed_modified = push_down(cond_modified, modified, p, &relation);

        per_relation_original
            .entry(relation.clone())
            .or_default()
            .push(pushed_original);
        per_relation_modified
            .entry(relation)
            .or_default()
            .push(pushed_modified);
    }

    let fold = |m: BTreeMap<String, Vec<Expr>>| {
        m.into_iter()
            .map(|(rel, conds)| (rel, simplify(&mahif_expr::builder::disjunction(conds))))
            .collect::<BTreeMap<String, Expr>>()
    };

    Ok(DataSlicingConditions {
        original: fold(per_relation_original),
        modified: fold(per_relation_modified),
    })
}

/// Pushes a condition over the input of the statement at `position` down to
/// the base relation `relation`, through the statements at positions
/// `position-1 .. 0` of `history` (the `θ^DS(m) ↓*` of Section 6).
///
/// * updates of `relation` substitute each assigned attribute `A` with
///   `if θ then Set(A) else A`;
/// * deletes and plain inserts leave surviving/original tuples unchanged, so
///   the condition passes through unmodified;
/// * `INSERT ... SELECT` into `relation` also passes the condition through
///   unchanged for the stored-relation branch (tuples contributed by the
///   query flow through the insert-split branches, which are never filtered);
/// * statements over other relations are ignored.
fn push_down(condition: Expr, history: &History, position: usize, relation: &str) -> Expr {
    let mut cond = condition;
    for j in (0..position).rev() {
        let stmt = &history.statements()[j];
        if stmt.relation() != relation {
            continue;
        }
        if let Statement::Update {
            set, cond: theta, ..
        } = stmt
        {
            let mut map = SubstMap::new();
            for (attr, e) in &set.assignments {
                map.insert(
                    attr.clone(),
                    Expr::IfThenElse {
                        cond: Arc::new(theta.clone()),
                        then_branch: Arc::new(e.clone()),
                        else_branch: Arc::new(Expr::Attr(attr.clone())),
                    },
                );
            }
            cond = substitute_attrs(&cond, &map);
        }
    }
    simplify(&cond)
}

/// Computes **group-level** data-slicing conditions valid for *every*
/// modified-history variant of a scenario group (the data-slicing analogue
/// of [`crate::program_slice_multi`]).
///
/// The returned conditions are *symmetric* — the same condition is applied
/// to the original-side and the modified-side reenactment input of every
/// member — and are the disjunction of all members' per-side conditions.
/// This is the general over-approximation of Section 6 (Equation 7) lifted
/// to the group: a tuple failing the condition is affected by no member's
/// modification in either history, so it produces identical rows on both
/// sides of every member's delta and can be filtered from both. Tuples kept
/// beyond a member's own condition are unaffected *for that member* and
/// cancel in its delta, so every member's answer is exactly the answer of
/// its individual query.
///
/// The symmetry is what makes the *original-side* reenactment shareable:
/// with one condition per relation for the whole group, the original
/// history's reenactment query — and therefore its result — is identical
/// across members and can be computed once per `(group, relation)`.
pub fn data_slicing_conditions_multi<H: std::borrow::Borrow<History>>(
    original: &History,
    variants: &[H],
    positions: &[usize],
) -> Result<DataSlicingConditions, SlicingError> {
    if variants.is_empty() {
        return Err(SlicingError::EmptyScenarioGroup);
    }
    let mut per_relation: BTreeMap<String, Vec<Expr>> = BTreeMap::new();
    let mut seen: BTreeMap<String, usize> = BTreeMap::new();
    for variant in variants {
        let conditions = data_slicing_conditions(original, variant.borrow(), positions)?;
        for (rel, e) in conditions.original.into_iter().chain(conditions.modified) {
            // Count every contribution (the completeness check below), but
            // collect each distinct disjunct once: in a sweep that only
            // varies SET expressions, all members share one condition and
            // the group disjunction must not grow O(k).
            *seen.entry(rel.clone()).or_default() += 1;
            let conds = per_relation.entry(rel).or_default();
            if !conds.contains(&e) {
                conds.push(e);
            }
        }
    }
    // Every member contributes exactly one original- and one modified-side
    // condition per restricted relation. A relation some member derived no
    // condition for is unfiltered (`true`) for that member, and the group
    // condition must degrade to `true` as well; with the normalization
    // invariant (statement pairs at a position target the same relation)
    // this cannot happen within a group, but the guard keeps the merge
    // conservative.
    let expected = 2 * variants.len();
    let merged: BTreeMap<String, Expr> = per_relation
        .into_iter()
        .map(|(rel, conds)| {
            let cond = if seen.get(&rel).copied().unwrap_or(0) < expected {
                Expr::true_()
            } else {
                simplify(&mahif_expr::builder::disjunction(conds))
            };
            (rel, cond)
        })
        .collect();
    Ok(DataSlicingConditions {
        original: merged.clone(),
        modified: merged,
    })
}

/// Builds the data-sliced reenactment query for `relation`: the reenactment
/// of `history` rooted at `σ_{condition}(relation)`. A condition of `true`
/// degrades to the unsliced reenactment.
pub fn apply_data_slicing(
    history: &History,
    relation: &str,
    schema: &Schema,
    condition: &Expr,
) -> Query {
    let base = if condition.is_true() {
        Query::scan(relation)
    } else {
        Query::select(condition.clone(), Query::scan(relation))
    };
    reenact_history_over(history, relation, schema, base)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mahif_expr::builder::*;
    use mahif_expr::{eval_condition, Value};
    use mahif_history::statement::{
        running_example_database, running_example_history, running_example_u1_prime,
    };
    use mahif_history::{
        Annotation, DatabaseDelta, HistoricalWhatIf, Modification, ModificationSet, RelationDelta,
        SetClause,
    };
    use mahif_query::evaluate;
    use mahif_storage::{Database, Tuple, TupleBindings};

    fn bob_query() -> HistoricalWhatIf {
        HistoricalWhatIf::new(
            History::new(running_example_history()),
            running_example_database(),
            ModificationSet::single_replace(0, running_example_u1_prime()),
        )
    }

    /// Evaluates the sliced and unsliced answers and asserts they are equal.
    fn assert_slicing_preserves_answer(query: &HistoricalWhatIf) {
        let normalized = query.normalize().unwrap();
        let conditions = data_slicing_conditions(
            &normalized.original,
            &normalized.modified,
            &normalized.modified_positions,
        )
        .unwrap();
        let db: &Database = &query.database;
        let schema = db.relation("Order").unwrap().schema.clone();

        let unsliced_orig = mahif_reenact::reenact_history(&normalized.original, "Order", &schema);
        let unsliced_mod = mahif_reenact::reenact_history(&normalized.modified, "Order", &schema);
        let sliced_orig = apply_data_slicing(
            &normalized.original,
            "Order",
            &schema,
            &conditions.original_for("Order"),
        );
        let sliced_mod = apply_data_slicing(
            &normalized.modified,
            "Order",
            &schema,
            &conditions.modified_for("Order"),
        );

        let full_delta = mahif_history::RelationDelta::compute(
            "Order",
            &evaluate(&unsliced_orig, db).unwrap(),
            &evaluate(&unsliced_mod, db).unwrap(),
        );
        let sliced_delta = mahif_history::RelationDelta::compute(
            "Order",
            &evaluate(&sliced_orig, db).unwrap(),
            &evaluate(&sliced_mod, db).unwrap(),
        );
        fn annotated(d: &RelationDelta) -> Vec<(Annotation, &Tuple)> {
            d.iter().collect()
        }
        assert_eq!(annotated(&full_delta), annotated(&sliced_delta));
        // And both equal the reference answer.
        let reference = query.answer_by_direct_execution().unwrap();
        let reference_order = reference
            .relation("Order")
            .map(annotated)
            .unwrap_or_default();
        assert_eq!(annotated(&full_delta), reference_order);
    }

    #[test]
    fn update_modification_condition_is_disjunction() {
        let q = bob_query();
        let n = q.normalize().unwrap();
        let conds =
            data_slicing_conditions(&n.original, &n.modified, &n.modified_positions).unwrap();
        // Modification of the first statement: no push-down needed; the
        // condition is Price >= 50 ∨ Price >= 60.
        let c = conds.original_for("Order");
        let db = running_example_database();
        let rel = db.relation("Order").unwrap();
        let selected: Vec<i64> = rel
            .iter()
            .filter(|t| {
                let bind = TupleBindings::new(&rel.schema, t);
                eval_condition(&c, &bind).unwrap()
            })
            .map(|t| t.value(0).unwrap().as_int().unwrap())
            .collect();
        // Only the two orders with price >= 50 pass the filter.
        assert_eq!(selected, vec![12, 13]);
        assert_eq!(c, conds.modified_for("Order"));
    }

    #[test]
    fn example_4_push_down_through_u2_and_u1() {
        // Modification u3 ← u3' (fee discount applies to orders ≤ $40): the
        // pushed-down condition selects only the tuple with ID 11 (Example 4).
        let u3_prime = Statement::update(
            "Order",
            SetClause::single("ShippingFee", sub(attr("ShippingFee"), lit(2))),
            and(le(attr("Price"), lit(40)), ge(attr("ShippingFee"), lit(10))),
        );
        let q = HistoricalWhatIf::new(
            History::new(running_example_history()),
            running_example_database(),
            ModificationSet::single_replace(2, u3_prime),
        );
        let n = q.normalize().unwrap();
        let conds =
            data_slicing_conditions(&n.original, &n.modified, &n.modified_positions).unwrap();
        let c = conds.original_for("Order");
        let db = running_example_database();
        let rel = db.relation("Order").unwrap();
        let selected: Vec<i64> = rel
            .iter()
            .filter(|t| {
                let bind = TupleBindings::new(&rel.schema, t);
                eval_condition(&c, &bind).unwrap()
            })
            .map(|t| t.value(0).unwrap().as_int().unwrap())
            .collect();
        assert_eq!(selected, vec![11]);
        // The condition references the original attributes only.
        assert!(c.attrs().iter().all(|a| rel.schema.index_of(a).is_some()));
        assert_slicing_preserves_answer(&q);
    }

    #[test]
    fn slicing_preserves_answer_for_update_replacement() {
        assert_slicing_preserves_answer(&bob_query());
    }

    #[test]
    fn slicing_preserves_answer_for_delete_modifications() {
        // Replace u2 with a delete of expensive orders.
        let del = Statement::delete("Order", ge(attr("Price"), lit(55)));
        let q = HistoricalWhatIf::new(
            History::new(running_example_history()),
            running_example_database(),
            ModificationSet::single_replace(1, del),
        );
        assert_slicing_preserves_answer(&q);

        // Pure delete pair: history with a delete, modification changes its
        // threshold.
        let mut statements = running_example_history();
        statements.push(Statement::delete("Order", ge(attr("ShippingFee"), lit(8))));
        let q = HistoricalWhatIf::new(
            History::new(statements),
            running_example_database(),
            ModificationSet::single_replace(
                3,
                Statement::delete("Order", ge(attr("ShippingFee"), lit(5))),
            ),
        );
        assert_slicing_preserves_answer(&q);
    }

    #[test]
    fn slicing_preserves_answer_for_statement_deletion_and_insertion() {
        // del(2): drop the UK surcharge.
        let q = HistoricalWhatIf::new(
            History::new(running_example_history()),
            running_example_database(),
            ModificationSet::new(vec![Modification::delete(1)]),
        );
        assert_slicing_preserves_answer(&q);

        // ins: add a new update at the end of the history.
        let extra = Statement::update(
            "Order",
            SetClause::single("ShippingFee", add(attr("ShippingFee"), lit(1))),
            eq(attr("Country"), slit("US")),
        );
        let q = HistoricalWhatIf::new(
            History::new(running_example_history()),
            running_example_database(),
            ModificationSet::new(vec![Modification::insert(3, extra)]),
        );
        assert_slicing_preserves_answer(&q);
    }

    #[test]
    fn slicing_preserves_answer_for_multiple_modifications() {
        let u3_prime = Statement::update(
            "Order",
            SetClause::single("ShippingFee", sub(attr("ShippingFee"), lit(2))),
            and(le(attr("Price"), lit(40)), ge(attr("ShippingFee"), lit(10))),
        );
        let q = HistoricalWhatIf::new(
            History::new(running_example_history()),
            running_example_database(),
            ModificationSet::new(vec![
                Modification::replace(0, running_example_u1_prime()),
                Modification::replace(2, u3_prime),
            ]),
        );
        assert_slicing_preserves_answer(&q);
    }

    #[test]
    fn insert_values_modification_filters_everything_from_scan() {
        // Inserting a new INSERT VALUES statement: existing tuples can never
        // be in the delta (only the inserted tuple can), so the slicing
        // condition for the scan is false on every existing tuple.
        let new_tuple = mahif_storage::Tuple::new(vec![
            Value::int(15),
            Value::str("Eve"),
            Value::str("UK"),
            Value::int(10),
            Value::int(2),
        ]);
        let q = HistoricalWhatIf::new(
            History::new(running_example_history()),
            running_example_database(),
            ModificationSet::new(vec![Modification::insert(
                3,
                Statement::insert_values("Order", new_tuple),
            )]),
        );
        let n = q.normalize().unwrap();
        let conds =
            data_slicing_conditions(&n.original, &n.modified, &n.modified_positions).unwrap();
        assert!(conds.original_for("Order").is_false());
        // The answer is still correct because the inserted tuple flows
        // through the reenactment union branch, not the scan.
        let schema = q.database.relation("Order").unwrap().schema.clone();
        let sliced_orig =
            apply_data_slicing(&n.original, "Order", &schema, &conds.original_for("Order"));
        let sliced_mod =
            apply_data_slicing(&n.modified, "Order", &schema, &conds.modified_for("Order"));
        let delta = mahif_history::RelationDelta::compute(
            "Order",
            &evaluate(&sliced_orig, &q.database).unwrap(),
            &evaluate(&sliced_mod, &q.database).unwrap(),
        );
        let reference = q.answer_by_direct_execution().unwrap();
        assert_eq!(
            delta.iter().collect::<Vec<_>>(),
            reference
                .relation("Order")
                .unwrap()
                .iter()
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn misaligned_histories_error() {
        let h1 = History::new(running_example_history());
        let h2 = h1.prefix(2);
        assert!(matches!(
            data_slicing_conditions(&h1, &h2, &[0]),
            Err(SlicingError::HistoriesNotAligned { .. })
        ));
    }

    #[test]
    fn multi_conditions_are_symmetric_and_preserve_every_member_answer() {
        // A threshold sweep: the group condition must subsume each member's
        // own conditions and, applied to *both* sides, leave every member's
        // delta exactly the reference answer.
        let history = History::new(running_example_history());
        let db = running_example_database();
        let thresholds = [55i64, 60, 65];
        let make = |t: i64| {
            Statement::update(
                "Order",
                SetClause::single("ShippingFee", lit(0)),
                ge(attr("Price"), lit(t)),
            )
        };
        let mut variants = Vec::new();
        let mut positions = Vec::new();
        for &t in &thresholds {
            let (original, modified, p) = ModificationSet::single_replace(0, make(t))
                .normalize(&history)
                .unwrap();
            assert_eq!(original.statements(), history.statements());
            positions = p;
            variants.push(modified);
        }
        let group = data_slicing_conditions_multi(&history, &variants, &positions).unwrap();
        assert_eq!(
            group.original, group.modified,
            "group conditions are symmetric"
        );

        let schema = db.relation("Order").unwrap().schema.clone();
        let cond = group.original_for("Order");
        for (v, variant) in variants.iter().enumerate() {
            // The group condition keeps at least every tuple the member's own
            // conditions keep.
            let own = data_slicing_conditions(&history, variant, &positions).unwrap();
            let rel = db.relation("Order").unwrap();
            for t in rel.iter() {
                let bind = TupleBindings::new(&rel.schema, t);
                let own_keeps = eval_condition(&own.original_for("Order"), &bind).unwrap()
                    || eval_condition(&own.modified_for("Order"), &bind).unwrap();
                if own_keeps {
                    assert!(
                        eval_condition(&cond, &bind).unwrap(),
                        "group condition dropped a tuple member {v} needs"
                    );
                }
            }
            // Symmetrically applied, the member's delta is unchanged.
            let sliced_orig = apply_data_slicing(&history, "Order", &schema, &cond);
            let sliced_mod = apply_data_slicing(variant, "Order", &schema, &cond);
            let delta = mahif_history::RelationDelta::compute(
                "Order",
                &evaluate(&sliced_orig, &db).unwrap(),
                &evaluate(&sliced_mod, &db).unwrap(),
            );
            let reference = HistoricalWhatIf::new(
                history.clone(),
                db.clone(),
                ModificationSet::single_replace(0, make(thresholds[v])),
            )
            .answer_by_direct_execution()
            .unwrap();
            assert_eq!(
                delta.iter().collect::<Vec<_>>(),
                reference
                    .relation("Order")
                    .unwrap()
                    .iter()
                    .collect::<Vec<_>>(),
                "member {v} answer changed under the group condition"
            );
        }
    }

    #[test]
    fn multi_conditions_reject_empty_groups() {
        let h = History::new(running_example_history());
        assert!(matches!(
            data_slicing_conditions_multi::<History>(&h, &[], &[0]),
            Err(SlicingError::EmptyScenarioGroup)
        ));
    }

    #[test]
    fn no_modifications_yield_no_conditions() {
        let h = History::new(running_example_history());
        let conds = data_slicing_conditions(&h, &h, &[]).unwrap();
        assert!(conds.original.is_empty());
        assert!(conds.original_for("Order").is_true());
        assert!(conds.modified_for("Order").is_true());
    }

    #[test]
    fn whole_database_delta_with_slicing_matches_reference() {
        // End-to-end check on DatabaseDelta level for the running example.
        let q = bob_query();
        let n = q.normalize().unwrap();
        let conds =
            data_slicing_conditions(&n.original, &n.modified, &n.modified_positions).unwrap();
        let schema = q.database.relation("Order").unwrap().schema.clone();
        let orig = apply_data_slicing(&n.original, "Order", &schema, &conds.original_for("Order"));
        let modi = apply_data_slicing(&n.modified, "Order", &schema, &conds.modified_for("Order"));
        let mut left = Database::new();
        left.put_relation(evaluate(&orig, &q.database).unwrap());
        let mut right = Database::new();
        right.put_relation(evaluate(&modi, &q.database).unwrap());
        let delta = DatabaseDelta::compute(&left, &right);
        let reference = q.answer_by_direct_execution().unwrap();
        assert_eq!(delta.len(), reference.len());
    }
}
