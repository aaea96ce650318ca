//! Explanations of what-if answers: mapping delta tuples back to their
//! lineage under the original and the hypothetical history.

use std::fmt;

use mahif_history::{Annotation, DatabaseDelta, History, ModificationSet};
use mahif_storage::{Database, Tuple};

use crate::error::ProvenanceError;
use crate::trace::{trace_history, TupleSource, TupleTrace};

/// Why one annotated tuple appears in the answer of a historical what-if
/// query.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaExplanation {
    /// The relation the tuple belongs to.
    pub relation: String,
    /// `+` (exists only under the hypothetical history) or `−` (exists only
    /// under the actual history).
    pub annotation: Annotation,
    /// The annotated tuple itself.
    pub tuple: Tuple,
    /// Where the tuple originated (base relation or an insert statement).
    pub source: TupleSource,
    /// The input tuple the annotated tuple derives from.
    pub input: Tuple,
    /// Lineage of that input tuple under the original history.
    pub original: TupleTrace,
    /// Lineage of that input tuple under the hypothetical history.
    pub modified: TupleTrace,
    /// The first (normalized) history position at which the two lineages
    /// diverge: the earliest statement that treated the tuple differently.
    pub divergence: Option<usize>,
}

impl fmt::Display for DeltaExplanation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}{} in {} (from {}, input {})",
            self.annotation, self.tuple, self.relation, self.source, self.input
        )?;
        writeln!(
            f,
            "  original history : affected by statements {:?}{}",
            self.original.affecting,
            self.original
                .deleted_at
                .map(|p| format!(", deleted at {p}"))
                .unwrap_or_default()
        )?;
        writeln!(
            f,
            "  what-if history  : affected by statements {:?}{}",
            self.modified.affecting,
            self.modified
                .deleted_at
                .map(|p| format!(", deleted at {p}"))
                .unwrap_or_default()
        )?;
        match self.divergence {
            Some(p) => writeln!(f, "  first divergence at statement {p}"),
            None => writeln!(f, "  no single divergence point (inserted tuple)"),
        }
    }
}

/// Explains every annotated tuple of `delta` for the historical what-if query
/// defined by `history`, `modifications` and the pre-history state `db`.
///
/// This is a convenience wrapper around [`explain_delta`] that derives the
/// normalized original/modified histories itself.
pub fn explain_answer(
    history: &History,
    modifications: &ModificationSet,
    db: &Database,
    delta: &DatabaseDelta,
) -> Result<Vec<DeltaExplanation>, ProvenanceError> {
    let (original, modified, _) = modifications.normalize(history)?;
    explain_delta(&original, &modified, db, delta)
}

/// Explains every annotated tuple of `delta` given the (normalized) original
/// and modified histories.
pub fn explain_delta(
    original: &History,
    modified: &History,
    db: &Database,
    delta: &DatabaseDelta,
) -> Result<Vec<DeltaExplanation>, ProvenanceError> {
    let mut out = Vec::new();
    for rel_delta in &delta.relations {
        let original_trace = trace_history(original, db, &rel_delta.relation)?;
        let modified_trace = trace_history(modified, db, &rel_delta.relation)?;
        for (annotation, tuple) in rel_delta.iter() {
            // The side the tuple exists on determines which trace produced it.
            let (own, other) = match annotation {
                Annotation::Minus => (&original_trace, &modified_trace),
                Annotation::Plus => (&modified_trace, &original_trace),
            };
            let Some(producer) = own.traces_producing(tuple).into_iter().next() else {
                continue;
            };
            // Find the same input tuple's lineage under the other history:
            // match on source and initial value.
            let counterpart = other
                .traces
                .iter()
                .find(|t| t.source == producer.source && t.initial == producer.initial)
                .cloned()
                .unwrap_or_else(|| TupleTrace {
                    source: producer.source,
                    initial: producer.initial.clone(),
                    affecting: Vec::new(),
                    deleted_at: None,
                    final_tuple: None,
                });
            let (original_lineage, modified_lineage) = match annotation {
                Annotation::Minus => (producer.clone(), counterpart),
                Annotation::Plus => (counterpart, producer.clone()),
            };
            let divergence = first_divergence(&original_lineage, &modified_lineage);
            out.push(DeltaExplanation {
                relation: rel_delta.relation.clone(),
                annotation,
                tuple: tuple.clone(),
                source: producer.source,
                input: producer.initial.clone(),
                original: original_lineage,
                modified: modified_lineage,
                divergence,
            });
        }
    }
    Ok(out)
}

/// The first history position at which two lineages of the same input tuple
/// differ (one affected, the other not, or one deleted and the other not).
fn first_divergence(a: &TupleTrace, b: &TupleTrace) -> Option<usize> {
    let mut positions: Vec<usize> = a
        .affecting
        .iter()
        .chain(b.affecting.iter())
        .chain(a.deleted_at.iter())
        .chain(b.deleted_at.iter())
        .copied()
        .collect();
    positions.sort_unstable();
    positions.dedup();
    positions.into_iter().find(|p| {
        let in_a = a.affecting.contains(p) || a.deleted_at == Some(*p);
        let in_b = b.affecting.contains(p) || b.deleted_at == Some(*p);
        in_a != in_b
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mahif_expr::builder::*;
    use mahif_expr::Value;
    use mahif_history::statement::{
        running_example_database, running_example_history, running_example_u1_prime,
    };
    use mahif_history::{HistoricalWhatIf, Modification, SetClause, Statement};

    fn bobs_delta() -> (History, ModificationSet, Database, DatabaseDelta) {
        let db = running_example_database();
        let history = History::new(running_example_history());
        let mods = ModificationSet::single_replace(0, running_example_u1_prime());
        let delta = HistoricalWhatIf::new(history.clone(), db.clone(), mods.clone())
            .answer_by_direct_execution()
            .unwrap();
        (history, mods, db, delta)
    }

    #[test]
    fn running_example_explanations() {
        let (history, mods, db, delta) = bobs_delta();
        let explanations = explain_answer(&history, &mods, &db, &delta).unwrap();
        // Two annotated tuples (−o6, +o6'), both derived from Alex's order.
        assert_eq!(explanations.len(), 2);
        for e in &explanations {
            assert_eq!(e.relation, "Order");
            assert_eq!(e.source, TupleSource::Base);
            assert_eq!(e.input.value(0), Some(&Value::int(12)));
            // u1 fires in the original history but u1' does not: the first
            // divergence is the modified statement itself.
            assert_eq!(e.divergence, Some(0));
            assert!(e.original.affecting.contains(&0));
            assert!(!e.modified.affecting.contains(&0));
            let text = e.to_string();
            assert!(text.contains("original history"));
            assert!(text.contains("divergence at statement 0"));
        }
    }

    #[test]
    fn deleted_statement_explanations_point_at_the_deletion() {
        // Deleting u2 (the UK surcharge) removes the +5 for both UK orders.
        let db = running_example_database();
        let history = History::new(running_example_history());
        let mods = ModificationSet::new(vec![Modification::delete(1)]);
        let delta = HistoricalWhatIf::new(history.clone(), db.clone(), mods.clone())
            .answer_by_direct_execution()
            .unwrap();
        let explanations = explain_answer(&history, &mods, &db, &delta).unwrap();
        assert!(!explanations.is_empty());
        for e in &explanations {
            assert_eq!(e.divergence, Some(1));
            assert!(e.original.affecting.contains(&1));
            assert!(!e.modified.affecting.contains(&1));
        }
    }

    #[test]
    fn explanations_for_tuples_deleted_under_the_hypothetical_history() {
        // Hypothetically delete expensive orders instead of waiving their
        // fee: Jack's order disappears, so the delta contains a − tuple whose
        // modified lineage ends in a deletion.
        let db = running_example_database();
        let history = History::new(running_example_history());
        let mods = ModificationSet::single_replace(
            0,
            Statement::delete("Order", ge(attr("Price"), lit(50))),
        );
        let delta = HistoricalWhatIf::new(history.clone(), db.clone(), mods.clone())
            .answer_by_direct_execution()
            .unwrap();
        let explanations = explain_answer(&history, &mods, &db, &delta).unwrap();
        assert!(!explanations.is_empty());
        let minus: Vec<_> = explanations
            .iter()
            .filter(|e| e.annotation == Annotation::Minus)
            .collect();
        assert!(!minus.is_empty());
        assert!(minus
            .iter()
            .any(|e| e.modified.deleted_at.is_some() && e.original.deleted_at.is_none()));
    }

    #[test]
    fn inserted_statement_explanations_have_insert_source() {
        // Hypothetically insert a new order at the start of the history; the
        // new tuple's explanation carries the insert source.
        let db = running_example_database();
        let history = History::new(running_example_history());
        let new_order = Statement::insert_values(
            "Order",
            mahif_storage::Tuple::new(vec![
                Value::int(15),
                Value::str("Eve"),
                Value::str("UK"),
                Value::int(90),
                Value::int(9),
            ]),
        );
        let mods = ModificationSet::new(vec![Modification::insert(0, new_order)]);
        let delta = HistoricalWhatIf::new(history.clone(), db.clone(), mods.clone())
            .answer_by_direct_execution()
            .unwrap();
        let explanations = explain_answer(&history, &mods, &db, &delta).unwrap();
        assert_eq!(explanations.len(), 1);
        let e = &explanations[0];
        assert_eq!(e.annotation, Annotation::Plus);
        assert!(matches!(e.source, TupleSource::InsertedValues { .. }));
        assert!(e.to_string().contains("inserted by statement"));
    }

    #[test]
    fn update_with_changed_set_clause_diverges_at_that_statement() {
        // Same condition, different SET expression: both lineages list the
        // statement as affecting, so the divergence search returns None for
        // the firing pattern — the explanation still identifies the input.
        let db = running_example_database();
        let history = History::new(running_example_history());
        let u2_prime = Statement::update(
            "Order",
            SetClause::single("ShippingFee", add(attr("ShippingFee"), lit(7))),
            and(eq(attr("Country"), slit("UK")), le(attr("Price"), lit(100))),
        );
        let mods = ModificationSet::new(vec![Modification::replace(1, u2_prime)]);
        let delta = HistoricalWhatIf::new(history.clone(), db.clone(), mods.clone())
            .answer_by_direct_execution()
            .unwrap();
        let explanations = explain_answer(&history, &mods, &db, &delta).unwrap();
        assert!(!explanations.is_empty());
        for e in &explanations {
            assert_eq!(e.input.value(2), Some(&Value::str("UK")));
            assert!(e.original.affecting.contains(&1));
            assert!(e.modified.affecting.contains(&1));
        }
    }

    #[test]
    fn first_divergence_helper() {
        let a = TupleTrace {
            source: TupleSource::Base,
            initial: Tuple::new(vec![Value::int(1)]),
            affecting: vec![0, 2],
            deleted_at: None,
            final_tuple: Some(Tuple::new(vec![Value::int(1)])),
        };
        let mut b = a.clone();
        b.affecting = vec![2];
        assert_eq!(first_divergence(&a, &b), Some(0));
        assert_eq!(first_divergence(&a, &a), None);
        b.affecting = vec![0, 2];
        b.deleted_at = Some(3);
        assert_eq!(first_divergence(&a, &b), Some(3));
    }
}
