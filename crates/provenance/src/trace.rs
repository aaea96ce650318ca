//! Tuple-level lineage of a transactional history.

use std::fmt;

use mahif_expr::eval_condition;
use mahif_history::{History, Statement};
use mahif_query::evaluate;
use mahif_storage::{Database, SchemaRef, Tuple, TupleBindings};

use crate::error::ProvenanceError;

/// Where a traced tuple came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TupleSource {
    /// The tuple was already present in the database before the history.
    Base,
    /// The tuple was contributed by the `INSERT ... VALUES` statement at the
    /// given history position.
    InsertedValues {
        /// 0-based statement position.
        position: usize,
    },
    /// The tuple was contributed by the `INSERT ... SELECT` statement at the
    /// given history position.
    InsertedQuery {
        /// 0-based statement position.
        position: usize,
    },
}

impl fmt::Display for TupleSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TupleSource::Base => write!(f, "base relation"),
            TupleSource::InsertedValues { position } => {
                write!(f, "inserted by statement {position}")
            }
            TupleSource::InsertedQuery { position } => {
                write!(f, "inserted by INSERT..SELECT at statement {position}")
            }
        }
    }
}

/// The lineage of a single tuple through a history.
#[derive(Debug, Clone, PartialEq)]
pub struct TupleTrace {
    /// Where the tuple came from.
    pub source: TupleSource,
    /// The tuple's value when it entered the relation (base value or
    /// inserted value).
    pub initial: Tuple,
    /// Positions of the statements whose condition the tuple satisfied (i.e.
    /// the statements that affected it), in history order.
    pub affecting: Vec<usize>,
    /// Position of the delete statement that removed the tuple, if any.
    pub deleted_at: Option<usize>,
    /// The tuple's value after the history, or `None` when it was deleted.
    pub final_tuple: Option<Tuple>,
}

impl TupleTrace {
    /// True when the tuple survives the history.
    pub fn survives(&self) -> bool {
        self.final_tuple.is_some()
    }

    /// True when at least one statement affected the tuple.
    pub fn was_affected(&self) -> bool {
        !self.affecting.is_empty()
    }
}

/// The lineage of every tuple of one relation through a history.
#[derive(Debug, Clone)]
pub struct RelationTrace {
    /// The traced relation.
    pub relation: String,
    /// Its schema.
    pub schema: SchemaRef,
    /// One trace per tuple (base tuples first, then inserted tuples in
    /// insertion order).
    pub traces: Vec<TupleTrace>,
}

impl RelationTrace {
    /// Traces whose final tuple equals `tuple` (there may be several under
    /// bag semantics).
    pub fn traces_producing(&self, tuple: &Tuple) -> Vec<&TupleTrace> {
        self.traces
            .iter()
            .filter(|t| t.final_tuple.as_ref() == Some(tuple))
            .collect()
    }

    /// Traces of tuples that were deleted by the history.
    pub fn deleted(&self) -> Vec<&TupleTrace> {
        self.traces.iter().filter(|t| !t.survives()).collect()
    }

    /// Number of traced tuples.
    pub fn len(&self) -> usize {
        self.traces.len()
    }

    /// True when nothing was traced.
    pub fn is_empty(&self) -> bool {
        self.traces.is_empty()
    }
}

/// Replays `history` over `db` and records the lineage of every tuple of
/// `relation`.
///
/// Statements over other relations are still executed (they may feed
/// `INSERT ... SELECT` statements into `relation`), but only tuples of
/// `relation` are traced.
pub fn trace_history(
    history: &History,
    db: &Database,
    relation: &str,
) -> Result<RelationTrace, ProvenanceError> {
    let rel = db.relation(relation)?;
    let schema = rel.schema.clone();
    let mut traces: Vec<TupleTrace> = rel
        .iter()
        .map(|t| TupleTrace {
            source: TupleSource::Base,
            initial: t.clone(),
            affecting: Vec::new(),
            deleted_at: None,
            final_tuple: Some(t.clone()),
        })
        .collect();

    // A working copy of the whole database is maintained so that
    // `INSERT ... SELECT` sources see the state at the time of the insert.
    let mut working = db.clone();

    for (pos, stmt) in history.statements().iter().enumerate() {
        if stmt.relation() == relation {
            match stmt {
                Statement::Update { cond, .. } | Statement::Delete { cond, .. } => {
                    for trace in traces.iter_mut() {
                        let Some(current) = trace.final_tuple.clone() else {
                            continue;
                        };
                        let bind = TupleBindings::new(&schema, &current);
                        let fires = eval_condition(cond, &bind).unwrap_or(false);
                        if !fires {
                            continue;
                        }
                        trace.affecting.push(pos);
                        match stmt.apply_to_tuple(&schema, &current)? {
                            Some(next) => trace.final_tuple = Some(next),
                            None => {
                                trace.final_tuple = None;
                                trace.deleted_at = Some(pos);
                            }
                        }
                    }
                }
                Statement::InsertValues { tuple, .. } => {
                    traces.push(TupleTrace {
                        source: TupleSource::InsertedValues { position: pos },
                        initial: tuple.clone(),
                        affecting: Vec::new(),
                        deleted_at: None,
                        final_tuple: Some(tuple.clone()),
                    });
                }
                Statement::InsertQuery { query, .. } => {
                    let result = evaluate(query, &working)?;
                    for t in result.iter() {
                        traces.push(TupleTrace {
                            source: TupleSource::InsertedQuery { position: pos },
                            initial: t.clone(),
                            affecting: Vec::new(),
                            deleted_at: None,
                            final_tuple: Some(t.clone()),
                        });
                    }
                }
            }
        }
        stmt.apply(&mut working)?;
    }

    Ok(RelationTrace {
        relation: relation.to_string(),
        schema,
        traces,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mahif_expr::builder::*;
    use mahif_expr::Value;
    use mahif_history::statement::{running_example_database, running_example_history};
    use mahif_history::SetClause;
    use mahif_query::Query;

    fn trace_running_example() -> RelationTrace {
        let db = running_example_database();
        let history = History::new(running_example_history());
        trace_history(&history, &db, "Order").unwrap()
    }

    #[test]
    fn base_tuples_are_traced_with_affecting_statements() {
        let trace = trace_running_example();
        assert_eq!(trace.len(), 4);
        assert!(!trace.is_empty());
        // Susan (ID 11, UK, 20): u2 (the UK surcharge) raises her fee to 10,
        // which then qualifies for u3's discount — final fee 8 (Figure 3).
        let susan = &trace.traces[0];
        assert_eq!(susan.source, TupleSource::Base);
        assert_eq!(susan.affecting, vec![1, 2]);
        assert!(susan.survives());
        assert_eq!(
            susan.final_tuple.as_ref().unwrap().value(4),
            Some(&Value::int(8))
        );
        // Alex (ID 12, UK, 50): u1 waives the fee, u2 adds 5.
        let alex = &trace.traces[1];
        assert_eq!(alex.affecting, vec![0, 1]);
        assert!(alex.was_affected());
        assert_eq!(
            alex.final_tuple.as_ref().unwrap().value(4),
            Some(&Value::int(5))
        );
        // Mark (ID 14, US, 30): nothing fires.
        let mark = &trace.traces[3];
        assert!(!mark.was_affected());
        assert_eq!(mark.final_tuple.as_ref(), Some(&mark.initial));
    }

    #[test]
    fn traces_producing_finds_final_tuples() {
        let trace = trace_running_example();
        let jack_final = Tuple::new(vec![
            Value::int(13),
            Value::str("Jack"),
            Value::str("US"),
            Value::int(60),
            Value::int(0),
        ]);
        let producers = trace.traces_producing(&jack_final);
        assert_eq!(producers.len(), 1);
        assert_eq!(producers[0].initial.value(4), Some(&Value::int(3)));
        assert!(trace
            .traces_producing(&Tuple::new(vec![Value::int(999)]))
            .is_empty());
    }

    #[test]
    fn deletes_record_the_deleting_statement() {
        let db = running_example_database();
        let mut statements = running_example_history();
        statements.push(Statement::delete("Order", ge(attr("Price"), lit(60))));
        let trace = trace_history(&History::new(statements), &db, "Order").unwrap();
        let deleted = trace.deleted();
        assert_eq!(deleted.len(), 1);
        assert_eq!(deleted[0].initial.value(0), Some(&Value::int(13)));
        assert_eq!(deleted[0].deleted_at, Some(3));
        assert!(!deleted[0].survives());
    }

    #[test]
    fn inserted_values_tuples_flow_through_later_statements() {
        let db = running_example_database();
        let mut statements = running_example_history();
        statements.insert(
            0,
            Statement::insert_values(
                "Order",
                Tuple::new(vec![
                    Value::int(15),
                    Value::str("Eve"),
                    Value::str("UK"),
                    Value::int(70),
                    Value::int(9),
                ]),
            ),
        );
        let trace = trace_history(&History::new(statements), &db, "Order").unwrap();
        assert_eq!(trace.len(), 5);
        let eve = trace
            .traces
            .iter()
            .find(|t| t.source == TupleSource::InsertedValues { position: 0 })
            .unwrap();
        // u1 (now at position 1) waives Eve's fee, u2 (position 2) adds 5.
        assert_eq!(eve.affecting, vec![1, 2]);
        assert_eq!(
            eve.final_tuple.as_ref().unwrap().value(4),
            Some(&Value::int(5))
        );
    }

    #[test]
    fn insert_select_sources_see_the_state_at_insert_time() {
        let db = running_example_database();
        let history = History::new(vec![
            Statement::update(
                "Order",
                SetClause::single("ShippingFee", lit(0)),
                ge(attr("Price"), lit(50)),
            ),
            Statement::insert_query(
                "Order",
                Query::project(
                    vec![
                        mahif_query::ProjectItem::new(add(attr("ID"), lit(100)), "ID"),
                        mahif_query::ProjectItem::identity("Customer"),
                        mahif_query::ProjectItem::identity("Country"),
                        mahif_query::ProjectItem::identity("Price"),
                        mahif_query::ProjectItem::identity("ShippingFee"),
                    ],
                    Query::select(eq(attr("Country"), slit("UK")), Query::scan("Order")),
                ),
            ),
        ]);
        let trace = trace_history(&history, &db, "Order").unwrap();
        // Two archived UK orders; Alex's archived copy must carry the waived
        // fee (0), not the original 5.
        let archived: Vec<&TupleTrace> = trace
            .traces
            .iter()
            .filter(|t| matches!(t.source, TupleSource::InsertedQuery { .. }))
            .collect();
        assert_eq!(archived.len(), 2);
        let alex_archive = archived
            .iter()
            .find(|t| t.initial.value(0) == Some(&Value::int(112)))
            .unwrap();
        assert_eq!(alex_archive.initial.value(4), Some(&Value::int(0)));
    }

    #[test]
    fn statements_on_other_relations_are_ignored_for_tracing() {
        use mahif_storage::{Attribute, Relation, Schema};
        let mut db = running_example_database();
        let s = Schema::shared("Customer", vec![Attribute::int("CID")]);
        let mut rel = Relation::empty(s);
        rel.insert_values([1i64]).unwrap();
        db.add_relation(rel).unwrap();
        let mut statements = running_example_history();
        statements.push(Statement::update(
            "Customer",
            SetClause::single("CID", add(attr("CID"), lit(1))),
            mahif_expr::Expr::true_(),
        ));
        let trace = trace_history(&History::new(statements), &db, "Order").unwrap();
        assert_eq!(trace.len(), 4);
        assert!(trace.traces.iter().all(|t| !t.affecting.contains(&3)));
    }

    #[test]
    fn source_display() {
        assert_eq!(TupleSource::Base.to_string(), "base relation");
        assert!(TupleSource::InsertedValues { position: 2 }
            .to_string()
            .contains("statement 2"));
        assert!(TupleSource::InsertedQuery { position: 3 }
            .to_string()
            .contains("INSERT..SELECT"));
    }
}
