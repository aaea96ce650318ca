//! Transactional histories `H = u_1, ..., u_n`.

use std::fmt;

use mahif_storage::Database;

use crate::error::HistoryError;
use crate::statement::Statement;

/// A transactional history: an ordered sequence of statements.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct History {
    statements: Vec<Statement>,
}

impl History {
    /// Creates a history from statements.
    pub fn new(statements: Vec<Statement>) -> Self {
        History { statements }
    }

    /// The empty history.
    pub fn empty() -> Self {
        History::default()
    }

    /// Number of statements.
    pub fn len(&self) -> usize {
        self.statements.len()
    }

    /// True when the history has no statements.
    pub fn is_empty(&self) -> bool {
        self.statements.is_empty()
    }

    /// The statements.
    pub fn statements(&self) -> &[Statement] {
        &self.statements
    }

    /// The statement at 0-based `position`.
    pub fn statement(&self, position: usize) -> Result<&Statement, HistoryError> {
        self.statements
            .get(position)
            .ok_or(HistoryError::PositionOutOfBounds {
                position,
                length: self.statements.len(),
            })
    }

    /// Appends a statement.
    pub fn push(&mut self, statement: Statement) {
        self.statements.push(statement);
    }

    /// The prefix `H_i` containing the first `i` statements (0 ≤ i ≤ n).
    pub fn prefix(&self, i: usize) -> History {
        History {
            statements: self.statements[..i.min(self.statements.len())].to_vec(),
        }
    }

    /// The sub-history `H_{i,j}` (1-based inclusive indexes in the paper;
    /// here 0-based `start..=end`).
    pub fn range(&self, start: usize, end: usize) -> History {
        let end = end.min(self.statements.len().saturating_sub(1));
        if start > end || self.statements.is_empty() {
            return History::empty();
        }
        History {
            statements: self.statements[start..=end].to_vec(),
        }
    }

    /// The restriction `H_I`: the statements at the given (sorted,
    /// deduplicated) 0-based positions.
    pub fn restrict(&self, positions: &[usize]) -> History {
        let mut pos: Vec<usize> = positions
            .iter()
            .copied()
            .filter(|p| *p < self.statements.len())
            .collect();
        pos.sort_unstable();
        pos.dedup();
        History {
            statements: pos.iter().map(|p| self.statements[*p].clone()).collect(),
        }
    }

    /// Names of the relations accessed (modified or read) by this history.
    pub fn relations_accessed(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for s in &self.statements {
            out.push(s.relation().to_string());
            if let Statement::InsertQuery { query, .. } = s {
                out.extend(query.referenced_relations());
            }
        }
        out.sort();
        out.dedup();
        out
    }

    /// True when every statement is tuple independent (Definition 1), i.e.
    /// the history contains no `INSERT ... SELECT`.
    pub fn is_tuple_independent(&self) -> bool {
        self.statements.iter().all(|s| s.is_tuple_independent())
    }

    /// Executes the history over a copy of `db`, returning the final state
    /// `H(D)`: one copy of the database, with every statement applied in
    /// place. This is the row executor: the naive method (N) answers with
    /// it, and registration falls back to it for the histories the columnar
    /// trunk declines (`mahif_reenact::execute_history`), so its result or
    /// error is the reference both are held to.
    pub fn execute(&self, db: &Database) -> Result<Database, HistoryError> {
        let mut current = db.clone();
        for s in &self.statements {
            s.apply(&mut current)?;
        }
        Ok(current)
    }

    /// Positions (0-based) of the statements that are inserts.
    pub fn insert_positions(&self) -> Vec<usize> {
        self.statements
            .iter()
            .enumerate()
            .filter(|(_, s)| {
                matches!(
                    s,
                    Statement::InsertValues { .. } | Statement::InsertQuery { .. }
                )
            })
            .map(|(i, _)| i)
            .collect()
    }

    /// Returns a copy of the history with all insert statements removed —
    /// the `H_noIns` of the insert-split optimization (Section 10).
    pub fn without_inserts(&self) -> History {
        History {
            statements: self
                .statements
                .iter()
                .filter(|s| {
                    !matches!(
                        s,
                        Statement::InsertValues { .. } | Statement::InsertQuery { .. }
                    )
                })
                .cloned()
                .collect(),
        }
    }
}

impl fmt::Display for History {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, s) in self.statements.iter().enumerate() {
            writeln!(f, "u{}: {s};", i + 1)?;
        }
        Ok(())
    }
}

impl FromIterator<Statement> for History {
    fn from_iter<T: IntoIterator<Item = Statement>>(iter: T) -> Self {
        History::new(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::statement::{running_example_database, running_example_history, SetClause};
    use mahif_expr::builder::*;
    use mahif_expr::{Expr, Value};
    use mahif_storage::Tuple;

    fn h() -> History {
        History::new(running_example_history())
    }

    #[test]
    fn basic_accessors() {
        let h = h();
        assert_eq!(h.len(), 3);
        assert!(!h.is_empty());
        assert!(History::empty().is_empty());
        assert!(h.statement(0).is_ok());
        assert!(matches!(
            h.statement(9),
            Err(HistoryError::PositionOutOfBounds { .. })
        ));
        assert_eq!(h.relations_accessed(), vec!["Order"]);
        assert!(h.is_tuple_independent());
    }

    #[test]
    fn prefix_range_restrict() {
        let h = h();
        assert_eq!(h.prefix(2).len(), 2);
        assert_eq!(h.prefix(10).len(), 3);
        assert_eq!(h.range(1, 2).len(), 2);
        assert_eq!(h.range(2, 1).len(), 0);
        let r = h.restrict(&[2, 0, 2]);
        assert_eq!(r.len(), 2);
        assert_eq!(r.statements()[0], h.statements()[0]);
        assert_eq!(r.statements()[1], h.statements()[2]);
        // out-of-range positions are ignored
        assert_eq!(h.restrict(&[7]).len(), 0);
    }

    #[test]
    fn execute_matches_figure_3() {
        let db = running_example_database();
        let out = h().execute(&db).unwrap();
        let fees: Vec<i64> = out
            .relation("Order")
            .unwrap()
            .iter()
            .map(|t| t.value(4).unwrap().as_int().unwrap())
            .collect();
        assert_eq!(fees, vec![8, 5, 0, 4]);
    }

    #[test]
    fn prefix_execution_gives_the_state_after_u1() {
        // The state after u1: the fees of orders 12 and 13 are 0.
        let db = running_example_database();
        let v1 = h().prefix(1).execute(&db).unwrap();
        let fees: Vec<i64> = v1
            .relation("Order")
            .unwrap()
            .iter()
            .map(|t| t.value(4).unwrap().as_int().unwrap())
            .collect();
        assert_eq!(fees, vec![5, 0, 0, 4]);
    }

    #[test]
    fn insert_positions_and_without_inserts() {
        let mut history = h();
        history.push(Statement::insert_values(
            "Order",
            Tuple::new(vec![
                Value::int(15),
                Value::str("Eve"),
                Value::str("UK"),
                Value::int(10),
                Value::int(2),
            ]),
        ));
        assert_eq!(history.insert_positions(), vec![3]);
        assert_eq!(history.without_inserts().len(), 3);
        assert!(history.without_inserts().insert_positions().is_empty());
    }

    #[test]
    fn relations_accessed_includes_query_sources() {
        let mut history = History::empty();
        history.push(Statement::update(
            "A",
            SetClause::single("X", lit(1)),
            Expr::true_(),
        ));
        history.push(Statement::insert_query("A", mahif_query::Query::scan("B")));
        assert_eq!(history.relations_accessed(), vec!["A", "B"]);
        assert!(!history.is_tuple_independent());
    }

    #[test]
    fn from_iterator_and_display() {
        let h: History = running_example_history().into_iter().collect();
        assert_eq!(h.len(), 3);
        let s = h.to_string();
        assert!(s.contains("u1:"));
        assert!(s.contains("u3:"));
    }
}
