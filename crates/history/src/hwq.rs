//! Historical what-if queries `H = (H, D, M)` (Definition 2).

use std::fmt;

use mahif_storage::Database;

use crate::delta::DatabaseDelta;
use crate::error::HistoryError;
use crate::history::History;
use crate::modification::ModificationSet;

/// A historical what-if query: a history `H` executed over database `D`
/// together with a sequence of hypothetical modifications `M`.
///
/// The database `D` is the state *before* the history was executed; it is
/// obtained via time travel in a deployment and is stored explicitly here.
///
/// This owning form is convenient for constructing reference queries in
/// tests and tools. The engines consume the borrowed view [`WhatIfRef`]
/// (obtained via [`HistoricalWhatIf::as_ref`]) so that a long-lived session
/// can answer many queries against one registered history without cloning
/// `H` or `D` per call.
#[derive(Debug, Clone)]
pub struct HistoricalWhatIf {
    /// The original transactional history.
    pub history: History,
    /// The database state before the history executed.
    pub database: Database,
    /// The hypothetical modifications.
    pub modifications: ModificationSet,
}

impl HistoricalWhatIf {
    /// Creates a historical what-if query.
    pub fn new(history: History, database: Database, modifications: ModificationSet) -> Self {
        HistoricalWhatIf {
            history,
            database,
            modifications,
        }
    }

    /// The borrowed view of this query.
    pub fn as_ref(&self) -> WhatIfRef<'_> {
        WhatIfRef {
            history: &self.history,
            database: &self.database,
            modifications: &self.modifications,
        }
    }

    /// The modified history `H[M]`.
    pub fn modified_history(&self) -> Result<History, HistoryError> {
        self.as_ref().modified_history()
    }

    /// Normalizes into equal-length original/modified histories plus the
    /// differing positions (see [`ModificationSet::normalize`]).
    pub fn normalize(&self) -> Result<NormalizedWhatIf, HistoryError> {
        self.as_ref().normalize()
    }

    /// Reference answer by direct execution (no reenactment, no copy
    /// avoidance): `Δ(H(D), H[M](D))`. The optimized engine in the `mahif`
    /// crate must produce exactly this result; tests compare against it.
    pub fn answer_by_direct_execution(&self) -> Result<DatabaseDelta, HistoryError> {
        self.as_ref().answer_by_direct_execution()
    }

    /// The current database state `H(D)` (what a deployed system would have
    /// on disk when the what-if question is asked).
    pub fn current_state(&self) -> Result<Database, HistoryError> {
        self.as_ref().current_state()
    }
}

/// A historical what-if query borrowing its history and pre-history state.
///
/// This is the form the engines consume: the history and database belong to
/// a registered session (or to an owning [`HistoricalWhatIf`]) and are only
/// borrowed for the duration of one answer — answering a query is O(answer),
/// not O(|H| + |D|) in copies.
#[derive(Debug, Clone, Copy)]
pub struct WhatIfRef<'a> {
    /// The original transactional history.
    pub history: &'a History,
    /// The database state before the history executed.
    pub database: &'a Database,
    /// The hypothetical modifications.
    pub modifications: &'a ModificationSet,
}

impl<'a> WhatIfRef<'a> {
    /// Creates a borrowed what-if query.
    pub fn new(
        history: &'a History,
        database: &'a Database,
        modifications: &'a ModificationSet,
    ) -> Self {
        WhatIfRef {
            history,
            database,
            modifications,
        }
    }

    /// The modified history `H[M]`.
    pub fn modified_history(&self) -> Result<History, HistoryError> {
        self.modifications.apply(self.history)
    }

    /// Normalizes into equal-length original/modified histories plus the
    /// differing positions (see [`ModificationSet::normalize`]).
    pub fn normalize(&self) -> Result<NormalizedWhatIf, HistoryError> {
        let (original, modified, positions) = self.modifications.normalize(self.history)?;
        Ok(NormalizedWhatIf {
            original,
            modified,
            modified_positions: positions,
        })
    }

    /// Reference answer by direct execution: `Δ(H(D), H[M](D))`.
    pub fn answer_by_direct_execution(&self) -> Result<DatabaseDelta, HistoryError> {
        let original_final = self.history.execute(self.database)?;
        let modified_final = self.modified_history()?.execute(self.database)?;
        Ok(DatabaseDelta::compute(&original_final, &modified_final))
    }

    /// The current database state `H(D)`.
    pub fn current_state(&self) -> Result<Database, HistoryError> {
        self.history.execute(self.database)
    }

    /// Clones the borrowed parts into an owning query.
    pub fn to_owned(&self) -> HistoricalWhatIf {
        HistoricalWhatIf {
            history: self.history.clone(),
            database: self.database.clone(),
            modifications: self.modifications.clone(),
        }
    }
}

impl<'a> From<&'a HistoricalWhatIf> for WhatIfRef<'a> {
    fn from(query: &'a HistoricalWhatIf) -> Self {
        query.as_ref()
    }
}

impl fmt::Display for HistoricalWhatIf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Historical what-if query:")?;
        writeln!(f, "history ({} statements):", self.history.len())?;
        write!(f, "{}", self.history)?;
        writeln!(f, "{}", self.modifications)
    }
}

/// The result of normalizing a what-if query: two equal-length histories that
/// differ only at `modified_positions`, with every pair of statements at the
/// same position targeting the same relation.
#[derive(Debug, Clone)]
pub struct NormalizedWhatIf {
    /// Padded original history.
    pub original: History,
    /// Padded modified history.
    pub modified: History,
    /// Positions (0-based) where the two histories differ.
    pub modified_positions: Vec<usize>,
}

impl NormalizedWhatIf {
    /// Position of the first modified statement; statements before it can be
    /// ignored for reenactment (Section 4: "we can simply ignore the prefix
    /// of the history before the first modified statement").
    pub fn first_modified_position(&self) -> Option<usize> {
        self.modified_positions.first().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modification::Modification;
    use crate::statement::{
        running_example_database, running_example_history, running_example_u1_prime, Statement,
    };
    use mahif_expr::builder::*;
    use mahif_expr::Value;

    fn bob_query() -> HistoricalWhatIf {
        HistoricalWhatIf::new(
            History::new(running_example_history()),
            running_example_database(),
            ModificationSet::single_replace(0, running_example_u1_prime()),
        )
    }

    #[test]
    fn answer_matches_example_2() {
        let q = bob_query();
        let answer = q.answer_by_direct_execution().unwrap();
        assert_eq!(answer.len(), 2);
        let order = answer.relation("Order").unwrap();
        let removed = order.minus_tuples().next().unwrap();
        assert_eq!(removed.value(0), Some(&Value::int(12)));
        assert_eq!(order.plus_tuples()[0].value(4), Some(&Value::int(10)));
    }

    #[test]
    fn modified_history_and_current_state() {
        let q = bob_query();
        assert_eq!(q.modified_history().unwrap().len(), 3);
        let current = q.current_state().unwrap();
        let fees: Vec<i64> = current
            .relation("Order")
            .unwrap()
            .iter()
            .map(|t| t.value(4).unwrap().as_int().unwrap())
            .collect();
        assert_eq!(fees, vec![8, 5, 0, 4]);
    }

    #[test]
    fn normalize_exposes_first_modified_position() {
        let q = bob_query();
        let n = q.normalize().unwrap();
        assert_eq!(n.first_modified_position(), Some(0));
        assert_eq!(n.original.len(), n.modified.len());
    }

    #[test]
    fn empty_modifications_give_empty_answer() {
        let q = HistoricalWhatIf::new(
            History::new(running_example_history()),
            running_example_database(),
            ModificationSet::default(),
        );
        assert!(q.answer_by_direct_execution().unwrap().is_empty());
        assert_eq!(q.normalize().unwrap().first_modified_position(), None);
    }

    #[test]
    fn delete_modification_answer() {
        // Deleting u2 (the UK surcharge) changes both UK orders.
        let q = HistoricalWhatIf::new(
            History::new(running_example_history()),
            running_example_database(),
            ModificationSet::new(vec![Modification::delete(1)]),
        );
        let answer = q.answer_by_direct_execution().unwrap();
        let order = answer.relation("Order").unwrap();
        assert_eq!(order.minus_tuples().len(), 2);
        assert_eq!(order.plus_tuples().len(), 2);
    }

    #[test]
    fn insert_modification_answer() {
        // Inserting a new update that charges 1 extra for US orders.
        let extra = Statement::update(
            "Order",
            crate::statement::SetClause::single("ShippingFee", add(attr("ShippingFee"), lit(1))),
            eq(attr("Country"), slit("US")),
        );
        let q = HistoricalWhatIf::new(
            History::new(running_example_history()),
            running_example_database(),
            ModificationSet::new(vec![Modification::insert(3, extra)]),
        );
        let answer = q.answer_by_direct_execution().unwrap();
        let order = answer.relation("Order").unwrap();
        assert_eq!(order.plus_tuples().len(), 2);
        assert_eq!(order.minus_tuples().len(), 2);
    }

    #[test]
    fn borrowed_view_matches_owning_query() {
        let q = bob_query();
        let r = q.as_ref();
        assert_eq!(
            r.answer_by_direct_execution().unwrap(),
            q.answer_by_direct_execution().unwrap()
        );
        assert_eq!(r.current_state().unwrap(), q.current_state().unwrap());
        let n = r.normalize().unwrap();
        assert_eq!(n.modified_positions, vec![0]);
        // A ref built from parts behaves identically, and round-trips.
        let parts = WhatIfRef::new(&q.history, &q.database, &q.modifications);
        assert_eq!(parts.modified_history().unwrap().len(), 3);
        assert_eq!(parts.to_owned().history.len(), q.history.len());
        let from: WhatIfRef<'_> = (&q).into();
        assert_eq!(from.history.len(), 3);
    }

    #[test]
    fn display_mentions_history_and_modifications() {
        let q = bob_query();
        let s = q.to_string();
        assert!(s.contains("3 statements"));
        assert!(s.contains("M = ("));
    }
}
