//! Versioned databases — the "time travel" substrate.
//!
//! The paper assumes the backend DBMS supports time travel so that the state
//! `D` of the database *before* the first modified statement can be accessed
//! (Section 1, Section 4). A [`VersionedDatabase`] holds exactly the two
//! states the engine reads: `D`, the initial state before the transactional
//! history, and `H(D)`, the state after it. Reenactment reads both; the
//! naive method reads only `H(D)`. Intermediate states are never kept.

use crate::database::Database;

/// The two database states a registered history is answered against: `D`
/// before the history and `H(D)` after it.
#[derive(Debug, Clone)]
pub struct VersionedDatabase {
    initial: Database,
    current: Database,
}

impl VersionedDatabase {
    /// Pairs the state `initial` (`D`) with the state `current` (`H(D)`)
    /// produced by executing the history over it.
    pub fn new(initial: Database, current: Database) -> Self {
        VersionedDatabase { initial, current }
    }

    /// The initial state — `D` in the paper's notation.
    pub fn initial(&self) -> &Database {
        &self.initial
    }

    /// The state after the whole history — `H(D)` in the paper's notation.
    pub fn current(&self) -> &Database {
        &self.current
    }
}
