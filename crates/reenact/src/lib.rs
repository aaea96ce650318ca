//! # mahif-reenact
//!
//! Reenactment: replaying a transactional history as a relational algebra
//! query (Section 5.1, Definition 3 of the paper).
//!
//! For a statement `u` over relation `R` with schema `(A_1, ..., A_n)`:
//!
//! ```text
//! R_{U_{Set,θ}} := Π_{if θ then e_1 else A_1, ..., if θ then e_n else A_n}(R)
//! R_{D_θ}       := σ_{¬θ}(R)
//! R_{I_t}       := R ∪ {t}
//! R_{I_Q}       := R ∪ Q
//! ```
//!
//! The reenactment query `R_H` of a history is built by substituting the
//! reference to `R` in `R_{u_i}` with `R_{u_{i-1}}`; for histories touching
//! multiple relations a separate query `R^R_H` is built per relation.
//!
//! The crate also implements the *insert-split* optimization of Section 10:
//! `R_H ≡ R_{H_noIns} ∪ R_{H/R}` where the left branch reenacts only updates
//! and deletes over the stored relation and the right branches reenact the
//! suffix of the history over the tuples contributed by each insert. The left
//! branch is what program slicing is applied to.

#![forbid(unsafe_code)]

pub mod builder;
pub mod columnar;
pub mod split;

pub use builder::{reenact_history, reenact_history_over, reenact_statement, reenactment_queries};
pub use columnar::{execute_history, has_insert_query, reenact_side_columnar, ColumnarOutcome};
pub use split::{combine_split, split_reenactment, SplitReenactment};

#[cfg(test)]
mod tests {
    use mahif_history::statement::{running_example_database, running_example_history};
    use mahif_history::History;
    use mahif_query::evaluate;

    /// End-to-end check of the crate-level claim `H(R) = R_H(R)` on the
    /// running example.
    #[test]
    fn reenactment_equals_execution_running_example() {
        let db = running_example_database();
        let history = History::new(running_example_history());
        let executed = history.execute(&db).unwrap();
        let schema = db.relation("Order").unwrap().schema.clone();
        let query = crate::reenact_history(&history, "Order", &schema);
        let reenacted = evaluate(&query, &db).unwrap();
        assert!(executed.relation("Order").unwrap().set_eq(&reenacted));
    }
}
