//! Update statements and their semantics (Section 2, Equations (1)–(4)).

use std::fmt;

use mahif_expr::{eval_condition, eval_expr, Expr, Value};
use mahif_query::{evaluate, Query};
use mahif_storage::{Database, Relation, Schema, Tuple, TupleBindings};

use crate::error::HistoryError;

/// The `Set` clause of an update: the attributes that are explicitly
/// assigned. All other attributes keep their value (identity), matching the
/// paper's notational shortcut `(A_{i1} ← e_1, ..., A_{im} ← e_m)`.
#[derive(Debug, Clone, PartialEq)]
pub struct SetClause {
    /// `(attribute, expression)` assignments.
    pub assignments: Vec<(String, Expr)>,
}

impl SetClause {
    /// Creates a set clause from assignments.
    pub fn new(assignments: Vec<(String, Expr)>) -> Self {
        SetClause { assignments }
    }

    /// Single-assignment convenience constructor.
    pub fn single(attr: impl Into<String>, expr: Expr) -> Self {
        SetClause {
            assignments: vec![(attr.into(), expr)],
        }
    }

    /// The expression assigned to `attr`, or `None` when the attribute is
    /// not modified.
    pub fn expr_for(&self, attr: &str) -> Option<&Expr> {
        self.assignments
            .iter()
            .find(|(a, _)| a == attr)
            .map(|(_, e)| e)
    }

    /// Expands the partial assignment list into the full `Set` expression
    /// vector of the paper (one expression per schema attribute, identity
    /// where unspecified).
    pub fn full_set(&self, schema: &Schema) -> Vec<Expr> {
        schema
            .attributes
            .iter()
            .map(|a| {
                self.expr_for(&a.name)
                    .cloned()
                    .unwrap_or_else(|| Expr::Attr(a.name.clone()))
            })
            .collect()
    }

    /// Names of the attributes modified by this clause.
    pub fn modified_attributes(&self) -> Vec<String> {
        self.assignments.iter().map(|(a, _)| a.clone()).collect()
    }
}

/// A statement of a transactional history.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `UPDATE relation SET ... WHERE cond` — `U_{Set,θ}`.
    Update {
        /// Target relation.
        relation: String,
        /// Assignments.
        set: SetClause,
        /// The update's condition θ.
        cond: Expr,
    },
    /// `DELETE FROM relation WHERE cond` — `D_θ` (removes tuples satisfying
    /// `cond`, matching SQL; the paper's Equation (2) keeps tuples that do
    /// *not* fulfill the condition).
    Delete {
        /// Target relation.
        relation: String,
        /// The delete's condition θ.
        cond: Expr,
    },
    /// `INSERT INTO relation VALUES (...)` — `I_t`.
    InsertValues {
        /// Target relation.
        relation: String,
        /// The inserted tuple.
        tuple: Tuple,
    },
    /// `INSERT INTO relation SELECT ...` — `I_Q`.
    InsertQuery {
        /// Target relation.
        relation: String,
        /// The query producing inserted tuples.
        query: Query,
    },
}

impl Statement {
    /// Constructs an update statement.
    pub fn update(relation: impl Into<String>, set: SetClause, cond: Expr) -> Statement {
        Statement::Update {
            relation: relation.into(),
            set,
            cond,
        }
    }

    /// Constructs a delete statement.
    pub fn delete(relation: impl Into<String>, cond: Expr) -> Statement {
        Statement::Delete {
            relation: relation.into(),
            cond,
        }
    }

    /// Constructs an insert-values statement.
    pub fn insert_values(relation: impl Into<String>, tuple: Tuple) -> Statement {
        Statement::InsertValues {
            relation: relation.into(),
            tuple,
        }
    }

    /// Constructs an insert-query statement.
    pub fn insert_query(relation: impl Into<String>, query: Query) -> Statement {
        Statement::InsertQuery {
            relation: relation.into(),
            query,
        }
    }

    /// A *no-op* statement over `relation`: a delete whose condition is
    /// `false`, used to pad histories when rewriting statement insertions /
    /// deletions into replacements (Section 6).
    pub fn no_op(relation: impl Into<String>) -> Statement {
        Statement::delete(relation, Expr::false_())
    }

    /// True when this statement is a no-op (`D_false`).
    pub fn is_no_op(&self) -> bool {
        matches!(self, Statement::Delete { cond, .. } if cond.is_false())
    }

    /// The relation modified by this statement.
    pub fn relation(&self) -> &str {
        match self {
            Statement::Update { relation, .. }
            | Statement::Delete { relation, .. }
            | Statement::InsertValues { relation, .. }
            | Statement::InsertQuery { relation, .. } => relation,
        }
    }

    /// The statement's condition θ (updates and deletes only).
    pub fn condition(&self) -> Option<&Expr> {
        match self {
            Statement::Update { cond, .. } | Statement::Delete { cond, .. } => Some(cond),
            _ => None,
        }
    }

    /// Tuple independence (Definition 1 / Lemma 1): all statements except
    /// `INSERT ... SELECT` are tuple independent.
    pub fn is_tuple_independent(&self) -> bool {
        !matches!(self, Statement::InsertQuery { .. })
    }

    /// Short SQL-ish label for error messages and reports.
    pub fn label(&self) -> String {
        match self {
            Statement::Update { relation, .. } => format!("UPDATE {relation}"),
            Statement::Delete { relation, cond } if cond.is_false() => {
                format!("NOOP {relation}")
            }
            Statement::Delete { relation, .. } => format!("DELETE {relation}"),
            Statement::InsertValues { relation, .. } => format!("INSERT VALUES {relation}"),
            Statement::InsertQuery { relation, .. } => format!("INSERT SELECT {relation}"),
        }
    }

    /// Applies the statement to a database in place (Equations (1)–(4)).
    /// Only the target relation changes; for `INSERT ... SELECT` the query
    /// may read any relation and is evaluated to completion before any row
    /// is inserted, so a self-reading insert sees the pre-statement state.
    /// On error the target relation may be partially updated.
    pub fn apply(&self, db: &mut Database) -> Result<(), HistoryError> {
        match self {
            Statement::Update {
                relation,
                set,
                cond,
            } => {
                let rel = db.relation_mut(relation)?;
                let schema = rel.schema.clone();
                let full = set.full_set(&schema);
                for t in rel.tuples.iter_mut() {
                    let bind = TupleBindings::new(&schema, t);
                    if eval_condition(cond, &bind)? {
                        let values = full
                            .iter()
                            .map(|e| eval_expr(e, &bind))
                            .collect::<Result<Vec<_>, _>>()?;
                        *t = Tuple::new(values);
                    }
                }
            }
            Statement::Delete { relation, cond } => {
                let rel = db.relation_mut(relation)?;
                let schema = rel.schema.clone();
                let mut error = None;
                rel.tuples.retain(|t| {
                    if error.is_some() {
                        return true;
                    }
                    match eval_condition(cond, &TupleBindings::new(&schema, t)) {
                        Ok(deleted) => !deleted,
                        Err(e) => {
                            error = Some(e);
                            true
                        }
                    }
                });
                if let Some(e) = error {
                    return Err(e.into());
                }
            }
            Statement::InsertValues { relation, tuple } => {
                db.relation_mut(relation)?.insert(tuple.clone())?;
            }
            Statement::InsertQuery { relation, query } => {
                let result = evaluate(query, db)?;
                let rel = db.relation_mut(relation)?;
                for t in result.tuples {
                    rel.insert(t)?;
                }
            }
        }
        Ok(())
    }

    /// Applies a tuple-independent statement to a single tuple of its target
    /// relation, returning the surviving (possibly modified) tuple or `None`
    /// if the tuple is deleted. Insert statements return the tuple unchanged
    /// (they never modify existing tuples).
    pub fn apply_to_tuple(
        &self,
        schema: &Schema,
        tuple: &Tuple,
    ) -> Result<Option<Tuple>, HistoryError> {
        match self {
            Statement::Update { set, cond, .. } => {
                let bind = TupleBindings::new(schema, tuple);
                if eval_condition(cond, &bind)? {
                    let full = set.full_set(schema);
                    let mut values = Vec::with_capacity(full.len());
                    for e in &full {
                        values.push(eval_expr(e, &bind)?);
                    }
                    Ok(Some(Tuple::new(values)))
                } else {
                    Ok(Some(tuple.clone()))
                }
            }
            Statement::Delete { cond, .. } => {
                let bind = TupleBindings::new(schema, tuple);
                if eval_condition(cond, &bind)? {
                    Ok(None)
                } else {
                    Ok(Some(tuple.clone()))
                }
            }
            Statement::InsertValues { .. } => Ok(Some(tuple.clone())),
            Statement::InsertQuery { .. } => Err(HistoryError::NotTupleIndependent(self.label())),
        }
    }

    /// Fresh value assigned to attribute `attr` when the condition holds
    /// (update statements only): the paper's `Set(A_i)`.
    pub fn set_expr_for(&self, attr: &str) -> Option<&Expr> {
        match self {
            Statement::Update { set, .. } => set.expr_for(attr),
            _ => None,
        }
    }
}

impl fmt::Display for Statement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Statement::Update {
                relation,
                set,
                cond,
            } => {
                write!(f, "UPDATE {relation} SET ")?;
                for (i, (a, e)) in set.assignments.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a} = {e}")?;
                }
                write!(f, " WHERE {cond}")
            }
            Statement::Delete { relation, cond } => {
                write!(f, "DELETE FROM {relation} WHERE {cond}")
            }
            Statement::InsertValues { relation, tuple } => {
                write!(f, "INSERT INTO {relation} VALUES {tuple}")
            }
            Statement::InsertQuery { relation, query } => {
                write!(f, "INSERT INTO {relation} ({query})")
            }
        }
    }
}

/// Builds the running-example `Order` database of Figure 1. Exposed because
/// many crates' tests and the examples use it.
pub fn running_example_database() -> Database {
    use mahif_storage::Attribute;
    let schema = Schema::shared(
        "Order",
        vec![
            Attribute::int("ID"),
            Attribute::str("Customer"),
            Attribute::str("Country"),
            Attribute::int("Price"),
            Attribute::int("ShippingFee"),
        ],
    );
    let mut r = Relation::empty(schema);
    for (id, customer, country, price, fee) in [
        (11, "Susan", "UK", 20, 5),
        (12, "Alex", "UK", 50, 5),
        (13, "Jack", "US", 60, 3),
        (14, "Mark", "US", 30, 4),
    ] {
        r.insert(Tuple::new(vec![
            Value::int(id),
            Value::str(customer),
            Value::str(country),
            Value::int(price),
            Value::int(fee),
        ]))
        .unwrap();
    }
    let mut db = Database::new();
    db.add_relation(r).unwrap();
    db
}

/// The running-example history `H = (u1, u2, u3)` of Figure 2.
pub fn running_example_history() -> Vec<Statement> {
    use mahif_expr::builder::*;
    vec![
        // u1: UPDATE Order SET ShippingFee = 0 WHERE Price >= 50
        Statement::update(
            "Order",
            SetClause::single("ShippingFee", lit(0)),
            ge(attr("Price"), lit(50)),
        ),
        // u2: UPDATE Order SET ShippingFee = ShippingFee + 5
        //     WHERE Country = 'UK' AND Price <= 100
        Statement::update(
            "Order",
            SetClause::single("ShippingFee", add(attr("ShippingFee"), lit(5))),
            and(eq(attr("Country"), slit("UK")), le(attr("Price"), lit(100))),
        ),
        // u3: UPDATE Order SET ShippingFee = ShippingFee - 2
        //     WHERE Price <= 30 AND ShippingFee >= 10
        Statement::update(
            "Order",
            SetClause::single("ShippingFee", sub(attr("ShippingFee"), lit(2))),
            and(le(attr("Price"), lit(30)), ge(attr("ShippingFee"), lit(10))),
        ),
    ]
}

/// The hypothetical replacement `u1'` of the running example (waive shipping
/// fees only for orders of at least $60).
pub fn running_example_u1_prime() -> Statement {
    use mahif_expr::builder::*;
    Statement::update(
        "Order",
        SetClause::single("ShippingFee", lit(0)),
        ge(attr("Price"), lit(60)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mahif_expr::builder::*;

    fn fees(db: &Database) -> Vec<i64> {
        db.relation("Order")
            .unwrap()
            .iter()
            .map(|t| t.value(4).unwrap().as_int().unwrap())
            .collect()
    }

    #[test]
    fn set_clause_expansion() {
        let schema = Schema::new(
            "R",
            vec![
                mahif_storage::Attribute::int("A"),
                mahif_storage::Attribute::int("B"),
            ],
        );
        let set = SetClause::single("B", add(attr("B"), lit(3)));
        let full = set.full_set(&schema);
        assert_eq!(full.len(), 2);
        assert_eq!(full[0], attr("A"));
        assert_eq!(full[1], add(attr("B"), lit(3)));
        assert_eq!(set.modified_attributes(), vec!["B"]);
        assert!(set.expr_for("A").is_none());
    }

    #[test]
    fn update_semantics_running_example_u1() {
        let mut db = running_example_database();
        running_example_history()[0].apply(&mut db).unwrap();
        assert_eq!(fees(&db), vec![5, 0, 0, 4]);
    }

    #[test]
    fn full_history_matches_figure_3() {
        let mut db = running_example_database();
        for u in running_example_history() {
            u.apply(&mut db).unwrap();
        }
        assert_eq!(fees(&db), vec![8, 5, 0, 4]);
    }

    #[test]
    fn modified_history_matches_figure_4() {
        let mut db = running_example_database();
        let mut history = running_example_history();
        history[0] = running_example_u1_prime();
        for u in history {
            u.apply(&mut db).unwrap();
        }
        // Figure 4: Alex's order (ID 12) now pays 10 instead of 5.
        assert_eq!(fees(&db), vec![8, 10, 0, 4]);
    }

    #[test]
    fn delete_semantics() {
        let mut db = running_example_database();
        let d = Statement::delete("Order", ge(attr("Price"), lit(50)));
        d.apply(&mut db).unwrap();
        assert_eq!(db.relation("Order").unwrap().len(), 2);
    }

    #[test]
    fn insert_values_semantics() {
        let mut db = running_example_database();
        let t = Tuple::new(vec![
            Value::int(15),
            Value::str("Eve"),
            Value::str("UK"),
            Value::int(10),
            Value::int(2),
        ]);
        let i = Statement::insert_values("Order", t.clone());
        i.apply(&mut db).unwrap();
        assert_eq!(db.relation("Order").unwrap().len(), 5);
        assert!(db.relation("Order").unwrap().contains(&t));
    }

    #[test]
    fn insert_query_semantics() {
        // Insert a copy of all UK orders (with new IDs offset by 100): the
        // query reads the pre-statement state, so the copies are not copied
        // again.
        let mut db = running_example_database();
        let q = Query::project(
            vec![
                mahif_query::ProjectItem::new(add(attr("ID"), lit(100)), "ID"),
                mahif_query::ProjectItem::identity("Customer"),
                mahif_query::ProjectItem::identity("Country"),
                mahif_query::ProjectItem::identity("Price"),
                mahif_query::ProjectItem::identity("ShippingFee"),
            ],
            Query::select(eq(attr("Country"), slit("UK")), Query::scan("Order")),
        );
        let i = Statement::insert_query("Order", q);
        i.apply(&mut db).unwrap();
        assert_eq!(db.relation("Order").unwrap().len(), 6);
        assert!(!i.is_tuple_independent());
    }

    #[test]
    fn no_op_does_nothing() {
        let db = running_example_database();
        let n = Statement::no_op("Order");
        assert!(n.is_no_op());
        let mut after = db.clone();
        n.apply(&mut after).unwrap();
        assert!(after.set_eq(&db));
        assert!(!Statement::delete("Order", Expr::true_()).is_no_op());
    }

    #[test]
    fn apply_to_tuple_update_and_delete() {
        let db = running_example_database();
        let schema = db.relation("Order").unwrap().schema.clone();
        let expensive = Tuple::new(vec![
            Value::int(13),
            Value::str("Jack"),
            Value::str("US"),
            Value::int(60),
            Value::int(3),
        ]);
        let u1 = &running_example_history()[0];
        let updated = u1.apply_to_tuple(&schema, &expensive).unwrap().unwrap();
        assert_eq!(updated.value(4), Some(&Value::int(0)));

        let cheap = Tuple::new(vec![
            Value::int(11),
            Value::str("Susan"),
            Value::str("UK"),
            Value::int(20),
            Value::int(5),
        ]);
        let unchanged = u1.apply_to_tuple(&schema, &cheap).unwrap().unwrap();
        assert_eq!(unchanged, cheap);

        let del = Statement::delete("Order", ge(attr("Price"), lit(50)));
        assert!(del.apply_to_tuple(&schema, &expensive).unwrap().is_none());
        assert!(del.apply_to_tuple(&schema, &cheap).unwrap().is_some());
    }

    #[test]
    fn apply_to_tuple_rejects_insert_query() {
        let db = running_example_database();
        let schema = db.relation("Order").unwrap().schema.clone();
        let i = Statement::insert_query("Order", Query::scan("Order"));
        let t = Tuple::new(vec![
            Value::int(1),
            Value::str("x"),
            Value::str("UK"),
            Value::int(1),
            Value::int(1),
        ]);
        assert!(matches!(
            i.apply_to_tuple(&schema, &t),
            Err(HistoryError::NotTupleIndependent(_))
        ));
    }

    #[test]
    fn tuple_independence_lemma_1() {
        // u(D) = ∪_{t∈D} u({t}) for updates and deletes over the running
        // example instance.
        let db = running_example_database();
        let rel = db.relation("Order").unwrap();
        let schema = rel.schema.clone();
        for stmt in [
            running_example_history()[0].clone(),
            running_example_history()[1].clone(),
            Statement::delete("Order", ge(attr("Price"), lit(50))),
        ] {
            let mut full = db.clone();
            stmt.apply(&mut full).unwrap();
            let full_rel = full.relation("Order").unwrap();
            let mut union: Vec<Tuple> = Vec::new();
            for t in rel.iter() {
                if let Some(out) = stmt.apply_to_tuple(&schema, t).unwrap() {
                    union.push(out);
                }
            }
            let mut a = full_rel.sorted_tuples();
            let mut b = union;
            b.sort_by(|x, y| x.total_cmp(y));
            a.sort_by(|x, y| x.total_cmp(y));
            assert_eq!(a, b, "tuple independence violated for {stmt}");
        }
    }

    #[test]
    fn labels_and_display() {
        let u = &running_example_history()[0];
        assert_eq!(u.label(), "UPDATE Order");
        assert!(u.to_string().contains("UPDATE Order SET ShippingFee"));
        assert_eq!(Statement::no_op("Order").label(), "NOOP Order");
        let d = Statement::delete("Order", Expr::true_());
        assert_eq!(d.label(), "DELETE Order");
        assert!(d.to_string().contains("DELETE FROM Order"));
        let iv = Statement::insert_values("Order", Tuple::new(vec![Value::int(1)]));
        assert!(iv.to_string().contains("INSERT INTO Order VALUES"));
        assert_eq!(iv.label(), "INSERT VALUES Order");
        let iq = Statement::insert_query("Order", Query::scan("Order"));
        assert!(iq.to_string().contains("INSERT INTO Order"));
        assert_eq!(iq.label(), "INSERT SELECT Order");
    }
}
