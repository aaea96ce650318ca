//! Columnar reenactment: apply a history's UPDATE/DELETE chain over a
//! [`ColumnarRelation`] batch instead of tuple-at-a-time query evaluation.
//!
//! This is the vectorized twin of building the reenactment query
//! ([`crate::reenact_history_over`]) and evaluating it row-wise:
//!
//! * the data-slicing condition and every DELETE narrow a **selection
//!   vector** ([`select_where`]) — no tuples are copied until a projection
//!   forces materialization;
//! * every UPDATE compiles its per-attribute `IF cond THEN e ELSE attr`
//!   projection into a flat program and evaluates it column-at-a-time,
//!   passing untouched columns through by `Arc` when the selection is still
//!   the identity;
//! * `INSERT ... VALUES` statements ride along via the insert-split of
//!   Section 5.3 ([`split_reenactment`]): the no-insert trunk runs columnar
//!   and each (tiny) insert branch is evaluated by the row engine and
//!   appended with the same `union_all` the row path uses.
//!
//! [`execute_history`] runs the same UPDATE/DELETE chain over a whole
//! database with *direct-execution* semantics (a DELETE whose condition is
//! NULL keeps the row) to compute `H(D)` at registration.
//!
//! Anything inexpressible — `INSERT ... SELECT`, predicates that fail
//! [`compile`] (symbolic variables, cross-type comparisons, …), mixed-type
//! columns, or any runtime arithmetic fault — yields `None` and the caller
//! falls back to the row path, whose result (or error) is authoritative. On
//! success the output is byte-identical to the row path's, including the
//! inferred output schema (recomputed here with the same
//! [`mahif_query::schema_infer::infer_type`] rules the row evaluator uses).

use std::sync::Arc;

use mahif_expr::vector::{compile, eval_batch, select_where, BatchSchema, Column, StrPool};
use mahif_expr::Expr;
use mahif_history::{History, Statement};
use mahif_query::evaluate;
use mahif_query::schema_infer::infer_type;
use mahif_storage::{Attribute, ColumnarRelation, Database, Relation, Schema, SchemaRef, Tuple};

use crate::split::split_reenactment;

/// A successful columnar reenactment of one relation side.
#[derive(Debug)]
pub struct ColumnarOutcome {
    /// The reenacted relation, byte-identical to the row path's result.
    pub relation: Relation,
    /// Number of flat predicate/projection programs evaluated vectorized.
    pub vectorized_predicates: usize,
}

/// True when `history` contains a statement the columnar path cannot express
/// for `relation` (`INSERT ... SELECT` needs query substitution and joins).
pub fn has_insert_query(history: &History, relation: &str) -> bool {
    history
        .statements()
        .iter()
        .any(|s| s.relation() == relation && matches!(s, Statement::InsertQuery { .. }))
}

/// The inferred output schema of reenacting `trunk` over `base` — the exact
/// schema the row path's `infer_schema` assigns to the reenactment query, so
/// delta comparison (which includes schemas) cannot tell the paths apart.
fn output_schema(trunk: &[&Statement], base: &SchemaRef) -> SchemaRef {
    let mut schema = Arc::clone(base);
    for stmt in trunk {
        if let Statement::Update { set, cond, .. } = stmt {
            if cond.is_false() {
                continue; // reenact_statement passes constant-false through
            }
            let attrs = schema
                .attributes
                .iter()
                .map(|a| {
                    let dtype = match set.expr_for(&a.name) {
                        // The projection item is IF cond THEN e ELSE attr and
                        // infer_type takes the THEN branch's type.
                        Some(e) => infer_type(e, &schema),
                        None => a.dtype,
                    };
                    Attribute::new(a.name.clone(), dtype)
                })
                .collect();
            schema = Schema::shared(schema.relation.clone(), attrs);
        }
    }
    schema
}

/// The in-flight batch: physical columns plus the current selection.
struct Batch {
    schema: BatchSchema,
    names: Vec<String>,
    cols: Vec<Arc<Column>>,
    pool: StrPool,
    /// Ascending positions into the physical columns; always a subset of
    /// `0..rows`, so `sel.len() == rows` means the identity.
    sel: Vec<u32>,
    rows: usize,
    predicates: usize,
}

impl Batch {
    fn from_base(base: &ColumnarRelation) -> Batch {
        Batch {
            schema: base.batch_schema(),
            names: base
                .schema
                .attributes
                .iter()
                .map(|a| a.name.clone())
                .collect(),
            cols: base.columns.iter().map(Arc::clone).collect(),
            pool: base.pool.clone(),
            sel: (0..base.len() as u32).collect(),
            rows: base.len(),
            predicates: 0,
        }
    }

    /// Narrow the selection to rows where `cond` evaluates to exactly `want`.
    fn narrow(&mut self, cond: &Expr, want: bool) -> Option<()> {
        // Validate the *whole* condition compiles before narrowing:
        // `select_where` may skip an operand on decided rows, and a skipped
        // operand must be known well-typed (the row path evaluates it
        // everywhere).
        compile(cond, &self.schema, &mut self.pool)?;
        self.sel = select_where(
            cond,
            want,
            &self.schema,
            &self.cols,
            &mut self.pool,
            &self.sel,
            &mut self.predicates,
        )
        .ok()?;
        Some(())
    }

    /// Drop the rows where `cond` is exactly TRUE: direct execution's
    /// DELETE, under which a row whose condition is NULL survives.
    fn remove_where(&mut self, cond: &Expr) -> Option<()> {
        compile(cond, &self.schema, &mut self.pool)?;
        let deleted = select_where(
            cond,
            true,
            &self.schema,
            &self.cols,
            &mut self.pool,
            &self.sel,
            &mut self.predicates,
        )
        .ok()?;
        // Both are ascending and `deleted ⊆ sel`: one merge pass.
        let mut deleted = deleted.into_iter().peekable();
        self.sel.retain(|p| deleted.next_if_eq(p).is_none());
        Some(())
    }

    /// Apply an UPDATE: recompute set attributes via compiled programs,
    /// gather (or pass through) the rest, and reset the selection to the
    /// identity over the now-dense columns.
    fn update(&mut self, set: &mahif_history::SetClause, cond: &Expr) -> Option<()> {
        let identity = self.sel.len() == self.rows;
        let n = self.sel.len();
        let mut cols = Vec::with_capacity(self.cols.len());
        let mut types = Vec::with_capacity(self.cols.len());
        for (idx, name) in self.names.iter().enumerate() {
            match set.expr_for(name) {
                Some(e) => {
                    let item = Expr::IfThenElse {
                        cond: Arc::new(cond.clone()),
                        then_branch: Arc::new(e.clone()),
                        else_branch: Arc::new(Expr::Attr(name.clone())),
                    };
                    let program = compile(&item, &self.schema, &mut self.pool)?;
                    let out = eval_batch(&program, &self.cols, &self.pool, &self.sel).ok()?;
                    self.predicates += 1;
                    types.push(program.out_type());
                    cols.push(Arc::new(out.into_column()));
                }
                None if identity => {
                    types.push(self.cols[idx].vtype());
                    cols.push(Arc::clone(&self.cols[idx]));
                }
                None => {
                    let gathered = self.cols[idx].gather(&self.sel);
                    types.push(gathered.vtype());
                    cols.push(Arc::new(gathered));
                }
            }
        }
        for (idx, t) in types.into_iter().enumerate() {
            self.schema.set_type(idx, t);
        }
        self.cols = cols;
        self.rows = n;
        self.sel = (0..n as u32).collect();
        Some(())
    }

    /// Materialize the selected rows under `out_schema`.
    fn into_relation(self, out_schema: SchemaRef) -> Relation {
        let tuples = self
            .sel
            .iter()
            .map(|&p| {
                Tuple::new(
                    self.cols
                        .iter()
                        .map(|c| c.value_at(p as usize, &self.pool))
                        .collect(),
                )
            })
            .collect();
        Relation::new(out_schema, tuples).expect("batch columns match the output schema arity")
    }
}

/// Reenact the UPDATE/DELETE trunk of `history` for `relation` over the
/// columnar `base`, restricted to rows satisfying `condition`.
fn reenact_trunk(
    trunk: &[&Statement],
    base: &ColumnarRelation,
    condition: &Expr,
) -> Option<ColumnarOutcome> {
    if base.columns.is_empty() {
        return None; // zero-arity relations stay on the row path
    }
    let out_schema = output_schema(trunk, &base.schema);
    let mut batch = Batch::from_base(base);
    if !condition.is_true() {
        batch.narrow(condition, true)?;
    }
    for stmt in trunk {
        match stmt {
            Statement::Update { set, cond, .. } => {
                if cond.is_false() {
                    continue; // matches reenact_statement's pass-through
                }
                batch.update(set, cond)?;
            }
            Statement::Delete { cond, .. } => {
                if cond.is_false() {
                    continue;
                }
                // σ_{¬θ}: keep rows where the condition is exactly FALSE
                // (NULL deletes nothing, but NOT NULL is NULL — not kept
                // either way by the row path's NULL-is-false filter).
                // This is reenactment's semantics, not direct execution's:
                // a row whose θ is NULL survives a direct DELETE but is
                // dropped here (ROADMAP item 1). It is kept as is so this
                // path stays byte-identical to the row reenactment;
                // `execute_history` computes `H(D)` and must match direct
                // execution instead, so it removes only the rows where θ
                // is TRUE (`Batch::remove_where`).
                batch.narrow(cond, false)?;
            }
            Statement::InsertValues { .. } | Statement::InsertQuery { .. } => {
                unreachable!("trunk contains only updates and deletes")
            }
        }
    }
    let predicates = batch.predicates;
    Some(ColumnarOutcome {
        relation: batch.into_relation(out_schema),
        vectorized_predicates: predicates,
    })
}

/// Columnar reenactment of one relation side, mirroring the row path's
/// structure exactly:
///
/// * no inserts → trunk over `sliced` rooted at σ_condition(base);
/// * `INSERT ... VALUES` present → the insert-split: the no-insert trunk of
///   `sliced` runs columnar, then each insert branch of `full_tail` is
///   evaluated by the row engine over `base_db` and appended via the same
///   `union_all` (so union-compatibility errors surface identically — as a
///   fallback to the row path, which then raises them).
///
/// Returns `None` whenever the row path must take over; the caller counts
/// that as a row fallback.
pub fn reenact_side_columnar(
    sliced: &History,
    full_tail: &History,
    relation: &str,
    schema: &SchemaRef,
    condition: &Expr,
    base_db: &Database,
    base: &ColumnarRelation,
) -> Option<ColumnarOutcome> {
    if has_insert_query(full_tail, relation) {
        return None;
    }
    let trunk: Vec<&Statement> = sliced
        .statements()
        .iter()
        .filter(|s| {
            s.relation() == relation
                && matches!(s, Statement::Update { .. } | Statement::Delete { .. })
        })
        .collect();
    let mut outcome = reenact_trunk(&trunk, base, condition)?;
    let has_inserts = full_tail
        .statements()
        .iter()
        .any(|s| s.relation() == relation && matches!(s, Statement::InsertValues { .. }));
    if has_inserts {
        let split = split_reenactment(full_tail, relation, schema);
        for branch in &split.insert_branches {
            let branch_result = evaluate(branch, base_db).ok()?;
            outcome.relation = outcome.relation.union_all(&branch_result).ok()?;
        }
    }
    Some(outcome)
}

/// Executes `history` over `db` on the columnar trunk: the final state
/// `H(D)`, equal tuple for tuple, in order and under the same schemas, to
/// [`History::execute`]'s. Each relation the history touches is encoded
/// once, its UPDATE/DELETE statements run in history order, and the result
/// is decoded under the relation's declared schema (direct execution never
/// retypes a relation). Relations the history does not touch are copied.
///
/// Returns `None` — and the caller runs [`History::execute`], whose result
/// or error is authoritative — for any INSERT, a statement on a relation
/// `db` lacks, a relation without a typed columnar encoding, a statement
/// that fails [`compile`], and any runtime fault.
pub fn execute_history(history: &History, db: &Database) -> Option<Database> {
    for stmt in history.statements() {
        let inserts = matches!(
            stmt,
            Statement::InsertValues { .. } | Statement::InsertQuery { .. }
        );
        if inserts || !db.has_relation(stmt.relation()) {
            return None;
        }
    }
    let mut out = Database::new();
    for (name, relation) in db.iter() {
        let mut trunk = history
            .statements()
            .iter()
            .filter(|s| s.relation() == name)
            .peekable();
        if trunk.peek().is_none() {
            out.put_relation(relation.clone());
            continue;
        }
        let base = relation.to_columnar()?;
        if base.columns.is_empty() {
            return None; // zero-arity relations stay on the row path
        }
        let mut batch = Batch::from_base(&base);
        for stmt in trunk {
            match stmt {
                Statement::Update { set, cond, .. } => {
                    // An update that assigns no attribute of the relation
                    // would never evaluate θ here, while direct execution
                    // evaluates it on every row (and may fault).
                    if !batch.names.iter().any(|n| set.expr_for(n).is_some()) {
                        return None;
                    }
                    if !cond.is_false() {
                        batch.update(set, cond)?;
                    }
                }
                Statement::Delete { cond, .. } => {
                    if !cond.is_false() {
                        batch.remove_where(cond)?;
                    }
                }
                Statement::InsertValues { .. } | Statement::InsertQuery { .. } => {
                    unreachable!("inserts were declined above")
                }
            }
        }
        out.put_relation(batch.into_relation(Arc::clone(&relation.schema)));
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mahif_expr::builder::*;
    use mahif_history::SetClause;
    use mahif_query::{evaluate, Query};
    use mahif_storage::Database;

    use crate::builder::reenact_history_over;

    fn base_db() -> Database {
        mahif_history::statement::running_example_database()
    }

    /// Row-path result for the same side: σ_condition under the reenactment.
    fn row_side(
        history: &History,
        relation: &str,
        schema: &SchemaRef,
        condition: &Expr,
        db: &Database,
    ) -> Relation {
        let base = if condition.is_true() {
            Query::scan(relation)
        } else {
            Query::select(condition.clone(), Query::scan(relation))
        };
        let query = reenact_history_over(history, relation, schema, base);
        evaluate(&query, db).unwrap()
    }

    fn assert_sides_identical(history: &History, condition: &Expr) {
        let db = base_db();
        let relation = "Order";
        let schema = Arc::clone(&db.relation(relation).unwrap().schema);
        let base = db.relation(relation).unwrap().to_columnar().unwrap();
        let got = reenact_side_columnar(history, history, relation, &schema, condition, &db, &base)
            .expect("columnar path should handle this history");
        let want = row_side(history, relation, &schema, condition, &db);
        assert_eq!(got.relation, want, "tuples or schema differ");
        assert_eq!(got.relation.schema, want.schema);
    }

    fn example_history() -> History {
        History::new(mahif_history::statement::running_example_history())
    }

    #[test]
    fn matches_row_path_on_running_example() {
        assert_sides_identical(&example_history(), &Expr::true_());
        // With a data-slicing-style condition at the base.
        assert_sides_identical(&example_history(), &eq(attr("Country"), slit("UK")));
    }

    #[test]
    fn matches_row_path_with_inserts_and_deletes() {
        let mut stmts = mahif_history::statement::running_example_history();
        stmts.push(Statement::insert_values(
            "Order",
            Tuple::from_iter_values([
                mahif_expr::Value::int(99),
                mahif_expr::Value::str("Nina"),
                mahif_expr::Value::str("UK"),
                mahif_expr::Value::int(15),
                mahif_expr::Value::int(3),
            ]),
        ));
        stmts.push(Statement::delete("Order", gt(attr("Price"), lit(150))));
        stmts.push(Statement::no_op("Order"));
        let history = History::new(stmts);
        assert_sides_identical(&history, &Expr::true_());
        assert_sides_identical(&history, &le(attr("Price"), lit(120)));
    }

    #[test]
    fn falls_back_on_insert_query() {
        let db = base_db();
        let relation = "Order";
        let schema = Arc::clone(&db.relation(relation).unwrap().schema);
        let base = db.relation(relation).unwrap().to_columnar().unwrap();
        let history = History::new(vec![Statement::insert_query("Order", Query::scan("Order"))]);
        assert!(reenact_side_columnar(
            &history,
            &history,
            relation,
            &schema,
            &Expr::true_(),
            &db,
            &base,
        )
        .is_none());
    }

    #[test]
    fn falls_back_on_unsupported_predicates() {
        let db = base_db();
        let relation = "Order";
        let schema = Arc::clone(&db.relation(relation).unwrap().schema);
        let base = db.relation(relation).unwrap().to_columnar().unwrap();
        // Symbolic variable: not vectorizable, must fall back.
        let history = History::new(vec![Statement::delete(
            "Order",
            eq(attr("Country"), var("c")),
        )]);
        assert!(reenact_side_columnar(
            &history,
            &history,
            relation,
            &schema,
            &Expr::true_(),
            &db,
            &base,
        )
        .is_none());
    }

    #[test]
    fn type_changing_update_falls_back() {
        // SET Country = 7 would retype the column per-row (the projection
        // item's THEN/ELSE branches are Int/Str): a partially-matched
        // condition yields a mixed column no typed encoding can hold, so the
        // compiler rejects the item and the whole side stays on the row path.
        let db = base_db();
        let relation = "Order";
        let schema = Arc::clone(&db.relation(relation).unwrap().schema);
        let history = History::new(vec![Statement::update(
            "Order",
            SetClause::single("Country", lit(7)),
            Expr::true_(),
        )]);
        let base = db.relation(relation).unwrap().to_columnar().unwrap();
        assert!(reenact_side_columnar(
            &history,
            &history,
            relation,
            &schema,
            &Expr::true_(),
            &db,
            &base,
        )
        .is_none());
    }

    #[test]
    fn inferred_output_schema_matches_row_path_after_null_update() {
        // SET Customer = NULL: infer_type(Const(Null)) defaults to Int, so
        // the row path's inferred output schema *changes* (Str → Int for
        // Customer). The columnar fold must reproduce that drift exactly or
        // delta comparison (which includes schemas) could tell the paths
        // apart.
        let db = base_db();
        let relation = "Order";
        let schema = Arc::clone(&db.relation(relation).unwrap().schema);
        let history = History::new(vec![Statement::update(
            "Order",
            SetClause::single("Customer", null()),
            gt(attr("Price"), lit(1000)), // matches nothing, but still projects
        )]);
        let base = db.relation(relation).unwrap().to_columnar().unwrap();
        let got = reenact_side_columnar(
            &history,
            &history,
            relation,
            &schema,
            &Expr::true_(),
            &db,
            &base,
        )
        .expect("NULL-branch update is expressible");
        let want = row_side(&history, relation, &schema, &Expr::true_(), &db);
        assert_eq!(got.relation, want);
        assert_eq!(got.relation.schema, want.schema);
    }

    #[test]
    fn execute_history_matches_direct_execution() {
        let mut stmts = mahif_history::statement::running_example_history();
        stmts.push(Statement::delete("Order", gt(attr("Price"), lit(55))));
        let history = History::new(stmts);
        let db = base_db();
        let got = execute_history(&history, &db).expect("updates and deletes run columnar");
        assert_eq!(got, history.execute(&db).unwrap());
        let declared = &db.relation("Order").unwrap().schema;
        assert!(Arc::ptr_eq(
            &got.relation("Order").unwrap().schema,
            declared
        ));
    }

    #[test]
    fn execute_history_keeps_rows_whose_delete_condition_is_null() {
        // Direct execution deletes where θ is TRUE; reenactment's σ_{¬θ}
        // would also drop the NULL row.
        let mut db = base_db();
        let order = db.relation_mut("Order").unwrap();
        order.tuples[0].values[3] = mahif_expr::Value::Null;
        let history = History::new(vec![Statement::delete("Order", lt(attr("Price"), lit(40)))]);
        let got = execute_history(&history, &db).unwrap();
        assert_eq!(got, history.execute(&db).unwrap());
        assert!(got.relation("Order").unwrap().tuples[0].values[3].is_null());
    }

    #[test]
    fn execute_history_declines_what_it_cannot_express() {
        let db = base_db();
        let row = db.relation("Order").unwrap().tuples[0].clone();
        let declined = [
            Statement::insert_values("Order", row),
            Statement::insert_query("Order", Query::scan("Order")),
            Statement::update("Missing", SetClause::single("Price", lit(1)), Expr::true_()),
            Statement::update("Order", SetClause::single("Country", lit(7)), Expr::true_()),
            Statement::update("Order", SetClause::single("Nope", lit(7)), Expr::true_()),
            Statement::delete("Order", eq(attr("Country"), var("c"))),
        ];
        for stmt in declined {
            let label = stmt.label();
            assert!(
                execute_history(&History::new(vec![stmt]), &db).is_none(),
                "{label}"
            );
        }
    }

    #[test]
    fn runtime_arithmetic_faults_fall_back() {
        let db = base_db();
        let relation = "Order";
        let schema = Arc::clone(&db.relation(relation).unwrap().schema);
        let base = db.relation(relation).unwrap().to_columnar().unwrap();
        // Price / (Price - Price) divides by zero on every row; the row path
        // errors, so the columnar path must decline rather than answer.
        let history = History::new(vec![Statement::update(
            "Order",
            SetClause::single(
                "Price",
                div(attr("Price"), sub(attr("Price"), attr("Price"))),
            ),
            Expr::true_(),
        )]);
        assert!(reenact_side_columnar(
            &history,
            &history,
            relation,
            &schema,
            &Expr::true_(),
            &db,
            &base,
        )
        .is_none());
    }
}
