//! Construction of reenactment queries (Definition 3).

use std::collections::BTreeMap;

use mahif_expr::Expr;
use mahif_history::{History, Statement};
use mahif_query::{ProjectItem, Query};
use mahif_storage::{Schema, SchemaRef};

/// Builds the reenactment query `R_u` for a single statement, with `input`
/// standing in for the relation reference `R`.
///
/// Statements over other relations than `relation` are ignored (the input is
/// returned unchanged) — this is how per-relation reenactment queries
/// `R^R_H` are assembled for multi-relation histories.
pub fn reenact_statement(
    statement: &Statement,
    relation: &str,
    schema: &Schema,
    input: Query,
) -> Query {
    if statement.relation() != relation {
        return input;
    }
    // A statement whose predicate is constant-false touches no tuples:
    // reenacting it as σ_{¬false} (or an identity projection) would make the
    // evaluator re-clone every tuple of the input for nothing. Scenario
    // normalization pads histories with exactly such `Statement::no_op`s, so
    // pass the input through unchanged instead.
    if statement
        .condition()
        .is_some_and(mahif_expr::Expr::is_false)
    {
        return input;
    }
    match statement {
        Statement::Update { set, cond, .. } => {
            let items = schema
                .attributes
                .iter()
                .map(|a| {
                    let item_expr = match set.expr_for(&a.name) {
                        Some(e) => Expr::IfThenElse {
                            cond: std::sync::Arc::new(cond.clone()),
                            then_branch: std::sync::Arc::new(e.clone()),
                            else_branch: std::sync::Arc::new(Expr::Attr(a.name.clone())),
                        },
                        None => Expr::Attr(a.name.clone()),
                    };
                    ProjectItem::new(item_expr, a.name.clone())
                })
                .collect();
            Query::project(items, input)
        }
        Statement::Delete { cond, .. } => {
            // σ_{¬θ}(R): keep tuples that do not satisfy the delete condition.
            Query::select(Expr::Not(std::sync::Arc::new(cond.clone())), input)
        }
        Statement::InsertValues { tuple, .. } => {
            let values_schema: SchemaRef = Schema::shared(
                format!("{}_ins", schema.relation),
                schema.attributes.clone(),
            );
            Query::union(input, Query::values(values_schema, vec![tuple.clone()]))
        }
        Statement::InsertQuery { query, .. } => {
            // `I_Q(R) = R ∪ Q(D_{i-1})`: the insert's query reads the
            // database state *at the time of the insert*, so scans of the
            // reenacted relation inside `Q` must be substituted with the
            // reenactment of the prefix (the `input` query), exactly like the
            // top-level relation reference. Scans of other relations read the
            // time-travel snapshot; histories whose `INSERT ... SELECT`
            // queries read a *different* relation that earlier statements of
            // the same history modified are not supported by reenactment here
            // (the engine would need the other relation's prefix reenactment
            // as well); ROADMAP.md item 3 tracks this.
            let source = substitute_scan(query, relation, &input);
            Query::union(input, source)
        }
    }
}

/// Replaces every scan of `relation` inside `query` with `replacement`.
///
/// Used to make the inner query of an `INSERT ... SELECT` read the reenacted
/// prefix state of the relation it selects from rather than the raw stored
/// relation.
pub fn substitute_scan(query: &Query, relation: &str, replacement: &Query) -> Query {
    match query {
        Query::Scan { relation: r } if r == relation => replacement.clone(),
        Query::Scan { .. } | Query::Values { .. } => query.clone(),
        Query::Select { cond, input } => Query::Select {
            cond: cond.clone(),
            input: Box::new(substitute_scan(input, relation, replacement)),
        },
        Query::Project { items, input } => Query::Project {
            items: items.clone(),
            input: Box::new(substitute_scan(input, relation, replacement)),
        },
        Query::Union { left, right } => Query::Union {
            left: Box::new(substitute_scan(left, relation, replacement)),
            right: Box::new(substitute_scan(right, relation, replacement)),
        },
        Query::Difference { left, right } => Query::Difference {
            left: Box::new(substitute_scan(left, relation, replacement)),
            right: Box::new(substitute_scan(right, relation, replacement)),
        },
        Query::Join { left, right, cond } => Query::Join {
            left: Box::new(substitute_scan(left, relation, replacement)),
            right: Box::new(substitute_scan(right, relation, replacement)),
            cond: cond.clone(),
        },
    }
}

/// Builds the reenactment query `R^R_H` for `relation`: the composition of
/// the reenactment of every statement of `history` that touches `relation`,
/// rooted at a scan of the relation (which, in the optimized engine, is a
/// scan of the time-travel snapshot `D`).
pub fn reenact_history(history: &History, relation: &str, schema: &Schema) -> Query {
    let mut query = Query::scan(relation);
    for stmt in history.statements() {
        query = reenact_statement(stmt, relation, schema, query);
    }
    query
}

/// Builds the reenactment query `R^R_H` for `relation` rooted at an arbitrary
/// base query instead of a plain scan. Data slicing uses this to inject the
/// selection `σ_{θ^DS}(R)` under the reenactment (Section 6).
pub fn reenact_history_over(
    history: &History,
    relation: &str,
    schema: &Schema,
    base: Query,
) -> Query {
    let mut query = base;
    for stmt in history.statements() {
        query = reenact_statement(stmt, relation, schema, query);
    }
    query
}

/// Builds the reenactment queries for every relation modified by the history.
/// `schemas` maps relation names to their schemas (from the time-travel
/// snapshot the queries will run over).
pub fn reenactment_queries(
    history: &History,
    schemas: &BTreeMap<String, SchemaRef>,
) -> BTreeMap<String, Query> {
    let mut out = BTreeMap::new();
    for stmt in history.statements() {
        let rel = stmt.relation().to_string();
        if !out.contains_key(&rel) {
            if let Some(schema) = schemas.get(&rel) {
                out.insert(rel.clone(), reenact_history(history, &rel, schema));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mahif_expr::builder::*;
    use mahif_expr::Value;
    use mahif_history::statement::{
        running_example_database, running_example_history, running_example_u1_prime,
    };
    use mahif_history::{ModificationSet, SetClause};
    use mahif_query::evaluate;
    use mahif_storage::{Attribute, Database, Relation, Tuple};

    fn order_schema(db: &Database) -> SchemaRef {
        db.relation("Order").unwrap().schema.clone()
    }

    #[test]
    fn update_reenacts_as_conditional_projection() {
        let db = running_example_database();
        let schema = order_schema(&db);
        let u1 = &running_example_history()[0];
        let q = reenact_statement(u1, "Order", &schema, Query::scan("Order"));
        assert!(matches!(q, Query::Project { .. }));
        let result = evaluate(&q, &db).unwrap();
        let mut direct = db.clone();
        u1.apply(&mut direct).unwrap();
        assert!(result.set_eq(direct.relation("Order").unwrap()));
    }

    #[test]
    fn delete_reenacts_as_negated_selection() {
        let db = running_example_database();
        let schema = order_schema(&db);
        let d = Statement::delete("Order", ge(attr("Price"), lit(50)));
        let q = reenact_statement(&d, "Order", &schema, Query::scan("Order"));
        assert!(matches!(q, Query::Select { .. }));
        let result = evaluate(&q, &db).unwrap();
        assert_eq!(result.len(), 2);
        let mut direct = db.clone();
        d.apply(&mut direct).unwrap();
        assert!(result.set_eq(direct.relation("Order").unwrap()));
    }

    #[test]
    fn insert_values_reenacts_as_union_with_singleton() {
        let db = running_example_database();
        let schema = order_schema(&db);
        let t = Tuple::new(vec![
            Value::int(15),
            Value::str("Eve"),
            Value::str("UK"),
            Value::int(10),
            Value::int(2),
        ]);
        let i = Statement::insert_values("Order", t.clone());
        let q = reenact_statement(&i, "Order", &schema, Query::scan("Order"));
        assert!(matches!(q, Query::Union { .. }));
        let result = evaluate(&q, &db).unwrap();
        assert_eq!(result.len(), 5);
        assert!(result.contains(&t));
    }

    #[test]
    fn insert_query_reenacts_as_union_with_query() {
        let db = running_example_database();
        let schema = order_schema(&db);
        let source = Query::select(eq(attr("Country"), slit("UK")), Query::scan("Order"));
        let i = Statement::insert_query("Order", source);
        let q = reenact_statement(&i, "Order", &schema, Query::scan("Order"));
        let result = evaluate(&q, &db).unwrap();
        assert_eq!(result.len(), 6);
    }

    #[test]
    fn statements_on_other_relations_are_skipped() {
        let db = running_example_database();
        let schema = order_schema(&db);
        let other = Statement::update(
            "Customer",
            SetClause::single("Name", slit("x")),
            Expr::true_(),
        );
        let q = reenact_statement(&other, "Order", &schema, Query::scan("Order"));
        assert_eq!(q, Query::scan("Order"));
    }

    #[test]
    fn full_history_reenactment_matches_example_3() {
        // The reenactment query of Example 3 produces Figure 3.
        let db = running_example_database();
        let schema = order_schema(&db);
        let history = History::new(running_example_history());
        let q = reenact_history(&history, "Order", &schema);
        // Three nested projections over the scan.
        assert_eq!(q.operator_count(), 4);
        let result = evaluate(&q, &db).unwrap();
        let fees: Vec<i64> = result
            .sorted_tuples()
            .iter()
            .map(|t| t.value(4).unwrap().as_int().unwrap())
            .collect();
        assert_eq!(fees, vec![8, 5, 0, 4]);
    }

    #[test]
    fn modified_history_reenactment_matches_figure_4() {
        let db = running_example_database();
        let schema = order_schema(&db);
        let history = History::new(running_example_history());
        let modified = ModificationSet::single_replace(0, running_example_u1_prime())
            .apply(&history)
            .unwrap();
        let q = reenact_history(&modified, "Order", &schema);
        let result = evaluate(&q, &db).unwrap();
        let fees: Vec<i64> = result
            .sorted_tuples()
            .iter()
            .map(|t| t.value(4).unwrap().as_int().unwrap())
            .collect();
        assert_eq!(fees, vec![8, 10, 0, 4]);
    }

    #[test]
    fn reenactment_with_mixed_statement_types() {
        let db = running_example_database();
        let schema = order_schema(&db);
        let mut history = History::new(running_example_history());
        history.push(Statement::insert_values(
            "Order",
            Tuple::new(vec![
                Value::int(15),
                Value::str("Eve"),
                Value::str("UK"),
                Value::int(80),
                Value::int(9),
            ]),
        ));
        history.push(Statement::delete("Order", ge(attr("ShippingFee"), lit(9))));
        history.push(Statement::update(
            "Order",
            SetClause::single("ShippingFee", add(attr("ShippingFee"), lit(1))),
            Expr::true_(),
        ));
        let executed = history.execute(&db).unwrap();
        let q = reenact_history(&history, "Order", &schema);
        let reenacted = evaluate(&q, &db).unwrap();
        assert!(executed.relation("Order").unwrap().set_eq(&reenacted));
    }

    #[test]
    fn per_relation_queries_for_multi_relation_history() {
        // History touching two relations: each relation gets its own query
        // containing only the statements that modify it.
        let mut db = running_example_database();
        let cust_schema = Schema::shared(
            "Customer",
            vec![Attribute::int("CID"), Attribute::int("Credit")],
        );
        let mut cust = Relation::empty(cust_schema.clone());
        cust.insert_values([Value::int(1), Value::int(100)])
            .unwrap();
        cust.insert_values([Value::int(2), Value::int(50)]).unwrap();
        db.add_relation(cust).unwrap();

        let mut history = History::new(running_example_history());
        history.push(Statement::update(
            "Customer",
            SetClause::single("Credit", add(attr("Credit"), lit(10))),
            ge(attr("Credit"), lit(75)),
        ));

        let mut schemas = BTreeMap::new();
        schemas.insert(
            "Order".to_string(),
            db.relation("Order").unwrap().schema.clone(),
        );
        schemas.insert("Customer".to_string(), cust_schema);
        let queries = reenactment_queries(&history, &schemas);
        assert_eq!(queries.len(), 2);

        let executed = history.execute(&db).unwrap();
        for (rel, q) in &queries {
            let reenacted = evaluate(q, &db).unwrap();
            assert!(
                executed.relation(rel).unwrap().set_eq(&reenacted),
                "mismatch for relation {rel}"
            );
        }
        // The Customer query must not mention Order.
        assert_eq!(queries["Customer"].referenced_relations(), vec!["Customer"]);
    }

    #[test]
    fn no_op_statement_reenacts_to_harmless_selection() {
        let db = running_example_database();
        let schema = order_schema(&db);
        let noop = Statement::no_op("Order");
        let q = reenact_statement(&noop, "Order", &schema, Query::scan("Order"));
        let result = evaluate(&q, &db).unwrap();
        assert!(result.set_eq(db.relation("Order").unwrap()));
    }
}
