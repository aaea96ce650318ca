//! Bag-semantics evaluation of relational algebra queries.

use mahif_expr::{eval_condition, eval_expr, Expr};
use mahif_storage::{one_sided_tuples, Database, Relation, Side, Tuple, TupleBindings};

use crate::ast::{ProjectItem, Query};
use crate::catalog::Catalog;
use crate::error::QueryError;
use crate::schema_infer::infer_schema;

/// Evaluates `query` over `db` and returns the result relation.
///
/// Every operator uses bag semantics: [`Query::Difference`] keeps each
/// left tuple as many times as its multiplicity on the left exceeds its
/// multiplicity on the right, the same count the delta of Section 3
/// takes.
pub fn evaluate(query: &Query, db: &Database) -> Result<Relation, QueryError> {
    let catalog = Catalog::from_database(db);
    evaluate_with_catalog(query, db, &catalog)
}

fn evaluate_with_catalog(
    query: &Query,
    db: &Database,
    catalog: &Catalog,
) -> Result<Relation, QueryError> {
    match query {
        Query::Scan { relation } => Ok(db.relation(relation)?.clone()),
        Query::Select { cond, input } => {
            let input_rel = evaluate_with_catalog(input, db, catalog)?;
            let mut out = Relation::empty(input_rel.schema.clone());
            for t in input_rel.iter() {
                let bind = TupleBindings::new(&input_rel.schema, t);
                if eval_condition(cond, &bind)? {
                    out.tuples.push(t.clone());
                }
            }
            Ok(out)
        }
        Query::Project { items, input } => {
            let input_rel = evaluate_with_catalog(input, db, catalog)?;
            let out_schema = infer_schema(query, catalog)?;
            let mut out = Relation::empty(out_schema);
            for t in input_rel.iter() {
                out.tuples.push(project_tuple(items, &input_rel, t)?);
            }
            Ok(out)
        }
        Query::Union { left, right } => {
            let l = evaluate_with_catalog(left, db, catalog)?;
            let r = evaluate_with_catalog(right, db, catalog)?;
            Ok(l.union_all(&r)?)
        }
        Query::Difference { left, right } => {
            let mut l = evaluate_with_catalog(left, db, catalog)?;
            let mut r = evaluate_with_catalog(right, db, catalog)?;
            l.sort();
            r.sort();
            let mut surplus = Vec::new();
            one_sided_tuples(&l.tuples, &r.tuples, |side, i| {
                if side == Side::Left {
                    surplus.push(i);
                }
            });
            l.retain_positions(&surplus);
            Ok(l)
        }
        Query::Join { left, right, cond } => {
            let l = evaluate_with_catalog(left, db, catalog)?;
            let r = evaluate_with_catalog(right, db, catalog)?;
            let out_schema = infer_schema(query, catalog)?;
            let mut out = Relation::empty(out_schema.clone());
            for lt in l.iter() {
                for rt in r.iter() {
                    let mut values = lt.values.clone();
                    values.extend(rt.values.iter().cloned());
                    let joined = Tuple::new(values);
                    let bind = TupleBindings::new(&out_schema, &joined);
                    if eval_condition(cond, &bind)? {
                        out.tuples.push(joined);
                    }
                }
            }
            Ok(out)
        }
        Query::Values { schema, tuples } => Ok(Relation::new(schema.clone(), tuples.clone())?),
    }
}

fn project_tuple(
    items: &[ProjectItem],
    input_rel: &Relation,
    tuple: &Tuple,
) -> Result<Tuple, QueryError> {
    let bind = TupleBindings::new(&input_rel.schema, tuple);
    let mut values = Vec::with_capacity(items.len());
    for item in items {
        values.push(eval_expr(&item.expr, &bind)?);
    }
    Ok(Tuple::new(values))
}

/// Evaluates a projection item list against a single tuple — exposed for the
/// reenactment engine which applies the same expressions tuple-at-a-time.
pub fn project_single(
    items: &[ProjectItem],
    schema: &mahif_storage::Schema,
    tuple: &Tuple,
) -> Result<Tuple, QueryError> {
    let bind = TupleBindings::new(schema, tuple);
    let mut values = Vec::with_capacity(items.len());
    for item in items {
        values.push(eval_expr(&item.expr, &bind)?);
    }
    Ok(Tuple::new(values))
}

/// Convenience: evaluates a condition expression against every tuple of a
/// relation and returns the satisfying tuples. Used by data slicing tests.
pub fn filter_relation(rel: &Relation, cond: &Expr) -> Result<Relation, QueryError> {
    let mut out = Relation::empty(rel.schema.clone());
    for_each_match(rel, cond, |t| out.tuples.push(t.clone()))?;
    Ok(out)
}

/// The number of `rel`'s tuples [`filter_relation`] keeps, counted in place:
/// the same tuples evaluated in the same order, so the same first error,
/// and no tuple copied.
pub fn count_where(rel: &Relation, cond: &Expr) -> Result<usize, QueryError> {
    let mut count = 0;
    for_each_match(rel, cond, |_| count += 1)?;
    Ok(count)
}

/// Calls `f` on each of `rel`'s tuples that satisfies `cond`, in relation
/// order, stopping at the first tuple whose evaluation fails.
fn for_each_match<'a>(
    rel: &'a Relation,
    cond: &Expr,
    mut f: impl FnMut(&'a Tuple),
) -> Result<(), QueryError> {
    for t in rel.iter() {
        let bind = TupleBindings::new(&rel.schema, t);
        if eval_condition(cond, &bind)? {
            f(t);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::ProjectItem;
    use mahif_expr::builder::*;
    use mahif_expr::Value;
    use mahif_storage::{Attribute, Schema};

    /// The running example Order relation from Figure 1 of the paper.
    fn order_db() -> Database {
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
        r.insert_values([
            Value::int(11),
            Value::str("Susan"),
            Value::str("UK"),
            Value::int(20),
            Value::int(5),
        ])
        .unwrap();
        r.insert_values([
            Value::int(12),
            Value::str("Alex"),
            Value::str("UK"),
            Value::int(50),
            Value::int(5),
        ])
        .unwrap();
        r.insert_values([
            Value::int(13),
            Value::str("Jack"),
            Value::str("US"),
            Value::int(60),
            Value::int(3),
        ])
        .unwrap();
        r.insert_values([
            Value::int(14),
            Value::str("Mark"),
            Value::str("US"),
            Value::int(30),
            Value::int(4),
        ])
        .unwrap();
        let mut db = Database::new();
        db.add_relation(r).unwrap();
        db
    }

    #[test]
    fn scan_returns_relation() {
        let db = order_db();
        let r = evaluate(&Query::scan("Order"), &db).unwrap();
        assert_eq!(r.len(), 4);
        assert!(evaluate(&Query::scan("Nope"), &db).is_err());
    }

    #[test]
    fn select_filters() {
        let db = order_db();
        let q = Query::select(ge(attr("Price"), lit(50)), Query::scan("Order"));
        let r = evaluate(&q, &db).unwrap();
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn project_with_conditional_expression_reenacts_u1() {
        // Reenactment of u1: Π_{..., if Price >= 50 then 0 else ShippingFee}
        let db = order_db();
        let items = vec![
            ProjectItem::identity("ID"),
            ProjectItem::identity("Customer"),
            ProjectItem::identity("Country"),
            ProjectItem::identity("Price"),
            ProjectItem::new(
                ite(ge(attr("Price"), lit(50)), lit(0), attr("ShippingFee")),
                "ShippingFee",
            ),
        ];
        let q = Query::project(items, Query::scan("Order"));
        let r = evaluate(&q, &db).unwrap();
        let fees: Vec<i64> = r
            .iter()
            .map(|t| t.value(4).unwrap().as_int().unwrap())
            .collect();
        assert_eq!(fees, vec![5, 0, 0, 4]);
    }

    #[test]
    fn union_is_bag_union() {
        let db = order_db();
        let q = Query::union(Query::scan("Order"), Query::scan("Order"));
        assert_eq!(evaluate(&q, &db).unwrap().len(), 8);
    }

    #[test]
    fn difference_is_bag_difference() {
        let db = order_db();
        let cheap = Query::select(lt(attr("Price"), lit(50)), Query::scan("Order"));
        let q = Query::difference(Query::scan("Order"), cheap.clone());
        let r = evaluate(&q, &db).unwrap();
        assert_eq!(r.len(), 2);
        let q2 = Query::difference(Query::scan("Order"), Query::scan("Order"));
        assert!(evaluate(&q2, &db).unwrap().is_empty());
        // Copies count: two copies of the table minus one leaves one.
        let doubled = Query::union(Query::scan("Order"), Query::scan("Order"));
        let q3 = Query::difference(doubled, Query::scan("Order"));
        assert_eq!(evaluate(&q3, &db).unwrap().len(), 4);
        let doubled_cheap = Query::union(cheap.clone(), cheap);
        let q4 = Query::difference(doubled_cheap, Query::scan("Order"));
        assert_eq!(evaluate(&q4, &db).unwrap().len(), 2);
    }

    #[test]
    fn join_combines_matching_tuples() {
        let mut db = order_db();
        let countries = Schema::shared(
            "Region",
            vec![Attribute::str("Name"), Attribute::int("Zone")],
        );
        let mut rel = Relation::empty(countries);
        rel.insert_values([Value::str("UK"), Value::int(1)])
            .unwrap();
        rel.insert_values([Value::str("US"), Value::int(2)])
            .unwrap();
        db.add_relation(rel).unwrap();

        let q = Query::join(
            Query::scan("Order"),
            Query::scan("Region"),
            eq(attr("Country"), attr("Name")),
        );
        let r = evaluate(&q, &db).unwrap();
        assert_eq!(r.len(), 4);
        assert_eq!(r.schema.arity(), 7);
    }

    #[test]
    fn values_inline_relation() {
        let db = order_db();
        let schema = Schema::shared("V", vec![Attribute::int("A")]);
        let q = Query::values(schema, vec![Tuple::from_iter_values([7i64])]);
        let r = evaluate(&q, &db).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.tuples[0].value(0), Some(&Value::int(7)));
    }

    #[test]
    fn filter_relation_helper() {
        let db = order_db();
        let rel = db.relation("Order").unwrap();
        let uk = eq(attr("Country"), slit("UK"));
        let filtered = filter_relation(rel, &uk).unwrap();
        assert_eq!(filtered.len(), 2);
        assert_eq!(count_where(rel, &uk).unwrap(), 2);
        // The first failing tuple's error, as `filter_relation` reports it.
        let bad = gt(
            div(attr("Price"), sub(attr("Price"), attr("Price"))),
            lit(0),
        );
        assert_eq!(
            count_where(rel, &bad).unwrap_err().to_string(),
            filter_relation(rel, &bad).unwrap_err().to_string()
        );
    }

    #[test]
    fn nested_reenactment_style_query() {
        // Reenactment of the full running example history H = (u1, u2, u3)
        // expressed manually as nested projections (Example 3 of the paper);
        // the result must match Figure 3.
        let db = order_db();
        let u1 = Query::project(
            vec![
                ProjectItem::identity("ID"),
                ProjectItem::identity("Customer"),
                ProjectItem::identity("Country"),
                ProjectItem::identity("Price"),
                ProjectItem::new(
                    ite(ge(attr("Price"), lit(50)), lit(0), attr("ShippingFee")),
                    "ShippingFee",
                ),
            ],
            Query::scan("Order"),
        );
        let u2 = Query::project(
            vec![
                ProjectItem::identity("ID"),
                ProjectItem::identity("Customer"),
                ProjectItem::identity("Country"),
                ProjectItem::identity("Price"),
                ProjectItem::new(
                    ite(
                        and(eq(attr("Country"), slit("UK")), le(attr("Price"), lit(100))),
                        add(attr("ShippingFee"), lit(5)),
                        attr("ShippingFee"),
                    ),
                    "ShippingFee",
                ),
            ],
            u1,
        );
        let u3 = Query::project(
            vec![
                ProjectItem::identity("ID"),
                ProjectItem::identity("Customer"),
                ProjectItem::identity("Country"),
                ProjectItem::identity("Price"),
                ProjectItem::new(
                    ite(
                        and(le(attr("Price"), lit(30)), ge(attr("ShippingFee"), lit(10))),
                        sub(attr("ShippingFee"), lit(2)),
                        attr("ShippingFee"),
                    ),
                    "ShippingFee",
                ),
            ],
            u2,
        );
        let r = evaluate(&u3, &db).unwrap();
        let fees: Vec<i64> = r
            .iter()
            .map(|t| t.value(4).unwrap().as_int().unwrap())
            .collect();
        // Figure 3: fees are 8, 5, 0, 4 — wait, u3 applies -2 only when fee >= 10,
        // tuple 11 has fee 10 after u2 so it becomes 8.
        assert_eq!(fees, vec![8, 5, 0, 4]);
    }
}
