//! Impact analysis: turning a what-if delta into an aggregate business
//! answer.
//!
//! The paper motivates historical what-if queries with an aggregate question
//! — *"How would revenue be affected if we would have charged an additional
//! $6 for shipping?"* — but its machinery stops at the symmetric difference
//! `Δ(H(D), H[M](D))`. This module closes that last step: because the delta
//! contains exactly the tuples that differ between the two history results
//! (annotated `+` for the hypothetical state and `−` for the actual state),
//! the change of any `SUM`-like metric is
//!
//! ```text
//! Σ_{+t ∈ Δ} metric(t)  −  Σ_{−t ∈ Δ} metric(t)
//! ```
//!
//! so the impact can be computed from the delta alone, without touching the
//! full relation again. Combined with the baseline metric over the current
//! database state `H(D)` this yields the hypothetical metric under `H[M]`.

use std::fmt;

use mahif_expr::{eval_expr, Expr, Value};
use mahif_history::{Annotation, DatabaseDelta, RelationDelta};
use mahif_query::{aggregate_relation, Aggregate, QueryError};
use mahif_storage::{Database, TupleBindings};

use crate::error::MahifError;
use crate::stats::WhatIfAnswer;

/// What to measure over a what-if delta.
#[derive(Debug, Clone, PartialEq)]
pub struct ImpactSpec {
    /// The relation whose delta is analyzed.
    pub relation: String,
    /// The metric expression evaluated per tuple (e.g. `ShippingFee` or
    /// `Price + ShippingFee`).
    pub metric: Expr,
    /// Human-readable name of the metric, used in reports.
    pub metric_name: String,
    /// Attributes to break the impact down by (e.g. `Country`).
    pub group_by: Vec<String>,
}

impl ImpactSpec {
    /// Measures `SUM(attr)` over the delta of `relation`.
    pub fn sum_of(relation: impl Into<String>, attr: impl Into<String>) -> Self {
        let attr = attr.into();
        ImpactSpec {
            relation: relation.into(),
            metric: Expr::Attr(attr.clone()),
            metric_name: attr,
            group_by: Vec::new(),
        }
    }

    /// Measures the sum of an arbitrary expression over the delta of
    /// `relation`.
    pub fn sum_expr(
        relation: impl Into<String>,
        metric: Expr,
        metric_name: impl Into<String>,
    ) -> Self {
        ImpactSpec {
            relation: relation.into(),
            metric,
            metric_name: metric_name.into(),
            group_by: Vec::new(),
        }
    }

    /// Adds a group-by attribute.
    pub fn grouped_by(mut self, attr: impl Into<String>) -> Self {
        self.group_by.push(attr.into());
        self
    }

    /// The metric's `SUM` over the relation in `current_state`: the
    /// baseline that every scenario's report on the same history shares.
    pub fn baseline(&self, current_state: &Database) -> Result<i64, MahifError> {
        let rel = current_state.relation(&self.relation)?;
        let agg = aggregate_relation(
            rel,
            &[],
            &[Aggregate::new(
                mahif_query::AggFunc::Sum,
                self.metric.clone(),
                "baseline",
            )],
        )?;
        Ok(agg
            .tuples
            .first()
            .and_then(|t| t.value(0))
            .and_then(|v| v.as_int())
            .unwrap_or(0))
    }
}

/// Impact of the hypothetical change on one group.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupImpact {
    /// The group-by key values (empty for the global impact).
    pub key: Vec<Value>,
    /// Metric total over the `+` (hypothetical-only) tuples of the group.
    pub plus_total: i64,
    /// Metric total over the `−` (actual-only) tuples of the group.
    pub minus_total: i64,
    /// Number of `+` tuples in the group.
    pub rows_added: usize,
    /// Number of `−` tuples in the group.
    pub rows_removed: usize,
}

impl GroupImpact {
    /// Net change of the metric for this group: `plus_total − minus_total`.
    pub fn net_change(&self) -> i64 {
        self.plus_total - self.minus_total
    }
}

/// The aggregate impact of a historical what-if query.
#[derive(Debug, Clone, PartialEq)]
pub struct ImpactReport {
    /// The analyzed relation.
    pub relation: String,
    /// The metric name from the [`ImpactSpec`].
    pub metric_name: String,
    /// Global impact (over all delta tuples of the relation).
    pub overall: GroupImpact,
    /// Per-group impacts, sorted by key (empty when the spec has no
    /// group-by attributes).
    pub groups: Vec<GroupImpact>,
    /// The metric total over the *current* database state `H(D)`, when a
    /// baseline was requested (see [`ImpactSpec::baseline`] /
    /// [`crate::WhatIfRequest::impact`]).
    pub baseline: Option<i64>,
}

impl ImpactReport {
    /// Net change of the metric: positive means the hypothetical history
    /// would have produced a larger total.
    pub fn net_change(&self) -> i64 {
        self.overall.net_change()
    }

    /// The metric total under the hypothetical history, available when a
    /// baseline was computed.
    pub fn hypothetical_total(&self) -> Option<i64> {
        self.baseline.map(|b| b + self.net_change())
    }

    /// Number of annotated tuples in the analyzed relation delta.
    pub fn rows_changed(&self) -> usize {
        self.overall.rows_added + self.overall.rows_removed
    }
}

impl fmt::Display for ImpactReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "impact on SUM({}) over {}: {:+} ({} rows added, {} rows removed)",
            self.metric_name,
            self.relation,
            self.net_change(),
            self.overall.rows_added,
            self.overall.rows_removed
        )?;
        if let (Some(before), Some(after)) = (self.baseline, self.hypothetical_total()) {
            writeln!(f, "  actual total:       {before}")?;
            writeln!(f, "  hypothetical total: {after}")?;
        }
        for g in &self.groups {
            let key = g
                .key
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join(", ");
            writeln!(f, "  [{key}] {:+}", g.net_change())?;
        }
        Ok(())
    }
}

/// One scenario's position in a [`ScenarioComparison`].
#[derive(Debug, Clone)]
pub struct RankedScenario {
    /// 1-based rank (1 = largest net change of the metric).
    pub rank: usize,
    /// The scenario's name.
    pub name: String,
    /// The scenario's impact report.
    pub report: ImpactReport,
}

/// A request's scenarios ranked by the net change of its impact metric
/// ("which threshold would have earned the most?"); see
/// [`Response::ranking`](crate::Response::ranking).
#[derive(Debug, Clone)]
pub struct ScenarioComparison {
    /// The analyzed relation.
    pub relation: String,
    /// The ranked metric's name.
    pub metric_name: String,
    /// The metric total over the current (actual) database state `H(D)`.
    pub baseline: i64,
    /// Scenarios, largest net change first; ties break by name.
    pub entries: Vec<RankedScenario>,
}

impl ScenarioComparison {
    /// Ranks named impact reports of one spec by net change, largest
    /// first, ties broken by name. `None` when `reports` is empty or
    /// carries no baseline.
    pub(crate) fn rank(mut reports: Vec<(String, ImpactReport)>) -> Option<ScenarioComparison> {
        reports.sort_by(|(a_name, a), (b_name, b)| {
            b.net_change()
                .cmp(&a.net_change())
                .then_with(|| a_name.cmp(b_name))
        });
        let first = &reports.first()?.1;
        let (relation, metric_name, baseline) = (
            first.relation.clone(),
            first.metric_name.clone(),
            first.baseline?,
        );
        let entries = reports
            .into_iter()
            .enumerate()
            .map(|(i, (name, report))| RankedScenario {
                rank: i + 1,
                name,
                report,
            })
            .collect();
        Some(ScenarioComparison {
            relation,
            metric_name,
            baseline,
            entries,
        })
    }

    /// The scenario with the largest net change.
    pub fn best(&self) -> Option<&RankedScenario> {
        self.entries.first()
    }

    /// The entry for a scenario by name.
    pub fn get(&self, name: &str) -> Option<&RankedScenario> {
        self.entries.iter().find(|e| e.name == name)
    }
}

impl fmt::Display for ScenarioComparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "scenario ranking by SUM({}) over {}:",
            self.metric_name, self.relation
        )?;
        let name_width = self
            .entries
            .iter()
            .map(|e| e.name.len())
            .max()
            .unwrap_or(0)
            .max("scenario".len());
        writeln!(
            f,
            "  {:>4}  {:<name_width$}  {:>12}  {:>12}  {:>10}",
            "rank", "scenario", "net change", "hypo total", "rows"
        )?;
        for e in &self.entries {
            let change = e.report.net_change();
            writeln!(
                f,
                "  {:>4}  {:<name_width$}  {:>+12}  {:>12}  {:>10}",
                e.rank,
                e.name,
                change,
                self.baseline + change,
                e.report.rows_changed()
            )?;
        }
        writeln!(f, "  actual total: {}", self.baseline)
    }
}

/// Computes the impact of a what-if delta according to `spec`.
///
/// A delta that does not contain the spec's relation simply yields a zero
/// impact (the hypothetical change does not affect that relation at all).
pub fn impact_of(delta: &DatabaseDelta, spec: &ImpactSpec) -> Result<ImpactReport, MahifError> {
    let empty = ImpactReport {
        relation: spec.relation.clone(),
        metric_name: spec.metric_name.clone(),
        overall: GroupImpact {
            key: Vec::new(),
            plus_total: 0,
            minus_total: 0,
            rows_added: 0,
            rows_removed: 0,
        },
        groups: Vec::new(),
        baseline: None,
    };
    let Some(rel_delta) = delta.relation(&spec.relation) else {
        return Ok(empty);
    };
    let mut report = empty;
    let mut groups: Vec<GroupImpact> = Vec::new();
    for (annotation, tuple) in rel_delta.iter() {
        let metric = metric_value(rel_delta, tuple, &spec.metric)?;
        let key: Vec<Value> = spec
            .group_by
            .iter()
            .map(|g| {
                rel_delta
                    .schema
                    .index_of(g)
                    .and_then(|i| tuple.value(i).cloned())
                    .unwrap_or(Value::Null)
            })
            .collect();
        absorb(&mut report.overall, annotation, metric);
        if !spec.group_by.is_empty() {
            let slot = match groups.iter_mut().find(|g| g.key == key) {
                Some(g) => g,
                None => {
                    groups.push(GroupImpact {
                        key,
                        plus_total: 0,
                        minus_total: 0,
                        rows_added: 0,
                        rows_removed: 0,
                    });
                    groups.last_mut().expect("just pushed")
                }
            };
            absorb(slot, annotation, metric);
        }
    }
    groups.sort_by(|a, b| {
        a.key
            .iter()
            .zip(b.key.iter())
            .map(|(x, y)| x.total_cmp(y))
            .find(|o| !o.is_eq())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    report.groups = groups;
    Ok(report)
}

fn metric_value(
    rel_delta: &RelationDelta,
    tuple: &mahif_storage::Tuple,
    metric: &Expr,
) -> Result<i64, MahifError> {
    let bind = TupleBindings::new(&rel_delta.schema, tuple);
    let v = eval_expr(metric, &bind).map_err(|e| MahifError::from(QueryError::Expr(e)))?;
    Ok(v.as_int().unwrap_or(0))
}

fn absorb(group: &mut GroupImpact, annotation: Annotation, metric: i64) {
    match annotation {
        Annotation::Plus => {
            group.plus_total += metric;
            group.rows_added += 1;
        }
        Annotation::Minus => {
            group.minus_total += metric;
            group.rows_removed += 1;
        }
    }
}

impl WhatIfAnswer {
    /// Computes the aggregate impact of this answer's delta according to
    /// `spec`. See [`impact_of`].
    pub fn impact(&self, spec: &ImpactSpec) -> Result<ImpactReport, MahifError> {
        impact_of(&self.delta, spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Method, Session};
    use mahif_expr::builder::*;
    use mahif_history::statement::{
        running_example_database, running_example_history, running_example_u1_prime,
    };
    use mahif_history::History;

    fn session() -> Session {
        Session::with_history(
            "retail",
            running_example_database(),
            History::new(running_example_history()),
        )
        .unwrap()
    }

    fn answer() -> WhatIfAnswer {
        session()
            .on("retail")
            .replace(0, running_example_u1_prime())
            .method(Method::ReenactPsDs)
            .run()
            .unwrap()
            .into_answer()
    }

    #[test]
    fn shipping_fee_impact_of_running_example() {
        // Raising the free-shipping threshold to $60 charges Alex $10 instead
        // of $5: total shipping-fee revenue goes up by $5.
        let report = answer()
            .impact(&ImpactSpec::sum_of("Order", "ShippingFee"))
            .unwrap();
        assert_eq!(report.net_change(), 5);
        assert_eq!(report.overall.rows_added, 1);
        assert_eq!(report.overall.rows_removed, 1);
        assert_eq!(report.rows_changed(), 2);
        assert!(report.baseline.is_none());
        assert!(report.to_string().contains("+5"));
    }

    #[test]
    fn grouped_impact_by_country() {
        let report = answer()
            .impact(&ImpactSpec::sum_of("Order", "ShippingFee").grouped_by("Country"))
            .unwrap();
        assert_eq!(report.groups.len(), 1);
        assert_eq!(report.groups[0].key, vec![Value::str("UK")]);
        assert_eq!(report.groups[0].net_change(), 5);
    }

    #[test]
    fn expression_metric() {
        // Total amount charged = Price + ShippingFee; the price is unchanged
        // so the impact equals the fee impact.
        let report = answer()
            .impact(&ImpactSpec::sum_expr(
                "Order",
                add(attr("Price"), attr("ShippingFee")),
                "charged",
            ))
            .unwrap();
        assert_eq!(report.net_change(), 5);
    }

    #[test]
    fn missing_relation_gives_zero_impact() {
        let report = answer()
            .impact(&ImpactSpec::sum_of("Customers", "Balance"))
            .unwrap();
        assert_eq!(report.net_change(), 0);
        assert_eq!(report.rows_changed(), 0);
    }

    #[test]
    fn baseline_turns_change_into_before_after() {
        let session = session();
        let spec = ImpactSpec::sum_of("Order", "ShippingFee");
        let mut report = answer().impact(&spec).unwrap();
        report.baseline = Some(
            spec.baseline(session.history("retail").unwrap().current_state())
                .unwrap(),
        );
        // Current fees (Figure 3): 8 + 5 + 0 + 4 = 17; hypothetical: 22.
        assert_eq!(report.baseline, Some(17));
        assert_eq!(report.hypothetical_total(), Some(22));
        assert!(report.to_string().contains("hypothetical total: 22"));
    }

    #[test]
    fn impact_request_rides_along() {
        let spec = ImpactSpec::sum_of("Order", "ShippingFee").grouped_by("Country");
        let response = session()
            .on("retail")
            .replace(0, running_example_u1_prime())
            .method(Method::ReenactPsDs)
            .impact(spec)
            .run()
            .unwrap();
        assert_eq!(response.delta().len(), 2);
        let report = response.impact().unwrap();
        assert_eq!(report.baseline, Some(17));
        assert_eq!(report.net_change(), 5);
    }
}
