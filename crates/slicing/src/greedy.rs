//! The general greedy slicing algorithm (Sections 8.3.2–8.3.3).
//!
//! While [`crate::program`] uses the optimized per-statement dependency test
//! of Section 9, this module implements the paper's general approach: a
//! candidate set of positions `I` is a *slice* when the slicing condition
//! `ζ(H, I, Φ_D)` holds, i.e. for every possible input tuple (every world of
//! the compressed single-tuple VC-database) the delta produced by the full
//! histories equals the delta produced by the sliced histories
//! (Equations 16–19). The greedy algorithm starts from the full history and
//! tries to drop one statement at a time, keeping the drop only when the
//! solver proves `¬ζ` unsatisfiable.
//!
//! The check handles updates and deletes (tuple-independent statements);
//! insert statements are always kept, exactly as in [`crate::program`].

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Instant;

use mahif_expr::builder::{conjunction, disjunction};
use mahif_expr::{simplify, substitute_attrs, Expr, SubstMap};
use mahif_history::{History, Statement};
use mahif_solver::{dependency_cone, SatProblem, SatResult, SearchConfig, Solver};
use mahif_storage::Database;
use mahif_symbolic::{compress_relation, initial_var_name, CompressionConfig};

use crate::domains::domains_for_relation;
use crate::error::SlicingError;
use crate::multi::{build_relation_context, RelationContext};
use crate::program::{
    model_satisfies, problem_with_definitions, witness_satisfies, ProgramSliceResult,
    ProgramSlicingConfig,
};

/// Configuration of greedy slicing.
#[derive(Debug, Clone, Default)]
pub struct GreedyConfig {
    /// Database compression (Section 8.3.1).
    pub compression: CompressionConfig,
    /// Solver resource limits.
    pub solver: SearchConfig,
}

/// The symbolic result of running one history over the single-tuple instance
/// `D0`: the final attribute expressions, the survival (local) condition and
/// the variable definitions accumulated along the way.
struct SymbolicRun {
    finals: BTreeMap<String, Expr>,
    survives: Expr,
    definitions: Vec<(String, Expr)>,
}

/// Symbolically executes the statements of `history` (restricted to
/// `positions` and to `relation`) over the single-tuple instance, naming
/// intermediate variables with `suffix`.
fn run_symbolically(
    history: &History,
    relation: &str,
    positions: &BTreeSet<usize>,
    attributes: &[String],
    suffix: &str,
) -> SymbolicRun {
    let mut current: BTreeMap<String, Expr> = attributes
        .iter()
        .map(|a| (a.clone(), Expr::Var(initial_var_name(a))))
        .collect();
    let mut survives = Expr::true_();
    let mut definitions = Vec::new();

    for (j, stmt) in history.statements().iter().enumerate() {
        if !positions.contains(&j) || stmt.relation() != relation {
            continue;
        }
        let subst: SubstMap = current
            .iter()
            .map(|(a, e)| (a.clone(), e.clone()))
            .collect();
        match stmt {
            Statement::Update { set, cond, .. } => {
                let theta = substitute_attrs(cond, &subst);
                for (attr, e) in &set.assignments {
                    let new_var = format!("x_{attr}_{}{suffix}", j + 1);
                    let value = simplify(&Expr::IfThenElse {
                        cond: Arc::new(theta.clone()),
                        then_branch: Arc::new(substitute_attrs(e, &subst)),
                        else_branch: Arc::new(
                            current
                                .get(attr)
                                .cloned()
                                .unwrap_or(Expr::Attr(attr.clone())),
                        ),
                    });
                    definitions.push((new_var.clone(), value));
                    current.insert(attr.clone(), Expr::Var(new_var));
                }
            }
            Statement::Delete { cond, .. } => {
                let theta = substitute_attrs(cond, &subst);
                survives = simplify(&Expr::And(
                    Arc::new(survives),
                    Arc::new(Expr::Not(Arc::new(theta))),
                ));
            }
            Statement::InsertValues { .. } | Statement::InsertQuery { .. } => {}
        }
    }
    SymbolicRun {
        finals: current,
        survives,
        definitions,
    }
}

/// Condition stating that two symbolic runs produce the same result for the
/// input tuple (Equation 19): either both keep the tuple with equal attribute
/// values, or both delete it.
///
/// Attributes whose final symbolic expressions are syntactically identical in
/// both runs are necessarily equal and are dropped from the comparison; this
/// keeps untouched attributes (and their solver variables) out of ζ.
fn same_result(a: &SymbolicRun, b: &SymbolicRun, attributes: &[String]) -> Expr {
    let equal_values = conjunction(
        attributes
            .iter()
            .filter(|attr| a.finals[*attr] != b.finals[*attr])
            .map(|attr| Expr::Cmp {
                op: mahif_expr::CmpOp::Eq,
                left: Arc::new(a.finals[attr].clone()),
                right: Arc::new(b.finals[attr].clone()),
            }),
    );
    let both_survive = Expr::And(Arc::new(a.survives.clone()), Arc::new(b.survives.clone()));
    let both_deleted = Expr::And(
        Arc::new(Expr::Not(Arc::new(a.survives.clone()))),
        Arc::new(Expr::Not(Arc::new(b.survives.clone()))),
    );
    simplify(&Expr::Or(
        Arc::new(Expr::And(Arc::new(both_survive), Arc::new(equal_values))),
        Arc::new(both_deleted),
    ))
}

/// Builds `¬ζ` for a candidate slice: satisfiable iff some input tuple makes
/// the full-history delta differ from the sliced-history delta (Equation 18).
#[allow(clippy::too_many_arguments)]
fn not_zeta(
    full_h: &SymbolicRun,
    full_m: &SymbolicRun,
    slice_h: &SymbolicRun,
    slice_m: &SymbolicRun,
    attributes: &[String],
    phi_d: &Expr,
) -> Expr {
    let full_equal = same_result(full_h, full_m, attributes);
    let slice_equal = same_result(slice_h, slice_m, attributes);
    // Case (i): both deltas are empty for this tuple.
    let case_empty = Expr::And(Arc::new(full_equal.clone()), Arc::new(slice_equal.clone()));
    // Case (ii): both deltas contain the same pair of results.
    let case_same_pair = Expr::And(
        Arc::new(Expr::Not(Arc::new(full_equal))),
        Arc::new(Expr::Or(
            Arc::new(Expr::And(
                Arc::new(same_result(full_h, slice_h, attributes)),
                Arc::new(same_result(full_m, slice_m, attributes)),
            )),
            Arc::new(Expr::And(
                Arc::new(same_result(full_h, slice_m, attributes)),
                Arc::new(same_result(full_m, slice_h, attributes)),
            )),
        )),
    );
    let zeta = Expr::Or(Arc::new(case_empty), Arc::new(case_same_pair));
    simplify(&Expr::And(
        Arc::new(phi_d.clone()),
        Arc::new(Expr::Not(Arc::new(zeta))),
    ))
}

/// Greedy slicing (Section 8.3.3): starting from the full set of positions,
/// tries to remove one statement at a time, keeping the removal when the
/// solver proves the candidate is still a slice.
pub fn greedy_slice(
    original: &History,
    modified: &History,
    positions: &[usize],
    database: &Database,
    config: &GreedyConfig,
) -> Result<ProgramSliceResult, SlicingError> {
    let start = Instant::now();
    if original.len() != modified.len() {
        return Err(SlicingError::HistoriesNotAligned {
            original: original.len(),
            modified: modified.len(),
        });
    }
    let n = original.len();
    if positions.is_empty() {
        return Ok(ProgramSliceResult {
            kept_positions: Vec::new(),
            excluded_positions: (0..n).collect(),
            solver_calls: 0,
            duration: start.elapsed(),
        });
    }
    let modified_set: BTreeSet<usize> = positions.iter().copied().collect();
    let affected_relations: BTreeSet<String> = positions
        .iter()
        .filter_map(|&p| original.statement(p).ok().map(|s| s.relation().to_string()))
        .collect();
    let solver = Solver::with_config(config.solver.clone());

    let mut kept: BTreeSet<usize> = (0..n).collect();
    let mut excluded: Vec<usize> = Vec::new();
    let mut solver_calls = 0usize;

    // Statements on relations that carry no modification can be dropped
    // outright unless the history contains INSERT ... SELECT statements (in
    // which case cross-relation flow makes the quick argument unsound and we
    // keep them).
    let has_insert_select = original
        .statements()
        .iter()
        .chain(modified.statements())
        .any(|s| matches!(s, Statement::InsertQuery { .. }));

    // Domains, Φ_D and witness samples depend on the relation only, so they
    // are built once per relation, as the dependency test builds them.
    let context_config = ProgramSlicingConfig {
        compression: config.compression.clone(),
        solver: config.solver.clone(),
        skip_compression_constraint: false,
    };
    let mut contexts: BTreeMap<String, RelationContext> = BTreeMap::new();
    let all: BTreeSet<usize> = (0..n).collect();

    for i in 0..n {
        if modified_set.contains(&i) {
            continue;
        }
        let stmt = &original.statements()[i];
        if matches!(
            stmt,
            Statement::InsertValues { .. } | Statement::InsertQuery { .. }
        ) {
            continue; // always kept
        }
        let relation = stmt.relation().to_string();
        if !affected_relations.contains(&relation) {
            if !has_insert_select {
                kept.remove(&i);
                excluded.push(i);
            }
            continue;
        }

        // Candidate slice: kept − {i}.
        let mut candidate = kept.clone();
        candidate.remove(&i);

        if !contexts.contains_key(&relation) {
            let context = build_relation_context(database, &relation, &context_config)?;
            contexts.insert(relation.clone(), context);
        }
        let ctx = &contexts[&relation];
        let attributes = database.relation(&relation)?.schema.attribute_names();

        let full_h = run_symbolically(original, &relation, &all, &attributes, "_fh");
        let full_m = run_symbolically(modified, &relation, &all, &attributes, "_fm");
        let slice_h = run_symbolically(original, &relation, &candidate, &attributes, "_sh");
        let slice_m = run_symbolically(modified, &relation, &candidate, &attributes, "_sm");

        // ¬ζ without Φ_D: a satisfying tuple shows the candidate is not a
        // slice (provided it also lies in a world of Φ_D); unsatisfiability
        // already proves the candidate is a slice, because adding Φ_D only
        // strengthens the conjunction.
        let core = not_zeta(
            &full_h,
            &full_m,
            &slice_h,
            &slice_m,
            &attributes,
            &Expr::true_(),
        );
        let definitions: Vec<(String, Expr)> = [full_h, full_m, slice_h, slice_m]
            .into_iter()
            .flat_map(|run| run.definitions)
            .collect();
        let (cone, _) = dependency_cone(&core, &definitions);

        // Stage 1: concrete witnesses from the relation (each is a world of
        // Φ_D by construction).
        if ctx
            .witnesses
            .iter()
            .any(|w| witness_satisfies(&core, &cone, w))
        {
            continue; // keep statement i
        }

        // Stage 2: decide ¬ζ without Φ_D.
        solver_calls += 1;
        let core_problem = problem_with_definitions(ctx.domains.clone(), core.clone(), &cone);
        match solver.check(&core_problem) {
            SatResult::Unsat => {
                kept.remove(&i);
                excluded.push(i);
                continue;
            }
            SatResult::Sat(ref model) => {
                if model_satisfies(&ctx.phi_d, model) {
                    continue; // keep statement i
                }
            }
            // Adding Φ_D only makes the search harder; if the core already
            // exhausted the budget, keep the statement conservatively instead
            // of paying for a second exhausted search.
            SatResult::Unknown => continue,
        }

        // Stage 3: full ¬ζ ∧ Φ_D (reached only when the core was satisfiable
        // outside the compressed database).
        let condition = simplify(&Expr::And(Arc::new(ctx.phi_d.clone()), Arc::new(core)));
        let problem = problem_with_definitions(ctx.domains.clone(), condition, &cone);
        solver_calls += 1;
        if let SatResult::Unsat = solver.check(&problem) {
            kept.remove(&i);
            excluded.push(i);
        }
    }

    excluded.sort_unstable();
    Ok(ProgramSliceResult {
        kept_positions: kept.into_iter().collect(),
        excluded_positions: excluded,
        solver_calls,
        duration: start.elapsed(),
    })
}

/// Convenience used by tests and the ablation bench: checks whether the given
/// candidate positions form a slice by testing `¬ζ` for unsatisfiability over
/// each affected relation.
pub fn is_slice(
    original: &History,
    modified: &History,
    positions: &[usize],
    candidate: &[usize],
    database: &Database,
    config: &GreedyConfig,
) -> Result<bool, SlicingError> {
    let candidate_set: BTreeSet<usize> = candidate.iter().copied().collect();
    // Every modified position must be part of the candidate.
    if positions.iter().any(|p| !candidate_set.contains(p)) {
        return Ok(false);
    }
    let all: BTreeSet<usize> = (0..original.len()).collect();
    let relations: BTreeSet<String> = positions
        .iter()
        .filter_map(|&p| original.statement(p).ok().map(|s| s.relation().to_string()))
        .collect();
    let solver = Solver::with_config(config.solver.clone());
    let mut conditions = Vec::new();
    for relation in &relations {
        let rel = database.relation(relation)?;
        let attributes = rel.schema.attribute_names();
        let phi_d = compress_relation(rel, &config.compression);
        let full_h = run_symbolically(original, relation, &all, &attributes, "_fh");
        let full_m = run_symbolically(modified, relation, &all, &attributes, "_fm");
        let slice_h = run_symbolically(original, relation, &candidate_set, &attributes, "_sh");
        let slice_m = run_symbolically(modified, relation, &candidate_set, &attributes, "_sm");
        let condition = not_zeta(&full_h, &full_m, &slice_h, &slice_m, &attributes, &phi_d);
        let mut problem = SatProblem::new(domains_for_relation(rel, initial_var_name)?, condition);
        for run in [&full_h, &full_m, &slice_h, &slice_m] {
            for (name, def) in &run.definitions {
                problem.define(name.clone(), def.clone());
            }
        }
        conditions.push(solver.check(&problem).is_unsat());
    }
    Ok(conditions.iter().all(|b| *b) && !conditions.is_empty() || {
        // No affected relation at all means the answer is empty and any
        // candidate containing the modified positions is a slice.
        relations.is_empty()
    })
}

/// Disjunction helper re-exported for the bench harness (kept here to avoid a
/// tiny utility crate).
pub fn any_of(conditions: impl IntoIterator<Item = Expr>) -> Expr {
    disjunction(conditions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mahif_expr::builder::*;
    use mahif_history::statement::{
        running_example_database, running_example_history, running_example_u1_prime,
    };
    use mahif_history::{HistoricalWhatIf, ModificationSet, SetClause};

    fn bob_query() -> HistoricalWhatIf {
        HistoricalWhatIf::new(
            History::new(running_example_history()),
            running_example_database(),
            ModificationSet::single_replace(0, running_example_u1_prime()),
        )
    }

    fn assert_slice_preserves_answer(query: &HistoricalWhatIf, slice: &ProgramSliceResult) {
        let n = query.normalize().unwrap();
        let left = n
            .original
            .restrict(&slice.kept_positions)
            .execute(&query.database)
            .unwrap();
        let right = n
            .modified
            .restrict(&slice.kept_positions)
            .execute(&query.database)
            .unwrap();
        let sliced_delta = mahif_history::DatabaseDelta::compute_for_relations(
            &left,
            &right,
            &n.original.relations_accessed(),
        );
        let reference = query.answer_by_direct_execution().unwrap();
        assert_eq!(sliced_delta, reference);
    }

    #[test]
    fn greedy_slice_on_running_example() {
        let q = bob_query();
        let n = q.normalize().unwrap();
        let slice = greedy_slice(
            &n.original,
            &n.modified,
            &n.modified_positions,
            &q.database,
            &GreedyConfig::default(),
        )
        .unwrap();
        // u1 (modified) is always kept; u2 is dependent; u3 can be dropped.
        assert!(slice.kept_positions.contains(&0));
        assert!(slice.kept_positions.contains(&1));
        assert!(slice.excluded_positions.contains(&2));
        // u2 is kept via a concrete witness; u3's removal needs at least one
        // satisfiability check.
        assert!(slice.solver_calls >= 1);
        assert_slice_preserves_answer(&q, &slice);
    }

    #[test]
    fn greedy_slice_with_deletes() {
        // History ending in a delete of cheap orders; modification changes
        // the free-shipping threshold. The delete is independent of the
        // modification (it only looks at Price which no statement changes).
        let mut statements = running_example_history();
        statements.push(Statement::delete("Order", lt(attr("Price"), lit(25))));
        let q = HistoricalWhatIf::new(
            History::new(statements),
            running_example_database(),
            ModificationSet::single_replace(0, running_example_u1_prime()),
        );
        let n = q.normalize().unwrap();
        let slice = greedy_slice(
            &n.original,
            &n.modified,
            &n.modified_positions,
            &q.database,
            &GreedyConfig::default(),
        )
        .unwrap();
        assert!(slice.excluded_positions.contains(&3));
        assert_slice_preserves_answer(&q, &slice);
    }

    #[test]
    fn greedy_and_dependency_slicers_agree_on_answer() {
        let q = bob_query();
        let n = q.normalize().unwrap();
        let greedy = greedy_slice(
            &n.original,
            &n.modified,
            &n.modified_positions,
            &q.database,
            &GreedyConfig::default(),
        )
        .unwrap();
        let dependency = crate::program::program_slice(
            &n.original,
            &n.modified,
            &n.modified_positions,
            &q.database,
            &crate::program::ProgramSlicingConfig::default(),
        )
        .unwrap();
        assert_slice_preserves_answer(&q, &greedy);
        assert_slice_preserves_answer(&q, &dependency);
    }

    #[test]
    fn is_slice_accepts_full_history_and_rejects_missing_modification() {
        let q = bob_query();
        let n = q.normalize().unwrap();
        let all: Vec<usize> = (0..n.original.len()).collect();
        assert!(is_slice(
            &n.original,
            &n.modified,
            &n.modified_positions,
            &all,
            &q.database,
            &GreedyConfig::default()
        )
        .unwrap());
        // A candidate that drops the modified statement itself is never a
        // slice.
        assert!(!is_slice(
            &n.original,
            &n.modified,
            &n.modified_positions,
            &[1, 2],
            &q.database,
            &GreedyConfig::default()
        )
        .unwrap());
        // Dropping the dependent u2 is not a slice either.
        assert!(!is_slice(
            &n.original,
            &n.modified,
            &n.modified_positions,
            &[0, 2],
            &q.database,
            &GreedyConfig::default()
        )
        .unwrap());
    }

    #[test]
    fn unrelated_relation_statement_dropped_without_solver() {
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
            Expr::true_(),
        ));
        let q = HistoricalWhatIf::new(
            History::new(statements),
            db,
            ModificationSet::single_replace(0, running_example_u1_prime()),
        );
        let n = q.normalize().unwrap();
        let slice = greedy_slice(
            &n.original,
            &n.modified,
            &n.modified_positions,
            &q.database,
            &GreedyConfig::default(),
        )
        .unwrap();
        assert!(slice.excluded_positions.contains(&3));
        assert_slice_preserves_answer(&q, &slice);
    }
}
