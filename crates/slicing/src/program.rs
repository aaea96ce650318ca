//! Program slicing via the dependency test of Section 9.
//!
//! A statement can be excluded from reenactment when its presence provably
//! has no effect on the answer of the what-if query. Any tuple in the answer
//! must be affected by one of the modified statements; a statement `u_i` is
//! therefore *independent* when there is no possible input tuple (in any
//! world of the compressed database Φ_D) that is affected both by a modified
//! statement (in the original or the modified history) and by `u_i` (again in
//! either history). Independence is checked by symbolically executing both
//! histories over the single-tuple symbolic instance `D0` and asking the
//! solver whether the conjunction of the two "affected" conditions is
//! satisfiable.
//!
//! **Deviation from the paper.** Definition 7 of the paper evaluates the
//! modified statements' conditions only over the *full*-history trajectories.
//! That is not sufficient: removing `u_i` can change the intermediate state a
//! *later* modified statement sees, making it fire on tuples it never touched
//! in the full history, which then appear (incorrectly) in the sliced delta.
//! Property-based testing surfaces such counterexamples readily (see
//! `tests/prop_whatif.rs`). The check implemented here therefore evaluates
//! the modified statements' conditions over both the full trajectories and
//! the trajectories of the candidate slice with `u_i` removed, and exclusions
//! are applied cumulatively (each check is performed against the candidate
//! produced by the previous exclusions). The check runs in three stages —
//! concrete witness tuples sampled from the database, the solver on the core
//! condition, the solver on the core condition conjoined with Φ_D — and the
//! verdicts are used as follows:
//!
//! * `SAT`     → the statement may interact with the modification → keep it;
//! * `UNSAT`   → provably independent → exclude it from the slice;
//! * `UNKNOWN` → resource limit hit → keep it (conservative).
//!
//! Insert statements are always kept: they are excluded from symbolic
//! reasoning by the paper (Section 8.3 / Section 10) because the insert-split
//! optimization already reduces their cost to the number of inserted tuples.
//!
//! One loop runs the test, [`crate::program_slice_multi`]; [`program_slice`]
//! is that loop over a group of one scenario. Two facts keep it cheap:
//!
//! * **Only the dependency cone is evaluated.** Symbolic execution defines a
//!   variable for every assignment of every trajectory, but the dependency
//!   condition reads few of them. Stage 1 evaluates per witness only the
//!   definitions the condition transitively reads
//!   ([`mahif_solver::dependency_cone`], the filter the solver applies too),
//!   and the solver receives only those. A witness that satisfies the
//!   condition is therefore never thrown away because some definition the
//!   condition does not read fails to evaluate on it.
//! * **Trajectories stop where the condition stops reading.** The condition
//!   reads the state before `u_i` and the states before the modified
//!   positions `p`, so every trajectory ends at `max(i, last p)`. For `p < i`
//!   the `u_i`-removed state equals the candidate state: the state before `p`
//!   is produced by the statements at positions below `p` alone, `i` is not
//!   one of them, so skipping `u_i` changes nothing up to `p`. The
//!   `u_i`-removed conditions at `p < i` would repeat the candidate ones, so
//!   only modified positions `p > i` get them, and the `u_i`-removed
//!   trajectories are built only when such a position exists.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Duration;

use mahif_expr::{
    eval_condition, eval_expr, simplify, substitute_attrs, Expr, MapBindings, SubstMap,
};
use mahif_history::{History, Statement};
use mahif_solver::{Domain, SatProblem, SearchConfig};
use mahif_storage::Database;
use mahif_symbolic::{initial_var_name, CompressionConfig};

use crate::error::SlicingError;

/// Configuration of program slicing.
#[derive(Debug, Clone, Default)]
pub struct ProgramSlicingConfig {
    /// How the input database is compressed into Φ_D (Section 8.3.1).
    pub compression: CompressionConfig,
    /// Resource limits of the satisfiability search.
    pub solver: SearchConfig,
    /// When `false`, the compressed-database constraint Φ_D is not added to
    /// the dependency condition (the per-attribute domains still bound the
    /// search); used by the ablation benchmarks.
    pub skip_compression_constraint: bool,
}

/// Number of concrete tuples sampled per relation as cheap SAT witnesses for
/// the dependency check. Every sampled tuple is a possible world of the
/// compressed database (its values satisfy Φ_D by construction), so a sample
/// that satisfies the dependency condition proves the statement dependent
/// without invoking the solver. The cap keeps the cost of program slicing
/// independent of the relation size, as in the paper.
pub(crate) const WITNESS_SAMPLES: usize = 64;

/// The result of program slicing.
#[derive(Debug, Clone)]
pub struct ProgramSliceResult {
    /// Positions (0-based, in the normalized histories) of the statements
    /// that must be reenacted — the slice `I`.
    pub kept_positions: Vec<usize>,
    /// Positions excluded from reenactment.
    pub excluded_positions: Vec<usize>,
    /// Number of satisfiability checks performed.
    pub solver_calls: usize,
    /// Wall-clock time spent slicing (the `PS` column of Figure 16).
    pub duration: Duration,
}

impl ProgramSliceResult {
    /// The trivial slice keeping every statement.
    pub fn keep_all(len: usize) -> Self {
        ProgramSliceResult {
            kept_positions: (0..len).collect(),
            excluded_positions: Vec::new(),
            solver_calls: 0,
            duration: Duration::default(),
        }
    }

    /// Fraction of statements excluded.
    pub fn exclusion_ratio(&self) -> f64 {
        let total = self.kept_positions.len() + self.excluded_positions.len();
        if total == 0 {
            0.0
        } else {
            self.excluded_positions.len() as f64 / total as f64
        }
    }
}

/// Symbolic trajectory of the single input tuple of one relation through one
/// history: the per-attribute symbolic expression *before* each statement,
/// plus the definitions introducing the intermediate variables.
pub(crate) struct Trajectory {
    /// `states[j]` maps attribute → symbolic expression before the statement
    /// at position `j`, for every `j` up to the trajectory's end.
    pub(crate) states: Vec<BTreeMap<String, Expr>>,
    /// Definitions `(variable, expression)` in dependency order.
    pub(crate) definitions: Vec<(String, Expr)>,
}

/// Builds the symbolic trajectory of the first `end` statements of `history`
/// over `relation`, skipping the statements at the positions in `skip` (used
/// to model candidate slices: the skipped statements' effects are simply not
/// applied). `states[end]` is the last state.
pub(crate) fn trajectory(
    history: &History,
    relation: &str,
    skip: &BTreeSet<usize>,
    suffix: &str,
    end: usize,
) -> Trajectory {
    let mut current: BTreeMap<String, Expr> = BTreeMap::new();
    // Attributes are discovered lazily from the statements' conditions and
    // set clauses; initial value of attribute A is the shared variable
    // `x_A_0`.
    let mut states = Vec::with_capacity(end + 1);
    let mut definitions = Vec::new();

    let ensure_attr = |current: &mut BTreeMap<String, Expr>, attr: &str| {
        current
            .entry(attr.to_string())
            .or_insert_with(|| Expr::Var(initial_var_name(attr)));
    };

    for (j, stmt) in history.statements()[..end].iter().enumerate() {
        states.push(current.clone());
        if stmt.relation() != relation || skip.contains(&j) {
            continue;
        }
        if let Statement::Update { set, cond, .. } = stmt {
            for attr in cond.attrs() {
                ensure_attr(&mut current, &attr);
            }
            for (attr, e) in &set.assignments {
                ensure_attr(&mut current, attr);
                for a in e.attrs() {
                    ensure_attr(&mut current, &a);
                }
            }
            let subst: SubstMap = current
                .iter()
                .map(|(a, e)| (a.clone(), e.clone()))
                .collect();
            let theta = substitute_attrs(cond, &subst);
            for (attr, e) in &set.assignments {
                let new_var = format!("x_{attr}_{}{suffix}", j + 1);
                let new_value = substitute_attrs(e, &subst);
                let definition = simplify(&Expr::IfThenElse {
                    cond: Arc::new(theta.clone()),
                    then_branch: Arc::new(new_value),
                    else_branch: Arc::new(current[attr].clone()),
                });
                definitions.push((new_var.clone(), definition));
                current.insert(attr.clone(), Expr::Var(new_var));
            }
        }
        // Deletes do not change attribute values of surviving tuples and
        // inserts never modify existing tuples; ignoring the survival
        // condition only makes the dependency test more conservative.
    }
    states.push(current);
    Trajectory {
        states,
        definitions,
    }
}

/// The condition under which `statement` affects an existing input tuple
/// whose current attribute values are given by `state`.
pub(crate) fn affects_condition(statement: &Statement, state: &BTreeMap<String, Expr>) -> Expr {
    match statement {
        Statement::Update { cond, .. } | Statement::Delete { cond, .. } => {
            if cond.is_false() {
                return Expr::false_();
            }
            let mut subst = SubstMap::new();
            for attr in cond.attrs() {
                let value = state
                    .get(&attr)
                    .cloned()
                    .unwrap_or_else(|| Expr::Var(initial_var_name(&attr)));
                subst.insert(attr, value);
            }
            substitute_attrs(cond, &subst)
        }
        Statement::InsertValues { .. } | Statement::InsertQuery { .. } => Expr::false_(),
    }
}

/// Evaluates `cone` — the condition's dependency cone, see
/// [`mahif_solver::dependency_cone`] — over a concrete tuple binding and then
/// the condition; `true` only when the condition provably holds.
pub(crate) fn witness_satisfies(
    condition: &Expr,
    cone: &[&(String, Expr)],
    witness: &MapBindings,
) -> bool {
    let mut bindings = witness.clone();
    for (name, def) in cone {
        match eval_expr(def, &bindings) {
            Ok(v) => bindings.set_var(name.clone(), v),
            Err(_) => return false,
        }
    }
    eval_condition(condition, &bindings).unwrap_or(false)
}

/// Evaluates `phi_d` under a solver model (an assignment to the base and
/// derived variables); `true` only when the constraint provably holds.
pub(crate) fn model_satisfies(phi_d: &Expr, model: &mahif_solver::Assignment) -> bool {
    if phi_d.is_true() {
        return true;
    }
    let mut bindings = MapBindings::new();
    for (name, value) in model.iter() {
        bindings.set_var(name.clone(), value.clone());
    }
    eval_condition(phi_d, &bindings).unwrap_or(false)
}

/// Builds a [`SatProblem`] with the given derived-variable definitions.
pub(crate) fn problem_with_definitions(
    domains: Vec<(String, Domain)>,
    condition: Expr,
    definitions: &[&(String, Expr)],
) -> SatProblem {
    let mut problem = SatProblem::new(domains, condition);
    for (name, def) in definitions {
        problem.define(name.clone(), def.clone());
    }
    problem
}

/// Relations that can carry delta tuples: the relations of the modified
/// statements, closed under `INSERT ... SELECT` data flow (if an insert query
/// reads an affected relation, its target relation is affected too).
pub(crate) fn affected_relations(
    original: &History,
    modified: &History,
    positions: &[usize],
) -> BTreeSet<String> {
    let mut affected: BTreeSet<String> = BTreeSet::new();
    for &p in positions {
        if let Ok(s) = original.statement(p) {
            affected.insert(s.relation().to_string());
        }
        if let Ok(s) = modified.statement(p) {
            affected.insert(s.relation().to_string());
        }
    }
    // Transitive closure over insert-select data flow.
    loop {
        let mut changed = false;
        for history in [original, modified] {
            for stmt in history.statements() {
                if let Statement::InsertQuery { relation, query } = stmt {
                    let reads_affected = query
                        .referenced_relations()
                        .iter()
                        .any(|r| affected.contains(r));
                    if reads_affected && affected.insert(relation.clone()) {
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    affected
}

/// Computes the program slice for normalized histories `original` /
/// `modified` (equal length, differing at `positions`) over `database` (the
/// time-travel state `D`). Returns the positions to keep.
///
/// This is [`crate::program_slice_multi`] over a group of one scenario.
pub fn program_slice(
    original: &History,
    modified: &History,
    positions: &[usize],
    database: &Database,
    config: &ProgramSlicingConfig,
) -> Result<ProgramSliceResult, SlicingError> {
    crate::program_slice_multi(
        original,
        std::slice::from_ref(modified),
        positions,
        database,
        config,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mahif_expr::builder::*;
    use mahif_history::statement::{
        running_example_database, running_example_history, running_example_u1_prime,
    };
    use mahif_history::{HistoricalWhatIf, ModificationSet, SetClause};
    use mahif_query::Query;

    fn bob_query() -> HistoricalWhatIf {
        HistoricalWhatIf::new(
            History::new(running_example_history()),
            running_example_database(),
            ModificationSet::single_replace(0, running_example_u1_prime()),
        )
    }

    /// Answers the query by reenacting only the statements at `kept`.
    fn sliced_answer(query: &HistoricalWhatIf, kept: &[usize]) -> mahif_history::DatabaseDelta {
        let n = query.normalize().unwrap();
        let left = n.original.restrict(kept).execute(&query.database).unwrap();
        let right = n.modified.restrict(kept).execute(&query.database).unwrap();
        mahif_history::DatabaseDelta::compute_for_relations(
            &left,
            &right,
            &n.original.relations_accessed(),
        )
    }

    /// Answers the query by reenacting only the sliced statements and checks
    /// the result against direct execution.
    fn assert_slice_preserves_answer(query: &HistoricalWhatIf, config: &ProgramSlicingConfig) {
        let n = query.normalize().unwrap();
        let slice = program_slice(
            &n.original,
            &n.modified,
            &n.modified_positions,
            &query.database,
            config,
        )
        .unwrap();
        assert_eq!(
            sliced_answer(query, &slice.kept_positions),
            query.answer_by_direct_execution().unwrap(),
            "slice {:?} changed the answer",
            slice.kept_positions
        );
    }

    /// `R(a, b)` holding `rows`.
    fn ab_database(rows: &[[i64; 2]]) -> Database {
        use mahif_storage::{Attribute, Relation, Schema};
        let schema = Schema::shared("R", vec![Attribute::int("a"), Attribute::int("b")]);
        let mut relation = Relation::empty(schema);
        for row in rows {
            relation.insert_values(*row).unwrap();
        }
        let mut db = Database::new();
        db.add_relation(relation).unwrap();
        db
    }

    #[test]
    fn unrelated_failing_definition_does_not_veto_a_witness() {
        // u0 divides b by zero on every tuple; u1 (modified) reads only a.
        // The dependency condition for u0 reads only a, so the witness
        // a = 150 proves u0 dependent without the solver — although u0's own
        // definition of b fails to evaluate on every witness.
        let history = History::new(vec![
            Statement::update(
                "R",
                SetClause::single("b", div(attr("b"), lit(0))),
                ge(attr("a"), lit(0)),
            ),
            Statement::update("R", SetClause::single("a", lit(0)), ge(attr("a"), lit(100))),
        ]);
        let replacement =
            Statement::update("R", SetClause::single("a", lit(0)), ge(attr("a"), lit(50)));
        let (original, modified, positions) = ModificationSet::single_replace(1, replacement)
            .normalize(&history)
            .unwrap();
        let slice = program_slice(
            &original,
            &modified,
            &positions,
            &ab_database(&[[150, 1], [20, 2]]),
            &ProgramSlicingConfig::default(),
        )
        .unwrap();
        assert_eq!(slice.kept_positions, [0, 1]);
        assert_eq!(slice.solver_calls, 0);
    }

    #[test]
    fn statement_only_the_removed_trajectory_needs_is_kept() {
        // u0 zeroes a wherever a >= 100, so in the full history u1 and its
        // replacement fire on no row. Without u0 the row a = 150 reaches u1,
        // where b + 1 and b + 2 differ: the modified position p = 1 lies
        // after i = 0, and only the u0-removed trajectory shows the
        // dependence.
        let update_b = |amount| {
            Statement::update(
                "R",
                SetClause::single("b", add(attr("b"), lit(amount))),
                ge(attr("a"), lit(100)),
            )
        };
        let q = HistoricalWhatIf::new(
            History::new(vec![
                Statement::update("R", SetClause::single("a", lit(0)), ge(attr("a"), lit(100))),
                update_b(1),
            ]),
            ab_database(&[[150, 0], [20, 0]]),
            ModificationSet::single_replace(1, update_b(2)),
        );
        let n = q.normalize().unwrap();
        let slice = program_slice(
            &n.original,
            &n.modified,
            &n.modified_positions,
            &q.database,
            &ProgramSlicingConfig::default(),
        )
        .unwrap();
        assert!(slice.kept_positions.contains(&0));
        assert_slice_preserves_answer(&q, &ProgramSlicingConfig::default());
        assert_ne!(
            sliced_answer(&q, &[1]),
            q.answer_by_direct_execution().unwrap(),
            "dropping u0 must change the answer"
        );
    }

    #[test]
    fn running_example_keeps_dependent_u2() {
        // Example 9: u2 is dependent on the modification of u1 (a UK order
        // with price exactly 50 is affected by u1 but not u1', and by u2), so
        // it must be kept. u3 (price <= 30 AND fee >= 10) can only apply to
        // cheap orders whose fee reaches 10 via u2's surcharge — such tuples
        // are not affected by u1/u1' (price < 50), so u3 is excluded.
        let q = bob_query();
        let n = q.normalize().unwrap();
        let slice = program_slice(
            &n.original,
            &n.modified,
            &n.modified_positions,
            &q.database,
            &ProgramSlicingConfig::default(),
        )
        .unwrap();
        assert!(slice.kept_positions.contains(&0));
        assert!(slice.kept_positions.contains(&1));
        assert!(slice.excluded_positions.contains(&2));
        // u2's dependence is settled by a concrete witness tuple (Alex's
        // order), u3's independence needs one satisfiability check.
        assert_eq!(slice.solver_calls, 1);
        assert!(slice.exclusion_ratio() > 0.0);
        assert_slice_preserves_answer(&q, &ProgramSlicingConfig::default());
    }

    #[test]
    fn independent_updates_are_excluded() {
        // Updates over a disjoint key range are independent of the
        // modification and must be excluded.
        let mut statements = running_example_history();
        statements.push(Statement::update(
            "Order",
            SetClause::single("Price", add(attr("Price"), lit(1))),
            lt(attr("Price"), lit(0)), // never true for this data
        ));
        let q = HistoricalWhatIf::new(
            History::new(statements),
            running_example_database(),
            ModificationSet::single_replace(0, running_example_u1_prime()),
        );
        let n = q.normalize().unwrap();
        let slice = program_slice(
            &n.original,
            &n.modified,
            &n.modified_positions,
            &q.database,
            &ProgramSlicingConfig::default(),
        )
        .unwrap();
        assert!(slice.excluded_positions.contains(&3));
        assert_slice_preserves_answer(&q, &ProgramSlicingConfig::default());
    }

    #[test]
    fn statements_on_unrelated_relations_are_excluded() {
        use mahif_storage::{Attribute, Relation, Schema};
        let mut db = running_example_database();
        let cust_schema = Schema::shared(
            "Customer",
            vec![Attribute::int("CID"), Attribute::int("Credit")],
        );
        let mut cust = Relation::empty(cust_schema);
        cust.insert_values([1i64, 100i64]).unwrap();
        db.add_relation(cust).unwrap();

        let mut statements = running_example_history();
        statements.push(Statement::update(
            "Customer",
            SetClause::single("Credit", add(attr("Credit"), lit(10))),
            Expr::true_(),
        ));
        let q = HistoricalWhatIf::new(
            History::new(statements),
            db,
            ModificationSet::single_replace(0, running_example_u1_prime()),
        );
        let n = q.normalize().unwrap();
        let slice = program_slice(
            &n.original,
            &n.modified,
            &n.modified_positions,
            &q.database,
            &ProgramSlicingConfig::default(),
        )
        .unwrap();
        // The Customer update (position 3) cannot contribute to the Order
        // delta.
        assert!(slice.excluded_positions.contains(&3));
        assert_slice_preserves_answer(&q, &ProgramSlicingConfig::default());
    }

    #[test]
    fn insert_select_makes_target_relation_affected() {
        use mahif_storage::{Attribute, Relation, Schema};
        let mut db = running_example_database();
        let arch_schema = Schema::shared(
            "Archive",
            vec![
                Attribute::int("ID"),
                Attribute::str("Customer"),
                Attribute::str("Country"),
                Attribute::int("Price"),
                Attribute::int("ShippingFee"),
            ],
        );
        db.add_relation(Relation::empty(arch_schema)).unwrap();

        let mut statements = running_example_history();
        // Archive expensive orders (reads Order, writes Archive).
        statements.push(Statement::insert_query(
            "Archive",
            Query::select(ge(attr("Price"), lit(50)), Query::scan("Order")),
        ));
        // Later update on Archive — may see different data if the
        // modification changes Order, so it must be kept.
        statements.push(Statement::update(
            "Archive",
            SetClause::single("ShippingFee", lit(0)),
            Expr::true_(),
        ));
        let q = HistoricalWhatIf::new(
            History::new(statements),
            db,
            ModificationSet::single_replace(0, running_example_u1_prime()),
        );
        let n = q.normalize().unwrap();
        let slice = program_slice(
            &n.original,
            &n.modified,
            &n.modified_positions,
            &q.database,
            &ProgramSlicingConfig::default(),
        )
        .unwrap();
        // The insert-select (3) and the Archive update (4) are kept.
        assert!(slice.kept_positions.contains(&3));
        assert!(slice.kept_positions.contains(&4));
    }

    #[test]
    fn empty_modifications_exclude_everything() {
        let q = HistoricalWhatIf::new(
            History::new(running_example_history()),
            running_example_database(),
            ModificationSet::default(),
        );
        let n = q.normalize().unwrap();
        let slice = program_slice(
            &n.original,
            &n.modified,
            &n.modified_positions,
            &q.database,
            &ProgramSlicingConfig::default(),
        )
        .unwrap();
        assert!(slice.kept_positions.is_empty());
        assert_eq!(slice.excluded_positions.len(), 3);
    }

    #[test]
    fn skip_compression_is_more_conservative_but_correct() {
        let q = bob_query();
        let config = ProgramSlicingConfig {
            skip_compression_constraint: true,
            ..Default::default()
        };
        assert_slice_preserves_answer(&q, &config);
    }

    #[test]
    fn keep_all_constructor() {
        let r = ProgramSliceResult::keep_all(4);
        assert_eq!(r.kept_positions, vec![0, 1, 2, 3]);
        assert!(r.excluded_positions.is_empty());
        assert_eq!(r.exclusion_ratio(), 0.0);
    }

    #[test]
    fn misaligned_histories_error() {
        let h = History::new(running_example_history());
        let shorter = h.prefix(1);
        assert!(program_slice(
            &h,
            &shorter,
            &[0],
            &running_example_database(),
            &ProgramSlicingConfig::default()
        )
        .is_err());
    }
}
