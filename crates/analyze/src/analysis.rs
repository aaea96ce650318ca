//! The registration-time analyzer artifact and its admission-time consumers.
//!
//! [`HistoryAnalysis::build`] runs once per registered history (inside
//! `Session::register`) and precomputes everything admission-time checks
//! need: per-attribute type/nullability inference evolved statement by
//! statement through the history, per-statement read/write summaries and the def-use graph
//! they induce, and a liveness classification (vacuous / shadowed / live)
//! per statement.
//!
//! At admission, [`validate`](HistoryAnalysis::validate) typechecks a
//! scenario's modified chain (rejections become HTTP 400 before any slicing
//! or reenactment runs) and [`prove_noop`](HistoryAnalysis::prove_noop)
//! attempts a syntactic proof that the modified history produces the same
//! final state as the original — in which case the scenario is answered
//! with an empty delta without touching the engine.

use std::collections::BTreeSet;

use mahif_expr::{Expr, Value};
use mahif_history::{History, Modification, ModificationSet, Statement};
use mahif_slicing::{statement_summaries, StatementSummary};
use mahif_storage::Database;

use crate::error::AnalysisError;
use crate::infer::{check_statement, evolve_statement, TypeEnv};

/// Liveness of one history statement, determined statically at
/// registration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Liveness {
    /// May affect the final state.
    Live,
    /// Its condition is unsatisfiable: the statement modifies no row.
    Vacuous,
    /// Every attribute it writes is unconditionally overwritten by a later
    /// statement before anything reads it: its effect never escapes.
    Shadowed,
}

/// The static-analysis artifact of one registered history.
#[derive(Debug, Clone)]
pub struct HistoryAnalysis {
    statements: Vec<Statement>,
    summaries: Vec<StatementSummary>,
    initial: TypeEnv,
    final_env: TypeEnv,
    liveness: Vec<Liveness>,
    depends_on: Vec<Vec<usize>>,
}

impl HistoryAnalysis {
    /// Builds the artifact for `history` as registered over `initial`
    /// database state. Infallible: registered histories already executed,
    /// so inference failures taint instead of erroring.
    pub fn build(initial: &Database, history: &History) -> HistoryAnalysis {
        let statements: Vec<Statement> = history.statements().to_vec();
        let summaries = statement_summaries(history);
        let initial_env = TypeEnv::from_database(initial);
        let mut final_env = initial_env.clone();
        for statement in &statements {
            evolve_statement(statement, &mut final_env);
        }
        let liveness = statements
            .iter()
            .enumerate()
            .map(|(p, s)| classify(&statements, p, s))
            .collect();
        let depends_on = dependency_graph(&summaries);
        HistoryAnalysis {
            statements,
            summaries,
            initial: initial_env,
            final_env,
            liveness,
            depends_on,
        }
    }

    /// The per-statement read/write summaries.
    pub fn summaries(&self) -> &[StatementSummary] {
        &self.summaries
    }

    /// The inferred types before any statement ran (declared schema widened
    /// by the initial data).
    pub fn initial_types(&self) -> &TypeEnv {
        &self.initial
    }

    /// The inferred types after the full history (what the registered
    /// current state holds).
    pub fn final_types(&self) -> &TypeEnv {
        &self.final_env
    }

    /// Liveness of statement `position`.
    pub fn liveness(&self, position: usize) -> Option<Liveness> {
        self.liveness.get(position).copied()
    }

    /// Positions of statically dead statements (vacuous or shadowed).
    pub fn dead_statements(&self) -> Vec<usize> {
        self.liveness
            .iter()
            .enumerate()
            .filter(|(_, l)| !matches!(l, Liveness::Live))
            .map(|(p, _)| p)
            .collect()
    }

    /// The def-use dependency graph: for each statement, the earlier
    /// statements whose writes may flow into its reads.
    pub fn dependencies(&self, position: usize) -> &[usize] {
        self.depends_on
            .get(position)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Typechecks a scenario against the history: modification positions
    /// are bounds-checked under the paper's sequential semantics, the
    /// modified chain is re-inferred from the initial types, and every
    /// *new* statement is strictly checked (unknown relations/attributes,
    /// ill-typed predicates and SET expressions, unbound parameter
    /// variables). Original statements are never rejected retroactively —
    /// they evolve the environment best-effort.
    pub fn validate(&self, modifications: &ModificationSet) -> Result<(), AnalysisError> {
        let mut working: Vec<(&Statement, bool)> =
            self.statements.iter().map(|s| (s, false)).collect();
        for m in modifications.modifications() {
            match m {
                Modification::Replace { position, new } => {
                    if *position >= working.len() {
                        return Err(AnalysisError::PositionOutOfBounds {
                            position: *position,
                            length: working.len(),
                        });
                    }
                    working[*position] = (new, true);
                }
                Modification::Insert { position, new } => {
                    if *position > working.len() {
                        return Err(AnalysisError::PositionOutOfBounds {
                            position: *position,
                            length: working.len(),
                        });
                    }
                    working.insert(*position, (new, true));
                }
                Modification::Delete { position } => {
                    if *position >= working.len() {
                        return Err(AnalysisError::PositionOutOfBounds {
                            position: *position,
                            length: working.len(),
                        });
                    }
                    working.remove(*position);
                }
            }
        }
        let mut env = self.initial.clone();
        for (statement, is_new) in working {
            if is_new {
                check_statement(statement, &env)?;
            }
            evolve_statement(statement, &mut env);
        }
        Ok(())
    }

    /// Attempts a static proof that applying `modifications` leaves the
    /// final state unchanged, in which case the scenario's delta is empty
    /// and slicing + reenactment can be skipped entirely. Sound, not
    /// complete: `false` means "could not prove", not "has an effect".
    ///
    /// Callers must [`validate`](Self::validate) first — the proof assumes
    /// new statements typecheck (their only possible runtime faults would
    /// then come from arithmetic, which the proof additionally excludes).
    pub fn prove_noop(&self, modifications: &ModificationSet) -> bool {
        // The empty modification set is trivially a no-op, but it is also
        // the engine's documented "answer one empty scenario" path; leave
        // its stats alone.
        if modifications.is_empty() {
            return false;
        }
        let mut working: Vec<Statement> = self.statements.clone();
        for m in modifications.modifications() {
            match m {
                Modification::Replace { position, new } => {
                    let p = *position;
                    if p >= working.len() {
                        return false;
                    }
                    if working[p] != *new && !replacement_erasable(&working, p, new) {
                        return false;
                    }
                    working[p] = new.clone();
                }
                Modification::Delete { position } => {
                    let p = *position;
                    if p >= working.len() {
                        return false;
                    }
                    if !statement_erasable(&working, p + 1, &working[p]) {
                        return false;
                    }
                    working.remove(p);
                }
                Modification::Insert { position, new } => {
                    let p = *position;
                    if p > working.len() {
                        return false;
                    }
                    if !total(new) || !statement_erasable(&working, p, new) {
                        return false;
                    }
                    working.insert(p, new.clone());
                }
            }
        }
        true
    }
}

/// Classifies statement `p` of `statements` (registration-time liveness).
fn classify(statements: &[Statement], p: usize, statement: &Statement) -> Liveness {
    if vacuous(statement) {
        return Liveness::Vacuous;
    }
    if let Statement::Update { relation, set, .. } = statement {
        let writes: BTreeSet<String> = set.modified_attributes().into_iter().collect();
        if !writes.is_empty() && shadow_cover(statements, p + 1, relation, &writes) {
            return Liveness::Shadowed;
        }
    }
    Liveness::Live
}

/// Computes the def-use graph over statement summaries: an edge `q → p`
/// (q < p) when `q`'s writes may flow into `p`'s reads.
fn dependency_graph(summaries: &[StatementSummary]) -> Vec<Vec<usize>> {
    summaries
        .iter()
        .enumerate()
        .map(|(p, sp)| {
            (0..p)
                .filter(|&q| {
                    let sq = &summaries[q];
                    let same_relation = sq.relation == sp.relation;
                    let writes_read = same_relation
                        && (sq.whole_row || sq.writes.iter().any(|w| sp.reads.contains(w)));
                    let query_read = sp.query_relations.contains(&sq.relation);
                    writes_read || query_read
                })
                .collect()
        })
        .collect()
}

/// True when replacing `working[p]` with `new` provably leaves the final
/// state unchanged: both the old statement's effect and the new statement's
/// effect must be erasable (vacuous, or an update whose writes are
/// unconditionally overwritten before any read), and `new` must be total
/// (no arithmetic that could fault, no unbound variables).
fn replacement_erasable(working: &[Statement], p: usize, new: &Statement) -> bool {
    if !total(new) {
        return false;
    }
    let old = &working[p];
    let old_writes = match erasable_writes(old) {
        Some(w) => w,
        None => return false,
    };
    let new_writes = match erasable_writes(new) {
        Some(w) => w,
        None => return false,
    };
    // Both sides write: the shadow argument composes only over a single
    // relation's divergent attributes.
    if !old_writes.is_empty() && !new_writes.is_empty() && old.relation() != new.relation() {
        return false;
    }
    let relation = if !old_writes.is_empty() {
        old.relation()
    } else if !new_writes.is_empty() {
        new.relation()
    } else {
        return true; // both vacuous
    };
    let mut divergent = old_writes;
    divergent.extend(new_writes);
    shadow_cover(working, p + 1, relation, &divergent)
}

/// True when skipping or adding `statement` at position `start` provably
/// leaves the final state unchanged (the statement is vacuous, or an update
/// whose writes are shadowed by `working[start..]`).
fn statement_erasable(working: &[Statement], start: usize, statement: &Statement) -> bool {
    match erasable_writes(statement) {
        Some(writes) if writes.is_empty() => true,
        Some(writes) => shadow_cover(working, start, statement.relation(), &writes),
        None => false,
    }
}

/// The attribute set whose divergence erasing `statement` creates: empty
/// for vacuous statements, the SET targets for updates, `None` for
/// statements whose effect changes row counts (non-vacuous deletes and
/// inserts cannot be erased by overwriting).
fn erasable_writes(statement: &Statement) -> Option<BTreeSet<String>> {
    if vacuous(statement) {
        return Some(BTreeSet::new());
    }
    match statement {
        Statement::Update { set, .. } => Some(set.modified_attributes().into_iter().collect()),
        _ => None,
    }
}

/// True when every attribute of `divergent` (on `relation`) is overwritten
/// by an unconditional update of `statements[start..]` before any statement
/// reads it. Rows of `relation` then converge to identical values whether
/// or not the divergence ever happened.
fn shadow_cover(
    statements: &[Statement],
    start: usize,
    relation: &str,
    divergent: &BTreeSet<String>,
) -> bool {
    if divergent.is_empty() {
        return true;
    }
    let mut divergent = divergent.clone();
    for statement in &statements[start..] {
        if let Statement::InsertQuery { query, .. } = statement {
            // An INSERT … SELECT reading the divergent relation copies
            // divergent values into fresh rows; give up.
            if query.referenced_relations().iter().any(|r| r == relation) {
                return false;
            }
        }
        if statement.relation() != relation {
            continue;
        }
        let summary = mahif_slicing::statement_summary(0, statement);
        if summary.reads.iter().any(|r| divergent.contains(r)) {
            return false;
        }
        if let Statement::Update { set, cond, .. } = statement {
            if cond.is_true() {
                // Unconditional overwrite from non-divergent inputs: these
                // attributes converge.
                for attr in set.modified_attributes() {
                    divergent.remove(&attr);
                }
                if divergent.is_empty() {
                    return true;
                }
            }
        }
    }
    false
}

/// True when the statement is an update or delete whose condition is
/// unsatisfiable: it modifies no row (the engine's no-op padding `D_false`
/// is the degenerate case).
pub fn vacuous(statement: &Statement) -> bool {
    statement.condition().is_some_and(unsat)
}

/// A conservative unsatisfiability test over a row condition: literal
/// FALSE/NULL, conjunctions with conflicting constant constraints on one
/// attribute (empty intervals, contradictory equalities), constant
/// comparisons that evaluate to FALSE or NULL, and disjunctions of
/// unsatisfiable branches.
fn unsat(cond: &Expr) -> bool {
    match cond {
        Expr::Const(v) => {
            !matches!(v, Value::Bool(true)) && matches!(v, Value::Bool(_) | Value::Null)
        }
        Expr::And(..) => {
            let mut conjuncts = Vec::new();
            flatten_and(cond, &mut conjuncts);
            if conjuncts.iter().any(|c| unsat(c)) {
                return true;
            }
            constraints_conflict(&conjuncts)
        }
        Expr::Or(l, r) => unsat(l) && unsat(r),
        Expr::Cmp { op, left, right } => {
            // A comparison against literal NULL yields NULL — never TRUE.
            if matches!(&**left, Expr::Const(v) if v.is_null())
                || matches!(&**right, Expr::Const(v) if v.is_null())
            {
                return true;
            }
            if let (Expr::Const(l), Expr::Const(r)) = (&**left, &**right) {
                match l.sql_cmp(r) {
                    None => true,
                    Some(ord) => !cmp_holds(*op, ord),
                }
            } else {
                false
            }
        }
        _ => false,
    }
}

fn cmp_holds(op: mahif_expr::CmpOp, ord: std::cmp::Ordering) -> bool {
    use std::cmp::Ordering::*;
    match op {
        mahif_expr::CmpOp::Eq => ord == Equal,
        mahif_expr::CmpOp::Neq => ord != Equal,
        mahif_expr::CmpOp::Lt => ord == Less,
        mahif_expr::CmpOp::Le => ord != Greater,
        mahif_expr::CmpOp::Gt => ord == Greater,
        mahif_expr::CmpOp::Ge => ord != Less,
    }
}

fn flatten_and<'e>(expr: &'e Expr, out: &mut Vec<&'e Expr>) {
    if let Expr::And(l, r) = expr {
        flatten_and(l, out);
        flatten_and(r, out);
    } else {
        out.push(expr);
    }
}

/// Per-attribute constraint accumulator for [`constraints_conflict`].
#[derive(Default)]
struct AttrConstraints {
    lo: Option<i128>,
    hi: Option<i128>,
    eq: Option<Value>,
    neq: Vec<Value>,
}

impl AttrConstraints {
    fn conflicting(&self) -> bool {
        if let (Some(lo), Some(hi)) = (self.lo, self.hi) {
            if lo > hi {
                return true;
            }
        }
        if let Some(eq) = &self.eq {
            if self.neq.iter().any(|n| n == eq) {
                return true;
            }
            if let Value::Int(i) = eq {
                let i = *i as i128;
                if self.lo.is_some_and(|lo| i < lo) || self.hi.is_some_and(|hi| i > hi) {
                    return true;
                }
            }
        }
        if let (Some(lo), Some(hi)) = (self.lo, self.hi) {
            if lo == hi
                && self
                    .neq
                    .iter()
                    .any(|n| matches!(n, Value::Int(i) if *i as i128 == lo))
            {
                return true;
            }
        }
        false
    }
}

/// Detects conflicts between constant comparisons over the same attribute
/// within one conjunction (`K >= 10 AND K < 10`, `C = 'a' AND C = 'b'`, …).
fn constraints_conflict(conjuncts: &[&Expr]) -> bool {
    use std::collections::BTreeMap;
    let mut by_attr: BTreeMap<&str, AttrConstraints> = BTreeMap::new();
    for conjunct in conjuncts {
        let Expr::Cmp { op, left, right } = conjunct else {
            continue;
        };
        let (attr, value, op) = match (&**left, &**right) {
            (Expr::Attr(a), Expr::Const(v)) => (a.as_str(), v, *op),
            (Expr::Const(v), Expr::Attr(a)) => (a.as_str(), v, op.flipped()),
            _ => continue,
        };
        if value.is_null() {
            // `attr <op> NULL` is never TRUE: the conjunction is vacuous.
            return true;
        }
        let c = by_attr.entry(attr).or_default();
        match (op, value) {
            (mahif_expr::CmpOp::Eq, v) => {
                if c.eq.as_ref().is_some_and(|prev| prev != v) {
                    return true;
                }
                c.eq = Some(v.clone());
            }
            (mahif_expr::CmpOp::Neq, v) => c.neq.push(v.clone()),
            (mahif_expr::CmpOp::Lt, Value::Int(i)) => {
                let bound = *i as i128 - 1;
                c.hi = Some(c.hi.map_or(bound, |h| h.min(bound)));
            }
            (mahif_expr::CmpOp::Le, Value::Int(i)) => {
                let bound = *i as i128;
                c.hi = Some(c.hi.map_or(bound, |h| h.min(bound)));
            }
            (mahif_expr::CmpOp::Gt, Value::Int(i)) => {
                let bound = *i as i128 + 1;
                c.lo = Some(c.lo.map_or(bound, |l| l.max(bound)));
            }
            (mahif_expr::CmpOp::Ge, Value::Int(i)) => {
                let bound = *i as i128;
                c.lo = Some(c.lo.map_or(bound, |l| l.max(bound)));
            }
            _ => continue,
        }
        if c.conflicting() {
            return true;
        }
    }
    false
}

/// True when evaluating the statement's expressions can never fault for
/// well-typed inputs: no arithmetic (division by zero / overflow are value
/// errors the typechecker cannot exclude) and no parameter variables.
pub fn total(statement: &Statement) -> bool {
    match statement {
        Statement::Update { set, cond, .. } => {
            expr_total(cond)
                && set
                    .modified_attributes()
                    .iter()
                    .filter_map(|a| set.expr_for(a))
                    .all(expr_total)
        }
        Statement::Delete { cond, .. } => expr_total(cond),
        Statement::InsertValues { .. } => true,
        Statement::InsertQuery { .. } => false,
    }
}

fn expr_total(expr: &Expr) -> bool {
    match expr {
        Expr::Arith { .. } | Expr::Var(_) => false,
        Expr::Attr(_) | Expr::Const(_) => true,
        Expr::Cmp { left, right, .. } => expr_total(left) && expr_total(right),
        Expr::And(l, r) | Expr::Or(l, r) => expr_total(l) && expr_total(r),
        Expr::Not(e) | Expr::IsNull(e) => expr_total(e),
        Expr::IfThenElse {
            cond,
            then_branch,
            else_branch,
        } => expr_total(cond) && expr_total(then_branch) && expr_total(else_branch),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mahif_expr::builder::*;
    use mahif_history::statement::{running_example_database, running_example_history};
    use mahif_history::SetClause;

    fn fee_history() -> (Database, History) {
        // ShippingFee is written at 0, never read in between, and
        // unconditionally overwritten at 2 — statement 0 is shadowed.
        let db = running_example_database();
        let history = History::new(vec![
            Statement::update(
                "Order",
                SetClause::single("ShippingFee", lit(1)),
                ge(attr("Price"), lit(50)),
            ),
            Statement::update(
                "Order",
                SetClause::single("Price", lit(100)),
                eq(attr("Country"), slit("UK")),
            ),
            Statement::update(
                "Order",
                SetClause::single("ShippingFee", lit(0)),
                Expr::true_(),
            ),
        ]);
        (db, history)
    }

    #[test]
    fn vacuity_detection() {
        assert!(vacuous(&Statement::no_op("R")));
        assert!(vacuous(&Statement::delete(
            "R",
            and(ge(attr("K"), lit(10)), lt(attr("K"), lit(10))),
        )));
        assert!(vacuous(&Statement::delete(
            "R",
            and(eq(attr("C"), slit("a")), eq(attr("C"), slit("b"))),
        )));
        assert!(vacuous(&Statement::delete("R", eq(attr("K"), null()))));
        assert!(vacuous(&Statement::delete("R", lt(lit(2), lit(1)))));
        // Satisfiable intervals and plain conditions are not vacuous.
        assert!(!vacuous(&Statement::delete(
            "R",
            and(ge(attr("K"), lit(1000)), lt(attr("K"), lit(1001))),
        )));
        assert!(!vacuous(&Statement::delete("R", ge(attr("K"), lit(0)))));
        // OR needs both branches unsatisfiable.
        assert!(vacuous(&Statement::delete(
            "R",
            or(Expr::false_(), lt(lit(2), lit(1))),
        )));
        assert!(!vacuous(&Statement::delete(
            "R",
            or(Expr::false_(), ge(attr("K"), lit(0))),
        )));
    }

    #[test]
    fn totality_excludes_arithmetic_and_vars() {
        assert!(total(&Statement::delete("R", ge(attr("K"), lit(0)))));
        assert!(!total(&Statement::delete(
            "R",
            ge(add(attr("K"), lit(1)), lit(0)),
        )));
        assert!(!total(&Statement::delete("R", ge(var("x"), lit(0)))));
        assert!(total(&Statement::update(
            "R",
            SetClause::single("V", lit(3)),
            Expr::true_(),
        )));
    }

    #[test]
    fn running_example_statements_are_live() {
        let db = running_example_database();
        let history = History::new(running_example_history());
        let analysis = HistoryAnalysis::build(&db, &history);
        for p in 0..history.len() {
            assert_eq!(analysis.liveness(p), Some(Liveness::Live), "statement {p}");
        }
        // u2 computes from ShippingFee written by u1: a def-use edge 0 → 1.
        assert!(analysis.dependencies(1).contains(&0));
        assert!(analysis.dead_statements().is_empty());
    }

    #[test]
    fn shadowed_statement_is_detected_and_replacements_prove_noop() {
        let (db, history) = fee_history();
        let analysis = HistoryAnalysis::build(&db, &history);
        assert_eq!(analysis.liveness(0), Some(Liveness::Shadowed));
        assert_eq!(analysis.liveness(2), Some(Liveness::Live));

        // Replacing the shadowed fee-write with another fee-write is
        // provably a no-op …
        let replacement = Statement::update(
            "Order",
            SetClause::single("ShippingFee", lit(2)),
            ge(attr("Price"), lit(60)),
        );
        let mods = ModificationSet::single_replace(0, replacement);
        analysis.validate(&mods).unwrap();
        assert!(analysis.prove_noop(&mods));

        // … and so are deleting it or inserting another one.
        assert!(analysis.prove_noop(&ModificationSet::new(vec![Modification::delete(0)])));
        let inserted = Statement::update(
            "Order",
            SetClause::single("ShippingFee", lit(9)),
            eq(attr("Country"), slit("US")),
        );
        assert!(
            analysis.prove_noop(&ModificationSet::new(vec![Modification::insert(
                1, inserted
            )]))
        );

        // Replacing the *covering* statement is not provable (its writes
        // escape).
        let live = Statement::update(
            "Order",
            SetClause::single("ShippingFee", lit(7)),
            Expr::true_(),
        );
        assert!(!analysis.prove_noop(&ModificationSet::single_replace(2, live)));
    }

    #[test]
    fn identity_and_vacuous_replacements_prove_noop() {
        let db = running_example_database();
        let history = History::new(running_example_history());
        let analysis = HistoryAnalysis::build(&db, &history);
        let identity = ModificationSet::single_replace(0, history.statements()[0].clone());
        assert!(analysis.prove_noop(&identity));
        // Replacing a live statement with a vacuous one is NOT a no-op (the
        // old effect escapes) …
        let vacuous_new = Statement::no_op("Order");
        assert!(!analysis.prove_noop(&ModificationSet::single_replace(0, vacuous_new.clone())));
        // … but inserting a vacuous statement is.
        assert!(
            analysis.prove_noop(&ModificationSet::new(vec![Modification::insert(
                1,
                vacuous_new
            )]))
        );
        // The empty modification set is deliberately not claimed.
        assert!(!analysis.prove_noop(&ModificationSet::new(vec![])));
        // u1 is read downstream (u2/u3 read ShippingFee): not provable.
        let u1_prime = Statement::update(
            "Order",
            SetClause::single("ShippingFee", lit(0)),
            ge(attr("Price"), lit(60)),
        );
        assert!(!analysis.prove_noop(&ModificationSet::single_replace(0, u1_prime)));
    }

    #[test]
    fn validation_rejects_malformed_scenarios() {
        let db = running_example_database();
        let history = History::new(running_example_history());
        let analysis = HistoryAnalysis::build(&db, &history);

        // Unknown attribute in a predicate.
        let bad = Statement::update(
            "Order",
            SetClause::single("ShippingFee", lit(0)),
            ge(attr("Freight"), lit(50)),
        );
        let err = analysis
            .validate(&ModificationSet::single_replace(0, bad))
            .unwrap_err();
        assert_eq!(err.attribute(), Some("Freight"));

        // Unknown relation.
        let bad = Statement::delete("Orders", Expr::true_());
        assert!(matches!(
            analysis
                .validate(&ModificationSet::single_replace(0, bad))
                .unwrap_err(),
            AnalysisError::UnknownRelation { .. }
        ));

        // Type-mismatched predicate: arithmetic over the TEXT attribute.
        let bad = Statement::delete("Order", ge(add(attr("Country"), lit(1)), lit(0)));
        assert!(matches!(
            analysis
                .validate(&ModificationSet::single_replace(0, bad))
                .unwrap_err(),
            AnalysisError::TypeMismatch { .. }
        ));

        // Unbound parameter variable (malformed substitution).
        let bad = Statement::delete("Order", ge(var("threshold"), lit(0)));
        assert!(matches!(
            analysis
                .validate(&ModificationSet::single_replace(0, bad))
                .unwrap_err(),
            AnalysisError::UnboundVariable { .. }
        ));

        // Out-of-bounds position, sequential semantics (delete shrinks the
        // chain, so a later position may overflow).
        let mods = ModificationSet::new(vec![
            Modification::delete(0),
            Modification::delete(history.len() - 1),
        ]);
        assert!(matches!(
            analysis.validate(&mods).unwrap_err(),
            AnalysisError::PositionOutOfBounds { .. }
        ));

        // A well-formed scenario passes.
        let good = Statement::update(
            "Order",
            SetClause::single("ShippingFee", lit(0)),
            ge(attr("Price"), lit(60)),
        );
        analysis
            .validate(&ModificationSet::single_replace(0, good))
            .unwrap();
    }

    #[test]
    fn sequential_positions_are_simulated() {
        let db = running_example_database();
        let history = History::new(running_example_history());
        let analysis = HistoryAnalysis::build(&db, &history);
        // Insert at the end, then replace the inserted statement: position
        // len() is valid only after the insert.
        let inserted = Statement::delete("Order", Expr::false_());
        let mods = ModificationSet::new(vec![
            Modification::insert(history.len(), inserted.clone()),
            Modification::replace(history.len(), inserted),
        ]);
        analysis.validate(&mods).unwrap();
        // Both modifications are vacuous: provably a no-op.
        assert!(analysis.prove_noop(&mods));
    }
}
