//! Exact branch-and-prune satisfiability search over finite domains.
//!
//! The solver explores boxes (cartesian products of sub-domains of the base
//! variables). For each box it abstractly evaluates the definitions and the
//! condition ([`crate::interval`]):
//!
//! * abstract value `False`  → the whole box is unsatisfiable, prune;
//! * abstract value `True`   → pick any point of the box, verify it by exact
//!   evaluation and report it as the satisfying assignment;
//! * abstract value `Unknown`→ split the box along the widest variable and
//!   recurse; boxes that shrink to a single point are decided by exact
//!   evaluation.
//!
//! Because pruning only happens when the abstract evaluation *proves* the
//! condition false for every point, and every SAT answer is re-checked by
//! exact evaluation, the result is sound in both directions. The search is
//! complete for finite domains unless the node budget is exhausted, in which
//! case [`SatResult::Unknown`] is returned.

use std::collections::BTreeMap;
use std::sync::Arc;

use mahif_expr::{eval_condition, eval_expr, MapBindings, Value};

use crate::domain::{dependency_cone, Assignment, Domain, SatProblem, SatResult};
use crate::interval::{abstract_eval, AbstractValue, Bool3, IntInterval};

/// Resource limits and tunables for the search.
#[derive(Debug, Clone)]
pub struct SearchConfig {
    /// Maximum number of explored boxes before giving up with
    /// [`SatResult::Unknown`].
    pub max_nodes: usize,
    /// Number of sampled corner/random points tried before the search starts
    /// (a cheap way to find satisfying assignments early).
    pub max_samples: usize,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            max_nodes: 20_000,
            max_samples: 64,
        }
    }
}

/// The satisfiability solver.
#[derive(Debug, Clone, Default)]
pub struct Solver {
    config: SearchConfig,
}

/// One variable's sub-domain inside a box.
#[derive(Debug, Clone)]
enum BoxDomain {
    Range(i64, i64),
    IntChoices(Vec<i64>),
    StrChoices(Vec<Arc<str>>),
}

impl BoxDomain {
    fn from_domain(d: &Domain) -> BoxDomain {
        match d {
            Domain::IntRange(lo, hi) => BoxDomain::Range(*lo, *hi),
            Domain::IntChoices(v) => {
                let mut v = v.clone();
                v.sort_unstable();
                v.dedup();
                BoxDomain::IntChoices(v)
            }
            Domain::StrChoices(v) => {
                BoxDomain::StrChoices(v.iter().map(|s| Arc::from(s.as_str())).collect())
            }
        }
    }

    fn size(&self) -> u64 {
        match self {
            BoxDomain::Range(lo, hi) => (*hi as i128 - *lo as i128 + 1).max(0) as u64,
            BoxDomain::IntChoices(v) => v.len() as u64,
            BoxDomain::StrChoices(v) => v.len() as u64,
        }
    }

    fn abstract_value(&self) -> AbstractValue {
        match self {
            BoxDomain::Range(lo, hi) => AbstractValue::Int(IntInterval::new(*lo, *hi)),
            BoxDomain::IntChoices(v) => {
                AbstractValue::Int(IntInterval::new(v[0], *v.last().unwrap()))
            }
            BoxDomain::StrChoices(v) => AbstractValue::Str(v.iter().cloned().collect()),
        }
    }

    /// A representative point (used to turn "definitely true" boxes into a
    /// concrete witness).
    fn sample_point(&self) -> Value {
        match self {
            BoxDomain::Range(lo, hi) => Value::Int(lo + (hi - lo) / 2),
            BoxDomain::IntChoices(v) => Value::Int(v[v.len() / 2]),
            BoxDomain::StrChoices(v) => Value::Str(v[v.len() / 2].clone()),
        }
    }

    /// Corner points used by the sampling phase.
    fn corner_points(&self) -> Vec<Value> {
        match self {
            BoxDomain::Range(lo, hi) => {
                let mut pts = vec![*lo, *hi, lo + (hi - lo) / 2];
                pts.sort_unstable();
                pts.dedup();
                pts.into_iter().map(Value::Int).collect()
            }
            BoxDomain::IntChoices(v) => {
                let mut pts = vec![v[0], *v.last().unwrap(), v[v.len() / 2]];
                pts.sort_unstable();
                pts.dedup();
                pts.into_iter().map(Value::Int).collect()
            }
            BoxDomain::StrChoices(v) => v.iter().map(|s| Value::Str(s.clone())).collect(),
        }
    }

    /// Splits the domain into two halves; `None` when it cannot be split
    /// (size ≤ 1).
    fn split(&self) -> Option<(BoxDomain, BoxDomain)> {
        match self {
            BoxDomain::Range(lo, hi) => {
                if lo >= hi {
                    None
                } else {
                    let mid = lo + (hi - lo) / 2;
                    Some((BoxDomain::Range(*lo, mid), BoxDomain::Range(mid + 1, *hi)))
                }
            }
            BoxDomain::IntChoices(v) => {
                if v.len() <= 1 {
                    None
                } else {
                    let mid = v.len() / 2;
                    Some((
                        BoxDomain::IntChoices(v[..mid].to_vec()),
                        BoxDomain::IntChoices(v[mid..].to_vec()),
                    ))
                }
            }
            BoxDomain::StrChoices(v) => {
                if v.len() <= 1 {
                    None
                } else {
                    let mid = v.len() / 2;
                    Some((
                        BoxDomain::StrChoices(v[..mid].to_vec()),
                        BoxDomain::StrChoices(v[mid..].to_vec()),
                    ))
                }
            }
        }
    }
}

impl Solver {
    /// Creates a solver with the default configuration.
    pub fn new() -> Self {
        Solver::default()
    }

    /// Creates a solver with a custom configuration.
    pub fn with_config(config: SearchConfig) -> Self {
        Solver { config }
    }

    /// Checks satisfiability of `problem`.
    pub fn check(&self, problem: &SatProblem) -> SatResult {
        // Degenerate cases.
        if problem.base.iter().any(|(_, d)| d.is_empty()) {
            return SatResult::Unsat;
        }
        if problem.condition.is_false() {
            return SatResult::Unsat;
        }

        let names: Vec<String> = problem.base.iter().map(|(n, _)| n.clone()).collect();
        let root: Vec<BoxDomain> = problem
            .base
            .iter()
            .map(|(_, d)| BoxDomain::from_domain(d))
            .collect();

        // Keep only the condition's dependency cone: dropping unused
        // definitions keeps their variables out of the relevance set below
        // (so the search never splits on them) and avoids evaluating them per
        // explored box.
        let (cone, needed_vars) = dependency_cone(&problem.condition, &problem.definitions);
        let problem = SatProblem {
            base: problem.base.clone(),
            definitions: cone.into_iter().cloned().collect(),
            condition: problem.condition.clone(),
        };
        let problem = &problem;

        // Variables that actually occur in the condition or in a needed
        // definition: only these can change the verdict, so only these are
        // worth sampling over and splitting on.
        let relevant: Vec<bool> = names.iter().map(|n| needed_vars.contains(n)).collect();

        // Phase 1: corner sampling — cheap SAT fast path.
        if let Some(assignment) = self.sample(problem, &names, &root, &relevant) {
            return SatResult::Sat(assignment);
        }

        // Phase 2: branch and prune.
        let mut budget = self.config.max_nodes;
        let mut hit_budget = false;
        let mut stack = vec![root];
        while let Some(current) = stack.pop() {
            if budget == 0 {
                hit_budget = true;
                break;
            }
            budget -= 1;
            match self.evaluate_box(problem, &names, &current) {
                BoxVerdict::AllFalse => continue,
                BoxVerdict::Witness(assignment) => return SatResult::Sat(assignment),
                BoxVerdict::Undecided => {
                    // Split along the largest *relevant* dimension; splitting
                    // variables the formula never mentions cannot change the
                    // verdict and would blow up the search tree.
                    let split_idx = current
                        .iter()
                        .enumerate()
                        .filter(|(i, d)| relevant[*i] && d.size() > 1)
                        .max_by_key(|(_, d)| d.size())
                        .map(|(i, _)| i);
                    match split_idx.and_then(|idx| current[idx].split().map(|s| (idx, s))) {
                        Some((idx, (left, right))) => {
                            let mut a = current.clone();
                            a[idx] = left;
                            let mut b = current;
                            b[idx] = right;
                            stack.push(a);
                            stack.push(b);
                        }
                        None => {
                            // Every relevant dimension is a single point, so
                            // the condition has the same value on the whole
                            // box; the exact evaluation of the sample point
                            // (already performed in evaluate_box) said false,
                            // so the box is exhausted.
                            continue;
                        }
                    }
                }
            }
        }

        if hit_budget {
            SatResult::Unknown
        } else {
            SatResult::Unsat
        }
    }

    /// Convenience: `check` returning `true` only when satisfiability was
    /// proved.
    pub fn is_satisfiable(&self, problem: &SatProblem) -> bool {
        self.check(problem).is_sat()
    }

    fn sample(
        &self,
        problem: &SatProblem,
        names: &[String],
        root: &[BoxDomain],
        relevant: &[bool],
    ) -> Option<Assignment> {
        // Corner combinations only vary over relevant variables; irrelevant
        // ones are pinned to a representative point so the sampling budget is
        // spent where it matters.
        let corner_sets: Vec<Vec<Value>> = root
            .iter()
            .enumerate()
            .map(|(i, d)| {
                if relevant[i] {
                    d.corner_points()
                } else {
                    vec![d.sample_point()]
                }
            })
            .collect();
        let mut tried = 0usize;
        let mut indices = vec![0usize; corner_sets.len()];
        loop {
            if tried >= self.config.max_samples {
                return None;
            }
            tried += 1;
            let point: Vec<Value> = indices
                .iter()
                .zip(&corner_sets)
                .map(|(i, set)| set[*i % set.len()].clone())
                .collect();
            if let Some(assignment) = self.verify_point(problem, names, &point) {
                return Some(assignment);
            }
            // Advance the mixed-radix counter.
            let mut carry = true;
            for (i, set) in indices.iter_mut().zip(&corner_sets) {
                if !carry {
                    break;
                }
                *i += 1;
                if *i >= set.len() {
                    *i = 0;
                } else {
                    carry = false;
                }
            }
            if carry {
                // Exhausted all corner combinations.
                return None;
            }
        }
    }

    /// Exactly evaluates the definitions and the condition at a concrete
    /// point; returns the full assignment when the condition holds.
    fn verify_point(
        &self,
        problem: &SatProblem,
        names: &[String],
        point: &[Value],
    ) -> Option<Assignment> {
        let mut bindings = MapBindings::new();
        let mut assignment = Assignment::new();
        for (name, value) in names.iter().zip(point) {
            bindings.set_var(name.clone(), value.clone());
            assignment.set(name.clone(), value.clone());
        }
        for (name, expr) in &problem.definitions {
            let value = eval_expr(expr, &bindings).ok()?;
            bindings.set_var(name.clone(), value.clone());
            assignment.set(name.clone(), value);
        }
        match eval_condition(&problem.condition, &bindings) {
            Ok(true) => Some(assignment),
            _ => None,
        }
    }

    fn evaluate_box(
        &self,
        problem: &SatProblem,
        names: &[String],
        current: &[BoxDomain],
    ) -> BoxVerdict {
        let mut env: BTreeMap<String, AbstractValue> = BTreeMap::new();
        for (name, dom) in names.iter().zip(current) {
            env.insert(name.clone(), dom.abstract_value());
        }
        for (name, expr) in &problem.definitions {
            let value = abstract_eval(expr, &env);
            env.insert(name.clone(), value);
        }
        match abstract_eval(&problem.condition, &env).as_condition() {
            Bool3::False => BoxVerdict::AllFalse,
            Bool3::True | Bool3::Unknown => {
                // Try the representative point; if the box is a single point
                // this decides it, otherwise a failure means we must split
                // (unless abstract evaluation already said True, in which
                // case some point of the box satisfies the condition but the
                // sample may still fail if the abstract True relied on hull
                // precision — splitting remains sound either way).
                let point: Vec<Value> = current.iter().map(|d| d.sample_point()).collect();
                if let Some(assignment) = self.verify_point(problem, names, &point) {
                    return BoxVerdict::Witness(assignment);
                }
                let is_single_point = current.iter().all(|d| d.size() <= 1);
                if is_single_point {
                    BoxVerdict::AllFalse
                } else {
                    BoxVerdict::Undecided
                }
            }
        }
    }
}

enum BoxVerdict {
    AllFalse,
    Witness(Assignment),
    Undecided,
}

#[cfg(test)]
mod tests {
    use super::*;
    use mahif_expr::builder::*;
    use mahif_expr::Expr;

    fn int_var(name: &str, lo: i64, hi: i64) -> (String, Domain) {
        (name.to_string(), Domain::IntRange(lo, hi))
    }

    #[test]
    fn trivially_true_and_false() {
        let solver = Solver::new();
        let p = SatProblem::new(vec![int_var("x", 0, 10)], Expr::true_());
        assert!(solver.check(&p).is_sat());
        let p = SatProblem::new(vec![int_var("x", 0, 10)], Expr::false_());
        assert!(solver.check(&p).is_unsat());
    }

    #[test]
    fn empty_domain_is_unsat() {
        let solver = Solver::new();
        let p = SatProblem::new(vec![("x".into(), Domain::IntRange(5, 1))], Expr::true_());
        assert!(solver.check(&p).is_unsat());
    }

    #[test]
    fn simple_range_satisfiability() {
        let solver = Solver::new();
        // x in [0, 100], x >= 40 ∧ x <= 60 is satisfiable.
        let p = SatProblem::new(
            vec![int_var("x", 0, 100)],
            and(ge(var("x"), lit(40)), le(var("x"), lit(60))),
        );
        let SatResult::Sat(a) = solver.check(&p) else {
            panic!("expected SAT");
        };
        let x = a.get("x").unwrap().as_int().unwrap();
        assert!((40..=60).contains(&x));

        // x >= 200 is unsatisfiable within [0, 100].
        let p = SatProblem::new(vec![int_var("x", 0, 100)], ge(var("x"), lit(200)));
        assert!(solver.check(&p).is_unsat());
    }

    #[test]
    fn narrow_equality_needs_splitting() {
        let solver = Solver::new();
        // Only x = 777 satisfies; corner sampling will miss it, the
        // branch-and-prune must find it.
        let p = SatProblem::new(vec![int_var("x", 0, 1_000_000)], eq(var("x"), lit(777)));
        let SatResult::Sat(a) = solver.check(&p) else {
            panic!("expected SAT");
        };
        assert_eq!(a.get("x").unwrap().as_int(), Some(777));
    }

    #[test]
    fn unsat_conjunction_over_large_domain() {
        let solver = Solver::new();
        // x < 100 ∧ x > 200 over a large range: must prove UNSAT quickly via
        // interval pruning, not enumeration.
        let p = SatProblem::new(
            vec![int_var("x", -1_000_000, 1_000_000)],
            and(lt(var("x"), lit(100)), gt(var("x"), lit(200))),
        );
        assert!(solver.check(&p).is_unsat());
    }

    #[test]
    fn definitions_are_used() {
        let solver = Solver::new();
        // y := if x >= 50 then 0 else x + 5; condition y >= 60 is
        // unsatisfiable for x in [0, 100]: when x >= 50, y = 0; otherwise
        // y <= 54 + 5 < 60... actually x <= 49 → y <= 54.
        let mut p = SatProblem::new(vec![int_var("x", 0, 100)], ge(var("y"), lit(60)));
        p.define(
            "y",
            ite(ge(var("x"), lit(50)), lit(0), add(var("x"), lit(5))),
        );
        assert!(solver.check(&p).is_unsat());

        // y >= 50 is satisfiable (x = 45..49 gives y = 50..54).
        let mut p = SatProblem::new(vec![int_var("x", 0, 100)], ge(var("y"), lit(50)));
        p.define(
            "y",
            ite(ge(var("x"), lit(50)), lit(0), add(var("x"), lit(5))),
        );
        let SatResult::Sat(a) = solver.check(&p) else {
            panic!("expected SAT");
        };
        let x = a.get("x").unwrap().as_int().unwrap();
        assert!((45..=49).contains(&x));
        // The derived variable is part of the reported assignment.
        assert!(a.get("y").unwrap().as_int().unwrap() >= 50);
    }

    #[test]
    fn string_domains() {
        let solver = Solver::new();
        let base = vec![
            (
                "c".to_string(),
                Domain::StrChoices(vec!["UK".into(), "US".into(), "DE".into()]),
            ),
            int_var("p", 0, 100),
        ];
        // c = 'UK' ∧ p >= 90 is satisfiable.
        let p1 = SatProblem::new(
            base.clone(),
            and(eq(var("c"), slit("UK")), ge(var("p"), lit(90))),
        );
        assert!(solver.check(&p1).is_sat());
        // c = 'FR' is unsatisfiable.
        let p2 = SatProblem::new(base, eq(var("c"), slit("FR")));
        assert!(solver.check(&p2).is_unsat());
    }

    #[test]
    fn int_choice_domains() {
        let solver = Solver::new();
        let base = vec![("x".to_string(), Domain::IntChoices(vec![2, 4, 8, 16]))];
        // x = 8 is satisfiable, x = 9 is not (9 is inside the hull but not a
        // choice — the solver must not report it).
        let p1 = SatProblem::new(base.clone(), eq(var("x"), lit(8)));
        assert!(solver.check(&p1).is_sat());
        let p2 = SatProblem::new(base, eq(var("x"), lit(9)));
        assert!(solver.check(&p2).is_unsat());
    }

    #[test]
    fn running_example_dependency_is_found() {
        // Example 9 of the paper: is there a tuple modified by both u1
        // (Price >= 50, sets fee to 0) and u2 (Country = UK ∧ Price <= 100,
        // adds 5 to the fee after u1)? Yes, e.g. (UK, 50, 5).
        let solver = Solver::new();
        let mut p = SatProblem::new(
            vec![
                (
                    "x_Country_0".to_string(),
                    Domain::StrChoices(vec!["UK".into(), "US".into()]),
                ),
                int_var("x_Price_0", 20, 60),
                int_var("x_ShippingFee_0", 3, 5),
            ],
            and(
                ge(var("x_Price_0"), lit(50)),
                and(
                    eq(var("x_Country_0"), slit("UK")),
                    le(var("x_Price_0"), lit(100)),
                ),
            ),
        );
        p.define(
            "x_ShippingFee_1",
            ite(
                ge(var("x_Price_0"), lit(50)),
                lit(0),
                var("x_ShippingFee_0"),
            ),
        );
        let SatResult::Sat(a) = solver.check(&p) else {
            panic!("expected SAT");
        };
        assert_eq!(a.get("x_Country_0").unwrap().as_str(), Some("UK"));
        assert!(a.get("x_Price_0").unwrap().as_int().unwrap() >= 50);
    }

    #[test]
    fn budget_exhaustion_returns_unknown() {
        let solver = Solver::with_config(SearchConfig {
            max_nodes: 1,
            max_samples: 0,
        });
        // A condition that needs splitting to decide but with no budget.
        let p = SatProblem::new(
            vec![int_var("x", 0, 1_000_000), int_var("y", 0, 1_000_000)],
            eq(add(var("x"), var("y")), lit(999_999)),
        );
        assert_eq!(solver.check(&p), SatResult::Unknown);
    }

    #[test]
    fn two_variable_diagonal_constraint() {
        let solver = Solver::new();
        // x + y = 150 with x, y in [0, 100]: satisfiable.
        let p = SatProblem::new(
            vec![int_var("x", 0, 100), int_var("y", 0, 100)],
            eq(add(var("x"), var("y")), lit(150)),
        );
        assert!(solver.check(&p).is_sat());
        // x + y = 500: unsatisfiable.
        let p = SatProblem::new(
            vec![int_var("x", 0, 100), int_var("y", 0, 100)],
            eq(add(var("x"), var("y")), lit(500)),
        );
        assert!(solver.check(&p).is_unsat());
    }
}
