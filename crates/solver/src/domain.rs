//! Problem statement handed to the solver: base variable domains, derived
//! variable definitions and the condition to check.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use mahif_expr::{Bindings, Expr, Value};

/// The domain of a base variable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Domain {
    /// A bounded integer range `[lo, hi]` (inclusive).
    IntRange(i64, i64),
    /// An explicit set of integer values.
    IntChoices(Vec<i64>),
    /// An explicit set of string values (categorical attribute).
    StrChoices(Vec<String>),
}

impl Domain {
    /// Number of values in the domain (saturating).
    pub fn size(&self) -> u64 {
        match self {
            Domain::IntRange(lo, hi) => {
                if hi < lo {
                    0
                } else {
                    (hi - lo) as u64 + 1
                }
            }
            Domain::IntChoices(v) => v.len() as u64,
            Domain::StrChoices(v) => v.len() as u64,
        }
    }

    /// True when the domain contains no value.
    pub fn is_empty(&self) -> bool {
        self.size() == 0
    }
}

impl fmt::Display for Domain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Domain::IntRange(lo, hi) => write!(f, "[{lo}, {hi}]"),
            Domain::IntChoices(v) => write!(f, "{v:?}"),
            Domain::StrChoices(v) => write!(f, "{v:?}"),
        }
    }
}

/// A satisfiability problem over symbolic variables.
///
/// * `base` — variables with finite domains (the `x_<attr>_0` of the
///   single-tuple VC-database, constrained by the compression Φ_D);
/// * `definitions` — derived variables in dependency order; each definition
///   `(name, expr)` introduces `name := expr` where `expr` references only
///   base variables and previously defined variables (these come from the
///   VC-table global condition, Definition 6);
/// * `condition` — the quantifier-free condition to test; may reference base
///   and defined variables.
#[derive(Debug, Clone)]
pub struct SatProblem {
    /// Base variables and their domains.
    pub base: Vec<(String, Domain)>,
    /// Derived variable definitions in dependency order.
    pub definitions: Vec<(String, Expr)>,
    /// The condition whose satisfiability is tested.
    pub condition: Expr,
}

impl SatProblem {
    /// Creates a problem testing `condition` over the given base domains with
    /// no derived variables.
    pub fn new(base: Vec<(String, Domain)>, condition: Expr) -> Self {
        SatProblem {
            base,
            definitions: Vec::new(),
            condition,
        }
    }

    /// Adds a derived-variable definition.
    pub fn define(&mut self, name: impl Into<String>, expr: Expr) {
        self.definitions.push((name.into(), expr));
    }

    /// Product of the base domain sizes (saturating) — the size of the space
    /// an exhaustive search would have to cover.
    pub fn search_space(&self) -> u64 {
        self.base
            .iter()
            .map(|(_, d)| d.size())
            .fold(1u64, |acc, s| acc.saturating_mul(s))
    }
}

/// The *dependency cone* of `condition`: the definitions it transitively
/// reads, in their original (dependency) order, and every variable read along
/// the way, base variables included.
///
/// Problems built from symbolic execution carry the full variable chains of
/// every history that was run, but a dependency check usually mentions only a
/// few attributes. A definition outside the cone cannot change the
/// condition's value, so evaluating — or searching over — only the cone gives
/// the same verdict, and a definition that fails to evaluate outside the cone
/// cannot veto a point that satisfies the condition.
pub fn dependency_cone<'a>(
    condition: &Expr,
    definitions: &'a [(String, Expr)],
) -> (Vec<&'a (String, Expr)>, BTreeSet<String>) {
    let mut vars = condition.vars();
    let mut keep = vec![false; definitions.len()];
    for (k, (name, expr)) in definitions.iter().enumerate().rev() {
        if vars.contains(name) {
            keep[k] = true;
            vars.extend(expr.vars());
        }
    }
    let cone = definitions
        .iter()
        .zip(keep)
        .filter_map(|(definition, k)| k.then_some(definition))
        .collect();
    (cone, vars)
}

/// The result of a satisfiability check.
#[derive(Debug, Clone, PartialEq)]
pub enum SatResult {
    /// A verified satisfying assignment of the base variables.
    Sat(Assignment),
    /// The condition is unsatisfiable over the given domains.
    Unsat,
    /// The solver hit a resource limit; callers must treat this
    /// conservatively.
    Unknown,
}

impl SatResult {
    /// True when the result is [`SatResult::Sat`].
    pub fn is_sat(&self) -> bool {
        matches!(self, SatResult::Sat(_))
    }

    /// True when the result is [`SatResult::Unsat`].
    pub fn is_unsat(&self) -> bool {
        matches!(self, SatResult::Unsat)
    }
}

/// A concrete assignment of values to base variables (and, after evaluation
/// of the definitions, derived variables).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Assignment {
    values: BTreeMap<String, Value>,
}

impl Assignment {
    /// Empty assignment.
    pub fn new() -> Self {
        Assignment::default()
    }

    /// Sets a variable.
    pub fn set(&mut self, name: impl Into<String>, value: Value) {
        self.values.insert(name.into(), value);
    }

    /// Gets a variable value.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.values.get(name)
    }

    /// Iterates over `(name, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &Value)> {
        self.values.iter()
    }

    /// Number of assigned variables.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when no variable is assigned.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

impl Bindings for Assignment {
    fn attr(&self, _name: &str) -> Option<Value> {
        None
    }

    fn var(&self, name: &str) -> Option<Value> {
        self.values.get(name).cloned()
    }
}

impl fmt::Display for Assignment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (k, v)) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{k} = {v}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mahif_expr::builder::*;

    #[test]
    fn domain_sizes() {
        assert_eq!(Domain::IntRange(1, 5).size(), 5);
        assert_eq!(Domain::IntRange(5, 1).size(), 0);
        assert!(Domain::IntRange(5, 1).is_empty());
        assert_eq!(Domain::IntChoices(vec![1, 7]).size(), 2);
        assert_eq!(Domain::StrChoices(vec!["UK".into(), "US".into()]).size(), 2);
        assert!(Domain::IntRange(0, 3).to_string().contains("[0, 3]"));
    }

    #[test]
    fn problem_construction_and_search_space() {
        let mut p = SatProblem::new(
            vec![
                ("x".into(), Domain::IntRange(0, 9)),
                (
                    "c".into(),
                    Domain::StrChoices(vec!["UK".into(), "US".into()]),
                ),
            ],
            ge(var("x"), lit(5)),
        );
        p.define("y", add(var("x"), lit(1)));
        assert_eq!(p.search_space(), 20);
        assert_eq!(p.definitions.len(), 1);
    }

    #[test]
    fn dependency_cone_keeps_only_what_the_condition_reads() {
        let definitions = vec![
            ("y".to_string(), add(var("x"), lit(1))),
            ("z".to_string(), div(var("w"), lit(0))),
            ("u".to_string(), mul(var("y"), lit(2))),
        ];
        let (cone, vars) = dependency_cone(&ge(var("u"), lit(4)), &definitions);
        let names: Vec<&str> = cone.iter().map(|(name, _)| name.as_str()).collect();
        assert_eq!(names, ["y", "u"]);
        assert!(vars.contains("x") && vars.contains("y") && !vars.contains("w"));
    }

    #[test]
    fn assignment_bindings() {
        let mut a = Assignment::new();
        a.set("x", Value::int(7));
        a.set("c", Value::str("UK"));
        assert_eq!(a.get("x"), Some(&Value::int(7)));
        assert_eq!(a.len(), 2);
        assert!(!a.is_empty());
        assert!(a.to_string().contains("x = 7"));
        // Assignment binds variables, not attributes.
        use mahif_expr::Bindings;
        assert_eq!(a.var("x"), Some(Value::int(7)));
        assert_eq!(a.attr("x"), None);
    }

    #[test]
    fn sat_result_helpers() {
        assert!(SatResult::Sat(Assignment::new()).is_sat());
        assert!(SatResult::Unsat.is_unsat());
        assert!(!SatResult::Unknown.is_sat());
        assert!(!SatResult::Unknown.is_unsat());
    }
}
