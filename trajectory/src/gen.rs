//! Seeded input generation: datasets, histories, request bodies and, for
//! every request, the answer the server is expected to give.
//!
//! Everything here runs before timing starts; the server later sees only
//! bytes. The same `--seed` yields the same datasets, the same bodies in
//! the same order and the same draws.

use std::sync::atomic::AtomicUsize;
use std::sync::Arc;

use mahif_expr::{ArithOp, DataType, Expr, Value};
use mahif_history::{Modification, ModificationSet, SetClause, Statement};
use mahif_serve::Json;
use mahif_workload::{Dataset, GeneratedWorkload, WorkloadSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::spec::{HistoryDef, Shape, WorkloadDef};

/// SplitMix64: a stateless mix of `(seed, index)` into 64 well-spread bits,
/// so draw `i` is the same no matter which client thread asks for it.
pub fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Renders a modification set as the wire's 1-based what-if script.
pub fn whatif_script(mods: &ModificationSet) -> String {
    mods.modifications()
        .iter()
        .map(|m| match m {
            Modification::Replace { position, new } => {
                format!("REPLACE STATEMENT {} WITH {new}", position + 1)
            }
            Modification::Insert { position, new } => {
                format!("INSERT STATEMENT AT {} {new}", position + 1)
            }
            Modification::Delete { position } => format!("DROP STATEMENT {}", position + 1),
        })
        .collect::<Vec<_>>()
        .join("; ")
}

/// Renders the dataset + history as a `POST /histories/{name}` body.
pub fn register_body(dataset: &Dataset, workload: &GeneratedWorkload) -> String {
    let relations: Vec<Json> = dataset
        .database
        .iter()
        .map(|(name, relation)| {
            let attributes = relation
                .schema
                .attributes
                .iter()
                .map(|a| {
                    let dtype = match a.dtype {
                        DataType::Int => "int",
                        DataType::Str => "str",
                        DataType::Bool => "bool",
                    };
                    Json::obj([
                        ("name", Json::str(a.name.clone())),
                        ("type", Json::str(dtype)),
                    ])
                })
                .collect();
            let tuples = relation
                .iter()
                .map(|t| {
                    Json::Arr(
                        t.values
                            .iter()
                            .map(|v| match v {
                                Value::Int(i) => Json::Int(*i),
                                Value::Str(s) => Json::str(s.as_ref()),
                                Value::Bool(b) => Json::Bool(*b),
                                Value::Null => Json::Null,
                            })
                            .collect(),
                    )
                })
                .collect();
            Json::obj([
                ("name", Json::str(name.clone())),
                ("attributes", Json::Arr(attributes)),
                ("tuples", Json::Arr(tuples)),
            ])
        })
        .collect();
    let history = workload
        .history
        .statements()
        .iter()
        .map(|s| Json::str(s.to_string()))
        .collect();
    Json::obj([
        ("relations", Json::Arr(relations)),
        ("history", Json::Arr(history)),
    ])
    .to_string()
}

/// One batch body of named what-if scripts under the default method
/// (`R+PS+DS`); no ablation flag is ever set.
pub fn batch_body(scenarios: &[(String, String)]) -> String {
    let scenarios = scenarios
        .iter()
        .map(|(name, script)| {
            Json::obj([
                ("name", Json::str(name.clone())),
                ("whatif", Json::str(script.clone())),
            ])
        })
        .collect();
    Json::obj([("scenarios", Json::Arr(scenarios))]).to_string()
}

/// The sweep variant of `workload` with adjustment `amount`: the statements
/// the workload's own what-if query replaces, each offset by `amount` —
/// hypotheticals over the same history that differ only in a constant.
/// `variant(w, 5 + v)` is element `v` of `w.sweep_variants(..)`.
pub fn variant(workload: &GeneratedWorkload, amount: i64) -> ModificationSet {
    let mods = workload
        .modifications
        .modifications()
        .iter()
        .filter_map(|m| {
            let Modification::Replace { position, .. } = m else {
                return None;
            };
            let Statement::Update {
                relation,
                set,
                cond,
            } = &workload.history.statements()[*position]
            else {
                return None;
            };
            let ((attr, expr), rest) =
                set.assignments.split_first().map(|(f, r)| (f.clone(), r))?;
            let offset = Expr::Arith {
                op: ArithOp::Add,
                left: Arc::new(expr),
                right: Arc::new(Expr::Const(Value::Int(amount))),
            };
            let mut assignments = vec![(attr, offset)];
            assignments.extend(rest.iter().cloned());
            Some(Modification::replace(
                *position,
                Statement::update(relation.clone(), SetClause::new(assignments), cond.clone()),
            ))
        })
        .collect();
    ModificationSet::new(mods)
}

/// A generated history: the dataset and its transactional history.
pub struct GeneratedHistory {
    pub name: String,
    pub dataset: Dataset,
    pub workload: GeneratedWorkload,
}

impl GeneratedHistory {
    /// The registered data is part of the workload's definition, like its
    /// row count, and the same for every `--seed`: the seed arranges the
    /// requests. (Drawing the rows per seed moved answer sizes by up to 4 %
    /// between seeds on the 300-row workload, which says nothing about the
    /// program.)
    fn generate(def: &HistoryDef) -> GeneratedHistory {
        let dataset = Dataset::generate(def.kind, def.rows, 11);
        let workload = WorkloadSpec::default()
            .with_updates(def.updates)
            .with_dependent_pct(def.dependent_pct)
            .with_affected_pct(def.affected_pct)
            .with_seed(7)
            .generate(&dataset);
        GeneratedHistory {
            name: def.name.to_string(),
            dataset,
            workload,
        }
    }

    /// A k-sweep body over this history from `amounts`.
    fn sweep_body(&self, amounts: &[i64]) -> String {
        let scenarios: Vec<(String, String)> = amounts
            .iter()
            .map(|&a| {
                (
                    format!("adjust+{a}"),
                    whatif_script(&variant(&self.workload, a)),
                )
            })
            .collect();
        batch_body(&scenarios)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepKind {
    Register,
    Batch,
    Delete,
}

/// One HTTP exchange of an operation.
#[derive(Debug, Clone)]
pub struct Step {
    pub kind: StepKind,
    pub history: String,
    pub path: String,
    /// Index into [`Plan::bodies`]; `None` for a body-less `DELETE`.
    pub body: Option<usize>,
    pub expect_status: u16,
    /// Scenarios a correct answer carries (0 for registrations, deletes and
    /// expected rejections).
    pub scenarios: usize,
}

impl Step {
    pub fn method(&self) -> &'static str {
        match self.kind {
            StepKind::Register | StepKind::Batch => "POST",
            StepKind::Delete => "DELETE",
        }
    }

    /// A batch of `k` what-if scripts; a rejection answers none of them.
    pub fn batch(history: &str, body: usize, expect_status: u16, k: usize) -> Step {
        let scenarios = if expect_status == 200 { k } else { 0 };
        Step {
            kind: StepKind::Batch,
            history: history.to_string(),
            path: format!("/histories/{history}/batch"),
            body: Some(body),
            expect_status,
            scenarios,
        }
    }

    fn register(name: &str, body: usize) -> Step {
        Step {
            kind: StepKind::Register,
            history: name.to_string(),
            path: format!("/histories/{name}"),
            body: Some(body),
            expect_status: 201,
            scenarios: 0,
        }
    }

    fn delete(name: &str) -> Step {
        Step {
            kind: StepKind::Delete,
            history: name.to_string(),
            path: format!("/histories/{name}"),
            body: None,
            expect_status: 200,
            scenarios: 0,
        }
    }
}

/// One timed operation: usually a single request; for `register_churn` a
/// register → batch → batch → delete chain timed as a whole.
#[derive(Debug, Clone)]
pub struct Op {
    pub steps: Vec<Step>,
}

/// How operation `i` of a run picks its template.
pub enum Draw {
    /// Operation `i` is template `i`: every request is new.
    Sequential,
    /// Template by inverse CDF over cumulative weights, from `mix(seed, i)`.
    Weighted { seed: u64, cdf: Vec<f64> },
}

/// A generated workload, ready to be timed.
pub struct Plan {
    pub def: &'static WorkloadDef,
    histories: Vec<GeneratedHistory>,
    /// Set-up: one registration per history.
    pub setup: Vec<Step>,
    pub bodies: Vec<String>,
    /// Per body, the answer length learned from its first reply, plus one
    /// (0: not seen yet); see `load::settle`.
    pub learned: Vec<AtomicUsize>,
    pub templates: Vec<Op>,
    pub draw: Draw,
    pub warmup_ops: usize,
    pub timed_ops: usize,
    /// Distinct operations for the untimed oracle check (at least eight
    /// distinct batch requests).
    pub check: Vec<Op>,
}

/// Cumulative distribution of Zipf(s=1) over `n` ranks.
fn zipf_cdf(n: usize) -> Vec<f64> {
    cumulative((1..=n).map(|rank| 1.0 / rank as f64).collect())
}

fn cumulative(weights: Vec<f64>) -> Vec<f64> {
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect()
}

impl Plan {
    /// The template of operation `i` (warm-up and timed operations share
    /// one index space: the timed run continues where warm-up stopped).
    pub fn op(&self, i: usize) -> &Op {
        let t = match &self.draw {
            Draw::Sequential => i,
            Draw::Weighted { seed, cdf } => {
                let u = (mix(*seed, i as u64) >> 11) as f64 / (1u64 << 53) as f64;
                cdf.partition_point(|c| *c <= u).min(cdf.len() - 1)
            }
        };
        &self.templates[t]
    }

    /// Generates workload `def` for `seed`, sized for `seconds`.
    pub fn generate(def: &'static WorkloadDef, seed: u64, seconds: f64) -> Plan {
        let tag = def.name.bytes().fold(seed, |h, b| mix(h, b as u64));
        let histories: Vec<GeneratedHistory> = def
            .histories
            .iter()
            .map(GeneratedHistory::generate)
            .collect();
        let timed_ops = ((def.ops_per_second * seconds).round() as usize).max(1);
        let bodies: Vec<String> = histories
            .iter()
            .map(|h| register_body(&h.dataset, &h.workload))
            .collect();
        let setup = histories
            .iter()
            .enumerate()
            .map(|(body, h)| Step::register(&h.name, body))
            .collect();
        let mut plan = Plan {
            def,
            histories,
            setup,
            bodies,
            learned: Vec::new(),
            templates: Vec::new(),
            draw: Draw::Sequential,
            warmup_ops: timed_ops.div_ceil(10),
            timed_ops,
            check: Vec::new(),
        };
        let mut rng = StdRng::seed_from_u64(mix(tag, 3));
        match def.shape {
            Shape::FreshSweeps { k } => plan.fresh_sweeps(k, &mut rng),
            Shape::Zipf { k, catalogue } => plan.zipf(k, catalogue, mix(tag, 4), &mut rng),
            Shape::LightMix => plan.light_mix(mix(tag, 4), &mut rng),
            Shape::Churn { k } => plan.churn(k, &mut rng),
        }
        plan.learned = plan.bodies.iter().map(|_| AtomicUsize::new(0)).collect();
        plan
    }

    fn push_body(&mut self, body: String) -> usize {
        self.bodies.push(body);
        self.bodies.len() - 1
    }

    /// `count` distinct k-sweeps over the histories in turn, as operations
    /// of one expected-200 batch each. No two share a constant, so until
    /// one is sent twice no plan-cache lookup can hit.
    fn sweeps(&mut self, k: usize, count: usize, rng: &mut StdRng) -> Vec<Op> {
        let amounts = distinct_amounts(count * k, rng);
        amounts
            .chunks(k)
            .enumerate()
            .map(|(i, chunk)| {
                let history = &self.histories[i % self.histories.len()];
                let (name, body) = (history.name.clone(), history.sweep_body(chunk));
                let body = self.push_body(body);
                Op {
                    steps: vec![Step::batch(&name, body, 200, k)],
                }
            })
            .collect()
    }

    /// Every request is new; the check operations are further fresh sweeps
    /// past the timed ones.
    fn fresh_sweeps(&mut self, k: usize, rng: &mut StdRng) {
        const CHECKED: usize = 8;
        let timed = self.warmup_ops + self.timed_ops;
        self.templates = self.sweeps(k, timed + CHECKED, rng);
        self.check = self.templates.split_off(timed);
    }

    fn zipf(&mut self, k: usize, catalogue: usize, draw_seed: u64, rng: &mut StdRng) {
        self.templates = self.sweeps(k, catalogue, rng);
        // Popular entries (answered from the cache) and the tail (misses).
        self.check = (0..6)
            .chain(catalogue - 4..catalogue)
            .map(|t| self.templates[t].clone())
            .collect();
        self.draw = Draw::Weighted {
            seed: draw_seed,
            cdf: zipf_cdf(catalogue),
        };
    }

    fn light_mix(&mut self, draw_seed: u64, rng: &mut StdRng) {
        const HITS: usize = 16;
        let mut templates = self.sweeps(1, HITS, rng);
        let history = &self.histories[0];
        let name = history.name.clone();
        let relation = history.dataset.kind.relation();
        let key = history.dataset.kind.key_attribute();

        // Provable no-ops: identity replacements, and inserted updates whose
        // key interval is empty.
        let mut noops: Vec<String> = history
            .workload
            .history
            .statements()
            .iter()
            .enumerate()
            .map(|(p, s)| format!("REPLACE STATEMENT {} WITH {s}", p + 1))
            .collect();
        for p in 1..=4 {
            let at = rng.gen_range(0..1_000i64);
            noops.push(format!(
                "INSERT STATEMENT AT {p} UPDATE {relation} SET tolls = 0 WHERE {key} >= {at} AND {key} < {at}"
            ));
        }
        // Ill-typed scripts: an attribute the relation does not have.
        let bad: Vec<String> = ["Freight", "surcharge", "trip_km", "payment_kind"]
            .iter()
            .enumerate()
            .map(|(p, attr)| {
                format!(
                    "REPLACE STATEMENT {} WITH UPDATE {relation} SET fare = fare + 1 WHERE {attr} >= 5",
                    p + 1
                )
            })
            .collect();

        let (n_noop, n_bad) = (noops.len(), bad.len());
        for (i, script) in noops.into_iter().chain(bad).enumerate() {
            let body = self.push_body(batch_body(&[(format!("s{i}"), script)]));
            let status = if i < n_noop { 200 } else { 400 };
            templates.push(Op {
                steps: vec![Step::batch(&name, body, status, 1)],
            });
        }
        let weights = (0..HITS)
            .map(|_| 0.80 / HITS as f64)
            .chain((0..n_noop).map(|_| 0.15 / n_noop as f64))
            .chain((0..n_bad).map(|_| 0.05 / n_bad as f64))
            .collect();
        let first_bad = HITS + n_noop;
        self.check = [0, 1, 2, 3, HITS, first_bad - 1, first_bad, first_bad + 1]
            .iter()
            .map(|&t| templates[t].clone())
            .collect();
        self.templates = templates;
        self.draw = Draw::Weighted {
            seed: draw_seed,
            cdf: cumulative(weights),
        };
    }

    /// Operation `n` registers the resident history's body again as `t{n}`, asks two distinct sweeps from a 32-body catalogue, deletes it.
    fn churn(&mut self, k: usize, rng: &mut StdRng) {
        const CATALOGUE: usize = 32;
        const CHECKED: usize = 4;
        let sweeps = self.sweeps(k, CATALOGUE, rng);
        let register = self.setup[0].body.expect("registrations carry a body");
        let timed = self.warmup_ops + self.timed_ops;
        self.templates = (0..timed + CHECKED)
            .map(|n| {
                let name = format!("t{n}");
                let first = rng.gen_range(0..CATALOGUE);
                let second = (first + rng.gen_range(1..CATALOGUE)) % CATALOGUE;
                let sweep = |pick: usize| {
                    let body = sweeps[pick].steps[0].body.expect("sweeps carry a body");
                    Step::batch(&name, body, 200, k)
                };
                Op {
                    steps: vec![
                        Step::register(&name, register),
                        sweep(first),
                        sweep(second),
                        Step::delete(&name),
                    ],
                }
            })
            .collect();
        self.check = self.templates.split_off(timed);
    }
}

/// `n` distinct adjustment amounts: a seeded shuffle of `100..100 + n`, so
/// every seed uses the same set of constants in a different arrangement.
fn distinct_amounts(n: usize, rng: &mut StdRng) -> Vec<i64> {
    let mut amounts: Vec<i64> = (100..100 + n as i64).collect();
    for i in (1..n).rev() {
        amounts.swap(i, rng.gen_range(0..=i));
    }
    amounts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;

    #[test]
    fn variant_is_the_sweep_variant_with_that_amount() {
        let dataset = Dataset::generate(mahif_workload::DatasetKind::Taxi, 100, 1);
        let workload = WorkloadSpec::default()
            .with_updates(20)
            .with_modifications(2)
            .with_dependent_pct(30)
            .generate(&dataset);
        for (v, (_, mods)) in workload.sweep_variants(4).into_iter().enumerate() {
            assert_eq!(variant(&workload, 5 + v as i64), mods);
        }
    }

    #[test]
    fn zipf_draws_repeat_per_seed_and_follow_the_ranks() {
        let draws = |seed| -> Vec<usize> {
            let plan = Plan::generate(spec::workload("repeat_skewed").unwrap(), seed, 0.1);
            // Bodies follow the set-up's registration body, in template order.
            (0..20_000)
                .map(|i| plan.op(i).steps[0].body.unwrap() - plan.setup.len())
                .collect()
        };
        assert_eq!(draws(7), draws(7));
        assert_ne!(draws(7), draws(8));
        let mut counts = [0usize; 96];
        for t in draws(7) {
            counts[t] += 1;
        }
        // Rank 1 holds 1/H(96) = 19.4 % of the mass, rank 2 half of that.
        let share = |t: usize| counts[t] as f64 / 20_000.0;
        assert!((share(0) - 0.194).abs() < 0.01, "{}", share(0));
        assert!((share(1) - 0.097).abs() < 0.01, "{}", share(1));
        assert!(counts.iter().all(|&c| c > 0), "every entry is drawn");
    }

    #[test]
    fn light_mix_expects_rejections_and_seeds_decide_the_bytes() {
        let light = spec::workload("interactive_light").unwrap();
        let plan = Plan::generate(light, 7, 0.1);
        let rejected: Vec<&Step> = plan
            .templates
            .iter()
            .map(|op| &op.steps[0])
            .filter(|s| s.expect_status == 400)
            .collect();
        assert_eq!(rejected.len(), 4);
        assert!(rejected.iter().all(|s| s.scenarios == 0));
        assert!(plan
            .templates
            .iter()
            .all(|op| op.steps[0].expect_status == 400 || op.steps[0].scenarios == 1));
        // The drawn mix is 80 / 15 / 5.
        let share_400 = (0..20_000)
            .filter(|&i| plan.op(i).steps[0].expect_status == 400)
            .count() as f64
            / 20_000.0;
        assert!((share_400 - 0.05).abs() < 0.01, "{share_400}");
        // Same seed, same bytes; another seed, other bytes.
        assert_eq!(plan.bodies, Plan::generate(light, 7, 0.1).bodies);
        assert_ne!(plan.bodies, Plan::generate(light, 8, 0.1).bodies);
    }
}
