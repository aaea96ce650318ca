//! Program slicing shared across a *batch* of what-if scenarios.
//!
//! A scenario sweep ("what if the threshold had been 55 / 60 / 65 …?")
//! produces k modified histories that all differ from the same normalized
//! original history at the same positions. Running the dependency test of
//! [`crate::program`] once per scenario repeats almost identical work k
//! times: the original-history trajectories, the per-relation domains, the
//! compressed-database constraint Φ_D and the witness samples are the same
//! every time, and the statements under test only differ in the "affected by
//! a modified statement" side of the dependency condition.
//!
//! [`program_slice_multi`] therefore computes **one slice certified for
//! every scenario in the group**: the affected-by-modification condition
//! becomes the disjunction over all k variants. A statement is excluded only
//! when that disjunction is unsatisfiable — and `UNSAT` of a disjunction
//! implies `UNSAT` of each disjunct, so the exclusion is exactly the
//! per-scenario certificate of [`crate::program_slice`] for every variant,
//! with the cumulative exclusion set shared across variants. The resulting
//! kept set is a superset of each scenario's individual slice (it keeps a
//! statement if *any* scenario needs it), which is always answer-preserving;
//! the payoff is one slicing pass instead of k.

use std::borrow::Borrow;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Instant;

use mahif_expr::builder::disjunction;
use mahif_expr::{simplify, Expr, MapBindings};
use mahif_history::{History, Statement};
use mahif_solver::{dependency_cone, Domain, SatResult, Solver};
use mahif_storage::Database;
use mahif_symbolic::{compress_relation, initial_var_name};

use crate::domains::domains_for_relation;
use crate::error::SlicingError;
use crate::program::{
    affected_relations, affects_condition, model_satisfies, problem_with_definitions, trajectory,
    witness_satisfies, ProgramSliceResult, ProgramSlicingConfig, Trajectory, WITNESS_SAMPLES,
};

/// Per-relation solver inputs shared by a whole scenario group (and by every
/// statement's check): attribute domains, the compressed-database constraint
/// Φ_D and sampled concrete witness tuples.
pub(crate) struct RelationContext {
    pub(crate) domains: Vec<(String, Domain)>,
    pub(crate) phi_d: Expr,
    pub(crate) witnesses: Vec<MapBindings>,
}

pub(crate) fn build_relation_context(
    database: &Database,
    relation: &str,
    config: &ProgramSlicingConfig,
) -> Result<RelationContext, SlicingError> {
    let rel = database.relation(relation)?;
    let domains = domains_for_relation(rel, initial_var_name)?;
    let phi_d = if config.skip_compression_constraint {
        Expr::true_()
    } else {
        compress_relation(rel, &config.compression)
    };
    let stride = (rel.len() / WITNESS_SAMPLES).max(1);
    let witnesses = rel
        .iter()
        .step_by(stride)
        .take(WITNESS_SAMPLES)
        .map(|t| {
            let mut b = MapBindings::new();
            for (idx, a) in rel.schema.attributes.iter().enumerate() {
                if let Some(v) = t.value(idx) {
                    b.set_var(initial_var_name(&a.name), v.clone());
                }
            }
            b
        })
        .collect();
    Ok(RelationContext {
        domains,
        phi_d,
        witnesses,
    })
}

/// The symbolic inputs of a scenario group's shared slicing pass, reusable
/// across the group: for every relation the group's dependency test touched,
/// the attribute domains of the single-tuple symbolic instance, the
/// compressed-database constraint Φ_D and the sampled concrete witness
/// tuples. The per-statement symbolic *trajectories* are re-derived from
/// these inputs in milliseconds; the pieces cached here (domain scans, Φ_D
/// compression, witness sampling) are the ones whose cost grows with the
/// database.
///
/// Produced by [`program_slice_multi_with_context`]; consumed by
/// [`refine_slice_for_variant`] so a member's cheap per-scenario refinement
/// does not recompute the group's symbolic setup.
#[derive(Default)]
pub struct SymbolicGroupContext {
    contexts: BTreeMap<String, RelationContext>,
}

impl SymbolicGroupContext {
    /// Relations whose symbolic inputs are cached.
    pub fn relations(&self) -> impl Iterator<Item = &str> {
        self.contexts.keys().map(String::as_str)
    }

    /// Number of cached relations.
    pub fn len(&self) -> usize {
        self.contexts.len()
    }

    /// True when no relation context is cached.
    pub fn is_empty(&self) -> bool {
        self.contexts.is_empty()
    }
}

impl std::fmt::Debug for SymbolicGroupContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SymbolicGroupContext")
            .field("relations", &self.contexts.keys().collect::<Vec<_>>())
            .finish()
    }
}

/// Computes a single program slice valid for *every* modified-history
/// variant of a scenario group.
///
/// Requirements (checked): all `variants` have the same length as
/// `original`, and each differs from `original` only at `positions` (the
/// shared normalization of the group). With a single variant this is
/// [`crate::program_slice`].
///
/// `variants` may hold owned histories or references (`&[History]` or
/// `&[&History]`), so batch callers can borrow variants from their
/// normalization results instead of cloning them.
pub fn program_slice_multi<H: Borrow<History>>(
    original: &History,
    variants: &[H],
    positions: &[usize],
    database: &Database,
    config: &ProgramSlicingConfig,
) -> Result<ProgramSliceResult, SlicingError> {
    program_slice_multi_with_context(original, variants, positions, database, config)
        .map(|(slice, _)| slice)
}

/// Like [`program_slice_multi`], additionally returning the group's
/// [`SymbolicGroupContext`] so per-member refinement
/// ([`refine_slice_for_variant`]) can reuse the symbolic setup.
pub fn program_slice_multi_with_context<H: Borrow<History>>(
    original: &History,
    variants: &[H],
    positions: &[usize],
    database: &Database,
    config: &ProgramSlicingConfig,
) -> Result<(ProgramSliceResult, SymbolicGroupContext), SlicingError> {
    let variants: Vec<&History> = variants.iter().map(Borrow::borrow).collect();
    multi_slice_impl(
        original,
        &variants,
        positions,
        database,
        config,
        &BTreeSet::new(),
        None,
    )
}

/// Refines a group's certified union slice down to one member's own slice,
/// reusing the group's symbolic context.
///
/// The union slice keeps a statement when *any* member needs it; a member
/// whose own dependency set is much smaller still reenacts the union. This
/// runs the single-variant dependency test seeded with the union's
/// exclusions: statements the union already excluded are excluded for every
/// member by the shared certificate (`UNSAT` of the disjunction implies
/// `UNSAT` of each disjunct), so only the statements the union *kept* are
/// re-checked against this variant alone — with the per-relation domains,
/// Φ_D and witness samples taken from `context` instead of being recomputed.
///
/// The result is answer-preserving for `variant` by the same cumulative
/// certificate as [`crate::program_slice`]: the starting candidate (the
/// union slice) is certified for this variant, and every further exclusion
/// is checked against the candidate produced by the previous exclusions.
pub fn refine_slice_for_variant(
    original: &History,
    variant: &History,
    positions: &[usize],
    database: &Database,
    config: &ProgramSlicingConfig,
    union: &ProgramSliceResult,
    context: &SymbolicGroupContext,
) -> Result<ProgramSliceResult, SlicingError> {
    let seed: BTreeSet<usize> = union.excluded_positions.iter().copied().collect();
    multi_slice_impl(
        original,
        &[variant],
        positions,
        database,
        config,
        &seed,
        Some(context),
    )
    .map(|(slice, _)| slice)
}

/// The shared implementation of the group dependency test: computes the
/// slice certified for every variant, starting from `seed_excluded`
/// (positions already certified excludable for all variants) and reusing
/// `shared_context` where it covers a relation.
fn multi_slice_impl(
    original: &History,
    variants: &[&History],
    positions: &[usize],
    database: &Database,
    config: &ProgramSlicingConfig,
    seed_excluded: &BTreeSet<usize>,
    shared_context: Option<&SymbolicGroupContext>,
) -> Result<(ProgramSliceResult, SymbolicGroupContext), SlicingError> {
    let start = Instant::now();
    if variants.is_empty() {
        return Err(SlicingError::EmptyScenarioGroup);
    }
    for variant in variants {
        if variant.len() != original.len() {
            return Err(SlicingError::HistoriesNotAligned {
                original: original.len(),
                modified: variant.len(),
            });
        }
    }
    if positions.is_empty() {
        return Ok((
            ProgramSliceResult {
                kept_positions: Vec::new(),
                excluded_positions: (0..original.len()).collect(),
                solver_calls: 0,
                duration: start.elapsed(),
            },
            SymbolicGroupContext::default(),
        ));
    }

    // Relations that can carry delta tuples for *any* variant.
    let mut affected: BTreeSet<String> = BTreeSet::new();
    for variant in variants {
        affected.extend(affected_relations(original, variant, positions));
    }
    // The original history first, then every variant: each contributes its
    // own trajectories to a candidate's dependency condition.
    let histories: Vec<&History> = std::iter::once(original)
        .chain(variants.iter().copied())
        .collect();
    let modified_set: BTreeSet<usize> = positions.iter().copied().collect();
    let solver = Solver::with_config(config.solver.clone());

    let mut contexts: BTreeMap<String, RelationContext> = BTreeMap::new();

    let mut kept = Vec::new();
    let mut excluded = Vec::new();
    let mut excluded_set: BTreeSet<usize> = seed_excluded.clone();
    let mut solver_calls = 0usize;

    for (i, stmt) in original.statements().iter().enumerate() {
        if excluded_set.contains(&i) {
            // Seeded exclusion: already certified excludable for every
            // variant (refinement starts from the union slice's candidate).
            excluded.push(i);
            continue;
        }
        if modified_set.contains(&i) {
            kept.push(i);
            continue;
        }
        if matches!(
            stmt,
            Statement::InsertValues { .. } | Statement::InsertQuery { .. }
        ) {
            kept.push(i);
            continue;
        }
        let relation = stmt.relation().to_string();
        if !affected.contains(&relation) {
            excluded.push(i);
            excluded_set.insert(i);
            continue;
        }
        // Positions of modified statements over the same relation in any
        // variant; without one, the statement is kept conservatively (its
        // relation is affected only via insert-select data flow).
        let relation_positions: Vec<usize> = positions
            .iter()
            .copied()
            .filter(|&p| {
                histories.iter().any(|h| {
                    h.statement(p)
                        .map(|s| s.relation() == relation)
                        .unwrap_or(false)
                })
            })
            .collect();
        if relation_positions.is_empty() {
            kept.push(i);
            continue;
        }

        let shared = shared_context.and_then(|c| c.contexts.get(&relation));
        if shared.is_none() && !contexts.contains_key(&relation) {
            contexts.insert(
                relation.clone(),
                build_relation_context(database, &relation, config)?,
            );
        }
        let ctx = shared.unwrap_or_else(|| &contexts[&relation]);

        // Trajectories, one per history (distinct variable suffixes keep
        // definitions from colliding). The condition reads the states before
        // `i` and before the modified positions, so each stops at the last of
        // them; the i-removed ones differ from the candidate ones only at
        // modified positions after `i` (see crate::program), so they exist
        // only when there is one.
        let end = relation_positions.iter().copied().fold(i, usize::max);
        let build = |skip: &BTreeSet<usize>, tag: &str| -> Vec<(&History, Trajectory)> {
            histories
                .iter()
                .enumerate()
                .map(|(h, &history)| {
                    let suffix = format!("_{tag}{h}");
                    (history, trajectory(history, &relation, skip, &suffix, end))
                })
                .collect()
        };
        let candidate = build(&excluded_set, "c");
        let removed = if end > i {
            let mut skip_i = excluded_set.clone();
            skip_i.insert(i);
            build(&skip_i, "r")
        } else {
            Vec::new()
        };

        // "Affected by statement i" in the candidate history of any variant
        // (for i outside `positions` the statement text is shared, but the
        // intermediate states it sees are per-variant).
        let affected_by_stmt =
            simplify(&disjunction(candidate.iter().map(|(h, t)| {
                affects_condition(&h.statements()[i], &t.states[i])
            })));
        // "Affected by a modified statement" in any variant, over the
        // candidate and, after `i`, the i-removed trajectories.
        let affected_by_modification =
            simplify(&disjunction(relation_positions.iter().flat_map(|&p| {
                let removed = if p > i { &removed[..] } else { &[] };
                candidate
                    .iter()
                    .chain(removed)
                    .map(move |(h, t)| affects_condition(&h.statements()[p], &t.states[p]))
            })));
        let core_condition = simplify(&Expr::And(
            Arc::new(affected_by_modification),
            Arc::new(affected_by_stmt),
        ));
        let definitions: Vec<(String, Expr)> = candidate
            .into_iter()
            .chain(removed)
            .flat_map(|(_, t)| t.definitions)
            .collect();
        // Only the definitions the condition reads can change its value: the
        // witnesses evaluate, and the solver receives, just that cone.
        let (cone, _) = dependency_cone(&core_condition, &definitions);

        // Stage 1: concrete witnesses.
        if ctx
            .witnesses
            .iter()
            .any(|w| witness_satisfies(&core_condition, &cone, w))
        {
            kept.push(i);
            continue;
        }

        // Stage 2: the core condition without Φ_D.
        solver_calls += 1;
        let core_problem =
            problem_with_definitions(ctx.domains.clone(), core_condition.clone(), &cone);
        match solver.check(&core_problem) {
            SatResult::Unsat => {
                excluded.push(i);
                excluded_set.insert(i);
                continue;
            }
            SatResult::Sat(ref model) => {
                if model_satisfies(&ctx.phi_d, model) {
                    kept.push(i);
                    continue;
                }
            }
            SatResult::Unknown => {}
        }

        // Stage 3: the full condition including Φ_D.
        let condition = simplify(&Expr::And(
            Arc::new(ctx.phi_d.clone()),
            Arc::new(core_condition),
        ));
        // Φ_D reads only base variables, so the cone is unchanged.
        let problem = problem_with_definitions(ctx.domains.clone(), condition, &cone);
        solver_calls += 1;
        match solver.check(&problem) {
            SatResult::Unsat => {
                excluded.push(i);
                excluded_set.insert(i);
            }
            SatResult::Sat(_) | SatResult::Unknown => kept.push(i),
        }
    }

    Ok((
        ProgramSliceResult {
            kept_positions: kept,
            excluded_positions: excluded,
            solver_calls,
            duration: start.elapsed(),
        },
        SymbolicGroupContext { contexts },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::program_slice;
    use mahif_expr::builder::*;
    use mahif_history::statement::{running_example_database, running_example_history};
    use mahif_history::{HistoricalWhatIf, ModificationSet, SetClause};

    /// The running-example sweep: u1 with free-shipping thresholds 55..=75
    /// (the shape of `running_example_u1_prime`, parameterized).
    fn threshold_variant(threshold: i64) -> Statement {
        Statement::update(
            "Order",
            SetClause::single("ShippingFee", lit(0)),
            ge(attr("Price"), lit(threshold)),
        )
    }

    fn sweep_normalized(thresholds: &[i64]) -> (History, Vec<History>, Vec<usize>) {
        let history = History::new(running_example_history());
        let mut variants = Vec::new();
        let mut all_positions: Option<Vec<usize>> = None;
        for &t in thresholds {
            let mods = ModificationSet::single_replace(0, threshold_variant(t));
            let (original, modified, positions) = mods.normalize(&history).unwrap();
            assert_eq!(original.statements(), history.statements());
            match &all_positions {
                Some(p) => assert_eq!(p, &positions),
                None => all_positions = Some(positions),
            }
            variants.push(modified);
        }
        (history, variants, all_positions.unwrap())
    }

    #[test]
    fn multi_slice_is_union_of_per_scenario_slices() {
        let db = running_example_database();
        let (original, variants, positions) = sweep_normalized(&[55, 60, 65, 70, 75]);
        let shared = program_slice_multi(
            &original,
            &variants,
            &positions,
            &db,
            &ProgramSlicingConfig::default(),
        )
        .unwrap();
        for variant in &variants {
            let single = program_slice(
                &original,
                variant,
                &positions,
                &db,
                &ProgramSlicingConfig::default(),
            )
            .unwrap();
            for p in &single.kept_positions {
                assert!(
                    shared.kept_positions.contains(p),
                    "shared slice dropped position {p} needed by a scenario"
                );
            }
        }
    }

    #[test]
    fn multi_slice_preserves_every_scenario_answer() {
        let db = running_example_database();
        let (original, variants, positions) = sweep_normalized(&[55, 60, 65]);
        let shared = program_slice_multi(
            &original,
            &variants,
            &positions,
            &db,
            &ProgramSlicingConfig::default(),
        )
        .unwrap();
        for (v, variant) in variants.iter().enumerate() {
            let sliced_original = original.restrict(&shared.kept_positions);
            let sliced_variant = variant.restrict(&shared.kept_positions);
            let left = sliced_original.execute(&db).unwrap();
            let right = sliced_variant.execute(&db).unwrap();
            let sliced_delta = mahif_history::DatabaseDelta::compute_for_relations(
                &left,
                &right,
                &original.relations_accessed(),
            );
            let reference = HistoricalWhatIf::new(
                original.clone(),
                db.clone(),
                ModificationSet::single_replace(0, threshold_variant([55, 60, 65][v])),
            )
            .answer_by_direct_execution()
            .unwrap();
            assert_eq!(sliced_delta, reference, "scenario {v} answer changed");
        }
    }

    #[test]
    fn refinement_shrinks_to_the_member_slice_and_preserves_answers() {
        // Append an update only the *low* thresholds interact with: the union
        // slice of a mixed sweep must keep it, while refinement for a high
        // threshold excludes it again.
        let db = running_example_database();
        let mut statements = running_example_history();
        statements.push(Statement::update(
            "Order",
            SetClause::single("ShippingFee", lit(3)),
            and(ge(attr("Price"), lit(30)), le(attr("Price"), lit(35))),
        ));
        let history = History::new(statements);
        let thresholds = [32i64, 60];
        let mut variants = Vec::new();
        let mut positions = Vec::new();
        for &t in &thresholds {
            let mods = ModificationSet::single_replace(0, threshold_variant(t));
            let (original, modified, p) = mods.normalize(&history).unwrap();
            assert_eq!(original.statements(), history.statements());
            positions = p;
            variants.push(modified);
        }
        let (union, context) = program_slice_multi_with_context(
            &history,
            &variants,
            &positions,
            &db,
            &ProgramSlicingConfig::default(),
        )
        .unwrap();
        for (v, variant) in variants.iter().enumerate() {
            let refined = refine_slice_for_variant(
                &history,
                variant,
                &positions,
                &db,
                &ProgramSlicingConfig::default(),
                &union,
                &context,
            )
            .unwrap();
            // Refinement never re-adds a union exclusion …
            for p in &refined.kept_positions {
                assert!(
                    union.kept_positions.contains(p),
                    "refined slice kept {p} which the union excluded"
                );
            }
            // … and matches the member's own from-scratch slice here.
            let own = crate::program_slice(
                &history,
                variant,
                &positions,
                &db,
                &ProgramSlicingConfig::default(),
            )
            .unwrap();
            assert_eq!(refined.kept_positions, own.kept_positions, "variant {v}");
            // The refined slice is answer-preserving for its member.
            let left = history
                .restrict(&refined.kept_positions)
                .execute(&db)
                .unwrap();
            let right = variant
                .restrict(&refined.kept_positions)
                .execute(&db)
                .unwrap();
            let sliced_delta = mahif_history::DatabaseDelta::compute_for_relations(
                &left,
                &right,
                &history.relations_accessed(),
            );
            let reference = HistoricalWhatIf::new(
                history.clone(),
                db.clone(),
                ModificationSet::single_replace(0, threshold_variant(thresholds[v])),
            )
            .answer_by_direct_execution()
            .unwrap();
            assert_eq!(sliced_delta, reference, "variant {v} answer changed");
        }
        // The high threshold's refined slice is strictly smaller than the
        // union: the low-price update interacts only with threshold 32.
        let refined_high = refine_slice_for_variant(
            &history,
            &variants[1],
            &positions,
            &db,
            &ProgramSlicingConfig::default(),
            &union,
            &context,
        )
        .unwrap();
        assert!(
            refined_high.kept_positions.len() < union.kept_positions.len(),
            "expected refinement to shrink the union (union kept {:?}, refined kept {:?})",
            union.kept_positions,
            refined_high.kept_positions
        );
        assert!(!context.is_empty());
        assert!(context.relations().any(|r| r == "Order"));
    }

    #[test]
    fn empty_group_and_misaligned_variants_error() {
        let db = running_example_database();
        let history = History::new(running_example_history());
        assert!(matches!(
            program_slice_multi::<History>(
                &history,
                &[],
                &[0],
                &db,
                &ProgramSlicingConfig::default()
            ),
            Err(SlicingError::EmptyScenarioGroup)
        ));
        let shorter = history.prefix(1);
        assert!(program_slice_multi(
            &history,
            &[shorter],
            &[0],
            &db,
            &ProgramSlicingConfig::default()
        )
        .is_err());
    }

    #[test]
    fn empty_positions_exclude_everything() {
        let db = running_example_database();
        let history = History::new(running_example_history());
        let slice = program_slice_multi(
            &history,
            std::slice::from_ref(&history),
            &[],
            &db,
            &ProgramSlicingConfig::default(),
        )
        .unwrap();
        assert!(slice.kept_positions.is_empty());
        assert_eq!(slice.excluded_positions.len(), 3);
    }
}
