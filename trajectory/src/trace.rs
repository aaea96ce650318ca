//! Bench-side spans and the request path composed from the layers' public
//! functions.
//!
//! No crate other than this one records a span: the composition below
//! calls, in the order `Session::execute` does, the public function of each
//! layer and puts a span around every call. Spans stay in memory and are
//! written out when the run ends.

use std::sync::Arc;
use std::time::Instant;

use mahif::{
    answer_normalized, compute_program_slice, AnalysisError, EngineConfig, GroupPlan, Method,
    RegisteredHistory, ScenarioSpec, WhatIfAnswer,
};
use mahif_history::{DatabaseDelta, DeltaInterner, History, NormalizedWhatIf, WhatIfRef};
use mahif_serve::Json;
use mahif_slicing::{
    group_scenarios, program_slice_multi_with_context, refine_slice_for_variant,
    ProgramSliceResult, ScenarioGroups,
};
use mahif_storage::Database;

/// One timed call. Spans of one operation share `request` (set-up work
/// carries a negative one).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub request: i64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An open span, to be handed back to [`Tracer::exit`].
#[must_use]
pub struct Open(Option<u32>);

/// The in-memory span recorder. A disabled tracer records nothing, which
/// is how the same composition runs untraced to price the spans.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    request: i64,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            enabled: true,
            request: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn disabled() -> Tracer {
        Tracer {
            enabled: false,
            ..Tracer::new()
        }
    }

    /// Spans entered from now on belong to `request`.
    pub fn set_request(&mut self, request: i64) {
        self.request = request;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            request: self.request,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        Open(Some(id))
    }

    /// Closes `span`, which must be the innermost open one, and returns its
    /// duration in nanoseconds (0 from a disabled tracer).
    pub fn exit(&mut self, span: Open) -> u64 {
        let end_ns = self.now_ns();
        let Some(id) = span.0 else {
            return 0;
        };
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        span.duration_ns()
    }

    /// Closes `span` under another name, for calls whose layer is only
    /// known once they return (a plan-cache hit or a miss).
    pub fn exit_as(&mut self, span: Open, name: &'static str) -> u64 {
        if let Some(id) = span.0 {
            self.spans[id as usize].name = name;
        }
        self.exit(span)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent as usize];
            let (start, end) = (span.start_ns.max(p.start_ns), span.end_ns.min(p.end_ns));
            if start < end {
                children[parent as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut intervals)| {
            intervals.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for (start, end) in intervals {
                if end > reach {
                    covered += end - start.max(reach);
                    reach = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Spans as the `--trace-out` document: one object per span.
pub fn spans_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("id", Json::Int(s.id as i64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Int(p as i64)),
                    ),
                    ("request", Json::Int(s.request)),
                    ("name", Json::str(s.name)),
                    ("start_ns", Json::Int(s.start_ns as i64)),
                    ("end_ns", Json::Int(s.end_ns as i64)),
                ])
            })
            .collect(),
    )
}

/// What the composed pipeline made of a batch.
pub enum Composition {
    /// The analyzer refused a scenario at admission (a 400 on the wire).
    Rejected(AnalysisError),
    Answered(Answered),
}

/// A composed answer plus the intermediate results the stand-alone layer
/// measurements start from.
pub struct Answered {
    /// `(scenario name, delta)` in request order, proven no-ops included.
    pub deltas: Vec<(String, DatabaseDelta)>,
    /// Normalizations of the scenarios that were not proven no-ops.
    pub normalized: Vec<NormalizedWhatIf>,
    pub groups: ScenarioGroups,
    /// One slice per group when `share`, else one per normalized scenario.
    pub slices: Vec<Arc<ProgramSliceResult>>,
    pub share: bool,
}

/// The slices of a request: one per group (shared) for a batch, one per
/// scenario for a single query; then, per member, the smaller slice the
/// refinement policy asks for where it exists.
type Slices = (
    Vec<Arc<ProgramSliceResult>>,
    Vec<Option<Arc<ProgramSliceResult>>>,
);

fn slice(
    normalized: &[NormalizedWhatIf],
    groups: &ScenarioGroups,
    share: bool,
    initial: &Database,
    config: &EngineConfig,
) -> Result<Slices, mahif::Error> {
    let mut slices = Vec::new();
    let mut contexts = Vec::new();
    if share {
        for group in &groups.groups {
            let variants: Vec<&History> = group
                .members
                .iter()
                .map(|&i| &normalized[i].modified)
                .collect();
            let (slice, context) = program_slice_multi_with_context(
                &group.original,
                &variants,
                &group.positions,
                initial,
                &config.slicing(),
            )?;
            slices.push(Arc::new(slice));
            contexts.push(context);
        }
    } else {
        for n in normalized {
            let slice = compute_program_slice(n, initial, Method::ReenactPsDs, config)?;
            slices.push(Arc::new(slice));
        }
    }
    let mut refined = vec![None; normalized.len()];
    if share && config.refine.considers_refinement() {
        for (i, n) in normalized.iter().enumerate() {
            let g = groups.scenario_group[i];
            let size = groups.groups[g].members.len();
            let union = &slices[g];
            if size <= 1
                || !config
                    .refine
                    .should_refine(size, union.kept_positions.len())
            {
                continue;
            }
            let own = refine_slice_for_variant(
                &n.original,
                &n.modified,
                &n.modified_positions,
                initial,
                &config.slicing(),
                union,
                &contexts[g],
            )?;
            if own.kept_positions.len() < union.kept_positions.len() {
                refined[i] = Some(Arc::new(own));
            }
        }
    }
    Ok((slices, refined))
}

/// Answers `scenarios` against `registered` under the default method
/// (`R+PS+DS`) by calling what `Session::execute` calls, layer by layer,
/// without a plan cache: admission by the analyzer, normalization,
/// grouping, program slicing (and refinement per `config.refine`), group
/// plans, member answers, no-op merge-back and delta interning.
pub fn composed(
    tr: &mut Tracer,
    registered: &RegisteredHistory,
    scenarios: &[ScenarioSpec],
    config: &EngineConfig,
) -> Result<Composition, mahif::Error> {
    let method = Method::ReenactPsDs;
    let initial = registered.initial_state();
    let versioned = registered.versions();
    let analysis = registered.provisioned().analysis();

    let span = tr.enter("analyze.validate");
    let rejected = scenarios
        .iter()
        .find_map(|s| analysis.validate(s.modifications()).err());
    let noop: Vec<bool> = match rejected {
        Some(_) => Vec::new(),
        None => scenarios
            .iter()
            .map(|s| analysis.prove_noop(s.modifications()))
            .collect(),
    };
    tr.exit(span);
    if let Some(e) = rejected {
        return Ok(Composition::Rejected(e));
    }
    let kept: Vec<&ScenarioSpec> = scenarios
        .iter()
        .zip(&noop)
        .filter(|(_, noop)| !**noop)
        .map(|(s, _)| s)
        .collect();

    let span = tr.enter("history.normalize");
    let normalized = kept
        .iter()
        .map(|s| WhatIfRef::new(registered.history(), initial, s.modifications()).normalize())
        .collect::<Result<Vec<NormalizedWhatIf>, _>>();
    tr.exit(span);
    let normalized = normalized?;

    let span = tr.enter("slicing.groups.group");
    let groups = group_scenarios(&normalized);
    tr.exit(span);

    let share = normalized.len() > 1;
    let span = tr.enter("slicing.program.slice");
    let sliced = slice(&normalized, &groups, share, initial, config);
    tr.exit(span);
    let (slices, refined) = sliced?;

    let span = tr.enter("core.engine.plan_build");
    let plans = if share {
        groups
            .groups
            .iter()
            .zip(&slices)
            .map(|(group, slice)| {
                if group.members.iter().all(|&i| refined[i].is_some()) {
                    return Ok(None);
                }
                let members: Vec<&NormalizedWhatIf> =
                    group.members.iter().map(|&i| &normalized[i]).collect();
                GroupPlan::build(&members, slice, versioned, method, config, None).map(Some)
            })
            .collect::<Result<Vec<Option<GroupPlan>>, mahif::Error>>()
    } else {
        normalized
            .iter()
            .zip(&slices)
            .map(|(n, slice)| {
                GroupPlan::build(&[n], slice, versioned, method, config, None).map(Some)
            })
            .collect()
    };
    tr.exit(span);
    let plans = plans?;

    let span = tr.enter("core.engine.member");
    let answers = normalized
        .iter()
        .enumerate()
        .map(|(i, n)| match &refined[i] {
            Some(slice) => answer_normalized(n, slice, versioned, method, config),
            None => {
                let plan = if share { groups.scenario_group[i] } else { i };
                plans[plan]
                    .as_ref()
                    .expect("a plan exists for every unrefined member")
                    .answer_in_group(n, versioned)
            }
        })
        .collect::<Result<Vec<WhatIfAnswer>, mahif::Error>>();
    tr.exit(span);

    // Proven no-ops rejoin at their request positions as empty deltas;
    // equal relation deltas of a batch then share storage.
    let mut executed = answers?.into_iter();
    let span = tr.enter("history.delta.intern");
    let mut deltas: Vec<(String, DatabaseDelta)> = scenarios
        .iter()
        .zip(&noop)
        .map(|(s, &noop)| {
            let delta = if noop {
                DatabaseDelta::default()
            } else {
                executed
                    .next()
                    .expect("one answer per executed scenario")
                    .delta
            };
            (s.name().to_string(), delta)
        })
        .collect();
    if deltas.len() > 1 {
        let mut interner = DeltaInterner::new();
        for (_, delta) in &mut deltas {
            interner.intern(delta);
        }
    }
    tr.exit(span);
    Ok(Composition::Answered(Answered {
        deltas,
        normalized,
        groups,
        slices,
        share,
    }))
}

/// A delta as a canonical sorted multiset of annotated tuples, from its
/// wire encoding (`{"relations": [{"relation", "inserted", "deleted"}]}`) —
/// the form in which the wire answer, the naive oracle and the composed
/// pipeline are compared.
pub fn canonical_delta(delta: &Json) -> Vec<String> {
    let mut tuples = Vec::new();
    for relation in delta
        .get("relations")
        .and_then(Json::as_array)
        .unwrap_or(&[])
    {
        let name = relation
            .get("relation")
            .and_then(Json::as_str)
            .unwrap_or("?");
        for (sign, key) in [('+', "inserted"), ('-', "deleted")] {
            for tuple in relation.get(key).and_then(Json::as_array).unwrap_or(&[]) {
                tuples.push(format!("{sign}{name}{tuple}"));
            }
        }
    }
    tuples.sort_unstable();
    tuples
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 0,
            name: "x",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_covered_children_once() {
        let spans = [
            span(0, None, 0, 100),     // root
            span(1, Some(0), 10, 40),  // child
            span(2, Some(1), 15, 25),  // grandchild: only its parent pays
            span(3, Some(0), 30, 60),  // overlaps child 1 on 30..40
            span(4, Some(0), 90, 120), // sticks out: clipped to the root
        ];
        // Root: 100 − |10..60 ∪ 90..100| = 100 − 60 = 40.
        assert_eq!(self_times(&spans), vec![40, 20, 10, 30, 30]);
    }

    #[test]
    fn tracer_nests_and_a_disabled_one_records_nothing() {
        let mut tr = Tracer::new();
        tr.set_request(7);
        let outer = tr.enter("outer");
        let inner = tr.enter("inner");
        tr.exit_as(inner, "renamed");
        tr.exit(outer);
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].parent, spans[1].parent), (None, Some(0)));
        assert_eq!((spans[0].name, spans[1].name), ("outer", "renamed"));
        assert!(spans
            .iter()
            .all(|s| s.request == 7 && s.end_ns >= s.start_ns));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

        let mut off = Tracer::disabled();
        let span = off.enter("ignored");
        off.exit(span);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn canonical_delta_ignores_order() {
        let a = Json::parse(
            r#"{"relations":[{"relation":"r","inserted":[[2,"b"],[1,"a"]],"deleted":[[3,"c"]]}],"tuples":3}"#,
        )
        .unwrap();
        let b = Json::parse(
            r#"{"relations":[{"relation":"r","inserted":[[1,"a"],[2,"b"]],"deleted":[[3,"c"]]}],"tuples":3}"#,
        )
        .unwrap();
        assert_eq!(canonical_delta(&a), canonical_delta(&b));
        assert_eq!(canonical_delta(&a).len(), 3);
    }
}
