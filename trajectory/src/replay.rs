//! The traced run: replays the workload's first operations in-process and
//! single-threaded, with a bench-side span around every layer call, and
//! reads counts at the same boundaries from the public result structs.
//!
//! Each batch request is answered three ways — by `Session::execute` on a
//! default session (what the server does; classified hit or miss from the
//! `SessionStats` delta), by the composed pipeline with spans, and by the
//! composed pipeline without — and all three must carry identical deltas
//! (the untraced run checks them against the naive oracle). A one-client
//! run over the wire on the
//! same operations then supplies the admission numbers and the share of
//! client-observed latency that no in-process layer accounts for.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use mahif::{EngineConfig, HistoryAnalysis, Response, Session, SessionStats};
use mahif_expr::Expr;
use mahif_history::{naive_what_if, History, WhatIfRef};
use mahif_reenact::{reenact_history, reenact_side_columnar};
use mahif_serve::http::{parse_head_buffered, write_response};
use mahif_serve::{ConnectionDirective, ServeConfig};
use mahif_slicing::{data_slicing_conditions_multi, domains_for_relation};
use mahif_symbolic::{compress_database, initial_var_name};

use crate::gen::{Plan, Step, StepKind};
use crate::load::{self, settle};
use crate::stats::median;
use crate::trace::{canonical_delta, composed, self_times, Answered, Composition, Span, Tracer};

/// What the traced run reports.
pub struct TraceRun {
    /// Every per-layer metric, by name.
    pub metrics: BTreeMap<&'static str, f64>,
    pub attempted: usize,
    pub failed: usize,
    pub correct: bool,
    /// Why `correct` is false (empty otherwise).
    pub complaints: Vec<String>,
    pub spans: Vec<Span>,
    /// Exact program-side counts, for the printed report.
    pub stats: SessionStats,
}

/// Per-operation sums that become "median per operation" metrics.
#[derive(Default, Clone, Copy)]
struct OpCounts {
    request_bytes: usize,
    response_bytes: usize,
    solver_calls: usize,
    columnar_batches: usize,
    row_fallbacks: usize,
    vectorized_predicates: usize,
}

struct Replay<'p> {
    plan: &'p Plan,
    session: Session,
    config: EngineConfig,
    serve: ServeConfig,
    tr: Tracer,
    per_op: Vec<OpCounts>,
    /// Statements kept / total over the composed slices.
    statements: (usize, usize),
    /// Input / total tuples over the session's answers.
    tuples: (usize, usize),
    delta_tuples: usize,
    scenarios: usize,
    /// Σ composed wall with spans / without.
    composed_ns: (u64, u64),
    speedups: Vec<f64>,
    expected_rejections: u64,
    failed: usize,
    complaints: Vec<String>,
}

/// The request head as the load client puts it on the wire (the parser
/// stops at the head's end, so the body's bytes are not copied behind it).
fn render_head(step: &Step, body: &str) -> Vec<u8> {
    format!(
        "{} {} HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
        step.method(),
        step.path,
        body.len()
    )
    .into_bytes()
}

impl Replay<'_> {
    fn complain(&mut self, step: &Step, what: impl std::fmt::Display) {
        self.complaints
            .push(format!("{} {}: {what}", step.method(), step.path));
    }

    fn parse_head(&mut self, step: &Step, body: &str) {
        let wire = render_head(step, body);
        let span = self.tr.enter("serve.http.parse_head");
        let head = parse_head_buffered(&wire);
        self.tr.exit(span);
        assert!(matches!(head, Ok(Some(_))), "rendered head parses");
    }

    fn register(&mut self, step: &Step, body: &str, counts: &mut OpCounts) {
        let root = self.tr.enter("request");
        self.parse_head(step, body);
        let span = self.tr.enter("serve.wire.decode_register");
        let decoded = mahif_serve::decode_register_stream(body.as_bytes());
        self.tr.exit(span);
        let decoded = decoded.expect("generated registration decodes");
        let span = self.tr.enter("core.session.register");
        let registered = self
            .session
            .register(step.history.clone(), decoded.initial, decoded.history)
            .map(|_| ());
        self.tr.exit(span);
        self.tr.exit(root);
        registered.expect("generated registration registers");
        counts.request_bytes += body.len();

        // Stand-alone: the analyzer's share of registration.
        let registered = self
            .session
            .history(&step.history)
            .expect("just registered");
        let root = self.tr.enter("standalone");
        let span = self.tr.enter("analyze.build");
        black_box(HistoryAnalysis::build(
            registered.initial_state(),
            registered.history(),
        ));
        self.tr.exit(span);
        self.tr.exit(root);
    }

    fn batch(&mut self, op: usize, step: &Step, body: &str, counts: &mut OpCounts) {
        // What the server does with the request.
        let root = self.tr.enter("request");
        self.parse_head(step, body);
        let span = self.tr.enter("serve.wire.decode_batch");
        let batch = mahif_serve::decode_batch(body);
        self.tr.exit(span);
        let batch = batch.expect("generated batches decode");
        let scenarios = batch.scenarios.clone();
        let before = self.session.stats();
        let span = self.tr.enter("core.session.execute");
        let result = self
            .session
            .on(step.history.clone())
            .method(batch.method)
            .budget(batch.budget.capped_by(&self.serve.budget_ceiling))
            .parallelism(1)
            .run_batch(batch.scenarios);
        let after = self.session.stats();
        let (hits, misses) = (
            after.plan_cache_hits - before.plan_cache_hits,
            after.plan_cache_misses - before.plan_cache_misses,
        );
        self.tr.exit_as(
            span,
            match (hits, misses) {
                (_, 1..) => "core.session.execute_miss",
                (1.., 0) => "core.session.execute_hit",
                (0, 0) => "core.session.execute",
            },
        );
        let span = self.tr.enter("serve.wire.encode");
        let (status, reply) = match &result {
            Ok(response) => (200, mahif_serve::encode_response(response).to_string()),
            Err(e) => (
                mahif_serve::status_for(e),
                mahif_serve::encode_error(e).to_string(),
            ),
        };
        self.tr.exit(span);
        let span = self.tr.enter("serve.http.write");
        let mut sink = Vec::with_capacity(reply.len() + 256);
        let written = write_response(
            &mut sink,
            status,
            &reply,
            &[("X-Request-Id", op.to_string())],
            ConnectionDirective::KeepAlive {
                timeout: self.serve.keep_alive_timeout,
                remaining: self.serve.max_requests_per_connection,
            },
        );
        self.tr.exit(span);
        self.tr.exit(root);
        written.expect("writing into memory cannot fail");

        counts.request_bytes += body.len();
        counts.response_bytes += reply.len();
        if !settle(self.plan, step, status, &reply).0 {
            self.failed += 1;
            self.complain(
                step,
                format!("status {status}, expected {}", step.expect_status),
            );
        }
        if step.expect_status == 400 {
            self.expected_rejections += 1;
        }
        if let Ok(response) = &result {
            self.count_answer(response, counts);
        }
        if !op.is_multiple_of(self.plan.def.replay_stride) {
            return;
        }

        // The same request through the composed layers, with and without
        // spans, in alternating order.
        let registered = self.session.history(&step.history).expect("registered");
        let mut composition = None;
        let mut composed_ns = 0;
        for traced in if self.composed_ns.0 <= self.composed_ns.1 {
            [true, false]
        } else {
            [false, true]
        } {
            let start = Instant::now();
            if traced {
                let root = self.tr.enter("composed");
                composition = Some(composed(
                    &mut self.tr,
                    &registered,
                    &scenarios,
                    &self.config,
                ));
                composed_ns = self.tr.exit(root);
                self.composed_ns.0 += start.elapsed().as_nanos() as u64;
            } else {
                let plain = composed(
                    &mut Tracer::disabled(),
                    &registered,
                    &scenarios,
                    &self.config,
                );
                self.composed_ns.1 += start.elapsed().as_nanos() as u64;
                black_box(plain.is_ok());
            }
        }
        let composition = match composition.expect("the traced composition ran") {
            Ok(composition) => composition,
            Err(e) => return self.complain(step, format!("composed pipeline failed: {e}")),
        };
        match (&result, composition) {
            (Err(e), Composition::Rejected(_)) => {
                if !matches!(e.kind, mahif::ErrorKind::Analysis(_)) {
                    self.complain(step, format!("rejected for another reason: {e}"));
                }
            }
            (Ok(response), Composition::Answered(answered)) => {
                self.compare(step, response, &answered);
                self.measure(&registered, &scenarios, &answered, composed_ns);
            }
            (Ok(_), Composition::Rejected(e)) => self.complain(
                step,
                format!("the session answered what the analyzer rejects: {e}"),
            ),
            (Err(e), Composition::Answered(_)) => {
                self.complain(step, format!("the session failed: {e}"))
            }
        }
    }

    /// Counts read from the session's public result structs.
    fn count_answer(&mut self, response: &Response, counts: &mut OpCounts) {
        counts.solver_calls += response.stats.solver_calls;
        counts.columnar_batches += response.stats.columnar_batches;
        counts.row_fallbacks += response.stats.row_fallbacks;
        counts.vectorized_predicates += response.stats.vectorized_predicates;
        self.scenarios += response.len();
        for scenario in response {
            self.delta_tuples += scenario.answer.delta.len();
            self.tuples.0 += scenario.answer.stats.input_tuples;
            self.tuples.1 += scenario.answer.stats.total_tuples;
        }
    }

    /// Requires the session's and the composition's deltas to be identical,
    /// scenario by scenario.
    fn compare(&mut self, step: &Step, response: &Response, answered: &Answered) {
        let canonical = |delta| canonical_delta(&mahif_serve::encode_delta(delta));
        for (served, (name, reference)) in response.iter().zip(&answered.deltas) {
            if served.name != *name || canonical(&served.answer.delta) != canonical(reference) {
                self.complain(
                    step,
                    format!("scenario '{name}': session and composition differ"),
                );
            }
        }
        for slice in &answered.slices {
            self.statements.0 += slice.kept_positions.len();
            self.statements.1 += slice.kept_positions.len() + slice.excluded_positions.len();
        }
    }

    /// The stand-alone measurements: the naive method on the request's
    /// first scenario (the paper's N; every scenario of a sweep costs it the
    /// same) and the inner layers on the request's first group.
    fn measure(
        &mut self,
        registered: &mahif::RegisteredHistory,
        scenarios: &[mahif::ScenarioSpec],
        answered: &Answered,
        composed_ns: u64,
    ) {
        let root = self.tr.enter("standalone");
        let span = self.tr.enter("history.naive");
        let query = WhatIfRef::new(
            registered.history(),
            registered.initial_state(),
            scenarios[0].modifications(),
        );
        black_box(naive_what_if(query, registered.current_state()).is_ok());
        let naive_ns = self.tr.exit(span);
        if let Some(group) = answered.groups.groups.first() {
            self.measure_group(registered, answered, group);
        }
        self.tr.exit(root);
        // Per scenario on both sides: N answers one scenario at a time.
        let composed_per_scenario = composed_ns as f64 / scenarios.len() as f64;
        if composed_per_scenario > 0.0 {
            self.speedups.push(naive_ns as f64 / composed_per_scenario);
        }
    }

    /// The layers `GroupPlan::build` and the slicer call internally, timed
    /// on their own over the group's relation and sliced histories.
    fn measure_group(
        &mut self,
        registered: &mahif::RegisteredHistory,
        answered: &Answered,
        group: &mahif_slicing::ScenarioGroup,
    ) {
        let initial = registered.initial_state();
        let Some(&position) = group.positions.first() else {
            return;
        };
        let Ok(statement) = group.original.statement(position) else {
            return;
        };
        let relation = statement.relation().to_string();
        let Ok(base) = initial.relation(&relation) else {
            return;
        };
        let slice = &answered.slices[if answered.share { 0 } else { group.members[0] }];
        let sliced_original = group.original.restrict(&slice.kept_positions);
        let sliced_variants: Vec<History> = group
            .members
            .iter()
            .map(|&i| {
                answered.normalized[i]
                    .modified
                    .restrict(&slice.kept_positions)
            })
            .collect();
        let restricted: Vec<usize> = group
            .positions
            .iter()
            .filter_map(|p| slice.kept_positions.iter().position(|k| k == p))
            .collect();

        let span = self.tr.enter("slicing.domains.scan");
        black_box(domains_for_relation(base, initial_var_name).is_ok());
        self.tr.exit(span);
        let span = self.tr.enter("symbolic.compress.relation");
        black_box(compress_database(
            initial,
            &relation,
            &self.config.compression,
        ));
        self.tr.exit(span);
        let span = self.tr.enter("slicing.data.conditions");
        black_box(
            data_slicing_conditions_multi(&sliced_original, &sliced_variants, &restricted).is_ok(),
        );
        self.tr.exit(span);
        let span = self.tr.enter("storage.columnar.encode");
        let columnar = base.to_columnar();
        self.tr.exit(span);
        if let Some(columnar) = &columnar {
            let span = self.tr.enter("reenact.columnar.side");
            black_box(reenact_side_columnar(
                &sliced_original,
                &group.original,
                &relation,
                &base.schema,
                &Expr::true_(),
                initial,
                columnar,
            ));
            self.tr.exit(span);
        }
        let span = self.tr.enter("reenact.builder.row_side");
        let query = reenact_history(&sliced_original, &relation, &base.schema);
        black_box(mahif_query::evaluate(&query, initial).is_ok());
        self.tr.exit(span);
    }

    fn run_op(&mut self, op: usize) {
        let plan = self.plan;
        self.tr.set_request(op as i64);
        let mut counts = OpCounts::default();
        for step in &plan.op(op).steps {
            let body = step.body.map_or("", |b| plan.bodies[b].as_str());
            match step.kind {
                StepKind::Register => self.register(step, body, &mut counts),
                StepKind::Batch => self.batch(op, step, body, &mut counts),
                StepKind::Delete => {
                    if let Err(e) = self.session.unregister(&step.history) {
                        self.failed += 1;
                        self.complain(step, e);
                    }
                }
            }
        }
        self.per_op.push(counts);
    }
}

/// Median over operations of the sum of `ns` over the operation's spans
/// named `name`, in microseconds; 0 when no operation has such a span.
fn per_operation_us<'s>(spans: impl Iterator<Item = (&'s Span, u64)>, name: &str) -> f64 {
    let mut per_request: BTreeMap<i64, u64> = BTreeMap::new();
    for (span, ns) in spans.filter(|(span, _)| span.name == name) {
        *per_request.entry(span.request).or_default() += ns;
    }
    let values: Vec<f64> = per_request.values().map(|&ns| ns as f64 / 1e3).collect();
    median(&values).unwrap_or(0.0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Σ composed-layer spans ÷ Σ `Session::execute` wall over the requests
/// answered both ways. Within an operation the i-th composition answers
/// what the i-th `execute` answered. A plan-cache hit skips layers the
/// cache-less composition runs, so hits are left out: coverage compares the
/// two only where both do the same work.
fn coverage(spans: &[Span]) -> f64 {
    let mut layers_ns: BTreeMap<u32, u64> = BTreeMap::new();
    let mut executes: BTreeMap<i64, Vec<&Span>> = BTreeMap::new();
    let mut compositions: BTreeMap<i64, Vec<&Span>> = BTreeMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            *layers_ns.entry(parent).or_default() += span.duration_ns();
        }
        if span.name.starts_with("core.session.execute") {
            executes.entry(span.request).or_default().push(span);
        } else if span.name == "composed" {
            compositions.entry(span.request).or_default().push(span);
        }
    }
    let (mut covered, mut wall) = (0, 0);
    for (request, composed) in &compositions {
        for (composed, execute) in composed.iter().zip(&executes[request]) {
            if execute.name != "core.session.execute_hit" {
                covered += layers_ns.get(&composed.id).copied().unwrap_or(0);
                wall += execute.duration_ns();
            }
        }
    }
    ratio(covered as f64, wall as f64)
}

/// Replays the workload's first operations in-process, then sends the same
/// operations over the wire on one connection.
pub fn run(mut plan: Plan, seconds: f64) -> TraceRun {
    let total = plan.warmup_ops + plan.timed_ops;
    let ops = ((plan.def.replay_ops_per_second * seconds).ceil() as usize).clamp(1, total);
    let mut replay = Replay {
        plan: &plan,
        session: Session::new(),
        config: EngineConfig::default(),
        serve: ServeConfig::default(),
        tr: Tracer::new(),
        per_op: Vec::new(),
        statements: (0, 0),
        tuples: (0, 0),
        delta_tuples: 0,
        scenarios: 0,
        composed_ns: (0, 0),
        speedups: Vec::new(),
        expected_rejections: 0,
        failed: 0,
        complaints: Vec::new(),
    };
    // Set-up work is traced too: it is where registration's layers show on
    // the workloads that register nothing while timed.
    for (i, step) in plan.setup.iter().enumerate() {
        replay.tr.set_request(-1 - i as i64);
        let body = &plan.bodies[step.body.expect("registrations carry a body")];
        replay.register(step, body, &mut OpCounts::default());
    }
    for op in 0..ops {
        replay.run_op(op);
    }
    let Replay {
        session,
        tr,
        per_op,
        statements,
        tuples,
        delta_tuples,
        scenarios,
        composed_ns: (composed_traced, composed_plain),
        speedups,
        expected_rejections,
        failed,
        mut complaints,
        ..
    } = replay;

    // The same operations over the wire, one client, tracing off. The
    // replay answered with one engine thread; so that what is left of the
    // client-observed latency is the server's and the network's share and
    // not a second engine thread's gain, the wire bodies ask for one too.
    for body in &mut plan.bodies {
        if let Some(rest) = body.strip_prefix("{\"scenarios\":") {
            *body = format!("{{\"parallelism\":1,\"scenarios\":{rest}");
        }
    }
    let (served, _) = load::set_up(&plan, 1);
    let window = load::run_window(&served.addr, &plan, 0, ops, 1, Duration::from_secs(120));
    let registry = served.handle.registry();
    let queue_p50 = registry
        .histogram_snapshot("mahif_queue_seconds")
        .map_or(0.0, |h| h.p50());
    let shed = registry.counter_value("mahif_admission_shed_total");
    served.handle.stop();
    let wire: Vec<f64> = window
        .outcomes
        .iter()
        .filter(|o| o.ok)
        .map(|o| o.seconds * 1e6)
        .collect();
    let wire_failed = window.outcomes.len() - wire.len();

    let stats = session.stats();
    let cache_bytes: usize = session
        .histories()
        .iter()
        .map(|h| h.provisioned().cache().approx_bytes())
        .sum();
    let spans = tr.spans().to_vec();
    let selfs = self_times(&spans);
    // What the served operations (set-up has negative request ids) cost
    // in-process, to hold against their latency over the wire.
    let in_process_us = per_operation_us(
        spans
            .iter()
            .filter(|s| s.request >= 0)
            .map(|s| (s, s.duration_ns())),
        "request",
    );
    let per_op = |field: fn(&OpCounts) -> usize| -> f64 {
        let values: Vec<f64> = per_op.iter().map(|c| field(c) as f64).collect();
        median(&values).unwrap_or(0.0)
    };

    if stats.analyzer_rejections != expected_rejections {
        complaints.push(format!(
            "{} analyzer rejections for {expected_rejections} generated 400s",
            stats.analyzer_rejections
        ));
    }
    if wire_failed > 0 {
        complaints.push(format!("{wire_failed} operations failed over the wire"));
    }

    let mut metrics: BTreeMap<&'static str, f64> = BTreeMap::new();
    for layer in crate::spec::PER_LAYER.iter().filter(|m| m.unit == "us") {
        let span_name = layer.name.strip_suffix("_us").expect("a *_us metric");
        let self_times = spans.iter().zip(selfs.iter().copied());
        metrics.insert(layer.name, per_operation_us(self_times, span_name));
    }
    metrics.extend([
        ("serve.wire.request_bytes", per_op(|c| c.request_bytes)),
        ("serve.wire.response_bytes", per_op(|c| c.response_bytes)),
        ("serve.admission.queue_us", queue_p50 * 1e6),
        ("serve.admission.shed", shed as f64),
        (
            "serve.server.residual_us",
            median(&wire).unwrap_or(0.0) - in_process_us,
        ),
        (
            "analyze.noop_share",
            ratio(stats.analyzer_noop_proofs as f64, scenarios as f64),
        ),
        ("analyze.rejections", stats.analyzer_rejections as f64),
        (
            "core.provision.hit_ratio",
            ratio(
                stats.plan_cache_hits as f64,
                (stats.plan_cache_hits + stats.plan_cache_misses) as f64,
            ),
        ),
        (
            "core.provision.evictions",
            stats.plan_cache_evictions as f64,
        ),
        (
            "core.provision.cache_mb",
            cache_bytes as f64 / (1 << 20) as f64,
        ),
        (
            "history.delta_tuples_per_scenario",
            ratio(delta_tuples as f64, scenarios as f64),
        ),
        (
            "slicing.program.kept_share",
            ratio(statements.0 as f64, statements.1 as f64),
        ),
        ("solver.search.calls", per_op(|c| c.solver_calls)),
        (
            "slicing.data.kept_tuple_share",
            ratio(tuples.0 as f64, tuples.1 as f64),
        ),
        (
            "core.engine.speedup_vs_naive",
            median(&speedups).unwrap_or(0.0),
        ),
        ("reenact.columnar.batches", per_op(|c| c.columnar_batches)),
        (
            "reenact.columnar.row_fallbacks",
            per_op(|c| c.row_fallbacks),
        ),
        (
            "expr.vector.predicates",
            per_op(|c| c.vectorized_predicates),
        ),
        ("trace.coverage", coverage(&spans)),
        (
            "trace.overhead_share",
            ratio(
                composed_traced as f64 - composed_plain as f64,
                composed_plain as f64,
            ),
        ),
    ]);

    TraceRun {
        metrics,
        attempted: ops + window.outcomes.len(),
        failed: failed + wire_failed,
        correct: complaints.is_empty(),
        complaints,
        spans,
        stats,
    }
}
