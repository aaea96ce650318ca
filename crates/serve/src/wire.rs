//! The wire format: JSON bodies ↔ core types.
//!
//! Decoding covers the two POST bodies (history registration, scenario
//! batch); encoding covers answers (deltas, impact reports, batch stats),
//! session stats and errors. Methods cross the wire as the **paper
//! labels** (`N`, `R`, `R+DS`, `R+PS`, `R+PS+DS`) via `Method`'s
//! `FromStr`/`Display` round-trip; an unknown label is a 400 whose message
//! names the accepted set.
//!
//! Encoders build [`Json`] trees, except on the served batch path:
//! [`write_response_body`] writes a batch answer's bytes straight from the
//! `Response`, and [`encode_response`] stays as the tree it must match.
//!
//! Everything here is deterministic: objects encode in fixed field order,
//! so two encodings of equal answers are byte-identical — the property the
//! smoke tests use to compare a served batch against a local
//! `Session::execute`.

use std::time::Duration;

use mahif::{
    BatchStats, Budget, Error, ErrorKind, ImpactReport, ImpactSpec, Method, RefinePolicy, Response,
    ScenarioSpec, SessionStats,
};
use mahif_expr::{DataType, Value};
use mahif_history::{DatabaseDelta, History, Statement};
use mahif_storage::{Attribute, Database, Relation, Schema, Tuple};

use crate::admission::AdmissionSnapshot;
use crate::json::{write_escaped, write_int, Json};

/// A request the wire layer rejected before it reached the session: the
/// HTTP status to answer and the message to carry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// HTTP status code (400 unless stated otherwise).
    pub status: u16,
    /// Human-readable description.
    pub message: String,
}

impl WireError {
    fn bad_request(message: impl Into<String>) -> WireError {
        WireError {
            status: 400,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for WireError {}

// ---------------------------------------------------------------- decoding

/// A decoded `POST /histories/{name}` body: the initial database and the
/// transactional history to register.
#[derive(Debug)]
pub struct RegisterRequest {
    /// The initial database state `D`.
    pub initial: Database,
    /// The history `H` executed over it.
    pub history: History,
}

/// Decodes a registration body:
///
/// ```json
/// {
///   "relations": [
///     {"name": "Order",
///      "attributes": [{"name": "ID", "type": "int"}, ...],
///      "tuples": [[11, "Susan", ...], ...]},
///     ...
///   ],
///   "history": ["UPDATE Order SET ... WHERE ...", ...]
/// }
/// ```
///
/// Statements are SQL text parsed by `mahif_sqlparse::parse_statement`;
/// attribute types are `"int"`, `"str"` or `"bool"`.
///
/// This is the buffered convenience wrapper over
/// [`decode_register_stream`]; the server's registration route calls the
/// streaming form directly on the connection's body reader.
pub fn decode_register(body: &str) -> Result<RegisterRequest, WireError> {
    decode_register_stream(body.as_bytes())
}

fn stream_err(e: crate::json::JsonError) -> WireError {
    WireError::bad_request(e.to_string())
}

/// Decodes a registration body **incrementally** from `reader` — the same
/// document shape as [`decode_register`], but tuples flow from the wire
/// straight into the relation via a bounded [`crate::json::PullParser`],
/// so a multi-megabyte dataset is never materialized as a body string
/// *and* a JSON tree on top of the decoded database. The caller bounds
/// `reader` (`Take` over the connection) to the declared body length.
pub fn decode_register_stream<R: std::io::Read>(reader: R) -> Result<RegisterRequest, WireError> {
    let mut p = crate::json::PullParser::new(reader);
    let mut initial = Database::new();
    let mut history: Option<Vec<Statement>> = None;
    let mut saw_relations = false;
    p.begin_object().map_err(stream_err)?;
    while let Some(key) = p.next_key().map_err(stream_err)? {
        match key.as_str() {
            "relations" => {
                saw_relations = true;
                p.begin_array()
                    .map_err(|_| WireError::bad_request("missing 'relations' array"))?;
                while p.next_element().map_err(stream_err)? {
                    let rel = decode_relation_stream(&mut p)?;
                    initial
                        .add_relation(rel)
                        .map_err(|e| WireError::bad_request(e.to_string()))?;
                }
            }
            "history" => {
                p.begin_array()
                    .map_err(|_| WireError::bad_request("missing 'history' array"))?;
                let mut statements = Vec::new();
                while p.next_element().map_err(stream_err)? {
                    let i = statements.len();
                    let s = p.value().map_err(stream_err)?;
                    let text = s.as_str().ok_or_else(|| {
                        WireError::bad_request(format!("history[{i}] is not a string"))
                    })?;
                    statements.push(
                        mahif_sqlparse::parse_statement(text)
                            .map_err(|e| WireError::bad_request(format!("history[{i}]: {e}")))?,
                    );
                }
                history = Some(statements);
            }
            _ => p.skip_value().map_err(stream_err)?,
        }
    }
    p.end().map_err(stream_err)?;
    if !saw_relations {
        return Err(WireError::bad_request("missing 'relations' array"));
    }
    let statements = history.ok_or_else(|| WireError::bad_request("missing 'history' array"))?;
    Ok(RegisterRequest {
        initial,
        history: History::new(statements),
    })
}

/// Decodes one relation object from the stream. `tuples` must follow
/// `name` and `attributes`: each row is validated against the declared
/// schema and inserted as it is read, so a multi-megabyte tuple array
/// never exists as a buffered value tree. Accepting schema-after-tuples
/// would force exactly that buffering — an unbounded resident allocation
/// the (much larger) register body cap is documented not to allow — so
/// that order is a 400 instead.
fn decode_relation_stream<R: std::io::Read>(
    p: &mut crate::json::PullParser<R>,
) -> Result<Relation, WireError> {
    p.begin_object()
        .map_err(|_| WireError::bad_request("'relations' elements must be objects"))?;
    let mut name: Option<String> = None;
    let mut attributes: Option<Vec<Attribute>> = None;
    let mut rel: Option<Relation> = None;
    while let Some(key) = p.next_key().map_err(stream_err)? {
        match key.as_str() {
            "name" => {
                let v = p.value().map_err(stream_err)?;
                name = Some(
                    v.as_str()
                        .ok_or_else(|| WireError::bad_request("relation without a 'name'"))?
                        .to_string(),
                );
            }
            "attributes" => {
                // The attribute list is tiny; materialize and decode it.
                let v = p.value().map_err(stream_err)?;
                attributes = Some(decode_attributes(&v)?);
            }
            "tuples" => {
                let (n, attrs) = match (&name, &attributes) {
                    (Some(n), Some(attrs)) => (n.clone(), attrs.clone()),
                    _ => {
                        return Err(WireError::bad_request(
                            "relation 'tuples' must come after 'name' and 'attributes' \
                             (rows are streamed against the declared schema)",
                        ))
                    }
                };
                p.begin_array().map_err(|_| {
                    WireError::bad_request(format!("relation '{n}' tuples must be an array"))
                })?;
                let target =
                    rel.get_or_insert_with(|| Relation::empty(Schema::shared(&n, attrs.clone())));
                while p.next_element().map_err(stream_err)? {
                    let row = target.len();
                    let cells = p.value().map_err(stream_err)?;
                    insert_row(target, &cells, &n, row, &attrs)?;
                }
            }
            _ => p.skip_value().map_err(stream_err)?,
        }
    }
    let name = name.ok_or_else(|| WireError::bad_request("relation without a 'name'"))?;
    let attributes =
        attributes.ok_or_else(|| WireError::bad_request("relation without 'attributes'"))?;
    Ok(rel.unwrap_or_else(|| Relation::empty(Schema::shared(&name, attributes))))
}

/// Decodes the `attributes` array of a relation.
fn decode_attributes(v: &Json) -> Result<Vec<Attribute>, WireError> {
    v.as_array()
        .ok_or_else(|| WireError::bad_request("relation without 'attributes'"))?
        .iter()
        .map(|a| {
            let attr_name = a
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| WireError::bad_request("attribute without a 'name'"))?;
            let dtype = match a.get("type").and_then(Json::as_str) {
                Some("int") => DataType::Int,
                Some("str") => DataType::Str,
                Some("bool") => DataType::Bool,
                other => {
                    return Err(WireError::bad_request(format!(
                        "attribute '{attr_name}' has unknown type {other:?} (expected one of int, str, bool)"
                    )))
                }
            };
            Ok(Attribute::new(attr_name, dtype))
        })
        .collect()
}

/// Validates one row against the schema and inserts it.
fn insert_row(
    rel: &mut Relation,
    tuple: &Json,
    name: &str,
    row: usize,
    attributes: &[Attribute],
) -> Result<(), WireError> {
    let cells = tuple.as_array().ok_or_else(|| {
        WireError::bad_request(format!("relation '{name}' row {row} is not an array"))
    })?;
    if cells.len() != attributes.len() {
        return Err(WireError::bad_request(format!(
            "relation '{name}' row {row} has {} values for {} attributes",
            cells.len(),
            attributes.len()
        )));
    }
    let values = cells
        .iter()
        .zip(attributes)
        .map(|(cell, attr)| decode_value(cell, name, row, attr))
        .collect::<Result<Vec<_>, WireError>>()?;
    rel.insert(Tuple::new(values))
        .map_err(|e| WireError::bad_request(format!("relation '{name}' row {row}: {e}")))
}

/// Decodes one attribute value and checks it against the declared type —
/// a mistyped registration (e.g. the string `"50"` in an `int` column)
/// must fail here with a 400, not 201 and silently wrong answers later
/// (SQL comparisons between mismatched types evaluate to `NULL`).
fn decode_value(
    v: &Json,
    relation: &str,
    row: usize,
    attr: &Attribute,
) -> Result<Value, WireError> {
    let value = match v {
        Json::Int(i) => Value::Int(*i),
        Json::Str(s) => Value::str(s),
        Json::Bool(b) => Value::Bool(*b),
        Json::Null => Value::Null,
        other => {
            return Err(WireError::bad_request(format!(
                "unsupported attribute value {other}"
            )))
        }
    };
    let matches = matches!(
        (&value, attr.dtype),
        (Value::Null, _)
            | (Value::Int(_), DataType::Int)
            | (Value::Str(_), DataType::Str)
            | (Value::Bool(_), DataType::Bool)
    );
    if !matches {
        return Err(WireError::bad_request(format!(
            "relation '{relation}' row {row}: value {v} does not match the declared type {:?} of attribute '{}'",
            attr.dtype, attr.name
        )));
    }
    Ok(value)
}

/// A decoded `POST /histories/{name}/batch` body, ready to be turned into a
/// fluent request against the session.
#[derive(Debug)]
pub struct BatchRequest {
    /// Named scenarios (what-if scripts, already parsed).
    pub scenarios: Vec<ScenarioSpec>,
    /// Execution method (paper label; defaults to `R+PS+DS`).
    pub method: Method,
    /// Per-request budget (unlimited unless given).
    pub budget: Budget,
    /// Optional `SUM(attribute)` impact spec.
    pub impact: Option<ImpactSpec>,
    /// Worker threads (`0` = auto).
    pub parallelism: usize,
    /// Slice-refinement policy override, when given.
    pub refine: Option<RefinePolicy>,
    /// Static-analyzer ablation: `false` disables admission pre-validation
    /// and no-op proofs.
    pub analyzer: bool,
}

/// Decodes a batch body:
///
/// ```json
/// {
///   "method": "R+PS+DS",
///   "scenarios": [
///     {"name": "t60",
///      "whatif": "REPLACE STATEMENT 1 WITH UPDATE Order SET ShippingFee = 0 WHERE Price >= 60"}
///   ],
///   "budget": {"max_scenarios": 64, "max_solver_calls": 10000, "deadline_ms": 2000},
///   "impact": {"relation": "Order", "attribute": "ShippingFee"},
///   "parallelism": 0,
///   "refine": "auto",
///   "analyzer": true
/// }
/// ```
///
/// Only `scenarios` is required; unknown top-level fields are ignored.
/// Statement numbers in what-if scripts are 1-based, like
/// `mahif_sqlparse::parse_whatif` documents.
pub fn decode_batch(body: &str) -> Result<BatchRequest, WireError> {
    let doc = Json::parse(body).map_err(|e| WireError::bad_request(e.to_string()))?;
    let method = match doc.get("method") {
        None => Method::ReenactPsDs,
        Some(m) => {
            let label = m
                .as_str()
                .ok_or_else(|| WireError::bad_request("'method' must be a string label"))?;
            // The paper-label round-trip surface: `FromStr` accepts exactly
            // the figure labels (plus long-name aliases) and its error
            // already names the accepted set.
            label
                .parse::<Method>()
                .map_err(|e| WireError::bad_request(e.kind.to_string()))?
        }
    };
    let scenarios = doc
        .get("scenarios")
        .and_then(Json::as_array)
        .ok_or_else(|| WireError::bad_request("missing 'scenarios' array"))?
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let name = match s.get("name") {
                None => format!("scenario-{i}"),
                Some(n) => n
                    .as_str()
                    .ok_or_else(|| {
                        WireError::bad_request(format!("scenarios[{i}].name is not a string"))
                    })?
                    .to_string(),
            };
            let script = s
                .get("whatif")
                .and_then(Json::as_str)
                .ok_or_else(|| {
                    WireError::bad_request(format!(
                        "scenarios[{i}] has no 'whatif' script (e.g. \"REPLACE STATEMENT 1 WITH UPDATE ...\")"
                    ))
                })?;
            let modifications = mahif_sqlparse::parse_whatif(script)
                .map_err(|e| WireError::bad_request(format!("scenario '{name}': {e}")))?;
            Ok(ScenarioSpec::new(name, modifications))
        })
        .collect::<Result<Vec<_>, WireError>>()?;

    let mut budget = Budget::unlimited();
    if let Some(b) = doc.get("budget") {
        if let Some(n) = b.get("max_scenarios") {
            budget.max_scenarios = Some(require_count(n, "budget.max_scenarios")?);
        }
        if let Some(n) = b.get("max_solver_calls") {
            budget.max_solver_calls = Some(require_count(n, "budget.max_solver_calls")?);
        }
        if let Some(n) = b.get("deadline_ms") {
            let ms = require_count(n, "budget.deadline_ms")?;
            budget.deadline = Some(Duration::from_millis(ms as u64));
        }
    }

    let impact = match doc.get("impact") {
        None => None,
        Some(spec) => {
            let relation = spec
                .get("relation")
                .and_then(Json::as_str)
                .ok_or_else(|| WireError::bad_request("impact without a 'relation'"))?;
            let attribute = spec
                .get("attribute")
                .and_then(Json::as_str)
                .ok_or_else(|| WireError::bad_request("impact without an 'attribute'"))?;
            Some(ImpactSpec::sum_of(relation, attribute))
        }
    };

    let parallelism = match doc.get("parallelism") {
        None => 0,
        Some(n) => require_count(n, "parallelism")?,
    };
    let refine = match doc.get("refine").map(|r| (r, r.as_str())) {
        None => None,
        Some((_, Some("auto"))) => Some(RefinePolicy::auto()),
        Some((_, Some("always"))) => Some(RefinePolicy::Always),
        Some((_, Some("never"))) => Some(RefinePolicy::Never),
        Some((other, _)) => {
            return Err(WireError::bad_request(format!(
                "unknown refine policy {other} (expected one of auto, always, never)"
            )))
        }
    };
    let analyzer = decode_flag(&doc, "analyzer", true)?;
    Ok(BatchRequest {
        scenarios,
        method,
        budget,
        impact,
        parallelism,
        refine,
        analyzer,
    })
}

fn require_count(v: &Json, field: &str) -> Result<usize, WireError> {
    v.as_u64()
        .map(|n| n as usize)
        .ok_or_else(|| WireError::bad_request(format!("'{field}' must be a non-negative integer")))
}

fn decode_flag(doc: &Json, field: &str, default: bool) -> Result<bool, WireError> {
    match doc.get(field) {
        None => Ok(default),
        Some(v) => v
            .as_bool()
            .ok_or_else(|| WireError::bad_request(format!("'{field}' must be a boolean"))),
    }
}

// ---------------------------------------------------------------- encoding

fn encode_value(v: &Value) -> Json {
    match v {
        Value::Int(i) => Json::Int(*i),
        Value::Str(s) => Json::str(s.as_ref()),
        Value::Bool(b) => Json::Bool(*b),
        Value::Null => Json::Null,
    }
}

fn encode_tuple(t: &Tuple) -> Json {
    Json::Arr(t.values.iter().map(encode_value).collect())
}

/// Encodes a delta as per-relation `inserted` / `deleted` tuple arrays plus
/// the total annotated-tuple count.
pub fn encode_delta(delta: &DatabaseDelta) -> Json {
    let relations = delta
        .relations
        .iter()
        .map(|r| {
            Json::obj([
                ("relation", Json::str(r.relation.clone())),
                (
                    "inserted",
                    Json::Arr(r.plus_tuples().iter().map(encode_tuple).collect()),
                ),
                (
                    "deleted",
                    Json::Arr(r.minus_tuples().map(encode_tuple).collect()),
                ),
            ])
        })
        .collect();
    Json::obj([
        ("relations", Json::Arr(relations)),
        ("tuples", Json::Int(delta.len() as i64)),
    ])
}

fn encode_impact(report: &ImpactReport) -> Json {
    Json::obj([
        ("relation", Json::str(report.relation.clone())),
        ("metric", Json::str(report.metric_name.clone())),
        ("baseline", report.baseline.map_or(Json::Null, Json::Int)),
        ("plus_total", Json::Int(report.overall.plus_total)),
        ("minus_total", Json::Int(report.overall.minus_total)),
        ("rows_added", Json::Int(report.overall.rows_added as i64)),
        (
            "rows_removed",
            Json::Int(report.overall.rows_removed as i64),
        ),
        ("net_change", Json::Int(report.net_change())),
    ])
}

fn millis(d: Duration) -> Json {
    Json::Float(d.as_secs_f64() * 1e3)
}

fn encode_batch_stats(stats: &BatchStats) -> Json {
    Json::obj([
        ("scenarios", Json::Int(stats.scenarios as i64)),
        ("threads", Json::Int(stats.threads as i64)),
        ("slice_groups", Json::Int(stats.slice_groups as i64)),
        (
            "shared_slice_hits",
            Json::Int(stats.shared_slice_hits as i64),
        ),
        (
            "original_reenactments",
            Json::Int(stats.original_reenactments as i64),
        ),
        ("refined_slices", Json::Int(stats.refined_slices as i64)),
        ("solver_calls", Json::Int(stats.solver_calls as i64)),
        (
            "delta_tuples_deduped",
            Json::Int(stats.delta_tuples_deduped as i64),
        ),
        ("columnar_batches", Json::Int(stats.columnar_batches as i64)),
        (
            "vectorized_predicates",
            Json::Int(stats.vectorized_predicates as i64),
        ),
        ("row_fallbacks", Json::Int(stats.row_fallbacks as i64)),
        ("normalize_ms", millis(stats.normalize)),
        ("slicing_ms", millis(stats.slicing)),
        ("group_reenactment_ms", millis(stats.group_reenactment)),
        ("execution_ms", millis(stats.execution)),
        ("total_ms", millis(stats.total)),
        (
            "plan_relations",
            Json::Arr(
                stats
                    .plan_relations
                    .iter()
                    .map(|(relation, duration)| {
                        Json::obj([
                            ("relation", Json::str(relation.clone())),
                            ("ms", millis(*duration)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Encodes a full batch answer. The `scenarios` array — name, delta,
/// optional impact — is deterministic and timing-free, so two equal
/// answers encode byte-identically; `stats` carries the wall-clock fields.
///
/// This tree is the reference encoding: the server writes the same bytes
/// with [`write_response_body`], and tests and oracles compare against
/// this.
pub fn encode_response(response: &Response) -> Json {
    let scenarios = response
        .scenarios
        .iter()
        .map(|s| {
            let mut fields = vec![
                ("name".to_string(), Json::str(s.name.clone())),
                ("delta".to_string(), encode_delta(&s.answer.delta)),
            ];
            if let Some(report) = &s.impact {
                fields.push(("impact".to_string(), encode_impact(report)));
            }
            Json::Obj(fields)
        })
        .collect();
    Json::obj([
        ("history", Json::str(response.history.clone())),
        ("method", Json::str(response.method.label())),
        ("scenarios", Json::Arr(scenarios)),
        ("stats", encode_batch_stats(&response.stats)),
    ])
}

/// Appends the body of a 200 batch answer to `out`: the bytes of
/// `encode_response(response).to_string()`, written straight from the
/// response through the same escape and integer primitives, with no
/// [`Json`] tree in between. A large answer is millions of values; a tree
/// holds one `Vec` per tuple and one `String` per string value, and
/// building and dropping it cost more than writing it. Only the small
/// `impact` and `stats` objects go through their tree encoders.
pub fn write_response_body(response: &Response, out: &mut String) {
    out.push_str("{\"history\":");
    write_escaped(out, &response.history);
    out.push_str(",\"method\":");
    write_escaped(out, response.method.label());
    out.push_str(",\"scenarios\":[");
    for (i, s) in response.scenarios.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        write_escaped(out, &s.name);
        out.push_str(",\"delta\":");
        write_delta(&s.answer.delta, out);
        if let Some(report) = &s.impact {
            out.push_str(",\"impact\":");
            encode_impact(report).write_into(out);
        }
        out.push('}');
    }
    out.push_str("],\"stats\":");
    encode_batch_stats(&response.stats).write_into(out);
    out.push('}');
}

/// [`encode_delta`]'s bytes, written from the delta's tuples.
fn write_delta(delta: &DatabaseDelta, out: &mut String) {
    out.push_str("{\"relations\":[");
    for (i, r) in delta.relations.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"relation\":");
        write_escaped(out, &r.relation);
        out.push_str(",\"inserted\":");
        write_tuples(r.plus_tuples(), out);
        out.push_str(",\"deleted\":");
        write_tuples(r.minus_tuples(), out);
        out.push('}');
    }
    out.push_str("],\"tuples\":");
    write_int(out, delta.len() as i64);
    out.push('}');
}

/// One annotation's tuples, in delta order, as an array of value arrays.
fn write_tuples<'a>(tuples: impl IntoIterator<Item = &'a Tuple>, out: &mut String) {
    out.push('[');
    for (i, t) in tuples.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        for (j, v) in t.values.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            match v {
                Value::Int(n) => write_int(out, *n),
                Value::Str(s) => write_escaped(out, s),
                Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
                Value::Null => out.push_str("null"),
            }
        }
        out.push(']');
    }
    out.push(']');
}

/// The reactor's connection-state mirror served under `"connections"` in
/// `GET /stats` — sampled from the same gauge cells `/metrics` renders as
/// `mahif_connections{state=...}`, so the two endpoints agree.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConnectionsSnapshot {
    /// Connections currently open on the reactor.
    pub open: i64,
    /// Parked between requests under the keep-alive deadline.
    pub idle: i64,
    /// Receiving a request or executing one on a worker.
    pub active: i64,
    /// Flushing a response.
    pub writing: i64,
}

/// Encodes the session counter snapshot plus the admission controller's
/// and connection reactor's current state for `GET /stats`. The admission
/// numbers are the same live cells `/metrics` scrapes (the shed counter
/// is adopted into the registry), so the two endpoints agree.
pub fn encode_session_stats(
    stats: &SessionStats,
    admission: &AdmissionSnapshot,
    connections: &ConnectionsSnapshot,
) -> Json {
    Json::obj([
        ("histories", Json::Int(stats.histories as i64)),
        (
            "version_chains_built",
            Json::Int(stats.version_chains_built as i64),
        ),
        ("requests", Json::Int(stats.requests as i64)),
        (
            "scenarios_answered",
            Json::Int(stats.scenarios_answered as i64),
        ),
        ("slices_computed", Json::Int(stats.slices_computed as i64)),
        ("slices_shared", Json::Int(stats.slices_shared as i64)),
        (
            "original_reenactments",
            Json::Int(stats.original_reenactments as i64),
        ),
        ("refined_slices", Json::Int(stats.refined_slices as i64)),
        (
            "delta_tuples_deduped",
            Json::Int(stats.delta_tuples_deduped as i64),
        ),
        // The provisioning cache (see `mahif::provision`): these read the
        // very cells `/metrics` exposes as `mahif_plan_cache_*`, so the two
        // endpoints agree by construction.
        ("plan_cache_hits", Json::Int(stats.plan_cache_hits as i64)),
        (
            "plan_cache_misses",
            Json::Int(stats.plan_cache_misses as i64),
        ),
        (
            "plan_cache_evictions",
            Json::Int(stats.plan_cache_evictions as i64),
        ),
        (
            "plan_cache_entries",
            Json::Int(stats.plan_cache_entries as i64),
        ),
        // The columnar reenactment path: same single-cell contract as the
        // plan-cache values above.
        ("columnar_batches", Json::Int(stats.columnar_batches as i64)),
        (
            "vectorized_predicates",
            Json::Int(stats.vectorized_predicates as i64),
        ),
        ("row_fallbacks", Json::Int(stats.row_fallbacks as i64)),
        // Registration's columnar `H(D)`: same single-cell contract.
        (
            "register_row_fallbacks",
            Json::Int(stats.register_row_fallbacks as i64),
        ),
        // The static analyzer: same single-cell contract again —
        // rejections happen on requests that never commit counters, so
        // both endpoints read the analyzer's atomic cells.
        (
            "analyzer_rejections",
            Json::Int(stats.analyzer_rejections as i64),
        ),
        (
            "analyzer_noop_proofs",
            Json::Int(stats.analyzer_noop_proofs as i64),
        ),
        (
            "admission",
            Json::obj([
                ("in_flight", Json::Int(admission.in_flight as i64)),
                ("queued", Json::Int(admission.queued as i64)),
                ("max_in_flight", Json::Int(admission.max_in_flight as i64)),
                ("max_queued", Json::Int(admission.max_queued as i64)),
                ("shed_total", Json::Int(admission.shed_total as i64)),
            ]),
        ),
        (
            "connections",
            Json::obj([
                ("open", Json::Int(connections.open)),
                ("idle", Json::Int(connections.idle)),
                ("active", Json::Int(connections.active)),
                ("writing", Json::Int(connections.writing)),
            ]),
        ),
    ])
}

/// The HTTP status for an engine error: 404 for unknown histories, 409 for
/// duplicate registration, 422 for budget breaches, 400 for request
/// mistakes. Engine errors in the phases that only digest *client-supplied*
/// input — registering the client's history, building/normalizing the
/// client's what-if scripts (bad column names, out-of-range statement
/// numbers) — are 422, not 500: the server did nothing wrong. Failures in
/// the later engine phases are genuine 500s.
pub fn status_for(error: &Error) -> u16 {
    use mahif::Phase;
    match &error.kind {
        ErrorKind::UnknownHistory(_) => 404,
        ErrorKind::DuplicateHistory(_) => 409,
        ErrorKind::BudgetExceeded(_) => 422,
        ErrorKind::UnknownMethod(_)
        | ErrorKind::InvalidWhatIfScript(_)
        | ErrorKind::EmptyRequest
        | ErrorKind::DuplicateScenario(_)
        | ErrorKind::Analysis(_) => 400,
        // Expression and storage faults — unknown attributes, type
        // mismatches, arity errors — are always triggered by the
        // client-supplied scripts, even when they only surface
        // mid-reenactment (e.g. with the analyzer disabled): 422, never a
        // 500 blaming the server. Query errors wrapping the same two
        // faults get the same treatment; the structural query variants
        // (union compatibility, ambiguous joins) stay engine bugs.
        ErrorKind::Expr(_) | ErrorKind::Storage(_) => 422,
        ErrorKind::Query(mahif::QueryError::Expr(_) | mahif::QueryError::Storage(_)) => 422,
        _ => match error.phase {
            Some(Phase::Register | Phase::Build | Phase::Admission | Phase::Normalize) => 422,
            _ => 500,
        },
    }
}

fn kind_slug(kind: &ErrorKind) -> &'static str {
    match kind {
        ErrorKind::History(_) => "history",
        ErrorKind::Storage(_) => "storage",
        ErrorKind::Query(_) => "query",
        ErrorKind::Slicing(_) => "slicing",
        ErrorKind::Expr(_) => "expr",
        ErrorKind::Symbolic(_) => "symbolic",
        ErrorKind::InvalidWhatIfScript(_) => "invalid_whatif_script",
        ErrorKind::UnknownHistory(_) => "unknown_history",
        ErrorKind::DuplicateHistory(_) => "duplicate_history",
        ErrorKind::DuplicateScenario(_) => "duplicate_scenario",
        ErrorKind::UnknownMethod(_) => "unknown_method",
        ErrorKind::EmptyRequest => "empty_request",
        ErrorKind::BudgetExceeded(_) => "budget_exceeded",
        ErrorKind::WorkerPanicked => "worker_panicked",
        ErrorKind::Analysis(_) => "analysis",
        _ => "other",
    }
}

/// Encodes an engine error, keeping its structure: the kind slug, phase,
/// scenario/history context and — for budget breaches — the limit and
/// observed value as numbers.
pub fn encode_error(error: &Error) -> Json {
    let mut fields = vec![
        ("error".to_string(), Json::str(error.to_string())),
        ("kind".to_string(), Json::str(kind_slug(&error.kind))),
    ];
    if let Some(phase) = error.phase {
        fields.push(("phase".to_string(), Json::str(phase.to_string())));
    }
    if let Some(scenario) = &error.scenario {
        fields.push(("scenario".to_string(), Json::str(scenario.clone())));
    }
    if let Some(history) = &error.history {
        fields.push(("history".to_string(), Json::str(history.clone())));
    }
    if let ErrorKind::Analysis(analysis) = &error.kind {
        // Surface the offending relation/attribute as structured fields,
        // so clients fix the scenario without parsing message text.
        if let Some(relation) = analysis.relation() {
            fields.push(("relation".to_string(), Json::str(relation)));
        }
        if let Some(attribute) = analysis.attribute() {
            fields.push(("attribute".to_string(), Json::str(attribute)));
        }
    }
    if let ErrorKind::BudgetExceeded(breach) = &error.kind {
        use mahif::BudgetBreach;
        let breach = match breach {
            BudgetBreach::Scenarios { limit, requested } => Json::obj([
                ("kind", Json::str("scenarios")),
                ("limit", Json::Int(*limit as i64)),
                ("requested", Json::Int(*requested as i64)),
            ]),
            BudgetBreach::SolverCalls { limit, used } => Json::obj([
                ("kind", Json::str("solver_calls")),
                ("limit", Json::Int(*limit as i64)),
                ("used", Json::Int(*used as i64)),
            ]),
            BudgetBreach::Deadline { limit, elapsed } => Json::obj([
                ("kind", Json::str("deadline")),
                ("limit_ms", millis(*limit)),
                ("elapsed_ms", millis(*elapsed)),
            ]),
            _ => Json::str("unknown"),
        };
        fields.push(("breach".to_string(), breach));
    }
    Json::Obj(fields)
}

/// Encodes a plain wire-level error body.
pub fn encode_wire_error(error: &WireError) -> Json {
    Json::obj([("error", Json::str(error.message.clone()))])
}

#[cfg(test)]
mod tests {
    use super::*;
    use mahif::Session;
    use mahif_history::statement::{running_example_database, running_example_history};
    use mahif_history::History;

    fn register_body() -> String {
        // The running example of Figure 1, spelled on the wire.
        r#"{
          "relations": [
            {"name": "Order",
             "attributes": [
               {"name": "ID", "type": "int"},
               {"name": "Customer", "type": "str"},
               {"name": "Country", "type": "str"},
               {"name": "Price", "type": "int"},
               {"name": "ShippingFee", "type": "int"}
             ],
             "tuples": [
               [11, "Susan", "UK", 20, 5],
               [12, "Alex", "UK", 50, 5],
               [13, "Jack", "US", 60, 3],
               [14, "Mark", "US", 30, 4]
             ]}
          ],
          "history": [
            "UPDATE Order SET ShippingFee = 0 WHERE Price >= 50",
            "UPDATE Order SET ShippingFee = ShippingFee + 5 WHERE Country = 'UK' AND Price <= 100",
            "UPDATE Order SET ShippingFee = ShippingFee - 2 WHERE Price <= 30 AND ShippingFee >= 10"
          ]
        }"#
        .to_string()
    }

    #[test]
    fn register_body_reproduces_the_running_example() {
        let decoded = decode_register(&register_body()).unwrap();
        assert!(decoded.initial.set_eq(&running_example_database()));
        assert_eq!(decoded.history.len(), running_example_history().len());
        // Registering the decoded pair answers like the native session.
        let wire = Session::with_history("w", decoded.initial, decoded.history).unwrap();
        let native = Session::with_history(
            "n",
            running_example_database(),
            History::new(running_example_history()),
        )
        .unwrap();
        let a = wire
            .on("w")
            .sql("REPLACE STATEMENT 1 WITH UPDATE Order SET ShippingFee = 0 WHERE Price >= 60")
            .run()
            .unwrap();
        let b = native
            .on("n")
            .sql("REPLACE STATEMENT 1 WITH UPDATE Order SET ShippingFee = 0 WHERE Price >= 60")
            .run()
            .unwrap();
        assert_eq!(
            encode_delta(a.delta()).to_string(),
            encode_delta(b.delta()).to_string()
        );
    }

    #[test]
    fn streamed_registration_requires_schema_before_tuples() {
        // Rows stream against the declared schema; a body that puts
        // 'tuples' first would force buffering the whole array (the
        // memory bound streaming exists to avoid), so it is refused.
        let body = r#"{
          "relations": [{"name": "Order",
            "tuples": [[1]],
            "attributes": [{"name": "ID", "type": "int"}]}],
          "history": []}"#;
        let err = decode_register(body).unwrap_err();
        assert_eq!(err.status, 400);
        assert!(err.message.contains("must come after"), "{}", err.message);
        // Unknown keys anywhere in the object are still skipped.
        let body = r#"{
          "relations": [{"name": "Order", "comment": {"deep": [1, 2]},
            "attributes": [{"name": "ID", "type": "int"}],
            "tuples": [[1], [2]]}],
          "history": [], "extra": null}"#;
        let decoded = decode_register(body).unwrap();
        assert_eq!(decoded.initial.total_tuples(), 2);
    }

    #[test]
    fn batch_decoding_parses_method_scenarios_and_budget() {
        let body = r#"{
          "method": "r+ps+ds",
          "scenarios": [
            {"name": "t60", "whatif": "REPLACE STATEMENT 1 WITH UPDATE Order SET ShippingFee = 0 WHERE Price >= 60"},
            {"whatif": "DROP STATEMENT 2"}
          ],
          "budget": {"max_scenarios": 16, "deadline_ms": 250},
          "impact": {"relation": "Order", "attribute": "ShippingFee"},
          "parallelism": 2,
          "refine": "never"
        }"#;
        let batch = decode_batch(body).unwrap();
        assert_eq!(batch.method, Method::ReenactPsDs);
        assert_eq!(batch.scenarios.len(), 2);
        assert_eq!(batch.scenarios[0].name(), "t60");
        assert_eq!(batch.scenarios[1].name(), "scenario-1");
        assert_eq!(batch.budget.max_scenarios, Some(16));
        assert_eq!(batch.budget.deadline, Some(Duration::from_millis(250)));
        assert_eq!(batch.budget.max_solver_calls, None);
        assert!(batch.impact.is_some());
        assert_eq!(batch.parallelism, 2);
        assert_eq!(batch.refine, Some(RefinePolicy::Never));
    }

    #[test]
    fn retired_ablation_fields_are_ignored() {
        let plain = r#"{"scenarios": [{"name": "t60", "whatif": "DROP STATEMENT 2"}]}"#;
        let retired = r#"{"scenarios": [{"name": "t60", "whatif": "DROP STATEMENT 2"}],
          "slice_sharing": false, "group_reenactment": false}"#;
        assert_eq!(
            format!("{:?}", decode_batch(retired).unwrap()),
            format!("{:?}", decode_batch(plain).unwrap())
        );
    }

    #[test]
    fn unknown_method_label_is_a_400_naming_the_accepted_set() {
        let body = r#"{"method": "R+XX", "scenarios": [{"whatif": "DROP STATEMENT 1"}]}"#;
        let err = decode_batch(body).unwrap_err();
        assert_eq!(err.status, 400);
        assert!(err.message.contains("R+XX"), "{}", err.message);
        for label in ["N", "R", "R+DS", "R+PS", "R+PS+DS"] {
            assert!(err.message.contains(label), "{}: {}", label, err.message);
        }
        // Every accepted label round-trips through the wire field.
        for method in Method::all() {
            let body = format!(
                r#"{{"method": "{}", "scenarios": [{{"whatif": "DROP STATEMENT 1"}}]}}"#,
                method.label()
            );
            assert_eq!(decode_batch(&body).unwrap().method, method);
        }
    }

    #[test]
    fn error_encoding_keeps_budget_structure() {
        use mahif::{BudgetBreach, Phase};
        let error = Error::new(ErrorKind::BudgetExceeded(BudgetBreach::Scenarios {
            limit: 4,
            requested: 9,
        }))
        .in_phase(Phase::Admission)
        .on_history("retail");
        assert_eq!(status_for(&error), 422);
        let encoded = encode_error(&error);
        assert_eq!(
            encoded.get("kind").and_then(Json::as_str),
            Some("budget_exceeded")
        );
        let breach = encoded.get("breach").unwrap();
        assert_eq!(breach.get("kind").and_then(Json::as_str), Some("scenarios"));
        assert_eq!(breach.get("limit").and_then(Json::as_i64), Some(4));
        assert_eq!(breach.get("requested").and_then(Json::as_i64), Some(9));
        assert_eq!(
            encoded.get("history").and_then(Json::as_str),
            Some("retail")
        );
    }
}
