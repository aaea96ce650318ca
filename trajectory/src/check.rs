//! The untimed correctness check: distinct requests answered over the wire
//! must equal, scenario by scenario, the naive oracle (Algorithm 1) and the
//! composed reference pipeline — as canonical sorted multisets of annotated
//! tuples.

use mahif::{EngineConfig, Session};
use mahif_serve::Json;
use mahif_workload::serve_load::HttpClient;

use crate::gen::{Plan, Step, StepKind};
use crate::load::{exchange, settle, Served};
use crate::trace::{canonical_delta, composed, Composition, Tracer};

/// The in-process twin of the server's batch route, used as the oracle:
/// decodes `body` and answers it with the naive method (Algorithm 1) on
/// `session`. Returns the status and the body the server must produce (of
/// a 200, only the `scenarios` array is meaningful).
fn oracle_reply(session: &Session, history: &str, body: &str) -> (u16, Json) {
    match mahif_serve::decode_batch(body) {
        Err(e) => (e.status, mahif_serve::wire::encode_wire_error(&e)),
        Ok(batch) => {
            match session
                .on(history)
                .method(mahif::Method::Naive)
                .run_batch(batch.scenarios)
            {
                Ok(response) => (200, mahif_serve::encode_response(&response)),
                Err(e) => (mahif_serve::status_for(&e), mahif_serve::encode_error(&e)),
            }
        }
    }
}

/// `(scenario name, canonical delta)` per scenario of a `scenarios` array.
fn canonical_scenarios(scenarios: &Json) -> Vec<(String, Vec<String>)> {
    scenarios
        .as_array()
        .unwrap_or(&[])
        .iter()
        .map(|s| {
            let name = s.get("name").and_then(Json::as_str).unwrap_or("?");
            let delta = s.get("delta").map(canonical_delta).unwrap_or_default();
            (name.to_string(), delta)
        })
        .collect()
}

/// Checks one batch reply against the oracle and the composed pipeline on
/// the server's own session.
fn check_batch(
    session: &Session,
    plan: &Plan,
    step: &Step,
    status: u16,
    body: &str,
) -> Result<(), String> {
    let request = &plan.bodies[step.body.expect("batch steps carry a body")];
    let wire = Json::parse(body).map_err(|e| format!("reply is not JSON: {e}"))?;
    let (oracle_status, oracle) = oracle_reply(session, &step.history, request);
    if oracle_status != status {
        return Err(format!("status {status}, the oracle says {oracle_status}"));
    }
    if status != 200 {
        // A rejection must name the attribute the analyzer objected to.
        let attribute = oracle
            .get("attribute")
            .and_then(Json::as_str)
            .ok_or("the oracle's rejection names no attribute")?;
        let named = wire.get("attribute").and_then(Json::as_str) == Some(attribute)
            && wire
                .get("error")
                .and_then(Json::as_str)
                .is_some_and(|message| message.contains(attribute));
        return named
            .then_some(())
            .ok_or_else(|| format!("the rejection does not name attribute '{attribute}': {body}"));
    }
    let served = canonical_scenarios(wire.get("scenarios").ok_or("reply without scenarios")?);
    let naive = canonical_scenarios(oracle.get("scenarios").expect("oracle scenarios"));
    if served != naive {
        return Err("delta differs from the naive oracle".to_string());
    }
    let registered = session.history(&step.history).map_err(|e| e.to_string())?;
    let batch = mahif_serve::decode_batch(request).map_err(|e| e.to_string())?;
    let composition = composed(
        &mut Tracer::disabled(),
        &registered,
        &batch.scenarios,
        &EngineConfig::default(),
    )
    .map_err(|e| e.to_string())?;
    let Composition::Answered(answered) = composition else {
        return Err("the composed pipeline rejected an answered request".to_string());
    };
    let reference: Vec<(String, Vec<String>)> = answered
        .deltas
        .iter()
        .map(|(name, delta)| {
            (
                name.clone(),
                canonical_delta(&mahif_serve::encode_delta(delta)),
            )
        })
        .collect();
    if served != reference {
        return Err("delta differs from the composed reference pipeline".to_string());
    }
    Ok(())
}

/// Runs the plan's check operations on one connection. Returns the number
/// of batch requests verified, or what went wrong first.
pub fn check(served: &Served, plan: &Plan) -> Result<usize, String> {
    let session = served.handle.session();
    let mut client = HttpClient::new(&served.addr);
    let mut verified = 0;
    for op in &plan.check {
        for step in &op.steps {
            let at = |what: String| format!("{} {}: {what}", step.method(), step.path);
            let reply = exchange(&mut client, plan, step).map_err(|e| at(e.to_string()))?;
            // The same judgement as in the timed window: the length the
            // timed replies to this body had is the length verified here.
            if !settle(plan, step, reply.status, &reply.body).0 {
                return Err(at(format!(
                    "status {} (expected {}) or a length other than earlier replies had",
                    reply.status, step.expect_status
                )));
            }
            if step.kind == StepKind::Batch {
                check_batch(&session, plan, step, reply.status, &reply.body).map_err(at)?;
                verified += 1;
            }
        }
    }
    Ok(verified)
}
