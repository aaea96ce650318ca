//! The load model: an in-process `mahif-serve` server on an ephemeral
//! loopback port and closed-loop keep-alive clients that each send their
//! next operation when the previous reply is fully read.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mahif::Session;
use mahif_serve::{ServeConfig, Server, ServerHandle};
use mahif_workload::serve_load::{HttpClient, HttpReply};

use crate::gen::{Op, Plan, Step, StepKind};
use crate::stats;

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Closed-loop clients of every workload: analysts wait for answers.
pub fn clients() -> usize {
    cores().min(2)
}

/// A running server and its address.
pub struct Served {
    pub handle: ServerHandle,
    pub addr: String,
}

/// Binds and spawns a default server (`workers = nproc`) over a default
/// session: plan cache on, default engine configuration.
pub fn start_server() -> Served {
    let config = ServeConfig {
        workers: cores(),
        ..ServeConfig::default()
    };
    let server = Server::bind(Arc::new(Session::new()), config).expect("bind ephemeral port");
    let handle = server.spawn().expect("spawn server");
    let addr = handle.addr().to_string();
    Served { handle, addr }
}

/// Starts a server and registers every history the workload needs over the
/// wire, returning the client-observed seconds that took.
fn set_up_once(plan: &Plan) -> (Served, f64) {
    let start = Instant::now();
    let served = start_server();
    let mut client = HttpClient::new(&served.addr);
    for step in &plan.setup {
        let reply = exchange(&mut client, plan, step).expect("registration request");
        assert_eq!(reply.status, 201, "registration failed: {}", reply.body);
    }
    (served, start.elapsed().as_secs_f64())
}

/// Sets the workload up on fresh servers — at least `min_repeats` times and
/// until a quarter second has gone into it, so that millisecond set-ups are
/// sampled often enough for a steady median — and keeps the last server for
/// the run. Returns it with the median set-up time.
pub fn set_up(plan: &Plan, min_repeats: usize) -> (Served, f64) {
    let mut times = Vec::new();
    loop {
        let (served, seconds) = set_up_once(plan);
        times.push(seconds);
        let enough =
            times.len() >= min_repeats && (times.iter().sum::<f64>() >= 0.25 || times.len() >= 64);
        if enough {
            return (served, stats::median(&times).expect("at least one set-up"));
        }
        served.handle.stop();
    }
}

/// Sends one step and reads the whole reply.
pub fn exchange(client: &mut HttpClient, plan: &Plan, step: &Step) -> std::io::Result<HttpReply> {
    let body = step.body.map(|b| plan.bodies[b].as_str());
    client.request(step.method(), &step.path, body, false)
}

/// What the server must answer to one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expect {
    pub status: u16,
    /// Length of the answer proper (see [`answer_len`]). Not known when a
    /// request is generated — computing it takes the oracle, ~25 ms a
    /// scenario — so it is learned: the first reply to a body fixes the
    /// length every later reply to the same body must have, and the oracle
    /// check verifies the content behind it for the checked bodies.
    pub len: Option<usize>,
}

/// The length of the part of a response body that equal answers encode
/// byte-identically: a 200 batch answer ends in a `stats` object of
/// wall-clock floats whose digits vary, so it counts up to that tail;
/// every other body counts whole.
pub fn deterministic_len(kind: StepKind, status: u16, body: &str) -> usize {
    if kind == StepKind::Batch && status == 200 {
        body.rfind(",\"stats\":{").unwrap_or(body.len())
    } else {
        body.len()
    }
}

/// The length by which replies to one body are compared: of a 200 batch
/// answer the deterministic length less the history's name, which the
/// answer spells once (a churn operation sends the same body to `t9` and
/// to `t10`).
pub fn answer_len(step: &Step, status: u16, deterministic_len: usize) -> usize {
    if step.kind == StepKind::Batch && status == 200 {
        deterministic_len.saturating_sub(step.history.len())
    } else {
        deterministic_len
    }
}

/// Whether a reply is the expected one: the expected status and, when the
/// length of the answer is known, that length. A 400 that was expected
/// passes; a 200 of the wrong length, a shed request (429/503) and any
/// other status do not.
pub fn judge(expect: Expect, status: u16, len: usize) -> bool {
    status == expect.status && expect.len.is_none_or(|want| want == len)
}

/// Judges `reply` to `step`, learning the answer length of the step's body
/// on its first expected reply and holding every later reply to it.
/// Returns whether the reply passes and its deterministic byte count.
pub fn settle(plan: &Plan, step: &Step, status: u16, body: &str) -> (bool, usize) {
    let bytes = deterministic_len(step.kind, status, body);
    let len = answer_len(step, status, bytes);
    // Only batch answers are held to a length: the reply to a registration
    // spells the history's name, which a churn operation changes each time.
    let slot = match (step.kind, step.body) {
        (StepKind::Batch, Some(b)) => Some(&plan.learned[b]),
        _ => None,
    };
    let known = slot.map_or(0, |s| s.load(Ordering::Relaxed));
    let expect = Expect {
        status: step.expect_status,
        len: known.checked_sub(1),
    };
    let mut ok = judge(expect, status, len);
    if let (true, 0, Some(slot)) = (ok, known, slot) {
        // Two clients may see a body first at once; the loser must agree.
        if let Err(other) = slot.compare_exchange(0, len + 1, Ordering::Relaxed, Ordering::Relaxed)
        {
            ok = other == len + 1;
        }
    }
    (ok, bytes)
}

/// What happened to one timed operation.
#[derive(Debug, Clone, Copy)]
pub struct Outcome {
    pub seconds: f64,
    /// Every step answered as expected.
    pub ok: bool,
    /// Deterministic response bytes of the steps that did.
    pub bytes: usize,
    /// Scenarios answered as expected.
    pub scenarios: usize,
}

fn run_op(client: &mut HttpClient, plan: &Plan, op: &Op) -> Outcome {
    let start = Instant::now();
    let mut outcome = Outcome {
        seconds: 0.0,
        ok: true,
        bytes: 0,
        scenarios: 0,
    };
    // A failed step does not stop the operation: the later steps (the
    // delete of a churn operation) still tidy up after it.
    for step in &op.steps {
        let judged =
            exchange(client, plan, step).map(|reply| settle(plan, step, reply.status, &reply.body));
        match judged {
            Ok((true, len)) => {
                outcome.bytes += len;
                outcome.scenarios += step.scenarios;
            }
            Ok((false, _)) | Err(_) => outcome.ok = false,
        }
    }
    outcome.seconds = start.elapsed().as_secs_f64();
    outcome
}

/// One measured window.
pub struct Window {
    pub outcomes: Vec<Outcome>,
    pub wall_seconds: f64,
    pub cpu_seconds: f64,
}

/// Runs operations `from..to` of the plan on `clients` closed-loop
/// connections. `give_up` is a safety net, not the end of the run: counts
/// end a run, and a box too slow to finish them by then stops taking new
/// operations and reports what it did.
pub fn run_window(
    addr: &str,
    plan: &Plan,
    from: usize,
    to: usize,
    clients: usize,
    give_up: Duration,
) -> Window {
    let cursor = AtomicUsize::new(from);
    let cpu_before = stats::cpu_seconds();
    let start = Instant::now();
    let outcomes: Vec<Outcome> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| {
                    let mut client = HttpClient::new(addr);
                    let mut mine = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= to || start.elapsed() >= give_up {
                            return mine;
                        }
                        mine.push(run_op(&mut client, plan, plan.op(i)));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("load client panicked"))
            .collect()
    });
    Window {
        outcomes,
        wall_seconds: start.elapsed().as_secs_f64(),
        cpu_seconds: stats::cpu_seconds() - cpu_before,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_expected_400_passes_and_a_200_of_the_wrong_length_fails() {
        let rejection = Expect {
            status: 400,
            len: Some(37),
        };
        assert!(judge(rejection, 400, 37));
        // The same request answered 200 is a failure, expected or not.
        assert!(!judge(rejection, 200, 37));

        let answer = Expect {
            status: 200,
            len: Some(1_000),
        };
        assert!(judge(answer, 200, 1_000));
        // Right status, wrong length: a tuple went missing.
        assert!(!judge(answer, 200, 990));
        // Shed requests and server errors never pass.
        for status in [429, 503, 500] {
            assert!(!judge(answer, status, 1_000));
        }
        // Until a length is known the status decides.
        let first = Expect {
            status: 200,
            len: None,
        };
        assert!(judge(first, 200, 990));
    }

    #[test]
    fn the_first_reply_to_a_body_fixes_the_length_of_later_ones() {
        let plan = Plan::generate(crate::spec::workload("interactive_light").unwrap(), 7, 0.01);
        let step = &plan.templates[0].steps[0];
        let reply = |scenarios: &str| {
            format!(
                r#"{{"history":"taxi","method":"R+PS+DS","scenarios":{scenarios},"stats":{{"total_ms":0.25}}}}"#
            )
        };
        assert!(settle(&plan, step, 200, &reply("[1,2]")).0);
        // Stats digits may differ freely; the answer may not.
        let slower = reply("[1,2]").replace("0.25", "117.03125");
        assert!(settle(&plan, step, 200, &slower).0);
        assert!(!settle(&plan, step, 200, &reply("[1]")).0);
        // A failed reply teaches nothing.
        let other = &plan.templates[1].steps[0];
        assert!(!settle(&plan, other, 500, "{}").0);
        assert!(settle(&plan, other, 200, &reply("[1,2,3]")).0);
    }

    #[test]
    fn lengths_stop_at_the_stats_tail_and_skip_the_name() {
        let body =
            r#"{"history":"t10","method":"R+PS+DS","scenarios":[],"stats":{"total_ms":1.5}}"#;
        let len = deterministic_len(StepKind::Batch, 200, body);
        assert_eq!(
            &body[..len],
            r#"{"history":"t10","method":"R+PS+DS","scenarios":[]"#
        );
        assert_eq!(deterministic_len(StepKind::Batch, 400, body), body.len());
        assert_eq!(deterministic_len(StepKind::Register, 201, body), body.len());
        // The same answer under a shorter name has the same answer length.
        let shorter = body.replace("t10", "t9");
        let under = |name: &str, body: &str| {
            let len = deterministic_len(StepKind::Batch, 200, body);
            answer_len(&Step::batch(name, 0, 200, 0), 200, len)
        };
        assert_eq!(under("t10", body), under("t9", &shorter));
    }
}
