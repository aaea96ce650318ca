//! The HTTP server: reactor-driven connection handling, a pure-CPU worker
//! pool, routing, handlers.
//!
//! A [`Server`] binds a `TcpListener` over one shared `Arc<Session>` — the
//! concurrent service core — and answers:
//!
//! | route | effect |
//! |---|---|
//! | `POST /histories/{name}` | register a database + history (201) |
//! | `DELETE /histories/{name}` | unregister it (200) |
//! | `POST /histories/{name}/batch` | answer a scenario batch (200), admission-gated (429 on overload) |
//! | `GET /stats` | the session's consistent counter snapshot + admission + connection state |
//! | `GET /metrics` | the metrics registry in Prometheus text exposition format |
//! | `GET /debug/slow` | the slow-query ring: recent over-threshold request traces |
//! | `GET /healthz` | liveness (200 as long as the reactor runs) + uptime/build info |
//!
//! **One reactor thread owns every socket.** Accepted connections are
//! registered with an epoll poller (see the private `reactor` module and the
//! `mahif-net` crate); the reactor accumulates bytes per connection under
//! level-triggered readiness until the strict framing layer yields a
//! complete head + body, then hands the decoded request to a fixed pool
//! of [`ServeConfig::workers`] threads as a CPU job — decode, execute,
//! render — whose finished bytes queue back through write-readiness,
//! partial-write safe. A parked keep-alive connection therefore costs one
//! fd and its buffers: **no thread, no admission slot**. Concurrent
//! connections are bounded by [`ServeConfig::max_connections`] (shed with
//! a 503), not by the worker count, and HTTP/1.1 semantics are preserved:
//! default keep-alive, `Connection: close`, pipelined requests answered
//! strictly in order, [`ServeConfig::max_requests_per_connection`].
//!
//! **Timeouts are reactor-enforced deadlines** on a coarse timer wheel:
//! [`ServeConfig::keep_alive_timeout`] between requests,
//! [`ServeConfig::header_read_timeout`] from a request's first byte to
//! its complete head (fixed — a slow-loris dribble cannot extend it), and
//! [`ServeConfig::io_timeout`] as a progress deadline on body reads and
//! response writes.
//!
//! **Every request is traced.** The request clock starts when its first
//! byte arrives (idle keep-alive time never pollutes the trace), the id
//! comes from a safe client `X-Request-Id` or is generated, and the
//! worker records `parse` / `queue` / `read` / `decode` / `encode` /
//! `write` spans directly while the engine's own `PhaseTimings` are
//! grafted in afterwards (`plan.*`, `execute.*` — see
//! [`mahif::Response::trace_spans`]). Responses carry `X-Request-Id` and
//! `Server-Timing` headers built from the same spans; requests at or over
//! [`ServeConfig::slow_threshold`] are retained in the `/debug/slow`
//! ring, and [`ServeConfig::access_log`] emits one stderr line per
//! request. Metrics and logs are recorded *before* a response is handed
//! to the reactor, so a client holding an answer can already see it in
//! `/metrics`.
//!
//! Batch execution is gated by the [`AdmissionController`]: at most
//! `max_in_flight_batches` execute concurrently, at most
//! `max_queued_batches` wait, and everything beyond is shed with a 429 and
//! a `Retry-After` hint. Budgets ride inside the batch body and are
//! enforced by the session's admit → plan → execute lifecycle, surfacing
//! as structured 422 responses.

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mahif::{Budget, Response, Session};
use mahif_net::Waker;
use mahif_obs::{Counter, Gauge, Registry, SlowEntry, SlowLog, Trace};

use crate::admission::AdmissionController;
use crate::http::{frame_response, ConnectionDirective, Framed, RequestHead};
use crate::json::Json;
use crate::reactor::{self, Job};
use crate::wire::{self, ConnectionsSnapshot};

/// Largest unread body the server will drain to keep a connection alive
/// after an error response; anything bigger closes the connection instead
/// (hanging up is cheaper than reading megabytes nobody wants).
pub(crate) const DRAIN_CAP: u64 = 256 * 1024;

/// Server tunables.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Worker threads executing decoded requests (a pure CPU pool — no
    /// worker ever blocks on a socket, so this bounds concurrent request
    /// *execution*, not concurrent connections).
    pub workers: usize,
    /// Most connections the reactor will hold open at once; accepts
    /// beyond this are shed with a best-effort 503 and a hangup.
    pub max_connections: usize,
    /// Engine-heavy requests (batches *and* registrations) allowed to
    /// execute concurrently.
    pub max_in_flight_batches: usize,
    /// Engine-heavy requests allowed to wait for an execution slot;
    /// arrivals beyond this are answered 429 immediately.
    pub max_queued_batches: usize,
    /// Largest accepted request body on buffered routes (batches), in
    /// bytes (413 beyond).
    pub max_body_bytes: usize,
    /// Largest accepted `POST /histories/{name}` body, in bytes — a
    /// separate (much larger) cap than `max_body_bytes`, sized for
    /// dataset uploads.
    pub max_register_body_bytes: usize,
    /// Progress deadline *within* a request: a connection that makes no
    /// body-read or response-write progress for this long is closed.
    pub io_timeout: Duration,
    /// How long a keep-alive connection may sit idle *between* requests
    /// before the reactor closes it.
    pub keep_alive_timeout: Duration,
    /// Deadline from a request's **first byte** to its complete head.
    /// Fixed, not per-byte: a slow-loris client dribbling one header
    /// byte at a time is cut off after this long no matter how steadily
    /// it dribbles. Distinct from (and typically much longer than) the
    /// between-requests `keep_alive_timeout`.
    pub header_read_timeout: Duration,
    /// Requests served on one connection before the server closes it
    /// (bounds per-connection resource drift; clamped to at least 1).
    pub max_requests_per_connection: usize,
    /// Most histories the registry will hold; further registrations are
    /// shed with a 429 (memory is bounded even against clients that never
    /// `DELETE`).
    pub max_histories: usize,
    /// Operator-side ceiling merged over every batch's client-supplied
    /// [`mahif::Budget`] (field-wise stricter limit wins), so a client
    /// omitting its budget cannot monopolize an execution slot without
    /// bound. The default caps scenarios at 4096 and the wall clock at
    /// 60 s per batch.
    pub budget_ceiling: Budget,
    /// Emit one structured stderr line per request: target, request id,
    /// status, body bytes, queue/handle/total microseconds. Off by
    /// default (a load test at thousands of requests per second should
    /// not also be a stderr firehose).
    pub access_log: bool,
    /// Requests whose end-to-end wall clock reaches this threshold are
    /// retained (with their full span trace) in the `/debug/slow` ring.
    pub slow_threshold: Duration,
    /// How many slow requests the `/debug/slow` ring retains (oldest
    /// evicted first; clamped to at least 1).
    pub slow_log_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 8,
            max_connections: 10_000,
            max_in_flight_batches: 4,
            max_queued_batches: 16,
            max_body_bytes: 16 * 1024 * 1024,
            max_register_body_bytes: 256 * 1024 * 1024,
            io_timeout: Duration::from_secs(30),
            keep_alive_timeout: Duration::from_secs(5),
            header_read_timeout: Duration::from_secs(10),
            max_requests_per_connection: 256,
            max_histories: 64,
            budget_ceiling: Budget::unlimited()
                .with_max_scenarios(4096)
                .with_deadline(Duration::from_secs(60)),
            access_log: false,
            slow_threshold: Duration::from_millis(500),
            slow_log_capacity: 32,
        }
    }
}

/// The serve layer's own metric handles, all registered in (or adopted
/// by) the shared [`Registry`] so one `/metrics` scrape covers them.
/// Counters and gauges are live atomic cells — recording on the request
/// path is lock-free; only the per-`(route, status)` request counter
/// lookup takes the registry's short-lived family lock.
#[derive(Debug)]
pub(crate) struct ServeMetrics {
    registry: Arc<Registry>,
    pub(crate) queue_seconds: Arc<mahif_obs::Histogram>,
    pub(crate) request_seconds: Arc<mahif_obs::Histogram>,
    pub(crate) connections_total: Arc<Counter>,
    pub(crate) connections_active: Arc<Gauge>,
    pub(crate) connections_shed_total: Arc<Counter>,
    /// `mahif_connections{state=...}`: the reactor's per-phase gauges.
    pub(crate) conn_idle: Arc<Gauge>,
    pub(crate) conn_active: Arc<Gauge>,
    pub(crate) conn_writing: Arc<Gauge>,
    pub(crate) reactor_wakeups_total: Arc<Counter>,
    pub(crate) reactor_timer_expirations_total: Arc<Counter>,
    pub(crate) epoll_wait_seconds: Arc<mahif_obs::Histogram>,
    pub(crate) admission_in_flight: Arc<Gauge>,
    pub(crate) admission_queued: Arc<Gauge>,
}

impl ServeMetrics {
    fn new(registry: &Arc<Registry>) -> ServeMetrics {
        let buckets = mahif_obs::default_latency_buckets();
        ServeMetrics {
            registry: Arc::clone(registry),
            queue_seconds: registry.histogram(
                "mahif_queue_seconds",
                "Time engine-heavy requests waited for an admission slot",
                &buckets,
            ),
            request_seconds: registry.histogram(
                "mahif_request_seconds",
                "End-to-end request wall clock, first byte to response written",
                &buckets,
            ),
            connections_total: registry.counter("mahif_connections_total", "Connections accepted"),
            connections_active: registry.gauge(
                "mahif_connections_active",
                "Connections currently open on the reactor",
            ),
            connections_shed_total: registry.counter(
                "mahif_connections_shed_total",
                "Connections shed with 503 because the open-connection cap was reached",
            ),
            conn_idle: registry.gauge_with(
                "mahif_connections",
                "Open connections by reactor state",
                &[("state", "idle")],
            ),
            conn_active: registry.gauge_with(
                "mahif_connections",
                "Open connections by reactor state",
                &[("state", "active")],
            ),
            conn_writing: registry.gauge_with(
                "mahif_connections",
                "Open connections by reactor state",
                &[("state", "writing")],
            ),
            reactor_wakeups_total: registry.counter(
                "mahif_reactor_wakeups_total",
                "Times the reactor's epoll_wait returned (events, wake, or timer)",
            ),
            reactor_timer_expirations_total: registry.counter(
                "mahif_reactor_timer_expirations_total",
                "Connections closed by a validated deadline (idle, header-read, or stall)",
            ),
            epoll_wait_seconds: registry.histogram(
                "mahif_reactor_epoll_wait_seconds",
                "Time the reactor blocked in epoll_wait per wakeup",
                &buckets,
            ),
            admission_in_flight: registry.gauge(
                "mahif_admission_in_flight",
                "Engine-heavy requests currently holding an execution slot",
            ),
            admission_queued: registry.gauge(
                "mahif_admission_queued",
                "Engine-heavy requests currently waiting for an execution slot",
            ),
        }
    }

    /// Bumps `mahif_requests_total{route,status}`.
    pub(crate) fn record_request(&self, route: &str, status: u16) {
        let status = status.to_string();
        self.registry
            .counter_with(
                "mahif_requests_total",
                "Requests answered, by route and response status",
                &[("route", route), ("status", &status)],
            )
            .inc();
    }

    /// The connection-state mirror `/stats` serves — read from the same
    /// adopted gauge cells `/metrics` scrapes, so the two views agree.
    fn connections_snapshot(&self) -> ConnectionsSnapshot {
        ConnectionsSnapshot {
            open: self.connections_active.get(),
            idle: self.conn_idle.get(),
            active: self.conn_active.get(),
            writing: self.conn_writing.get(),
        }
    }
}

/// State the reactor and every worker share.
#[derive(Debug)]
pub(crate) struct Shared {
    pub(crate) session: Arc<Session>,
    pub(crate) admission: Arc<AdmissionController>,
    pub(crate) config: ServeConfig,
    /// Serializes the `max_histories` capacity check with the registration
    /// it guards: without it, concurrent registrations could each pass the
    /// check and overshoot the bound together.
    pub(crate) registry_gate: Mutex<()>,
    pub(crate) registry: Arc<Registry>,
    pub(crate) metrics: ServeMetrics,
    pub(crate) slow: Arc<SlowLog>,
    pub(crate) started: Instant,
}

/// A bound (not yet serving) server. [`Server::spawn`] starts the reactor
/// on a background thread and returns the [`ServerHandle`] used to reach
/// and stop it.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
    shutdown: Arc<AtomicBool>,
    waker: Arc<Waker>,
}

impl Server {
    /// Binds the configured address over `session`.
    pub fn bind(session: Arc<Session>, config: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let admission =
            AdmissionController::new(config.max_in_flight_batches, config.max_queued_batches);
        let registry = Arc::new(Registry::new());
        // The engine's telemetry mirror and the admission shed counter are
        // *adopted*: `/metrics` scrapes the very cells `/stats` and the
        // 429 path write, so the two views agree by construction.
        session.metrics().register_into(&registry);
        registry.adopt_counter(
            "mahif_admission_shed_total",
            "Engine-heavy requests shed with 429 (slots and queue full)",
            admission.shed_counter(),
        );
        let metrics = ServeMetrics::new(&registry);
        let slow = Arc::new(SlowLog::new(
            config.slow_threshold,
            config.slow_log_capacity,
        ));
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                session,
                admission,
                config,
                registry_gate: Mutex::new(()),
                registry,
                metrics,
                slow,
                started: Instant::now(),
            }),
            shutdown: Arc::new(AtomicBool::new(false)),
            waker: Arc::new(Waker::new()?),
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The server's admission controller (shared; tests use this to occupy
    /// execution slots deterministically).
    pub fn admission(&self) -> Arc<AdmissionController> {
        Arc::clone(&self.shared.admission)
    }

    /// The served session.
    pub fn session(&self) -> Arc<Session> {
        Arc::clone(&self.shared.session)
    }

    /// The server's metrics registry (what `GET /metrics` renders).
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.shared.registry)
    }

    /// Runs the reactor on the calling thread until [`ServerHandle::stop`]
    /// flips the shutdown flag and wakes it. Sockets never leave the
    /// reactor; the worker pool it spawns executes decoded requests.
    pub fn serve(self) -> io::Result<()> {
        let Server {
            listener,
            shared,
            shutdown,
            waker,
        } = self;
        reactor::run(listener, shared, shutdown, waker)
    }

    /// Starts the reactor on a background thread.
    pub fn spawn(self) -> io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let shutdown = Arc::clone(&self.shutdown);
        let waker = Arc::clone(&self.waker);
        let admission = self.admission();
        let session = self.session();
        let registry = self.registry();
        let thread = std::thread::spawn(move || {
            let _ = self.serve();
        });
        Ok(ServerHandle {
            addr,
            shutdown,
            waker,
            thread,
            admission,
            session,
            registry,
        })
    }
}

/// A running server: its address plus the means to stop it.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    waker: Arc<Waker>,
    thread: JoinHandle<()>,
    admission: Arc<AdmissionController>,
    session: Arc<Session>,
    registry: Arc<Registry>,
}

impl ServerHandle {
    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's admission controller.
    pub fn admission(&self) -> Arc<AdmissionController> {
        Arc::clone(&self.admission)
    }

    /// The served session.
    pub fn session(&self) -> Arc<Session> {
        Arc::clone(&self.session)
    }

    /// The server's metrics registry — load drivers read server-side
    /// latency histograms from here without an HTTP round trip.
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.registry)
    }

    /// Stops the reactor (interrupting its `epoll_wait`) and joins its
    /// thread. Open connections are dropped; workers busy on a request
    /// finish it on their own time.
    pub fn stop(self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.waker.wake();
        let _ = self.thread.join();
    }
}

/// A response body plus its representation: the routes speak JSON except
/// `/metrics`, which is Prometheus text. A batch answer stays a
/// `Response` until the `encode` span writes it.
#[derive(Debug)]
enum Payload {
    Json(Json),
    Text(String),
    Batch(Box<Response>),
}

/// What a route decided: status, body, optional `Retry-After` hint.
#[derive(Debug)]
struct Reply {
    status: u16,
    payload: Payload,
    retry_after: Option<u64>,
}

impl Reply {
    fn json(status: u16, body: Json) -> Reply {
        Reply {
            status,
            payload: Payload::Json(body),
            retry_after: None,
        }
    }

    fn batch(response: Response) -> Reply {
        Reply {
            status: 200,
            payload: Payload::Batch(Box::new(response)),
            retry_after: None,
        }
    }

    fn text(status: u16, body: String) -> Reply {
        Reply {
            status,
            payload: Payload::Text(body),
            retry_after: None,
        }
    }

    fn retry(mut self, seconds: u64) -> Reply {
        self.retry_after = Some(seconds);
        self
    }
}

/// Per-request observability state, owned by the worker and threaded
/// through the handlers: the trace, the metrics route label, the
/// admission wait (when the route is gated), and the engine-side shape of
/// the work for the slow log.
#[derive(Debug)]
struct RequestCtx {
    trace: Trace,
    route: &'static str,
    queue: Option<Duration>,
    scenarios: usize,
    groups: usize,
    solver_calls: u64,
}

impl RequestCtx {
    /// Begins a request's context from its parsed head, clocked at its
    /// first byte.
    fn begin(head: &RequestHead, started: Instant) -> RequestCtx {
        let id = head
            .request_id
            .clone()
            .unwrap_or_else(mahif_obs::request_id);
        RequestCtx {
            trace: Trace::begin_at(id, format!("{} {}", head.method, head.path), started),
            route: route_label(head),
            queue: None,
            scenarios: 0,
            groups: 0,
            solver_calls: 0,
        }
    }
}

/// The route label used in `mahif_requests_total{route=...}` — a closed
/// vocabulary so the label set stays bounded no matter what paths clients
/// probe.
fn route_label(head: &RequestHead) -> &'static str {
    let segments = head.segments();
    match (head.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => "healthz",
        ("GET", ["stats"]) => "stats",
        ("GET", ["metrics"]) => "metrics",
        ("GET", ["debug", "slow"]) => "debug_slow",
        ("POST", ["histories", _]) => "register",
        ("DELETE", ["histories", _]) => "unregister",
        ("POST", ["histories", _, "batch"]) => "batch",
        _ => "other",
    }
}

/// Executes one fully-framed request on a worker thread and renders the
/// complete response bytes. The returned flag is `close`: whether the
/// reactor must hang up after writing them.
///
/// The request body arrives as the byte slice the reactor buffered —
/// workers never touch a socket. Registration bodies run through the same
/// incremental pull decoder as before (bounding the decoded *tree*, not
/// the wire bytes, which the reactor already capped per-route).
pub(crate) fn process_job(job: Job, shared: &Shared) -> (Framed, bool) {
    let Job {
        bytes,
        head_len,
        head,
        started,
        parse,
        read,
        keep_hint,
        remaining,
        ..
    } = job;
    let mut ctx = RequestCtx::begin(&head, started);
    ctx.trace.add_span("parse", Duration::ZERO, parse);
    if head.content_length > 0 {
        ctx.trace.add_span("read", parse, read);
    }
    let body = &bytes[head_len..];
    let is_register = {
        let segments = head.segments();
        head.method == "POST" && segments.len() == 2 && segments[0] == "histories"
    };
    let (reply, keep) = if is_register {
        register_reply(&head, body, shared, &mut ctx, keep_hint)
    } else {
        match std::str::from_utf8(body) {
            // The bytes arrived (framing is intact) but are not UTF-8.
            Err(_) => (
                Reply::json(
                    400,
                    Json::obj([("error", Json::str("malformed request: body is not UTF-8"))]),
                ),
                keep_hint,
            ),
            Ok(body) => (route(&head, body, shared, &mut ctx), keep_hint),
        }
    };
    render_response(reply, keep, remaining, shared, &mut ctx)
}

/// Renders the full response — status line, connection headers,
/// `X-Request-Id`, a `Server-Timing` built from the request's spans —
/// for the reactor to write, and records the request in the
/// metrics/access-log/slow-log sinks. The body is encoded once and handed
/// over as is: the head, which must precede it but depends on its length
/// and timing, is a buffer of its own. Returns `(framed, close)`.
fn render_response(
    reply: Reply,
    keep: bool,
    remaining: usize,
    shared: &Shared,
    ctx: &mut RequestCtx,
) -> (Framed, bool) {
    let Reply {
        status,
        payload,
        retry_after,
    } = reply;
    let body = ctx.trace.time("encode", || match payload {
        Payload::Json(json) => {
            let mut body = String::new();
            json.write_into(&mut body);
            body
        }
        Payload::Text(text) => text,
        Payload::Batch(response) => {
            let mut body = String::new();
            wire::write_response_body(&response, &mut body);
            body
        }
    });
    let mut extra: Vec<(&str, String)> = Vec::new();
    if matches!(status, 200) && ctx.route == "metrics" {
        // Prometheus text exposition, not the routes' default JSON.
        extra.push(("Content-Type", "text/plain; version=0.0.4".to_string()));
    }
    if let Some(seconds) = retry_after {
        extra.push(("Retry-After", seconds.to_string()));
    }
    extra.push(("X-Request-Id", ctx.trace.id().to_string()));
    // The header is built before the `write` span exists (it describes
    // the serialization that carries it), so `write` appears only in the
    // slow log's copy of the trace.
    extra.push(("Server-Timing", ctx.trace.server_timing()));
    let directive = if keep {
        ConnectionDirective::KeepAlive {
            timeout: shared.config.keep_alive_timeout,
            remaining,
        }
    } else {
        ConnectionDirective::Close
    };
    let body_len = body.len();
    // Framing cannot fail; the socket write is the reactor's, under its
    // own stall deadline.
    let framed = ctx
        .trace
        .time("write", || frame_response(status, body, &extra, directive));
    let total = ctx.trace.elapsed();
    shared.metrics.record_request(ctx.route, status);
    if let Some(queue) = ctx.queue {
        shared.metrics.queue_seconds.observe_duration(queue);
    }
    shared.metrics.request_seconds.observe_duration(total);
    if shared.config.access_log {
        let queue = ctx.queue.unwrap_or_default();
        eprintln!(
            "[access] {} id={} status={} bytes={} queue_us={} handle_us={} total_us={}",
            ctx.trace.target(),
            ctx.trace.id(),
            status,
            body_len,
            queue.as_micros(),
            total.saturating_sub(queue).as_micros(),
            total.as_micros(),
        );
    }
    shared.slow.record(SlowEntry::from_trace(
        &ctx.trace,
        status,
        total,
        ctx.scenarios,
        ctx.groups,
        ctx.solver_calls,
    ));
    (framed, !keep)
}

/// Renders the reactor-side 413 for a declared body over its route's cap
/// — fully traced and recorded like any worker response, just never
/// occupying a worker.
pub(crate) fn render_body_too_large(
    head: &RequestHead,
    cap: usize,
    keep: bool,
    remaining: usize,
    shared: &Shared,
    started: Instant,
    parse: Duration,
) -> Framed {
    let mut ctx = RequestCtx::begin(head, started);
    ctx.trace.add_span("parse", Duration::ZERO, parse);
    let body = Json::obj([(
        "error",
        Json::str(format!(
            "body of {} bytes exceeds the {cap}-byte limit",
            head.content_length
        )),
    )]);
    render_response(Reply::json(413, body), keep, remaining, shared, &mut ctx).0
}

/// Renders the reactor-side 400 for an untrustworthy request head.
/// Framing can no longer be trusted, so the response always closes; like
/// the pre-reactor path it carries no request id or timing headers (there
/// is no request to speak of), only the `(route="malformed", 400)`
/// metrics sample.
pub(crate) fn render_malformed(what: &str, shared: &Shared) -> Framed {
    shared.metrics.record_request("malformed", 400);
    let body = Json::obj([("error", Json::str(format!("malformed request: {what}")))]);
    frame_response(400, body.to_string(), &[], ConnectionDirective::Close)
}

/// Renders the 500 a worker answers with after `process_job` panics.
/// The handler's state is unknowable mid-panic, so the response always
/// closes; like the malformed 400 it carries no request id or timing
/// headers, only the `(route="panic", 500)` metrics sample.
pub(crate) fn render_worker_panic(shared: &Shared) -> Framed {
    shared.metrics.record_request("panic", 500);
    let body = Json::obj([("error", Json::str("internal server error"))]);
    frame_response(500, body.to_string(), &[], ConnectionDirective::Close)
}

/// Renders the 503 an over-cap connection is shed with.
pub(crate) fn render_overloaded_close() -> Framed {
    let body = Json::obj([(
        "error",
        Json::str("server overloaded: too many open connections"),
    )]);
    frame_response(
        503,
        body.to_string(),
        &[("Retry-After", "1".to_string())],
        ConnectionDirective::Close,
    )
}

/// The 429 body for a shed request.
fn overloaded(admission: &AdmissionController) -> Json {
    Json::obj([
        (
            "error",
            Json::str("server overloaded: execution slots and queue are full"),
        ),
        ("max_in_flight", Json::Int(admission.max_in_flight() as i64)),
        ("max_queued", Json::Int(admission.max_queued() as i64)),
    ])
}

/// Acquires an admission permit, recording the wait as the request's
/// `queue` span (the span exists even when admission is immediate — a
/// near-zero queue is itself a signal).
fn admit_traced(shared: &Shared, ctx: &mut RequestCtx) -> Option<crate::admission::Permit> {
    let start = ctx.trace.elapsed();
    let permit = shared.admission.admit();
    let waited = ctx.trace.elapsed().saturating_sub(start);
    ctx.trace.add_span("queue", start, waited);
    ctx.queue = Some(waited);
    permit
}

/// `POST /histories/{name}`: admission and capacity are checked before
/// any engine work — a shed registration costs its wire transfer but no
/// decode or execution — then the buffered body runs through the
/// incremental decoder straight into the relation store. The whole body
/// is in memory either way (the reactor framed it), so keeping the
/// connection never requires draining.
fn register_reply(
    head: &RequestHead,
    body: &[u8],
    shared: &Shared,
    ctx: &mut RequestCtx,
    keep_hint: bool,
) -> (Reply, bool) {
    let name = head.segments()[1].to_string();
    // The execution permit is held only while engine work (body decode +
    // history execution) runs, and released *before* the response is
    // rendered — so the slot is observably free the moment the client has
    // its answer, and a parked connection never pins one.
    let _permit = match admit_traced(shared, ctx) {
        Some(permit) => permit,
        None => {
            return (
                Reply::json(429, overloaded(&shared.admission)).retry(1),
                keep_hint,
            )
        }
    };
    // Check-then-register must be atomic, or concurrent registrations
    // could each pass the capacity check and overshoot `max_histories`
    // together.
    let _registry = shared.registry_gate.lock().expect("registry gate poisoned");
    if shared.session.len() >= shared.config.max_histories {
        let body = Json::obj([
            (
                "error",
                Json::str(format!(
                    "registry full: {} histories are registered (limit {}); DELETE one first",
                    shared.session.len(),
                    shared.config.max_histories
                )),
            ),
            (
                "max_histories",
                Json::Int(shared.config.max_histories as i64),
            ),
        ]);
        return (Reply::json(429, body), keep_hint);
    }
    let mut body_reader = body;
    let decoded = ctx
        .trace
        .time("decode", || wire::decode_register_stream(&mut body_reader));
    match decoded {
        Err(e) => (
            Reply::json(e.status, wire::encode_wire_error(&e)),
            keep_hint,
        ),
        Ok(decoded) => {
            // A successful decode consumed exactly the declared body (the
            // pull parser requires EOF). Describe the registration from
            // the decoded request itself — a post-register lookup could
            // race a concurrent DELETE of the same name.
            let statements = decoded.history.len();
            let initial_tuples = decoded.initial.total_tuples();
            // Timed without `Trace::time`: a closure returning the full
            // `Result<_, mahif::Error>` trips result_large_err.
            let exec_start = ctx.trace.elapsed();
            let registered =
                shared
                    .session
                    .register(name.to_string(), decoded.initial, decoded.history);
            let exec_end = ctx.trace.elapsed();
            ctx.trace
                .add_span("execute", exec_start, exec_end.saturating_sub(exec_start));
            match registered {
                Err(e) => (
                    Reply::json(wire::status_for(&e), wire::encode_error(&e)),
                    keep_hint,
                ),
                Ok(_) => {
                    let body = Json::obj([
                        ("history", Json::str(name)),
                        ("statements", Json::Int(statements as i64)),
                        ("versions", Json::Int(statements as i64 + 1)),
                        ("initial_tuples", Json::Int(initial_tuples as i64)),
                    ]);
                    (Reply::json(201, body), keep_hint)
                }
            }
        }
    }
}

/// Encodes one slow-log entry (spans as `{name, start_ms, dur_ms}`).
fn encode_slow_entry(entry: &SlowEntry) -> Json {
    let spans = entry
        .spans
        .iter()
        .map(|s| {
            Json::obj([
                ("name", Json::str(s.name.clone())),
                ("start_ms", Json::Float(s.start.as_secs_f64() * 1e3)),
                ("dur_ms", Json::Float(s.duration.as_secs_f64() * 1e3)),
            ])
        })
        .collect();
    Json::obj([
        ("id", Json::str(entry.id.clone())),
        ("target", Json::str(entry.target.clone())),
        ("status", Json::Int(entry.status as i64)),
        ("unix_ms", Json::Int(entry.unix_ms as i64)),
        ("total_ms", Json::Float(entry.total.as_secs_f64() * 1e3)),
        ("scenarios", Json::Int(entry.scenarios as i64)),
        ("groups", Json::Int(entry.groups as i64)),
        ("solver_calls", Json::Int(entry.solver_calls as i64)),
        ("spans", Json::Arr(spans)),
    ])
}

/// Dispatches one buffered request.
fn route(head: &RequestHead, body: &str, shared: &Shared, ctx: &mut RequestCtx) -> Reply {
    let session = &shared.session;
    let segments = head.segments();
    match (head.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => {
            let body = Json::obj([
                ("status", Json::str("ok")),
                ("histories", Json::Int(session.len() as i64)),
                (
                    "uptime_seconds",
                    Json::Int(shared.started.elapsed().as_secs() as i64),
                ),
                ("version", Json::str(env!("CARGO_PKG_VERSION"))),
                ("build", Json::str(env!("MAHIF_GIT_DESCRIBE"))),
            ]);
            Reply::json(200, body)
        }
        ("GET", ["stats"]) => {
            // The same consistent snapshot `Session::stats` returns — the
            // serve layer adds no second read path over the counters —
            // plus the admission controller's and the reactor's current
            // state.
            Reply::json(
                200,
                wire::encode_session_stats(
                    &session.stats(),
                    &shared.admission.snapshot(),
                    &shared.metrics.connections_snapshot(),
                ),
            )
        }
        ("GET", ["metrics"]) => {
            // Gauges sampled at scrape time; everything else is live.
            let snap = shared.admission.snapshot();
            shared
                .metrics
                .admission_in_flight
                .set(snap.in_flight as i64);
            shared.metrics.admission_queued.set(snap.queued as i64);
            Reply::text(200, shared.registry.render())
        }
        ("GET", ["debug", "slow"]) => {
            let entries = shared.slow.snapshot();
            let body = Json::obj([
                (
                    "threshold_ms",
                    Json::Float(shared.slow.threshold().as_secs_f64() * 1e3),
                ),
                ("capacity", Json::Int(shared.slow.capacity() as i64)),
                (
                    "entries",
                    Json::Arr(entries.iter().map(encode_slow_entry).collect()),
                ),
            ]);
            Reply::json(200, body)
        }
        ("DELETE", ["histories", name]) => match session.unregister(name) {
            Err(e) => Reply::json(wire::status_for(&e), wire::encode_error(&e)),
            Ok(()) => Reply::json(
                200,
                Json::obj([("history", Json::str((*name).to_string()))]),
            ),
        },
        ("POST", ["histories", name, "batch"]) => {
            // Request-level admission: the permit is held for exactly this
            // batch's execution and released with the response — a parked
            // keep-alive connection between requests holds no slot.
            let _permit = match admit_traced(shared, ctx) {
                Some(permit) => permit,
                None => return Reply::json(429, overloaded(&shared.admission)).retry(1),
            };
            let decoded = ctx.trace.time("decode", || wire::decode_batch(body));
            match decoded {
                Err(e) => Reply::json(e.status, wire::encode_wire_error(&e)),
                Ok(batch) => {
                    let mut req = session
                        .on((*name).to_string())
                        .method(batch.method)
                        // The operator ceiling wins over the client's
                        // budget field-wise; an omitted client budget
                        // therefore still runs under the ceiling.
                        .budget(batch.budget.capped_by(&shared.config.budget_ceiling))
                        .parallelism(batch.parallelism);
                    if let Some(policy) = batch.refine {
                        req = req.refine(policy);
                    }
                    if !batch.analyzer {
                        req = req.without_analyzer();
                    }
                    if let Some(spec) = batch.impact {
                        req = req.impact(spec);
                    }
                    let engine_start = ctx.trace.elapsed();
                    match req.run_batch(batch.scenarios) {
                        Err(e) => Reply::json(wire::status_for(&e), wire::encode_error(&e)),
                        Ok(response) => {
                            // Graft the engine's phase timings as child
                            // spans, offset to where the engine call sat
                            // in this request's own timeline.
                            for span in response.trace_spans(engine_start) {
                                ctx.trace.add_span(span.name, span.start, span.duration);
                            }
                            ctx.scenarios = response.stats.scenarios;
                            ctx.groups = response.stats.slice_groups;
                            ctx.solver_calls = response.stats.solver_calls as u64;
                            Reply::batch(response)
                        }
                    }
                }
            }
        }
        (_, ["healthz" | "stats" | "metrics"])
        | (_, ["debug", "slow"])
        | (_, ["histories", ..]) => Reply::json(
            405,
            Json::obj([("error", Json::str("method not allowed for this route"))]),
        ),
        _ => Reply::json(404, Json::obj([("error", Json::str("no such route"))])),
    }
}
