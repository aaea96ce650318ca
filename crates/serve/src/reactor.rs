//! The connection reactor: one thread, every socket.
//!
//! A single reactor thread owns the listener, an epoll [`Poller`], a
//! [`TimerWheel`], and the full connection table. It accumulates request
//! bytes per connection until the strict framing layer yields a complete
//! head + body, then hands the decoded request to the worker pool as a
//! [`Job`] — workers never touch a socket, so the pool is a pure CPU pool
//! and an idle keep-alive connection costs one fd plus its buffers, not a
//! parked thread. Finished responses come back as [`Completion`]s through
//! a mutex-guarded vector plus an eventfd [`Waker`] that interrupts
//! `epoll_wait`.
//!
//! # Per-connection state machine
//!
//! ```text
//!            first byte                head complete           body complete
//!   Idle ───────────────▶ Head ─────────────────────▶ Body ───────────────▶ Active
//!    ▲   (keep-alive t/o)      (header-read deadline)      (io deadline)       │
//!    │                                                                         │ worker
//!    │                     response fully written,                             ▼ completion
//!    └──────────────────── keep-alive, drain done ─────────────────────── Respond
//! ```
//!
//! - **Idle** waits for the next request under the keep-alive deadline.
//! - **Head** holds a *fixed* header-read deadline anchored at the
//!   request's first byte — dribbling one header byte per second never
//!   extends it, which is the slow-loris defense the old
//!   thread-per-connection loop lacked.
//! - **Body** re-arms an [`ServeConfig::io_timeout`] progress deadline on
//!   every chunk received.
//! - **Active** masks read interest entirely (level-triggered epoll would
//!   otherwise spin on pipelined bytes we are not ready to parse) and
//!   carries no deadline: request runtime is the budget layer's problem.
//! - **Respond** flushes the queued response under write-readiness,
//!   partial-write safe, optionally draining an unread request body first
//!   to restore framing.
//!
//! Reactor-side replies (malformed 400s, over-cap 413s, shed 503s) never
//! consume a worker; everything else is answered by [`process_job`] on
//! the pool, and per-connection ordering is preserved because the next
//! pipelined request is not dispatched until the previous response has
//! been fully written.
//!
//! [`ServeConfig::io_timeout`]: crate::server::ServeConfig::io_timeout

use std::collections::VecDeque;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use mahif_net::{read_available, Events, Interest, Poller, TimerWheel, Waker, WriteQueue};

use crate::http::{
    parse_head_buffered, write_continue, Framed, HttpError, RequestHead, MAX_HEAD_BYTES,
};
use crate::server::{
    process_job, render_body_too_large, render_malformed, render_overloaded_close,
    render_worker_panic, Shared, DRAIN_CAP,
};

/// Token for the listening socket (never a valid slab index).
const TOKEN_LISTENER: usize = usize::MAX;
/// Token for the worker-side waker eventfd.
const TOKEN_WAKER: usize = usize::MAX - 1;
/// Kernel events drained per `epoll_wait`.
const EVENTS_PER_WAIT: usize = 1024;
/// Read chunk cap while draining an unread rejected body.
const DRAIN_READ_CAP: usize = 64 * 1024;

/// A fully-framed request on its way to the worker pool.
#[derive(Debug)]
pub(crate) struct Job {
    /// Connection slab index the response must return to.
    pub token: usize,
    /// Guards against slab reuse: a completion for a dead generation is
    /// dropped instead of answering some later connection's client.
    pub generation: u64,
    /// The raw request: head bytes then exactly `content_length` body
    /// bytes (pipelined successors stay in the reactor's buffer).
    pub bytes: Vec<u8>,
    /// Where the body starts in `bytes`.
    pub head_len: usize,
    /// The parsed head.
    pub head: RequestHead,
    /// When the request's first byte arrived (the request clock).
    pub started: Instant,
    /// Time from first byte to complete head (the `parse` span).
    pub parse: Duration,
    /// Time from complete head to complete body (the `read` span).
    pub read: Duration,
    /// Whether HTTP semantics allow keeping the connection afterwards.
    pub keep_hint: bool,
    /// Requests left on this connection after this one (Keep-Alive `max`).
    pub remaining: usize,
}

/// A worker's finished response, queued back to the reactor.
#[derive(Debug)]
pub(crate) struct Completion {
    token: usize,
    generation: u64,
    framed: Framed,
    close: bool,
}

/// The bounded-by-connection-count handoff from reactor to workers.
/// Unbounded as a queue: at most one job per connection can be in flight
/// (the reactor masks reads while a request executes), so connection
/// admission is the real bound.
#[derive(Debug, Default)]
pub(crate) struct JobQueue {
    state: Mutex<(VecDeque<Job>, bool)>,
    available: Condvar,
}

impl JobQueue {
    fn push(&self, job: Job) {
        let mut state = self.state.lock().expect("job queue poisoned");
        state.0.push_back(job);
        drop(state);
        self.available.notify_one();
    }

    /// Blocks for the next job; `None` once closed and drained.
    fn pop(&self) -> Option<Job> {
        let mut state = self.state.lock().expect("job queue poisoned");
        loop {
            if let Some(job) = state.0.pop_front() {
                return Some(job);
            }
            if state.1 {
                return None;
            }
            state = self.available.wait(state).expect("job queue poisoned");
        }
    }

    fn close(&self) {
        self.state.lock().expect("job queue poisoned").1 = true;
        self.available.notify_all();
    }
}

/// What the reactor is waiting for on a connection. Phases map onto the
/// `mahif_connections{state=...}` gauges: `Idle` is *idle*, `Head`/`Body`/
/// `Active` are *active*, `Respond` is *writing*.
#[derive(Debug)]
enum Phase {
    /// Between requests, under the keep-alive deadline.
    Idle,
    /// Reading the request head, under the fixed header-read deadline.
    Head,
    /// Reading `need` total buffered bytes (head + declared body).
    Body {
        head: Box<RequestHead>,
        head_len: usize,
        need: usize,
        keep_hint: bool,
        remaining: usize,
        parse: Duration,
    },
    /// A worker owns the request; reads are masked, no deadline.
    Active,
    /// Flushing the response (and draining `drain` unread body bytes).
    Respond {
        close_after: bool,
        drain: u64,
        written: bool,
    },
}

/// Which gauge a phase belongs to.
fn phase_state(phase: &Phase) -> usize {
    match phase {
        Phase::Idle => 0,
        Phase::Head | Phase::Body { .. } | Phase::Active => 1,
        Phase::Respond { .. } => 2,
    }
}

/// Ordered chunks in a connection's write queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tag {
    /// A `100 Continue`, or a response's head queued ahead of its body —
    /// completing it changes nothing.
    Partial,
    /// The response's end; completing it settles the connection's fate.
    Response { close: bool },
}

/// Queues a framed response: its head, then its body (empty when the body
/// rode in the head), whose completion settles the connection.
fn queue_response(wq: &mut WriteQueue<Tag>, framed: Framed, close: bool) {
    wq.push(framed.head, Tag::Partial);
    wq.push(framed.body, Tag::Response { close });
}

/// One connection's reactor-side state.
#[derive(Debug)]
struct Conn {
    stream: TcpStream,
    generation: u64,
    /// Bytes read but not yet consumed (head-in-progress, body-in-progress,
    /// or pipelined successors).
    rbuf: Vec<u8>,
    wq: WriteQueue<Tag>,
    phase: Phase,
    /// Requests started on this connection (the per-connection cap).
    served: usize,
    /// The authoritative deadline; wheel entries are hints validated
    /// against this on expiry (lazy cancellation).
    deadline: Option<Instant>,
    /// When the current request's first byte arrived.
    started: Instant,
    /// Interest currently registered with the poller.
    interest: Interest,
}

/// Whether a connection survives an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fate {
    Keep,
    Gone,
}

/// Outcome of checking a `Respond` phase for completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Finish {
    /// Response, drain, or flush still outstanding.
    Pending,
    /// Response delivered with `Connection: close` (or undeliverable).
    Closed,
    /// Response delivered; the connection is `Idle` again and buffered
    /// pipelined bytes (if any) should be parsed now.
    NextRequest,
}

struct Reactor {
    shared: Arc<Shared>,
    poller: Poller,
    wheel: TimerWheel,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    open: usize,
    generation: u64,
    queue: Arc<JobQueue>,
    completions: Arc<Mutex<Vec<Completion>>>,
    waker: Arc<Waker>,
    /// Scratch for expired wheel entries (reused between ticks).
    expired: Vec<usize>,
}

/// Runs the reactor loop on the calling thread until `shutdown` flips
/// (use the waker to interrupt the wait). Spawns the worker pool;
/// workers exit when the job queue closes on return.
pub(crate) fn run(
    listener: TcpListener,
    shared: Arc<Shared>,
    shutdown: Arc<AtomicBool>,
    waker: Arc<Waker>,
) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    let poller = Poller::new()?;
    poller.add(listener.as_fd(), TOKEN_LISTENER, Interest::READABLE)?;
    poller.add(waker.as_fd(), TOKEN_WAKER, Interest::READABLE)?;
    let queue = Arc::new(JobQueue::default());
    let completions = Arc::new(Mutex::new(Vec::new()));
    for i in 0..shared.config.workers.max(1) {
        let queue = Arc::clone(&queue);
        let completions = Arc::clone(&completions);
        let waker = Arc::clone(&waker);
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name(format!("serve-worker-{i}"))
            .spawn(move || worker_loop(&queue, &completions, &waker, &shared))
            .expect("spawn serve worker");
    }
    let mut reactor = Reactor {
        shared,
        poller,
        wheel: TimerWheel::new(Instant::now()),
        conns: Vec::new(),
        free: Vec::new(),
        open: 0,
        generation: 0,
        queue: Arc::clone(&queue),
        completions,
        waker,
        expired: Vec::new(),
    };
    let mut events = Events::with_capacity(EVENTS_PER_WAIT);
    let result = loop {
        let timeout = reactor.wheel.next_timeout(Instant::now());
        let wait_started = Instant::now();
        if let Err(e) = reactor.poller.wait(&mut events, timeout) {
            break Err(e);
        }
        reactor
            .shared
            .metrics
            .epoll_wait_seconds
            .observe_duration(wait_started.elapsed());
        reactor.shared.metrics.reactor_wakeups_total.inc();
        if shutdown.load(Ordering::SeqCst) {
            break Ok(());
        }
        for event in events.iter() {
            match event.token {
                TOKEN_LISTENER => reactor.accept_ready(&listener),
                TOKEN_WAKER => reactor.waker.drain(),
                token => reactor.conn_event(token, event),
            }
        }
        // Applied once per loop (not per waker event): a completion that
        // raced past this wait's drain is still picked up, because its
        // wake leaves the eventfd readable for the next wait.
        reactor.apply_completions();
        reactor.tick_timers();
    };
    // Idle workers exit on the closed queue; busy workers finish their
    // current job on their own time (their completions go nowhere).
    queue.close();
    result
}

/// The worker loop: pure CPU — decode, execute, render — no sockets.
///
/// A panicking handler must not kill the worker (the pool would shrink
/// permanently) or strand its connection (reads are masked and no
/// deadline is armed while a worker owns the request, so nothing would
/// ever reap it). The unwind is caught here and turned into a closing
/// 500 completion.
fn worker_loop(
    queue: &JobQueue,
    completions: &Mutex<Vec<Completion>>,
    waker: &Waker,
    shared: &Shared,
) {
    while let Some(job) = queue.pop() {
        let token = job.token;
        let generation = job.generation;
        // Metrics, access log, and slow log are recorded inside
        // `process_job`, *before* the completion is queued — so by the
        // time a client holds the response, `/metrics` and `/debug/slow`
        // already reflect it.
        let (framed, close) =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| process_job(job, shared)))
                .unwrap_or_else(|_| (render_worker_panic(shared), true));
        completions
            .lock()
            .expect("completion queue poisoned")
            .push(Completion {
                token,
                generation,
                framed,
                close,
            });
        waker.wake();
    }
}

impl Reactor {
    fn keep_alive(&self) -> Duration {
        self.shared.config.keep_alive_timeout
    }

    fn io_timeout(&self) -> Duration {
        self.shared.config.io_timeout
    }

    fn state_gauge(&self, state: usize) -> &mahif_obs::Gauge {
        [
            &self.shared.metrics.conn_idle,
            &self.shared.metrics.conn_active,
            &self.shared.metrics.conn_writing,
        ][state]
    }

    /// Moves a connection to `phase`, keeping the state gauges true.
    fn transition(&self, conn: &mut Conn, phase: Phase) {
        let old = phase_state(&conn.phase);
        let new = phase_state(&phase);
        if old != new {
            self.state_gauge(old).sub(1);
            self.state_gauge(new).add(1);
        }
        conn.phase = phase;
    }

    /// Arms (or re-arms) the connection's deadline. Earlier wheel entries
    /// are not removed — expiry validates against `conn.deadline`.
    fn arm(&mut self, conn: &mut Conn, token: usize, deadline: Instant) {
        conn.deadline = Some(deadline);
        self.wheel.schedule(token, deadline);
    }

    /// Accepts until the listener would block.
    fn accept_ready(&mut self, listener: &TcpListener) {
        loop {
            match listener.accept() {
                Ok((stream, _)) => self.on_accept(stream),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                // WouldBlock: drained. Anything else (aborted handshake):
                // transient, retry on the next readiness report.
                Err(_) => break,
            }
        }
    }

    fn on_accept(&mut self, stream: TcpStream) {
        self.shared.metrics.connections_total.inc();
        if self.open >= self.shared.config.max_connections.max(1) {
            // Best-effort 503 into the (empty) socket buffer, then hang
            // up — never blocks the reactor on a dead client.
            self.shared.metrics.connections_shed_total.inc();
            let _ = stream.set_nonblocking(true);
            let framed = render_overloaded_close();
            let _ = (&stream).write_all(&framed.head);
            let _ = (&stream).write_all(&framed.body);
            return;
        }
        // Persistent connections carry many small request/response
        // exchanges; Nagle would hold each one hostage to the previous
        // segment's delayed ACK.
        let _ = stream.set_nodelay(true);
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let token = self.free.pop().unwrap_or_else(|| {
            self.conns.push(None);
            self.conns.len() - 1
        });
        self.generation += 1;
        let mut conn = Conn {
            stream,
            generation: self.generation,
            rbuf: Vec::new(),
            wq: WriteQueue::new(),
            phase: Phase::Idle,
            served: 0,
            deadline: None,
            started: Instant::now(),
            interest: Interest::READABLE,
        };
        if self
            .poller
            .add(conn.stream.as_fd(), token, Interest::READABLE)
            .is_err()
        {
            self.free.push(token);
            return;
        }
        self.open += 1;
        self.shared.metrics.connections_active.add(1);
        self.state_gauge(0).add(1);
        let deadline = Instant::now() + self.keep_alive();
        self.arm(&mut conn, token, deadline);
        // Any bytes the client already sent surface on the next wait
        // (level-triggered readiness reports them immediately).
        self.conns[token] = Some(conn);
    }

    /// Handles a readiness report for one connection.
    fn conn_event(&mut self, token: usize, event: mahif_net::Event) {
        let Some(mut conn) = self.conns.get_mut(token).and_then(Option::take) else {
            return;
        };
        let mut fate = if event.readable {
            self.step_read(token, &mut conn)
        } else {
            Fate::Keep
        };
        if fate == Fate::Keep && event.writable && !conn.wq.is_empty() {
            fate = self.flush(token, &mut conn);
        }
        if fate == Fate::Keep && event.hangup {
            // HUP/ERR with nothing actionable above: with reads masked
            // (Active) the response is undeliverable, and anywhere else
            // the socket is beyond saving. Destroy now rather than spin
            // on a level-triggered report nothing will consume.
            fate = Fate::Gone;
        }
        self.settle(token, conn, fate);
    }

    /// Puts a surviving connection back (reconciling poller interest) or
    /// destroys it.
    fn settle(&mut self, token: usize, mut conn: Conn, fate: Fate) {
        if fate == Fate::Gone {
            self.destroy(token, conn);
            return;
        }
        let want = Interest {
            readable: match conn.phase {
                Phase::Idle | Phase::Head | Phase::Body { .. } => true,
                Phase::Respond { drain, .. } => drain > 0,
                Phase::Active => false,
            },
            writable: !conn.wq.is_empty(),
        };
        if want != conn.interest
            && self
                .poller
                .modify(conn.stream.as_fd(), token, want)
                .is_err()
        {
            self.destroy(token, conn);
            return;
        }
        conn.interest = want;
        self.conns[token] = Some(conn);
    }

    fn destroy(&mut self, token: usize, conn: Conn) {
        self.state_gauge(phase_state(&conn.phase)).sub(1);
        self.shared.metrics.connections_active.sub(1);
        self.open -= 1;
        self.free.push(token);
        // Dropping the stream closes the connection's only fd, which
        // deregisters it from the poller implicitly.
        drop(conn);
    }

    /// Advances the read-side state machine as far as buffered and
    /// socket-available bytes allow.
    fn step_read(&mut self, token: usize, conn: &mut Conn) -> Fate {
        loop {
            match conn.phase {
                Phase::Idle => {
                    if conn.rbuf.is_empty() {
                        match read_available(&mut conn.stream, &mut conn.rbuf, MAX_HEAD_BYTES) {
                            Err(_) => return Fate::Gone,
                            // Clean close between requests.
                            Ok(st) if st.eof && conn.rbuf.is_empty() => return Fate::Gone,
                            Ok(_) if conn.rbuf.is_empty() => return Fate::Keep,
                            Ok(_) => {}
                        }
                    }
                    // First byte of a request: start the request clock and
                    // anchor the header-read deadline to it. The deadline
                    // is *not* re-armed per byte — a slow-loris dribble
                    // exhausts it no matter how steadily it dribbles.
                    conn.started = Instant::now();
                    self.transition(conn, Phase::Head);
                    let deadline = conn.started + self.shared.config.header_read_timeout;
                    self.arm(conn, token, deadline);
                }
                Phase::Head => match parse_head_buffered(&conn.rbuf) {
                    Err(HttpError::Malformed(what)) => {
                        return self.reject_malformed(token, conn, what)
                    }
                    // read_head reports I/O through its reader; the
                    // buffered parser never constructs other kinds.
                    Err(_) => return Fate::Gone,
                    Ok(Some((head, head_len))) => match self.on_head(token, conn, head, head_len) {
                        None => continue,
                        Some(fate) => return fate,
                    },
                    Ok(None) => {
                        match read_available(&mut conn.stream, &mut conn.rbuf, MAX_HEAD_BYTES) {
                            Err(_) => return Fate::Gone,
                            Ok(st) if st.read > 0 => continue,
                            Ok(st) if st.eof => {
                                // Head cut off mid-line: best-effort 400.
                                return self.reject_malformed(
                                    token,
                                    conn,
                                    "connection closed mid-line",
                                );
                            }
                            Ok(_) => return Fate::Keep,
                        }
                    }
                },
                Phase::Body { need, .. } => {
                    if conn.rbuf.len() < need {
                        match read_available(&mut conn.stream, &mut conn.rbuf, need) {
                            Err(_) => return Fate::Gone,
                            Ok(st) => {
                                if conn.rbuf.len() < need {
                                    // Short read: the declared body never
                                    // arrives past EOF; close silently.
                                    if st.eof {
                                        return Fate::Gone;
                                    }
                                    if st.read > 0 {
                                        // Progress re-arms the io deadline.
                                        let deadline = Instant::now() + self.io_timeout();
                                        self.arm(conn, token, deadline);
                                    }
                                    return Fate::Keep;
                                }
                            }
                        }
                    }
                    self.dispatch(token, conn);
                    return Fate::Keep;
                }
                // Reads are masked; a stray report (e.g. bundled with a
                // write event) is ignored.
                Phase::Active => return Fate::Keep,
                Phase::Respond {
                    ref mut drain,
                    ref mut close_after,
                    ..
                } => {
                    if *drain == 0 {
                        return Fate::Keep;
                    }
                    // Consume the rejected request's unread body from the
                    // buffer first, then from the socket.
                    let take = (*drain).min(conn.rbuf.len() as u64) as usize;
                    conn.rbuf.drain(..take);
                    *drain -= take as u64;
                    if *drain == 0 {
                        match self.finish_response(token, conn) {
                            Finish::Closed => return Fate::Gone,
                            Finish::NextRequest => continue,
                            Finish::Pending => return Fate::Keep,
                        }
                    }
                    match read_available(&mut conn.stream, &mut conn.rbuf, DRAIN_READ_CAP) {
                        Err(_) => return Fate::Gone,
                        Ok(st) if st.read > 0 => {
                            let deadline = Instant::now() + self.io_timeout();
                            self.arm(conn, token, deadline);
                        }
                        Ok(st) if st.eof => {
                            // The body will never arrive; stop waiting for
                            // it and close once the response is out.
                            *drain = 0;
                            *close_after = true;
                            match self.finish_response(token, conn) {
                                Finish::Closed => return Fate::Gone,
                                Finish::NextRequest | Finish::Pending => return Fate::Keep,
                            }
                        }
                        Ok(_) => return Fate::Keep,
                    }
                }
            }
        }
    }

    /// A complete head arrived. Returns `None` to continue the read loop
    /// (now in `Body`), or the connection's fate when the request was
    /// answered (or refused) reactor-side.
    fn on_head(
        &mut self,
        token: usize,
        conn: &mut Conn,
        head: RequestHead,
        head_len: usize,
    ) -> Option<Fate> {
        let parse = conn.started.elapsed();
        conn.served += 1;
        let remaining = self
            .shared
            .config
            .max_requests_per_connection
            .max(1)
            .saturating_sub(conn.served);
        // HTTP/1.1 default keep-alive unless the client said close; the
        // request cap turns the last allowed response into a close.
        let keep_hint = head.keep_alive && remaining > 0;
        let is_register = {
            let segments = head.segments();
            head.method == "POST" && segments.len() == 2 && segments[0] == "histories"
        };
        // Per-route body cap: registration datasets get their own (much
        // larger) limit than buffered routes.
        let cap = if is_register {
            self.shared.config.max_register_body_bytes
        } else {
            self.shared.config.max_body_bytes
        };
        if head.content_length > cap {
            return Some(self.reject_too_large(token, conn, &head, head_len, cap, keep_hint));
        }
        // The server commits to the body: release a 100-continue hold.
        if head.expect_continue && head.content_length > 0 {
            let mut interim = Vec::new();
            let _ = write_continue(&mut interim);
            conn.wq.push(interim, Tag::Partial);
        }
        let need = head_len + head.content_length;
        self.transition(
            conn,
            Phase::Body {
                head: Box::new(head),
                head_len,
                need,
                keep_hint,
                remaining,
                parse,
            },
        );
        if need > conn.rbuf.len() {
            let deadline = Instant::now() + self.io_timeout();
            self.arm(conn, token, deadline);
        }
        if !conn.wq.is_empty() {
            if let Fate::Gone = self.flush(token, conn) {
                return Some(Fate::Gone);
            }
        }
        None
    }

    /// Answers a 413 without a worker, draining small unread bodies to
    /// keep the connection. With `Expect: 100-continue` the body was
    /// never released — the client may or may not still send it, so the
    /// connection closes rather than guess at framing; likewise for
    /// bodies over the drain cap (hanging up beats reading megabytes
    /// nobody wants).
    fn reject_too_large(
        &mut self,
        token: usize,
        conn: &mut Conn,
        head: &RequestHead,
        head_len: usize,
        cap: usize,
        keep_hint: bool,
    ) -> Fate {
        let expect_held = head.expect_continue && head.content_length > 0;
        let keep = keep_hint && !expect_held && head.content_length as u64 <= DRAIN_CAP;
        let remaining = self
            .shared
            .config
            .max_requests_per_connection
            .max(1)
            .saturating_sub(conn.served);
        let framed = render_body_too_large(
            head,
            cap,
            keep,
            remaining,
            &self.shared,
            conn.started,
            conn.started.elapsed(),
        );
        conn.rbuf.drain(..head_len);
        let mut drain = if keep { head.content_length as u64 } else { 0 };
        // Body bytes that rode in with the head are already buffered.
        let buffered = drain.min(conn.rbuf.len() as u64) as usize;
        conn.rbuf.drain(..buffered);
        drain -= buffered as u64;
        if !keep {
            // Whatever else is buffered belongs to a body we will never
            // parse past; the connection is closing anyway.
            conn.rbuf.clear();
        }
        queue_response(&mut conn.wq, framed, !keep);
        self.transition(
            conn,
            Phase::Respond {
                close_after: !keep,
                drain,
                written: false,
            },
        );
        let deadline = Instant::now() + self.io_timeout();
        self.arm(conn, token, deadline);
        self.flush(token, conn)
    }

    /// Answers a 400 for an untrustworthy request head and closes once
    /// it is delivered. The flush rides the normal write-readiness path
    /// under the io stall deadline, so a momentarily-full socket buffer
    /// delays the diagnostic instead of dropping it.
    fn reject_malformed(&mut self, token: usize, conn: &mut Conn, what: &str) -> Fate {
        let framed = render_malformed(what, &self.shared);
        conn.rbuf.clear();
        queue_response(&mut conn.wq, framed, true);
        self.transition(
            conn,
            Phase::Respond {
                close_after: true,
                drain: 0,
                written: false,
            },
        );
        let deadline = Instant::now() + self.io_timeout();
        self.arm(conn, token, deadline);
        self.flush(token, conn)
    }

    /// Hands a fully-buffered request to the worker pool and masks reads
    /// until its response is written (per-connection ordering).
    fn dispatch(&mut self, token: usize, conn: &mut Conn) {
        let phase = std::mem::replace(&mut conn.phase, Phase::Active);
        let Phase::Body {
            head,
            head_len,
            need,
            keep_hint,
            remaining,
            parse,
        } = phase
        else {
            unreachable!("dispatch outside Body phase");
        };
        // Body→Active stays in the "active" gauge state; no transition.
        let mut bytes = std::mem::take(&mut conn.rbuf);
        conn.rbuf = bytes.split_off(need);
        conn.deadline = None;
        let read = conn.started.elapsed().saturating_sub(parse);
        self.queue.push(Job {
            token,
            generation: conn.generation,
            bytes,
            head_len,
            head: *head,
            started: conn.started,
            parse,
            read,
            keep_hint,
            remaining,
        });
    }

    /// Flushes the write queue as far as the socket allows, then settles
    /// a completed response.
    fn flush(&mut self, token: usize, conn: &mut Conn) -> Fate {
        let before = conn.wq.pending_bytes();
        let status = match conn.wq.flush(&mut conn.stream) {
            Err(_) => return Fate::Gone,
            Ok(status) => status,
        };
        for tag in &status.completed {
            if let Tag::Response { .. } = tag {
                if let Phase::Respond { written, .. } = &mut conn.phase {
                    *written = true;
                }
            }
        }
        if !conn.wq.is_empty() {
            if conn.wq.pending_bytes() < before {
                // Write progress re-arms the stall deadline; no progress
                // leaves the existing one ticking.
                let deadline = Instant::now() + self.io_timeout();
                self.arm(conn, token, deadline);
            }
            return Fate::Keep;
        }
        match self.finish_response(token, conn) {
            Finish::Closed => Fate::Gone,
            Finish::Pending => Fate::Keep,
            // Pipelined bytes may already be buffered; parse them now —
            // no further readiness event will announce them.
            Finish::NextRequest => {
                if conn.rbuf.is_empty() {
                    Fate::Keep
                } else {
                    self.step_read(token, conn)
                }
            }
        }
    }

    /// Checks whether a `Respond` phase is fully settled (response
    /// written, drain done, queue empty) and if so starts the next
    /// request's keep-alive wait.
    fn finish_response(&mut self, token: usize, conn: &mut Conn) -> Finish {
        let Phase::Respond {
            close_after,
            drain,
            written,
        } = conn.phase
        else {
            return Finish::Pending;
        };
        if !written || drain > 0 || !conn.wq.is_empty() {
            return Finish::Pending;
        }
        if close_after {
            return Finish::Closed;
        }
        self.transition(conn, Phase::Idle);
        let deadline = Instant::now() + self.keep_alive();
        self.arm(conn, token, deadline);
        Finish::NextRequest
    }

    /// Applies queued worker completions: queue the response bytes and
    /// start flushing.
    fn apply_completions(&mut self) {
        let batch: Vec<Completion> = {
            let mut guard = self.completions.lock().expect("completion queue poisoned");
            std::mem::take(&mut *guard)
        };
        for completion in batch {
            let Some(mut conn) = self.conns.get_mut(completion.token).and_then(Option::take) else {
                continue;
            };
            if conn.generation != completion.generation {
                // The slot was reused; this response's client is gone.
                self.conns[completion.token] = Some(conn);
                continue;
            }
            let token = completion.token;
            queue_response(&mut conn.wq, completion.framed, completion.close);
            self.transition(
                &mut conn,
                Phase::Respond {
                    close_after: completion.close,
                    drain: 0,
                    written: false,
                },
            );
            let deadline = Instant::now() + self.io_timeout();
            self.arm(&mut conn, token, deadline);
            let fate = self.flush(token, &mut conn);
            self.settle(token, conn, fate);
        }
    }

    /// Destroys connections whose authoritative deadline has passed.
    /// Deadlines that were re-armed since their wheel entry was scheduled
    /// validate as "not due" and are skipped (their live entry fires
    /// later) — lazy cancellation.
    fn tick_timers(&mut self) {
        let now = Instant::now();
        let mut expired = std::mem::take(&mut self.expired);
        expired.clear();
        self.wheel.expire_into(now, &mut expired);
        for token in expired.drain(..) {
            let Some(conn) = self.conns.get_mut(token).and_then(Option::take) else {
                continue;
            };
            if conn.deadline.is_none_or(|d| d > now) {
                self.conns[token] = Some(conn);
                continue;
            }
            // Idle keep-alive expiry, header-read deadline, body stall,
            // or write stall: in every case the peer gets a silent close,
            // exactly like the old per-thread loop's read timeout.
            self.shared.metrics.reactor_timer_expirations_total.inc();
            self.destroy(token, conn);
        }
        self.expired = expired;
    }
}
