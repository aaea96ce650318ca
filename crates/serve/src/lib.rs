//! # mahif-serve
//!
//! A dependency-free HTTP serving layer over the Mahif session — the
//! "long-lived service" deployment the paper's interactive what-if
//! analysis implies: register a history once, then answer many cheap
//! hypothetical batches over the network.
//!
//! The layer is deliberately **std-only** (the build environment has no
//! registry access, so no tokio/hyper/serde): a hand-rolled HTTP/1.1
//! server with a **readiness-driven connection reactor** — one thread
//! owns every socket through an epoll poller and a timer wheel (the
//! `mahif-net` crate), frames requests from nonblocking reads, and hands
//! complete requests to a fixed worker pool that is a **pure CPU pool**
//! (decode → execute → render; workers never touch a socket). Persistent
//! connections scale with fds, not threads: thousands of idle keep-alive
//! connections cost buffers only, pipelined requests are answered in
//! order, and keep-alive idle, header-read (slow-loris), and stall
//! deadlines are reactor-enforced. A minimal [`json`] codec carries the
//! wire format, and a semaphore-style [`AdmissionController`] bounds
//! concurrent batch *requests* (429 + `Retry-After` beyond the queue) —
//! permits are per-request, so a parked keep-alive connection never holds
//! an execution slot. Per-batch [`mahif::Budget`]s ride inside request
//! bodies and are enforced by the session core's admit → plan → execute
//! lifecycle, surfacing as structured 422 responses.
//!
//! ```no_run
//! use std::sync::Arc;
//! use mahif::Session;
//! use mahif_serve::{ServeConfig, Server};
//!
//! let session = Arc::new(Session::new());
//! let server = Server::bind(session, ServeConfig::default()).unwrap();
//! println!("serving on {}", server.local_addr().unwrap());
//! server.serve().unwrap(); // blocks; use `spawn()` for a background server
//! ```
//!
//! See [`server`] for the route table and connection lifecycle, [`http`]
//! for the framing rules (strict `Content-Length`, smuggling defenses),
//! and `README.md` for a `curl` walkthrough.

#![forbid(unsafe_code)]

pub mod admission;
pub mod http;
pub mod json;
pub(crate) mod reactor;
pub mod server;
pub mod wire;

pub use admission::{AdmissionController, AdmissionSnapshot, Permit};
pub use http::{ConnectionDirective, HttpError, RequestHead};
pub use json::{Json, JsonError, PullParser};
pub use server::{ServeConfig, Server, ServerHandle};
pub use wire::{
    decode_batch, decode_register, decode_register_stream, encode_delta, encode_error,
    encode_response, encode_session_stats, status_for, write_response_body, BatchRequest,
    ConnectionsSnapshot, RegisterRequest, WireError,
};
