//! # sustain-service
//!
//! Long-running experiment service: a dependency-free HTTP/1.1 JSON
//! front-end over the scenario/sweep surface, so repeated experiments
//! amortize the process-wide trace cache and share one thread budget
//! instead of paying cold-start per CLI invocation.
//!
//! Endpoints:
//!
//! | Endpoint         | Purpose                                                      |
//! |------------------|--------------------------------------------------------------|
//! | `POST /run`      | One scenario, full `ScenarioResult` body; carries a          |
//! |                  | deterministic `ETag` (the scenario's canonical hash) and     |
//! |                  | honors `If-None-Match` with `304 Not Modified`               |
//! | `POST /sweep`    | One-axis sweep through the fault-isolated, content-memoized  |
//! |                  | sweep executor (duplicate points simulate once)              |
//! | `GET /healthz`   | Liveness (always 200 while the process can answer at all)    |
//! | `GET /readyz`    | Readiness: 200 only while `Healthy`; 503 (+ `Retry-After`)   |
//! |                  | when a breaker is open, the windowed error rate is high      |
//! |                  | (`Degraded`), or shutdown has begun (`Draining`)             |
//! | `GET /stats`     | Trace/outcome/workload cache, hot-path, self-healing         |
//! |                  | (retry/breaker), and per-endpoint request counters           |
//! | `POST /shutdown` | Cancel in-flight work and ask the embedding loop to drain    |
//! |                  | and exit                                                     |
//!
//! Responses are byte-identical to the one-shot CLI (`sustain-hpc run`
//! / `sweep`): both call the same [`api::run_body`] / [`api::sweep_body`]
//! handlers. Errors come back as structured JSON
//! (`{"error": {"kind", "message", ...}}`) with 4xx for anything the
//! caller got wrong and 5xx only for isolated faults. Overload is a
//! fast 429 from a bounded accept queue (with `Retry-After`); a
//! persistently faulting endpoint is circuit-broken into typed 503s
//! instead of burning workers (see [`health`]); shutdown cooperatively
//! cancels in-flight simulations (typed `Cancelled`, 408) and still
//! answers every accepted request before the workers exit. See the
//! [`server`] module docs for the thread-budget sharing and fault-
//! containment model.

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]
// `signal.rs` declares one libc prototype; everything else is safe.
#![deny(unsafe_op_in_unsafe_fn)]

pub mod api;
pub mod health;
pub mod http;
pub mod server;
pub mod signal;

pub use api::{run_body, run_etag, sweep_body, sweep_body_with_ctl, RunRequest, SweepRequest};
pub use health::init_health_from_env;
pub use server::{serve, ServeOptions, ServerHandle};
