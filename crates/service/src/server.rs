//! The server itself: bounded accept queue, budget-leasing worker
//! pool, routing, graceful drain.
//!
//! ## Thread-budget sharing
//!
//! The worker pool does **not** get its own threads on top of the
//! simulation's: it draws from the same process-wide budget that sweeps
//! use (the rayon shim's extra-worker budget). Worker 0 is the *primary* and processes requests
//! without a lease — the service always makes progress even when sweeps
//! have the whole budget. Every other worker must hold a
//! [`rayon::lease_worker`] lease while processing, blocking until one is
//! free, so the total number of active threads in the process never
//! exceeds the configured thread count, no matter how requests and sweep
//! points interleave.
//!
//! ## Overload and shutdown
//!
//! The accept queue is bounded (`queue_depth`); a connection arriving
//! while it is full is answered `429 Too Many Requests` immediately and
//! closed, so overload is explicit and cheap instead of an unbounded
//! backlog. The accept thread blocks in `accept()` and idle workers
//! block on the queue: an idle server does not wake. On shutdown
//! (SIGINT/SIGTERM, `POST /shutdown`, or [`ServerHandle::shutdown`])
//! the handle wakes the accept thread with a connection of its own, and
//! the server-wide [`CancelToken`] fires. Every request's `RunCtl`
//! carries a clone of that one token, so in-flight and queued
//! simulation work is *cooperatively cancelled* and answered with a
//! typed `Cancelled` 408 instead of holding the drain hostage until it
//! completes. Every accepted connection still gets a response;
//! none is ever dropped with an empty socket. One that reaches the
//! accept thread after shutdown began, ahead of the wake connection, is
//! answered a typed 503 with `Retry-After`.
//!
//! ## Fault containment
//!
//! Request handling runs inside a `catch_unwind` boundary: a panicking
//! handler (or an armed `service::dispatch` / `service::respond` fault
//! site) is answered with a typed 500 and the worker keeps serving —
//! the in-flight counter and budget lease are both released on the
//! unwind path, so a chaos run leaves the pool at its baseline.

use std::collections::VecDeque;
use std::io;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};
use sustain_grid::synth::{global_trace_cache, CacheStats};
use sustain_hpc_core::cache::global_outcome_cache;
use sustain_scheduler::metrics::{hot_path_totals, HotPathStats};
use sustain_sim_core::ctl::{CancelToken, Deadline};
use sustain_telemetry::requests::{EndpointSnapshot, RequestLog, WindowStats};
use sustain_workload::synth::global_workload_cache;

use crate::api;
use crate::health::{Admission, BreakerSnapshot, Health, ProcessHealth, SelfHealingSnapshot};
use crate::http::{
    drain_unread, read_request, write_json_response, write_json_response_with_headers, HttpError,
    Request,
};

/// Pause after a failed `accept()` (say, out of file descriptors), so
/// the accept thread does not spin while the condition lasts. The idle
/// path never sleeps: `accept()` blocks.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(5);

/// Bound on the shutdown wake's connect to the server's own listener.
const WAKE_CONNECT_TIMEOUT: Duration = Duration::from_secs(1);

/// How the serve loop is configured. `Default` binds an ephemeral
/// loopback port with 4 in-flight slots and a queue of 16.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeOptions {
    /// Bind address, e.g. `127.0.0.1:8725`. Port 0 picks an ephemeral
    /// port (read it back via [`ServerHandle::local_addr`]).
    pub addr: String,
    /// Maximum requests processed concurrently. The effective worker
    /// count is `min(max_inflight, rayon::current_num_threads())`, and
    /// at least 1.
    pub max_inflight: usize,
    /// Maximum connections waiting for a worker before new arrivals are
    /// answered 429.
    pub queue_depth: usize,
    /// Idle-read deadline, milliseconds: a connection that has not
    /// delivered a complete request within this budget is answered a
    /// typed 408 `timeout` and closed, so one silent peer can never
    /// pin a worker forever.
    pub read_timeout_ms: u64,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            max_inflight: 4,
            queue_depth: 16,
            read_timeout_ms: 30_000,
        }
    }
}

/// Body of `GET /stats`: a point-in-time snapshot of the shared
/// simulation infrastructure plus the service's own request counters.
#[derive(Debug, Clone, Serialize)]
pub(crate) struct StatsBody {
    /// Worker threads in the pool.
    pub workers: usize,
    /// Configured process thread count (the shared budget ceiling).
    pub threads: usize,
    /// Configured accept-queue bound.
    pub queue_depth: usize,
    /// Requests currently being processed.
    pub in_flight: usize,
    /// Connections answered 429 because the queue was full.
    pub rejected_overload: u64,
    /// Process-wide trace-cache counters (hits/misses/evictions).
    pub trace_cache: CacheStats,
    /// Process-wide scenario-outcome cache counters: hits here are
    /// whole `POST /run`s and sweep points served without simulating.
    pub outcome_cache: CacheStats,
    /// Process-wide workload-synthesis cache counters.
    pub workload_cache: CacheStats,
    /// Process-wide scheduler hot-path totals.
    pub hot_path: HotPathStats,
    /// Retry/breaker counters and per-endpoint breaker states.
    pub self_healing: SelfHealingSnapshot,
    /// Per-endpoint request counts and latency histograms.
    pub requests: Vec<EndpointSnapshot>,
}

/// Body of `GET /readyz`: the process health verdict plus the inputs it
/// was derived from.
#[derive(Debug, Clone, Serialize)]
pub(crate) struct ReadyBody {
    /// `healthy`, `degraded`, or `draining` (non-`healthy` is a 503).
    pub status: String,
    /// Sliding-window request outcomes feeding the verdict.
    pub window: WindowStats,
    /// Per-endpoint breaker states feeding the verdict.
    pub breakers: Vec<BreakerSnapshot>,
}

/// Everything the accept thread and workers share.
struct Inner {
    queue: Mutex<VecDeque<TcpStream>>,
    queue_signal: Condvar,
    /// Stop accepting; drain and exit. Raised under the queue lock (see
    /// [`Inner::begin_shutdown`]).
    shutdown: AtomicBool,
    /// Client address of the connection [`ServerHandle::shutdown`] made
    /// to wake the blocked accept thread; `None` until it connected.
    /// Held locked while it connects, so the accept thread can always
    /// tell the wake from a client racing the shutdown.
    wake: Mutex<Option<SocketAddr>>,
    /// A client asked for shutdown via `POST /shutdown` (the embedding
    /// loop polls this and calls [`ServerHandle::shutdown`]).
    shutdown_requested: AtomicBool,
    /// Server-wide cancellation token, cloned into every request's
    /// `RunCtl`: fired on shutdown (either way it is asked for) so
    /// in-flight simulations stop at their next check bucket with a
    /// typed `Cancelled` (408).
    cancel: CancelToken,
    in_flight: AtomicUsize,
    rejected_overload: AtomicU64,
    log: RequestLog,
    /// Circuit breakers and self-healing counters.
    health: Health,
    options: ServeOptions,
    workers: usize,
}

impl Inner {
    /// Raises the shutdown flag and wakes every idle worker. The flag is
    /// set under the queue lock, where workers read it before they wait,
    /// so no worker can miss the wake-up. Returns whether this call
    /// raised it.
    fn begin_shutdown(&self) -> bool {
        let first = {
            let _queue = self.queue.lock().unwrap_or_else(PoisonError::into_inner);
            !self.shutdown.swap(true, Ordering::SeqCst)
        };
        self.queue_signal.notify_all();
        first
    }
}

/// A running server. Dropping the handle does *not* stop the server;
/// call [`ServerHandle::shutdown_and_join`] (or `shutdown` + `join`).
pub struct ServerHandle {
    addr: SocketAddr,
    inner: Arc<Inner>,
    accept_thread: Option<JoinHandle<()>>,
    worker_threads: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("addr", &self.addr)
            .field("workers", &self.worker_threads.len())
            .finish()
    }
}

impl ServerHandle {
    /// The address the listener actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests currently being processed.
    pub fn in_flight(&self) -> usize {
        self.inner.in_flight.load(Ordering::SeqCst)
    }

    /// Whether a client asked for shutdown via `POST /shutdown`.
    pub fn shutdown_requested(&self) -> bool {
        self.inner.shutdown_requested.load(Ordering::SeqCst)
    }

    /// Begins shutdown: the listener stops accepting and the server's
    /// [`CancelToken`] fires, so queued and in-flight requests are
    /// answered promptly — completed work with 200, cancelled work
    /// with a typed 408. Returns once the accept thread is woken.
    pub fn shutdown(&self) {
        self.inner.cancel.cancel("shutdown requested");
        if self.inner.begin_shutdown() {
            self.wake_accept();
        }
    }

    /// Unblocks the accept thread's `accept()` with a connection to the
    /// listener (std has no other way to interrupt it), recording the
    /// connection's client address so the thread knows it for the wake.
    /// A server bound to an unspecified address is reached through the
    /// loopback address of the same family.
    fn wake_accept(&self) {
        let mut wake = self
            .inner
            .wake
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let mut target = self.addr;
        if target.ip().is_unspecified() {
            target.set_ip(match target {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        if let Ok(conn) = TcpStream::connect_timeout(&target, WAKE_CONNECT_TIMEOUT) {
            *wake = conn.local_addr().ok();
        }
    }

    /// Waits for the accept thread and every worker to exit (after
    /// [`ServerHandle::shutdown`] this means the queue has fully
    /// drained).
    pub fn join(mut self) {
        if let Some(t) = self.accept_thread.take() {
            // Without a wake connection the accept thread stays blocked
            // until the next client arrives; it owns nothing the drain
            // needs, so it is left detached rather than waited for.
            let woken = self
                .inner
                .wake
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .is_some();
            if woken {
                let _ = t.join();
            }
        }
        for t in self.worker_threads.drain(..) {
            let _ = t.join();
        }
    }

    /// [`ServerHandle::shutdown`] + [`ServerHandle::join`]: returns
    /// once every accepted request has been answered.
    pub fn shutdown_and_join(self) {
        self.shutdown();
        self.join();
    }
}

/// Binds `options.addr` and spawns the accept thread plus the worker
/// pool. Returns as soon as the listener is live.
pub fn serve(options: ServeOptions) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&options.addr)?;
    let addr = listener.local_addr()?;

    let workers = options
        .max_inflight
        .min(rayon::current_num_threads())
        .max(1);
    let inner = Arc::new(Inner {
        queue: Mutex::new(VecDeque::new()),
        queue_signal: Condvar::new(),
        shutdown: AtomicBool::new(false),
        wake: Mutex::new(None),
        shutdown_requested: AtomicBool::new(false),
        cancel: CancelToken::new(),
        in_flight: AtomicUsize::new(0),
        rejected_overload: AtomicU64::new(0),
        log: RequestLog::new(),
        health: Health::new(),
        options: options.clone(),
        workers,
    });

    let accept_inner = Arc::clone(&inner);
    let accept_thread = std::thread::Builder::new()
        .name("svc-accept".to_string())
        .spawn(move || accept_loop(listener, &accept_inner))?;

    let mut worker_threads = Vec::with_capacity(workers);
    for index in 0..workers {
        let worker_inner = Arc::clone(&inner);
        worker_threads.push(
            std::thread::Builder::new()
                .name(format!("svc-worker-{index}"))
                .spawn(move || worker_loop(index, &worker_inner))?,
        );
    }

    Ok(ServerHandle {
        addr,
        inner,
        accept_thread: Some(accept_thread),
        worker_threads,
    })
}

/// Accepts connections until shutdown, enqueueing each for a worker or
/// answering 429 when the queue is full. After shutdown begins it keeps
/// accepting until the wake connection arrives, answering each client
/// ahead of it a typed 503: connections are accepted in arrival order,
/// so every client that connected before the wake gets a response.
fn accept_loop(listener: TcpListener, inner: &Inner) {
    loop {
        let (mut conn, peer) = match listener.accept() {
            Ok(accepted) => accepted,
            Err(_) => {
                // Transient accept errors (ECONNABORTED, EMFILE etc.):
                // back off briefly and keep serving.
                std::thread::sleep(ACCEPT_ERROR_BACKOFF);
                continue;
            }
        };
        let mut queue = match inner.queue.lock() {
            Ok(q) => q,
            Err(_) => return, // a worker panicked holding the lock
        };
        // Read under the queue lock, where workers read it before they
        // exit: a connection queued here is always seen by a worker.
        if inner.shutdown.load(Ordering::SeqCst) {
            drop(queue);
            let wake = *inner.wake.lock().unwrap_or_else(PoisonError::into_inner);
            if wake == Some(peer) {
                break;
            }
            reject(
                &mut conn,
                503,
                "unavailable",
                "server is shutting down; retry later",
            );
        } else if queue.len() < inner.options.queue_depth {
            queue.push_back(conn);
            drop(queue);
            inner.queue_signal.notify_one();
        } else {
            // Release the queue before the 429 write so it does not
            // serialize the workers.
            drop(queue);
            inner.rejected_overload.fetch_add(1, Ordering::Relaxed);
            reject(
                &mut conn,
                429,
                "overloaded",
                "accept queue is full; retry later",
            );
        }
    }
}

/// Answers a connection the accept thread turns away, with a typed
/// error and `Retry-After`, without reading its request: the unread
/// bytes are drained afterwards so the response survives the close
/// instead of being RST-discarded.
fn reject(conn: &mut TcpStream, status: u16, kind: &str, message: &str) {
    let body = api::error_body(kind, message, None, None);
    let _ = write_json_response_with_headers(conn, status, &body, &[("Retry-After", "1")]);
    drain_unread(conn);
}

/// Pops connections and processes them until shutdown *and* an empty
/// queue — the drain guarantee lives in this loop condition.
fn worker_loop(index: usize, inner: &Inner) {
    loop {
        let conn = {
            let mut queue = match inner.queue.lock() {
                Ok(q) => q,
                Err(_) => return,
            };
            loop {
                if let Some(conn) = queue.pop_front() {
                    // Claim in-flight under the lock: shutdown_and_join
                    // must never observe "queue empty, nothing in
                    // flight" while a popped request is still pending.
                    inner.in_flight.fetch_add(1, Ordering::SeqCst);
                    break Some(conn);
                }
                if inner.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                queue = match inner.queue_signal.wait(queue) {
                    Ok(q) => q,
                    Err(_) => return,
                };
            }
        };
        let Some(mut conn) = conn else { return };

        // Workers beyond the primary lease a slot from the shared
        // budget before doing any work, blocking until a slot frees, so
        // service load and sweep load together never exceed the
        // configured thread count. The primary (index 0) runs
        // lease-free: guaranteed progress, no deadlock when sweeps hold
        // the entire budget.
        let _lease = (index != 0).then(rayon::lease_worker);
        // Fault boundary: a panicking handler (or an armed
        // `service::dispatch` fault site) must not take the worker
        // down — the peer gets a typed 500 and the loop keeps serving.
        // The budget lease and in-flight counter are released on both
        // paths, so the pool is back at baseline after any chaos run.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            sustain_sim_core::faultpoint!(infallible "service::dispatch");
            handle_connection(&mut conn, inner);
        }));
        if let Err(payload) = outcome {
            let body = api::error_body(
                "faulted",
                &format!(
                    "fault isolated in request handler: {}",
                    panic_text(payload.as_ref())
                ),
                None,
                None,
            );
            let _ = write_json_response(&mut conn, 500, &body);
            // The handler may have died before consuming the request:
            // drain so closing does not RST the 500 away.
            drain_unread(&mut conn);
            inner.log.record("(panicked)", 500, 0);
        }
        inner.in_flight.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Best-effort text of a panic payload (`&str` and `String` payloads;
/// anything else gets a placeholder).
fn panic_text(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "opaque panic payload"
    }
}

/// Canonical endpoint label for the request log.
fn endpoint_label(req: &Request) -> String {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz")
        | ("GET", "/readyz")
        | ("GET", "/stats")
        | ("POST", "/run")
        | ("POST", "/sweep")
        | ("POST", "/shutdown") => format!("{} {}", req.method, req.path),
        _ => "(unmatched)".to_string(),
    }
}

/// Reads one request, routes it, writes one response, records it.
fn handle_connection(conn: &mut TcpStream, inner: &Inner) {
    // A peer that stalls mid-request must not pin a worker forever:
    // the read runs under the configured idle deadline and a silent
    // connection is answered a typed 408 `timeout`.
    let read_deadline = Deadline::after_millis(inner.options.read_timeout_ms);
    let started = Instant::now();
    let parsed = read_request(conn, Some(read_deadline));
    let fully_read = parsed.is_ok();
    let (label, status, body, etag) = match parsed {
        Ok(req) => {
            let label = endpoint_label(&req);
            // Per-endpoint circuit breaker: an open breaker answers a
            // typed 503 (with Retry-After) without running the handler
            // at all, so a persistently faulting endpoint stops burning
            // worker time while the rest of the API keeps serving.
            let admission = inner.health.admit(&label);
            if admission == Admission::Reject {
                let body = api::error_body(
                    "unavailable",
                    &format!("circuit breaker for {label} is open; retry later"),
                    None,
                    None,
                );
                (label, 503, body, None)
            } else {
                // Endpoint-aware fault boundary: a panicking handler
                // counts against *this endpoint's* breaker (the
                // worker-level boundary stays as the backstop for
                // everything outside routing).
                let routed = catch_unwind(AssertUnwindSafe(|| route(&req, inner)));
                match routed {
                    Ok((status, body, etag)) => {
                        inner.health.report(&label, admission, status >= 500);
                        (label, status, body, etag)
                    }
                    Err(payload) => {
                        inner.health.report(&label, admission, true);
                        let body = api::error_body(
                            "faulted",
                            &format!(
                                "fault isolated in request handler: {}",
                                panic_text(payload.as_ref())
                            ),
                            None,
                            None,
                        );
                        (label, 500, body, None)
                    }
                }
            }
        }
        Err(e) => {
            let (status, kind) = match &e {
                HttpError::BadRequest(_) => (400, "bad_request"),
                HttpError::PayloadTooLarge(_) => (413, "payload_too_large"),
                HttpError::Incomplete(_) => (408, "bad_request"),
                HttpError::Timeout(_) => (408, "timeout"),
            };
            let body = api::error_body(kind, &e.to_string(), None, None);
            ("(unparsed)".to_string(), status, body, None)
        }
    };
    sustain_sim_core::faultpoint!(infallible "service::respond");
    let mut headers: Vec<(&str, &str)> = Vec::new();
    if let Some(tag) = &etag {
        headers.push(("ETag", tag));
    }
    if status == 503 || status == 429 {
        // Every shedding response tells the client when to come back.
        headers.push(("Retry-After", "1"));
    }
    let _ = write_json_response_with_headers(conn, status, &body, &headers);
    if !fully_read {
        // The request was not fully consumed: drain what remains so
        // closing after the error response does not RST it away.
        drain_unread(conn);
    }
    let latency_us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
    inner.log.record(&label, status, latency_us);
}

/// Routes one parsed request to its handler. The third element is the
/// deterministic `ETag` to attach, carried only by `POST /run`
/// responses (both `200` and `304`).
fn route(req: &Request, inner: &Inner) -> (u16, String, Option<String>) {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => (200, "{\n  \"status\": \"ok\"\n}".to_string(), None),
        ("GET", "/readyz") => {
            let (status, body) = ready_response(inner);
            (status, body, None)
        }
        ("GET", "/stats") => {
            let (status, body) = stats_response(inner);
            (status, body, None)
        }
        ("POST", "/run") => match parse_body::<api::RunRequest>(&req.body) {
            Ok(run_req) => {
                // The ETag is the canonical hash of the scenario the
                // request materializes; the simulation is pure in that
                // scenario, so a tag match proves the client's cached
                // body is current — answer 304 without running.
                let etag = api::run_etag(&run_req);
                if let (Some(tag), Some(held)) = (&etag, &req.if_none_match) {
                    if held == tag {
                        return (304, String::new(), etag);
                    }
                }
                match api::run_body_with_ctl(&run_req, Some(&inner.cancel)) {
                    Ok(body) => (200, body, etag),
                    Err(e) => {
                        let (status, body) = api::sim_error_response(&e);
                        (status, body, None)
                    }
                }
            }
            Err((status, body)) => (status, body, None),
        },
        ("POST", "/sweep") => match parse_body::<api::SweepRequest>(&req.body) {
            Ok(sweep_req) => {
                match api::sweep_body_with_ctl(&sweep_req, Some(&inner.cancel), None) {
                    Ok(body) => (200, body, None),
                    Err(e) => {
                        let (status, body) = api::sim_error_response(&e);
                        (status, body, None)
                    }
                }
            }
            Err((status, body)) => (status, body, None),
        },
        ("POST", "/shutdown") => {
            // Fire the server token right here: every in-flight
            // simulation holds a clone of it, so each stops at its next
            // check bucket instead of riding out the drain (the
            // embedding loop still observes the flag and stops the
            // listener via `ServerHandle::shutdown`).
            inner.cancel.cancel("shutdown requested");
            inner.shutdown_requested.store(true, Ordering::SeqCst);
            (200, "{\n  \"status\": \"draining\"\n}".to_string(), None)
        }
        ("GET" | "POST", _) => (
            404,
            api::error_body(
                "not_found",
                &format!("no such endpoint: {}", req.path),
                None,
                None,
            ),
            None,
        ),
        (method, _) => (
            405,
            api::error_body(
                "method_not_allowed",
                &format!("method {method} is not supported"),
                None,
                None,
            ),
            None,
        ),
    }
}

/// Parses a JSON request body into `T`, mapping failure to a 400 with a
/// typed `bad_request` body.
fn parse_body<T: Deserialize>(body: &[u8]) -> Result<T, (u16, String)> {
    serde_json::from_slice::<T>(body).map_err(|e| {
        (
            400,
            api::error_body(
                "bad_request",
                &format!("invalid JSON body: {e}"),
                None,
                None,
            ),
        )
    })
}

/// Snapshots the `GET /stats` body.
fn stats_body(inner: &Inner) -> StatsBody {
    StatsBody {
        workers: inner.workers,
        threads: rayon::current_num_threads(),
        queue_depth: inner.options.queue_depth,
        in_flight: inner.in_flight.load(Ordering::SeqCst),
        rejected_overload: inner.rejected_overload.load(Ordering::Relaxed),
        trace_cache: global_trace_cache().stats(),
        outcome_cache: global_outcome_cache().stats(),
        workload_cache: global_workload_cache().stats(),
        hot_path: hot_path_totals(),
        self_healing: inner.health.snapshot(),
        requests: inner.log.snapshot(),
    }
}

/// Builds the `GET /stats` response.
fn stats_response(inner: &Inner) -> (u16, String) {
    match serde_json::to_string_pretty(&stats_body(inner)) {
        Ok(body) => (200, body),
        Err(e) => (
            500,
            api::error_body(
                "faulted",
                &format!("cannot serialize stats: {e}"),
                None,
                None,
            ),
        ),
    }
}

/// Snapshots the `GET /readyz` body and its verdict: 200 only when the
/// process is [`ProcessHealth::Healthy`]; a degraded or draining
/// process answers 503 (with `Retry-After`) so load balancers stop
/// routing here while `GET /healthz` keeps reporting liveness.
fn ready_body(inner: &Inner) -> (u16, ReadyBody) {
    let draining = inner.shutdown.load(Ordering::SeqCst)
        || inner.shutdown_requested.load(Ordering::SeqCst)
        || inner.cancel.is_cancelled();
    let window = inner.log.window();
    let health = inner.health.process_health(draining, &window);
    let body = ReadyBody {
        status: health.name().to_string(),
        window,
        breakers: inner.health.snapshot().breakers,
    };
    let status = if health == ProcessHealth::Healthy {
        200
    } else {
        503
    };
    (status, body)
}

/// Builds the `GET /readyz` response.
fn ready_response(inner: &Inner) -> (u16, String) {
    let (status, body) = ready_body(inner);
    match serde_json::to_string_pretty(&body) {
        Ok(body) => (status, body),
        Err(e) => (
            500,
            api::error_body(
                "faulted",
                &format!("cannot serialize readiness: {e}"),
                None,
                None,
            ),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;
    use std::io::{Read as _, Write as _};

    fn raw_response(addr: SocketAddr, raw: &str) -> String {
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.write_all(raw.as_bytes()).unwrap();
        let mut response = String::new();
        conn.read_to_string(&mut response).unwrap();
        response
    }

    fn header_of(response: &str, name: &str) -> Option<String> {
        let head = response.split("\r\n\r\n").next().unwrap_or_default();
        head.lines().find_map(|line| {
            let (n, v) = line.split_once(':')?;
            n.eq_ignore_ascii_case(name).then(|| v.trim().to_string())
        })
    }

    fn request(addr: SocketAddr, raw: &str) -> (u16, String) {
        let response = raw_response(addr, raw);
        let status: u16 = response
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap();
        let body = response
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        (status, body)
    }

    fn post(addr: SocketAddr, path: &str, json: &str) -> (u16, String) {
        request(
            addr,
            &format!(
                "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{json}",
                json.len()
            ),
        )
    }

    #[test]
    fn serves_health_run_stats_and_typed_errors() {
        let handle = serve(ServeOptions::default()).unwrap();
        let addr = handle.local_addr();

        let (status, body) = request(addr, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
        assert_eq!(status, 200);
        assert!(body.contains("\"ok\""));

        let (status, body) = post(addr, "/run", r#"{"days": 2, "nodes": 600}"#);
        assert_eq!(status, 200, "{body}");
        let expected = api::run_body(&api::RunRequest {
            days: 2,
            nodes: 600,
            ..api::RunRequest::default()
        })
        .unwrap();
        assert_eq!(body, expected, "service body must equal the handler body");

        // Malformed JSON: typed bad_request.
        let (status, body) = post(addr, "/run", "{not json");
        assert_eq!(status, 400);
        let v: Value = serde_json::from_str(&body).unwrap();
        assert_eq!(v["error"]["kind"].as_str(), Some("bad_request"));

        // Unknown field: also a typed 400.
        let (status, _) = post(addr, "/run", r#"{"dayz": 2}"#);
        assert_eq!(status, 400);

        // Config rejection: typed config error naming the field.
        let (status, body) = post(addr, "/run", r#"{"days": 0}"#);
        assert_eq!(status, 400);
        let v: Value = serde_json::from_str(&body).unwrap();
        assert_eq!(v["error"]["kind"].as_str(), Some("config"));

        let (status, _) = request(addr, "GET /nope HTTP/1.1\r\nHost: t\r\n\r\n");
        assert_eq!(status, 404);
        let (status, _) = request(addr, "PUT /run HTTP/1.1\r\nHost: t\r\n\r\n");
        assert_eq!(status, 405);

        let (status, body) = request(addr, "GET /stats HTTP/1.1\r\nHost: t\r\n\r\n");
        assert_eq!(status, 200);
        let v: Value = serde_json::from_str(&body).unwrap();
        assert!(v["trace_cache"].as_object().is_some());
        assert!(v["outcome_cache"].as_object().is_some());
        assert!(v["workload_cache"].as_object().is_some());
        assert!(v["hot_path"].as_object().is_some());
        let endpoints = v["requests"].as_array().unwrap();
        assert!(
            endpoints
                .iter()
                .any(|e| e["endpoint"].as_str() == Some("POST /run")),
            "stats must list the /run endpoint: {body}"
        );

        handle.shutdown_and_join();
    }

    #[test]
    fn run_carries_a_deterministic_etag_and_honors_if_none_match() {
        let handle = serve(ServeOptions::default()).unwrap();
        let addr = handle.local_addr();
        let json = r#"{"days": 2, "nodes": 600, "seed": 77}"#;
        let raw = format!(
            "POST /run HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{json}",
            json.len()
        );

        let first = raw_response(addr, &raw);
        assert!(first.starts_with("HTTP/1.1 200"), "{first}");
        let etag = header_of(&first, "etag").expect("200 /run must carry an ETag");
        assert!(
            etag.starts_with('"') && etag.ends_with('"') && etag.len() == 18,
            "ETag must be a quoted 16-hex-digit tag, got {etag:?}"
        );

        // Same request again: same tag (deterministic, content-derived).
        let second = raw_response(addr, &raw);
        assert_eq!(header_of(&second, "etag").as_ref(), Some(&etag));

        // Conditional request with the current tag: 304, empty body,
        // tag echoed.
        let conditional = format!(
            "POST /run HTTP/1.1\r\nHost: t\r\nIf-None-Match: {etag}\r\nContent-Length: {}\r\n\r\n{json}",
            json.len()
        );
        let not_modified = raw_response(addr, &conditional);
        assert!(not_modified.starts_with("HTTP/1.1 304"), "{not_modified}");
        assert_eq!(header_of(&not_modified, "etag").as_ref(), Some(&etag));
        let body = not_modified.split_once("\r\n\r\n").unwrap().1;
        assert!(body.is_empty(), "304 must carry no body, got {body:?}");

        // A stale tag still gets the full body.
        let stale = format!(
            "POST /run HTTP/1.1\r\nHost: t\r\nIf-None-Match: \"0000000000000000\"\r\nContent-Length: {}\r\n\r\n{json}",
            json.len()
        );
        let refreshed = raw_response(addr, &stale);
        assert!(refreshed.starts_with("HTTP/1.1 200"), "{refreshed}");

        // A different scenario gets a different tag.
        let other = r#"{"days": 2, "nodes": 600, "seed": 78}"#;
        let other_raw = format!(
            "POST /run HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{other}",
            other.len()
        );
        let other_resp = raw_response(addr, &other_raw);
        assert_ne!(header_of(&other_resp, "etag").as_ref(), Some(&etag));

        handle.shutdown_and_join();
    }

    #[test]
    fn idle_shutdown_returns_promptly_on_loopback_and_unspecified_binds() {
        for addr in ["127.0.0.1:0", "0.0.0.0:0"] {
            let handle = serve(ServeOptions {
                addr: addr.to_string(),
                ..ServeOptions::default()
            })
            .unwrap();
            let started = Instant::now();
            handle.shutdown_and_join();
            let took = started.elapsed();
            assert!(
                took < Duration::from_secs(1),
                "{addr}: shutdown took {took:?}"
            );
        }
    }

    /// Sends `GET /healthz` on `conn` and reads the whole response;
    /// `None` when the connection was reset or refused unanswered.
    fn healthz_on(conn: io::Result<TcpStream>) -> Option<String> {
        let mut conn = conn.ok()?;
        // A request turned away unread may meet a closed socket.
        let _ = conn.write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
        let mut response = String::new();
        conn.read_to_string(&mut response).ok()?;
        Some(response)
    }

    fn assert_typed_503(response: &str) {
        assert!(response.starts_with("HTTP/1.1 503"), "{response}");
        assert_eq!(header_of(response, "retry-after").as_deref(), Some("1"));
        let body = response.split_once("\r\n\r\n").unwrap().1;
        let v: Value = serde_json::from_str(body).unwrap();
        assert_eq!(v["error"]["kind"].as_str(), Some("unavailable"), "{body}");
    }

    #[test]
    fn connections_racing_shutdown_get_a_200_or_a_typed_503() {
        const CLIENTS: usize = 8;
        let handle = serve(ServeOptions::default()).unwrap();
        let addr = handle.local_addr();
        // Half the clients connect before shutdown begins, so they are
        // accepted (or wait in the backlog ahead of the wake) and must
        // be answered. The other half connect while it runs: one the
        // listener never accepted is reset or refused, which is no
        // response but no silent close either.
        let go = Arc::new(std::sync::Barrier::new(CLIENTS + 1));
        let clients: Vec<_> = (0..CLIENTS)
            .map(|i| {
                let early = (i % 2 == 0).then(|| TcpStream::connect(addr));
                let go = Arc::clone(&go);
                std::thread::spawn(move || {
                    go.wait();
                    let response = healthz_on(early.unwrap_or_else(|| TcpStream::connect(addr)));
                    (i % 2 == 0, response)
                })
            })
            .collect();
        go.wait();
        handle.shutdown_and_join();
        for client in clients {
            let (early, response) = client.join().unwrap();
            let Some(response) = response else {
                assert!(
                    !early,
                    "a client connected before shutdown was not answered"
                );
                continue;
            };
            assert!(
                !response.is_empty(),
                "a connection was closed without a response"
            );
            if !response.starts_with("HTTP/1.1 200") {
                assert_typed_503(&response);
            }
        }
    }

    #[test]
    fn a_connection_accepted_after_shutdown_began_gets_a_typed_503() {
        let handle = serve(ServeOptions::default()).unwrap();
        // Shutdown has begun but the wake has not connected yet: the
        // accept thread takes the client for one racing the shutdown.
        assert!(handle.inner.begin_shutdown());
        let response = healthz_on(TcpStream::connect(handle.local_addr())).unwrap();
        assert_typed_503(&response);
        handle.wake_accept();
        handle.join();
    }

    /// The streaming writer renders `x` exactly as it renders the
    /// `Value` tree `x` lowers to, pretty and compact.
    fn assert_streams_like_its_tree<T: Serialize>(x: &T) {
        let tree = x.to_value();
        assert_eq!(
            serde_json::to_string_pretty(x).unwrap(),
            serde_json::to_string_pretty(&tree).unwrap()
        );
        assert_eq!(
            serde_json::to_string(x).unwrap(),
            serde_json::to_string(&tree).unwrap()
        );
    }

    #[test]
    fn every_body_type_streams_like_its_value_tree() {
        let handle = serve(ServeOptions::default()).unwrap();
        let addr = handle.local_addr();
        // Traffic, so the stats and readiness bodies carry entries.
        let (status, _) = post(addr, "/run", r#"{"days": 2, "nodes": 600}"#);
        assert_eq!(status, 200);
        let (status, _) = request(addr, "GET /nope HTTP/1.1\r\nHost: t\r\n\r\n");
        assert_eq!(status, 404);

        let run = api::RunRequest {
            days: 2,
            nodes: 600,
            ..api::RunRequest::default()
        };
        let scenario = run.to_scenario().unwrap();
        let result =
            sustain_hpc_core::scenario::run(&scenario, &sustain_sim_core::ctl::RunCtl::unlimited())
                .unwrap();
        assert_streams_like_its_tree(&result);

        let row: api::SweepRow = serde_json::from_str(
            r#"{"name": "n", "seed": 1, "jobs": 2, "unfinished": 0,
                "makespan_hours": 1.5, "mean_wait_hours": 0.25, "utilization": 0.5,
                "energy_kwh": 3.0, "carbon_kg": 1.0, "facility_carbon_kg": 1.2,
                "grid_mean_ci": 400.0}"#,
        )
        .unwrap();
        let sweep = api::SweepResponse {
            axis: "seed".into(),
            master_seed: 7,
            derive_seeds: true,
            points: vec![
                api::SweepPointOutcome {
                    index: 0,
                    value: 1.0,
                    row: Some(row),
                    error: None,
                },
                api::SweepPointOutcome {
                    index: 1,
                    value: f64::NAN,
                    row: None,
                    error: Some(sustain_sim_core::error::SimError::invalid_input(
                        "a \"quoted\"\nmessage",
                    )),
                },
            ],
        };
        assert_streams_like_its_tree(&sweep);

        assert_streams_like_its_tree(&api::ErrorBody {
            error: api::ErrorDetail {
                kind: "bad_request".into(),
                message: "tab\there".into(),
                context: Some("RunRequest".into()),
                field: None,
            },
        });
        assert_streams_like_its_tree(&stats_body(&handle.inner));
        assert_streams_like_its_tree(&ready_body(&handle.inner).1);
        handle.shutdown_and_join();
    }

    #[test]
    fn shutdown_endpoint_latches_the_request_flag() {
        let handle = serve(ServeOptions::default()).unwrap();
        let addr = handle.local_addr();
        assert!(!handle.shutdown_requested());
        let (status, body) = post(addr, "/shutdown", "");
        assert_eq!(status, 200);
        assert!(body.contains("draining"));
        assert!(handle.shutdown_requested());
        handle.shutdown_and_join();
    }
}
