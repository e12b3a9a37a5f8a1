//! The service's self-healing layer: per-endpoint circuit breakers, a
//! process health state machine, and the in-flight request watchdog.
//!
//! ## Circuit breakers
//!
//! Each simulation endpoint (`POST /run`, `POST /sweep`) gets its own
//! `Breaker`. A breaker is *closed* (admitting requests) until
//! [`breaker_trip`] **consecutive** handler faults — 5xx responses or
//! handler panics — open it. An open breaker rejects requests with a
//! typed 503 (`kind: "unavailable"`, `Retry-After` attached) without
//! running the handler; after [`BREAKER_PROBE_AFTER`] rejections the
//! next request is admitted as a *half-open probe*. A successful probe
//! recloses the breaker; a failed probe reopens it. Using a rejected-
//! request count instead of a wall-clock cooldown keeps the state
//! machine deterministic under test: the Nth request after a trip
//! always observes the same state.
//!
//! ## Process health
//!
//! `ProcessHealth` folds the breakers, the sliding request-error
//! window ([`sustain_telemetry::requests::WindowStats`]), and the drain
//! flag into one of `Healthy` / `Degraded` / `Draining`, surfaced by
//! `GET /readyz` (503 unless `Healthy`). `GET /healthz` stays pure
//! liveness — a degraded process is alive but asks the load balancer
//! to back off.
//!
//! ## Watchdog
//!
//! Requests that carry a `timeout_ms` budget already cancel themselves
//! cooperatively — but only at their next check bucket. A handler stuck
//! somewhere that never reaches a check (an armed `delay` fault, a
//! pathological allocation) would pin a worker forever. The watchdog
//! registry tracks every in-flight request's [`CancelToken`]; a
//! dedicated thread cancels any request still running past
//! `watchdog_factor` × its own deadline budget, with a reason naming
//! the watchdog, so the stuck request resolves as a typed 408 at its
//! next check. Requests without a budget are registered too (so server
//! shutdown can cancel them) but are never watchdog-cancelled.

use serde::Serialize;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use sustain_sim_core::ctl::CancelToken;
use sustain_sim_core::error::{env_knob_usize, ConfigError};
use sustain_sim_core::retry::{retry_stats, RetryStats};
use sustain_telemetry::requests::WindowStats;

/// Environment variable: consecutive handler faults that open an
/// endpoint's circuit breaker (>= 1).
pub(crate) const BREAKER_TRIP_ENV: &str = "SUSTAIN_BREAKER_TRIP";
/// Environment variable: multiple of a request's own deadline budget
/// after which the watchdog force-cancels it (>= 1).
pub(crate) const WATCHDOG_FACTOR_ENV: &str = "SUSTAIN_WATCHDOG_FACTOR";

/// Default [`BREAKER_TRIP_ENV`]: three consecutive faults open.
pub(crate) const DEFAULT_BREAKER_TRIP: usize = 3;
/// Default `WATCHDOG_FACTOR_ENV`: cancel at 4x the deadline budget.
pub const DEFAULT_WATCHDOG_FACTOR: usize = 4;
/// Rejections an open breaker serves before admitting a half-open
/// probe.
pub const BREAKER_PROBE_AFTER: usize = 2;

/// Sliding-window 5xx rate at or above which the process reports
/// `Degraded` (given enough samples; see
/// [`sustain_telemetry::requests::ERROR_WINDOW_MIN_SAMPLES`]).
pub(crate) const DEGRADED_ERROR_RATE: f64 = 0.5;

static BREAKER_TRIP: AtomicUsize = AtomicUsize::new(DEFAULT_BREAKER_TRIP);
static WATCHDOG_FACTOR: AtomicUsize = AtomicUsize::new(DEFAULT_WATCHDOG_FACTOR);

/// Consecutive handler faults that open a breaker (process-wide knob).
pub fn breaker_trip() -> usize {
    BREAKER_TRIP.load(Ordering::Relaxed)
}

/// Sets the breaker trip threshold; rejects 0 with a typed error.
pub(crate) fn try_set_breaker_trip(n: usize) -> Result<(), ConfigError> {
    if n == 0 {
        return Err(ConfigError::new(
            "health",
            BREAKER_TRIP_ENV,
            "must be >= 1 (faults before the breaker opens), got 0",
        ));
    }
    BREAKER_TRIP.store(n, Ordering::Relaxed);
    Ok(())
}

/// Watchdog hard-deadline multiple (process-wide knob).
pub(crate) fn watchdog_factor() -> usize {
    WATCHDOG_FACTOR.load(Ordering::Relaxed)
}

/// Sets the watchdog factor; rejects 0 with a typed error.
pub fn try_set_watchdog_factor(n: usize) -> Result<(), ConfigError> {
    if n == 0 {
        return Err(ConfigError::new(
            "health",
            WATCHDOG_FACTOR_ENV,
            "must be >= 1 (multiple of the request deadline), got 0",
        ));
    }
    WATCHDOG_FACTOR.store(n, Ordering::Relaxed);
    Ok(())
}

/// Strict startup parsing of `BREAKER_TRIP_ENV` and
/// `WATCHDOG_FACTOR_ENV`: absent keeps the defaults, invalid is a
/// typed error naming the variable — never a silent fallback.
pub fn init_health_from_env() -> Result<(), ConfigError> {
    if let Some(n) = env_knob_usize(BREAKER_TRIP_ENV)? {
        try_set_breaker_trip(n)?;
    }
    if let Some(n) = env_knob_usize(WATCHDOG_FACTOR_ENV)? {
        try_set_watchdog_factor(n)?;
    }
    Ok(())
}

/// One endpoint's breaker state (see the module docs for transitions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BreakerState {
    /// Admitting; counts consecutive faults toward the trip threshold.
    Closed { consecutive_failures: usize },
    /// Rejecting; counts rejections toward the half-open probe.
    Open { rejected: usize },
    /// One probe request is in flight; everything else is rejected.
    HalfOpen,
}

/// What the breaker decided about one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Admission {
    /// Closed breaker: run the handler normally.
    Allow,
    /// Half-open probe: run the handler; its outcome recloses or
    /// reopens the breaker.
    Probe,
    /// Open breaker: answer 503 without running the handler.
    Reject,
}

/// Per-endpoint circuit breaker.
#[derive(Debug)]
pub(crate) struct Breaker {
    state: Mutex<BreakerState>,
}

/// Recovers a poisoned std mutex: breaker and watchdog state are plain
/// data, valid whatever a panicking thread was doing.
fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl Default for Breaker {
    fn default() -> Self {
        Breaker {
            state: Mutex::new(BreakerState::Closed {
                consecutive_failures: 0,
            }),
        }
    }
}

impl Breaker {
    /// Decides whether to admit one request (see [`Admission`]).
    fn admit(&self) -> Admission {
        let mut state = lock_unpoisoned(&self.state);
        match *state {
            BreakerState::Closed { .. } => Admission::Allow,
            BreakerState::Open { ref mut rejected } => {
                if *rejected >= BREAKER_PROBE_AFTER {
                    *state = BreakerState::HalfOpen;
                    Admission::Probe
                } else {
                    *rejected += 1;
                    Admission::Reject
                }
            }
            BreakerState::HalfOpen => Admission::Reject,
        }
    }

    /// Feeds one admitted request's outcome back. Returns `(opened,
    /// reclosed)` so the owning [`Health`] can count transitions.
    fn report(&self, admission: Admission, failed: bool) -> (bool, bool) {
        let mut state = lock_unpoisoned(&self.state);
        match (admission, failed) {
            (Admission::Probe, false) => {
                *state = BreakerState::Closed {
                    consecutive_failures: 0,
                };
                (false, true)
            }
            (Admission::Probe, true) => {
                *state = BreakerState::Open { rejected: 0 };
                (true, false)
            }
            (Admission::Allow, failed) => match *state {
                BreakerState::Closed {
                    ref mut consecutive_failures,
                } => {
                    if failed {
                        *consecutive_failures += 1;
                        if *consecutive_failures >= breaker_trip() {
                            *state = BreakerState::Open { rejected: 0 };
                            return (true, false);
                        }
                    } else {
                        *consecutive_failures = 0;
                    }
                    (false, false)
                }
                // A concurrent request already tripped (or is probing)
                // this breaker; this straggler's outcome is stale.
                BreakerState::Open { .. } | BreakerState::HalfOpen => (false, false),
            },
            (Admission::Reject, _) => (false, false),
        }
    }

    fn snapshot(&self, endpoint: &str) -> BreakerSnapshot {
        let state = lock_unpoisoned(&self.state);
        let (name, consecutive_failures, rejected_since_open) = match *state {
            BreakerState::Closed {
                consecutive_failures,
            } => ("closed", consecutive_failures as u64, 0),
            BreakerState::Open { rejected } => ("open", 0, rejected as u64),
            BreakerState::HalfOpen => ("half_open", 0, 0),
        };
        BreakerSnapshot {
            endpoint: endpoint.to_string(),
            state: name.to_string(),
            consecutive_failures,
            rejected_since_open,
        }
    }

    fn is_closed(&self) -> bool {
        matches!(*lock_unpoisoned(&self.state), BreakerState::Closed { .. })
    }
}

/// Serializable state of one endpoint's breaker (`GET /stats`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub(crate) struct BreakerSnapshot {
    /// Endpoint label, e.g. `"POST /run"`.
    pub endpoint: String,
    /// `"closed"`, `"open"`, or `"half_open"`.
    pub state: String,
    /// Consecutive faults accumulated while closed.
    pub consecutive_failures: u64,
    /// Requests rejected since the breaker opened (resets on probe).
    pub rejected_since_open: u64,
}

/// The process health verdict reported by `GET /readyz`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ProcessHealth {
    /// Ready: every breaker closed, windowed error rate acceptable.
    Healthy,
    /// Alive but shedding or failing: a breaker is open/half-open, or
    /// the sliding-window 5xx rate is at least [`DEGRADED_ERROR_RATE`].
    Degraded,
    /// Shutdown has begun; no new work should be routed here.
    Draining,
}

impl ProcessHealth {
    /// Stable lowercase name for response bodies.
    pub fn name(&self) -> &'static str {
        match self {
            ProcessHealth::Healthy => "healthy",
            ProcessHealth::Degraded => "degraded",
            ProcessHealth::Draining => "draining",
        }
    }
}

/// One watched in-flight request.
struct WatchEntry {
    id: u64,
    token: CancelToken,
    /// Hard wall-clock deadline ([`watchdog_factor`] × the request's
    /// own budget); `None` = no budget, shutdown-cancellable only.
    expires_at: Option<Instant>,
    budget: Duration,
}

/// The server's shared self-healing state: breakers keyed by endpoint
/// label, the watchdog registry, and transition counters.
#[derive(Default)]
pub(crate) struct Health {
    breakers: Mutex<BTreeMap<String, Arc<Breaker>>>,
    watched: Mutex<Vec<WatchEntry>>,
    next_watch_id: AtomicU64,
    breaker_opens: AtomicU64,
    breaker_rejections: AtomicU64,
    breaker_recloses: AtomicU64,
    watchdog_cancels: AtomicU64,
}

impl std::fmt::Debug for Health {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Health")
            .field("breakers", &lock_unpoisoned(&self.breakers).len())
            .field("watched", &lock_unpoisoned(&self.watched).len())
            .finish()
    }
}

/// Deregisters its watchdog entry on drop, so a request that completes
/// (or unwinds) is never cancelled after the fact.
pub(crate) struct WatchGuard<'a> {
    health: &'a Health,
    id: u64,
}

impl Drop for WatchGuard<'_> {
    fn drop(&mut self) {
        lock_unpoisoned(&self.health.watched).retain(|e| e.id != self.id);
    }
}

impl Health {
    /// Creates the empty health state.
    pub fn new() -> Health {
        Health::default()
    }

    /// Whether the breaker layer guards this endpoint. Liveness,
    /// readiness, stats, and shutdown must stay answerable precisely
    /// when the process is unhealthy, so only the simulation endpoints
    /// are breakable.
    pub(crate) fn guarded(endpoint: &str) -> bool {
        matches!(endpoint, "POST /run" | "POST /sweep")
    }

    fn breaker(&self, endpoint: &str) -> Arc<Breaker> {
        let mut map = lock_unpoisoned(&self.breakers);
        match map.get(endpoint) {
            Some(b) => Arc::clone(b),
            None => {
                let b = Arc::new(Breaker::default());
                map.insert(endpoint.to_string(), Arc::clone(&b));
                b
            }
        }
    }

    /// Breaker admission for one request; counts rejections.
    pub(crate) fn admit(&self, endpoint: &str) -> Admission {
        if !Health::guarded(endpoint) {
            return Admission::Allow;
        }
        let admission = self.breaker(endpoint).admit();
        if admission == Admission::Reject {
            self.breaker_rejections.fetch_add(1, Ordering::Relaxed);
        }
        admission
    }

    /// Feeds an admitted request's outcome back into its breaker;
    /// counts open/reclose transitions.
    pub fn report(&self, endpoint: &str, admission: Admission, failed: bool) {
        if !Health::guarded(endpoint) {
            return;
        }
        let (opened, reclosed) = self.breaker(endpoint).report(admission, failed);
        if opened {
            self.breaker_opens.fetch_add(1, Ordering::Relaxed);
        }
        if reclosed {
            self.breaker_recloses.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Registers one in-flight request with the watchdog. With a
    /// `budget`, the request is force-cancelled once it has run for
    /// [`watchdog_factor`] × that budget; without one it is only
    /// cancellable via [`Health::cancel_inflight`] (shutdown).
    pub(crate) fn watch<'a>(
        &'a self,
        token: &CancelToken,
        budget: Option<Duration>,
    ) -> WatchGuard<'a> {
        let id = self.next_watch_id.fetch_add(1, Ordering::Relaxed);
        let expires_at = budget.map(|b| Instant::now() + b * watchdog_factor() as u32);
        lock_unpoisoned(&self.watched).push(WatchEntry {
            id,
            token: token.clone(),
            expires_at,
            budget: budget.unwrap_or_default(),
        });
        WatchGuard { health: self, id }
    }

    /// One watchdog pass: cancels (and drops) every watched request
    /// past its hard deadline. Called periodically by the server's
    /// watchdog thread; safe to call from anywhere.
    pub(crate) fn scan_watchdog(&self) {
        let now = Instant::now();
        let mut watched = lock_unpoisoned(&self.watched);
        watched.retain(|e| match e.expires_at {
            Some(at) if now >= at => {
                e.token.cancel(&format!(
                    "watchdog cancelled request stuck past {}x its deadline budget of {:.3}s",
                    watchdog_factor(),
                    e.budget.as_secs_f64()
                ));
                self.watchdog_cancels.fetch_add(1, Ordering::Relaxed);
                false
            }
            _ => true,
        });
    }

    /// Cancels every watched in-flight request (server shutdown). Not
    /// counted as watchdog cancels.
    pub(crate) fn cancel_inflight(&self, reason: &str) {
        for entry in lock_unpoisoned(&self.watched).iter() {
            entry.token.cancel(reason);
        }
    }

    /// Whether every breaker is currently closed.
    pub(crate) fn all_breakers_closed(&self) -> bool {
        lock_unpoisoned(&self.breakers)
            .values()
            .all(|b| b.is_closed())
    }

    /// Folds drain state, breakers, and the sliding error window into
    /// the process health verdict.
    pub(crate) fn process_health(&self, draining: bool, window: &WindowStats) -> ProcessHealth {
        if draining {
            return ProcessHealth::Draining;
        }
        if !self.all_breakers_closed() || window.error_rate() >= DEGRADED_ERROR_RATE {
            return ProcessHealth::Degraded;
        }
        ProcessHealth::Healthy
    }

    /// Serializable snapshot of every self-healing counter, including
    /// the process-wide retry layer's.
    pub fn snapshot(&self) -> SelfHealingSnapshot {
        let breakers = lock_unpoisoned(&self.breakers)
            .iter()
            .map(|(endpoint, b)| b.snapshot(endpoint))
            .collect();
        SelfHealingSnapshot {
            retry: retry_stats(),
            breaker_opens: self.breaker_opens.load(Ordering::Relaxed),
            breaker_rejections: self.breaker_rejections.load(Ordering::Relaxed),
            breaker_recloses: self.breaker_recloses.load(Ordering::Relaxed),
            watchdog_cancels: self.watchdog_cancels.load(Ordering::Relaxed),
            breakers,
        }
    }
}

/// Body of the `self_healing` field of `GET /stats`.
#[derive(Debug, Clone, Serialize)]
pub(crate) struct SelfHealingSnapshot {
    /// Process-wide retry/heal/quarantine counters (the sweep layer).
    pub retry: RetryStats,
    /// Breaker transitions closed → open.
    pub breaker_opens: u64,
    /// Requests rejected by an open breaker.
    pub breaker_rejections: u64,
    /// Breaker transitions half-open → closed.
    pub breaker_recloses: u64,
    /// In-flight requests force-cancelled by the watchdog.
    pub watchdog_cancels: u64,
    /// Per-endpoint breaker states.
    pub breakers: Vec<BreakerSnapshot>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use sustain_telemetry::requests::ERROR_WINDOW_MIN_SAMPLES;

    /// Serializes breaker-knob mutation across tests in this module.
    static KNOB_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn breaker_trips_after_consecutive_faults_probes_and_recloses() {
        let _guard = lock_unpoisoned(&KNOB_LOCK);
        let health = Health::new();
        let trip = breaker_trip();
        // Interleaved successes keep resetting the consecutive count.
        for _ in 0..3 {
            for _ in 0..trip - 1 {
                assert_eq!(health.admit("POST /run"), Admission::Allow);
                health.report("POST /run", Admission::Allow, true);
            }
            assert_eq!(health.admit("POST /run"), Admission::Allow);
            health.report("POST /run", Admission::Allow, false);
        }
        assert!(health.all_breakers_closed());

        // Exactly `trip` consecutive faults open it.
        for _ in 0..trip {
            assert_eq!(health.admit("POST /run"), Admission::Allow);
            health.report("POST /run", Admission::Allow, true);
        }
        assert!(!health.all_breakers_closed());
        for _ in 0..BREAKER_PROBE_AFTER {
            assert_eq!(health.admit("POST /run"), Admission::Reject);
        }
        // The next request is the half-open probe; it fails, reopening.
        assert_eq!(health.admit("POST /run"), Admission::Probe);
        health.report("POST /run", Admission::Probe, true);
        for _ in 0..BREAKER_PROBE_AFTER {
            assert_eq!(health.admit("POST /run"), Admission::Reject);
        }
        // This probe succeeds: closed again, and admitting.
        assert_eq!(health.admit("POST /run"), Admission::Probe);
        health.report("POST /run", Admission::Probe, false);
        assert!(health.all_breakers_closed());
        assert_eq!(health.admit("POST /run"), Admission::Allow);

        let snap = health.snapshot();
        assert_eq!(snap.breaker_opens, 2);
        assert_eq!(snap.breaker_recloses, 1);
        assert_eq!(snap.breaker_rejections, 2 * BREAKER_PROBE_AFTER as u64);
        assert_eq!(snap.breakers.len(), 1);
        assert_eq!(snap.breakers[0].state, "closed");
    }

    #[test]
    fn unguarded_endpoints_bypass_the_breaker_layer() {
        let health = Health::new();
        for _ in 0..100 {
            assert_eq!(health.admit("GET /stats"), Admission::Allow);
            health.report("GET /stats", Admission::Allow, true);
        }
        assert!(health.all_breakers_closed());
        assert_eq!(health.snapshot().breakers.len(), 0);
    }

    #[test]
    fn breakers_are_independent_per_endpoint() {
        let _guard = lock_unpoisoned(&KNOB_LOCK);
        let health = Health::new();
        for _ in 0..breaker_trip() {
            health.admit("POST /run");
            health.report("POST /run", Admission::Allow, true);
        }
        assert_eq!(health.admit("POST /run"), Admission::Reject);
        assert_eq!(health.admit("POST /sweep"), Admission::Allow);
    }

    #[test]
    fn process_health_folds_drain_breakers_and_window() {
        let _guard = lock_unpoisoned(&KNOB_LOCK);
        let health = Health::new();
        let quiet = WindowStats {
            samples: 0,
            errors_5xx: 0,
        };
        assert_eq!(health.process_health(false, &quiet), ProcessHealth::Healthy);
        assert_eq!(health.process_health(true, &quiet), ProcessHealth::Draining);
        let failing = WindowStats {
            samples: ERROR_WINDOW_MIN_SAMPLES as u64,
            errors_5xx: ERROR_WINDOW_MIN_SAMPLES as u64,
        };
        assert_eq!(
            health.process_health(false, &failing),
            ProcessHealth::Degraded
        );
        // Draining wins over everything.
        assert_eq!(
            health.process_health(true, &failing),
            ProcessHealth::Draining
        );
        for _ in 0..breaker_trip() {
            health.admit("POST /sweep");
            health.report("POST /sweep", Admission::Allow, true);
        }
        assert_eq!(
            health.process_health(false, &quiet),
            ProcessHealth::Degraded
        );
    }

    #[test]
    fn watchdog_cancels_only_past_the_hard_deadline() {
        let health = Health::new();
        let stuck = CancelToken::new();
        let fine = CancelToken::new();
        let unbudgeted = CancelToken::new();
        let _g1 = health.watch(&stuck, Some(Duration::ZERO));
        let _g2 = health.watch(&fine, Some(Duration::from_secs(3600)));
        let _g3 = health.watch(&unbudgeted, None);
        health.scan_watchdog();
        assert!(stuck.is_cancelled());
        let reason = stuck.reason().unwrap();
        assert!(reason.contains("watchdog"), "{reason}");
        assert!(!fine.is_cancelled());
        assert!(!unbudgeted.is_cancelled());
        assert_eq!(health.snapshot().watchdog_cancels, 1);
        // Re-scanning never double-counts a cancelled entry.
        health.scan_watchdog();
        assert_eq!(health.snapshot().watchdog_cancels, 1);
    }

    #[test]
    fn dropped_watch_guard_deregisters_before_the_deadline() {
        let health = Health::new();
        let token = CancelToken::new();
        {
            let _guard = health.watch(&token, Some(Duration::ZERO));
        }
        health.scan_watchdog();
        assert!(!token.is_cancelled());
        assert_eq!(health.snapshot().watchdog_cancels, 0);
    }

    #[test]
    fn shutdown_cancels_every_watched_request_without_counting() {
        let health = Health::new();
        let a = CancelToken::new();
        let b = CancelToken::new();
        let _g1 = health.watch(&a, None);
        let _g2 = health.watch(&b, Some(Duration::from_secs(3600)));
        health.cancel_inflight("shutdown requested");
        assert_eq!(a.reason().as_deref(), Some("shutdown requested"));
        assert_eq!(b.reason().as_deref(), Some("shutdown requested"));
        assert_eq!(health.snapshot().watchdog_cancels, 0);
    }

    #[test]
    fn knobs_reject_zero_with_typed_errors() {
        let _guard = lock_unpoisoned(&KNOB_LOCK);
        let err = try_set_breaker_trip(0).unwrap_err();
        assert!(err.to_string().contains(BREAKER_TRIP_ENV), "{err}");
        let err = try_set_watchdog_factor(0).unwrap_err();
        assert!(err.to_string().contains(WATCHDOG_FACTOR_ENV), "{err}");
        // Valid values stick (restore the defaults afterwards).
        try_set_breaker_trip(5).unwrap();
        assert_eq!(breaker_trip(), 5);
        try_set_breaker_trip(DEFAULT_BREAKER_TRIP).unwrap();
        try_set_watchdog_factor(7).unwrap();
        assert_eq!(watchdog_factor(), 7);
        try_set_watchdog_factor(DEFAULT_WATCHDOG_FACTOR).unwrap();
    }
}
