//! Deterministic retry with bounded exponential backoff.
//!
//! The recovery half of the fault model (DESIGN.md §11): work that
//! fails with a `Transience::Transient` error is re-executed up to a
//! bounded number of attempts, with an exponential backoff whose jitter
//! is derived from the work's own seed via [`RngStream::derive`] — the
//! same machinery that makes every simulation reproducible — so retry
//! *schedules* replay bit-for-bit, not just retry *results*.
//!
//! Why retried results are trustworthy at all: point functions in this
//! workspace are pure in `(input, seed)` — the property the
//! memoization layer's canonical-hash contract already locks down — so
//! a successful retry is byte-identical to a first-try success. Retry
//! never changes what a sweep computes, only whether an injected or
//! environmental fault is allowed to waste the whole run.
//!
//! Policy knobs are process-wide and strictly parsed
//! (`RETRY_MAX_ENV`, `RETRY_BACKOFF_ENV`); counters
//! ([`RetryStats`]) are surfaced through `GET /stats` and the CLI
//! `--stats` flag next to the cache counters.

use crate::ctl::RunCtl;
use crate::error::{env_knob_usize, ConfigError, SimError, Transience};
use crate::rng::RngStream;
use crate::time::SimTime;
use serde::Serialize;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

/// Environment variable bounding attempts per unit of work (>= 1;
/// 1 disables retry entirely).
pub(crate) const RETRY_MAX_ENV: &str = "SUSTAIN_RETRY_MAX";
/// Environment variable setting the base backoff in milliseconds
/// (0 disables sleeping between attempts — useful under test).
pub(crate) const RETRY_BACKOFF_ENV: &str = "SUSTAIN_RETRY_BACKOFF_MS";

/// Default attempt bound when [`RETRY_MAX_ENV`] is unset.
pub(crate) const DEFAULT_MAX_ATTEMPTS: usize = 3;
/// Default base backoff when [`RETRY_BACKOFF_ENV`] is unset.
pub(crate) const DEFAULT_BACKOFF_MS: u64 = 25;
/// Hard ceiling on a single backoff sleep, whatever the base.
pub const BACKOFF_CAP_MS: u64 = 2_000;

static MAX_ATTEMPTS: AtomicUsize = AtomicUsize::new(DEFAULT_MAX_ATTEMPTS);
static BACKOFF_MS: AtomicU64 = AtomicU64::new(DEFAULT_BACKOFF_MS);

/// How many attempts a unit of work gets (process-wide knob, >= 1).
pub fn max_attempts() -> usize {
    MAX_ATTEMPTS.load(Ordering::Relaxed)
}

/// The process-wide base backoff in milliseconds.
pub fn base_backoff_ms() -> u64 {
    BACKOFF_MS.load(Ordering::Relaxed)
}

/// Sets the process-wide attempt bound. Zero is rejected: an attempt
/// budget of 0 would mean "never run the work at all".
pub(crate) fn try_set_max_attempts(n: usize) -> Result<(), ConfigError> {
    if n == 0 {
        return Err(ConfigError::new(
            "env",
            RETRY_MAX_ENV,
            "must be >= 1 (1 disables retry), got 0",
        ));
    }
    MAX_ATTEMPTS.store(n, Ordering::Relaxed);
    Ok(())
}

/// Sets the process-wide base backoff (milliseconds; 0 = no sleeping).
pub(crate) fn set_base_backoff_ms(ms: u64) {
    BACKOFF_MS.store(ms, Ordering::Relaxed);
}

/// Strictly applies `RETRY_MAX_ENV` and `RETRY_BACKOFF_ENV` if
/// set: unset keeps the defaults, anything unparseable (or a zero
/// attempt bound) is a typed [`ConfigError`] naming the variable.
pub fn init_retry_from_env() -> Result<(), ConfigError> {
    if let Some(n) = env_knob_usize(RETRY_MAX_ENV)? {
        try_set_max_attempts(n)?;
    }
    if let Some(ms) = env_knob_usize(RETRY_BACKOFF_ENV)? {
        set_base_backoff_ms(ms as u64);
    }
    Ok(())
}

/// A bounded-attempt, bounded-backoff retry policy.
///
/// `backoff_for` is a pure function of `(policy, seed, attempt)`, so a
/// retry schedule is as reproducible as the simulation it protects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts including the first (>= 1; 1 = no retries).
    pub max_attempts: usize,
    /// Base backoff; attempt `k`'s sleep grows as `base * 2^(k-1)`,
    /// capped at [`BACKOFF_CAP_MS`], with deterministic half-jitter.
    pub base_backoff: Duration,
}

impl RetryPolicy {
    /// A policy with an explicit attempt bound and base backoff.
    pub fn new(max_attempts: usize, base_backoff: Duration) -> RetryPolicy {
        assert!(max_attempts >= 1, "RetryPolicy requires max_attempts >= 1");
        RetryPolicy {
            max_attempts,
            base_backoff,
        }
    }

    /// The no-retry policy: one attempt, no backoff.
    pub fn none() -> RetryPolicy {
        RetryPolicy::new(1, Duration::ZERO)
    }

    /// The policy configured by the process-wide knobs
    /// (`RETRY_MAX_ENV` / `RETRY_BACKOFF_ENV`).
    pub fn from_global() -> RetryPolicy {
        RetryPolicy::new(max_attempts(), Duration::from_millis(base_backoff_ms()))
    }

    /// The sleep before re-attempting after failed attempt `attempt`
    /// (1-based): exponential in the attempt number, capped, with the
    /// upper half jittered deterministically from `seed` — the same
    /// `(seed, attempt)` pair always yields the same duration.
    pub fn backoff_for(&self, seed: u64, attempt: usize) -> Duration {
        let base_ms = self.base_backoff.as_millis() as u64;
        if base_ms == 0 {
            return Duration::ZERO;
        }
        let exp = base_ms
            .saturating_mul(1u64 << (attempt.saturating_sub(1)).min(16))
            .min(BACKOFF_CAP_MS);
        // Half fixed, half jittered: avoids thundering herds without
        // ever collapsing the sleep to zero.
        let mut rng = RngStream::new(seed)
            .derive("retry")
            .derive_idx(attempt as u64);
        let jittered = (exp as f64 / 2.0) * (1.0 + rng.uniform());
        Duration::from_millis(jittered.round() as u64)
    }
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy::new(
            DEFAULT_MAX_ATTEMPTS,
            Duration::from_millis(DEFAULT_BACKOFF_MS),
        )
    }
}

// Process-wide self-healing counters (monotone; surfaced in stats).
static RETRIES: AtomicU64 = AtomicU64::new(0);
static HEALED: AtomicU64 = AtomicU64::new(0);
static QUARANTINED: AtomicU64 = AtomicU64::new(0);
static TOMBSTONE_SKIPS: AtomicU64 = AtomicU64::new(0);

/// Records one re-execution of a transiently-failed unit of work.
pub(crate) fn note_retry() {
    RETRIES.fetch_add(1, Ordering::Relaxed);
}

/// Records a unit of work that succeeded after at least one retry.
pub(crate) fn note_heal() {
    HEALED.fetch_add(1, Ordering::Relaxed);
}

/// Records a unit of work quarantined after exhausting its attempts.
pub fn note_quarantine() {
    QUARANTINED.fetch_add(1, Ordering::Relaxed);
}

/// Records a journal replay that skipped a tombstoned unit of work.
pub fn note_tombstone_skip() {
    TOMBSTONE_SKIPS.fetch_add(1, Ordering::Relaxed);
}

/// A snapshot of the process-wide self-healing counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct RetryStats {
    /// Re-executions of transiently-failed work.
    pub retries: u64,
    /// Units that succeeded after at least one retry.
    pub healed: u64,
    /// Units quarantined after exhausting their attempt budget.
    pub quarantined: u64,
    /// Journal replays that skipped a tombstoned unit.
    pub tombstone_skips: u64,
}

/// Snapshots the process-wide self-healing counters.
pub fn retry_stats() -> RetryStats {
    RetryStats {
        retries: RETRIES.load(Ordering::Relaxed),
        healed: HEALED.load(Ordering::Relaxed),
        quarantined: QUARANTINED.load(Ordering::Relaxed),
        tombstone_skips: TOMBSTONE_SKIPS.load(Ordering::Relaxed),
    }
}

/// Runs `work` under `policy`, re-executing on `Transience::Transient`
/// failures with deterministic backoff, and returns the outcome plus
/// how many attempts actually executed (0 when a pending cancellation
/// preempted the first attempt).
///
/// `ctl` is honored *between* attempts: a pending cancellation wins
/// over the next retry (including mid-backoff — the sleep is sliced so
/// shutdown is never blocked behind a backoff), and the typed
/// `Cancelled` error is returned with zero sim time, matching the
/// between-points convention of the sweep driver. `Cancelled` results
/// from the work itself are never retried, `Permanent` ones fail
/// immediately.
pub fn run_with_retry<T>(
    policy: &RetryPolicy,
    seed: u64,
    ctl: &RunCtl,
    mut work: impl FnMut() -> Result<T, SimError>,
) -> (Result<T, SimError>, usize) {
    let mut attempt = 0usize;
    loop {
        attempt += 1;
        if let Err(cancelled) = ctl.check(SimTime::ZERO) {
            return (Err(cancelled), attempt - 1);
        }
        match work() {
            Ok(value) => {
                if attempt > 1 {
                    note_heal();
                }
                return (Ok(value), attempt);
            }
            Err(err) => match err.transience() {
                Transience::Transient if attempt < policy.max_attempts => {
                    note_retry();
                    let backoff = policy.backoff_for(seed, attempt);
                    if let Err(cancelled) = sleep_cooperatively(backoff, ctl) {
                        return (Err(cancelled), attempt);
                    }
                }
                Transience::Transient | Transience::Permanent | Transience::NeverRetry => {
                    return (Err(err), attempt);
                }
            },
        }
    }
}

/// Sleeps `total` in short slices, returning early with the typed
/// `Cancelled` error if `ctl` fires mid-backoff.
fn sleep_cooperatively(total: Duration, ctl: &RunCtl) -> Result<(), SimError> {
    const SLICE: Duration = Duration::from_millis(5);
    let mut left = total;
    while !left.is_zero() {
        ctl.check(SimTime::ZERO)?;
        let nap = left.min(SLICE);
        std::thread::sleep(nap);
        left = left.saturating_sub(nap);
    }
    ctl.check(SimTime::ZERO)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctl::CancelToken;
    use crate::error::ConfigError;

    fn transient() -> SimError {
        SimError::Faulted {
            unit: "test".into(),
            message: "injected".into(),
        }
    }

    #[test]
    fn backoff_schedule_is_deterministic_and_bounded() {
        let policy = RetryPolicy::new(5, Duration::from_millis(20));
        for attempt in 1..=6 {
            let a = policy.backoff_for(99, attempt);
            let b = policy.backoff_for(99, attempt);
            assert_eq!(a, b, "same (seed, attempt) must yield the same sleep");
            assert!(a <= Duration::from_millis(BACKOFF_CAP_MS));
            // Half-jitter never collapses to zero for a nonzero base.
            assert!(a >= Duration::from_millis(10), "attempt {attempt}: {a:?}");
        }
        // Different seeds jitter differently somewhere in the schedule.
        let diverges = (1..=6).any(|k| policy.backoff_for(1, k) != policy.backoff_for(2, k));
        assert!(diverges, "jitter must actually depend on the seed");
        // Zero base means zero sleep — the test-friendly configuration.
        assert_eq!(
            RetryPolicy::new(3, Duration::ZERO).backoff_for(1, 1),
            Duration::ZERO
        );
    }

    #[test]
    fn transient_failures_heal_within_the_attempt_budget() {
        let policy = RetryPolicy::new(3, Duration::ZERO);
        let mut calls = 0;
        let (result, attempts) = run_with_retry(&policy, 7, &RunCtl::unlimited(), || {
            calls += 1;
            if calls < 3 {
                Err(transient())
            } else {
                Ok(42)
            }
        });
        assert_eq!(result.unwrap(), 42);
        assert_eq!(attempts, 3);
        assert_eq!(calls, 3);
    }

    #[test]
    fn exhausted_attempts_return_the_last_transient_error() {
        let policy = RetryPolicy::new(2, Duration::ZERO);
        let mut calls = 0;
        let (result, attempts) = run_with_retry(&policy, 7, &RunCtl::unlimited(), || {
            calls += 1;
            Err::<(), _>(transient())
        });
        assert!(matches!(result, Err(SimError::Faulted { .. })));
        assert_eq!(attempts, 2);
        assert_eq!(calls, 2);
    }

    #[test]
    fn permanent_and_cancelled_errors_are_never_retried() {
        let policy = RetryPolicy::new(5, Duration::ZERO);
        let mut calls = 0;
        let (result, attempts) = run_with_retry(&policy, 7, &RunCtl::unlimited(), || {
            calls += 1;
            Err::<(), _>(SimError::from(ConfigError::new("A", "b", "c")))
        });
        assert!(matches!(result, Err(SimError::Config(_))));
        assert_eq!((attempts, calls), (1, 1));

        let mut calls = 0;
        let (result, attempts) = run_with_retry(&policy, 7, &RunCtl::unlimited(), || {
            calls += 1;
            Err::<(), _>(SimError::Cancelled {
                at_sim_time: SimTime::ZERO,
                reason: "deadline of 0.001s exceeded".into(),
            })
        });
        assert!(matches!(result, Err(SimError::Cancelled { .. })));
        assert_eq!((attempts, calls), (1, 1));
    }

    #[test]
    fn pending_cancellation_preempts_the_first_attempt() {
        let token = CancelToken::new();
        token.cancel("shutdown requested");
        let ctl = RunCtl::unlimited().with_token(token);
        let mut calls = 0;
        let (result, _) = run_with_retry(&RetryPolicy::default(), 7, &ctl, || {
            calls += 1;
            Ok(1)
        });
        assert!(matches!(result, Err(SimError::Cancelled { .. })));
        assert_eq!(calls, 0, "cancelled work must not start");
    }

    #[test]
    fn cancellation_mid_backoff_stops_the_retry_loop() {
        let token = CancelToken::new();
        let ctl = RunCtl::unlimited().with_token(token.clone());
        let policy = RetryPolicy::new(10, Duration::from_millis(200));
        let mut calls = 0;
        let (result, attempts) = run_with_retry(&policy, 7, &ctl, || {
            calls += 1;
            token.cancel("shutdown requested");
            Err::<(), _>(transient())
        });
        assert!(matches!(result, Err(SimError::Cancelled { .. })));
        assert_eq!(attempts, 1);
        assert_eq!(calls, 1, "the backoff sleep must observe the token");
    }

    #[test]
    fn counters_are_monotone_and_observable() {
        let before = retry_stats();
        let policy = RetryPolicy::new(2, Duration::ZERO);
        let mut calls = 0;
        let _ = run_with_retry(&policy, 1, &RunCtl::unlimited(), || {
            calls += 1;
            if calls < 2 {
                Err(transient())
            } else {
                Ok(())
            }
        });
        note_quarantine();
        note_tombstone_skip();
        let after = retry_stats();
        assert!(after.retries > before.retries);
        assert!(after.healed > before.healed);
        assert!(after.quarantined > before.quarantined);
        assert!(after.tombstone_skips > before.tombstone_skips);
    }

    #[test]
    fn knob_setters_reject_zero_attempts() {
        let err = try_set_max_attempts(0).unwrap_err();
        assert_eq!(err.field, RETRY_MAX_ENV);
        assert!(err.message.contains(">= 1"));
    }

    #[test]
    #[should_panic(expected = "max_attempts >= 1")]
    fn policy_constructor_rejects_zero_attempts() {
        let _ = RetryPolicy::new(0, Duration::ZERO);
    }
}
