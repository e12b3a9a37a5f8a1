//! Cooperative cancellation and deadlines for long-running work.
//!
//! Long-running entry points (`scheduler::sim`, `core::sweep`, the
//! service) accept a [`RunCtl`] — a [`CancelToken`] (externally
//! triggered: shutdown, SIGINT/SIGTERM) and/or a [`Deadline`] (a wall-
//! clock budget). Work checks the control at bucket granularity — every
//! few hundred events inside a simulation, between points in a sweep —
//! and returns a typed [`SimError::Cancelled`] carrying how far the
//! simulation got and why it stopped. Cancellation is *cooperative*:
//! nothing is killed mid-mutation, so caches, leases, and journals are
//! always left consistent.
//!
//! The fast path is deliberately cheap: an unlimited [`RunCtl`] is two
//! `None` checks, and an armed one costs one relaxed atomic load plus
//! (for deadlines) an `Instant::now()` per check bucket.

use crate::error::SimError;
use crate::time::SimTime;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A shared, cheaply clonable cancellation flag.
///
/// Cloning shares the underlying flag: cancelling any clone cancels
/// them all. The first `cancel` call wins; its reason is kept.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Arc<CancelInner>,
}

#[derive(Debug, Default)]
struct CancelInner {
    cancelled: AtomicBool,
    reason: Mutex<String>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Latches the token as cancelled. The first caller's reason is
    /// kept; later calls are no-ops.
    pub fn cancel(&self, reason: &str) {
        let mut slot = self
            .inner
            .reason
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if !self.inner.cancelled.load(Ordering::Relaxed) {
            *slot = reason.to_string();
            // Release pairs with the relaxed fast-path load: readers that
            // observe `cancelled` then take the lock to read the reason.
            self.inner.cancelled.store(true, Ordering::Release);
        }
    }

    /// True once any clone has been cancelled. One relaxed load.
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::Relaxed)
    }

    /// The first cancellation reason, or `None` if not cancelled.
    pub fn reason(&self) -> Option<String> {
        if !self.is_cancelled() {
            return None;
        }
        let slot = self
            .inner
            .reason
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        Some(slot.clone())
    }
}

/// A wall-clock budget: an instant after which work should stop.
///
/// Carries the original budget so the cancellation reason can say what
/// the limit was, not just that it passed.
#[derive(Debug, Clone, Copy)]
pub struct Deadline {
    at: Instant,
    budget: Duration,
}

impl Deadline {
    /// A deadline `budget` from now.
    pub fn after(budget: Duration) -> Deadline {
        Deadline {
            at: Instant::now() + budget,
            budget,
        }
    }

    /// A deadline `millis` milliseconds from now.
    pub fn after_millis(millis: u64) -> Deadline {
        Deadline::after(Duration::from_millis(millis))
    }

    /// True once the deadline has passed.
    pub fn expired(&self) -> bool {
        Instant::now() >= self.at
    }

    /// Time left before the deadline (zero once expired).
    #[cfg(test)]
    pub(crate) fn remaining(&self) -> Duration {
        self.at.saturating_duration_since(Instant::now())
    }

    /// The original budget this deadline was created with.
    pub fn budget(&self) -> Duration {
        self.budget
    }
}

/// The control handle threaded through `*_with_ctl` entry points: an
/// optional [`CancelToken`] and an optional [`Deadline`].
///
/// [`RunCtl::unlimited`] (both absent) is the trusted zero-overhead
/// path — [`RunCtl::check`] short-circuits on two `None`s.
#[derive(Debug, Clone, Default)]
pub struct RunCtl {
    token: Option<CancelToken>,
    deadline: Option<Deadline>,
}

impl RunCtl {
    /// A control that never cancels (both token and deadline absent).
    pub fn unlimited() -> RunCtl {
        RunCtl::default()
    }

    /// Attaches a cancellation token.
    pub fn with_token(mut self, token: CancelToken) -> RunCtl {
        self.token = Some(token);
        self
    }

    /// Attaches a wall-clock deadline.
    pub fn with_deadline(mut self, deadline: Deadline) -> RunCtl {
        self.deadline = Some(deadline);
        self
    }

    /// Returns the reason work should stop, if any: an explicit
    /// cancellation wins over an expired deadline.
    pub fn cancelled_reason(&self) -> Option<String> {
        if let Some(token) = &self.token {
            if token.is_cancelled() {
                let reason = token.reason().unwrap_or_default();
                return Some(if reason.is_empty() {
                    "cancelled".to_string()
                } else {
                    reason
                });
            }
        }
        if let Some(deadline) = &self.deadline {
            if deadline.expired() {
                return Some(format!(
                    "deadline of {:.3}s exceeded",
                    deadline.budget().as_secs_f64()
                ));
            }
        }
        None
    }

    /// The cooperative cancellation point: `Ok(())` to keep going, or a
    /// typed [`SimError::Cancelled`] stamped with the simulation time
    /// the work had reached.
    pub fn check(&self, at: SimTime) -> Result<(), SimError> {
        match self.cancelled_reason() {
            None => Ok(()),
            Some(reason) => Err(SimError::Cancelled {
                at_sim_time: at,
                reason,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_cancels_all_clones_and_first_reason_wins() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(!clone.is_cancelled());
        assert_eq!(clone.reason(), None);
        token.cancel("shutdown requested");
        clone.cancel("too late");
        assert!(clone.is_cancelled());
        assert_eq!(clone.reason().as_deref(), Some("shutdown requested"));
    }

    #[test]
    fn unlimited_ctl_never_cancels() {
        let ctl = RunCtl::unlimited();
        assert!(ctl.check(SimTime::from_hours(5.0)).is_ok());
        assert_eq!(ctl.cancelled_reason(), None);
    }

    #[test]
    fn cancelled_token_yields_typed_error_with_sim_time() {
        let token = CancelToken::new();
        let ctl = RunCtl::unlimited().with_token(token.clone());
        assert!(ctl.check(SimTime::ZERO).is_ok());
        token.cancel("operator interrupt");
        let err = ctl.check(SimTime::from_hours(12.0)).unwrap_err();
        match err {
            SimError::Cancelled {
                at_sim_time,
                reason,
            } => {
                assert_eq!(at_sim_time, SimTime::from_hours(12.0));
                assert_eq!(reason, "operator interrupt");
            }
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }

    #[test]
    fn expired_deadline_cancels_with_budget_in_reason() {
        let ctl = RunCtl::unlimited().with_deadline(Deadline::after(Duration::ZERO));
        let err = ctl.check(SimTime::ZERO).unwrap_err();
        assert!(err.to_string().contains("deadline"), "{err}");
    }

    #[test]
    fn future_deadline_does_not_cancel() {
        let deadline = Deadline::after(Duration::from_secs(3600));
        assert!(!deadline.expired());
        assert!(deadline.remaining() > Duration::from_secs(3000));
        let ctl = RunCtl::unlimited().with_deadline(deadline);
        assert!(ctl.check(SimTime::ZERO).is_ok());
    }

    #[test]
    fn empty_reason_renders_as_cancelled() {
        let token = CancelToken::new();
        token.cancel("");
        let ctl = RunCtl::unlimited().with_token(token);
        assert_eq!(ctl.cancelled_reason().as_deref(), Some("cancelled"));
    }
}
