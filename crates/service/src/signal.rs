//! Minimal SIGINT/SIGTERM latch, dependency-free.
//!
//! The service needs exactly one bit of signal handling: "has the
//! operator asked us to stop?". Rather than pulling in a signal crate,
//! this module registers a handler through libc's `signal` symbol
//! (always linked on unix) that flips an `AtomicBool` — the only kind
//! of work an async-signal-safe handler may do. The serve loop polls
//! [`triggered`] between accepts and drains in-flight requests before
//! exiting.

use std::sync::atomic::{AtomicBool, Ordering};

static TRIGGERED: AtomicBool = AtomicBool::new(false);

/// Whether SIGINT/SIGTERM has been received since [`install`] ran
/// (always `false` on non-unix platforms, where [`install`] is a no-op).
pub fn triggered() -> bool {
    TRIGGERED.load(Ordering::SeqCst)
}

/// Test/embedding hook: latch the flag programmatically, exactly as a
/// signal would.
#[cfg(test)]
pub(crate) fn trigger() {
    TRIGGERED.store(true, Ordering::SeqCst);
}

#[cfg(unix)]
mod imp {
    use super::TRIGGERED;
    use std::sync::atomic::Ordering;

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        // libc's signal(2); linked into every unix Rust binary via the
        // C runtime, so no crate dependency is needed for this one call.
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        // Storing an atomic is async-signal-safe; nothing else here is
        // allowed to allocate, lock, or print.
        TRIGGERED.store(true, Ordering::SeqCst);
    }

    /// Registers the latch for SIGINT and SIGTERM.
    pub fn install() {
        // SAFETY: `signal` is the libc prototype; `on_signal` is an
        // `extern "C" fn(i32)` that only touches an atomic, which is
        // async-signal-safe.
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }
}

#[cfg(not(unix))]
mod imp {
    /// No signal handling off unix; shutdown still works through the
    /// `/shutdown` endpoint and [`super::trigger`].
    pub fn install() {}
}

/// Registers the SIGINT/SIGTERM latch (no-op off unix). Safe to call
/// more than once.
pub fn install() {
    imp::install();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trigger_latches_the_flag() {
        install();
        trigger();
        assert!(triggered());
    }
}
