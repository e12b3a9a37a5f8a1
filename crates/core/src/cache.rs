//! Process-wide memoization of whole scenario outcomes.
//!
//! A scenario run is a pure function of the [`Scenario`] value (which
//! includes its seed): same input, bit-identical [`ScenarioResult`].
//! The [`OutcomeCache`] exploits that purity to collapse repeated
//! identical work — a service replaying a hot `POST /run`, a sweep with
//! duplicate points, a CLI invoked twice — into one simulation plus
//! cheap clones. A cache hit is byte-equal to a cold run by
//! construction: the stored value *is* the result of a cold run.
//!
//! Cancelled and failed runs are never inserted (a partial result is not
//! the value of the pure function), and the cache-fill path carries the
//! `scenario::outcome_fill` fault site so crash-injection tests can
//! prove a failed fill leaves the cache consistent.

use crate::scenario::{Scenario, ScenarioResult};
use std::sync::{Arc, OnceLock};
use sustain_sim_core::cache::{CacheStats, LruCache};
use sustain_sim_core::error::{env_knob_usize, ConfigError};
use sustain_sim_core::hash::CanonicalHash;

/// Default capacity of the process-wide [`OutcomeCache`]. Results carry
/// full per-job records, so the bound is deliberately small.
pub const DEFAULT_OUTCOME_CACHE_CAPACITY: usize = 64;

/// Environment variable overriding the global outcome cache capacity.
/// `0` **disables** outcome memoization entirely, as it does for every
/// cache in the workspace.
pub const OUTCOME_CACHE_CAP_ENV: &str = "SUSTAIN_OUTCOME_CACHE_CAP";

/// Cache key for a scenario outcome: the canonical content fingerprint
/// plus the master seed, kept as a separate field (the hash already
/// covers the seed; keeping it explicit makes collisions across seeds
/// structurally impossible rather than merely improbable).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OutcomeKey {
    scenario_fingerprint: u64,
    seed: u64,
}

impl OutcomeKey {
    /// Fingerprint a scenario run request.
    pub fn new(scenario: &Scenario) -> OutcomeKey {
        OutcomeKey {
            scenario_fingerprint: scenario.canonical_hash(),
            seed: scenario.seed,
        }
    }
}

/// Process-wide LRU cache of completed scenario results.
///
/// Capacity `0` disables caching (see [`OUTCOME_CACHE_CAP_ENV`]).
/// Lookup and insert are split so the expensive simulation — and its
/// fault site — runs outside the cache lock; racing first requests both
/// simulate, deterministically produce identical results, and the first
/// insert wins.
#[derive(Debug)]
pub struct OutcomeCache {
    inner: LruCache<OutcomeKey, Arc<ScenarioResult>>,
}

impl Default for OutcomeCache {
    fn default() -> Self {
        OutcomeCache::with_capacity(DEFAULT_OUTCOME_CACHE_CAPACITY)
    }
}

impl OutcomeCache {
    /// Create an empty cache with the default capacity bound.
    pub fn new() -> OutcomeCache {
        OutcomeCache::default()
    }

    /// Create an empty cache holding at most `capacity` results
    /// (`0` = caching disabled).
    pub fn with_capacity(capacity: usize) -> OutcomeCache {
        OutcomeCache {
            inner: LruCache::with_capacity(capacity),
        }
    }

    /// Current capacity bound (`0` = caching disabled).
    pub fn capacity(&self) -> usize {
        self.inner.capacity()
    }

    /// Change the capacity bound. Setting `0` disables the cache and
    /// drops all entries; a smaller bound evicts down immediately.
    pub fn set_capacity(&self, capacity: usize) {
        self.inner.set_capacity(capacity);
    }

    /// Look a completed result up; `None` when absent or when the cache
    /// is disabled. A hit refreshes the entry's LRU position.
    pub fn lookup(&self, key: &OutcomeKey) -> Option<Arc<ScenarioResult>> {
        self.inner.lookup(key)
    }

    /// Record a miss and insert a freshly computed result, returning the
    /// canonical cached `Arc` (the winner of any insert race). With the
    /// cache disabled the result is passed back untouched and no
    /// counters advance.
    pub fn insert(&self, key: OutcomeKey, result: Arc<ScenarioResult>) -> Arc<ScenarioResult> {
        self.inner.insert_after_miss(key, result)
    }

    /// Hit/miss/eviction counters and current occupancy.
    pub fn stats(&self) -> CacheStats {
        self.inner.stats()
    }

    /// Number of cached results.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// `true` if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }
}

/// The process-wide [`OutcomeCache`] consulted by every
/// [`run`](crate::scenario::run) variant.
///
/// Capacity defaults to [`DEFAULT_OUTCOME_CACHE_CAPACITY`] and can be
/// overridden (first use wins) via [`OUTCOME_CACHE_CAP_ENV`], or changed
/// at runtime with [`OutcomeCache::set_capacity`].
pub fn global_outcome_cache() -> &'static OutcomeCache {
    static CACHE: OnceLock<OutcomeCache> = OnceLock::new();
    CACHE.get_or_init(|| {
        // Lazy path: reachable from any library caller, so a malformed
        // capacity cannot surface as a `Result` here — warn loudly (once:
        // the cache is built once) and keep the default instead of
        // silently ignoring the knob. Boundary code gets the typed-error
        // behavior from [`init_outcome_cache_cap_from_env`].
        let cap = match env_knob_usize(OUTCOME_CACHE_CAP_ENV) {
            Ok(Some(cap)) => cap,
            Ok(None) => DEFAULT_OUTCOME_CACHE_CAPACITY,
            Err(e) => {
                eprintln!(
                    "warning: {e}; keeping the default outcome-cache \
                     capacity of {DEFAULT_OUTCOME_CACHE_CAPACITY}"
                );
                DEFAULT_OUTCOME_CACHE_CAPACITY
            }
        };
        OutcomeCache::with_capacity(cap)
    })
}

/// Strictly applies [`OUTCOME_CACHE_CAP_ENV`] to the process-wide cache
/// if set; returns the applied capacity. Boundary code (CLI/service
/// startup) calls this once so a malformed value becomes a typed
/// [`ConfigError`] instead of a silently-used default. Safe to call
/// whether or not the cache was already touched: the capacity is
/// (re)applied to the live cache, evicting down if needed.
pub fn init_outcome_cache_cap_from_env() -> Result<Option<usize>, ConfigError> {
    let parsed = env_knob_usize(OUTCOME_CACHE_CAP_ENV)?;
    if let Some(cap) = parsed {
        global_outcome_cache().set_capacity(cap);
    }
    Ok(parsed)
}
