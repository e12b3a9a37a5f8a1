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
use std::mem::size_of;
use std::sync::{Arc, OnceLock};
use sustain_scheduler::metrics::{JobRecord, Segment};
use sustain_sim_core::cache::{CacheStats, LruCache};
use sustain_sim_core::error::{env_knob_usize, ConfigError};
use sustain_sim_core::hash::CanonicalHash;
use sustain_telemetry::accounting::JobCarbonProfile;

/// Default capacity of the process-wide [`OutcomeCache`], in slots
/// (see [`OutcomeCache::with_capacity`]). Results carry full per-job
/// records, so the bound is deliberately small.
pub const DEFAULT_OUTCOME_CACHE_CAPACITY: usize = 64;

/// Environment variable overriding the global outcome cache capacity.
/// `0` **disables** outcome memoization entirely, as it does for every
/// cache in the workspace.
pub(crate) const OUTCOME_CACHE_CAP_ENV: &str = "SUSTAIN_OUTCOME_CACHE_CAP";

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
/// Capacity `0` disables caching (see `OUTCOME_CACHE_CAP_ENV`).
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
    /// Create an empty cache of `capacity` slots (`0` = caching
    /// disabled). A result takes one slot per started
    /// [`SLOT_BYTES`](sustain_sim_core::cache::SLOT_BYTES) of its job
    /// records and profiles: a week-long run's result takes one, a
    /// 90-day run's about eight.
    pub fn with_capacity(capacity: usize) -> OutcomeCache {
        OutcomeCache {
            inner: LruCache::with_sizer(capacity, result_bytes),
        }
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
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.inner.len()
    }
}

/// Heap bytes a cached result retains, to the precision slots need:
/// its per-job records with their segments, and its per-job profiles.
fn result_bytes(result: &Arc<ScenarioResult>) -> usize {
    let records = &result.outcome.records;
    let segments: usize = records.iter().map(|r| r.segments.len()).sum();
    records.len() * size_of::<JobRecord>()
        + segments * size_of::<Segment>()
        + result.profiles.len() * size_of::<JobCarbonProfile>()
}

/// The process-wide [`OutcomeCache`] consulted by
/// [`scenario::run`](crate::scenario::run).
///
/// Capacity defaults to [`DEFAULT_OUTCOME_CACHE_CAPACITY`] and can be
/// overridden (first use wins) via `OUTCOME_CACHE_CAP_ENV`, or changed
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

/// Strictly applies `OUTCOME_CACHE_CAP_ENV` to the process-wide cache
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::run;
    use sustain_grid::region::{Region, RegionProfile};
    use sustain_sim_core::cache::SLOT_BYTES;
    use sustain_sim_core::ctl::RunCtl;

    fn result(days: usize, seed: u64) -> (OutcomeKey, Arc<ScenarioResult>) {
        let mut s = Scenario::baseline("slots", RegionProfile::january_2023(Region::Spain), days);
        s.seed = seed;
        (
            OutcomeKey::new(&s),
            Arc::new(run(&s, &RunCtl::unlimited()).unwrap()),
        )
    }

    #[test]
    fn week_long_results_take_one_slot_and_month_long_ones_several() {
        let (week_a, a) = result(7, 0x5107_0001);
        let (week_b, b) = result(7, 0x5107_0002);
        let (month, m) = result(30, 0x5107_0003);
        assert!(result_bytes(&a) <= SLOT_BYTES && result_bytes(&b) <= SLOT_BYTES);
        assert!(result_bytes(&m).div_ceil(SLOT_BYTES) >= 2);

        // Four slots: the month-long result and one week-long result fit;
        // a second week-long one evicts the (least recently used) month.
        let cache = OutcomeCache::with_capacity(4);
        cache.insert(month, m);
        cache.insert(week_a, a);
        assert_eq!(cache.len(), 2);
        cache.insert(week_b, b);
        assert_eq!((cache.len(), cache.stats().evictions), (2, 1));
        assert!(cache.lookup(&month).is_none());
        assert!(cache.lookup(&week_a).is_some() && cache.lookup(&week_b).is_some());
    }
}
