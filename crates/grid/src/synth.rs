//! Synthetic hourly carbon-intensity generation.
//!
//! Substitution note (see `DESIGN.md`): the paper built Fig. 2 from a grid
//! emissions data provider; we cannot redistribute that data, so this
//! module synthesizes traces with the same statistical structure — a
//! diurnal demand shape with an optional midday solar dip, an AR(1)
//! synoptic (weather) component with a multi-day correlation time, white
//! noise, and a weekend effect. The January-2023 regional presets in
//! [`crate::region`] pin the moments the paper reports.

use crate::region::RegionProfile;
use crate::trace::CarbonTrace;
use std::sync::{Arc, OnceLock};
use sustain_sim_core::cache::LruCache;
use sustain_sim_core::error::{env_knob_usize, ConfigError};
use sustain_sim_core::hash::{CanonicalHash, CanonicalHasher};
use sustain_sim_core::rng::RngStream;
use sustain_sim_core::series::TimeSeries;
use sustain_sim_core::time::{SimDuration, SimTime};

pub use sustain_sim_core::cache::CacheStats;

/// Minimum physical intensity; traces are clamped here to avoid negative
/// excursions in very clean or very volatile configurations.
pub const MIN_CI_G_PER_KWH: f64 = 5.0;

/// Normalized diurnal shape at `hour` ∈ [0, 24): two demand peaks (09h,
/// 19h) and a night trough. Zero-mean over the day by construction
/// (approximately), unit peak amplitude.
fn diurnal_shape(hour: f64) -> f64 {
    use std::f64::consts::PI;
    // Sum of two harmonics approximating the double demand peak.
    let h = hour / 24.0 * 2.0 * PI;
    0.55 * (h - 2.5).sin() + 0.45 * (2.0 * h - 1.2).sin()
}

/// Midday solar dip at `hour`: a negative bump centred on 13h, ~4 h wide.
fn solar_shape(hour: f64) -> f64 {
    let d = (hour - 13.0) / 3.0;
    -(-0.5 * d * d).exp()
}

/// Generates an hourly carbon-intensity trace of `days` days for a region
/// profile. Deterministic in `(profile, days, seed)`.
pub fn generate_hourly(profile: &RegionProfile, days: usize, seed: u64) -> CarbonTrace {
    assert!(days > 0, "trace must cover at least one day");
    let hours = days * 24;
    let root = RngStream::new(seed);
    let mut syn_rng = root.derive("synoptic");
    let mut noise_rng = root.derive("noise");

    // AR(1) synoptic component with the requested stationary std and
    // correlation time: x_{t+1} = ρ x_t + ε, ε ~ N(0, σ²(1-ρ²)).
    let rho = (-1.0 / profile.synoptic_corr_hours.max(1.0)).exp();
    let innov_std = profile.synoptic_std * (1.0 - rho * rho).sqrt();
    // Start from the stationary distribution so the first days are not
    // biased toward zero.
    let mut syn = if profile.synoptic_std > 0.0 {
        syn_rng.normal(0.0, profile.synoptic_std)
    } else {
        0.0
    };

    let mut values = Vec::with_capacity(hours);
    for h in 0..hours {
        let t = SimTime::from_hours(h as f64);
        let hour = t.hour_of_day();
        let mut ci = profile.mean_g_per_kwh;
        ci += profile.mean_g_per_kwh * profile.diurnal_amplitude * diurnal_shape(hour);
        ci += profile.mean_g_per_kwh * profile.solar_dip * solar_shape(hour);
        ci += syn;
        if profile.noise_std > 0.0 {
            ci += noise_rng.normal(0.0, profile.noise_std);
        }
        if t.is_weekend() {
            ci *= 1.0 - profile.weekend_drop;
        }
        values.push(ci.max(MIN_CI_G_PER_KWH));
        if profile.synoptic_std > 0.0 {
            syn = rho * syn + syn_rng.normal(0.0, innov_std);
        }
    }

    CarbonTrace::new(
        profile.name.clone(),
        TimeSeries::new(SimTime::ZERO, SimDuration::from_hours(1.0), values),
    )
}

/// Generates a trace and then affinely re-calibrates it so its monthly mean
/// and daily-mean standard deviation match the profile exactly. This is how
/// the Fig. 2 anchors (Finland σ = 47.21) are pinned despite stochastic
/// generation.
///
/// ```
/// use sustain_grid::region::{Region, RegionProfile};
/// use sustain_grid::synth::generate_calibrated;
///
/// let profile = RegionProfile::january_2023(Region::Finland);
/// let trace = generate_calibrated(&profile, 31, 2023);
/// assert_eq!(trace.series().len(), 31 * 24);
/// // The paper's Finland anchor: daily-mean σ = 47.21 gCO₂/kWh.
/// assert!((trace.daily_stats().std_dev() - 47.21).abs() < 0.01);
/// ```
pub fn generate_calibrated(profile: &RegionProfile, days: usize, seed: u64) -> CarbonTrace {
    let trace = generate_hourly(profile, days, seed);
    if profile.synoptic_std == 0.0 {
        return trace;
    }
    trace.with_moments(profile.mean_g_per_kwh, profile.synoptic_std)
}

/// Cache key for a calibrated trace: a fingerprint of every field that
/// influences generation.
///
/// `RegionProfile` holds `f64` parameters (no `Eq`/`Hash`), and experiment
/// code freely mutates individual fields (e.g. zeroing `synoptic_std`), so
/// the key hashes the name bytes plus the exact bit patterns of all seven
/// parameters rather than keying on a `Region` enum. Bit-pattern hashing is
/// exact: two profiles collide only if generation would produce the same
/// trace anyway (modulo 64-bit FNV collisions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceKey {
    profile_fingerprint: u64,
    days: usize,
    seed: u64,
}

impl TraceKey {
    /// Fingerprint a `(profile, days, seed)` generation request.
    pub fn new(profile: &RegionProfile, days: usize, seed: u64) -> TraceKey {
        TraceKey {
            profile_fingerprint: profile.canonical_hash(),
            days,
            seed,
        }
    }
}

impl CanonicalHash for RegionProfile {
    fn canonical_hash_into(&self, hasher: &mut CanonicalHasher) {
        hasher.write_str(&self.name);
        for param in [
            self.mean_g_per_kwh,
            self.diurnal_amplitude,
            self.solar_dip,
            self.synoptic_std,
            self.synoptic_corr_hours,
            self.noise_std,
            self.weekend_drop,
        ] {
            hasher.write_f64(param);
        }
    }
}

impl CanonicalHash for CarbonTrace {
    fn canonical_hash_into(&self, hasher: &mut CanonicalHasher) {
        hasher.write_str(self.name());
        self.series().canonical_hash_into(hasher);
    }
}

/// Default capacity of the process-wide [`TraceCache`]: generous (an
/// experiment suite run touches well under a hundred distinct traces)
/// but bounded, so a long-lived service sweeping many profiles cannot
/// grow the cache without limit.
pub const DEFAULT_TRACE_CACHE_CAPACITY: usize = 256;

/// Environment variable overriding the global trace cache capacity
/// (`0` = caching disabled).
pub const TRACE_CACHE_CAP_ENV: &str = "SUSTAIN_TRACE_CACHE_CAP";

/// Process-wide cache of calibrated traces, shared by every sweep point.
///
/// Calibrated generation is the dominant fixed cost of a sweep point
/// (31 days × 24 hourly samples plus moment calibration); sweeps re-request
/// the same `(profile, days, seed)` for every policy/threshold variation,
/// so one generation serves the whole sweep.
///
/// The cache is bounded: once more than `capacity` distinct keys have been
/// inserted, the least recently used entry is evicted (capacity `0`
/// disables caching). Entries still in the cache keep their `Arc` identity across
/// hits; an evicted key regenerates on next request — same values, new
/// allocation. Hit/miss/eviction counters are exposed via [`stats`].
///
/// [`stats`]: TraceCache::stats
#[derive(Debug)]
pub struct TraceCache {
    inner: LruCache<TraceKey, Arc<CarbonTrace>>,
}

impl Default for TraceCache {
    fn default() -> Self {
        TraceCache::with_capacity(DEFAULT_TRACE_CACHE_CAPACITY)
    }
}

impl TraceCache {
    /// Create an empty cache with the default capacity bound.
    pub fn new() -> TraceCache {
        TraceCache::default()
    }

    /// Create an empty cache holding at most `capacity` traces
    /// (`0` = caching disabled).
    pub fn with_capacity(capacity: usize) -> TraceCache {
        TraceCache {
            inner: LruCache::with_capacity(capacity),
        }
    }

    /// Current capacity bound (`0` = caching disabled).
    pub fn capacity(&self) -> usize {
        self.inner.capacity()
    }

    /// Change the capacity bound, immediately evicting down to it if the
    /// cache currently holds more entries; `0` disables the cache and
    /// drops every entry.
    pub fn set_capacity(&self, capacity: usize) {
        self.inner.set_capacity(capacity);
    }

    /// Fetch the calibrated trace for `(profile, days, seed)`, generating
    /// and inserting it on first use. Hits return a clone of the cached
    /// `Arc` (pointer-identical trace data) and refresh the entry's LRU
    /// position.
    pub fn get_or_generate(
        &self,
        profile: &RegionProfile,
        days: usize,
        seed: u64,
    ) -> Arc<CarbonTrace> {
        let key = TraceKey::new(profile, days, seed);
        if let Some(trace) = self.inner.lookup(&key) {
            return trace;
        }
        // Generate outside any lock: concurrent first requests may race and
        // generate twice, but generation is deterministic so both produce
        // identical traces and the first insert wins. The fault site sits
        // here too, so an injected panic never poisons the cache lock.
        sustain_sim_core::faultpoint!(infallible "grid::trace_fill");
        let trace = Arc::new(generate_calibrated(profile, days, seed));
        self.inner.insert_after_miss(key, trace)
    }

    /// Hit/miss/eviction counters and current occupancy.
    pub fn stats(&self) -> CacheStats {
        self.inner.stats()
    }

    /// Number of cached traces.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// `true` if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }
}

/// The process-wide [`TraceCache`] used by [`generate_calibrated_arc`].
///
/// Capacity defaults to [`DEFAULT_TRACE_CACHE_CAPACITY`] and can be
/// overridden (first use wins) via [`TRACE_CACHE_CAP_ENV`], or changed at
/// runtime with [`TraceCache::set_capacity`].
pub fn global_trace_cache() -> &'static TraceCache {
    static CACHE: OnceLock<TraceCache> = OnceLock::new();
    CACHE.get_or_init(|| {
        // Lazy path: reachable from deep inside a sweep, so a malformed
        // capacity cannot surface as a `Result` here — warn loudly
        // (once: the cache is built once) and keep the default instead
        // of silently ignoring the knob. Boundary code gets the
        // typed-error behavior from [`init_trace_cache_cap_from_env`].
        let cap = match env_knob_usize(TRACE_CACHE_CAP_ENV) {
            Ok(Some(cap)) => cap,
            Ok(None) => DEFAULT_TRACE_CACHE_CAPACITY,
            Err(e) => {
                eprintln!(
                    "warning: {e}; keeping the default trace-cache \
                     capacity of {DEFAULT_TRACE_CACHE_CAPACITY}"
                );
                DEFAULT_TRACE_CACHE_CAPACITY
            }
        };
        TraceCache::with_capacity(cap)
    })
}

/// Strictly applies [`TRACE_CACHE_CAP_ENV`] to the process-wide cache if
/// set; returns the applied capacity. Boundary code (CLI/service
/// startup) calls this once so a malformed value becomes a typed
/// [`ConfigError`] instead of a silently-used default. Safe to call
/// whether or not the cache was already touched: the capacity is
/// (re)applied to the live cache, evicting down if needed.
pub fn init_trace_cache_cap_from_env() -> Result<Option<usize>, ConfigError> {
    let parsed = env_knob_usize(TRACE_CACHE_CAP_ENV)?;
    if let Some(cap) = parsed {
        global_trace_cache().set_capacity(cap);
    }
    Ok(parsed)
}

/// Cache-backed variant of [`generate_calibrated`]: returns a shared
/// `Arc<CarbonTrace>` from the process-wide [`TraceCache`], generating at
/// most once per distinct `(profile, days, seed)`.
///
/// This is the entry point sweep drivers should use; per-trace consumers
/// that need an owned `CarbonTrace` can still clone out of the `Arc`.
///
/// ```
/// use std::sync::Arc;
/// use sustain_grid::region::{Region, RegionProfile};
/// use sustain_grid::synth::generate_calibrated_arc;
///
/// let profile = RegionProfile::january_2023(Region::Finland);
/// let a = generate_calibrated_arc(&profile, 31, 2023);
/// let b = generate_calibrated_arc(&profile, 31, 2023);
/// assert!(Arc::ptr_eq(&a, &b)); // second call is a cache hit
/// ```
pub fn generate_calibrated_arc(
    profile: &RegionProfile,
    days: usize,
    seed: u64,
) -> Arc<CarbonTrace> {
    global_trace_cache().get_or_generate(profile, days, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::{Region, RegionProfile};

    #[test]
    fn deterministic_for_same_seed() {
        let p = RegionProfile::january_2023(Region::Germany);
        let a = generate_hourly(&p, 31, 7);
        let b = generate_hourly(&p, 31, 7);
        assert_eq!(a.series().values(), b.series().values());
        let c = generate_hourly(&p, 31, 8);
        assert_ne!(a.series().values(), c.series().values());
    }

    #[test]
    fn trace_has_expected_length_and_bounds() {
        let p = RegionProfile::january_2023(Region::France);
        let t = generate_hourly(&p, 31, 1);
        assert_eq!(t.series().len(), 31 * 24);
        for &v in t.series().values() {
            assert!(v >= MIN_CI_G_PER_KWH);
        }
    }

    #[test]
    fn mean_is_near_profile_mean() {
        let p = RegionProfile::january_2023(Region::Finland);
        let t = generate_hourly(&p, 31, 42);
        let mean = t.series().stats().mean();
        assert!(
            (mean - p.mean_g_per_kwh).abs() < 0.15 * p.mean_g_per_kwh,
            "mean {mean} vs {}",
            p.mean_g_per_kwh
        );
    }

    #[test]
    fn constant_profile_yields_flat_trace() {
        let p = RegionProfile::lrz_hydropower();
        let t = generate_hourly(&p, 10, 3);
        let s = t.series().stats();
        assert_eq!(s.min(), 20.0);
        assert_eq!(s.max(), 20.0);
    }

    #[test]
    fn diurnal_pattern_visible_in_hourly_but_not_daily() {
        let mut p = RegionProfile::january_2023(Region::GreatBritain);
        p.synoptic_std = 0.0;
        p.noise_std = 0.0;
        let t = generate_hourly(&p, 14, 5);
        // Hourly variance exists…
        assert!(t.series().stats().std_dev() > 10.0);
        // …but daily means on weekdays are nearly constant.
        let daily = t.daily_means();
        let weekday_vals: Vec<f64> = daily
            .values()
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 7 < 5)
            .map(|(_, &v)| v)
            .collect();
        let mut rs = sustain_sim_core::stats::RunningStats::new();
        for v in weekday_vals {
            rs.push(v);
        }
        assert!(rs.std_dev() < 3.0, "daily weekday std {}", rs.std_dev());
    }

    #[test]
    fn weekend_effect_lowers_weekend_days() {
        let mut p = RegionProfile::january_2023(Region::Germany);
        p.synoptic_std = 0.0;
        p.noise_std = 0.0;
        p.weekend_drop = 0.2;
        let t = generate_hourly(&p, 14, 5);
        let daily = t.daily_means();
        let v = daily.values();
        // Day 5, 6 are the weekend under the Monday-epoch convention.
        assert!(v[5] < v[0] * 0.9);
        assert!(v[6] < v[1] * 0.9);
        assert!(v[12] < v[8] * 0.9);
    }

    #[test]
    fn solar_dip_depresses_midday() {
        let mut p = RegionProfile::january_2023(Region::Spain);
        p.synoptic_std = 0.0;
        p.noise_std = 0.0;
        p.diurnal_amplitude = 0.0;
        p.weekend_drop = 0.0;
        p.solar_dip = 0.2;
        let t = generate_hourly(&p, 1, 5);
        let v = t.series().values();
        assert!(v[13] < v[3], "midday {} vs night {}", v[13], v[3]);
    }

    #[test]
    fn cache_hits_are_arc_identical_and_match_uncached() {
        let cache = TraceCache::new();
        let p = RegionProfile::january_2023(Region::Italy);
        let a = cache.get_or_generate(&p, 31, 11);
        let b = cache.get_or_generate(&p, 31, 11);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.len(), 1);
        let uncached = generate_calibrated(&p, 31, 11);
        assert_eq!(a.series().values(), uncached.series().values());
    }

    #[test]
    fn cache_distinguishes_mutated_profiles() {
        let cache = TraceCache::new();
        let p = RegionProfile::january_2023(Region::Germany);
        let mut q = p.clone();
        q.synoptic_std = 0.0;
        let a = cache.get_or_generate(&p, 7, 5);
        let b = cache.get_or_generate(&q, 7, 5);
        assert!(!Arc::ptr_eq(&a, &b));
        assert_ne!(a.series().values(), b.series().values());
        assert_eq!(cache.len(), 2);
        // Days and seed are part of the key too.
        cache.get_or_generate(&p, 8, 5);
        cache.get_or_generate(&p, 7, 6);
        assert_eq!(cache.len(), 4);
    }

    #[test]
    fn cache_respects_capacity_with_lru_eviction() {
        let cache = TraceCache::with_capacity(2);
        let p = RegionProfile::january_2023(Region::Sweden);
        let a = cache.get_or_generate(&p, 2, 1);
        let _b = cache.get_or_generate(&p, 2, 2);
        // Touch `a`'s key so seed 2 becomes the LRU entry.
        assert!(Arc::ptr_eq(&a, &cache.get_or_generate(&p, 2, 1)));
        // Third distinct key evicts seed 2 (the least recently used).
        let _c = cache.get_or_generate(&p, 2, 3);
        let s = cache.stats();
        assert_eq!(s.len, 2);
        assert_eq!(s.capacity, 2);
        assert_eq!(s.evictions, 1);
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 3);
        // Seed 1 survived eviction with its Arc identity intact…
        assert!(Arc::ptr_eq(&a, &cache.get_or_generate(&p, 2, 1)));
        // …while the evicted seed 2 regenerates: same values, new Arc,
        // and the insert evicts again to stay within capacity.
        let b2 = cache.get_or_generate(&p, 2, 2);
        assert_eq!(
            b2.series().values(),
            generate_calibrated(&p, 2, 2).series().values()
        );
        assert_eq!(cache.stats().evictions, 2);
        assert!(cache.len() <= 2);
    }

    #[test]
    fn cache_set_capacity_evicts_down_and_zero_disables() {
        let cache = TraceCache::with_capacity(0);
        let p = RegionProfile::january_2023(Region::Poland);
        let a = cache.get_or_generate(&p, 2, 0);
        let b = cache.get_or_generate(&p, 2, 0);
        assert!(!Arc::ptr_eq(&a, &b), "a disabled cache shares nothing");
        assert_eq!(a.series().values(), b.series().values());
        let s = cache.stats();
        assert_eq!((s.len, s.hits, s.misses), (0, 0, 0));
        cache.set_capacity(8);
        for seed in 0..5 {
            cache.get_or_generate(&p, 2, seed);
        }
        assert_eq!(cache.len(), 5);
        cache.set_capacity(2);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 3);
        // The survivors are the two most recently used (seeds 3, 4).
        let before = cache.stats().misses;
        cache.get_or_generate(&p, 2, 3);
        cache.get_or_generate(&p, 2, 4);
        assert_eq!(cache.stats().misses, before, "3 and 4 must be hits");
    }

    /// Paper anchor: calibrated Finland trace reproduces σ = 47.21 exactly
    /// and the 2.1× France ratio.
    #[test]
    fn calibrated_finland_hits_anchors() {
        let fi = generate_calibrated(&RegionProfile::january_2023(Region::Finland), 31, 2023);
        let fr = generate_calibrated(&RegionProfile::january_2023(Region::France), 31, 2023);
        let fi_daily = fi.daily_means();
        let mut rs = sustain_sim_core::stats::RunningStats::new();
        for &v in fi_daily.values() {
            rs.push(v);
        }
        assert!((rs.std_dev() - 47.21).abs() < 0.01, "std {}", rs.std_dev());
        let ratio = fi.series().stats().mean() / fr.series().stats().mean();
        assert!((ratio - 2.1).abs() < 0.01, "ratio {ratio}");
    }
}
