//! Regularly sampled time series.
//!
//! [`TimeSeries`] stores values at a fixed step starting from a start time.
//! Carbon-intensity traces, power telemetry and utilization curves all use
//! this container; it supports step-function evaluation, trapezoidal and
//! step integration (for energy = ∫power and carbon = ∫CI·P), resampling to
//! coarser resolutions, and elementwise arithmetic.

use crate::stats::RunningStats;
use crate::time::{SimDuration, SimTime};
use serde::{DeError, Deserialize, Serialize, Sink, Value};
use std::sync::OnceLock;

/// A regularly sampled series: `values[i]` is the value over
/// `[start + i*step, start + (i+1)*step)` (step-function convention).
///
/// Carries two lazily built derived caches: a cumulative-sum index
/// (`cum`) so wide-window integrals are O(1) instead of O(buckets), and
/// the whole-series statistics (`stats_memo`) so repeated [`stats`]
/// calls — one per profiled job via the green threshold — cost one pass
/// per series. Both are invisible to `Clone`/`PartialEq`/serde (all
/// implemented manually below) and are dropped on mutation.
///
/// [`stats`]: TimeSeries::stats
pub struct TimeSeries {
    start: SimTime,
    step: SimDuration,
    values: Vec<f64>,
    /// `cum[i]` = Σ `values[..i]` (plain value units; multiplied by the
    /// step width at use). Built on first wide integral, then shared.
    cum: OnceLock<Box<[f64]>>,
    /// Welford statistics over `values`. Built on first `stats()` call.
    stats_memo: OnceLock<RunningStats>,
}

impl std::fmt::Debug for TimeSeries {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimeSeries")
            .field("start", &self.start)
            .field("step", &self.step)
            .field("values", &self.values)
            .finish()
    }
}

impl Clone for TimeSeries {
    fn clone(&self) -> Self {
        TimeSeries {
            start: self.start,
            step: self.step,
            values: self.values.clone(),
            cum: OnceLock::new(),
            stats_memo: OnceLock::new(),
        }
    }
}

impl PartialEq for TimeSeries {
    fn eq(&self, other: &Self) -> bool {
        self.start == other.start && self.step == other.step && self.values == other.values
    }
}

impl Serialize for TimeSeries {
    fn serialize<S: Sink>(&self, s: &mut S) {
        // Mirrors the derive output for the three data-bearing fields;
        // the prefix index and the statistics are caches, not state.
        s.begin_object();
        s.field("start");
        self.start.serialize(s);
        s.field("step");
        self.step.serialize(s);
        s.field("values");
        self.values.serialize(s);
        s.end_object();
    }
}

impl Deserialize for TimeSeries {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(TimeSeries {
            start: SimTime::from_value(serde::get_field(v, "start")?)?,
            step: SimDuration::from_value(serde::get_field(v, "step")?)?,
            values: Vec::<f64>::from_value(serde::get_field(v, "values")?)?,
            cum: OnceLock::new(),
            stats_memo: OnceLock::new(),
        })
    }
}

impl TimeSeries {
    /// Boundary tolerance for the float bucket index, relative to the
    /// bucket coordinate: coordinates within a few ulps of an integer
    /// snap to it, so `at(time_of(i))` lands in bucket `i` even when
    /// `start + step*i` rounds below the mathematical boundary.
    const BOUNDARY_EPS: f64 = 4.0 * f64::EPSILON;

    /// Windows spanning at most this many buckets integrate through the
    /// legacy per-bucket scan. The scan is the numerical reference: its
    /// summation order is bit-stable across releases, and every
    /// outcome-affecting window in the simulator (inter-event
    /// accounting gaps, job segments capped by queue walltime limits,
    /// daily resampling) fits under this span. Wider windows — whole
    /// trace horizons, report-level integrals — use the O(1) prefix
    /// index, which regroups the same sum.
    const SCAN_MAX_SPAN_BUCKETS: f64 = 64.0;
    /// Creates a series from raw samples.
    ///
    /// # Panics
    /// Panics if `step` is zero.
    pub fn new(start: SimTime, step: SimDuration, values: Vec<f64>) -> Self {
        assert!(!step.is_zero(), "time series step must be positive");
        TimeSeries {
            start,
            step,
            values,
            cum: OnceLock::new(),
            stats_memo: OnceLock::new(),
        }
    }

    /// Creates a constant series of `n` samples.
    pub fn constant(start: SimTime, step: SimDuration, value: f64, n: usize) -> Self {
        Self::new(start, step, vec![value; n])
    }

    /// First covered instant.
    pub fn start(&self) -> SimTime {
        self.start
    }

    /// Sampling step.
    pub fn step(&self) -> SimDuration {
        self.step
    }

    /// One past the last covered instant.
    pub fn end(&self) -> SimTime {
        self.start + self.step * self.values.len() as f64
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` when there are no samples.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Raw sample access.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable raw sample access. Drops the cumulative index and the
    /// statistics: they are rebuilt from the (possibly modified) samples
    /// on next use.
    #[cfg(test)]
    pub(crate) fn values_mut(&mut self) -> &mut [f64] {
        self.cum = OnceLock::new();
        self.stats_memo = OnceLock::new();
        &mut self.values
    }

    /// Float bucket coordinate of `t`, with boundary snapping: a
    /// coordinate within [`Self::BOUNDARY_EPS`] ulps-scaled distance of
    /// an integer is treated as exactly that integer, so times that
    /// round-trip through `time_of` land in the right bucket even when
    /// `start + step*i` rounds a hair below the mathematical boundary.
    ///
    /// Callers must ensure `t >= self.start` (the subtraction would
    /// otherwise produce a negative duration).
    fn bucket_coord(&self, t: SimTime) -> f64 {
        let q = (t - self.start) / self.step;
        let r = q.round();
        // The error in q is dominated by how coarsely `t` itself is
        // represented relative to the step (ulp(t)/step), not just by
        // the magnitude of q: with a large start and a sub-second step,
        // `start + step*i` can land several coordinate-ulps off the
        // mathematical boundary.
        let scale = (t.as_secs().abs() / self.step.as_secs())
            .max(r.abs())
            .max(1.0);
        if (q - r).abs() <= Self::BOUNDARY_EPS * scale {
            r
        } else {
            q
        }
    }

    /// Step-function evaluation at `t`. Times before the start clamp to the
    /// first sample; times at or past the end clamp to the last.
    ///
    /// # Panics
    /// Panics on an empty series.
    pub fn at(&self, t: SimTime) -> f64 {
        assert!(!self.values.is_empty(), "sampling an empty series");
        if t <= self.start {
            return self.values[0];
        }
        let idx = self.bucket_coord(t) as usize;
        self.values[idx.min(self.values.len() - 1)]
    }

    /// Index of the interval containing `t`, or `None` if out of range.
    #[cfg(test)]
    fn index_of(&self, t: SimTime) -> Option<usize> {
        if t < self.start || t >= self.end() {
            return None;
        }
        // Snapping can push a coordinate epsilon-below `len` up to `len`
        // even though `t < end()`; clamp back into range.
        let idx = self.bucket_coord(t) as usize;
        Some(idx.min(self.values.len() - 1))
    }

    /// Timestamp of the start of interval `i`.
    pub fn time_of(&self, i: usize) -> SimTime {
        self.start + self.step * i as f64
    }

    /// Iterates `(interval_start, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, f64)> + '_ {
        self.values
            .iter()
            .enumerate()
            .map(move |(i, &v)| (self.time_of(i), v))
    }

    /// Step integral of the series over `[from, to]`, in value·seconds.
    ///
    /// Out-of-range portions use the clamped boundary values (consistent
    /// with [`TimeSeries::at`]). `from > to` yields 0.
    ///
    /// Narrow windows (≤ [`Self::SCAN_MAX_SPAN_BUCKETS`] buckets) use
    /// the per-bucket scan; wider windows go through the lazily built
    /// cumulative index and cost O(1) regardless of span. Both paths
    /// compute the same mathematical sum; the wide path may differ from
    /// the scan by float regrouping only (bounded by the
    /// `prefix_integral_matches_scan` property test below).
    pub fn integrate(&self, from: SimTime, to: SimTime) -> f64 {
        if self.values.is_empty() || to <= from {
            return 0.0;
        }
        let span_buckets = (to - from).as_secs() / self.step.as_secs();
        if span_buckets <= Self::SCAN_MAX_SPAN_BUCKETS {
            self.integrate_scan(from, to)
        } else {
            self.integrate_prefix(from, to)
        }
    }

    /// The per-bucket reference integral: walks every bucket the window
    /// touches in time order. This is the numerical oracle the prefix
    /// path is validated against, and remains the production path for
    /// narrow windows so per-event accounting sums stay bit-stable.
    ///
    /// Callers guarantee a non-empty series and `from < to`.
    fn integrate_scan(&self, from: SimTime, to: SimTime) -> f64 {
        let mut total = 0.0;
        let mut t = from;
        while t < to {
            // End of the interval containing t under the step function.
            let seg_end = if t < self.start {
                self.start
            } else {
                let idx = self.bucket_coord(t) as usize;
                if idx >= self.values.len() {
                    to
                } else {
                    self.time_of(idx + 1)
                }
            };
            let seg_end = seg_end.min(to);
            let width = (seg_end - t).as_secs().max(0.0);
            total += self.at(t) * width;
            if seg_end <= t {
                break;
            }
            t = seg_end;
        }
        total
    }

    /// O(1) integral via the cumulative index, for wide windows:
    /// clamped flat extensions on either side, partial first/last
    /// buckets, and a single prefix-sum difference for the whole
    /// interior.
    ///
    /// Callers guarantee a non-empty series and `from < to`.
    fn integrate_prefix(&self, from: SimTime, to: SimTime) -> f64 {
        let n = self.values.len();
        let end = self.end();
        let mut total = 0.0;

        // Flat extension before the first sample.
        if from < self.start {
            let w = to.min(self.start).saturating_since(from).as_secs();
            total += self.values[0] * w;
        }
        // Flat extension past the last sample.
        if to > end {
            let w = to.saturating_since(from.max(end)).as_secs();
            total += self.values[n - 1] * w;
        }

        let a = from.max(self.start);
        let b = to.min(end);
        if b <= a {
            return total;
        }

        // `a < end` here, so its (snapped) coordinate is below `n` up to
        // rounding; clamp for safety. `b` may sit exactly on `end`, in
        // which case `ib == n` and the last partial bucket is empty.
        let ia = (self.bucket_coord(a) as usize).min(n - 1);
        let ib = (self.bucket_coord(b) as usize).min(n);
        if ib <= ia {
            // Whole interior inside one bucket.
            return total + self.values[ia] * (b - a).as_secs();
        }

        // Partial first bucket: [a, time_of(ia + 1)).
        total += self.values[ia] * self.time_of(ia + 1).saturating_since(a).as_secs();
        // Whole buckets ia+1 .. ib via the cumulative index.
        let cum = self.prefix();
        total += (cum[ib] - cum[ia + 1]) * self.step.as_secs();
        // Partial last bucket: [time_of(ib), b).
        if ib < n {
            total += self.values[ib] * b.saturating_since(self.time_of(ib)).as_secs();
        }
        total
    }

    /// Cumulative sample sums: `prefix()[i]` = Σ `values[..i]`, with
    /// `len() + 1` entries. Built once on first use, dropped by
    /// [`TimeSeries::values_mut`].
    fn prefix(&self) -> &[f64] {
        self.cum.get_or_init(|| {
            let mut c = Vec::with_capacity(self.values.len() + 1);
            let mut acc = 0.0;
            c.push(0.0);
            for &v in &self.values {
                acc += v;
                c.push(acc);
            }
            c.into_boxed_slice()
        })
    }

    /// First bucket boundary strictly after `t`, on this series' grid.
    /// Times before the start return the start; times past the end keep
    /// stepping on the same (extrapolated) grid. Uses the snapped bucket
    /// coordinate, so `t` exactly on (or within rounding of) a boundary
    /// advances a full bucket instead of returning `t` itself.
    pub fn next_boundary_after(&self, t: SimTime) -> SimTime {
        if t < self.start {
            return self.start;
        }
        let idx = self.bucket_coord(t).floor();
        self.start + self.step * (idx + 1.0)
    }

    /// Mean value over `[from, to]` (time-weighted).
    ///
    /// An empty window (`to == from`) returns the sample at `from`; an
    /// inverted window (`to < from`) returns 0.0 rather than a
    /// negative-width quotient, so callers clamping forecast horizons to a
    /// trace end never see a sign flip.
    pub fn mean_over(&self, from: SimTime, to: SimTime) -> f64 {
        if to < from {
            return 0.0;
        }
        let w = (to - from).as_secs();
        if w == 0.0 {
            self.at(from)
        } else {
            self.integrate(from, to) / w
        }
    }

    /// Resamples to a coarser step by averaging whole groups of `factor`
    /// samples. A trailing partial group is averaged over its actual length.
    ///
    /// # Panics
    /// Panics if `factor == 0`.
    pub(crate) fn downsample_mean(&self, factor: usize) -> TimeSeries {
        assert!(factor > 0, "downsample factor must be positive");
        let values: Vec<f64> = self
            .values
            .chunks(factor)
            .map(|c| c.iter().sum::<f64>() / c.len() as f64)
            .collect();
        TimeSeries::new(self.start, self.step * factor as f64, values)
    }

    /// Per-day means, assuming the series step divides a day.
    ///
    /// # Panics
    /// Panics if the step exceeds one day: there is no whole group of
    /// samples per day to average, so the request is malformed. The check
    /// runs before any division — previously a `step > DAY` rounded
    /// `per_day` to 0 and surfaced as a confusing downstream assert.
    pub fn daily_means(&self) -> TimeSeries {
        let step_secs = self.step.as_secs();
        assert!(
            step_secs <= crate::time::DAY,
            "daily_means requires step <= 1 day, got {step_secs} s"
        );
        let per_day = (crate::time::DAY / step_secs).round() as usize;
        self.downsample_mean(per_day)
    }

    /// Streaming statistics over all samples. Computed by one Welford
    /// pass on first call, then served from the memo until
    /// `TimeSeries::values_mut` drops it.
    pub fn stats(&self) -> RunningStats {
        self.stats_memo
            .get_or_init(|| {
                let mut rs = RunningStats::new();
                for &v in &self.values {
                    rs.push(v);
                }
                rs
            })
            .clone()
    }

    /// Elementwise map.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> TimeSeries {
        TimeSeries::new(
            self.start,
            self.step,
            self.values.iter().map(|&v| f(v)).collect(),
        )
    }

    /// Scales every sample by `k`.
    #[cfg(test)]
    pub(crate) fn scale(&self, k: f64) -> TimeSeries {
        self.map(|v| v * k)
    }

    /// Minimum sample (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.values.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Maximum sample (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.values
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{DAY, HOUR};

    fn hourly(values: Vec<f64>) -> TimeSeries {
        TimeSeries::new(SimTime::ZERO, SimDuration::from_hours(1.0), values)
    }

    #[test]
    fn mean_over_inverted_window_is_zero() {
        let ts = hourly(vec![10.0, 20.0, 30.0]);
        assert_eq!(
            ts.mean_over(SimTime::from_hours(2.0), SimTime::from_hours(1.0)),
            0.0
        );
        // Empty and forward windows are unaffected.
        assert_eq!(
            ts.mean_over(SimTime::from_hours(1.5), SimTime::from_hours(1.5)),
            20.0
        );
        assert_eq!(ts.mean_over(SimTime::ZERO, SimTime::from_hours(2.0)), 15.0);
    }

    #[test]
    #[should_panic(expected = "daily_means requires step <= 1 day")]
    fn daily_means_rejects_step_over_a_day() {
        let ts = TimeSeries::new(
            SimTime::ZERO,
            SimDuration::from_secs(2.0 * DAY),
            vec![1.0, 2.0],
        );
        let _ = ts.daily_means();
    }

    #[test]
    fn daily_means_accepts_exactly_one_day_step() {
        let ts = TimeSeries::new(SimTime::ZERO, SimDuration::from_secs(DAY), vec![1.0, 2.0]);
        let daily = ts.daily_means();
        assert_eq!(daily.values(), &[1.0, 2.0]);
    }

    #[test]
    fn basic_accessors() {
        let ts = hourly(vec![1.0, 2.0, 3.0]);
        assert_eq!(ts.len(), 3);
        assert_eq!(ts.end(), SimTime::from_hours(3.0));
        assert_eq!(ts.time_of(2), SimTime::from_hours(2.0));
        assert_eq!(ts.min(), 1.0);
        assert_eq!(ts.max(), 3.0);
    }

    #[test]
    fn step_function_evaluation_and_clamping() {
        let ts = hourly(vec![10.0, 20.0, 30.0]);
        assert_eq!(ts.at(SimTime::ZERO), 10.0);
        assert_eq!(ts.at(SimTime::from_hours(0.99)), 10.0);
        assert_eq!(ts.at(SimTime::from_hours(1.0)), 20.0);
        assert_eq!(ts.at(SimTime::from_hours(2.5)), 30.0);
        assert_eq!(ts.at(SimTime::from_hours(99.0)), 30.0); // clamp high
        let ts2 = TimeSeries::new(
            SimTime::from_hours(5.0),
            SimDuration::from_hours(1.0),
            vec![7.0, 8.0],
        );
        assert_eq!(ts2.at(SimTime::ZERO), 7.0); // clamp low
    }

    #[test]
    fn index_of_bounds() {
        let ts = hourly(vec![1.0, 2.0]);
        assert_eq!(ts.index_of(SimTime::ZERO), Some(0));
        assert_eq!(ts.index_of(SimTime::from_hours(1.5)), Some(1));
        assert_eq!(ts.index_of(SimTime::from_hours(2.0)), None);
    }

    #[test]
    fn integrate_whole_and_partial_intervals() {
        let ts = hourly(vec![10.0, 20.0, 30.0]);
        // Whole range: (10+20+30)*3600.
        let whole = ts.integrate(SimTime::ZERO, SimTime::from_hours(3.0));
        assert!((whole - 60.0 * HOUR).abs() < 1e-6);
        // Half of the second hour: 20 * 1800.
        let part = ts.integrate(SimTime::from_hours(1.0), SimTime::from_hours(1.5));
        assert!((part - 20.0 * 0.5 * HOUR).abs() < 1e-6);
        // Straddling two intervals.
        let strad = ts.integrate(SimTime::from_hours(0.5), SimTime::from_hours(1.5));
        assert!((strad - (10.0 * 0.5 + 20.0 * 0.5) * HOUR).abs() < 1e-6);
    }

    #[test]
    fn integrate_clamps_out_of_range() {
        let ts = hourly(vec![5.0]);
        // Past the end: last value extends.
        let v = ts.integrate(SimTime::ZERO, SimTime::from_hours(2.0));
        assert!((v - 5.0 * 2.0 * HOUR).abs() < 1e-6);
        assert_eq!(
            ts.integrate(SimTime::from_hours(2.0), SimTime::from_hours(1.0)),
            0.0
        );
    }

    #[test]
    fn mean_over_is_time_weighted() {
        let ts = hourly(vec![0.0, 100.0]);
        let m = ts.mean_over(SimTime::ZERO, SimTime::from_hours(2.0));
        assert!((m - 50.0).abs() < 1e-9);
        // Degenerate window = point evaluation.
        assert_eq!(
            ts.mean_over(SimTime::from_hours(1.5), SimTime::from_hours(1.5)),
            100.0
        );
    }

    #[test]
    fn downsample_and_daily_means() {
        let vals: Vec<f64> = (0..48).map(|i| i as f64).collect();
        let ts = hourly(vals);
        let daily = ts.daily_means();
        assert_eq!(daily.len(), 2);
        assert!((daily.values()[0] - 11.5).abs() < 1e-9);
        assert!((daily.values()[1] - 35.5).abs() < 1e-9);
        assert_eq!(daily.step().as_secs(), DAY);
        // Partial trailing group.
        let ts2 = hourly(vec![1.0, 2.0, 3.0]);
        let ds = ts2.downsample_mean(2);
        assert_eq!(ds.len(), 2);
        assert!((ds.values()[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn map_and_scale() {
        let a = hourly(vec![1.0, 2.0]);
        assert_eq!(a.scale(3.0).values(), &[3.0, 6.0]);
        assert_eq!(a.map(|v| v * v).values(), &[1.0, 4.0]);
    }

    #[test]
    fn stats_and_summary() {
        let ts = hourly(vec![1.0, 2.0, 3.0, 4.0]);
        assert!((ts.stats().mean() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn next_boundary_after_is_strictly_after() {
        let ts = hourly(vec![1.0, 2.0, 3.0]);
        assert_eq!(
            ts.next_boundary_after(SimTime::ZERO),
            SimTime::from_hours(1.0)
        );
        assert_eq!(
            ts.next_boundary_after(SimTime::from_hours(0.5)),
            SimTime::from_hours(1.0)
        );
        // Exactly on a boundary: advance a whole bucket, never return t.
        assert_eq!(
            ts.next_boundary_after(SimTime::from_hours(1.0)),
            SimTime::from_hours(2.0)
        );
        // Past the end: keep stepping on the extrapolated grid.
        assert_eq!(
            ts.next_boundary_after(SimTime::from_hours(5.5)),
            SimTime::from_hours(6.0)
        );
        // Before the start: the start is the next boundary.
        let shifted = TimeSeries::new(
            SimTime::from_hours(4.0),
            SimDuration::from_hours(1.0),
            vec![1.0],
        );
        assert_eq!(
            shifted.next_boundary_after(SimTime::ZERO),
            SimTime::from_hours(4.0)
        );
    }

    #[test]
    fn wide_integrate_matches_scan_and_survives_mutation() {
        // 100 buckets with a 1-second step: a whole-range window spans
        // the prefix path; spot-check against the scan oracle.
        let vals: Vec<f64> = (0..100).map(|i| (i as f64) * 0.5 + 1.0).collect();
        let ts = TimeSeries::new(SimTime::ZERO, SimDuration::from_secs(1.0), vals);
        let from = SimTime::ZERO;
        let to = SimTime::from_secs(100.0);
        let wide = ts.integrate(from, to);
        let oracle = ts.integrate_scan(from, to);
        assert!((wide - oracle).abs() <= 1e-9 * oracle.abs().max(1.0));

        // Mutation must invalidate the cached cumulative index.
        let mut ts = ts;
        for v in ts.values_mut() {
            *v *= 2.0;
        }
        let wide2 = ts.integrate(from, to);
        assert!((wide2 - 2.0 * oracle).abs() <= 1e-9 * oracle.abs().max(1.0));
    }

    #[test]
    fn clone_and_serde_roundtrip_ignore_prefix_cache() {
        let ts = TimeSeries::new(
            SimTime::from_hours(1.0),
            SimDuration::from_secs(1.0),
            (0..200).map(|i| i as f64).collect(),
        );
        // Force the cache to exist, then prove it does not leak into
        // equality, clones, or the serialized form.
        let _ = ts.integrate(SimTime::ZERO, SimTime::from_hours(10.0));
        let clone = ts.clone();
        assert_eq!(ts, clone);
        let v = ts.to_value();
        let back = TimeSeries::from_value(&v).unwrap();
        assert_eq!(ts, back);
        let json = serde_json::to_string(&v).unwrap();
        assert!(!json.contains("cum"), "cache leaked into serde: {json}");
    }

    /// Bit-level fingerprint of a statistics value.
    fn stats_bits(s: &RunningStats) -> [u64; 5] {
        [
            s.count(),
            s.mean().to_bits(),
            s.variance().to_bits(),
            s.min().to_bits(),
            s.max().to_bits(),
        ]
    }

    fn welford(values: &[f64]) -> RunningStats {
        let mut rs = RunningStats::new();
        for &v in values {
            rs.push(v);
        }
        rs
    }

    #[test]
    fn stats_memo_matches_fresh_pass_and_is_invisible() {
        let vals: Vec<f64> = (0..500)
            .map(|i| ((i * 37) % 101) as f64 * 0.3 + 5.0)
            .collect();
        let mut ts = TimeSeries::new(SimTime::ZERO, SimDuration::from_hours(1.0), vals);
        let fresh = welford(ts.values());
        // First call fills the memo, the second is served from it.
        assert_eq!(stats_bits(&ts.stats()), stats_bits(&fresh));
        assert!(ts.stats_memo.get().is_some());
        assert_eq!(stats_bits(&ts.stats()), stats_bits(&fresh));

        // The memo is not state: clones start without it, equality and
        // the serialized form ignore it.
        let clone = ts.clone();
        assert!(clone.stats_memo.get().is_none());
        assert_eq!(ts, clone);
        let unfilled = TimeSeries::new(ts.start(), ts.step(), ts.values().to_vec());
        assert_eq!(ts, unfilled);
        let json = serde_json::to_string(&ts.to_value()).unwrap();
        assert_eq!(json, serde_json::to_string(&unfilled.to_value()).unwrap());
        assert!(!json.contains("stats"), "memo leaked into serde: {json}");

        // Mutation drops the memo; the next call sees the new samples.
        for v in ts.values_mut() {
            *v = -*v;
        }
        assert!(ts.stats_memo.get().is_none());
        let negated = welford(ts.values());
        assert_eq!(stats_bits(&ts.stats()), stats_bits(&negated));
        assert_eq!(ts.stats().mean(), -fresh.mean());
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Satellite (a): the bucket index round-trips through
        /// `time_of` for every index, under adversarial (non-dyadic)
        /// steps and starts where `start + step*i` rounds off the
        /// mathematical boundary.
        #[test]
        fn at_time_of_roundtrips(
            values in prop::collection::vec(-1e3f64..1e3, 1..200),
            step_sel in 0u32..5,
            step_raw in 1e-3f64..1e4,
            start in 0.0f64..1e7,
        ) {
            // Mix fixed adversarial steps (non-dyadic, sub-second) with
            // random ones.
            let step = match step_sel {
                0 => 3600.0,
                1 => 0.1,
                2 => 1.0 / 3.0,
                3 => 7.7e-3,
                _ => step_raw,
            };
            let ts = TimeSeries::new(
                SimTime::from_secs(start),
                SimDuration::from_secs(step),
                values.clone(),
            );
            for (i, v) in values.iter().enumerate() {
                let t = ts.time_of(i);
                prop_assert_eq!(ts.at(t).to_bits(), v.to_bits());
                prop_assert_eq!(ts.index_of(t), Some(i));
                prop_assert!(ts.next_boundary_after(t) > t);
            }
        }

        /// Satellite (c): the O(1) prefix integral agrees with the
        /// per-bucket scan oracle to 1e-9 relative error over random
        /// series and windows, including windows clamped outside the
        /// covered range on either side; inverted windows are zero.
        #[test]
        fn prefix_integral_matches_scan(
            values in prop::collection::vec(0.0f64..1000.0, 2..300),
            step in 1.0f64..7200.0,
            a in -4.0f64..420.0,
            b in -4.0f64..420.0,
        ) {
            let start = SimTime::from_secs(5.0 * step);
            let ts = TimeSeries::new(start, SimDuration::from_secs(step), values);
            // a/b are bucket coordinates relative to start (may fall
            // before the start or past the end); keep absolute times
            // non-negative via the 5-bucket start offset.
            let ta = SimTime::from_secs(5.0 * step + a * step);
            let tb = SimTime::from_secs(5.0 * step + b * step);
            if tb <= ta {
                prop_assert_eq!(ts.integrate(ta, tb), 0.0);
            } else {
                let fast = ts.integrate_prefix(ta, tb);
                let oracle = ts.integrate_scan(ta, tb);
                let tol = 1e-9 * oracle.abs().max(1.0);
                prop_assert!(
                    (fast - oracle).abs() <= tol,
                    "prefix {} vs scan {} (step {}, window {:?}..{:?})",
                    fast, oracle, step, ta, tb
                );
                // And the public entry point matches whichever path it
                // dispatched to, within the same tolerance.
                let public = ts.integrate(ta, tb);
                prop_assert!((public - oracle).abs() <= tol);
            }
        }
    }
}
