//! Streaming and batch statistics used throughout the workspace.
//!
//! [`RunningStats`] is Welford's online algorithm (numerically stable mean /
//! variance in one pass); [`Summary`] is a batch snapshot with percentiles;
//! [`Histogram`] is a fixed-bin counting histogram; plus correlation and
//! least-squares helpers for the calibration and forecasting code.

use serde::{Deserialize, Serialize};

/// Welford online mean/variance accumulator.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RunningStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        RunningStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merges another accumulator (parallel Welford / Chan et al.).
    pub fn merge(&mut self, other: &RunningStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 with fewer than 2 observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Sample (Bessel-corrected) variance.
    pub fn sample_variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Sample standard deviation.
    pub fn sample_std_dev(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Smallest observation (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Coefficient of variation (std dev / mean); 0 when the mean is 0.
    pub fn cv(&self) -> f64 {
        if self.mean() == 0.0 {
            0.0
        } else {
            self.std_dev() / self.mean().abs()
        }
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.mean() * self.n as f64
    }
}

/// Batch summary of a sample: moments plus order statistics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Summary {
    /// Number of observations.
    pub count: usize,
    /// Sample mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Minimum.
    pub min: f64,
    /// 25th percentile.
    pub p25: f64,
    /// Median.
    pub median: f64,
    /// 75th percentile.
    pub p75: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Summarizes a sample. Returns an all-zero summary for empty input.
    pub fn of(values: &[f64]) -> Summary {
        if values.is_empty() {
            return Summary {
                count: 0,
                mean: 0.0,
                std_dev: 0.0,
                min: 0.0,
                p25: 0.0,
                median: 0.0,
                p75: 0.0,
                p95: 0.0,
                p99: 0.0,
                max: 0.0,
            };
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let mut rs = RunningStats::new();
        for &v in values {
            rs.push(v);
        }
        Summary {
            count: values.len(),
            mean: rs.mean(),
            std_dev: rs.std_dev(),
            min: sorted[0],
            p25: percentile_sorted(&sorted, 25.0),
            median: percentile_sorted(&sorted, 50.0),
            p75: percentile_sorted(&sorted, 75.0),
            p95: percentile_sorted(&sorted, 95.0),
            p99: percentile_sorted(&sorted, 99.0),
            max: sorted[sorted.len() - 1],
        }
    }
}

/// Percentile (linear interpolation) of an already-sorted slice.
///
/// # Panics
/// Panics on an empty slice or a percentile outside `[0, 100]`.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty slice");
    assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// Fixed-bin counting histogram over `[lo, hi)` with out-of-range capture.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
    count: u64,
}

impl Histogram {
    /// Creates a histogram with `bins` equal-width bins over `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `lo >= hi` or `bins == 0`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(lo < hi && bins > 0, "invalid histogram bounds");
        Histogram {
            lo,
            hi,
            bins: vec![0; bins],
            underflow: 0,
            overflow: 0,
            count: 0,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let idx = ((x - self.lo) / (self.hi - self.lo) * self.bins.len() as f64) as usize;
            let last = self.bins.len() - 1;
            self.bins[idx.min(last)] += 1;
        }
    }

    /// Count in bin `i`.
    pub fn bin(&self, i: usize) -> u64 {
        self.bins[i]
    }

    /// Number of bins.
    pub fn num_bins(&self) -> usize {
        self.bins.len()
    }

    /// `(low_edge, high_edge)` of bin `i`.
    pub fn bin_bounds(&self, i: usize) -> (f64, f64) {
        let w = (self.hi - self.lo) / self.bins.len() as f64;
        (self.lo + i as f64 * w, self.lo + (i + 1) as f64 * w)
    }

    /// Observations below range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Observations at or above range.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total observations recorded (including out-of-range).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Fraction of in-range observations falling in bin `i`.
    pub fn fraction(&self, i: usize) -> f64 {
        let in_range = self.count - self.underflow - self.overflow;
        if in_range == 0 {
            0.0
        } else {
            self.bins[i] as f64 / in_range as f64
        }
    }
}

/// Pearson correlation coefficient of two equal-length samples.
///
/// Returns 0 for degenerate inputs (length < 2 or zero variance).
pub fn pearson(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "pearson requires equal lengths");
    let n = x.len();
    if n < 2 {
        return 0.0;
    }
    let mx = x.iter().sum::<f64>() / n as f64;
    let my = y.iter().sum::<f64>() / n as f64;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for i in 0..n {
        let dx = x[i] - mx;
        let dy = y[i] - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx == 0.0 || syy == 0.0 {
        0.0
    } else {
        sxy / (sxx * syy).sqrt()
    }
}

/// Ordinary least squares fit `y ≈ slope * x + intercept`.
///
/// Returns `(slope, intercept)`. Degenerate inputs give a flat fit through
/// the mean of `y`.
pub fn linear_fit(x: &[f64], y: &[f64]) -> (f64, f64) {
    assert_eq!(x.len(), y.len(), "linear_fit requires equal lengths");
    let n = x.len();
    if n == 0 {
        return (0.0, 0.0);
    }
    let mx = x.iter().sum::<f64>() / n as f64;
    let my = y.iter().sum::<f64>() / n as f64;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    for i in 0..n {
        sxy += (x[i] - mx) * (y[i] - my);
        sxx += (x[i] - mx) * (x[i] - mx);
    }
    if sxx == 0.0 {
        (0.0, my)
    } else {
        let slope = sxy / sxx;
        (slope, my - slope * mx)
    }
}

/// Mean absolute percentage error between forecasts and actuals, in percent.
/// Pairs with `actual == 0` are skipped.
pub fn mape(actual: &[f64], forecast: &[f64]) -> f64 {
    assert_eq!(actual.len(), forecast.len());
    let mut total = 0.0;
    let mut n = 0u32;
    for (&a, &f) in actual.iter().zip(forecast) {
        if a != 0.0 {
            total += ((a - f) / a).abs();
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        100.0 * total / n as f64
    }
}

/// Root-mean-square error between two equal-length series.
pub fn rmse(actual: &[f64], forecast: &[f64]) -> f64 {
    assert_eq!(actual.len(), forecast.len());
    if actual.is_empty() {
        return 0.0;
    }
    let se: f64 = actual
        .iter()
        .zip(forecast)
        .map(|(a, f)| (a - f) * (a - f))
        .sum();
    (se / actual.len() as f64).sqrt()
}

/// Renders a unicode sparkline of a sample (8 block levels). Handy for
/// printing figure-shaped output in terminals and example logs.
pub fn sparkline(values: &[f64]) -> String {
    const BLOCKS: [char; 8] = [
        '\u{2581}', '\u{2582}', '\u{2583}', '\u{2584}', '\u{2585}', '\u{2586}', '\u{2587}',
        '\u{2588}',
    ];
    if values.is_empty() {
        return String::new();
    }
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let span = (hi - lo).max(1e-12);
    values
        .iter()
        .map(|&v| {
            let idx = (((v - lo) / span) * 7.0).round() as usize;
            BLOCKS[idx.min(7)]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_naive() {
        let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut rs = RunningStats::new();
        for &x in &data {
            rs.push(x);
        }
        assert_eq!(rs.count(), 8);
        assert!((rs.mean() - 5.0).abs() < 1e-12);
        assert!((rs.variance() - 4.0).abs() < 1e-12);
        assert!((rs.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(rs.min(), 2.0);
        assert_eq!(rs.max(), 9.0);
        assert!((rs.sum() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn merge_equals_single_pass() {
        let all: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = RunningStats::new();
        for &x in &all {
            whole.push(x);
        }
        let mut a = RunningStats::new();
        let mut b = RunningStats::new();
        for &x in &all[..37] {
            a.push(x);
        }
        for &x in &all[37..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = RunningStats::new();
        a.push(1.0);
        a.push(3.0);
        let before = a.clone();
        a.merge(&RunningStats::new());
        assert_eq!(a.count(), before.count());
        assert_eq!(a.mean(), before.mean());
        let mut empty = RunningStats::new();
        empty.merge(&before);
        assert_eq!(empty.count(), 2);
        assert_eq!(empty.mean(), before.mean());
    }

    #[test]
    fn percentiles_interpolate() {
        let sorted = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile_sorted(&sorted, 0.0), 1.0);
        assert_eq!(percentile_sorted(&sorted, 50.0), 3.0);
        assert_eq!(percentile_sorted(&sorted, 100.0), 5.0);
        assert!((percentile_sorted(&sorted, 25.0) - 2.0).abs() < 1e-12);
        assert!((percentile_sorted(&sorted, 10.0) - 1.4).abs() < 1e-12);
    }

    #[test]
    fn summary_of_known_sample() {
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = Summary::of(&v);
        assert_eq!(s.count, 100);
        assert!((s.mean - 50.5).abs() < 1e-9);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        assert!((s.median - 50.5).abs() < 1e-9);
        assert!((s.p95 - 95.05).abs() < 0.01);
    }

    #[test]
    fn summary_empty_is_zeroed() {
        let s = Summary::of(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn histogram_bins_and_edges() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for i in 0..10 {
            h.record(i as f64 + 0.5);
        }
        h.record(-1.0);
        h.record(10.0);
        h.record(25.0);
        assert_eq!(h.count(), 13);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        for i in 0..10 {
            assert_eq!(h.bin(i), 1, "bin {i}");
            let (lo, hi) = h.bin_bounds(i);
            assert!((lo - i as f64).abs() < 1e-12);
            assert!((hi - (i + 1) as f64).abs() < 1e-12);
        }
        assert!((h.fraction(0) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn pearson_perfect_and_anti() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y: Vec<f64> = x.iter().map(|v| 2.0 * v + 1.0).collect();
        let z: Vec<f64> = x.iter().map(|v| -v).collect();
        assert!((pearson(&x, &y) - 1.0).abs() < 1e-12);
        assert!((pearson(&x, &z) + 1.0).abs() < 1e-12);
        assert_eq!(pearson(&x, &[5.0, 5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn linear_fit_recovers_line() {
        let x: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let y: Vec<f64> = x.iter().map(|v| 3.0 * v - 7.0).collect();
        let (slope, intercept) = linear_fit(&x, &y);
        assert!((slope - 3.0).abs() < 1e-9);
        assert!((intercept + 7.0).abs() < 1e-9);
    }

    #[test]
    fn sparkline_shape() {
        assert_eq!(sparkline(&[]), "");
        let s = sparkline(&[0.0, 1.0]);
        assert_eq!(s.chars().count(), 2);
        assert_eq!(s.chars().next().unwrap(), '\u{2581}');
        assert_eq!(s.chars().last().unwrap(), '\u{2588}');
        // Constant input renders without panicking.
        let flat = sparkline(&[5.0; 4]);
        assert_eq!(flat.chars().count(), 4);
    }

    #[test]
    fn error_metrics() {
        let a = [10.0, 20.0, 30.0];
        let f = [11.0, 18.0, 33.0];
        assert!((rmse(&a, &f) - (14.0f64 / 3.0).sqrt()).abs() < 1e-9);
        let expected_mape = 100.0 * (0.1 + 0.1 + 0.1) / 3.0;
        assert!((mape(&a, &f) - expected_mape).abs() < 1e-9);
        assert_eq!(mape(&[0.0], &[5.0]), 0.0);
    }
}
