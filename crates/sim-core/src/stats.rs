//! Streaming and batch statistics used throughout the workspace.
//!
//! [`RunningStats`] is Welford's online algorithm (numerically stable mean /
//! variance in one pass); [`Summary`] is a batch snapshot with percentiles;
//! plus a text sparkline for terminal output.

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

    /// Number of observations.
    #[cfg(test)]
    pub(crate) fn count(&self) -> u64 {
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

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Sum of observations.
    #[cfg(test)]
    pub(crate) fn sum(&self) -> f64 {
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
pub(crate) fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
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
}
