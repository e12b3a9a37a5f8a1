//! Carbon-intensity traces: a named time series of gCO₂/kWh values with
//! the aggregation and calibration operations the experiments need.

use serde::{Deserialize, Serialize};
use sustain_sim_core::series::TimeSeries;
use sustain_sim_core::stats::RunningStats;
use sustain_sim_core::time::SimTime;
use sustain_sim_core::units::CarbonIntensity;

/// A named carbon-intensity time series (gCO₂/kWh).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CarbonTrace {
    name: String,
    series: TimeSeries,
}

impl CarbonTrace {
    /// Wraps a series as a trace.
    pub fn new(name: impl Into<String>, series: TimeSeries) -> CarbonTrace {
        CarbonTrace {
            name: name.into(),
            series,
        }
    }

    /// Trace name (usually the region).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The underlying series.
    pub fn series(&self) -> &TimeSeries {
        &self.series
    }

    /// Intensity at a time (step-function, clamped at the edges).
    pub fn at(&self, t: SimTime) -> CarbonIntensity {
        CarbonIntensity::from_grams_per_kwh(self.series.at(t))
    }

    /// Time-weighted mean intensity over a window.
    pub fn mean_over(&self, from: SimTime, to: SimTime) -> CarbonIntensity {
        CarbonIntensity::from_grams_per_kwh(self.series.mean_over(from, to))
    }

    /// Mean intensity over the whole trace.
    pub fn overall_mean(&self) -> CarbonIntensity {
        CarbonIntensity::from_grams_per_kwh(self.series.stats().mean())
    }

    /// Daily means — the quantity Fig. 2 plots.
    pub fn daily_means(&self) -> TimeSeries {
        self.series.daily_means()
    }

    /// Statistics of the daily means (mean, std, …).
    pub fn daily_stats(&self) -> RunningStats {
        let daily = self.daily_means();
        let mut rs = RunningStats::new();
        for &v in daily.values() {
            rs.push(v);
        }
        rs
    }

    /// The end of the trace bucket containing `t` — the next sampling
    /// boundary strictly after `t`. Times before the start return the
    /// start; times at or past the end return `t + step` (the clamped
    /// value extends indefinitely).
    pub fn bucket_end_after(&self, t: SimTime) -> SimTime {
        // Delegates to the series' snapped bucket coordinate, so a `t`
        // sitting within float rounding of a boundary advances a whole
        // bucket instead of returning (approximately) itself — the
        // strictly-after guarantee tick scheduling relies on.
        self.series.next_boundary_after(t)
    }

    /// Affine re-calibration: shifts and scales the trace so the overall
    /// mean equals `target_mean` and the standard deviation of *daily
    /// means* equals `target_daily_std`. Values are floored at the physical
    /// minimum of 5 g/kWh.
    ///
    /// # Panics
    /// Panics if the trace has zero daily-mean variance (nothing to scale).
    pub(crate) fn with_moments(&self, target_mean: f64, target_daily_std: f64) -> CarbonTrace {
        let cur_mean = self.series.stats().mean();
        let cur_daily_std = self.daily_stats().std_dev();
        assert!(
            cur_daily_std > 0.0,
            "cannot rescale a trace with zero daily variance"
        );
        let s = target_daily_std / cur_daily_std;
        let series = self
            .series
            .map(|v| (target_mean + s * (v - cur_mean)).max(crate::synth::MIN_CI_G_PER_KWH));
        CarbonTrace::new(self.name.clone(), series)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sustain_sim_core::time::SimDuration;

    fn trace_of(values: Vec<f64>) -> CarbonTrace {
        CarbonTrace::new(
            "test",
            TimeSeries::new(SimTime::ZERO, SimDuration::from_hours(1.0), values),
        )
    }

    #[test]
    fn at_and_mean() {
        let t = trace_of(vec![100.0, 200.0]);
        assert_eq!(t.at(SimTime::ZERO).grams_per_kwh(), 100.0);
        assert_eq!(
            t.mean_over(SimTime::ZERO, SimTime::from_hours(2.0))
                .grams_per_kwh(),
            150.0
        );
        assert_eq!(t.overall_mean().grams_per_kwh(), 150.0);
    }

    #[test]
    fn daily_means_aggregate_24_hours() {
        let mut vals = vec![100.0; 24];
        vals.extend(vec![300.0; 24]);
        let t = trace_of(vals);
        let daily = t.daily_means();
        assert_eq!(daily.values(), &[100.0, 300.0]);
        let stats = t.daily_stats();
        assert_eq!(stats.mean(), 200.0);
        assert_eq!(stats.std_dev(), 100.0);
    }

    #[test]
    fn bucket_end_after_aligns_to_boundaries() {
        let t = trace_of(vec![1.0, 2.0, 3.0]);
        assert_eq!(t.bucket_end_after(SimTime::ZERO), SimTime::from_hours(1.0));
        assert_eq!(
            t.bucket_end_after(SimTime::from_hours(0.5)),
            SimTime::from_hours(1.0)
        );
        assert_eq!(
            t.bucket_end_after(SimTime::from_hours(1.0)),
            SimTime::from_hours(2.0)
        );
        // Past the end: still advances by whole steps.
        assert_eq!(
            t.bucket_end_after(SimTime::from_hours(7.5)),
            SimTime::from_hours(8.0)
        );
    }

    #[test]
    fn with_moments_hits_targets() {
        let mut vals = vec![100.0; 24];
        vals.extend(vec![200.0; 24]);
        vals.extend(vec![300.0; 24]);
        let t = trace_of(vals).with_moments(500.0, 30.0);
        let stats = t.daily_stats();
        assert!((stats.mean() - 500.0).abs() < 1e-9);
        // Original daily std: std of {100,200,300} = 81.65; rescaled to 30.
        assert!((stats.std_dev() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn with_moments_floors_at_minimum() {
        let mut vals = vec![10.0; 24];
        vals.extend(vec![20.0; 24]);
        // Huge scale factor would push values below zero without the floor.
        let t = trace_of(vals).with_moments(10.0, 500.0);
        assert!(t.series().min() >= crate::synth::MIN_CI_G_PER_KWH);
    }

    #[test]
    #[should_panic(expected = "zero daily variance")]
    fn with_moments_rejects_flat_trace() {
        trace_of(vec![50.0; 48]).with_moments(100.0, 10.0);
    }
}
