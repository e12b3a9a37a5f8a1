//! Green-period detection (§3.3).
//!
//! The paper: *"The fluctuating carbon intensity of the electricity grid
//! creates green periods, where the carbon intensity is significantly
//! lower than the average carbon intensity for that location."* Schedulers
//! backfill into these windows and the incentive model (§3.4) discounts
//! core-hours spent inside them.

use crate::trace::CarbonTrace;
use serde::{Deserialize, Serialize};
use sustain_sim_core::time::SimTime;

/// A contiguous window during which the grid is "green".
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GreenPeriod {
    /// Window start.
    pub start: SimTime,
    /// Window end (exclusive).
    pub end: SimTime,
    /// Mean intensity inside the window, gCO₂/kWh.
    pub mean_ci: f64,
}

impl GreenPeriod {
    /// Window length.
    pub fn duration(&self) -> sustain_sim_core::time::SimDuration {
        self.end - self.start
    }
}

/// Green-period detector: a sample is green when it lies below
/// `threshold_fraction × overall mean`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GreenDetector {
    /// Fraction of the trace mean below which a sample counts as green
    /// (e.g. 0.9 → "at least 10 % cleaner than average").
    pub threshold_fraction: f64,
}

impl Default for GreenDetector {
    fn default() -> Self {
        GreenDetector {
            threshold_fraction: 0.9,
        }
    }
}

impl GreenDetector {
    /// Creates a detector with the given threshold fraction.
    #[cfg(test)]
    pub(crate) fn new(threshold_fraction: f64) -> Self {
        assert!(
            threshold_fraction > 0.0,
            "threshold fraction must be positive"
        );
        GreenDetector { threshold_fraction }
    }

    /// Absolute threshold for a trace, gCO₂/kWh.
    pub fn threshold_for(&self, trace: &CarbonTrace) -> f64 {
        trace.series().stats().mean() * self.threshold_fraction
    }

    /// `true` if the trace is green at `t`.
    pub fn is_green_at(&self, trace: &CarbonTrace, t: SimTime) -> bool {
        trace.at(t).grams_per_kwh() < self.threshold_for(trace)
    }

    /// All maximal green windows in the trace.
    pub fn detect(&self, trace: &CarbonTrace) -> Vec<GreenPeriod> {
        let series = trace.series();
        let threshold = self.threshold_for(trace);
        let mut periods = Vec::new();
        let mut open: Option<(usize, f64, usize)> = None; // (start idx, sum, count)
        for (i, &v) in series.values().iter().enumerate() {
            if v < threshold {
                match &mut open {
                    Some((_, sum, count)) => {
                        *sum += v;
                        *count += 1;
                    }
                    None => open = Some((i, v, 1)),
                }
            } else if let Some((start, sum, count)) = open.take() {
                periods.push(GreenPeriod {
                    start: series.time_of(start),
                    end: series.time_of(i),
                    mean_ci: sum / count as f64,
                });
            }
        }
        if let Some((start, sum, count)) = open {
            periods.push(GreenPeriod {
                start: series.time_of(start),
                end: series.end(),
                mean_ci: sum / count as f64,
            });
        }
        periods
    }

    /// Fraction of total trace time that is green.
    pub fn green_fraction(&self, trace: &CarbonTrace) -> f64 {
        let total = (trace.series().end() - trace.series().start()).as_secs();
        if total == 0.0 {
            return 0.0;
        }
        let green: f64 = self
            .detect(trace)
            .iter()
            .map(|p| p.duration().as_secs())
            .sum();
        green / total
    }

    /// The next green window starting at or after `t`, if any. A window
    /// already in progress at `t` is returned truncated to start at `t`.
    pub fn next_green_after(&self, trace: &CarbonTrace, t: SimTime) -> Option<GreenPeriod> {
        self.detect(trace)
            .into_iter()
            .find(|p| p.end > t)
            .map(|p| GreenPeriod {
                start: p.start.max(t),
                ..p
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sustain_sim_core::series::TimeSeries;
    use sustain_sim_core::time::SimDuration;

    fn trace_of(values: Vec<f64>) -> CarbonTrace {
        CarbonTrace::new(
            "test",
            TimeSeries::new(SimTime::ZERO, SimDuration::from_hours(1.0), values),
        )
    }

    #[test]
    fn detects_simple_window() {
        // Mean = 200; threshold 0.9 → 180; hours 2-3 are green.
        let t = trace_of(vec![250.0, 250.0, 100.0, 100.0, 300.0, 200.0]);
        let det = GreenDetector::default();
        let periods = det.detect(&t);
        assert_eq!(periods.len(), 1);
        assert_eq!(periods[0].start, SimTime::from_hours(2.0));
        assert_eq!(periods[0].end, SimTime::from_hours(4.0));
        assert_eq!(periods[0].mean_ci, 100.0);
        assert!((periods[0].duration().as_hours() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn window_open_at_trace_end_is_closed() {
        let t = trace_of(vec![300.0, 300.0, 50.0, 50.0]);
        let periods = GreenDetector::default().detect(&t);
        assert_eq!(periods.len(), 1);
        assert_eq!(periods[0].end, SimTime::from_hours(4.0));
    }

    #[test]
    fn flat_trace_has_no_green_periods() {
        let t = trace_of(vec![100.0; 24]);
        let det = GreenDetector::default();
        assert!(det.detect(&t).is_empty());
        assert_eq!(det.green_fraction(&t), 0.0);
        assert!(!det.is_green_at(&t, SimTime::ZERO));
    }

    #[test]
    fn green_fraction_counts_hours() {
        let t = trace_of(vec![100.0, 100.0, 300.0, 300.0, 300.0, 300.0]);
        // Mean ≈ 233; threshold 210; green = 2 of 6 hours.
        let f = GreenDetector::default().green_fraction(&t);
        assert!((f - 2.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn next_green_after_truncates_in_progress_window() {
        let t = trace_of(vec![50.0, 50.0, 50.0, 300.0, 300.0, 50.0, 300.0]);
        let det = GreenDetector::default();
        // At t=1h the first window (0..3h) is in progress.
        let p = det
            .next_green_after(&t, SimTime::from_hours(1.0))
            .expect("window");
        assert_eq!(p.start, SimTime::from_hours(1.0));
        assert_eq!(p.end, SimTime::from_hours(3.0));
        // After it, the next is 5..6h.
        let p2 = det
            .next_green_after(&t, SimTime::from_hours(3.0))
            .expect("window");
        assert_eq!(p2.start, SimTime::from_hours(5.0));
        // Past everything: none.
        assert!(det.next_green_after(&t, SimTime::from_hours(7.0)).is_none());
    }

    #[test]
    fn threshold_scales_detection() {
        let t = trace_of(vec![100.0, 190.0, 300.0, 210.0]);
        // Mean = 200. Strict detector (0.6 → 120) only catches hour 0.
        let strict = GreenDetector::new(0.6).detect(&t);
        assert_eq!(strict.len(), 1);
        assert_eq!(strict[0].end, SimTime::from_hours(1.0));
        // Lenient detector (1.0 → 200) catches hours 0-1.
        let lenient = GreenDetector::new(1.0).detect(&t);
        assert_eq!(lenient[0].end, SimTime::from_hours(2.0));
    }

    #[test]
    fn synthetic_region_has_green_periods() {
        use crate::region::{Region, RegionProfile};
        let trace =
            crate::synth::generate_calibrated(&RegionProfile::january_2023(Region::Finland), 31, 1);
        let det = GreenDetector::default();
        let periods = det.detect(&trace);
        assert!(
            periods.len() >= 3,
            "volatile grid should show several green windows, got {}",
            periods.len()
        );
        let frac = det.green_fraction(&trace);
        assert!(frac > 0.05 && frac < 0.6, "green fraction {frac}");
    }
}
