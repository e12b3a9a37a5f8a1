//! Carbon-aware dynamic power-budget scaling (§3.1) — experiment E8.
//!
//! The paper: *"scaling up/down the total system power constraint in
//! accordance with the carbon intensity changes is essential. This can be
//! achieved by adding two properties to the PowerStack: a carbon intensity
//! monitor and a simple mechanism to automatically determine the total
//! system power budget based on it."*
//!
//! A [`ScalingPolicy`] maps the (monitored or forecast) carbon intensity
//! to the total system power budget between a floor and a ceiling.

use serde::{Deserialize, Serialize};
use sustain_grid::forecast::Forecaster;
use sustain_grid::trace::CarbonTrace;
use sustain_sim_core::error::{
    ensure_finite, ensure_non_negative, ensure_ordered, ConfigError, Validate,
};
use sustain_sim_core::series::TimeSeries;
use sustain_sim_core::units::{CarbonIntensity, Power};

/// Maps carbon intensity to a total system power budget.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ScalingPolicy {
    /// Ignore carbon intensity: constant budget (the baseline).
    Static {
        /// The fixed budget.
        budget: Power,
    },
    /// Linear interpolation: full power at/below `ci_low`, floor power
    /// at/above `ci_high`.
    Linear {
        /// Budget floor (must keep the system operable).
        floor: Power,
        /// Budget ceiling.
        ceiling: Power,
        /// Intensity at/below which the ceiling applies, g/kWh.
        ci_low: f64,
        /// Intensity at/above which the floor applies, g/kWh.
        ci_high: f64,
    },
    /// Two-level threshold: ceiling when green, floor when not.
    Threshold {
        /// Budget floor.
        floor: Power,
        /// Budget ceiling.
        ceiling: Power,
        /// Threshold intensity, g/kWh.
        threshold: f64,
    },
    /// Cap the *carbon rate*: budget = carbon_rate_cap / CI, clamped.
    /// Directly implements "operational carbon footprint is the time
    /// integral of carbon intensity multiplied by power consumption".
    CarbonRateCap {
        /// Budget floor.
        floor: Power,
        /// Budget ceiling.
        ceiling: Power,
        /// Permitted emission rate, kg CO₂e per hour.
        kg_per_hour: f64,
    },
}

impl Validate for ScalingPolicy {
    fn validate(&self) -> Result<(), ConfigError> {
        const CTX: &str = "ScalingPolicy";
        match *self {
            ScalingPolicy::Static { budget } => ensure_non_negative(CTX, "budget", budget.watts()),
            ScalingPolicy::Linear {
                floor,
                ceiling,
                ci_low,
                ci_high,
            } => {
                ensure_non_negative(CTX, "floor", floor.watts())?;
                ensure_non_negative(CTX, "ceiling", ceiling.watts())?;
                ensure_ordered(CTX, "floor", floor.watts(), "ceiling", ceiling.watts())?;
                ensure_finite(CTX, "ci_low", ci_low)?;
                ensure_finite(CTX, "ci_high", ci_high)?;
                ensure_ordered(CTX, "ci_low", ci_low, "ci_high", ci_high)
            }
            ScalingPolicy::Threshold {
                floor,
                ceiling,
                threshold,
            } => {
                ensure_non_negative(CTX, "floor", floor.watts())?;
                ensure_non_negative(CTX, "ceiling", ceiling.watts())?;
                ensure_ordered(CTX, "floor", floor.watts(), "ceiling", ceiling.watts())?;
                ensure_finite(CTX, "threshold", threshold)
            }
            ScalingPolicy::CarbonRateCap {
                floor,
                ceiling,
                kg_per_hour,
            } => {
                ensure_non_negative(CTX, "floor", floor.watts())?;
                ensure_non_negative(CTX, "ceiling", ceiling.watts())?;
                ensure_ordered(CTX, "floor", floor.watts(), "ceiling", ceiling.watts())?;
                ensure_non_negative(CTX, "kg_per_hour", kg_per_hour)
            }
        }
    }
}

impl ScalingPolicy {
    /// The power budget at a given carbon intensity.
    pub fn budget_at(&self, ci: CarbonIntensity) -> Power {
        match *self {
            ScalingPolicy::Static { budget } => budget,
            ScalingPolicy::Linear {
                floor,
                ceiling,
                ci_low,
                ci_high,
            } => {
                let g = ci.grams_per_kwh();
                if g <= ci_low {
                    ceiling
                } else if g >= ci_high {
                    floor
                } else {
                    let t = (g - ci_low) / (ci_high - ci_low);
                    ceiling - (ceiling - floor) * t
                }
            }
            ScalingPolicy::Threshold {
                floor,
                ceiling,
                threshold,
            } => {
                if ci.grams_per_kwh() <= threshold {
                    ceiling
                } else {
                    floor
                }
            }
            ScalingPolicy::CarbonRateCap {
                floor,
                ceiling,
                kg_per_hour,
            } => {
                let g = ci.grams_per_kwh().max(1e-9);
                // kg/h ÷ g/kWh → MW: (kg/h × 1000 g/kg) / (g/kWh) = kWh/h = kW.
                let kw = kg_per_hour * 1000.0 / g;
                Power::from_kw(kw).clamp(floor, ceiling)
            }
        }
    }

    /// Computes the hourly budget series for a carbon trace (the monitor
    /// loop of §3.1, reading the live intensity each hour).
    pub fn budget_series(&self, trace: &CarbonTrace) -> TimeSeries {
        trace.series().map(|g| {
            self.budget_at(CarbonIntensity::from_grams_per_kwh(g))
                .watts()
        })
    }

    /// Computes the hourly budget series using a forecaster fitted on a
    /// rolling history window of `history_hours`, predicting one hour
    /// ahead — §3.1's "carbon intensity prediction can support the job
    /// scheduler". Hours before enough history accumulates fall back to
    /// the live value.
    pub fn budget_series_forecast(
        &self,
        trace: &CarbonTrace,
        forecaster: &mut dyn Forecaster,
        history_hours: usize,
    ) -> TimeSeries {
        let values = trace.series().values();
        let mut budgets = Vec::with_capacity(values.len());
        for h in 0..values.len() {
            let ci = if h >= history_hours {
                forecaster.fit(&values[h - history_hours..h]);
                forecaster.predict(1)[0]
            } else {
                values[h]
            };
            budgets.push(
                self.budget_at(CarbonIntensity::from_grams_per_kwh(ci))
                    .watts(),
            );
        }
        TimeSeries::new(trace.series().start(), trace.series().step(), budgets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sustain_grid::region::{Region, RegionProfile};
    use sustain_grid::synth::generate_calibrated;

    fn mw(x: f64) -> Power {
        Power::from_mw(x)
    }

    fn ci(g: f64) -> CarbonIntensity {
        CarbonIntensity::from_grams_per_kwh(g)
    }

    fn linear() -> ScalingPolicy {
        ScalingPolicy::Linear {
            floor: mw(2.0),
            ceiling: mw(5.0),
            ci_low: 100.0,
            ci_high: 600.0,
        }
    }

    #[test]
    fn static_ignores_ci() {
        let p = ScalingPolicy::Static { budget: mw(4.0) };
        assert_eq!(p.budget_at(ci(10.0)), mw(4.0));
        assert_eq!(p.budget_at(ci(1000.0)), mw(4.0));
    }

    #[test]
    fn linear_interpolates_and_clamps() {
        let p = linear();
        assert_eq!(p.budget_at(ci(50.0)), mw(5.0));
        assert_eq!(p.budget_at(ci(800.0)), mw(2.0));
        // Midpoint: 350 g → halfway → 3.5 MW.
        assert!((p.budget_at(ci(350.0)).mw() - 3.5).abs() < 1e-9);
    }

    #[test]
    fn threshold_switches() {
        let p = ScalingPolicy::Threshold {
            floor: mw(2.0),
            ceiling: mw(5.0),
            threshold: 300.0,
        };
        assert_eq!(p.budget_at(ci(299.0)), mw(5.0));
        assert_eq!(p.budget_at(ci(300.0)), mw(5.0));
        assert_eq!(p.budget_at(ci(301.0)), mw(2.0));
    }

    #[test]
    fn carbon_rate_cap_math() {
        let p = ScalingPolicy::CarbonRateCap {
            floor: mw(0.5),
            ceiling: mw(10.0),
            kg_per_hour: 1000.0,
        };
        // 1000 kg/h at 500 g/kWh → 2000 kWh/h → 2 MW.
        assert!((p.budget_at(ci(500.0)).mw() - 2.0).abs() < 1e-9);
        // Very clean grid: clamped at ceiling.
        assert_eq!(p.budget_at(ci(1.0)), mw(10.0));
        // Very dirty: clamped at floor.
        assert_eq!(p.budget_at(ci(100_000.0)), mw(0.5));
    }

    #[test]
    fn budget_series_aligns_with_trace() {
        let trace = generate_calibrated(&RegionProfile::january_2023(Region::Germany), 7, 1);
        let s = linear().budget_series(&trace);
        assert_eq!(s.len(), trace.series().len());
        assert_eq!(s.start(), trace.series().start());
        for &w in s.values() {
            assert!((2e6..=5e6).contains(&w));
        }
    }

    #[test]
    fn forecast_budget_series_close_to_live_on_smooth_grid() {
        let trace = generate_calibrated(&RegionProfile::january_2023(Region::France), 14, 5);
        let mut fc = sustain_grid::forecast::SeasonalNaive::daily();
        let forecast = linear().budget_series_forecast(&trace, &mut fc, 72);
        let live = linear().budget_series(&trace);
        // The two agree within the budget span on average.
        let diffs: f64 = forecast
            .values()
            .iter()
            .zip(live.values())
            .map(|(a, b)| (a - b).abs())
            .sum::<f64>()
            / live.len() as f64;
        assert!(diffs < 1.5e6, "mean |Δbudget| = {diffs} W");
    }
}
