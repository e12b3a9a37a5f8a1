//! Full-year carbon-intensity synthesis.
//!
//! January (Fig. 2) anchors the calibration, but lifetime analyses
//! (procurement, Carbon500, amortization) integrate over years. This
//! module stretches a regional profile across twelve months with seasonal
//! level factors — solar-heavy grids clean up in summer, wind-heavy
//! Nordic grids in autumn/winter, hydro grids stay flat — and synthesizes
//! a contiguous hourly year.

use crate::region::RegionProfile;
use crate::synth::generate_hourly;
use crate::trace::CarbonTrace;
use serde::{Deserialize, Serialize};
use sustain_sim_core::rng::RngStream;
use sustain_sim_core::series::TimeSeries;
use sustain_sim_core::time::{SimDuration, SimTime};

/// Days per month in the synthetic (non-leap) year.
pub const DAYS_PER_MONTH: [usize; 12] = [31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31];

/// Seasonal shape of a region's monthly mean intensity, as multipliers on
/// the January level.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SeasonalShape {
    /// Twelve multipliers, January first.
    pub monthly_factor: [f64; 12],
}

impl SeasonalShape {
    /// Flat (no seasonality) — supply contracts like LRZ's.
    pub fn flat() -> SeasonalShape {
        SeasonalShape {
            monthly_factor: [1.0; 12],
        }
    }

    /// Solar-heavy grid: cleanest in high summer.
    pub fn solar_heavy() -> SeasonalShape {
        SeasonalShape {
            monthly_factor: [
                1.00, 0.97, 0.90, 0.82, 0.75, 0.70, 0.68, 0.70, 0.78, 0.88, 0.95, 1.00,
            ],
        }
    }

    /// Thermal-dominated grid: winter heating demand raises intensity.
    pub fn thermal_winter_peak() -> SeasonalShape {
        SeasonalShape {
            monthly_factor: [
                1.00, 0.99, 0.94, 0.88, 0.84, 0.82, 0.83, 0.84, 0.88, 0.93, 0.97, 1.01,
            ],
        }
    }

    /// Validates the shape (strictly positive factors).
    pub fn validate(&self) {
        for (i, &f) in self.monthly_factor.iter().enumerate() {
            assert!(f > 0.0, "month {i}: non-positive seasonal factor");
        }
    }
}

/// Synthesizes a contiguous 365-day hourly trace: each month is generated
/// from the January profile with its mean scaled by the seasonal factor,
/// using an independent derived seed (so one month's draws cannot shift
/// another's).
pub fn generate_year(profile: &RegionProfile, shape: &SeasonalShape, seed: u64) -> CarbonTrace {
    shape.validate();
    let root = RngStream::new(seed);
    let mut values = Vec::with_capacity(365 * 24);
    for (month, (&days, &factor)) in DAYS_PER_MONTH.iter().zip(&shape.monthly_factor).enumerate() {
        let mut monthly = profile.clone();
        monthly.mean_g_per_kwh *= factor;
        // Volatility scales with the level (dirtier month → bigger swings).
        monthly.synoptic_std *= factor;
        monthly.noise_std *= factor;
        let mut sub = root.derive_idx(month as u64);
        let month_seed = rand::RngCore::next_u64(&mut sub);
        let month_trace = generate_hourly(&monthly, days, month_seed);
        values.extend_from_slice(month_trace.series().values());
    }
    CarbonTrace::new(
        format!("{} (year)", profile.name),
        TimeSeries::new(SimTime::ZERO, SimDuration::from_hours(1.0), values),
    )
}

/// Monthly means of a year trace, `(month index, mean g/kWh)`.
pub fn monthly_means(trace: &CarbonTrace) -> Vec<(usize, f64)> {
    let values = trace.series().values();
    assert_eq!(values.len(), 365 * 24, "expected a full synthetic year");
    let mut out = Vec::with_capacity(12);
    let mut offset = 0;
    for (month, &days) in DAYS_PER_MONTH.iter().enumerate() {
        let n = days * 24;
        let mean = values[offset..offset + n].iter().sum::<f64>() / n as f64;
        out.push((month, mean));
        offset += n;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::{Region, RegionProfile};

    #[test]
    fn year_has_8760_hours() {
        let p = RegionProfile::january_2023(Region::Germany);
        let t = generate_year(&p, &SeasonalShape::solar_heavy(), 1);
        assert_eq!(t.series().len(), 8760);
        assert_eq!(DAYS_PER_MONTH.iter().sum::<usize>(), 365);
    }

    #[test]
    fn deterministic_and_seed_sensitive() {
        let p = RegionProfile::january_2023(Region::France);
        let a = generate_year(&p, &SeasonalShape::solar_heavy(), 7);
        let b = generate_year(&p, &SeasonalShape::solar_heavy(), 7);
        let c = generate_year(&p, &SeasonalShape::solar_heavy(), 8);
        assert_eq!(a.series().values(), b.series().values());
        assert_ne!(a.series().values(), c.series().values());
    }

    #[test]
    fn solar_heavy_summer_cleaner_than_winter() {
        let p = RegionProfile::january_2023(Region::Spain);
        let t = generate_year(&p, &SeasonalShape::solar_heavy(), 3);
        let means = monthly_means(&t);
        let january = means[0].1;
        let july = means[6].1;
        // Target ratio is 0.68; allow stochastic month-level wobble.
        assert!(
            july < 0.85 * january,
            "july {july} should be well below january {january}"
        );
    }

    #[test]
    fn flat_shape_keeps_level() {
        let p = RegionProfile::lrz_hydropower();
        let t = generate_year(&p, &SeasonalShape::flat(), 1);
        for (_, mean) in monthly_means(&t) {
            assert!((mean - 20.0).abs() < 1e-9);
        }
    }

    #[test]
    fn monthly_means_track_seasonal_factors() {
        let p = RegionProfile::january_2023(Region::Germany);
        let shape = SeasonalShape::thermal_winter_peak();
        let t = generate_year(&p, &shape, 11);
        for (month, mean) in monthly_means(&t) {
            let target = p.mean_g_per_kwh * shape.monthly_factor[month];
            assert!(
                (mean - target).abs() < 0.25 * target,
                "month {month}: {mean} vs {target}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "non-positive seasonal factor")]
    fn invalid_shape_rejected() {
        let mut shape = SeasonalShape::flat();
        shape.monthly_factor[3] = 0.0;
        let p = RegionProfile::january_2023(Region::Germany);
        generate_year(&p, &shape, 1);
    }

    #[test]
    #[should_panic(expected = "full synthetic year")]
    fn monthly_means_requires_year() {
        let p = RegionProfile::january_2023(Region::Germany);
        let t = crate::synth::generate_hourly(&p, 31, 1);
        monthly_means(&t);
    }
}
