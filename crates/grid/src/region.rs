//! Regional grid profiles.
//!
//! Each [`RegionProfile`] captures the statistical structure of a region's
//! *marginal* carbon intensity (the quantity Fig. 2 of the paper plots):
//! the monthly mean level, the diurnal demand/solar shape, synoptic
//! (multi-day weather) variability, noise, and a weekend effect. The
//! January-2023 presets are calibrated to the two statistics the paper
//! publishes — Finland's monthly mean is 2.1× France's, and Finland's
//! daily means have a standard deviation of 47.21 gCO₂/kWh — with the
//! remaining regions set to plausible relative levels.

use serde::{Deserialize, Serialize};
use sustain_sim_core::error::{
    ensure_fraction, ensure_non_negative, ensure_positive, ConfigError, Validate,
};
use sustain_sim_core::units::CarbonIntensity;

/// Carbon intensity of hydropower (the LRZ supply; §2 of the paper).
pub const CI_HYDRO_G_PER_KWH: f64 = 20.0;

/// Carbon intensity of coal generation (§2 of the paper).
pub const CI_COAL_G_PER_KWH: f64 = 1025.0;

/// European regions plotted in Fig. 2 (a representative subset).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Region {
    /// Germany.
    Germany,
    /// France.
    France,
    /// Finland.
    Finland,
    /// Poland.
    Poland,
    /// Spain.
    Spain,
    /// Sweden.
    Sweden,
    /// Norway.
    Norway,
    /// Great Britain.
    GreatBritain,
    /// Italy.
    Italy,
    /// Netherlands.
    Netherlands,
}

impl Region {
    /// All modelled regions, in Fig. 2 display order.
    pub const ALL: [Region; 10] = [
        Region::Germany,
        Region::France,
        Region::Finland,
        Region::Poland,
        Region::Spain,
        Region::Sweden,
        Region::Norway,
        Region::GreatBritain,
        Region::Italy,
        Region::Netherlands,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Region::Germany => "Germany",
            Region::France => "France",
            Region::Finland => "Finland",
            Region::Poland => "Poland",
            Region::Spain => "Spain",
            Region::Sweden => "Sweden",
            Region::Norway => "Norway",
            Region::GreatBritain => "Great Britain",
            Region::Italy => "Italy",
            Region::Netherlands => "Netherlands",
        }
    }
}

/// Statistical profile of a region's marginal carbon intensity.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegionProfile {
    /// Region name.
    pub name: String,
    /// Monthly mean marginal carbon intensity, gCO₂/kWh.
    pub mean_g_per_kwh: f64,
    /// Diurnal amplitude as a fraction of the mean (demand peaks morning
    /// and evening).
    pub diurnal_amplitude: f64,
    /// Midday solar dip as a fraction of the mean (strong in solar-heavy
    /// grids).
    pub solar_dip: f64,
    /// Standard deviation of the synoptic (multi-day weather) component,
    /// gCO₂/kWh — the dominant contributor to the variance of daily means.
    pub synoptic_std: f64,
    /// Correlation time of the synoptic component, hours.
    pub synoptic_corr_hours: f64,
    /// Hourly white-noise standard deviation, gCO₂/kWh.
    pub noise_std: f64,
    /// Fractional reduction of intensity on weekends (lower demand →
    /// cleaner marginal unit).
    pub weekend_drop: f64,
}

impl Validate for RegionProfile {
    fn validate(&self) -> Result<(), ConfigError> {
        const CTX: &str = "RegionProfile";
        ensure_positive(CTX, "mean_g_per_kwh", self.mean_g_per_kwh)?;
        ensure_non_negative(CTX, "diurnal_amplitude", self.diurnal_amplitude)?;
        ensure_non_negative(CTX, "solar_dip", self.solar_dip)?;
        ensure_non_negative(CTX, "synoptic_std", self.synoptic_std)?;
        ensure_non_negative(CTX, "synoptic_corr_hours", self.synoptic_corr_hours)?;
        ensure_non_negative(CTX, "noise_std", self.noise_std)?;
        ensure_fraction(CTX, "weekend_drop", self.weekend_drop)
    }
}

impl RegionProfile {
    /// January-2023-calibrated profile for a region.
    pub fn january_2023(region: Region) -> RegionProfile {
        // (mean, diurnal, solar, synoptic std, corr h, noise, weekend)
        let (mean, diurnal, solar, syn_std, corr, noise, weekend) = match region {
            Region::Germany => (650.0, 0.10, 0.04, 70.0, 60.0, 18.0, 0.06),
            Region::France => (230.0, 0.12, 0.02, 40.0, 60.0, 12.0, 0.05),
            // Anchors: mean = 2.1 × France; daily σ = 47.21.
            Region::Finland => (483.0, 0.08, 0.00, 47.21, 66.0, 15.0, 0.04),
            Region::Poland => (780.0, 0.07, 0.01, 45.0, 72.0, 14.0, 0.04),
            Region::Spain => (320.0, 0.11, 0.10, 55.0, 54.0, 14.0, 0.05),
            Region::Sweden => (140.0, 0.09, 0.00, 25.0, 60.0, 8.0, 0.04),
            Region::Norway => (120.0, 0.07, 0.00, 20.0, 60.0, 7.0, 0.03),
            Region::GreatBritain => (450.0, 0.13, 0.03, 75.0, 48.0, 18.0, 0.06),
            Region::Italy => (520.0, 0.11, 0.05, 60.0, 54.0, 15.0, 0.05),
            Region::Netherlands => (560.0, 0.10, 0.03, 65.0, 54.0, 16.0, 0.05),
        };
        RegionProfile {
            name: region.name().to_string(),
            mean_g_per_kwh: mean,
            diurnal_amplitude: diurnal,
            solar_dip: solar,
            synoptic_std: syn_std,
            synoptic_corr_hours: corr,
            noise_std: noise,
            weekend_drop: weekend,
        }
    }

    /// A flat profile at a constant intensity — models supply contracts
    /// like LRZ's, which the paper notes "operates on a relatively constant
    /// carbon intensity due to agreements with the electricity provider".
    pub fn constant(name: impl Into<String>, ci: CarbonIntensity) -> RegionProfile {
        RegionProfile {
            name: name.into(),
            mean_g_per_kwh: ci.grams_per_kwh(),
            diurnal_amplitude: 0.0,
            solar_dip: 0.0,
            synoptic_std: 0.0,
            synoptic_corr_hours: 1.0,
            noise_std: 0.0,
            weekend_drop: 0.0,
        }
    }

    /// LRZ's hydropower contract: constant 20 gCO₂/kWh.
    pub fn lrz_hydropower() -> RegionProfile {
        RegionProfile::constant(
            "LRZ (hydropower)",
            CarbonIntensity::from_grams_per_kwh(CI_HYDRO_G_PER_KWH),
        )
    }

    /// A coal-supplied site: constant 1025 gCO₂/kWh.
    pub fn coal_supply() -> RegionProfile {
        RegionProfile::constant(
            "Coal supply",
            CarbonIntensity::from_grams_per_kwh(CI_COAL_G_PER_KWH),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Paper anchor: "Finland had 2.1x higher carbon intensity compared to
    /// France" (January 2023 means).
    #[test]
    fn finland_france_ratio() {
        let fi = RegionProfile::january_2023(Region::Finland).mean_g_per_kwh;
        let fr = RegionProfile::january_2023(Region::France).mean_g_per_kwh;
        assert!((fi / fr - 2.1).abs() < 0.01, "ratio = {}", fi / fr);
    }

    /// Paper anchor: "the daily carbon intensity in Finland showed a
    /// standard deviation of 47.21".
    #[test]
    fn finland_synoptic_std_anchor() {
        let fi = RegionProfile::january_2023(Region::Finland);
        assert_eq!(fi.synoptic_std, 47.21);
    }

    /// Paper anchors: hydropower 20 g/kWh (LRZ), coal 1025 g/kWh.
    #[test]
    fn supply_contract_constants() {
        assert_eq!(RegionProfile::lrz_hydropower().mean_g_per_kwh, 20.0);
        assert_eq!(RegionProfile::coal_supply().mean_g_per_kwh, 1025.0);
        assert_eq!(RegionProfile::lrz_hydropower().synoptic_std, 0.0);
    }

    #[test]
    fn all_regions_have_profiles() {
        for r in Region::ALL {
            let p = RegionProfile::january_2023(r);
            assert!(p.mean_g_per_kwh > 0.0, "{}", p.name);
            assert!(p.synoptic_std >= 0.0);
            assert_eq!(p.name, r.name());
        }
    }

    #[test]
    fn nordics_cleaner_than_coal_belt() {
        let no = RegionProfile::january_2023(Region::Norway).mean_g_per_kwh;
        let se = RegionProfile::january_2023(Region::Sweden).mean_g_per_kwh;
        let pl = RegionProfile::january_2023(Region::Poland).mean_g_per_kwh;
        let de = RegionProfile::january_2023(Region::Germany).mean_g_per_kwh;
        assert!(no < 0.3 * de);
        assert!(se < 0.3 * pl);
    }
}
