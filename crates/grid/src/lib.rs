//! # sustain-grid
//!
//! Carbon-intensity grid substrate for the `sustain-hpc` workspace — the
//! Fig. 2 regenerator and the data source every carbon-aware policy in §3
//! of the paper consumes.
//!
//! * [`region`] — regional statistical profiles (January-2023-calibrated);
//! * [`synth`] — synthetic hourly trace generation (diurnal + synoptic +
//!   noise + weekend structure);
//! * [`trace`] — the [`trace::CarbonTrace`] container with daily means and
//!   moment calibration;
//! * [`forecast`] — persistence / seasonal-naïve / Holt-Winters
//!   forecasters;
//! * [`green`] — green-period detection for carbon-aware scheduling;
//! * [`marginal`] — merit-order stack model of average vs marginal
//!   intensity.
//!
//! Anchors from the paper reproduced here: Finland's January-2023 mean is
//! 2.1× France's; Finland's daily-mean σ is 47.21 gCO₂/kWh; hydropower
//! supply (LRZ) is 20 gCO₂/kWh vs 1025 gCO₂/kWh for coal.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod forecast;
pub mod green;
pub mod import;
pub mod marginal;
pub mod region;
pub mod seasonal;
pub mod synth;
pub mod trace;

pub use forecast::Forecaster;
pub use green::GreenDetector;
pub use import::parse_carbon_csv;
pub use region::{Region, RegionProfile, CI_COAL_G_PER_KWH, CI_HYDRO_G_PER_KWH};
pub use synth::{generate_calibrated, generate_calibrated_arc, generate_hourly, CacheStats};
pub use trace::CarbonTrace;
