//! # sustain-power
//!
//! Carbon-aware power budgeting (§3.1 of the paper): the site's total
//! power budget follows grid carbon intensity
//! ([`carbon_scaler::ScalingPolicy`]), and a facility PUE model
//! ([`pue::PueModel`]) turns IT power into facility power. The scheduler
//! enforces the scaled budget series (`SimConfig::power_budget`) when it
//! starts, grows and shrinks jobs.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod carbon_scaler;
pub mod pue;

pub use carbon_scaler::ScalingPolicy;
pub use pue::PueModel;
