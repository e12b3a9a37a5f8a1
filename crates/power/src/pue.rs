//! Facility overhead: Power Usage Effectiveness.
//!
//! Site-level carbon accounting multiplies IT power by the facility's PUE.
//! PUE is load-dependent — cooling and power-conversion losses amortize
//! badly at low utilization — which matters when carbon-aware scaling
//! throttles the system (§3.1): halving IT power does *not* halve facility
//! power.

use serde::{Deserialize, Serialize};
use sustain_sim_core::units::Power;

/// Load-dependent PUE model: `facility = it + fixed_overhead +
/// variable_coefficient × it`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PueModel {
    /// Constant facility overhead (lights, base cooling, UPS idle).
    pub fixed_overhead: Power,
    /// Overhead proportional to IT load (cooling per watt, conversion
    /// losses).
    pub variable_coefficient: f64,
}

impl PueModel {
    /// A modern efficient HPC site (warm-water cooled, like LRZ):
    /// design PUE ≈ 1.08 at full load for a 4 MW system.
    pub fn efficient_hpc() -> PueModel {
        PueModel {
            fixed_overhead: Power::from_kw(120.0),
            variable_coefficient: 0.05,
        }
    }

    /// A legacy air-cooled datacenter: design PUE ≈ 1.5 at full load for a
    /// 4 MW system.
    pub fn legacy_aircooled() -> PueModel {
        PueModel {
            fixed_overhead: Power::from_kw(600.0),
            variable_coefficient: 0.35,
        }
    }

    /// Facility power at a given IT power.
    pub fn facility_power(&self, it: Power) -> Power {
        it + self.fixed_overhead + it * self.variable_coefficient
    }

    /// Effective PUE at a given IT power.
    ///
    /// # Panics
    /// Panics on zero IT power (PUE is undefined).
    pub fn pue_at(&self, it: Power) -> f64 {
        assert!(it.watts() > 0.0, "PUE undefined at zero IT load");
        self.facility_power(it) / it
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn design_point_pue_values() {
        let eff = PueModel::efficient_hpc();
        let leg = PueModel::legacy_aircooled();
        let four_mw = Power::from_mw(4.0);
        assert!((eff.pue_at(four_mw) - 1.08).abs() < 0.001);
        assert!((leg.pue_at(four_mw) - 1.5).abs() < 0.001);
    }

    #[test]
    fn pue_degrades_at_partial_load() {
        let m = PueModel::efficient_hpc();
        let full = m.pue_at(Power::from_mw(4.0));
        let half = m.pue_at(Power::from_mw(2.0));
        let tenth = m.pue_at(Power::from_mw(0.4));
        assert!(half > full);
        assert!(tenth > half);
    }

    #[test]
    fn facility_power_monotone() {
        let m = PueModel::legacy_aircooled();
        assert!(m.facility_power(Power::from_mw(2.0)) < m.facility_power(Power::from_mw(3.0)));
        // Fixed overhead present even at tiny load.
        assert!(m.facility_power(Power::from_kw(1.0)) > Power::from_kw(600.0));
    }

    #[test]
    #[should_panic(expected = "undefined at zero")]
    fn zero_load_pue_panics() {
        PueModel::efficient_hpc().pue_at(Power::ZERO);
    }
}
