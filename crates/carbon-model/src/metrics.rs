//! Carbon-efficiency metrics: total footprints, amortization, and the
//! design-objective metrics of §2.1 (CDP, CEP and friends).
//!
//! The paper (citing Gupta et al. \[32\]) notes that the optimal processor
//! design point changes with the objective metric — Carbon-Delay-Product,
//! Carbon-Energy-Product, etc. — and with the carbon intensity of the grid
//! the processor will run on. These metrics are the currency of the DSE
//! module and the Carbon500 ranking.

use serde::{Deserialize, Serialize};
use sustain_sim_core::time::SimDuration;
use sustain_sim_core::units::{Carbon, Energy};

/// A complete carbon footprint: embodied (scope 3) plus operational
/// (scope 2; scope 1 is negligible per the paper §1).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct CarbonFootprint {
    /// Embodied (manufacturing, packaging, transport) carbon.
    pub embodied: Carbon,
    /// Operational (electricity) carbon.
    pub operational: Carbon,
}

impl CarbonFootprint {
    /// Creates a footprint.
    pub fn new(embodied: Carbon, operational: Carbon) -> Self {
        CarbonFootprint {
            embodied,
            operational,
        }
    }

    /// Total carbon.
    pub fn total(&self) -> Carbon {
        self.embodied + self.operational
    }

    /// Fraction of the total that is embodied (0 when total is 0).
    #[cfg(test)]
    pub(crate) fn embodied_share(&self) -> f64 {
        let t = self.total().grams();
        if t == 0.0 {
            0.0
        } else {
            self.embodied.grams() / t
        }
    }
}

/// Straight-line amortization of an embodied footprint over a service life:
/// the share attributable to a window of `used` time.
///
/// # Panics
/// Panics if `lifetime` is zero.
pub(crate) fn amortize(embodied: Carbon, lifetime: SimDuration, used: SimDuration) -> Carbon {
    assert!(!lifetime.is_zero(), "lifetime must be positive");
    embodied * (used / lifetime).min(1.0)
}

/// The design-objective metrics of §2.1. All are "lower is better".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DesignMetric {
    /// Delay only (classic performance).
    Delay,
    /// Energy-Delay Product (classic energy-aware design).
    Edp,
    /// Energy-Delay² (performance-leaning energy metric).
    Ed2p,
    /// Carbon only (total footprint, ignoring speed).
    Carbon,
    /// Carbon-Delay Product.
    Cdp,
    /// Carbon-Energy Product.
    Cep,
    /// Carbon-Delay² (performance-leaning carbon metric).
    Cd2p,
}

impl DesignMetric {
    /// All metrics, for sweeps.
    pub const ALL: [DesignMetric; 7] = [
        DesignMetric::Delay,
        DesignMetric::Edp,
        DesignMetric::Ed2p,
        DesignMetric::Carbon,
        DesignMetric::Cdp,
        DesignMetric::Cep,
        DesignMetric::Cd2p,
    ];

    /// Evaluates the metric for a design that takes `delay` to run the
    /// reference workload, consumes `energy` doing so, and carries
    /// `footprint` (embodied already amortized to the workload window plus
    /// operational carbon of `energy`).
    pub(crate) fn evaluate(
        self,
        delay: SimDuration,
        energy: Energy,
        footprint: &CarbonFootprint,
    ) -> f64 {
        let d = delay.as_secs();
        let e = energy.joules();
        let c = footprint.total().grams();
        match self {
            DesignMetric::Delay => d,
            DesignMetric::Edp => e * d,
            DesignMetric::Ed2p => e * d * d,
            DesignMetric::Carbon => c,
            DesignMetric::Cdp => c * d,
            DesignMetric::Cep => c * e,
            DesignMetric::Cd2p => c * d * d,
        }
    }
}

/// Carbon efficiency for ranking (Carbon500, §2.2): useful work per unit
/// carbon, in Gflop/s-hours per kg CO₂e. Higher is better.
///
/// `sustained_gflops` is the system's sustained performance;
/// `total_carbon_per_hour` the sum of amortized-embodied and operational
/// carbon attributable to one hour of operation.
pub fn carbon_efficiency_gflops_hours_per_kg(
    sustained_gflops: f64,
    total_carbon_per_hour: Carbon,
) -> f64 {
    assert!(sustained_gflops >= 0.0);
    if total_carbon_per_hour.kg() <= 0.0 {
        return f64::INFINITY;
    }
    sustained_gflops / total_carbon_per_hour.kg()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn footprint_shares() {
        let f = CarbonFootprint::new(Carbon::from_kg(30.0), Carbon::from_kg(70.0));
        assert_eq!(f.total().kg(), 100.0);
        assert!((f.embodied_share() - 0.3).abs() < 1e-12);
        assert_eq!(CarbonFootprint::default().embodied_share(), 0.0);
    }

    #[test]
    fn amortize_is_linear_and_capped() {
        let e = Carbon::from_tons(100.0);
        let life = SimDuration::from_years(5.0);
        let one_year = amortize(e, life, SimDuration::from_years(1.0));
        assert!((one_year.tons() - 20.0).abs() < 1e-9);
        // Using longer than the lifetime never attributes more than 100 %.
        let over = amortize(e, life, SimDuration::from_years(7.0));
        assert_eq!(over, e);
    }

    #[test]
    fn metric_evaluation_shapes() {
        let d = SimDuration::from_secs(10.0);
        let e = Energy::from_joules(100.0);
        let f = CarbonFootprint::new(Carbon::from_grams(5.0), Carbon::from_grams(5.0));
        assert_eq!(DesignMetric::Delay.evaluate(d, e, &f), 10.0);
        assert_eq!(DesignMetric::Edp.evaluate(d, e, &f), 1000.0);
        assert_eq!(DesignMetric::Ed2p.evaluate(d, e, &f), 10_000.0);
        assert_eq!(DesignMetric::Carbon.evaluate(d, e, &f), 10.0);
        assert_eq!(DesignMetric::Cdp.evaluate(d, e, &f), 100.0);
        assert_eq!(DesignMetric::Cep.evaluate(d, e, &f), 1000.0);
        assert_eq!(DesignMetric::Cd2p.evaluate(d, e, &f), 1000.0);
    }

    #[test]
    fn carbon_efficiency_ranking_math() {
        let eff = carbon_efficiency_gflops_hours_per_kg(1000.0, Carbon::from_kg(10.0));
        assert_eq!(eff, 100.0);
        assert_eq!(
            carbon_efficiency_gflops_hours_per_kg(1.0, Carbon::ZERO),
            f64::INFINITY
        );
    }

    #[test]
    #[should_panic(expected = "lifetime must be positive")]
    fn zero_lifetime_rejected() {
        amortize(Carbon::ZERO, SimDuration::ZERO, SimDuration::ZERO);
    }
}
