//! Average vs marginal carbon intensity (the distinction behind Fig. 2,
//! which plots *marginal* intensities — ref \[2\] of the paper).
//!
//! A grid's **average** intensity is the emission-weighted mean of all
//! running generation; its **marginal** intensity is the intensity of the
//! generator that responds to the next unit of demand. A merit-order stack
//! model computes both as a function of demand: renewables and nuclear are
//! dispatched first (near-zero marginal), then hydro, gas, and coal — so
//! the marginal unit is usually fossil and the marginal intensity usually
//! exceeds the average.

use serde::{Deserialize, Serialize};
use sustain_sim_core::units::CarbonIntensity;

/// One rung of the merit-order ladder.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GenerationSource {
    /// Source name.
    pub name: String,
    /// Deployable capacity in MW.
    pub capacity_mw: f64,
    /// Emission intensity, gCO₂/kWh.
    pub intensity_g_per_kwh: f64,
}

/// A merit-order dispatch stack: sources are dispatched in the order given
/// (assumed sorted by marginal cost, which typically tracks intensity).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MeritOrderStack {
    /// Dispatch-ordered sources.
    pub sources: Vec<GenerationSource>,
}

impl MeritOrderStack {
    /// A stylized European winter stack: wind + solar + nuclear + hydro,
    /// then gas, then coal/lignite.
    pub fn european_winter() -> MeritOrderStack {
        let src = |name: &str, cap: f64, ci: f64| GenerationSource {
            name: name.into(),
            capacity_mw: cap,
            intensity_g_per_kwh: ci,
        };
        MeritOrderStack {
            sources: vec![
                src("wind", 18_000.0, 11.0),
                src("solar", 4_000.0, 41.0),
                src("nuclear", 12_000.0, 12.0),
                src("hydro", 6_000.0, 24.0),
                src("gas CCGT", 20_000.0, 490.0),
                src("hard coal", 12_000.0, 820.0),
                src("lignite", 8_000.0, 1025.0),
            ],
        }
    }

    /// Total stack capacity, MW.
    pub(crate) fn total_capacity_mw(&self) -> f64 {
        self.sources.iter().map(|s| s.capacity_mw).sum()
    }

    /// Average intensity at a demand level: emissions-weighted mean of the
    /// dispatched portion of the stack.
    ///
    /// # Panics
    /// Panics if demand is non-positive or exceeds total capacity.
    pub fn average_intensity(&self, demand_mw: f64) -> CarbonIntensity {
        self.check_demand(demand_mw);
        let mut remaining = demand_mw;
        let mut emissions = 0.0; // g/h numerator in MW·(g/kWh)
        for s in &self.sources {
            let dispatched = remaining.min(s.capacity_mw);
            emissions += dispatched * s.intensity_g_per_kwh;
            remaining -= dispatched;
            if remaining <= 0.0 {
                break;
            }
        }
        CarbonIntensity::from_grams_per_kwh(emissions / demand_mw)
    }

    /// Marginal intensity at a demand level: the intensity of the source
    /// serving the last MW.
    pub fn marginal_intensity(&self, demand_mw: f64) -> CarbonIntensity {
        self.check_demand(demand_mw);
        let mut cumulative = 0.0;
        for s in &self.sources {
            cumulative += s.capacity_mw;
            if demand_mw <= cumulative {
                return CarbonIntensity::from_grams_per_kwh(s.intensity_g_per_kwh);
            }
        }
        unreachable!("demand validated against capacity");
    }

    fn check_demand(&self, demand_mw: f64) {
        assert!(demand_mw > 0.0, "demand must be positive");
        assert!(
            demand_mw <= self.total_capacity_mw(),
            "demand {demand_mw} MW exceeds stack capacity {}",
            self.total_capacity_mw()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn low_demand_served_by_renewables() {
        let stack = MeritOrderStack::european_winter();
        let avg = stack.average_intensity(10_000.0);
        let marg = stack.marginal_intensity(10_000.0);
        assert!(avg.grams_per_kwh() < 20.0);
        assert_eq!(marg.grams_per_kwh(), 11.0); // still inside wind
    }

    /// The key insight of the average-vs-marginal reference: once fossil
    /// units are at the margin, marginal intensity far exceeds average.
    #[test]
    fn marginal_exceeds_average_at_high_demand() {
        let stack = MeritOrderStack::european_winter();
        for demand in [45_000.0, 55_000.0, 65_000.0, 75_000.0] {
            let avg = stack.average_intensity(demand).grams_per_kwh();
            let marg = stack.marginal_intensity(demand).grams_per_kwh();
            assert!(
                marg > 1.5 * avg,
                "demand {demand}: marginal {marg} vs average {avg}"
            );
        }
    }

    #[test]
    fn marginal_steps_through_merit_order() {
        let stack = MeritOrderStack::european_winter();
        // Cumulative: 18, 22, 34, 40, 60, 72, 80 GW.
        assert_eq!(stack.marginal_intensity(20_000.0).grams_per_kwh(), 41.0);
        assert_eq!(stack.marginal_intensity(35_000.0).grams_per_kwh(), 24.0);
        assert_eq!(stack.marginal_intensity(50_000.0).grams_per_kwh(), 490.0);
        assert_eq!(stack.marginal_intensity(70_000.0).grams_per_kwh(), 820.0);
        assert_eq!(stack.marginal_intensity(79_000.0).grams_per_kwh(), 1025.0);
    }

    #[test]
    fn average_is_monotone_in_demand_beyond_renewables() {
        let stack = MeritOrderStack::european_winter();
        let mut last = 0.0;
        for demand in [40_000.0, 50_000.0, 60_000.0, 70_000.0, 80_000.0] {
            let avg = stack.average_intensity(demand).grams_per_kwh();
            assert!(avg > last, "demand {demand}");
            last = avg;
        }
    }

    #[test]
    fn full_capacity_is_dispatchable() {
        let stack = MeritOrderStack::european_winter();
        let total = stack.total_capacity_mw();
        assert_eq!(total, 80_000.0);
        assert_eq!(stack.marginal_intensity(total).grams_per_kwh(), 1025.0);
    }

    #[test]
    #[should_panic(expected = "exceeds stack capacity")]
    fn overdemand_rejected() {
        MeritOrderStack::european_winter().average_intensity(100_000.0);
    }

    #[test]
    #[should_panic(expected = "demand must be positive")]
    fn zero_demand_rejected() {
        MeritOrderStack::european_winter().marginal_intensity(0.0);
    }
}
