//! Semiconductor process / fabrication model.
//!
//! Follows the structure of ACT (Gupta et al., ISCA'22 — the paper's ref
//! \[32\]): manufacturing carbon for a die is
//!
//! ```text
//! C_die = area · (CI_fab · EPA + GPA + MPA) / Y(area)
//! ```
//!
//! where `EPA` is fab energy per unit area, `GPA` direct gas emissions per
//! area, `MPA` material footprint per area, `CI_fab` the carbon intensity of
//! the electricity powering the fab, and `Y` the die yield. Yield uses
//! Murphy's model by default, so large dies (GPUs) pay a super-linear carbon
//! premium — the effect the paper points to when it notes GPUs dominate
//! Fig. 1 "attributed to the larger die area of GPUs".

use serde::{Deserialize, Serialize};
use sustain_sim_core::units::{Carbon, CarbonIntensity};

/// Lithography technology node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TechnologyNode {
    /// 28 nm planar.
    N28,
    /// 20 nm planar.
    N20,
    /// 16 nm FinFET.
    N16,
    /// 14 nm FinFET.
    N14,
    /// 12 nm FinFET.
    N12,
    /// 10 nm FinFET.
    N10,
    /// 8 nm FinFET.
    N8,
    /// 7 nm FinFET.
    N7,
    /// 5 nm FinFET / EUV.
    N5,
    /// 3 nm EUV.
    N3,
}

impl TechnologyNode {
    /// All nodes, newest last.
    pub const ALL: [TechnologyNode; 10] = [
        TechnologyNode::N28,
        TechnologyNode::N20,
        TechnologyNode::N16,
        TechnologyNode::N14,
        TechnologyNode::N12,
        TechnologyNode::N10,
        TechnologyNode::N8,
        TechnologyNode::N7,
        TechnologyNode::N5,
        TechnologyNode::N3,
    ];

    /// Feature size in nanometres.
    #[cfg(test)]
    pub(crate) fn nanometres(self) -> f64 {
        match self {
            TechnologyNode::N28 => 28.0,
            TechnologyNode::N20 => 20.0,
            TechnologyNode::N16 => 16.0,
            TechnologyNode::N14 => 14.0,
            TechnologyNode::N12 => 12.0,
            TechnologyNode::N10 => 10.0,
            TechnologyNode::N8 => 8.0,
            TechnologyNode::N7 => 7.0,
            TechnologyNode::N5 => 5.0,
            TechnologyNode::N3 => 3.0,
        }
    }

    /// Relative *chip-level* density vs 28 nm. Deliberately flatter than
    /// marketing logic-density numbers: SRAM and analog have stopped
    /// scaling, so effective density gains at the leading edge are modest.
    /// Used by the DSE model to translate core counts into die area.
    pub(crate) fn density_vs_28nm(self) -> f64 {
        match self {
            TechnologyNode::N28 => 1.0,
            TechnologyNode::N20 => 1.5,
            TechnologyNode::N16 => 1.9,
            TechnologyNode::N14 => 2.2,
            TechnologyNode::N12 => 2.4,
            TechnologyNode::N10 => 3.0,
            TechnologyNode::N8 => 3.4,
            TechnologyNode::N7 => 3.8,
            TechnologyNode::N5 => 4.9,
            TechnologyNode::N3 => 5.7,
        }
    }

    /// Relative switching-energy efficiency vs 28 nm (higher is better).
    /// Post-Dennard scaling: gains flatten sharply at the leading edge,
    /// which is what makes the §2.1 embodied-vs-operational trade-off real.
    pub(crate) fn energy_efficiency_vs_28nm(self) -> f64 {
        match self {
            TechnologyNode::N28 => 1.0,
            TechnologyNode::N20 => 1.25,
            TechnologyNode::N16 => 1.5,
            TechnologyNode::N14 => 1.65,
            TechnologyNode::N12 => 1.8,
            TechnologyNode::N10 => 2.1,
            TechnologyNode::N8 => 2.3,
            TechnologyNode::N7 => 2.45,
            TechnologyNode::N5 => 2.75,
            TechnologyNode::N3 => 2.8,
        }
    }

    /// Default defect density (defects/cm²) for the node: mature nodes run
    /// low; leading-edge nodes are still on the yield ramp, which is a real
    /// carbon cost (more wafer starts per good die).
    pub(crate) fn default_defect_density(self) -> f64 {
        match self {
            TechnologyNode::N28 => 0.03,
            TechnologyNode::N20 => 0.035,
            TechnologyNode::N16 => 0.04,
            TechnologyNode::N14 => 0.045,
            TechnologyNode::N12 => 0.05,
            TechnologyNode::N10 => 0.06,
            TechnologyNode::N8 => 0.07,
            TechnologyNode::N7 => 0.08,
            TechnologyNode::N5 => 0.12,
            TechnologyNode::N3 => 0.30,
        }
    }
}

/// Die yield model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum YieldModel {
    /// Murphy's model: `Y = ((1 - e^{-A·D}) / (A·D))²`.
    Murphy,
    /// Poisson model: `Y = e^{-A·D}`.
    Poisson,
    /// Perfect yield (useful for isolating area effects in tests).
    Perfect,
}

impl YieldModel {
    /// Yield for a die of `area_cm2` with defect density `d0` (defects/cm²).
    pub fn yield_for(self, area_cm2: f64, d0: f64) -> f64 {
        assert!(area_cm2 > 0.0 && d0 >= 0.0, "invalid yield inputs");
        let ad = area_cm2 * d0;
        match self {
            YieldModel::Perfect => 1.0,
            YieldModel::Poisson => (-ad).exp(),
            YieldModel::Murphy => {
                if ad < 1e-12 {
                    1.0
                } else {
                    let f = (1.0 - (-ad).exp()) / ad;
                    f * f
                }
            }
        }
    }
}

/// Per-node fabrication parameters.
///
/// Values follow the shape of ACT's published per-node data: fab energy per
/// area grows steeply toward leading-edge nodes (EUV), while direct gas and
/// material footprints grow more slowly. Absolute levels are calibrated so
/// that effective (yielded) carbon per cm² at the default fab grid intensity
/// lands at ≈1.0 kg CO₂/cm² for 14 nm and ≈1.4 kg CO₂/cm² for 7 nm — the
/// values that reproduce the Fig. 1 component shares of the paper.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FabProfile {
    /// Technology node.
    pub node: TechnologyNode,
    /// Fab energy per wafer area, kWh/cm².
    pub energy_per_cm2_kwh: f64,
    /// Direct (scope-1) gas emissions per area, kg CO₂e/cm².
    pub gas_per_cm2_kg: f64,
    /// Upstream material footprint per area, kg CO₂e/cm².
    pub materials_per_cm2_kg: f64,
    /// Carbon intensity of the fab's electricity supply.
    pub fab_ci: CarbonIntensity,
    /// Defect density, defects/cm².
    pub defect_density: f64,
    /// Yield model.
    pub yield_model: YieldModel,
}

/// Default fab grid carbon intensity (Taiwan-like mix), gCO₂e/kWh.
pub(crate) const DEFAULT_FAB_CI_G_PER_KWH: f64 = 560.0;

impl FabProfile {
    /// Default profile for a node: ACT-shaped parameters, Taiwan-like fab
    /// grid, mature defect density, Murphy yield.
    pub fn for_node(node: TechnologyNode) -> FabProfile {
        // (energy kWh/cm², gas kg/cm², materials kg/cm²) per node. Chosen so
        // that CI_fab·EPA + GPA + MPA == the calibrated pre-yield carbon per
        // cm² (see module docs), with the energy share growing from ~55 % at
        // 28 nm to ~75 % at 3 nm as in ACT.
        let (epa, gpa, mpa) = match node {
            TechnologyNode::N28 => (0.50, 0.13, 0.14),
            TechnologyNode::N20 => (0.64, 0.14, 0.15),
            TechnologyNode::N16 => (0.84, 0.15, 0.16),
            TechnologyNode::N14 => (1.20, 0.16, 0.17),
            TechnologyNode::N12 => (1.31, 0.17, 0.18),
            TechnologyNode::N10 => (1.50, 0.18, 0.19),
            TechnologyNode::N8 => (1.66, 0.19, 0.20),
            TechnologyNode::N7 => (1.77, 0.20, 0.21),
            TechnologyNode::N5 => (3.27, 0.23, 0.24),
            TechnologyNode::N3 => (4.59, 0.26, 0.27),
        };
        FabProfile {
            node,
            energy_per_cm2_kwh: epa,
            gas_per_cm2_kg: gpa,
            materials_per_cm2_kg: mpa,
            fab_ci: CarbonIntensity::from_grams_per_kwh(DEFAULT_FAB_CI_G_PER_KWH),
            defect_density: node.default_defect_density(),
            yield_model: YieldModel::Murphy,
        }
    }

    /// Pre-yield manufacturing carbon per cm², kg CO₂e.
    pub(crate) fn carbon_per_cm2_kg(&self) -> f64 {
        self.fab_ci.grams_per_kwh() / 1000.0 * self.energy_per_cm2_kwh
            + self.gas_per_cm2_kg
            + self.materials_per_cm2_kg
    }

    /// Die yield for the given area under this profile.
    pub(crate) fn die_yield(&self, area_cm2: f64) -> f64 {
        self.yield_model.yield_for(area_cm2, self.defect_density)
    }

    /// Total manufacturing carbon for one *good* die of `area_cm2`.
    pub fn die_carbon(&self, area_cm2: f64) -> Carbon {
        assert!(area_cm2 > 0.0, "die area must be positive");
        let per_cm2 = self.carbon_per_cm2_kg();
        let y = self.die_yield(area_cm2);
        Carbon::from_kg(area_cm2 * per_cm2 / y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn yield_models_agree_on_limits() {
        for m in [YieldModel::Murphy, YieldModel::Poisson] {
            // Tiny defect density: yield approaches 1.
            assert!((m.yield_for(1.0, 1e-9) - 1.0).abs() < 1e-6);
        }
        assert_eq!(YieldModel::Perfect.yield_for(100.0, 10.0), 1.0);
    }

    #[test]
    fn murphy_beats_poisson_for_large_dies() {
        // Murphy is known to be less pessimistic than Poisson.
        let a = 8.0;
        let d = 0.1;
        let murphy = YieldModel::Murphy.yield_for(a, d);
        let poisson = YieldModel::Poisson.yield_for(a, d);
        assert!(murphy > poisson, "murphy={murphy} poisson={poisson}");
        assert!(murphy < 1.0);
    }

    #[test]
    fn murphy_known_value() {
        // AD = 0.413 (A100-like): Y = ((1-e^-0.413)/0.413)^2 ≈ 0.671.
        let y = YieldModel::Murphy.yield_for(8.26, 0.05);
        assert!((y - 0.671).abs() < 0.005, "y={y}");
    }

    #[test]
    fn newer_nodes_cost_more_carbon_per_area() {
        let mut last = 0.0;
        for node in TechnologyNode::ALL {
            let c = FabProfile::for_node(node).carbon_per_cm2_kg();
            assert!(c > last, "{node:?} not more carbon-intensive than prior");
            last = c;
        }
    }

    #[test]
    fn calibrated_cpa_values() {
        // The Fig. 1 calibration depends on these two pre-yield levels.
        let c14 = FabProfile::for_node(TechnologyNode::N14).carbon_per_cm2_kg();
        let c7 = FabProfile::for_node(TechnologyNode::N7).carbon_per_cm2_kg();
        assert!((c14 - 1.002).abs() < 0.01, "14nm cpa={c14}");
        assert!((c7 - 1.401).abs() < 0.01, "7nm cpa={c7}");
    }

    #[test]
    fn greener_fab_reduces_die_carbon() {
        let dirty = FabProfile::for_node(TechnologyNode::N7);
        let clean = FabProfile {
            fab_ci: CarbonIntensity::from_grams_per_kwh(20.0),
            ..FabProfile::for_node(TechnologyNode::N7)
        };
        let a = 4.0;
        assert!(clean.die_carbon(a) < dirty.die_carbon(a));
        // Gas + materials are not eliminated by clean electricity.
        assert!(clean.die_carbon(a).kg() > a * (0.20 + 0.21) * 0.9);
    }

    #[test]
    fn big_die_pays_yield_premium() {
        let fab = FabProfile::for_node(TechnologyNode::N7);
        let one_big = fab.die_carbon(8.0).kg();
        let eight_small = 8.0 * fab.die_carbon(1.0).kg();
        assert!(
            one_big > eight_small * 1.1,
            "big={one_big} 8x small={eight_small}"
        );
    }

    #[test]
    fn density_and_efficiency_monotone() {
        let mut d_last = 0.0;
        let mut e_last = 0.0;
        for node in TechnologyNode::ALL {
            assert!(node.density_vs_28nm() > d_last);
            assert!(node.energy_efficiency_vs_28nm() > e_last);
            d_last = node.density_vs_28nm();
            e_last = node.energy_efficiency_vs_28nm();
        }
    }

    #[test]
    #[should_panic(expected = "die area must be positive")]
    fn zero_area_rejected() {
        FabProfile::for_node(TechnologyNode::N7).die_carbon(0.0);
    }
}
