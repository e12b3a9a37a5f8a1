//! Component-level part descriptions and a catalog of real HPC parts.
//!
//! A [`Part`] is a packaged processor (possibly multi-die), a memory module,
//! or a storage device. Its embodied carbon combines the die-level fab model
//! ([`crate::process`]), the per-GB memory/storage factors
//! ([`crate::memory`]), and a per-part packaging/assembly constant. The
//! packaging constants for the catalog parts are calibrated so that the
//! part-level totals match the Li et al. (2023) estimates the paper's Fig. 1
//! is built on (e.g. ≈33.7 kg CO₂e for an A100 including its HBM stacks).

use crate::memory::{MemoryTech, StorageTech};
use crate::process::{FabProfile, TechnologyNode};
use serde::{Deserialize, Serialize};
use sustain_sim_core::units::Carbon;

/// A single silicon die within a package.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Die {
    /// Descriptive name ("CCD", "IO die", …).
    pub name: String,
    /// Die area in cm².
    pub area_cm2: f64,
    /// Technology node the die is fabricated on.
    pub node: TechnologyNode,
    /// How many copies of this die the package contains.
    pub count: u32,
}

impl Die {
    /// Creates a die description.
    pub fn new(name: impl Into<String>, area_cm2: f64, node: TechnologyNode, count: u32) -> Die {
        assert!(area_cm2 > 0.0 && count > 0, "invalid die spec");
        Die {
            name: name.into(),
            area_cm2,
            node,
            count,
        }
    }

    /// Manufacturing carbon of all copies of this die under default fab
    /// profiles for its node.
    pub fn embodied(&self) -> Carbon {
        FabProfile::for_node(self.node).die_carbon(self.area_cm2) * self.count as f64
    }
}

/// The functional category a part belongs to; Fig. 1 groups embodied carbon
/// by these categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ComponentClass {
    /// General-purpose processors.
    Cpu,
    /// Accelerators.
    Gpu,
    /// Main memory.
    Dram,
    /// Persistent storage.
    Storage,
    /// Network interconnect (modelled but omitted from Fig. 1, as the paper
    /// does, for lack of production carbon reports).
    Interconnect,
}

/// A packaged hardware part.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Part {
    /// A packaged processor: one or more logic dies plus optional on-package
    /// stacked memory, plus packaging/assembly overhead.
    Processor {
        /// Market name.
        name: String,
        /// Component class (Cpu or Gpu).
        class: ComponentClass,
        /// Logic dies in the package.
        dies: Vec<Die>,
        /// On-package memory capacity in GB (e.g. HBM), 0 if none.
        on_package_memory_gb: f64,
        /// On-package memory technology.
        on_package_memory: MemoryTech,
        /// Packaging, substrate, and assembly carbon, kg CO₂e. Calibrated
        /// per part against Li et al. part-level totals.
        packaging_kg: f64,
        /// Nominal TDP in watts (used by power models and DSE).
        tdp_w: f64,
        /// Nominal peak performance in Gflop/s (used by efficiency metrics).
        peak_gflops: f64,
    },
    /// A DRAM module of a given capacity.
    MemoryModule {
        /// Descriptive name.
        name: String,
        /// Capacity in GB.
        capacity_gb: f64,
        /// Memory technology.
        tech: MemoryTech,
    },
    /// A storage device of a given capacity.
    StorageDevice {
        /// Descriptive name.
        name: String,
        /// Capacity in GB.
        capacity_gb: f64,
        /// Storage technology.
        tech: StorageTech,
    },
    /// A network component with a directly specified embodied footprint
    /// (no public fab data exists; the paper omits these from Fig. 1).
    Network {
        /// Descriptive name.
        name: String,
        /// Assumed embodied carbon, kg CO₂e.
        embodied_kg: f64,
    },
}

impl Part {
    /// The part's component class.
    pub fn class(&self) -> ComponentClass {
        match self {
            Part::Processor { class, .. } => *class,
            Part::MemoryModule { .. } => ComponentClass::Dram,
            Part::StorageDevice { .. } => ComponentClass::Storage,
            Part::Network { .. } => ComponentClass::Interconnect,
        }
    }

    /// The part's name.
    #[cfg(test)]
    pub(crate) fn name(&self) -> &str {
        match self {
            Part::Processor { name, .. }
            | Part::MemoryModule { name, .. }
            | Part::StorageDevice { name, .. }
            | Part::Network { name, .. } => name,
        }
    }

    /// Total embodied carbon of one unit of this part.
    pub fn embodied(&self) -> Carbon {
        match self {
            Part::Processor {
                dies,
                on_package_memory_gb,
                on_package_memory,
                packaging_kg,
                ..
            } => {
                let silicon: Carbon = dies.iter().map(Die::embodied).sum();
                silicon
                    + on_package_memory.embodied(*on_package_memory_gb)
                    + Carbon::from_kg(*packaging_kg)
            }
            Part::MemoryModule {
                capacity_gb, tech, ..
            } => tech.embodied(*capacity_gb),
            Part::StorageDevice {
                capacity_gb, tech, ..
            } => tech.embodied(*capacity_gb),
            Part::Network { embodied_kg, .. } => Carbon::from_kg(*embodied_kg),
        }
    }
}

/// Catalog of the real parts appearing in the paper's systems, with
/// packaging constants calibrated to Li et al. part-level totals.
pub mod catalog {
    use super::*;

    /// NVIDIA A100-40GB: 826 mm² GA100 die on 7 nm plus 40 GB HBM2.
    /// Calibrated total ≈ 33.7 kg CO₂e.
    pub(crate) fn nvidia_a100_40gb() -> Part {
        Part::Processor {
            name: "NVIDIA A100 40GB".into(),
            class: ComponentClass::Gpu,
            dies: vec![Die::new("GA100", 8.26, TechnologyNode::N7, 1)],
            on_package_memory_gb: 40.0,
            on_package_memory: MemoryTech::Hbm2,
            packaging_kg: 2.11,
            tdp_w: 400.0,
            peak_gflops: 9_700.0, // FP64 9.7 Tflop/s
        }
    }

    /// AMD EPYC 7402 (Rome, 24 cores): 4 CCDs on 7 nm + IO die on 14 nm.
    /// Calibrated total ≈ 12.0 kg CO₂e.
    pub(crate) fn amd_epyc_7402() -> Part {
        Part::Processor {
            name: "AMD EPYC 7402".into(),
            class: ComponentClass::Cpu,
            dies: vec![
                Die::new("CCD", 0.74, TechnologyNode::N7, 4),
                Die::new("IOD", 4.16, TechnologyNode::N14, 1),
            ],
            on_package_memory_gb: 0.0,
            on_package_memory: MemoryTech::Ddr4,
            packaging_kg: 2.603,
            tdp_w: 180.0,
            peak_gflops: 1_843.0, // 24c × 2.8 GHz × 16 DP flops + boost margin
        }
    }

    /// AMD EPYC 7742 (Rome, 64 cores): 8 CCDs on 7 nm + IO die on 14 nm.
    /// Calibrated total ≈ 18.0 kg CO₂e.
    pub(crate) fn amd_epyc_7742() -> Part {
        Part::Processor {
            name: "AMD EPYC 7742".into(),
            class: ComponentClass::Cpu,
            dies: vec![
                Die::new("CCD", 0.74, TechnologyNode::N7, 8),
                Die::new("IOD", 4.16, TechnologyNode::N14, 1),
            ],
            on_package_memory_gb: 0.0,
            on_package_memory: MemoryTech::Ddr4,
            packaging_kg: 4.225,
            tdp_w: 225.0,
            peak_gflops: 2_300.0,
        }
    }

    /// Intel Xeon Platinum 8174 (Skylake, 24 cores): monolithic XCC die on
    /// 14 nm. Calibrated total ≈ 10.0 kg CO₂e.
    pub(crate) fn intel_xeon_8174() -> Part {
        Part::Processor {
            name: "Intel Xeon Platinum 8174".into(),
            class: ComponentClass::Cpu,
            dies: vec![Die::new("XCC", 6.94, TechnologyNode::N14, 1)],
            on_package_memory_gb: 0.0,
            on_package_memory: MemoryTech::Ddr4,
            packaging_kg: 0.574,
            tdp_w: 240.0,
            peak_gflops: 2_380.0, // 24c AVX-512
        }
    }

    /// A Ponte-Vecchio-like many-chiplet GPU: 63 chiplets over several
    /// nodes with 128 GB HBM2E (used by the chiplet-optimization
    /// experiment, E13).
    pub fn ponte_vecchio_like() -> Part {
        Part::Processor {
            name: "Ponte Vecchio (modelled)".into(),
            class: ComponentClass::Gpu,
            dies: vec![
                Die::new("compute tile", 0.41, TechnologyNode::N5, 16),
                Die::new("base tile", 6.40, TechnologyNode::N10, 2),
                Die::new("Rambo cache", 0.16, TechnologyNode::N7, 8),
                Die::new("Xe link tile", 0.77, TechnologyNode::N7, 2),
                Die::new("HBM/EMIB aux", 0.25, TechnologyNode::N14, 35),
            ],
            on_package_memory_gb: 128.0,
            on_package_memory: MemoryTech::Hbm2e,
            packaging_kg: 6.0,
            tdp_w: 600.0,
            peak_gflops: 52_000.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::catalog::*;
    use super::*;

    #[test]
    fn a100_total_matches_calibration() {
        let c = nvidia_a100_40gb().embodied();
        assert!((c.kg() - 33.72).abs() < 0.15, "A100 = {} kg", c.kg());
    }

    #[test]
    fn epyc_7402_total_matches_calibration() {
        let c = amd_epyc_7402().embodied();
        assert!((c.kg() - 12.01).abs() < 0.1, "7402 = {} kg", c.kg());
    }

    #[test]
    fn epyc_7742_total_matches_calibration() {
        let c = amd_epyc_7742().embodied();
        assert!((c.kg() - 18.03).abs() < 0.1, "7742 = {} kg", c.kg());
    }

    #[test]
    fn xeon_8174_total_matches_calibration() {
        let c = intel_xeon_8174().embodied();
        assert!((c.kg() - 10.0).abs() < 0.1, "8174 = {} kg", c.kg());
    }

    #[test]
    fn gpu_embodied_significantly_higher_than_cpus() {
        // The paper: "GPUs have a significantly higher carbon embodied
        // footprint than the others ... attributed to the larger die area".
        let gpu = nvidia_a100_40gb().embodied().kg();
        for cpu in [amd_epyc_7402(), amd_epyc_7742(), intel_xeon_8174()] {
            assert!(gpu > 1.8 * cpu.embodied().kg(), "{}", cpu.name());
        }
    }

    #[test]
    fn classes_are_correct() {
        assert_eq!(nvidia_a100_40gb().class(), ComponentClass::Gpu);
        assert_eq!(amd_epyc_7742().class(), ComponentClass::Cpu);
    }

    #[test]
    fn more_chiplets_more_silicon_carbon() {
        let rome24 = amd_epyc_7402().embodied().kg();
        let rome64 = amd_epyc_7742().embodied().kg();
        assert!(rome64 > rome24);
    }

    #[test]
    fn ponte_vecchio_has_63_chiplets() {
        if let Part::Processor { dies, .. } = ponte_vecchio_like() {
            let total: u32 = dies.iter().map(|d| d.count).sum();
            assert_eq!(total, 63);
        } else {
            panic!("expected processor");
        }
    }
}
