//! System-level embodied-carbon inventories — the Fig. 1 regenerator.
//!
//! A [`SystemInventory`] lists the parts deployed in a whole HPC system;
//! [`SystemInventory::breakdown`] aggregates embodied carbon by
//! [`ComponentClass`], which is exactly what the paper's Fig. 1 plots for
//! Juwels Booster, SuperMUC-NG and Hawk. The three presets use the
//! inventories stated in §2 of the paper.

use crate::components::{catalog, ComponentClass, Part};
use crate::memory::{MemoryTech, StorageTech};
use serde::{Deserialize, Serialize};
use sustain_sim_core::units::{Carbon, Power};

/// A count of identical parts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PartCount {
    /// The part.
    pub part: Part,
    /// How many units the system contains.
    pub count: u64,
}

/// A whole-system hardware inventory.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemInventory {
    /// System name.
    pub name: String,
    /// Discrete parts (processors, NICs, …).
    pub parts: Vec<PartCount>,
    /// Bulk main-memory capacity in GB and its technology.
    pub dram_gb: f64,
    /// DRAM technology for the bulk capacity.
    pub dram_tech: MemoryTech,
    /// Bulk storage capacity in GB and its technology.
    pub storage_gb: f64,
    /// Storage technology for the bulk capacity.
    pub storage_tech: StorageTech,
    /// Nominal system power draw (site-level, for operational modelling).
    pub nominal_power: Power,
    /// Node-platform embodied carbon (mainboards, chassis, PSUs, racks,
    /// cabling, cooling loops and the interconnect fabric). Reported
    /// separately because Fig. 1 of the paper excludes it, but it belongs
    /// in total-footprint analyses (e.g. the LRZ embodied-dominance claim).
    pub platform_embodied: Carbon,
}

/// Embodied carbon aggregated by component class.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct EmbodiedBreakdown {
    /// CPUs.
    pub cpu: Carbon,
    /// GPUs/accelerators.
    pub gpu: Carbon,
    /// Main memory.
    pub dram: Carbon,
    /// Storage.
    pub storage: Carbon,
    /// Interconnect (reported separately; excluded from totals/fractions to
    /// match the paper's Fig. 1 methodology).
    pub interconnect: Carbon,
}

impl EmbodiedBreakdown {
    /// Total embodied carbon across the Fig. 1 categories (interconnect
    /// excluded, as in the paper).
    pub fn total(&self) -> Carbon {
        self.cpu + self.gpu + self.dram + self.storage
    }

    /// Fraction of the total contributed by a class (interconnect → 0).
    pub fn fraction(&self, class: ComponentClass) -> f64 {
        let total = self.total().grams();
        if total == 0.0 {
            return 0.0;
        }
        let part = match class {
            ComponentClass::Cpu => self.cpu,
            ComponentClass::Gpu => self.gpu,
            ComponentClass::Dram => self.dram,
            ComponentClass::Storage => self.storage,
            ComponentClass::Interconnect => return 0.0,
        };
        part.grams() / total
    }

    /// Combined memory + storage share — the quantity the paper reports as
    /// 43.5 % / 59.6 % / 55.5 % for its three systems.
    pub fn memory_storage_share(&self) -> f64 {
        self.fraction(ComponentClass::Dram) + self.fraction(ComponentClass::Storage)
    }
}

impl SystemInventory {
    /// Aggregates embodied carbon by component class.
    ///
    /// ```
    /// use sustain_carbon_model::system::SystemInventory;
    ///
    /// // Fig. 1 of the paper: SuperMUC-NG's memory+storage share.
    /// let b = SystemInventory::supermuc_ng().breakdown();
    /// assert!((b.memory_storage_share() - 0.596).abs() < 0.015);
    /// ```
    pub fn breakdown(&self) -> EmbodiedBreakdown {
        let mut b = EmbodiedBreakdown::default();
        for pc in &self.parts {
            let total = pc.part.embodied() * pc.count as f64;
            match pc.part.class() {
                ComponentClass::Cpu => b.cpu += total,
                ComponentClass::Gpu => b.gpu += total,
                ComponentClass::Dram => b.dram += total,
                ComponentClass::Storage => b.storage += total,
                ComponentClass::Interconnect => b.interconnect += total,
            }
        }
        b.dram += self.dram_tech.embodied(self.dram_gb);
        b.storage += self.storage_tech.embodied(self.storage_gb);
        b
    }

    /// Total embodied carbon including interconnect and node-platform
    /// overheads — the figure that enters whole-site footprint analyses.
    pub fn total_embodied_with_platform(&self) -> Carbon {
        self.breakdown().total() + self.breakdown().interconnect + self.platform_embodied
    }

    /// Juwels Booster (FZJ): 3744 × A100, 1872 × EPYC 7402, 0.47 PB DRAM,
    /// 37.6 PB storage. ≈2.5 MW nominal.
    pub fn juwels_booster() -> SystemInventory {
        SystemInventory {
            name: "Juwels Booster".into(),
            parts: vec![
                PartCount {
                    part: catalog::nvidia_a100_40gb(),
                    count: 3744,
                },
                PartCount {
                    part: catalog::amd_epyc_7402(),
                    count: 1872,
                },
            ],
            dram_gb: 0.47e6,
            dram_tech: MemoryTech::Ddr4,
            storage_gb: 37.6e6,
            storage_tech: StorageTech::NearlineHdd,
            nominal_power: Power::from_mw(2.5),
            // 936 GPU nodes x ~800 kg platform carbon.
            platform_embodied: Carbon::from_tons(748.8),
        }
    }

    /// SuperMUC-NG (LRZ): 12960 × Intel Skylake, 0.72 PB DRAM, 70.26 PB
    /// storage. ≈4 MW nominal.
    pub fn supermuc_ng() -> SystemInventory {
        SystemInventory {
            name: "SuperMUC-NG".into(),
            parts: vec![PartCount {
                part: catalog::intel_xeon_8174(),
                count: 12_960,
            }],
            dram_gb: 0.72e6,
            dram_tech: MemoryTech::Ddr4,
            storage_gb: 70.26e6,
            storage_tech: StorageTech::NearlineHdd,
            nominal_power: Power::from_mw(3.0),
            // 6480 CPU nodes x ~450 kg platform carbon.
            platform_embodied: Carbon::from_tons(2916.0),
        }
    }

    /// Hawk (HLRS): 11264 × AMD Rome EPYC 7742, 1.4 PB DRAM, 42 PB storage.
    /// ≈3.5 MW nominal.
    pub fn hawk() -> SystemInventory {
        SystemInventory {
            name: "Hawk".into(),
            parts: vec![PartCount {
                part: catalog::amd_epyc_7742(),
                count: 11_264,
            }],
            dram_gb: 1.4e6,
            dram_tech: MemoryTech::Ddr4,
            storage_gb: 42.0e6,
            storage_tech: StorageTech::NearlineHdd,
            nominal_power: Power::from_mw(3.5),
            // 5632 CPU nodes x ~450 kg platform carbon.
            platform_embodied: Carbon::from_tons(2534.4),
        }
    }

    /// A Frontier-like exascale system: the paper cites its 20 MW continuous
    /// draw. Inventory is approximate (9408 nodes × 1 CPU + 4 GPUs).
    pub fn frontier_like() -> SystemInventory {
        SystemInventory {
            name: "Frontier (modelled)".into(),
            parts: vec![
                PartCount {
                    part: catalog::amd_epyc_7742(),
                    count: 9_408,
                },
                PartCount {
                    part: catalog::nvidia_a100_40gb(), // stand-in accelerator
                    count: 4 * 9_408,
                },
            ],
            dram_gb: 4.8e6,
            dram_tech: MemoryTech::Ddr4,
            storage_gb: 700e6,
            storage_tech: StorageTech::NearlineHdd,
            nominal_power: Power::from_mw(20.0),
            // 9408 dense accelerator nodes x ~900 kg.
            platform_embodied: Carbon::from_tons(8467.2),
        }
    }

    /// An Aurora-like system: the paper cites an estimated 60 MW draw.
    pub fn aurora_like() -> SystemInventory {
        SystemInventory {
            name: "Aurora (modelled)".into(),
            parts: vec![
                PartCount {
                    part: catalog::intel_xeon_8174(), // stand-in CPU
                    count: 2 * 10_624,
                },
                PartCount {
                    part: catalog::ponte_vecchio_like(),
                    count: 6 * 10_624,
                },
            ],
            dram_gb: 10.9e6,
            dram_tech: MemoryTech::Ddr5,
            storage_gb: 230e6,
            storage_tech: StorageTech::NearlineHdd,
            nominal_power: Power::from_mw(60.0),
            // 10624 dense accelerator nodes x ~900 kg.
            platform_embodied: Carbon::from_tons(9561.6),
        }
    }

    /// The three German Top-3 systems of Fig. 1, in the paper's order.
    pub fn german_top3() -> Vec<SystemInventory> {
        vec![
            SystemInventory::juwels_booster(),
            SystemInventory::supermuc_ng(),
            SystemInventory::hawk(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Paper anchor: memory+storage share 43.5 % for Juwels Booster.
    #[test]
    fn fig1_juwels_booster_share() {
        let share = SystemInventory::juwels_booster()
            .breakdown()
            .memory_storage_share();
        assert!((share - 0.435).abs() < 0.015, "share = {share}");
    }

    /// Paper anchor: 59.6 % for SuperMUC-NG.
    #[test]
    fn fig1_supermuc_ng_share() {
        let share = SystemInventory::supermuc_ng()
            .breakdown()
            .memory_storage_share();
        assert!((share - 0.596).abs() < 0.015, "share = {share}");
    }

    /// Paper anchor: 55.5 % for Hawk.
    #[test]
    fn fig1_hawk_share() {
        let share = SystemInventory::hawk().breakdown().memory_storage_share();
        assert!((share - 0.555).abs() < 0.015, "share = {share}");
    }

    /// Paper observation: in Juwels Booster, the GPU category dominates.
    #[test]
    fn fig1_gpus_dominate_juwels_booster() {
        let b = SystemInventory::juwels_booster().breakdown();
        assert!(b.gpu > b.cpu);
        assert!(b.gpu > b.dram);
        assert!(b.gpu > b.storage);
    }

    #[test]
    fn cpu_only_systems_have_zero_gpu_carbon() {
        assert_eq!(SystemInventory::supermuc_ng().breakdown().gpu, Carbon::ZERO);
        assert_eq!(SystemInventory::hawk().breakdown().gpu, Carbon::ZERO);
    }

    #[test]
    fn fractions_sum_to_one() {
        for sys in SystemInventory::german_top3() {
            let b = sys.breakdown();
            let sum = b.fraction(ComponentClass::Cpu)
                + b.fraction(ComponentClass::Gpu)
                + b.fraction(ComponentClass::Dram)
                + b.fraction(ComponentClass::Storage);
            assert!((sum - 1.0).abs() < 1e-9, "{}: {sum}", sys.name);
        }
    }

    #[test]
    fn interconnect_reported_but_excluded_from_total() {
        let mut sys = SystemInventory::juwels_booster();
        let before = sys.breakdown().total();
        sys.parts.push(PartCount {
            part: Part::Network {
                name: "HDR200 InfiniBand HCA".into(),
                embodied_kg: 8.0,
            },
            count: 1000,
        });
        let b = sys.breakdown();
        assert_eq!(b.total(), before);
        assert!(b.interconnect.kg() > 0.0);
        assert_eq!(b.fraction(ComponentClass::Interconnect), 0.0);
    }

    #[test]
    fn totals_are_plausible_magnitudes() {
        // Juwels Booster total ≈ 263 t; SuperMUC-NG ≈ 321 t; Hawk ≈ 456 t.
        let jb = SystemInventory::juwels_booster().breakdown().total().tons();
        let ng = SystemInventory::supermuc_ng().breakdown().total().tons();
        let hawk = SystemInventory::hawk().breakdown().total().tons();
        assert!((jb - 263.0).abs() < 10.0, "JB {jb}");
        assert!((ng - 321.0).abs() < 10.0, "NG {ng}");
        assert!((hawk - 456.0).abs() < 12.0, "Hawk {hawk}");
    }

    #[test]
    fn power_presets_match_paper_citations() {
        assert_eq!(SystemInventory::frontier_like().nominal_power.mw(), 20.0);
        assert_eq!(SystemInventory::aurora_like().nominal_power.mw(), 60.0);
    }

    #[test]
    fn empty_breakdown_fraction_is_zero() {
        let b = EmbodiedBreakdown::default();
        assert_eq!(b.fraction(ComponentClass::Cpu), 0.0);
        assert_eq!(b.memory_storage_share(), 0.0);
    }
}
