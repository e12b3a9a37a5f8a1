//! Embodied carbon of memory and storage, per gigabyte.
//!
//! DRAM and NAND are manufactured on dedicated processes; ACT and the
//! industry sustainability reports it draws on express their embodied
//! carbon per GB of capacity. The DDR4 and nearline-HDD factors here are
//! the two calibration constants that, together with the logic model in
//! [`crate::process`], reproduce the paper's Fig. 1 component shares
//! (memory+storage = 43.5 % / 59.6 % / 55.5 % for Juwels Booster /
//! SuperMUC-NG / Hawk). Both land inside published ranges: ≈0.14 kg CO₂e/GB
//! for DDR4 and ≈1.26 kg CO₂e/TB for high-capacity HDDs (≈23 kg per 18 TB
//! drive).

use serde::{Deserialize, Serialize};
use sustain_sim_core::units::Carbon;

/// DRAM technology generations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MemoryTech {
    /// DDR3 SDRAM (older, less dense process → more carbon per GB).
    Ddr3,
    /// DDR4 SDRAM — the calibration reference.
    Ddr4,
    /// DDR5 SDRAM.
    Ddr5,
    /// HBM2 stacked memory (TSV stacking overhead).
    Hbm2,
    /// HBM2E stacked memory.
    Hbm2e,
    /// GDDR6 graphics memory.
    Gddr6,
}

impl MemoryTech {
    /// Embodied carbon per GB of capacity, kg CO₂e.
    pub(crate) fn kg_per_gb(self) -> f64 {
        match self {
            MemoryTech::Ddr3 => 0.220,
            MemoryTech::Ddr4 => 0.1429,
            MemoryTech::Ddr5 => 0.120,
            MemoryTech::Hbm2 => 0.250,
            MemoryTech::Hbm2e => 0.230,
            MemoryTech::Gddr6 => 0.180,
        }
    }

    /// Embodied carbon of `gb` gigabytes of this memory.
    pub fn embodied(self, gb: f64) -> Carbon {
        assert!(gb >= 0.0, "capacity must be non-negative");
        Carbon::from_kg(gb * self.kg_per_gb())
    }
}

/// Storage device technologies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StorageTech {
    /// Nearline (high-capacity) HDD — dominates HPC parallel filesystems;
    /// the calibration reference for Fig. 1 storage.
    NearlineHdd,
    /// SATA/SAS SSD (NAND flash carries a much higher per-GB footprint).
    SataSsd,
    /// NVMe SSD.
    NvmeSsd,
    /// LTO tape (archival).
    Tape,
}

impl StorageTech {
    /// Embodied carbon per GB of capacity, kg CO₂e.
    pub(crate) fn kg_per_gb(self) -> f64 {
        match self {
            StorageTech::NearlineHdd => 0.0012574,
            StorageTech::SataSsd => 0.0250,
            StorageTech::NvmeSsd => 0.0320,
            StorageTech::Tape => 0.0002,
        }
    }

    /// Embodied carbon of `gb` gigabytes of this storage.
    pub fn embodied(self, gb: f64) -> Carbon {
        assert!(gb >= 0.0, "capacity must be non-negative");
        Carbon::from_kg(gb * self.kg_per_gb())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ddr4_calibration_constant() {
        assert!((MemoryTech::Ddr4.kg_per_gb() - 0.1429).abs() < 1e-9);
        // 0.47 PB (Juwels Booster DRAM) ≈ 67.2 tCO₂e.
        let jb_dram = MemoryTech::Ddr4.embodied(0.47e6);
        assert!((jb_dram.tons() - 67.16).abs() < 0.1, "{}", jb_dram.tons());
    }

    #[test]
    fn hdd_calibration_constant() {
        // ≈22.6 kg per 18 TB nearline drive.
        let per_drive = StorageTech::NearlineHdd.embodied(18_000.0);
        assert!((per_drive.kg() - 22.63).abs() < 0.1, "{}", per_drive.kg());
    }

    #[test]
    fn stacked_memory_costs_more_than_planar() {
        assert!(MemoryTech::Hbm2.kg_per_gb() > MemoryTech::Ddr4.kg_per_gb());
        assert!(MemoryTech::Hbm2e.kg_per_gb() > MemoryTech::Ddr5.kg_per_gb());
    }

    #[test]
    fn newer_ddr_is_denser_hence_cheaper_per_gb() {
        assert!(MemoryTech::Ddr3.kg_per_gb() > MemoryTech::Ddr4.kg_per_gb());
        assert!(MemoryTech::Ddr4.kg_per_gb() > MemoryTech::Ddr5.kg_per_gb());
    }

    #[test]
    fn ssd_much_more_carbon_intensive_than_hdd_per_gb() {
        let ratio = StorageTech::SataSsd.kg_per_gb() / StorageTech::NearlineHdd.kg_per_gb();
        assert!(ratio > 10.0, "ratio {ratio}");
    }

    #[test]
    fn embodied_scales_linearly() {
        let one = MemoryTech::Ddr4.embodied(1.0).kg();
        let thousand = MemoryTech::Ddr4.embodied(1000.0).kg();
        assert!((thousand - 1000.0 * one).abs() < 1e-9);
        assert_eq!(MemoryTech::Ddr4.embodied(0.0), Carbon::ZERO);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_capacity_rejected() {
        StorageTech::NvmeSsd.embodied(-1.0);
    }
}
