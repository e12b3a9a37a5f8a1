//! System lifetime, reuse, and recycling (§2.3) — the Table 1 regenerator
//! and the reuse-vs-recycle savings model.
//!
//! The paper's quantitative anchors here are: hardware refresh cycles of
//! 4–6 years (Table 1, LRZ), and "reusing hard disk drives leads to 275×
//! more carbon emissions reductions than recycling" (after Lyu et al.,
//! HotCarbon'23 \[39\]). The model: *reuse* avoids manufacturing a
//! replacement device (discounted by remaining-life and refurbishment
//! overheads), while *recycling* only recovers a small material credit.
//! *Lifetime extension* beats component reuse because it defers the
//! replacement of the whole system, not just the reusable components.

use crate::components::ComponentClass;
use crate::memory::StorageTech;
use crate::system::SystemInventory;
use serde::{Deserialize, Serialize};
use sustain_sim_core::units::Carbon;

/// One row of the paper's Table 1: an LRZ system and its service window.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SystemLifetimeRecord {
    /// System name.
    pub name: String,
    /// First year of operation.
    pub start_year: u32,
    /// Decommission year, `None` while still in service.
    pub decommissioned_year: Option<u32>,
}

impl SystemLifetimeRecord {
    /// Service life in years, as of `as_of_year` for systems still running.
    #[cfg(test)]
    fn service_years(&self, as_of_year: u32) -> u32 {
        let end = self.decommissioned_year.unwrap_or(as_of_year);
        end.saturating_sub(self.start_year)
    }

    /// `true` if the system was operational during `year`.
    pub(crate) fn active_in(&self, year: u32) -> bool {
        year >= self.start_year && self.decommissioned_year.is_none_or(|d| year < d)
    }
}

/// The paper's Table 1: recent modern HPC systems at LRZ.
pub fn lrz_system_history() -> Vec<SystemLifetimeRecord> {
    let rec = |name: &str, start: u32, end: Option<u32>| SystemLifetimeRecord {
        name: name.into(),
        start_year: start,
        decommissioned_year: end,
    };
    vec![
        rec("SuperMUC", 2012, Some(2018)),
        rec("SuperMUC Phase 2", 2015, Some(2019)),
        rec("SuperMUC-NG", 2019, Some(2024)),
        rec("SuperMUC-NG Phase 2", 2023, None),
        rec("ExaMUC", 2025, None),
    ]
}

/// End-of-life strategy for a device or a fleet of devices.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) enum EolStrategy {
    /// Send to a recycler: only a small material credit is recovered.
    Recycle,
    /// Redeploy the device (in a newer system, or donated for teaching, as
    /// LRZ does): avoids manufacturing a replacement.
    Reuse,
    /// Keep the whole system running `extra_years` beyond its planned life.
    ExtendLifetime {
        /// Additional service years.
        extra_years: f64,
    },
    /// Dispose without recovery (landfill); zero savings.
    Dispose,
}

/// Parameters of the end-of-life savings model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct EolModel {
    /// Fraction of a reused device's embodied carbon that is actually
    /// avoided (remaining useful life × redeployment success rate, net of
    /// refurbishment/transport overheads).
    pub reuse_avoidance_fraction: f64,
    /// Fraction of embodied carbon recovered as material credit when
    /// recycling. For HDDs this is `reuse_avoidance_fraction / 275`,
    /// reproducing the paper's 275× claim.
    pub recycle_credit_fraction: f64,
}

impl EolModel {
    /// Default model for a storage technology. HDDs encode the paper's
    /// 275× reuse-vs-recycle anchor; SSD recycling recovers proportionally
    /// more (controller + flash material value).
    pub(crate) fn for_storage(tech: StorageTech) -> EolModel {
        match tech {
            StorageTech::NearlineHdd => EolModel {
                reuse_avoidance_fraction: 0.88,
                recycle_credit_fraction: 0.88 / 275.0,
            },
            StorageTech::SataSsd | StorageTech::NvmeSsd => EolModel {
                reuse_avoidance_fraction: 0.80,
                recycle_credit_fraction: 0.80 / 60.0,
            },
            StorageTech::Tape => EolModel {
                reuse_avoidance_fraction: 0.90,
                recycle_credit_fraction: 0.90 / 300.0,
            },
        }
    }

    /// Default model for a component class (used for whole-system studies).
    pub(crate) fn for_class(class: ComponentClass) -> EolModel {
        match class {
            // DDR4-in-DDR5 reuse after Li et al. [38] (Pond): high value.
            ComponentClass::Dram => EolModel {
                reuse_avoidance_fraction: 0.85,
                recycle_credit_fraction: 0.01,
            },
            ComponentClass::Storage => EolModel::for_storage(StorageTech::NearlineHdd),
            // Processors are rarely redeployable into newer systems
            // (socket/platform churn); teaching redeployment recovers some.
            ComponentClass::Cpu | ComponentClass::Gpu => EolModel {
                reuse_avoidance_fraction: 0.35,
                recycle_credit_fraction: 0.015,
            },
            ComponentClass::Interconnect => EolModel {
                reuse_avoidance_fraction: 0.25,
                recycle_credit_fraction: 0.01,
            },
        }
    }

    /// Carbon avoided by applying `strategy` to a device with the given
    /// embodied footprint and planned lifetime in years.
    pub fn savings(
        &self,
        embodied: Carbon,
        planned_lifetime_years: f64,
        strategy: EolStrategy,
    ) -> Carbon {
        assert!(planned_lifetime_years > 0.0, "lifetime must be positive");
        match strategy {
            EolStrategy::Dispose => Carbon::ZERO,
            EolStrategy::Recycle => embodied * self.recycle_credit_fraction,
            EolStrategy::Reuse => embodied * self.reuse_avoidance_fraction,
            EolStrategy::ExtendLifetime { extra_years } => {
                // Running L+ΔL years amortizes the same embodied carbon over
                // more service: the avoided fraction is ΔL/(L+ΔL) of a
                // replacement build.
                let frac = extra_years / (planned_lifetime_years + extra_years);
                embodied * frac
            }
        }
    }
}

/// Ratio of reuse savings to recycle savings for a storage technology —
/// the paper's 275× claim for HDDs.
pub fn reuse_vs_recycle_ratio(tech: StorageTech) -> f64 {
    let m = EolModel::for_storage(tech);
    m.reuse_avoidance_fraction / m.recycle_credit_fraction
}

/// Whole-system end-of-life study: per-class savings under a uniform
/// strategy choice, used by experiment E5.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemEolOutcome {
    /// Savings when every class is recycled.
    pub recycle_savings: Carbon,
    /// Savings when every reusable class is reused.
    pub reuse_savings: Carbon,
    /// Savings when the whole system's life is extended by `extra_years`.
    pub extension_savings: Carbon,
}

/// Evaluates recycle-everything vs reuse-components vs extend-lifetime for
/// a system with the given planned lifetime.
pub fn system_eol_study(
    inventory: &SystemInventory,
    planned_lifetime_years: f64,
    extension_years: f64,
) -> SystemEolOutcome {
    let b = inventory.breakdown();
    let classes = [
        (ComponentClass::Cpu, b.cpu),
        (ComponentClass::Gpu, b.gpu),
        (ComponentClass::Dram, b.dram),
        (ComponentClass::Storage, b.storage),
    ];
    let mut recycle = Carbon::ZERO;
    let mut reuse = Carbon::ZERO;
    for (class, embodied) in classes {
        let m = EolModel::for_class(class);
        recycle += m.savings(embodied, planned_lifetime_years, EolStrategy::Recycle);
        reuse += m.savings(embodied, planned_lifetime_years, EolStrategy::Reuse);
    }
    // Extension applies to the *entire* system embodied footprint at once —
    // including the node platform (mainboards, chassis, racks, cooling)
    // that component reuse cannot recover. This is exactly why the paper
    // ranks lifetime extension above component reuse.
    let whole = EolModel::for_class(ComponentClass::Cpu); // fractions unused
    let extension = whole.savings(
        inventory.total_embodied_with_platform(),
        planned_lifetime_years,
        EolStrategy::ExtendLifetime {
            extra_years: extension_years,
        },
    );
    SystemEolOutcome {
        recycle_savings: recycle,
        reuse_savings: reuse,
        extension_savings: extension,
    }
}

/// Outcome of redeploying DDR4 DIMMs from a decommissioned system into a
/// new-generation (DDR5-platform) system — the paper's ref \[38\]: "recent
/// research targets reusing DDR4 memory chips from decommissioned servers
/// in new DDR5 servers while maintaining performance" (via CXL-attached
/// pooling, so the old modules coexist with the new platform).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DramReuseOutcome {
    /// Capacity carried over, GB.
    pub covered_gb: f64,
    /// Fraction of the successor's DRAM need covered.
    pub covered_fraction: f64,
    /// Avoided new-DDR5 manufacturing carbon.
    pub avoided: Carbon,
    /// Carbon overhead of requalification/carrier hardware.
    pub overhead: Carbon,
}

impl DramReuseOutcome {
    /// Net savings (avoided − overhead).
    pub fn net_savings(&self) -> Carbon {
        self.avoided - self.overhead
    }
}

/// Models DDR4-into-DDR5 reuse: `survival_rate` of the old capacity
/// passes requalification; the carried-over gigabytes displace new DDR5
/// manufacturing; CXL carrier boards and requalification cost ~6 % of the
/// avoided carbon.
pub fn dram_reuse_into_successor(
    old_dram_gb: f64,
    survival_rate: f64,
    successor_dram_gb: f64,
) -> DramReuseOutcome {
    assert!((0.0..=1.0).contains(&survival_rate), "survival rate range");
    assert!(old_dram_gb >= 0.0 && successor_dram_gb > 0.0);
    let covered_gb = (old_dram_gb * survival_rate).min(successor_dram_gb);
    let avoided = crate::memory::MemoryTech::Ddr5.embodied(covered_gb);
    let overhead = avoided * 0.06;
    DramReuseOutcome {
        covered_gb,
        covered_fraction: covered_gb / successor_dram_gb,
        avoided,
        overhead,
    }
}

/// Amortized embodied emissions per calendar year for a fleet described by
/// lifetime records and per-system embodied totals. Returns
/// `(year, tCO₂e/yr)` rows covering `[from_year, to_year]`.
pub fn fleet_amortization_timeline(
    records: &[(SystemLifetimeRecord, Carbon)],
    default_lifetime_years: u32,
    from_year: u32,
    to_year: u32,
) -> Vec<(u32, f64)> {
    assert!(from_year <= to_year);
    let mut rows = Vec::with_capacity((to_year - from_year + 1) as usize);
    for year in from_year..=to_year {
        let mut total_t = 0.0;
        for (rec, embodied) in records {
            let life = rec
                .decommissioned_year
                .map(|d| d - rec.start_year)
                .unwrap_or(default_lifetime_years)
                .max(1);
            if rec.active_in(year) && year < rec.start_year + life {
                total_t += embodied.tons() / life as f64;
            }
        }
        rows.push((year, total_t));
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_contents_match_paper() {
        let h = lrz_system_history();
        assert_eq!(h.len(), 5);
        assert_eq!(h[0].name, "SuperMUC");
        assert_eq!(h[0].start_year, 2012);
        assert_eq!(h[0].decommissioned_year, Some(2018));
        assert_eq!(h[2].name, "SuperMUC-NG");
        assert_eq!(h[2].service_years(2030), 5);
        assert_eq!(h[4].name, "ExaMUC");
        assert_eq!(h[4].decommissioned_year, None);
    }

    /// Paper: "hardware refresh cycles ... range between four and six years".
    #[test]
    fn lrz_lifetimes_are_four_to_six_years() {
        for rec in lrz_system_history() {
            if let Some(_d) = rec.decommissioned_year {
                let life = rec.service_years(0);
                assert!((4..=6).contains(&life), "{}: {life}", rec.name);
            }
        }
    }

    #[test]
    fn activity_windows() {
        let rec = &lrz_system_history()[0]; // SuperMUC 2012-2018
        assert!(!rec.active_in(2011));
        assert!(rec.active_in(2012));
        assert!(rec.active_in(2017));
        assert!(!rec.active_in(2018));
        let running = &lrz_system_history()[4]; // ExaMUC 2025-
        assert!(running.active_in(2030));
    }

    /// Paper anchor: HDD reuse yields 275× the savings of recycling.
    #[test]
    fn hdd_reuse_vs_recycle_is_275x() {
        let ratio = reuse_vs_recycle_ratio(StorageTech::NearlineHdd);
        assert!((ratio - 275.0).abs() < 1e-9, "ratio {ratio}");
    }

    #[test]
    fn savings_ordering_reuse_beats_recycle() {
        let m = EolModel::for_storage(StorageTech::NearlineHdd);
        let e = Carbon::from_kg(22.6);
        let reuse = m.savings(e, 5.0, EolStrategy::Reuse);
        let recycle = m.savings(e, 5.0, EolStrategy::Recycle);
        let dispose = m.savings(e, 5.0, EolStrategy::Dispose);
        assert!(reuse > recycle);
        assert!(recycle > dispose);
        assert_eq!(dispose, Carbon::ZERO);
    }

    #[test]
    fn extension_savings_math() {
        let m = EolModel::for_class(ComponentClass::Cpu);
        let e = Carbon::from_tons(100.0);
        // 5-year life extended by 5 years → half a replacement avoided.
        let s = m.savings(e, 5.0, EolStrategy::ExtendLifetime { extra_years: 5.0 });
        assert!((s.tons() - 50.0).abs() < 1e-9);
        // Zero extension → zero savings.
        let z = m.savings(e, 5.0, EolStrategy::ExtendLifetime { extra_years: 0.0 });
        assert_eq!(z, Carbon::ZERO);
    }

    /// Paper: "server lifetime extensions are more effective than component
    /// reuse since not all server components can be effectively reutilized".
    #[test]
    fn extension_beats_component_reuse_system_wide() {
        let sys = SystemInventory::supermuc_ng();
        let out = system_eol_study(&sys, 5.0, 5.0);
        assert!(
            out.extension_savings > out.reuse_savings,
            "ext {} vs reuse {}",
            out.extension_savings.tons(),
            out.reuse_savings.tons()
        );
        assert!(out.reuse_savings > out.recycle_savings);
    }

    /// Paper: "recycling yields relatively limited returns ... while
    /// component reuse is significantly more effective".
    #[test]
    fn recycling_returns_are_small() {
        let sys = SystemInventory::hawk();
        let out = system_eol_study(&sys, 5.0, 2.0);
        let frac = out.recycle_savings.grams() / sys.breakdown().total().grams();
        assert!(frac < 0.03, "recycle recovers {frac}");
    }

    #[test]
    fn fleet_timeline_counts_active_systems() {
        let recs: Vec<_> = lrz_system_history()
            .into_iter()
            .map(|r| (r, Carbon::from_tons(300.0)))
            .collect();
        let rows = fleet_amortization_timeline(&recs, 5, 2012, 2026);
        let by_year: std::collections::HashMap<u32, f64> = rows.into_iter().collect();
        // 2013: only SuperMUC active → 300/6 = 50 t/yr.
        assert!((by_year[&2013] - 50.0).abs() < 1e-9);
        // 2016: SuperMUC (50) + Phase 2 (300/4 = 75) = 125.
        assert!((by_year[&2016] - 125.0).abs() < 1e-9);
        // 2026: NG Phase 2 (2023+5>2026 → 60) + ExaMUC (60) = 120.
        assert!((by_year[&2026] - 120.0).abs() < 1e-9);
    }

    /// Paper ref \[38\]: reusing SuperMUC-NG's 0.72 PB of DDR4 in a
    /// successor saves on the order of the successor's DRAM footprint.
    #[test]
    fn ddr4_into_ddr5_reuse_savings() {
        // Successor with 1.0 PB DDR5; 90 % of old DIMMs requalify.
        let out = dram_reuse_into_successor(0.72e6, 0.9, 1.0e6);
        assert!((out.covered_gb - 0.648e6).abs() < 1.0);
        assert!((out.covered_fraction - 0.648).abs() < 1e-6);
        // Avoided: 648 000 GB × 0.12 kg/GB ≈ 77.8 t.
        assert!((out.avoided.tons() - 77.76).abs() < 0.1);
        assert!(out.net_savings() > out.avoided * 0.9);
        assert!(out.net_savings() < out.avoided);
    }

    #[test]
    fn dram_reuse_clamps_to_successor_need() {
        let out = dram_reuse_into_successor(2.0e6, 1.0, 0.5e6);
        assert_eq!(out.covered_gb, 0.5e6);
        assert_eq!(out.covered_fraction, 1.0);
    }

    #[test]
    #[should_panic(expected = "survival rate range")]
    fn dram_reuse_rejects_bad_rate() {
        dram_reuse_into_successor(1.0, 1.5, 1.0);
    }

    #[test]
    #[should_panic(expected = "lifetime must be positive")]
    fn zero_lifetime_rejected() {
        EolModel::for_class(ComponentClass::Cpu).savings(Carbon::ZERO, 0.0, EolStrategy::Recycle);
    }
}
