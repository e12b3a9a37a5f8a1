//! The Carbon500 ranking (§2.2) — experiment E12.
//!
//! The paper: *"we should extend the existing supercomputing rankings to
//! cover the carbon efficiency perspective (something like a Carbon500
//! list)."* An entry combines a system's sustained performance with the
//! carbon cost of one hour of operation — amortized embodied plus
//! operational at the site's grid intensity — and systems are ranked by
//! useful work per unit carbon.

use serde::{Deserialize, Serialize};
use sustain_carbon_model::metrics::carbon_efficiency_gflops_hours_per_kg;
use sustain_carbon_model::system::SystemInventory;
use sustain_sim_core::time::SimDuration;
use sustain_sim_core::units::{Carbon, CarbonIntensity};

/// One candidate system for the ranking.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Carbon500Entry {
    /// System name.
    pub name: String,
    /// Sustained (HPL-like) performance, Gflop/s.
    pub sustained_gflops: f64,
    /// Average power draw, W.
    pub avg_power_w: f64,
    /// Site grid carbon intensity.
    pub grid_ci: CarbonIntensity,
    /// Total embodied carbon (components + platform).
    pub embodied: Carbon,
    /// Amortization lifetime.
    pub lifetime: SimDuration,
}

/// One computed row of the list.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Carbon500Row {
    /// Rank (1-based).
    pub rank: usize,
    /// System name.
    pub name: String,
    /// Carbon efficiency, Gflop/s-hours per kg CO₂e.
    pub efficiency: f64,
    /// Hourly carbon cost, kg (embodied share + operational).
    pub hourly_carbon_kg: f64,
    /// Share of the hourly carbon that is embodied.
    pub embodied_share: f64,
}

impl Carbon500Entry {
    /// Builds an entry from a [`SystemInventory`] preset plus site and
    /// performance assumptions.
    pub fn from_inventory(
        inv: &SystemInventory,
        sustained_gflops: f64,
        grid_ci: CarbonIntensity,
        lifetime: SimDuration,
    ) -> Carbon500Entry {
        Carbon500Entry {
            name: inv.name.clone(),
            sustained_gflops,
            avg_power_w: inv.nominal_power.watts(),
            grid_ci,
            embodied: inv.total_embodied_with_platform(),
            lifetime,
        }
    }

    /// Carbon attributable to one hour of operation.
    pub(crate) fn hourly_carbon(&self) -> Carbon {
        let hours = self.lifetime.as_hours();
        let embodied_per_hour = self.embodied * (1.0 / hours);
        let kwh = self.avg_power_w / 1000.0;
        let operational = Carbon::from_grams(kwh * self.grid_ci.grams_per_kwh());
        embodied_per_hour + operational
    }

    /// Embodied share of the hourly carbon.
    pub fn embodied_share(&self) -> f64 {
        let total = self.hourly_carbon().grams();
        if total == 0.0 {
            return 0.0;
        }
        (self.embodied * (1.0 / self.lifetime.as_hours())).grams() / total
    }

    /// Carbon efficiency, Gflop/s-hours per kg.
    pub fn efficiency(&self) -> f64 {
        carbon_efficiency_gflops_hours_per_kg(self.sustained_gflops, self.hourly_carbon())
    }
}

/// Ranks entries by carbon efficiency (descending). Ties break by name
/// for determinism.
pub fn rank(entries: &[Carbon500Entry]) -> Vec<Carbon500Row> {
    let mut rows: Vec<Carbon500Row> = entries
        .iter()
        .map(|e| Carbon500Row {
            rank: 0,
            name: e.name.clone(),
            efficiency: e.efficiency(),
            hourly_carbon_kg: e.hourly_carbon().kg(),
            embodied_share: e.embodied_share(),
        })
        .collect();
    rows.sort_by(|a, b| {
        b.efficiency
            .total_cmp(&a.efficiency)
            .then_with(|| a.name.cmp(&b.name))
    });
    for (i, row) in rows.iter_mut().enumerate() {
        row.rank = i + 1;
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(name: &str, gflops: f64, power_w: f64, ci: f64, embodied_t: f64) -> Carbon500Entry {
        Carbon500Entry {
            name: name.into(),
            sustained_gflops: gflops,
            avg_power_w: power_w,
            grid_ci: CarbonIntensity::from_grams_per_kwh(ci),
            embodied: Carbon::from_tons(embodied_t),
            lifetime: SimDuration::from_years(5.0),
        }
    }

    #[test]
    fn hourly_carbon_components() {
        // Embodied 43.8 t over 5 y (43800 h) → 1 kg/h; 1 MW at 100 g → 100 kg/h.
        let e = entry("x", 1e6, 1e6, 100.0, 43.8);
        assert!((e.hourly_carbon().kg() - 101.0).abs() < 0.01);
        assert!((e.embodied_share() - 1.0 / 101.0).abs() < 1e-4);
    }

    #[test]
    fn clean_grid_makes_embodied_dominate() {
        let clean = entry("clean", 1e6, 1e6, 20.0, 4380.0);
        // 100 kg/h embodied vs 20 kg/h operational.
        assert!(clean.embodied_share() > 0.8);
    }

    #[test]
    fn ranking_prefers_efficiency_not_raw_speed() {
        // "big" is faster but sited on coal; "small" wins per-carbon.
        let big = entry("big", 2e6, 20e6, 700.0, 5000.0);
        let small = entry("small", 1e6, 4e6, 20.0, 3000.0);
        let rows = rank(&[big, small]);
        assert_eq!(rows[0].name, "small");
        assert_eq!(rows[0].rank, 1);
        assert_eq!(rows[1].rank, 2);
        assert!(rows[0].efficiency > rows[1].efficiency);
    }

    #[test]
    fn inventory_entries_rank() {
        use sustain_carbon_model::system::SystemInventory;
        let lrz = Carbon500Entry::from_inventory(
            &SystemInventory::supermuc_ng(),
            19_500_000.0,                              // ~19.5 Pflop/s sustained
            CarbonIntensity::from_grams_per_kwh(20.0), // hydropower contract
            SimDuration::from_years(5.0),
        );
        let coal_twin = Carbon500Entry {
            name: "SuperMUC-NG (coal twin)".into(),
            grid_ci: CarbonIntensity::from_grams_per_kwh(1025.0),
            ..lrz.clone()
        };
        let rows = rank(&[coal_twin, lrz]);
        assert_eq!(rows[0].name, "SuperMUC-NG");
        // Siting on hydropower improves carbon efficiency by >5×.
        assert!(rows[0].efficiency > 5.0 * rows[1].efficiency);
    }

    #[test]
    fn deterministic_tie_break() {
        let a = entry("alpha", 1e6, 1e6, 100.0, 100.0);
        let b = entry("beta", 1e6, 1e6, 100.0, 100.0);
        let rows = rank(&[b, a]);
        assert_eq!(rows[0].name, "alpha");
    }
}
