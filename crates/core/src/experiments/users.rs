//! User-facing experiments: over-allocation waste (E11a), green
//! incentives (E11b), and the Carbon500 ranking (E12).

use crate::experiments::ensure_horizon;
use crate::scenario::{run, Scenario};
use crate::sweep::{calibrated_trace, sweep};
use serde::{Deserialize, Serialize};
use sustain_carbon_model::system::SystemInventory;
use sustain_grid::green::GreenDetector;
use sustain_grid::region::{Region, RegionProfile};
use sustain_power::pue::PueModel;
use sustain_scheduler::cluster::Cluster;
use sustain_scheduler::sim::Policy;
use sustain_sim_core::ctl::RunCtl;
use sustain_sim_core::error::SimError;
use sustain_sim_core::time::SimDuration;
use sustain_sim_core::units::CarbonIntensity;
use sustain_telemetry::carbon500::{rank, Carbon500Entry, Carbon500Row};
use sustain_telemetry::incentive::{ElasticityModel, IncentiveScheme};
use sustain_workload::synth::WorkloadConfig;

/// One row of the E11a over-allocation sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OverallocationRow {
    /// Fraction of users over-allocating.
    pub overallocating_fraction: f64,
    /// Jobs completed.
    pub completed: usize,
    /// Total job energy, kWh.
    pub job_energy_kwh: f64,
    /// Total job carbon, t.
    pub job_carbon_t: f64,
    /// Median wait, hours.
    pub wait_p50_h: f64,
    /// Energy wasted on idle-but-allocated nodes, kWh (vs the 0 % case).
    pub excess_energy_kwh: f64,
    /// Carbon wasted, kg (vs the 0 % case).
    pub excess_carbon_kg: f64,
}

/// E11a — the §3.4 observation quantified: sweeping the fraction of
/// over-allocating users raises energy and carbon for the same science.
pub fn user_overallocation(
    region: Region,
    days: usize,
    seed: u64,
) -> Result<Vec<OverallocationRow>, SimError> {
    ensure_horizon("E11a", days)?;
    let profile = RegionProfile::january_2023(region);
    // The expensive runs fan out; the excess-vs-baseline columns need the
    // 0 % row's totals, so they are filled in a serial post-pass.
    let mut rows: Vec<OverallocationRow> = sweep(&[0.0, 0.2, 0.4, 0.6], |&frac| {
        let workload = WorkloadConfig {
            arrivals_per_hour: 4.0,
            max_nodes: 128,
            overallocating_fraction: frac,
            overallocation_mean_factor: 2.5,
            ..WorkloadConfig::default()
        };
        let scenario = Scenario {
            name: format!("E11a-{frac}"),
            cluster: Cluster::new(768),
            region: profile.clone(),
            days,
            workload,
            policy: Policy::EasyBackfill,
            queues: None,
            scaling: None,
            checkpoint: None,
            malleable: false,
            pue: PueModel::efficient_hpc(),
            seed,
        };
        let r = run(&scenario, &RunCtl::unlimited())?;
        Ok(OverallocationRow {
            overallocating_fraction: frac,
            completed: r.outcome.records.len(),
            job_energy_kwh: r.outcome.job_energy.kwh(),
            job_carbon_t: r.outcome.carbon.tons(),
            wait_p50_h: r.outcome.wait.median / 3600.0,
            excess_energy_kwh: 0.0,
            excess_carbon_kg: 0.0,
        })
    })
    .into_iter()
    .collect::<Result<_, SimError>>()?;
    let (base_e, base_c) = (rows[0].job_energy_kwh, rows[0].job_carbon_t);
    for row in &mut rows {
        row.excess_energy_kwh = row.job_energy_kwh - base_e;
        row.excess_carbon_kg = (row.job_carbon_t - base_c) * 1000.0;
    }
    Ok(rows)
}

/// One row of the E11b incentive sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IncentiveRow {
    /// Green discount depth (1 − price factor).
    pub discount: f64,
    /// Fraction of total load users shift into green windows.
    pub shifted_fraction: f64,
    /// Carbon saved per month for a 1 GWh/month site, t.
    pub monthly_saving_t: f64,
    /// Revenue (charged core-hours) relative to no-discount billing.
    pub relative_revenue: f64,
}

/// E11b — green-period incentives: deeper discounts shift more load and
/// save more carbon at the cost of billed core-hours.
pub fn green_incentives(region: Region, seed: u64) -> Vec<IncentiveRow> {
    let profile = RegionProfile::january_2023(region);
    let trace = calibrated_trace(&profile, 31, seed);
    let detector = GreenDetector::default();
    let mean_ci = trace.series().stats().mean();
    // Mean CI inside green windows.
    let periods = detector.detect(&trace);
    let green_ci = if periods.is_empty() {
        mean_ci
    } else {
        periods.iter().map(|p| p.mean_ci).sum::<f64>() / periods.len() as f64
    };
    let green_fraction_of_time = detector.green_fraction(&trace);
    let elasticity = ElasticityModel::default();
    let monthly_energy_kwh = 1.0e6; // 1 GWh/month site

    sweep(&[0.0, 0.1, 0.25, 0.5, 0.75], |&discount| {
        let shifted = elasticity.shifted_fraction(discount);
        let saving = elasticity.carbon_saving(monthly_energy_kwh, mean_ci, green_ci, discount);
        // Revenue: unshifted load pays 1.0; shifted load pays the green
        // price; load already green (≈ time fraction) also discounts.
        let green_share = (shifted + (1.0 - shifted) * green_fraction_of_time).min(1.0);
        let relative_revenue = 1.0 - discount * green_share;
        IncentiveRow {
            discount,
            shifted_fraction: shifted,
            monthly_saving_t: saving.tons(),
            relative_revenue,
        }
    })
}

/// E12 — the Carbon500 list over the modelled systems at their real (or
/// plausible) site grid intensities.
pub fn carbon500() -> Vec<Carbon500Row> {
    let life = SimDuration::from_years(5.0);
    let ci = CarbonIntensity::from_grams_per_kwh;
    let entries = vec![
        // (inventory, sustained Gflop/s, site CI)
        Carbon500Entry::from_inventory(
            &SystemInventory::supermuc_ng(),
            19_500_000.0,
            ci(20.0), // LRZ hydropower contract
            life,
        ),
        Carbon500Entry::from_inventory(
            &SystemInventory::juwels_booster(),
            44_000_000.0,
            ci(350.0), // German grid mix
            life,
        ),
        Carbon500Entry::from_inventory(&SystemInventory::hawk(), 19_300_000.0, ci(350.0), life),
        Carbon500Entry::from_inventory(
            &SystemInventory::frontier_like(),
            1_200_000_000.0,
            ci(400.0), // US Southeast mix
            life,
        ),
        Carbon500Entry::from_inventory(
            &SystemInventory::aurora_like(),
            1_000_000_000.0,
            ci(450.0),
            life,
        ),
    ];
    rank(&entries)
}

/// Demonstrates the §3.4 billing rule on a real scheduled workload:
/// total vs charged node-hours under the default 50 % green discount.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BillingDemo {
    /// Total node-hours consumed.
    pub node_hours: f64,
    /// Node-hours inside green windows.
    pub green_node_hours: f64,
    /// Node-hours charged.
    pub charged_node_hours: f64,
}

/// Runs the billing demo on a 7-day Finland scenario.
pub fn billing_demo(seed: u64) -> Result<BillingDemo, SimError> {
    let profile = RegionProfile::january_2023(Region::Finland);
    let scenario = Scenario {
        cluster: Cluster::new(512),
        seed,
        ..Scenario::baseline("billing", profile.clone(), 7)
    };
    let r = run(&scenario, &RunCtl::unlimited())?;
    // Same (profile, days, seed) key the scenario run used — a cache hit.
    let trace = calibrated_trace(&profile, 7, seed);
    let detector = GreenDetector::default();
    let scheme = IncentiveScheme::default();
    let mut total = 0.0;
    let mut green = 0.0;
    let mut charged = 0.0;
    for rec in &r.outcome.records {
        let bill = scheme.bill(rec, &trace, &detector);
        total += bill.node_hours;
        green += bill.green_node_hours;
        charged += bill.charged_node_hours;
    }
    Ok(BillingDemo {
        node_hours: total,
        green_node_hours: green,
        charged_node_hours: charged,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// E11a headline: over-allocation wastes energy and carbon
    /// monotonically.
    #[test]
    fn e11a_overallocation_wastes_carbon() {
        let rows = user_overallocation(Region::Germany, 7, 3).unwrap();
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].excess_energy_kwh, 0.0);
        for w in rows.windows(2) {
            assert!(
                w[1].job_energy_kwh > w[0].job_energy_kwh,
                "energy must rise with over-allocation: {} vs {}",
                w[1].job_energy_kwh,
                w[0].job_energy_kwh
            );
        }
        let worst = rows.last().unwrap();
        assert!(worst.excess_carbon_kg > 0.0);
        // Waste is material: >10 % extra energy at 60 % over-allocators.
        assert!(worst.excess_energy_kwh > 0.1 * rows[0].job_energy_kwh);
    }

    /// E11b headline: deeper discounts shift more load and save more
    /// carbon, at declining revenue.
    #[test]
    fn e11b_incentives_monotone() {
        let rows = green_incentives(Region::Finland, 5);
        assert_eq!(rows[0].discount, 0.0);
        assert_eq!(rows[0].shifted_fraction, 0.0);
        assert_eq!(rows[0].monthly_saving_t, 0.0);
        assert!((rows[0].relative_revenue - 1.0).abs() < 1e-9);
        for w in rows.windows(2) {
            assert!(w[1].shifted_fraction > w[0].shifted_fraction);
            assert!(w[1].monthly_saving_t >= w[0].monthly_saving_t);
            assert!(w[1].relative_revenue < w[0].relative_revenue);
        }
    }

    /// E12: hydropower siting dominates the carbon-efficiency ranking even
    /// against much faster machines.
    #[test]
    fn e12_ranking_structure() {
        let rows = carbon500();
        assert_eq!(rows.len(), 5);
        assert_eq!(rows[0].rank, 1);
        // SuperMUC-NG (20 g hydropower) must beat the German-grid systems
        // despite lower raw performance.
        let ng_rank = rows.iter().find(|r| r.name == "SuperMUC-NG").unwrap().rank;
        let hawk_rank = rows.iter().find(|r| r.name == "Hawk").unwrap().rank;
        assert!(ng_rank < hawk_rank);
        // Every row has positive efficiency and shares in [0,1].
        for r in &rows {
            assert!(r.efficiency > 0.0);
            assert!((0.0..=1.0).contains(&r.embodied_share));
        }
    }

    /// Billing demo: some but not all node-hours are green; the discount
    /// reduces the bill accordingly.
    #[test]
    fn billing_demo_consistency() {
        let b = billing_demo(2023).unwrap();
        assert!(b.node_hours > 0.0);
        assert!(b.green_node_hours > 0.0);
        assert!(b.green_node_hours < b.node_hours);
        let expected = b.node_hours - 0.5 * b.green_node_hours;
        assert!((b.charged_node_hours - expected).abs() < 1e-6);
    }
}
