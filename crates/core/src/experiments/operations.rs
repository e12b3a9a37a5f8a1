//! Operational experiments on the full stack: carbon-aware power-budget
//! scaling (E8), malleability under power constraints (E9), and
//! carbon-aware scheduling + checkpointing (E10).

use crate::experiments::ensure_horizon;
use crate::scenario::{run, Scenario, ScenarioResult};
use crate::sweep::{calibrated_trace, sweep};
use serde::{Deserialize, Serialize};
use sustain_grid::region::{Region, RegionProfile};
use sustain_power::carbon_scaler::ScalingPolicy;
use sustain_scheduler::cluster::Cluster;
use sustain_scheduler::sim::{CarbonAwareCfg, CheckpointCfg, Policy};
use sustain_sim_core::ctl::RunCtl;
use sustain_sim_core::error::SimError;
use sustain_sim_core::units::Power;
use sustain_workload::synth::WorkloadConfig;

/// The cluster used by the operational experiments. Unallocated nodes are
/// assumed powered down to a deep-sleep state (15 W) — the standard
/// companion measure to power-budget throttling; without it, idle draw
/// during throttled periods would dominate the carbon account.
fn ops_cluster() -> Cluster {
    Cluster::new(512).with_idle_power(Power::from_watts(15.0))
}

/// The workload used by the operational experiments: moderate load so
/// power capping bites without collapsing the queue.
fn ops_workload() -> WorkloadConfig {
    WorkloadConfig {
        arrivals_per_hour: 4.0,
        max_nodes: 128,
        ..WorkloadConfig::default()
    }
}

/// Compact summary of one scenario run, used by all three experiments.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OpsRow {
    /// Scenario label.
    pub label: String,
    /// Jobs completed.
    pub completed: usize,
    /// Total job energy, kWh.
    pub job_energy_kwh: f64,
    /// Total operational carbon (jobs + idle), t.
    pub carbon_t: f64,
    /// Emission-weighted intensity paid by job energy, g/kWh.
    pub effective_job_ci: f64,
    /// Median job wait, hours.
    pub wait_p50_h: f64,
    /// 95th-percentile job wait, hours.
    pub wait_p95_h: f64,
    /// System utilization.
    pub utilization: f64,
    /// Fraction of job energy drawn in green periods.
    pub green_energy_fraction: f64,
    /// Seconds of power-budget violation.
    pub violation_s: f64,
}

impl OpsRow {
    fn from_result(label: impl Into<String>, r: &ScenarioResult) -> OpsRow {
        OpsRow {
            label: label.into(),
            completed: r.outcome.records.len(),
            job_energy_kwh: r.outcome.job_energy.kwh(),
            carbon_t: r.outcome.carbon.tons(),
            effective_job_ci: r.outcome.effective_job_ci,
            wait_p50_h: r.outcome.wait.median / 3600.0,
            wait_p95_h: r.outcome.wait.p95 / 3600.0,
            utilization: r.outcome.utilization,
            green_energy_fraction: r.site.green_energy_fraction,
            violation_s: r.outcome.budget_violation_seconds,
        }
    }
}

/// Power envelope for the 512-node cluster (≈550 W/node mean draw): the
/// ceiling covers the whole machine; the floor throttles to ≈a third,
/// deep enough that scaling decisions genuinely move work between hours.
fn scaling_bounds() -> (Power, Power) {
    (Power::from_kw(95.0), Power::from_kw(285.0))
}

/// E8 — carbon-aware power-budget scaling: four §3.1 policies on a
/// volatile grid, with the static baseline matched to the same mean
/// budget.
pub fn carbon_aware_power_scaling(
    region: Region,
    days: usize,
    seed: u64,
) -> Result<Vec<OpsRow>, SimError> {
    ensure_horizon("E8", days)?;
    let profile = RegionProfile::january_2023(region);
    let trace = calibrated_trace(&profile, days, seed);
    let mean_ci = trace.series().stats().mean();
    let (floor, ceiling) = scaling_bounds();

    let linear = ScalingPolicy::Linear {
        floor,
        ceiling,
        ci_low: mean_ci * 0.8,
        ci_high: mean_ci * 1.2,
    };
    let threshold = ScalingPolicy::Threshold {
        floor,
        ceiling,
        threshold: mean_ci,
    };
    // Match the static baseline to the linear policy's mean budget so the
    // comparison holds capacity constant.
    let linear_mean = Power::from_watts(linear.budget_series(&trace).stats().mean());
    let static_policy = ScalingPolicy::Static {
        budget: linear_mean,
    };
    let rate_cap = ScalingPolicy::CarbonRateCap {
        floor,
        ceiling,
        // Rate that the mean budget would emit at the mean CI.
        kg_per_hour: linear_mean.kw() * mean_ci / 1000.0,
    };

    // Budget-driven checkpointing only: when the scaler lowers the budget,
    // checkpointable jobs suspend to fit (the PowerStack's enforcement
    // path); CI-driven suspends are disabled so E8 isolates §3.1 from
    // §3.3.
    let budget_ckpt = CheckpointCfg {
        suspend_threshold_fraction: f64::INFINITY,
        resume_threshold_fraction: f64::INFINITY,
        ..CheckpointCfg::default()
    };
    let workload = WorkloadConfig {
        checkpointable_fraction: 0.8,
        ..ops_workload()
    };

    let policies = [
        ("static", static_policy),
        ("linear", linear),
        ("threshold", threshold),
        ("carbon-rate-cap", rate_cap),
    ];
    sweep(&policies, |(label, policy)| {
        let scenario = Scenario {
            name: format!("E8-{label}"),
            cluster: ops_cluster(),
            region: profile.clone(),
            days,
            workload: workload.clone(),
            policy: Policy::EasyBackfill,
            queues: None,
            scaling: Some(policy.clone()),
            checkpoint: Some(budget_ckpt.clone()),
            malleable: false,
            pue: sustain_power::pue::PueModel::efficient_hpc(),
            seed,
        };
        let r = run(&scenario, &RunCtl::unlimited())?;
        Ok(OpsRow::from_result(*label, &r))
    })
    .into_iter()
    .collect()
}

/// E9 — malleability under a carbon-driven power budget: the same
/// workload run rigidly vs with §3.2 reshaping enabled.
pub fn malleability_under_power(
    region: Region,
    days: usize,
    seed: u64,
) -> Result<Vec<OpsRow>, SimError> {
    ensure_horizon("E9", days)?;
    let profile = RegionProfile::january_2023(region);
    let (floor, ceiling) = scaling_bounds();
    let trace = calibrated_trace(&profile, days, seed);
    let threshold = ScalingPolicy::Threshold {
        floor,
        ceiling,
        threshold: trace.series().stats().mean(),
    };
    let workload = WorkloadConfig {
        malleable_fraction: 0.7,
        ..ops_workload()
    };
    sweep(
        &[("rigid", false), ("malleable", true)],
        |&(label, malleable)| {
            let scenario = Scenario {
                name: format!("E9-{label}"),
                cluster: ops_cluster(),
                region: profile.clone(),
                days,
                workload: workload.clone(),
                policy: Policy::EasyBackfill,
                queues: None,
                scaling: Some(threshold.clone()),
                checkpoint: None,
                malleable,
                pue: sustain_power::pue::PueModel::efficient_hpc(),
                seed,
            };
            let r = run(&scenario, &RunCtl::unlimited())?;
            Ok(OpsRow::from_result(label, &r))
        },
    )
    .into_iter()
    .collect()
}

/// E10 — carbon-aware scheduling and checkpointing: EASY vs the §3.3
/// green-period gate vs gate + checkpoint/suspend.
pub fn carbon_aware_scheduling(
    region: Region,
    days: usize,
    seed: u64,
) -> Result<Vec<OpsRow>, SimError> {
    ensure_horizon("E10", days)?;
    let profile = RegionProfile::january_2023(region);
    let workload = WorkloadConfig {
        checkpointable_fraction: 0.6,
        ..ops_workload()
    };
    let gate = Policy::CarbonAware(CarbonAwareCfg {
        green_threshold_fraction: 0.95,
        short_job_cutoff: sustain_sim_core::time::SimDuration::from_hours(2.0),
        max_delay: sustain_sim_core::time::SimDuration::from_hours(36.0),
    });
    let configs: Vec<(&str, Policy, Option<CheckpointCfg>)> = vec![
        ("easy", Policy::EasyBackfill, None),
        ("carbon-gate", gate.clone(), None),
        ("gate+checkpoint", gate, Some(CheckpointCfg::default())),
    ];
    sweep(&configs, |(label, policy, checkpoint)| {
        let scenario = Scenario {
            name: format!("E10-{label}"),
            cluster: ops_cluster(),
            region: profile.clone(),
            days,
            workload: workload.clone(),
            policy: policy.clone(),
            queues: None,
            scaling: None,
            checkpoint: checkpoint.clone(),
            malleable: false,
            pue: sustain_power::pue::PueModel::efficient_hpc(),
            seed,
        };
        let r = run(&scenario, &RunCtl::unlimited())?;
        Ok(OpsRow::from_result(*label, &r))
    })
    .into_iter()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// E8 headline: every carbon-aware policy pays a lower effective CI
    /// than the capacity-matched static baseline.
    #[test]
    fn e8_carbon_aware_scaling_cuts_effective_ci() {
        let rows = carbon_aware_power_scaling(Region::Finland, 10, 42).unwrap();
        assert_eq!(rows.len(), 4);
        let static_row = &rows[0];
        assert!(static_row.completed > 100, "workload too small");
        for row in &rows[1..] {
            assert!(
                row.effective_job_ci < static_row.effective_job_ci,
                "{}: {} vs static {}",
                row.label,
                row.effective_job_ci,
                static_row.effective_job_ci
            );
        }
    }

    /// E9 headline: malleability reduces budget violations while keeping
    /// throughput.
    #[test]
    fn e9_malleability_tracks_budget() {
        let rows = malleability_under_power(Region::GreatBritain, 10, 7).unwrap();
        let rigid = &rows[0];
        let malleable = &rows[1];
        assert!(
            malleable.violation_s < rigid.violation_s,
            "malleable {} vs rigid {}",
            malleable.violation_s,
            rigid.violation_s
        );
        // Within 15 % of the rigid throughput.
        assert!(malleable.completed as f64 >= rigid.completed as f64 * 0.85);
    }

    /// E10 headline: the green gate lowers the effective CI paid; adding
    /// checkpointing lowers it further; waits rise as the price.
    #[test]
    fn e10_carbon_aware_scheduling_shifts_energy_to_green() {
        let rows = carbon_aware_scheduling(Region::Finland, 10, 11).unwrap();
        let easy = &rows[0];
        let gate = &rows[1];
        let ckpt = &rows[2];
        assert!(
            gate.effective_job_ci < easy.effective_job_ci,
            "gate {} vs easy {}",
            gate.effective_job_ci,
            easy.effective_job_ci
        );
        assert!(
            ckpt.effective_job_ci <= gate.effective_job_ci * 1.02,
            "checkpointing should not regress much: {} vs {}",
            ckpt.effective_job_ci,
            gate.effective_job_ci
        );
        assert!(gate.green_energy_fraction > easy.green_energy_fraction);
        // The price: longer waits.
        assert!(gate.wait_p95_h >= easy.wait_p95_h);
    }
}
