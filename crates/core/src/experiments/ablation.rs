//! Ablation studies over the design choices of the carbon-aware policies:
//! green-gate threshold depth, checkpoint overhead, malleable adoption,
//! forecast quality, and backfilling flavour. Each sweep isolates one
//! knob of the §3 mechanisms and quantifies its trade-off curve.

use crate::experiments::ensure_horizon;
use crate::experiments::operations::OpsRow;
use crate::scenario::{run, Scenario};
use crate::sweep::{calibrated_trace, sweep};
use serde::{Deserialize, Serialize};
use sustain_grid::forecast::{Forecaster, HoltWinters, Persistence, SeasonalNaive};
use sustain_grid::region::{Region, RegionProfile};
use sustain_power::carbon_scaler::ScalingPolicy;
use sustain_power::pue::PueModel;
use sustain_scheduler::cluster::Cluster;
use sustain_scheduler::sim::{CarbonAwareCfg, CheckpointCfg, Policy};
use sustain_sim_core::ctl::RunCtl;
use sustain_sim_core::error::SimError;
use sustain_sim_core::time::SimDuration;
use sustain_sim_core::units::Power;
use sustain_workload::synth::WorkloadConfig;

fn ablation_cluster() -> Cluster {
    Cluster::new(512).with_idle_power(Power::from_watts(15.0))
}

fn ablation_workload() -> WorkloadConfig {
    WorkloadConfig {
        arrivals_per_hour: 4.0,
        max_nodes: 128,
        ..WorkloadConfig::default()
    }
}

fn row_from(label: String, r: &crate::scenario::ScenarioResult) -> OpsRow {
    OpsRow {
        label,
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

/// A1 — green-gate threshold sweep: deeper gates (lower threshold) chase
/// cleaner hours at the cost of longer waits.
pub fn green_threshold_sweep(
    region: Region,
    days: usize,
    seed: u64,
) -> Result<Vec<OpsRow>, SimError> {
    ensure_horizon("A1", days)?;
    let profile = RegionProfile::january_2023(region);
    sweep(&[0.80, 0.90, 0.95, 1.00, 1.05], |&threshold| {
        let scenario = Scenario {
            name: format!("A1-{threshold}"),
            cluster: ablation_cluster(),
            region: profile.clone(),
            days,
            workload: ablation_workload(),
            policy: Policy::CarbonAware(CarbonAwareCfg {
                green_threshold_fraction: threshold,
                short_job_cutoff: SimDuration::from_hours(2.0),
                max_delay: SimDuration::from_hours(36.0),
            }),
            queues: None,
            scaling: None,
            checkpoint: None,
            malleable: false,
            pue: PueModel::efficient_hpc(),
            seed,
        };
        let r = run(&scenario, &RunCtl::unlimited())?;
        Ok(row_from(format!("gate@{threshold:.2}"), &r))
    })
    .into_iter()
    .collect()
}

/// A2 — checkpoint-overhead sweep: as writing a checkpoint gets more
/// expensive, the net benefit of §3.3 suspend/resume shrinks.
pub fn checkpoint_overhead_sweep(
    region: Region,
    days: usize,
    seed: u64,
) -> Result<Vec<OpsRow>, SimError> {
    ensure_horizon("A2", days)?;
    let profile = RegionProfile::january_2023(region);
    let workload = WorkloadConfig {
        checkpointable_fraction: 1.0,
        ..ablation_workload()
    };
    sweep(&[1.0, 5.0, 30.0, 120.0], |&overhead_min| {
        let scenario = Scenario {
            name: format!("A2-{overhead_min}"),
            cluster: ablation_cluster(),
            region: profile.clone(),
            days,
            workload: workload.clone(),
            policy: Policy::EasyBackfill,
            queues: None,
            scaling: None,
            checkpoint: Some(CheckpointCfg {
                checkpoint_overhead: SimDuration::from_mins(overhead_min),
                restart_overhead: SimDuration::from_mins(overhead_min / 2.0),
                ..CheckpointCfg::default()
            }),
            malleable: false,
            pue: PueModel::efficient_hpc(),
            seed,
        };
        let r = run(&scenario, &RunCtl::unlimited())?;
        Ok(row_from(format!("ckpt-{overhead_min:.0}min"), &r))
    })
    .into_iter()
    .collect()
}

/// A3 — malleable-adoption sweep: violation time under a dropping power
/// budget as a function of the malleable job fraction.
pub fn malleable_fraction_sweep(
    region: Region,
    days: usize,
    seed: u64,
) -> Result<Vec<OpsRow>, SimError> {
    ensure_horizon("A3", days)?;
    let profile = RegionProfile::january_2023(region);
    let trace = calibrated_trace(&profile, days, seed);
    let threshold = ScalingPolicy::Threshold {
        floor: Power::from_kw(95.0),
        ceiling: Power::from_kw(285.0),
        threshold: trace.series().stats().mean(),
    };
    sweep(&[0.0, 0.25, 0.5, 0.75, 1.0], |&frac| {
        let scenario = Scenario {
            name: format!("A3-{frac}"),
            cluster: ablation_cluster(),
            region: profile.clone(),
            days,
            workload: WorkloadConfig {
                malleable_fraction: frac,
                ..ablation_workload()
            },
            policy: Policy::EasyBackfill,
            queues: None,
            scaling: Some(threshold.clone()),
            checkpoint: None,
            malleable: true,
            pue: PueModel::efficient_hpc(),
            seed,
        };
        let r = run(&scenario, &RunCtl::unlimited())?;
        Ok(row_from(format!("malleable-{:.0}%", frac * 100.0), &r))
    })
    .into_iter()
    .collect()
}

/// A4 — forecast-quality ablation for §3.1: the budget follows forecast
/// CI rather than live CI; better forecasters track the live-CI policy's
/// outcome more closely.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ForecastAblationRow {
    /// Forecaster label ("live" = oracle).
    pub label: String,
    /// Mean absolute budget deviation from the live-CI budget, kW.
    pub budget_mae_kw: f64,
    /// Effective CI paid by the scheduled workload, g/kWh.
    pub effective_job_ci: f64,
}

/// Runs A4.
pub fn forecast_scaling_ablation(
    region: Region,
    days: usize,
    seed: u64,
) -> Result<Vec<ForecastAblationRow>, SimError> {
    ensure_horizon("A4", days)?;
    let profile = RegionProfile::january_2023(region);
    let trace = calibrated_trace(&profile, days, seed);
    let mean_ci = trace.series().stats().mean();
    let policy = ScalingPolicy::Linear {
        floor: Power::from_kw(95.0),
        ceiling: Power::from_kw(285.0),
        ci_low: mean_ci * 0.8,
        ci_high: mean_ci * 1.2,
    };
    let live = policy.budget_series(&trace);

    let run_with = |label: &str, budget: &sustain_sim_core::series::TimeSeries| {
        let mae_kw = budget
            .values()
            .iter()
            .zip(live.values())
            .map(|(a, b)| (a - b).abs())
            .sum::<f64>()
            / live.len() as f64
            / 1000.0;
        let scenario = Scenario {
            name: format!("A4-{label}"),
            cluster: ablation_cluster(),
            region: profile.clone(),
            days,
            workload: WorkloadConfig {
                checkpointable_fraction: 0.8,
                ..ablation_workload()
            },
            policy: Policy::EasyBackfill,
            queues: None,
            scaling: None, // budget injected directly below
            checkpoint: Some(CheckpointCfg {
                suspend_threshold_fraction: f64::INFINITY,
                resume_threshold_fraction: f64::INFINITY,
                ..CheckpointCfg::default()
            }),
            malleable: false,
            pue: PueModel::efficient_hpc(),
            seed,
        };
        // Run via the simulator directly to inject the forecast budget.
        let jobs = sustain_workload::synth::generate(
            &scenario.workload,
            SimDuration::from_days(days as f64),
            seed.wrapping_add(1),
        );
        let cfg = sustain_scheduler::sim::SimConfig {
            cluster: scenario.cluster.clone(),
            policy: scenario.policy.clone(),
            queues: None,
            carbon_trace: Some((*trace).clone()),
            power_budget: Some(budget.clone()),
            checkpoint: scenario.checkpoint.clone(),
            fair_share: None,
            failures: None,
            enable_malleability: false,
            reshape_cost: SimDuration::from_secs(30.0),
            tick: SimDuration::from_hours(1.0),
            max_steps: 50_000_000,
        };
        let outcome = sustain_scheduler::sim::simulate(&jobs, &cfg);
        ForecastAblationRow {
            label: label.to_string(),
            budget_mae_kw: mae_kw,
            effective_job_ci: outcome.effective_job_ci,
        }
    };

    // Forecasting is stateful (`&mut dyn Forecaster`), so the budget
    // series are produced serially; the expensive scheduler runs then
    // fan out over the sweep driver.
    let mut forecasters: Vec<(&str, Box<dyn Forecaster>)> = vec![
        ("persistence", Box::new(Persistence::default())),
        ("seasonal-naive", Box::new(SeasonalNaive::daily())),
        ("holt-winters", Box::new(HoltWinters::daily_default())),
    ];
    let mut variants = vec![("live", live.clone())];
    for (label, fc) in forecasters.iter_mut() {
        variants.push((
            label,
            policy.budget_series_forecast(&trace, fc.as_mut(), 96),
        ));
    }
    Ok(sweep(&variants, |(label, budget)| run_with(label, budget)))
}

/// A5 — backfilling flavour: FCFS vs EASY vs conservative on the same
/// workload (no carbon coupling): the classic wait/utilization trade.
pub fn backfill_flavour_sweep(
    region: Region,
    days: usize,
    seed: u64,
) -> Result<Vec<OpsRow>, SimError> {
    ensure_horizon("A5", days)?;
    let profile = RegionProfile::january_2023(region);
    let flavours = [
        ("fcfs", Policy::Fcfs),
        ("easy", Policy::EasyBackfill),
        ("conservative", Policy::ConservativeBackfill),
    ];
    sweep(&flavours, |(label, policy)| {
        let scenario = Scenario {
            name: format!("A5-{label}"),
            cluster: ablation_cluster(),
            region: profile.clone(),
            days,
            workload: ablation_workload(),
            policy: policy.clone(),
            queues: None,
            scaling: None,
            checkpoint: None,
            malleable: false,
            pue: PueModel::efficient_hpc(),
            seed,
        };
        let r = run(&scenario, &RunCtl::unlimited())?;
        Ok(row_from(label.to_string(), &r))
    })
    .into_iter()
    .collect()
}

/// One row of the A6 failure-resilience sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FailureRow {
    /// Per-node MTBF, days (`None` = reliable hardware baseline).
    pub node_mtbf_days: Option<f64>,
    /// Whether jobs checkpoint periodically.
    pub checkpointing: bool,
    /// Jobs completed.
    pub completed: usize,
    /// Total restarts across all jobs.
    pub restarts: u32,
    /// Total compute time (including redone work), node-free hours proxy.
    pub compute_hours: f64,
    /// Makespan, days.
    pub makespan_days: f64,
}

/// A6 — checkpointing value under node failures: sweep the per-node MTBF
/// with and without periodic checkpointing. Without checkpoints, failures
/// force full reruns and wasted compute explodes as hardware degrades.
/// A6 needs no trace calibration, but a zero-day horizon generates an
/// empty workload and every row degenerates, so it is rejected as
/// invalid input.
pub fn failure_resilience_sweep(days: usize, seed: u64) -> Result<Vec<FailureRow>, SimError> {
    use sustain_scheduler::sim::{simulate, FailureModel, SimConfig};
    use sustain_sim_core::time::SimDuration as D;
    if days == 0 {
        return Err(SimError::invalid_input(
            "A6 days must be >= 1 (a zero-day horizon generates no workload)",
        ));
    }
    let workload = WorkloadConfig {
        arrivals_per_hour: 2.0,
        max_nodes: 64,
        checkpointable_fraction: 1.0,
        ..WorkloadConfig::default()
    };
    let jobs = sustain_workload::synth::generate(
        &workload,
        D::from_days(days as f64),
        seed.wrapping_add(1),
    );
    let combos: Vec<(Option<f64>, bool)> = [None, Some(120.0), Some(30.0), Some(10.0)]
        .iter()
        .flat_map(|&mtbf| [(mtbf, false), (mtbf, true)])
        .collect();
    Ok(sweep(&combos, |&(mtbf_days, checkpointing)| {
        let mut cfg = SimConfig::easy(ablation_cluster());
        if let Some(days) = mtbf_days {
            cfg.failures = Some(FailureModel {
                node_mtbf: D::from_days(days),
                mttr: D::from_hours(4.0),
                seed,
            });
        }
        if checkpointing {
            cfg.checkpoint = Some(CheckpointCfg {
                suspend_threshold_fraction: f64::INFINITY,
                resume_threshold_fraction: f64::INFINITY,
                ..CheckpointCfg::default()
            });
        }
        let jobs_variant: Vec<_> = jobs
            .iter()
            .cloned()
            .map(|mut j| {
                j.checkpointable = checkpointing;
                j
            })
            .collect();
        let out = simulate(&jobs_variant, &cfg);
        FailureRow {
            node_mtbf_days: mtbf_days,
            checkpointing,
            completed: out.records.len(),
            restarts: out.records.iter().map(|r| r.restarts).sum(),
            compute_hours: out
                .records
                .iter()
                .map(|r| r.compute_time().as_hours())
                .sum(),
            makespan_days: out.makespan.as_days(),
        }
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A6: reliability baseline has zero restarts; under failures,
    /// checkpointing cuts redone compute.
    #[test]
    fn a6_checkpointing_pays_off_under_failures() {
        let rows = failure_resilience_sweep(3, 13).unwrap();
        assert_eq!(rows.len(), 8);
        // Reliable hardware: no restarts either way.
        assert_eq!(rows[0].restarts, 0);
        assert_eq!(rows[1].restarts, 0);
        // Identical compute on reliable hardware.
        assert!((rows[0].compute_hours - rows[1].compute_hours).abs() < 1.0);
        // At the harshest MTBF, checkpointing wastes less compute than
        // full restarts.
        let plain = &rows[6];
        let ckpt = &rows[7];
        assert!(!plain.checkpointing && ckpt.checkpointing);
        assert!(plain.restarts > 0, "harsh MTBF must cause failures");
        assert!(
            ckpt.compute_hours < plain.compute_hours,
            "ckpt {} vs plain {}",
            ckpt.compute_hours,
            plain.compute_hours
        );
        assert_eq!(ckpt.completed, plain.completed);
    }

    /// A1: deeper gates buy more green energy at longer tail waits.
    #[test]
    fn a1_threshold_tradeoff() {
        let rows = green_threshold_sweep(Region::Finland, 7, 5).unwrap();
        assert_eq!(rows.len(), 5);
        // The deepest gate pays the lowest effective CI of the sweep.
        let deepest = &rows[0];
        let shallowest = &rows[4];
        assert!(
            deepest.effective_job_ci <= shallowest.effective_job_ci,
            "deepest {} vs shallowest {}",
            deepest.effective_job_ci,
            shallowest.effective_job_ci
        );
        // And a longer or equal tail wait.
        assert!(deepest.wait_p95_h >= shallowest.wait_p95_h * 0.99);
        // All complete the same workload.
        for r in &rows {
            assert_eq!(r.completed, rows[0].completed);
        }
    }

    /// A2: heavier checkpoints burn more energy for the same science.
    #[test]
    fn a2_checkpoint_overhead_costs_energy() {
        let rows = checkpoint_overhead_sweep(Region::Finland, 7, 5).unwrap();
        assert_eq!(rows.len(), 4);
        let cheap = &rows[0];
        let dear = &rows[3];
        assert!(
            dear.job_energy_kwh >= cheap.job_energy_kwh,
            "2h checkpoints ({}) should not use less energy than 1min ({})",
            dear.job_energy_kwh,
            cheap.job_energy_kwh
        );
    }

    /// A3: more malleable jobs → monotonically fewer budget violations.
    #[test]
    fn a3_malleability_cuts_violations() {
        let rows = malleable_fraction_sweep(Region::GreatBritain, 7, 7).unwrap();
        assert_eq!(rows.len(), 5);
        let first = rows.first().unwrap();
        let last = rows.last().unwrap();
        assert!(
            last.violation_s < first.violation_s * 0.7,
            "full malleability ({}) should cut violations vs none ({})",
            last.violation_s,
            first.violation_s
        );
    }

    /// A4: forecast-driven budgets approximate the live-CI policy; better
    /// forecasters deviate less.
    #[test]
    fn a4_forecast_quality_ordering() {
        let rows = forecast_scaling_ablation(Region::Finland, 7, 9).unwrap();
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].label, "live");
        assert_eq!(rows[0].budget_mae_kw, 0.0);
        for r in &rows[1..] {
            assert!(r.budget_mae_kw > 0.0);
            // Forecast errors are bounded by the budget span (190 kW).
            assert!(r.budget_mae_kw < 190.0);
        }
    }

    /// A5: EASY dominates FCFS on mean wait; conservative sits between on
    /// backfilling aggressiveness.
    #[test]
    fn a5_backfill_flavours() {
        let rows = backfill_flavour_sweep(Region::Germany, 7, 3).unwrap();
        let (fcfs, easy, cons) = (&rows[0], &rows[1], &rows[2]);
        assert!(easy.wait_p50_h <= fcfs.wait_p50_h * 1.001);
        assert!(cons.wait_p50_h <= fcfs.wait_p50_h * 1.001);
        for r in &rows {
            assert_eq!(r.completed, fcfs.completed);
        }
    }
}
