//! The `sim_loop` scenario corpus: fixed-seed, fixed-size simulator
//! scenarios shared by the `BENCH_sim.json` writer
//! (`examples/sim_timing.rs`) and the smoke tests below.
//!
//! Every scenario is deterministic (workload seed, trace shape, and
//! budget shape are all pinned), so wall-clock numbers measured on one
//! host are comparable across commits and `SimOutcome`s are comparable
//! byte-for-byte. The corpus covers each policy with and without the
//! carbon/failure machinery, the headline 365-day / 10k-job scenario
//! that exercises every hot-path feature at once, and a year of the
//! CLI `run` shape on 256 nodes, whose deep queue loads the backfill
//! walk.

use sustain_grid::trace::CarbonTrace;
use sustain_scheduler::cluster::Cluster;
use sustain_scheduler::sim::{CheckpointCfg, FailureModel, FairShareCfg, Policy, SimConfig};
use sustain_sim_core::series::TimeSeries;
use sustain_sim_core::time::{SimDuration, SimTime};
use sustain_workload::job::Job;
use sustain_workload::synth::{generate, WorkloadConfig};

/// Workload seed shared by every scenario (date the corpus was frozen).
pub(crate) const SEED: u64 = 20260805;

/// Scale of a scenario instantiation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmarked sizes (`BENCH_sim.json`).
    Full,
    /// Reduced horizons for the CI smoke test (seconds of wall time).
    Smoke,
}

/// One ready-to-run simulator scenario.
pub struct SimScenario {
    /// Stable scenario name (also the `BENCH_sim.json` key).
    pub name: &'static str,
    /// Pre-generated workload.
    pub jobs: Vec<Job>,
    /// Simulator configuration.
    pub cfg: SimConfig,
}

/// Deterministic synthetic carbon trace: diurnal + weekly swing over
/// 100–320 g/kWh, hourly buckets, long enough to cover queue drain.
fn bench_trace(days: usize) -> CarbonTrace {
    let n = days * 24 + 24 * 200;
    let values: Vec<f64> = (0..n)
        .map(|h| {
            let x = h as f64;
            200.0
                + 80.0 * (x * std::f64::consts::TAU / 24.0).sin()
                + 40.0 * (x * std::f64::consts::TAU / (24.0 * 7.0)).cos()
        })
        .collect();
    CarbonTrace::new(
        "bench-synthetic",
        TimeSeries::new(SimTime::ZERO, SimDuration::from_hours(1.0), values),
    )
}

/// Power budget alternating generous/tight 12-hour blocks.
fn bench_budget(days: usize, high_w: f64, low_w: f64) -> TimeSeries {
    let n = (days + 200) * 2;
    let values: Vec<f64> = (0..n)
        .map(|i| if i % 2 == 0 { high_w } else { low_w })
        .collect();
    TimeSeries::new(SimTime::ZERO, SimDuration::from_hours(12.0), values)
}

fn bench_failures() -> FailureModel {
    FailureModel {
        node_mtbf: SimDuration::from_days(200.0),
        mttr: SimDuration::from_hours(8.0),
        seed: 3,
    }
}

struct Shape {
    days: f64,
    arrivals_per_hour: f64,
    nodes: u32,
    max_nodes: u32,
    runtime_log_mean: f64,
    users: u32,
}

impl Shape {
    fn workload(&self, scale: Scale) -> Vec<Job> {
        let days = match scale {
            Scale::Full => self.days,
            Scale::Smoke => (self.days / 8.0).max(2.0),
        };
        let cfg = WorkloadConfig {
            arrivals_per_hour: self.arrivals_per_hour,
            max_nodes: self.max_nodes,
            checkpointable_fraction: 0.6,
            runtime_log_mean: self.runtime_log_mean,
            users: self.users,
            ..WorkloadConfig::default()
        };
        generate(&cfg, SimDuration::from_days(days), SEED)
    }

    fn trace_days(&self, scale: Scale) -> usize {
        match scale {
            Scale::Full => self.days as usize,
            Scale::Smoke => (self.days / 8.0).max(2.0) as usize,
        }
    }
}

/// The 60-day Fcfs/EASY shape: saturated but fully draining.
const MID: Shape = Shape {
    days: 60.0,
    arrivals_per_hour: 4.0,
    nodes: 96,
    max_nodes: 64,
    runtime_log_mean: 8.3,
    users: 50,
};

/// The fair-share shape: longer jobs, sustained congestion.
const FAIR: Shape = Shape {
    days: 60.0,
    arrivals_per_hour: 4.0,
    nodes: 96,
    max_nodes: 64,
    runtime_log_mean: 8.8,
    users: 50,
};

/// The many-user fair-share shape: the same sustained congestion as
/// [`FAIR`] but at a higher arrival rate spread over 400 distinct
/// users — ordering-maintenance cost scales with the number of users
/// whose usage changes, so this is the stress case for the incremental
/// fair-share fix-up path.
const FAIR_MANY: Shape = Shape {
    days: 60.0,
    arrivals_per_hour: 6.0,
    nodes: 96,
    max_nodes: 64,
    runtime_log_mean: 8.8,
    users: 400,
};

/// The conservative-backfill shape (O(queue²) planning: kept smaller).
const CONS: Shape = Shape {
    days: 21.0,
    arrivals_per_hour: 3.0,
    nodes: 64,
    max_nodes: 48,
    runtime_log_mean: 8.3,
    users: 50,
};

/// The headline shape: 365 days, ~10k jobs, overloaded 48-node system.
const FULL: Shape = Shape {
    days: 365.0,
    arrivals_per_hour: 1.15,
    nodes: 48,
    max_nodes: 48,
    runtime_log_mean: 9.2,
    users: 50,
};

/// Builds the whole corpus at the given scale.
pub fn scenarios(scale: Scale) -> Vec<SimScenario> {
    let mut out = Vec::new();

    for (name, policy, extras) in [
        ("fcfs_plain_60d", Policy::Fcfs, false),
        ("fcfs_carbon_failures_60d", Policy::Fcfs, true),
        ("easy_plain_60d", Policy::EasyBackfill, false),
        ("easy_carbon_failures_60d", Policy::EasyBackfill, true),
    ] {
        let mut cfg = SimConfig::easy(Cluster::new(MID.nodes));
        cfg.policy = policy;
        if extras {
            cfg.carbon_trace = Some(bench_trace(MID.trace_days(scale)));
            cfg.failures = Some(bench_failures());
            cfg.checkpoint = Some(CheckpointCfg::default());
        }
        out.push(SimScenario {
            name,
            jobs: MID.workload(scale),
            cfg,
        });
    }

    {
        let mut cfg = SimConfig::easy(Cluster::new(FAIR.nodes));
        cfg.carbon_trace = Some(bench_trace(FAIR.trace_days(scale)));
        cfg.fair_share = Some(FairShareCfg::default());
        out.push(SimScenario {
            name: "easy_carbon_fairshare_60d",
            jobs: FAIR.workload(scale),
            cfg,
        });
    }

    {
        let mut cfg = SimConfig::easy(Cluster::new(FAIR_MANY.nodes));
        cfg.carbon_trace = Some(bench_trace(FAIR_MANY.trace_days(scale)));
        cfg.fair_share = Some(FairShareCfg::default());
        out.push(SimScenario {
            name: "easy_carbon_fairshare_400u_60d",
            jobs: FAIR_MANY.workload(scale),
            cfg,
        });
    }

    for (name, extras) in [
        ("conservative_plain_21d", false),
        ("conservative_carbon_failures_21d", true),
    ] {
        let mut cfg = SimConfig::easy(Cluster::new(CONS.nodes));
        cfg.policy = Policy::ConservativeBackfill;
        if extras {
            cfg.carbon_trace = Some(bench_trace(CONS.trace_days(scale)));
            cfg.failures = Some(bench_failures());
            cfg.checkpoint = Some(CheckpointCfg::default());
        }
        out.push(SimScenario {
            name,
            jobs: CONS.workload(scale),
            cfg,
        });
    }

    {
        // The headline 365-day / 10k-job scenario: every hot-path
        // feature at once (trace accounting, fair share, tight power
        // budget with its long post-horizon tick tail, checkpointing).
        let mut cfg = SimConfig::easy(Cluster::new(FULL.nodes));
        cfg.carbon_trace = Some(bench_trace(FULL.trace_days(scale)));
        cfg.power_budget = Some(bench_budget(FULL.trace_days(scale), 40_000.0, 20_000.0));
        cfg.fair_share = Some(FairShareCfg::default());
        cfg.checkpoint = Some(CheckpointCfg::default());
        out.push(SimScenario {
            name: "easy_full_365d_10k",
            jobs: FULL.workload(scale),
            cfg,
        });
    }

    {
        // The first rung of a year-long ladder: the CLI `run` shape (the
        // default workload on 256 nodes) under plain EASY for 365 days.
        // Its deep queue loads the backfill walk.
        let days = match scale {
            Scale::Full => 365.0,
            Scale::Smoke => 365.0 / 8.0,
        };
        out.push(SimScenario {
            name: "easy_365d_256",
            jobs: generate(
                &WorkloadConfig::default(),
                SimDuration::from_days(days),
                SEED,
            ),
            cfg: SimConfig::easy(Cluster::new(256)),
        });
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sustain_scheduler::sim::simulate;

    /// CI smoke: every bench scenario builds, validates, and runs once
    /// at reduced scale, so the bench corpus cannot rot.
    #[test]
    fn smoke_all_scenarios_run() {
        for sc in scenarios(Scale::Smoke) {
            assert!(!sc.jobs.is_empty(), "{}: empty workload", sc.name);
            let out = simulate(&sc.jobs, &sc.cfg);
            assert!(!out.records.is_empty(), "{}: no job completed", sc.name);
        }
    }

    #[test]
    fn corpus_is_deterministic() {
        let a = scenarios(Scale::Smoke);
        let b = scenarios(Scale::Smoke);
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.jobs, y.jobs, "{}: workload not deterministic", x.name);
        }
    }

    /// Perf smoke for the incremental fair-share ordering: the fair-
    /// share corpus entries must finish with *zero* full resorts —
    /// ordering is maintained by dirty-user repositioning alone (the
    /// legacy `powf`-key regime, which would resort, is unreachable at
    /// bench half-lives and horizons) — while the recording-free passes
    /// register as skips. Catches both a silent fallback to the O(n
    /// log n) resort and a fix-up that stops skipping clean passes.
    #[test]
    fn fair_share_scenarios_avoid_full_resorts() {
        let mut saw_fair_share = false;
        for sc in scenarios(Scale::Smoke) {
            if sc.cfg.fair_share.is_none() {
                continue;
            }
            saw_fair_share = true;
            let hp = simulate(&sc.jobs, &sc.cfg).hot_path;
            assert_eq!(
                hp.resorts_taken, 0,
                "{}: fell back to full resorts",
                sc.name
            );
            assert!(
                hp.resorts_skipped > 0,
                "{}: no pass skipped the fix-up",
                sc.name
            );
            assert!(
                hp.fs_repositions > 0,
                "{}: no dirty job repositioned",
                sc.name
            );
            assert_eq!(hp.fs_renorms, 0, "{}: unexpected epoch renorm", sc.name);
        }
        assert!(saw_fair_share, "corpus lost its fair-share scenarios");
    }

    /// Perf smoke for the backfill skip: on every EASY scenario the walk
    /// examines at most a quarter of the pending entries it passes over.
    /// The rest need more nodes than are free and are skipped in bulk.
    /// Catches a walk that falls back to visiting every entry.
    #[test]
    fn easy_backfill_examines_only_jobs_that_can_fit() {
        let mut saw_easy = false;
        for sc in scenarios(Scale::Smoke) {
            if !matches!(sc.cfg.policy, Policy::EasyBackfill) {
                continue;
            }
            saw_easy = true;
            let hp = simulate(&sc.jobs, &sc.cfg).hot_path;
            assert!(hp.backfill_scanned > 0, "{}: no backfill walk", sc.name);
            assert!(
                hp.backfill_visits * 4 <= hp.backfill_scanned,
                "{}: examined {} of {} pending entries",
                sc.name,
                hp.backfill_visits,
                hp.backfill_scanned
            );
        }
        assert!(saw_easy, "corpus lost its EASY scenarios");
    }

    /// Perf smoke for the time skip: on every EASY scenario the walk
    /// examines at most a sixteenth of the pending entries it passes over
    /// (0.046 at worst at smoke scale, the power budget's refusals). The
    /// rest cannot start: they need more nodes than are free, or would
    /// outlive the shadow on more nodes than are spare. Catches a walk
    /// that skips by nodes alone (0.059 to 0.117; five of the six
    /// scenarios then exceed a sixteenth).
    #[test]
    fn easy_backfill_visits_only_jobs_that_can_start() {
        let mut saw_easy = false;
        for sc in scenarios(Scale::Smoke) {
            if !matches!(sc.cfg.policy, Policy::EasyBackfill) {
                continue;
            }
            saw_easy = true;
            let hp = simulate(&sc.jobs, &sc.cfg).hot_path;
            assert!(hp.backfill_scanned > 0, "{}: no backfill walk", sc.name);
            assert!(
                hp.backfill_visits * 16 <= hp.backfill_scanned,
                "{}: examined {} of {} pending entries",
                sc.name,
                hp.backfill_visits,
                hp.backfill_scanned
            );
        }
        assert!(saw_easy, "corpus lost its EASY scenarios");
    }

    /// Perf smoke for the conservative exit: on every conservative
    /// scenario the plan places under two thirds of the entries pending
    /// at its rounds' starts (about 0.45 at smoke scale). Each round stops
    /// after the last entry that could start now. Catches a plan that
    /// falls back to placing every entry (about 0.85: a round that starts
    /// a job still ends there).
    #[test]
    fn conservative_plan_stops_when_nothing_fits() {
        let mut saw_conservative = false;
        for sc in scenarios(Scale::Smoke) {
            if !matches!(sc.cfg.policy, Policy::ConservativeBackfill) {
                continue;
            }
            saw_conservative = true;
            let hp = simulate(&sc.jobs, &sc.cfg).hot_path;
            assert!(hp.backfill_scanned > 0, "{}: no plan round", sc.name);
            assert!(
                hp.backfill_visits * 3 < hp.backfill_scanned * 2,
                "{}: placed {} of {} pending entries",
                sc.name,
                hp.backfill_visits,
                hp.backfill_scanned
            );
        }
        assert!(saw_conservative, "corpus lost its conservative scenarios");
    }

    /// Perf smoke for the kept conservative plan: on every conservative
    /// scenario the passes place under a third of the entries pending at
    /// their starts (about 0.13 and 0.17 at smoke scale). Entries whose
    /// reservations no event can have moved keep them between passes.
    /// Catches a plan that is rebuilt at every pass (about 0.56 and
    /// 0.54).
    #[test]
    fn conservative_plan_persists_across_passes() {
        let mut saw_conservative = false;
        for sc in scenarios(Scale::Smoke) {
            if !matches!(sc.cfg.policy, Policy::ConservativeBackfill) {
                continue;
            }
            saw_conservative = true;
            let hp = simulate(&sc.jobs, &sc.cfg).hot_path;
            assert!(hp.backfill_scanned > 0, "{}: no plan pass", sc.name);
            assert!(
                hp.backfill_visits * 3 < hp.backfill_scanned,
                "{}: placed {} of {} pending entries",
                sc.name,
                hp.backfill_visits,
                hp.backfill_scanned
            );
        }
        assert!(saw_conservative, "corpus lost its conservative scenarios");
    }
}
