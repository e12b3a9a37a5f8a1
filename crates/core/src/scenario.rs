//! End-to-end scenario runner: region → carbon trace → power budget →
//! scheduled workload → carbon accounting.
//!
//! A [`Scenario`] wires the whole stack together the way the paper's §3
//! envisions: the grid substrate supplies intensity, the PowerStack's
//! scaling policy turns it into a system power budget, the RJMS schedules
//! a workload under that budget, and the telemetry layer attributes
//! energy and carbon back to jobs, users, and the facility.

use crate::cache::{global_outcome_cache, OutcomeKey};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use sustain_grid::green::GreenDetector;
use sustain_grid::region::RegionProfile;
use sustain_grid::synth::generate_calibrated_arc;
use sustain_power::carbon_scaler::ScalingPolicy;
use sustain_power::pue::PueModel;
use sustain_scheduler::cluster::Cluster;
use sustain_scheduler::metrics::SimOutcome;
use sustain_scheduler::sim::{simulate_with_ctl, CheckpointCfg, Policy, SimConfig};
use sustain_sim_core::ctl::RunCtl;
use sustain_sim_core::error::{ensure_at_least, ConfigError, SimError, Validate};
use sustain_sim_core::hash::{CanonicalHash, CanonicalHasher};
use sustain_sim_core::time::{SimDuration, SimTime};
use sustain_sim_core::units::Carbon;
use sustain_telemetry::accounting::{profile_job, site_account, JobCarbonProfile, SiteAccount};
use sustain_workload::synth::{generate_arc, WorkloadConfig};

/// A complete simulation scenario.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Scenario name (used in reports).
    pub name: String,
    /// The cluster.
    pub cluster: Cluster,
    /// Regional grid profile.
    pub region: RegionProfile,
    /// Simulated days of grid data (the workload spans the same window).
    pub days: usize,
    /// Workload generator configuration.
    pub workload: WorkloadConfig,
    /// Scheduling policy.
    pub policy: Policy,
    /// Multi-queue admission/priority configuration (§3.4); `None` = one
    /// FIFO queue.
    pub queues: Option<sustain_scheduler::queue::QueueSet>,
    /// Carbon-aware power-budget scaling (None = unlimited power).
    pub scaling: Option<ScalingPolicy>,
    /// Carbon-aware checkpointing.
    pub checkpoint: Option<CheckpointCfg>,
    /// Enable malleable reshaping.
    pub malleable: bool,
    /// Facility overhead model.
    pub pue: PueModel,
    /// Master seed (grid and workload derive sub-seeds).
    pub seed: u64,
}

impl Scenario {
    /// A baseline scenario: EASY backfilling, no power coupling, in the
    /// given region.
    pub fn baseline(name: impl Into<String>, region: RegionProfile, days: usize) -> Scenario {
        Scenario {
            name: name.into(),
            cluster: Cluster::new(256),
            region,
            days,
            workload: WorkloadConfig::default(),
            policy: Policy::EasyBackfill,
            queues: None,
            scaling: None,
            checkpoint: None,
            malleable: false,
            pue: PueModel::efficient_hpc(),
            seed: 2023,
        }
    }
}

impl CanonicalHash for Scenario {
    fn canonical_hash_into(&self, hasher: &mut CanonicalHasher) {
        hasher.write_str(&self.name);
        self.cluster.canonical_hash_into(hasher);
        self.region.canonical_hash_into(hasher);
        hasher.write_usize(self.days);
        self.workload.canonical_hash_into(hasher);
        self.policy.canonical_hash_into(hasher);
        self.queues.canonical_hash_into(hasher);
        self.scaling.canonical_hash_into(hasher);
        self.checkpoint.canonical_hash_into(hasher);
        hasher.write_bool(self.malleable);
        self.pue.canonical_hash_into(hasher);
        hasher.write_u64(self.seed);
    }
}

impl Validate for Scenario {
    fn validate(&self) -> Result<(), ConfigError> {
        ensure_at_least("Scenario", "days", self.days, 1)?;
        // Calibration rescales the spread of *daily means*, which needs
        // at least two days whenever the profile has synoptic variance.
        if self.region.synoptic_std > 0.0 && self.days < 2 {
            return Err(ConfigError::new(
                "Scenario",
                "days",
                "must be >= 2 to calibrate a region with synoptic variance",
            ));
        }
        ensure_at_least("Scenario", "cluster.nodes", self.cluster.nodes as usize, 1)?;
        self.region.validate().map_err(|e| e.nested("Scenario"))?;
        self.workload.validate().map_err(|e| e.nested("Scenario"))?;
        self.policy.validate().map_err(|e| e.nested("Scenario"))?;
        self.queues.validate().map_err(|e| e.nested("Scenario"))?;
        self.scaling.validate().map_err(|e| e.nested("Scenario"))?;
        self.checkpoint
            .validate()
            .map_err(|e| e.nested("Scenario"))?;
        Ok(())
    }
}

/// Everything a scenario run produces.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScenarioResult {
    /// Scenario name.
    pub name: String,
    /// Scheduling outcome (records, waits, utilization, energy, carbon).
    pub outcome: SimOutcome,
    /// Per-job carbon profiles.
    pub profiles: Vec<JobCarbonProfile>,
    /// Site-level account.
    pub site: SiteAccount,
    /// IT carbon scaled by the facility PUE.
    pub facility_carbon: Carbon,
    /// Mean grid intensity over the window, g/kWh.
    pub grid_mean_ci: f64,
}

/// Runs a scenario: validates its whole configuration tree, then serves
/// the result from the outcome cache or computes and caches it.
///
/// An invalid scenario is a typed [`SimError`] before any cache lookup
/// or simulation work. `ctl` is checked before the (potentially
/// cache-filling) trace generation and at bucket granularity inside the
/// event loop; a fired control returns [`SimError::Cancelled`] stamped
/// with the simulation time reached. Trusted callers pass
/// [`RunCtl::unlimited`], whose check is two `None` tests.
pub fn run(scenario: &Scenario, ctl: &RunCtl) -> Result<Arc<ScenarioResult>, SimError> {
    scenario.validate()?;
    sustain_sim_core::faultpoint!(infallible "scenario::run");
    ctl.check(SimTime::ZERO)?;
    // Whole-result memoization: simulation is pure in the scenario value
    // (seed included), so a completed result can be replayed verbatim. A
    // hit hands out the cache's shared Arc, the very value the cold run
    // that filled it returned, so nothing is copied. Cancelled/failed
    // runs never reach the insert below, so only values of the pure
    // function are ever served.
    let cache = global_outcome_cache();
    let key = OutcomeKey::new(scenario);
    if let Some(hit) = cache.lookup(&key) {
        return Ok(hit);
    }
    sustain_sim_core::faultpoint!(infallible "scenario::outcome_fill");
    let result = compute_scenario(scenario, ctl)?;
    Ok(cache.insert(key, Arc::new(result)))
}

/// The actual (uncached) scenario computation: trace → workload →
/// schedule → carbon accounting.
fn compute_scenario(scenario: &Scenario, ctl: &RunCtl) -> Result<ScenarioResult, SimError> {
    // Served from the process-wide trace cache: every point of a sweep
    // that shares this (region, days, seed) window reuses one trace.
    let trace = generate_calibrated_arc(&scenario.region, scenario.days, scenario.seed);
    let horizon = SimDuration::from_days(scenario.days as f64);
    // Likewise the workload cache: sweeps that vary only policy or budget
    // parameters reuse one synthesized job set.
    let jobs = generate_arc(&scenario.workload, horizon, scenario.seed.wrapping_add(1));

    let power_budget = scenario.scaling.as_ref().map(|p| p.budget_series(&trace));
    let cfg = SimConfig {
        cluster: scenario.cluster.clone(),
        policy: scenario.policy.clone(),
        queues: scenario.queues.clone(),
        carbon_trace: Some((*trace).clone()),
        power_budget,
        checkpoint: scenario.checkpoint.clone(),
        fair_share: None,
        failures: None,
        enable_malleability: scenario.malleable,
        reshape_cost: SimDuration::from_secs(30.0),
        tick: SimDuration::from_hours(1.0),
        max_steps: 50_000_000,
    };
    let outcome = simulate_with_ctl(&jobs, &cfg, ctl)?;

    let detector = GreenDetector::default();
    let profiles: Vec<JobCarbonProfile> = outcome
        .records
        .iter()
        .map(|r| profile_job(r, &trace, &detector))
        .collect();
    let site = site_account(&profiles);

    // Facility carbon: IT carbon (jobs + idle) multiplied by the effective
    // PUE at the run's mean IT power.
    let total_it_energy = outcome.job_energy + outcome.idle_energy;
    let mean_it_power = if outcome.makespan.as_secs() > 0.0 {
        total_it_energy.over_duration(outcome.makespan - sustain_sim_core::time::SimTime::ZERO)
    } else {
        sustain_sim_core::units::Power::ZERO
    };
    let pue = if mean_it_power.watts() > 0.0 {
        scenario.pue.pue_at(mean_it_power)
    } else {
        1.0
    };
    let facility_carbon = outcome.carbon * pue;
    let grid_mean_ci = trace.series().stats().mean();

    Ok(ScenarioResult {
        name: scenario.name.clone(),
        outcome,
        profiles,
        site,
        facility_carbon,
        grid_mean_ci,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sustain_grid::region::Region;

    fn run_unlimited(scenario: &Scenario) -> Arc<ScenarioResult> {
        run(scenario, &RunCtl::unlimited()).unwrap()
    }

    fn small_scenario() -> Scenario {
        let mut s = Scenario::baseline("test", RegionProfile::january_2023(Region::Germany), 7);
        s.cluster = Cluster::new(600);
        s
    }

    #[test]
    fn baseline_scenario_completes() {
        let r = run_unlimited(&small_scenario());
        assert_eq!(r.outcome.unfinished, 0);
        assert!(!r.profiles.is_empty());
        assert_eq!(r.profiles.len(), r.outcome.records.len());
        assert!(r.site.energy.kwh() > 0.0);
        assert!(r.facility_carbon > r.outcome.carbon);
        assert!(r.grid_mean_ci > 0.0);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = run_unlimited(&small_scenario());
        let b = run_unlimited(&small_scenario());
        assert_eq!(a.outcome.makespan, b.outcome.makespan);
        assert_eq!(a.site.carbon.grams(), b.site.carbon.grams());
    }

    #[test]
    fn run_accepts_valid_and_rejects_invalid() {
        let ctl = RunCtl::unlimited();
        let ok = {
            let mut s = small_scenario();
            s.days = 3;
            s
        };
        assert!(run(&ok, &ctl).is_ok());

        let mut zero_days = small_scenario();
        zero_days.days = 0;
        let err = run(&zero_days, &ctl).unwrap_err();
        assert!(err.to_string().contains("Scenario.days"), "{err}");

        // Cluster::new(0) asserts; a deserialized config could still
        // carry zero nodes, so build the degenerate value directly.
        let mut empty_cluster = small_scenario();
        empty_cluster.cluster = Cluster {
            nodes: 0,
            idle_node_power: sustain_sim_core::units::Power::ZERO,
        };
        assert!(run(&empty_cluster, &ctl).is_err());

        let mut bad_workload = small_scenario();
        bad_workload.workload.arrivals_per_hour = f64::NAN;
        let err = run(&bad_workload, &ctl).unwrap_err();
        assert!(err.to_string().contains("arrivals_per_hour"), "{err}");

        let mut one_day_synoptic = small_scenario();
        one_day_synoptic.days = 1;
        assert!(
            one_day_synoptic.region.synoptic_std > 0.0,
            "profile must exercise the calibration guard"
        );
        assert!(run(&one_day_synoptic, &ctl).is_err());
    }

    /// Validation precedes the outcome-cache lookup: an invalid scenario
    /// is rejected with a typed error even when a result sits under its
    /// key, and counts neither a hit nor a miss. Sibling tests share the
    /// process-wide cache, so one attempt whose window saw no foreign
    /// traffic suffices for the counters.
    #[test]
    fn invalid_scenarios_are_rejected_before_the_cache_lookup() {
        let mut s = small_scenario();
        s.days = 3;
        s.seed = 0xCAFE_0004;
        let planted = run_unlimited(&s);
        s.days = 0;
        let cache = global_outcome_cache();
        cache.insert(OutcomeKey::new(&s), planted);
        let untouched = (0..100).any(|_| {
            let before = cache.stats();
            let err = run(&s, &RunCtl::unlimited()).unwrap_err();
            assert!(matches!(err, SimError::Config(_)), "{err}");
            let after = cache.stats();
            (after.hits, after.misses) == (before.hits, before.misses)
        });
        assert!(untouched, "an invalid scenario reached the outcome cache");
    }

    #[test]
    fn outcome_cache_hit_is_byte_equal_to_cold_run() {
        let mut s = small_scenario();
        s.days = 3;
        s.seed = 0xCAFE_0001; // unique to this test: no cross-test interference
        let cache = global_outcome_cache();
        let before = cache.stats();
        let cold = run_unlimited(&s);
        let warm = run_unlimited(&s);
        let after = cache.stats();
        assert!(after.hits > before.hits, "second run must hit");
        let cold_json = serde_json::to_string(&cold).unwrap();
        let warm_json = serde_json::to_string(&warm).unwrap();
        assert_eq!(cold_json, warm_json, "hit must be byte-equal to cold run");
    }

    #[test]
    fn outcome_cache_distinguishes_any_field_change() {
        let mut s = small_scenario();
        s.days = 3;
        s.seed = 0xCAFE_0002;
        let base = OutcomeKey::new(&s);
        let mut renamed = s.clone();
        renamed.name = "other".into();
        assert_ne!(base, OutcomeKey::new(&renamed));
        let mut reseeded = s.clone();
        reseeded.seed += 1;
        assert_ne!(base, OutcomeKey::new(&reseeded));
        let mut repoliced = s.clone();
        repoliced.policy = Policy::Fcfs;
        assert_ne!(base, OutcomeKey::new(&repoliced));
        assert_eq!(base, OutcomeKey::new(&s.clone()));
    }

    #[test]
    fn cancelled_runs_are_never_cached() {
        use sustain_sim_core::ctl::CancelToken;
        let mut s = small_scenario();
        s.days = 3;
        s.seed = 0xCAFE_0003;
        let token = CancelToken::new();
        token.cancel("pre-cancelled");
        let ctl = RunCtl::unlimited().with_token(token);
        let err = run(&s, &ctl).unwrap_err();
        assert!(matches!(err, SimError::Cancelled { .. }));
        let key = OutcomeKey::new(&s);
        assert!(
            global_outcome_cache().lookup(&key).is_none(),
            "a cancelled run must not populate the cache"
        );
    }

    #[test]
    fn carbon_scales_with_grid_intensity() {
        let clean = {
            let mut s = small_scenario();
            s.region = RegionProfile::january_2023(Region::Norway);
            run_unlimited(&s)
        };
        let dirty = {
            let mut s = small_scenario();
            s.region = RegionProfile::january_2023(Region::Poland);
            run_unlimited(&s)
        };
        // Same workload, same energy — carbon tracks the grid.
        assert!((clean.site.energy.kwh() - dirty.site.energy.kwh()).abs() < 1.0);
        assert!(dirty.site.carbon.grams() > 4.0 * clean.site.carbon.grams());
    }
}
