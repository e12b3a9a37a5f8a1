//! End-to-end integration across the whole stack: grid → PowerStack →
//! scheduler → telemetry, checking cross-crate consistency that no single
//! crate's unit tests can see.

use sustain_hpc::core::prelude::*;
use sustain_hpc::telemetry::accounting::{aggregate_by_user, profile_job, site_account};
use sustain_hpc::telemetry::incentive::IncentiveScheme;

fn scenario(region: Region, days: usize) -> Scenario {
    let mut s = Scenario::baseline("e2e", RegionProfile::january_2023(region), days);
    s.cluster = Cluster::new(600);
    s
}

/// Energy conservation: the sum of per-job profile energies equals the
/// scheduler outcome's job energy; per-user accounts re-sum to the site
/// account.
#[test]
fn energy_accounting_is_consistent_across_layers() {
    let r = run(&scenario(Region::Germany, 5), &RunCtl::unlimited()).unwrap();
    let profile_sum: f64 = r.profiles.iter().map(|p| p.energy.kwh()).sum();
    assert!(
        (profile_sum - r.outcome.job_energy.kwh()).abs() < 1e-6 * profile_sum.max(1.0),
        "profiles {} vs outcome {}",
        profile_sum,
        r.outcome.job_energy.kwh()
    );
    let by_user = aggregate_by_user(&r.profiles);
    let user_sum: f64 = by_user.values().map(|a| a.energy.kwh()).sum();
    assert!((user_sum - r.site.energy.kwh()).abs() < 1e-6 * user_sum.max(1.0));
    let site = site_account(&r.profiles);
    assert_eq!(site.jobs, r.profiles.len());
}

/// Carbon conservation: job carbon + idle carbon equals the outcome's
/// total, and the effective CI lies within the trace's range.
#[test]
fn carbon_accounting_is_consistent() {
    let r = run(&scenario(Region::Finland, 5), &RunCtl::unlimited()).unwrap();
    let profile_carbon: f64 = r.profiles.iter().map(|p| p.carbon.grams()).sum();
    let job_carbon = r.outcome.carbon.grams() - (r.outcome.carbon.grams() - profile_carbon);
    assert!(job_carbon <= r.outcome.carbon.grams());
    // Effective CI must lie within the physical range of the trace.
    let trace = generate_calibrated(&RegionProfile::january_2023(Region::Finland), 5, 2023);
    let (lo, hi) = (trace.series().min(), trace.series().max());
    assert!(
        r.outcome.effective_job_ci >= lo && r.outcome.effective_job_ci <= hi,
        "effective CI {} outside [{lo}, {hi}]",
        r.outcome.effective_job_ci
    );
}

/// The same jobs under FCFS, EASY, and carbon-aware EASY: EASY never
/// loses to FCFS on mean wait; all policies complete the same job set;
/// total job energy is identical (the work does not change).
#[test]
fn policies_complete_same_work() {
    let region = RegionProfile::january_2023(Region::GreatBritain);
    let mut results = Vec::new();
    for policy in [
        Policy::Fcfs,
        Policy::EasyBackfill,
        Policy::CarbonAware(CarbonAwareCfg::default()),
    ] {
        let mut s = scenario(Region::GreatBritain, 5);
        s.region = region.clone();
        s.policy = policy;
        results.push(run(&s, &RunCtl::unlimited()).unwrap());
    }
    let (fcfs, easy, carbon) = (&results[0], &results[1], &results[2]);
    assert_eq!(fcfs.outcome.records.len(), easy.outcome.records.len());
    assert_eq!(easy.outcome.records.len(), carbon.outcome.records.len());
    for r in &results {
        assert_eq!(r.outcome.unfinished, 0);
    }
    // Same work → same job energy (independent of ordering).
    assert!((fcfs.outcome.job_energy.kwh() - easy.outcome.job_energy.kwh()).abs() < 1e-3);
    assert!((easy.outcome.job_energy.kwh() - carbon.outcome.job_energy.kwh()).abs() < 1e-3);
    // Backfilling helps (or at worst ties) mean wait.
    assert!(easy.outcome.wait.mean <= fcfs.outcome.wait.mean * 1.0001);
}

/// Under a power budget, measured power stays within the budget at all
/// scheduling decisions (violations only from budget *drops* mid-job, and
/// with rigid jobs they are bounded).
#[test]
fn power_budget_respected_at_starts() {
    let mut s = scenario(Region::Finland, 5);
    s.scaling = Some(ScalingPolicy::Static {
        budget: Power::from_kw(120.0),
    });
    let r = run(&s, &RunCtl::unlimited()).unwrap();
    // Static budget → zero violations ever.
    assert_eq!(r.outcome.budget_violation_seconds, 0.0);
    // No instant may have running power above budget: check segment-wise.
    // Sum power of overlapping segments at each segment start.
    let mut events: Vec<(f64, f64)> = Vec::new(); // (time, +/- power)
    for rec in &r.outcome.records {
        for seg in &rec.segments {
            events.push((seg.start.as_secs(), seg.power.watts()));
            events.push((seg.end.as_secs(), -seg.power.watts()));
        }
    }
    events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
    let mut power = 0.0;
    for (_, dp) in events {
        power += dp;
        assert!(power <= 120_000.0 * 1.0001, "instantaneous power {power} W");
    }
}

/// The reconstructed power profile never exceeds a static budget — the
/// time-resolved version of the budget invariant.
#[test]
fn power_profile_respects_static_budget() {
    use sustain_hpc::scheduler::metrics::power_profile;
    let mut s = scenario(Region::Finland, 5);
    s.scaling = Some(ScalingPolicy::Static {
        budget: Power::from_kw(120.0),
    });
    let r = run(&s, &RunCtl::unlimited()).unwrap();
    let horizon = r.outcome.makespan;
    let profile = power_profile(&r.outcome.records, SimDuration::from_mins(10.0), horizon);
    for (i, &w) in profile.values().iter().enumerate() {
        assert!(
            w <= 120_000.0 * 1.0001,
            "bucket {i}: mean power {w} W exceeds the 120 kW budget"
        );
    }
    // The profile integrates back to the job energy.
    let profile_kwh: f64 = profile
        .values()
        .iter()
        .map(|w| w * profile.step().as_secs() / 3.6e6)
        .sum();
    assert!(
        (profile_kwh - r.outcome.job_energy.kwh()).abs() < 0.01 * profile_kwh.max(1.0),
        "profile {} kWh vs outcome {} kWh",
        profile_kwh,
        r.outcome.job_energy.kwh()
    );
}

/// Carbon-aware gating lowers the effective carbon intensity paid
/// relative to EASY on a volatile grid (the central §3.3 claim, checked
/// end-to-end with billing).
#[test]
fn carbon_gate_reduces_effective_ci_and_bills_less_green_hours() {
    let mut easy = scenario(Region::Finland, 7);
    easy.policy = Policy::EasyBackfill;
    let mut gated = scenario(Region::Finland, 7);
    gated.policy = Policy::CarbonAware(CarbonAwareCfg::default());
    let re = run(&easy, &RunCtl::unlimited()).unwrap();
    let rg = run(&gated, &RunCtl::unlimited()).unwrap();
    assert!(
        rg.outcome.effective_job_ci < re.outcome.effective_job_ci,
        "gated {} vs easy {}",
        rg.outcome.effective_job_ci,
        re.outcome.effective_job_ci
    );
    // Billing: gated jobs accumulate more green node-hours.
    let trace = generate_calibrated(&RegionProfile::january_2023(Region::Finland), 7, 2023);
    let det = GreenDetector::default();
    let scheme = IncentiveScheme::default();
    let green_nh = |res: &ScenarioResult| {
        res.outcome
            .records
            .iter()
            .map(|rec| scheme.bill(rec, &trace, &det).green_node_hours)
            .sum::<f64>()
    };
    assert!(green_nh(&rg) > green_nh(&re));
}

/// Suspending via checkpoints preserves total work: the checkpointed run
/// completes every job, with compute time ≥ the uninterrupted runtime.
#[test]
fn checkpointing_preserves_completion() {
    let mut s = scenario(Region::Finland, 7);
    s.workload.checkpointable_fraction = 1.0;
    s.checkpoint = Some(CheckpointCfg::default());
    s.policy = Policy::EasyBackfill;
    let r = run(&s, &RunCtl::unlimited()).unwrap();
    assert_eq!(r.outcome.unfinished, 0);
    let suspended_jobs = r
        .outcome
        .records
        .iter()
        .filter(|rec| rec.suspensions > 0)
        .count();
    assert!(
        suspended_jobs > 0,
        "volatile grid should trigger suspensions"
    );
    for rec in &r.outcome.records {
        if rec.suspensions > 0 {
            assert!(rec.segments.len() >= 2);
            assert!(rec.span() > rec.compute_time());
        }
    }
}

/// Profile green-share and effective CI are mutually consistent: jobs
/// with 100 % green energy must pay below-mean CI.
#[test]
fn green_jobs_pay_less() {
    let r = run(&scenario(Region::Finland, 7), &RunCtl::unlimited()).unwrap();
    let trace = generate_calibrated(&RegionProfile::january_2023(Region::Finland), 7, 2023);
    let mean = trace.series().stats().mean();
    for p in &r.profiles {
        if p.green_energy_fraction > 0.999 && p.energy.kwh() > 0.0 {
            assert!(
                p.effective_ci < mean,
                "all-green job pays {} vs mean {mean}",
                p.effective_ci
            );
        }
    }
}

/// Re-profiling records through the telemetry layer yields the stored
/// profiles (the scenario runner and a downstream consumer agree).
#[test]
fn reprofile_matches_scenario_profiles() {
    let s = scenario(Region::Germany, 3);
    let r = run(&s, &RunCtl::unlimited()).unwrap();
    let trace = generate_calibrated(&s.region, s.days, s.seed);
    let det = GreenDetector::default();
    for (rec, stored) in r.outcome.records.iter().zip(&r.profiles) {
        let fresh = profile_job(rec, &trace, &det);
        assert_eq!(fresh.id, stored.id);
        assert!((fresh.carbon.grams() - stored.carbon.grams()).abs() < 1e-9);
        assert!((fresh.green_energy_fraction - stored.green_energy_fraction).abs() < 1e-12);
    }
}
