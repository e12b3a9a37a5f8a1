//! Integration tests for the extension layers: site lifetime reports,
//! the Countdown runtime, seasonal grids, DRAM reuse, and conservative
//! backfilling — exercised through the
//! public API end to end.

use sustain_hpc::carbon_model::lifecycle::dram_reuse_into_successor;
use sustain_hpc::core::prelude::*;
use sustain_hpc::core::{lifetime_report, Site};
use sustain_hpc::grid::seasonal::{generate_year, monthly_means, SeasonalShape};
use sustain_hpc::workload::phases::{run_phases, synth_phases, CountdownGovernor, CpuFreqModel};

/// Site reports, the §2 dominance claim, and Carbon500 agree on the
/// ordering of sitings.
#[test]
fn site_reports_consistent_with_dominance_claim() {
    let lrz = lifetime_report(&Site::lrz_like());
    assert!(lrz.embodied_share > 0.5);
    let dominance = lrz_embodied_dominance();
    // Same machine, same lifetime: the site report's totals must be close
    // to the static dominance computation (within utilization and PUE).
    assert!((lrz.embodied_t - dominance.embodied_t).abs() < 1.0);
    // Operational at 85 % utilization + PUE vs 100 % flat: same magnitude.
    assert!(lrz.operational_t > 0.5 * dominance.operational_hydro_t);
    assert!(lrz.operational_t < 1.5 * dominance.operational_hydro_t);
}

/// Countdown on a scheduled cluster's typical app profile: savings exist
/// and wall time is untouched (the §3.4 "performance-neutral" property).
#[test]
fn countdown_performance_neutral_savings() {
    let phases = synth_phases(1_000, 10.0, 0.35, 11);
    let cpu = CpuFreqModel::default();
    let on = run_phases(&phases, &cpu, &CountdownGovernor::default());
    let off = run_phases(
        &phases,
        &cpu,
        &CountdownGovernor {
            enabled: false,
            ..CountdownGovernor::default()
        },
    );
    assert_eq!(on.wall_time, off.wall_time);
    let saving = 1.0 - on.energy.joules() / off.energy.joules();
    assert!(saving > 0.1, "saving {saving}");
}

/// Seasonal year + site report: a solar-heavy site's summer months emit
/// less than its winter months.
#[test]
fn seasonal_structure_visible_in_year() {
    let profile = RegionProfile::january_2023(Region::Spain);
    let year = generate_year(&profile, &SeasonalShape::solar_heavy(), 3);
    let means = monthly_means(&year);
    let winter = (means[0].1 + means[11].1) / 2.0;
    let summer = (means[5].1 + means[6].1 + means[7].1) / 3.0;
    assert!(summer < 0.85 * winter, "summer {summer} vs winter {winter}");
}

/// DDR4→DDR5 reuse is worth a material share of a successor's DRAM
/// footprint (the ref [38] claim at SuperMUC-NG scale).
#[test]
fn dram_reuse_material_savings() {
    let out = dram_reuse_into_successor(0.72e6, 0.9, 1.0e6);
    assert!(out.net_savings().tons() > 50.0);
    assert!(out.covered_fraction > 0.6);
}

/// Conservative backfilling completes the same workload as EASY with
/// waits between FCFS and EASY.
#[test]
fn conservative_sits_between_fcfs_and_easy() {
    let rows = backfill_flavour_sweep(Region::Germany, 5, 3).unwrap();
    let (fcfs, easy, cons) = (&rows[0], &rows[1], &rows[2]);
    assert_eq!(fcfs.completed, easy.completed);
    assert_eq!(easy.completed, cons.completed);
    // EASY's mean wait is never worse than conservative's, which is never
    // worse than FCFS's (standard ordering, allowing small noise).
    assert!(easy.wait_p50_h <= cons.wait_p50_h + 0.01);
    assert!(cons.wait_p50_h <= fcfs.wait_p50_h + 0.01);
}

/// Multi-queue configuration end to end: the queue set admits and
/// prioritizes a real workload without losing jobs.
#[test]
fn multi_queue_scenario_completes() {
    use sustain_hpc::scheduler::queue::QueueSet;
    let mut scenario =
        Scenario::baseline("queues", RegionProfile::january_2023(Region::Germany), 3);
    scenario.cluster = Cluster::new(600);
    let queues = QueueSet::typical(600);
    scenario.queues = Some(queues.clone());
    scenario.workload.max_nodes = 512;
    let r = run(&scenario, &RunCtl::unlimited()).unwrap();
    assert!(!r.outcome.records.is_empty());
    // Jobs no queue admits (e.g. >150 nodes AND >24 h walltime) are
    // rejected; everything else completes. Cross-check the count against
    // the queue rules applied to the regenerated workload.
    let jobs = sustain_hpc::workload::synth::generate(
        &scenario.workload,
        SimDuration::from_days(scenario.days as f64),
        scenario.seed.wrapping_add(1),
    );
    let unadmittable = jobs.iter().filter(|j| queues.classify(j).is_none()).count();
    assert_eq!(r.outcome.unfinished, unadmittable);
    assert_eq!(r.outcome.records.len(), jobs.len() - unadmittable);
}
