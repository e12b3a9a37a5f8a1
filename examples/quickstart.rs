//! Quickstart: the whole stack in one page.
//!
//! Builds a small carbon-aware HPC site on the Finnish January-2023 grid,
//! schedules a synthetic workload with the §3.3 carbon-aware policy, and
//! prints the site's carbon account plus one user-facing job report.
//!
//! Run with: `cargo run --release --example quickstart`

use sustain_hpc_core::prelude::*;
use sustain_telemetry::report;

fn main() -> Result<(), SimError> {
    // 1. A grid region: Finland, January 2023 (volatile, mid-carbon).
    let region = RegionProfile::january_2023(Region::Finland);

    // 2. A scenario: 512 nodes, one week, EASY + carbon-aware start gate.
    let mut scenario = Scenario::baseline("quickstart", region, 7);
    scenario.cluster = Cluster::new(512);
    scenario.policy = Policy::CarbonAware(CarbonAwareCfg::default());
    scenario.workload = WorkloadConfig {
        arrivals_per_hour: 4.0,
        max_nodes: 128,
        ..WorkloadConfig::default()
    };

    // 3. Run it.
    let result = run(&scenario, &RunCtl::unlimited())?;

    println!("=== quickstart: one week on the Finnish grid ===");
    println!("grid mean intensity : {:>8.1} g/kWh", result.grid_mean_ci);
    println!("jobs completed      : {:>8}", result.outcome.records.len());
    println!(
        "utilization         : {:>8.1} %",
        result.outcome.utilization * 100.0
    );
    println!(
        "median wait         : {:>8.2} h",
        result.outcome.wait.median / 3600.0
    );
    println!(
        "job energy          : {:>8.1} kWh",
        result.outcome.job_energy.kwh()
    );
    println!(
        "operational carbon  : {:>8.2} t",
        result.outcome.carbon.tons()
    );
    println!(
        "effective intensity : {:>8.1} g/kWh (vs {:.1} grid mean)",
        result.outcome.effective_job_ci, result.grid_mean_ci
    );
    println!(
        "green energy share  : {:>8.1} %",
        result.site.green_energy_fraction * 100.0
    );
    println!(
        "facility carbon     : {:>8.2} t (PUE applied)",
        result.facility_carbon.tons()
    );

    // 4. A user-facing carbon report for the biggest job (§3.4).
    if let Some(profile) = result
        .profiles
        .iter()
        .max_by(|a, b| a.carbon.cmp(&b.carbon))
    {
        println!("\n--- largest job's carbon report ---");
        print!("{}", report::to_text(&report::render(profile)));
    }
    Ok(())
}
