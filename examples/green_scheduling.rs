//! Carbon-aware operations (§3 of the paper): power-budget scaling (E8),
//! malleability under power constraints (E9), and carbon-aware
//! scheduling + checkpointing (E10), all on synthetic January-2023 grids.
//!
//! Run with: `cargo run --release --example green_scheduling`

use sustain_hpc_core::experiments::operations::{
    carbon_aware_power_scaling, carbon_aware_scheduling, malleability_under_power, OpsRow,
};
use sustain_hpc_core::prelude::*;

fn print_rows(rows: &[OpsRow]) {
    println!(
        "{:<16} {:>6} {:>11} {:>9} {:>9} {:>8} {:>8} {:>7} {:>9}",
        "policy",
        "jobs",
        "energy/kWh",
        "carbon/t",
        "eff gCO2",
        "p50 w/h",
        "p95 w/h",
        "util%",
        "viol/s"
    );
    for r in rows {
        println!(
            "{:<16} {:>6} {:>11.0} {:>9.2} {:>9.1} {:>8.2} {:>8.2} {:>7.1} {:>9.0}",
            r.label,
            r.completed,
            r.job_energy_kwh,
            r.carbon_t,
            r.effective_job_ci,
            r.wait_p50_h,
            r.wait_p95_h,
            r.utilization * 100.0,
            r.violation_s
        );
    }
}

fn main() -> Result<(), SimError> {
    let days = 14;

    println!("=== E8 — §3.1 carbon-aware power-budget scaling (Finland, {days} d) ===");
    let rows = carbon_aware_power_scaling(Region::Finland, days, 42)?;
    print_rows(&rows);
    let static_ci = rows[0].effective_job_ci;
    for r in &rows[1..] {
        println!(
            "  {}: {:.1} % lower effective carbon intensity than static",
            r.label,
            (1.0 - r.effective_job_ci / static_ci) * 100.0
        );
    }

    println!("\n=== E9 — §3.2 malleability under a carbon-driven power budget (GB, {days} d) ===");
    let rows = malleability_under_power(Region::GreatBritain, days, 7)?;
    print_rows(&rows);
    println!(
        "  malleability cuts budget-violation time {:.0} s -> {:.0} s",
        rows[0].violation_s, rows[1].violation_s
    );

    println!("\n=== E10 — §3.3 carbon-aware scheduling + checkpointing (Finland, {days} d) ===");
    let rows = carbon_aware_scheduling(Region::Finland, days, 11)?;
    print_rows(&rows);
    println!(
        "  green gate moves green-energy share {:.1} % -> {:.1} % (ckpt: {:.1} %)",
        rows[0].green_energy_fraction * 100.0,
        rows[1].green_energy_fraction * 100.0,
        rows[2].green_energy_fraction * 100.0
    );
    Ok(())
}
