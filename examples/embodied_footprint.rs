//! Embodied-carbon analysis of real HPC systems (§2 of the paper).
//!
//! Regenerates Fig. 1 (component breakdown of the German Top-3 systems),
//! Table 1 (LRZ lifetimes), the reuse-vs-recycle comparison, and the
//! chiplet/fab optimization — everything a system architect doing a
//! carbon-budgeted procurement (§2.2) would look at.
//!
//! Run with: `cargo run --release --example embodied_footprint`

use sustain_hpc_core::prelude::*;

fn main() -> Result<(), SimError> {
    // --- Fig. 1: embodied carbon by component. ---
    println!("=== Fig. 1 — embodied carbon by component (tCO2e) ===");
    println!(
        "{:<14} {:>8} {:>8} {:>8} {:>9} {:>12}",
        "system", "CPU", "GPU", "DRAM", "storage", "mem+sto %"
    );
    for row in fig1_embodied_breakdown() {
        println!(
            "{:<14} {:>8.0} {:>8.0} {:>8.0} {:>9.0} {:>11.1}%",
            row.system,
            row.cpu_t,
            row.gpu_t,
            row.dram_t,
            row.storage_t,
            row.memory_storage_share * 100.0
        );
    }
    println!("(paper: 43.5 % / 59.6 % / 55.5 %)");

    // --- Table 1: LRZ system lifetimes. ---
    let t1 = table1_lrz_lifetimes();
    println!("\n=== Table 1 — recent modern HPC systems at LRZ ===");
    println!("{:<22} {:>6} {:>14}", "system", "start", "decommissioned");
    for r in &t1.rows {
        println!(
            "{:<22} {:>6} {:>14}",
            r.name,
            r.start_year,
            r.decommissioned_year
                .map(|y| y.to_string())
                .unwrap_or_else(|| "-".into())
        );
    }

    // --- §2.3: reuse vs recycling. ---
    let eol = claim_reuse_vs_recycle();
    println!("\n=== §2.3 — end-of-life strategies (tCO2e avoided) ===");
    println!(
        "HDD reuse vs recycle savings ratio: {:.0}x (paper: 275x)",
        eol.hdd_reuse_vs_recycle
    );
    println!(
        "{:<14} {:>9} {:>9} {:>12}",
        "system", "recycle", "reuse", "ext.(+2 yr)"
    );
    for (name, o) in &eol.systems {
        println!(
            "{:<14} {:>9.1} {:>9.1} {:>12.1}",
            name,
            o.recycle_savings.tons(),
            o.reuse_savings.tons(),
            o.extension_savings.tons()
        );
    }

    // --- §2 claim: where does embodied dominate? ---
    let lrz = lrz_embodied_dominance();
    println!("\n=== §2 — embodied vs operational (SuperMUC-NG, 5 yr) ===");
    println!("embodied (components+platform): {:>8.0} t", lrz.embodied_t);
    println!(
        "operational @ hydropower 20 g : {:>8.0} t",
        lrz.operational_hydro_t
    );
    println!(
        "operational @ coal 1025 g     : {:>8.0} t",
        lrz.operational_coal_t
    );

    // --- E4: the renewable rule of thumb. ---
    println!(
        "\nembodied reaches 50 % of total at {:.1} % renewables (paper: 70-75 %)",
        renewable_fraction_at_half_embodied()? * 100.0
    );

    // --- E13: chiplet/fab optimization. ---
    let ch = chiplet_packaging();
    println!("\n=== §2.1 — carbon-optimal chiplet fab assignment ===");
    println!(
        "hydropower grid : {:?} ({:.1} kg embodied, {:.0} W)",
        ch.clean_grid.nodes,
        ch.clean_grid.embodied.kg(),
        ch.clean_grid.power.watts()
    );
    println!(
        "coal grid       : {:?} ({:.1} kg embodied, {:.0} W)",
        ch.dirty_grid.nodes,
        ch.dirty_grid.embodied.kg(),
        ch.dirty_grid.power.watts()
    );

    // --- E12: the Carbon500 list. ---
    println!("\n=== §2.2 — Carbon500 (Gflop/s-hours per kg CO2e) ===");
    println!(
        "{:<4} {:<24} {:>12} {:>12}",
        "rank", "system", "efficiency", "kg CO2e/h"
    );
    for row in carbon500() {
        println!(
            "{:<4} {:<24} {:>12.0} {:>12.1}",
            row.rank, row.name, row.efficiency, row.hourly_carbon_kg
        );
    }
    Ok(())
}
