//! User-facing carbon accounting (§3.4): Fig. 2 regeneration, per-user
//! aggregation, over-allocation waste, green-period billing, and the
//! incentive sweep.
//!
//! Run with: `cargo run --release --example carbon_accounting`

use sustain_hpc_core::experiments::users::{billing_demo, green_incentives, user_overallocation};
use sustain_hpc_core::prelude::*;
use sustain_telemetry::accounting::aggregate_by_user;
use sustain_telemetry::export;

fn main() -> Result<(), SimError> {
    // --- Fig. 2: daily marginal carbon intensity across Europe. ---
    let fig2 = fig2_carbon_intensity(2023);
    println!("=== Fig. 2 — daily marginal carbon intensity, January 2023 ===");
    println!(
        "{:<16} {:>10} {:>9} {:>9} {:>9}",
        "region", "mean g/kWh", "daily σ", "min day", "max day"
    );
    for row in &fig2.rows {
        println!(
            "{:<16} {:>10.1} {:>9.2} {:>9.1} {:>9.1}",
            row.region, row.monthly_mean, row.daily_std, row.min_daily, row.max_daily
        );
    }
    println!(
        "Finland/France ratio: {:.2}x (paper: 2.1x); Finland daily σ: {:.2} (paper: 47.21)",
        fig2.finland_france_ratio, fig2.finland_daily_std
    );
    println!("\ndaily series (31 days, per-region scale):");
    for row in &fig2.rows {
        println!(
            "{:<16} {}",
            row.region,
            sustain_hpc::sim_core::stats::sparkline(&row.daily_means)
        );
    }

    // --- Average vs marginal intensity (the figure's "marginal"). ---
    println!("\n=== average vs marginal intensity over the merit order ===");
    println!(
        "{:>9} {:>12} {:>13}",
        "demand/GW", "avg g/kWh", "marginal g/kWh"
    );
    for (gw, avg, marg) in average_vs_marginal_sweep() {
        println!("{:>9.0} {:>12.1} {:>13.1}", gw, avg, marg);
    }

    // --- E11a: over-allocation waste. ---
    println!("\n=== E11a — §3.4 over-allocation waste (Germany, 7 d) ===");
    println!(
        "{:>11} {:>6} {:>12} {:>10} {:>13} {:>12}",
        "over-frac", "jobs", "energy/kWh", "carbon/t", "excess kWh", "excess kg"
    );
    for r in user_overallocation(Region::Germany, 7, 3)? {
        println!(
            "{:>10.0}% {:>6} {:>12.0} {:>10.2} {:>13.0} {:>12.0}",
            r.overallocating_fraction * 100.0,
            r.completed,
            r.job_energy_kwh,
            r.job_carbon_t,
            r.excess_energy_kwh,
            r.excess_carbon_kg
        );
    }

    // --- E11b: green incentives. ---
    println!("\n=== E11b — §3.4 green core-hour incentives (Finland) ===");
    println!(
        "{:>9} {:>9} {:>13} {:>9}",
        "discount", "shifted", "saving t/mo", "revenue"
    );
    for r in green_incentives(Region::Finland, 5) {
        println!(
            "{:>8.0}% {:>8.1}% {:>13.1} {:>8.1}%",
            r.discount * 100.0,
            r.shifted_fraction * 100.0,
            r.monthly_saving_t,
            r.relative_revenue * 100.0
        );
    }

    // --- Billing demo on a real scheduled week. ---
    let bill = billing_demo(2023)?;
    println!("\n=== §3.4 billing demo (one scheduled week, 50 % green discount) ===");
    println!("node-hours consumed : {:>10.0}", bill.node_hours);
    println!("  of which green    : {:>10.0}", bill.green_node_hours);
    println!("node-hours charged  : {:>10.0}", bill.charged_node_hours);

    // --- Per-user accounting + CSV export of the profiles. ---
    let mut scenario = Scenario::baseline(
        "accounting",
        RegionProfile::january_2023(Region::Germany),
        3,
    );
    scenario.cluster = Cluster::new(600);
    let result = run(&scenario, &RunCtl::unlimited())?;
    let by_user = aggregate_by_user(&result.profiles);
    println!("\n=== per-user carbon accounts (3-day sample, top 5 by carbon) ===");
    let mut users: Vec<_> = by_user.iter().collect();
    users.sort_by_key(|(_, acc)| std::cmp::Reverse(acc.carbon));
    println!(
        "{:>6} {:>6} {:>12} {:>10}",
        "user", "jobs", "energy/kWh", "carbon/kg"
    );
    for (user, acc) in users.iter().take(5) {
        println!(
            "{:>6} {:>6} {:>12.1} {:>10.2}",
            user,
            acc.jobs,
            acc.energy.kwh(),
            acc.carbon.kg()
        );
    }
    let csv = export::profiles_to_csv(&result.profiles);
    println!(
        "\n(exported {} job profiles, {} bytes of CSV; first line: {})",
        result.profiles.len(),
        csv.len(),
        csv.lines().next().unwrap_or("")
    );
    Ok(())
}
