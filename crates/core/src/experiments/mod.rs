//! The paper's experiment suite.
//!
//! One function per artifact of the paper (see the experiment index in
//! `DESIGN.md`): figures, tables, and every quantitative claim. Each
//! returns a typed, serializable result struct so that examples,
//! integration tests, and the `sustain-hpc` CLI all regenerate the same
//! rows. The parameterized ones (E4, E8–E11a, A1–A6) return
//! `Result<_, SimError>`: they reject a degenerate input (fewer than two
//! E4 steps, a horizon too short to calibrate the grid trace) before any
//! work, and propagate the errors of the scenario runs they sweep.
//!
//! | ID  | Artifact | Function |
//! |-----|----------|----------|
//! | E1  | Fig. 1   | [`embodied::fig1_embodied_breakdown`] |
//! | E2  | Table 1  | [`embodied::table1_lrz_lifetimes`] |
//! | E3  | Fig. 2   | [`grid_exp::fig2_carbon_intensity`] |
//! | E4  | §2 rule of thumb | [`embodied::renewable_share_sweep`] |
//! | E5  | §2.3 reuse vs recycle | [`embodied::claim_reuse_vs_recycle`] |
//! | E6  | §2.1 CDP/CEP DSE | [`design::dse_carbon_metrics`] |
//! | E7  | §2.2 budget trade-off | [`design::budget_tradeoff`] |
//! | E8  | §3.1 power scaling | [`operations::carbon_aware_power_scaling`] |
//! | E9  | §3.2 malleability | [`operations::malleability_under_power`] |
//! | E10 | §3.3 scheduling+ckpt | [`operations::carbon_aware_scheduling`] |
//! | E11 | §3.4 users | [`users::user_overallocation`], [`users::green_incentives`] |
//! | E12 | §2.2 Carbon500 | [`users::carbon500`] |
//! | E13 | §2.1 chiplets | [`embodied::chiplet_packaging`] |
//! | A1–A6 | ablations | [`ablation::green_threshold_sweep`], [`ablation::checkpoint_overhead_sweep`], [`ablation::malleable_fraction_sweep`], [`ablation::forecast_scaling_ablation`], [`ablation::backfill_flavour_sweep`], [`ablation::failure_resilience_sweep`] |

pub mod ablation;
pub mod design;
pub mod embodied;
pub mod grid_exp;
pub mod operations;
pub mod runtime;
pub mod users;

use sustain_sim_core::error::{ConfigError, SimError};

/// Shared horizon check for the parameterized experiments: they all
/// synthesize and *calibrate* a grid trace, and calibration rescales the
/// spread of daily means — meaningless below two days of data.
///
/// `experiment` is the paper artifact ID (`"E8"`, `"A1"`, …) so the
/// error names which entry point rejected the horizon.
fn ensure_horizon(experiment: &str, days: usize) -> Result<(), SimError> {
    if days < 2 {
        return Err(ConfigError::new(
            experiment,
            "days",
            format!("must be >= 2 to calibrate the grid trace, got {days}"),
        )
        .into());
    }
    Ok(())
}

pub use ablation::{
    backfill_flavour_sweep, checkpoint_overhead_sweep, failure_resilience_sweep,
    forecast_scaling_ablation, green_threshold_sweep, malleable_fraction_sweep,
};

pub use design::{budget_tradeoff, dse_carbon_metrics};
pub use embodied::{
    chiplet_packaging, claim_reuse_vs_recycle, fig1_embodied_breakdown, lrz_embodied_dominance,
    renewable_fraction_at_half_embodied, renewable_share_sweep, table1_lrz_lifetimes,
};
pub use grid_exp::{average_vs_marginal_sweep, fig2_carbon_intensity};
pub use operations::{
    carbon_aware_power_scaling, carbon_aware_scheduling, malleability_under_power,
};
pub use runtime::countdown_savings;
pub use users::{billing_demo, carbon500, green_incentives, user_overallocation};
