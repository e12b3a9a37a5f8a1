//! # sustain-hpc-core
//!
//! The orchestration layer of the `sustain-hpc` workspace — the full
//! reproduction of *"Sustainability in HPC: Vision and Opportunities"*
//! (Chadha, Arima, Raoofy, Gerndt, Schulz — SC-W 2023).
//!
//! This crate wires the substrates together:
//!
//! * [`scenario`] — end-to-end runs: grid trace → power budget → scheduled
//!   workload → per-job carbon accounting → facility carbon;
//! * [`cache`] — content-addressed memoization of whole scenario results;
//! * [`experiments`] — one function per figure, table, and quantitative
//!   claim of the paper (see the table in that module's docs).
//!
//! ## Quick start
//!
//! ```
//! use sustain_hpc_core::prelude::*;
//!
//! // Regenerate Fig. 1 of the paper:
//! let rows = fig1_embodied_breakdown();
//! assert_eq!(rows.len(), 3);
//! assert!((rows[1].memory_storage_share - 0.596).abs() < 0.015);
//!
//! // Run a carbon-aware scheduling scenario on the Finnish grid:
//! let mut scenario = Scenario::baseline(
//!     "demo",
//!     RegionProfile::january_2023(Region::Finland),
//!     3,
//! );
//! scenario.cluster = Cluster::new(600);
//! let result = run(&scenario, &RunCtl::unlimited())?;
//! assert_eq!(result.outcome.unfinished, 0);
//! # Ok::<(), SimError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod cache;
pub mod experiments;
pub mod scenario;
pub mod site;
pub mod sweep;

pub use cache::{global_outcome_cache, init_outcome_cache_cap_from_env, OutcomeKey};

pub use scenario::{run, Scenario, ScenarioResult};
pub use site::{lifetime_report, Site};

/// Convenience prelude: the most commonly used items across the
/// workspace.
pub mod prelude {
    pub use crate::cache::{global_outcome_cache, OutcomeKey};
    pub use crate::experiments::*;
    pub use crate::scenario::{run, Scenario, ScenarioResult};
    pub use crate::site::{lifetime_report, Site};
    pub use crate::sweep::{calibrated_trace, set_threads, sweep, SweepJournal, SweepPlan};
    pub use sustain_carbon_model::metrics::DesignMetric;
    pub use sustain_carbon_model::system::SystemInventory;
    pub use sustain_grid::green::GreenDetector;
    pub use sustain_grid::region::{Region, RegionProfile};
    pub use sustain_grid::synth::{generate_calibrated, generate_hourly};
    pub use sustain_grid::trace::CarbonTrace;
    pub use sustain_power::carbon_scaler::ScalingPolicy;
    pub use sustain_scheduler::cluster::Cluster;
    pub use sustain_scheduler::sim::{simulate, CarbonAwareCfg, CheckpointCfg, Policy, SimConfig};
    pub use sustain_sim_core::ctl::{CancelToken, Deadline, RunCtl};
    pub use sustain_sim_core::error::{ConfigError, SimError, Validate};
    pub use sustain_sim_core::retry::{RetryPolicy, RetryStats};
    pub use sustain_sim_core::time::{SimDuration, SimTime};
    pub use sustain_sim_core::units::{Carbon, CarbonIntensity, Energy, Power};
    pub use sustain_workload::job::{Job, JobBuilder, JobClass, JobId};
    pub use sustain_workload::synth::WorkloadConfig;
}
