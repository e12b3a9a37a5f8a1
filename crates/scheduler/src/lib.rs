//! # sustain-scheduler
//!
//! An event-driven RJMS (resource and job management system) simulator —
//! the substrate for §3.2 and §3.3 of *"Sustainability in HPC: Vision and
//! Opportunities"*: FCFS and EASY-backfilling baselines, a carbon-aware
//! backfilling policy that delays delayable jobs into green periods, a
//! carbon-aware checkpoint/suspend/resume mechanism, and malleable job
//! reshaping coupled to a time-varying (carbon-derived) power budget.
//!
//! * [`cluster`] — cluster description and allocation bookkeeping;
//! * [`queue`] — multi-queue admission rules (§3.4);
//! * [`sim`] — the simulator and its policies;
//! * [`metrics`] — per-job records and aggregate outcomes.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod cluster;
pub mod malleable;
pub mod metrics;
pub mod queue;
pub mod sim;

pub use cluster::Cluster;
pub use metrics::{JobRecord, Segment, SimOutcome};
pub use queue::QueueSet;
pub use sim::{simulate, simulate_with_ctl, CarbonAwareCfg, CheckpointCfg, Policy, SimConfig};
