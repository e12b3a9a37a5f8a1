//! # sustain-workload
//!
//! HPC workload models for the `sustain-hpc` workspace: jobs with rigid /
//! moldable / malleable resource classes (§3.2 of the paper), parallel
//! speedup models, application phases under a CPU-frequency governor,
//! synthetic trace generation with configurable user over-allocation
//! (§3.4), and SWF trace import.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod job;
pub mod phases;
pub mod speedup;
pub mod swf;
pub mod synth;

pub use job::{Job, JobBuilder, JobClass, JobId};
pub use phases::{run_phases, CountdownGovernor, CpuFreqModel, Phase};
pub use speedup::SpeedupModel;
pub use swf::{parse_swf, to_swf, SwfImportOptions};
pub use synth::{generate, WorkloadConfig};
