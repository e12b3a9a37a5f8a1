//! # sustain-sim-core
//!
//! Simulation substrate for the `sustain-hpc` workspace — the reproduction
//! of *"Sustainability in HPC: Vision and Opportunities"* (SC-W 2023).
//!
//! This crate contains everything domain-agnostic that the carbon-aware HPC
//! stack is built on:
//!
//! * [`time`] — simulated time and durations with calendar helpers;
//! * [`error`] — typed config/simulation errors and the [`Validate`] trait;
//! * [`ctl`] — cooperative cancellation tokens, deadlines, run controls;
//! * [`cache`] — shared bounded-LRU cache machinery with hit/miss stats;
//! * [`hash`] — content-addressed canonical hashing of config inputs;
//! * [`faults`] — the default-off deterministic fault-injection registry;
//! * [`event`] — a deterministic future-event list;
//! * [`retry`] — deterministic bounded-backoff retry over transient faults;
//! * [`rng`] — reproducible random streams with named sub-stream derivation;
//! * [`stats`] — streaming/batch statistics, correlation, error metrics;
//! * [`series`] — regularly sampled time series with integration;
//! * [`units`] — watts / joules / grams-CO₂ / gCO₂-per-kWh newtypes.
//!
//! Determinism is a hard requirement: given the same seed, every simulation
//! in the workspace reproduces bit-identical results. The event queue breaks
//! time ties FIFO, and the RNG is a self-contained xoshiro256++ whose output
//! does not depend on external crates' implementation details.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod cache;
pub mod ctl;
pub mod error;
pub mod event;
pub mod faults;
pub mod hash;
pub mod retry;
pub mod rng;
pub mod series;
pub mod stats;
pub mod time;
pub mod units;

pub use cache::{CacheStats, LruCache};
pub use ctl::{CancelToken, Deadline, RunCtl};
pub use error::{ConfigError, SimError, Validate};
pub use event::{EventId, EventQueue};
pub use hash::{CanonicalHash, CanonicalHasher};
pub use retry::{RetryPolicy, RetryStats};
pub use rng::RngStream;
pub use series::TimeSeries;
pub use stats::{RunningStats, Summary};
pub use time::{SimDuration, SimTime};
pub use units::{Carbon, CarbonIntensity, Energy, Power};
