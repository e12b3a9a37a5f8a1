//! Bench crate: the simulator *scenario corpus* (`simloop::scenarios`)
//! timed by `examples/sim_timing.rs` into `BENCH_sim.json`, and smoked
//! untimed by the unit tests so the timed code paths cannot rot.
#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod simloop;
