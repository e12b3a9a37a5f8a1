//! # sustain-carbon-model
//!
//! Embodied-carbon modelling for HPC systems, after ACT (Gupta et al.,
//! ISCA'22) and Li et al. (2023) — the methodology behind §2 and Fig. 1 of
//! *"Sustainability in HPC: Vision and Opportunities"* (SC-W 2023).
//!
//! * [`process`] — per-node fab parameters, yield models, die carbon;
//! * [`memory`] — per-GB embodied factors for DRAM/HBM and storage;
//! * [`components`] — packaged parts and a catalog of the paper's hardware;
//! * [`system`] — whole-system inventories and the Fig. 1 breakdown;
//! * [`metrics`] — CDP/CEP design metrics, footprints, amortization;
//! * [`chiplet`] — package-level chiplet/fab optimization (§2.1, E13);
//! * [`dse`] — processor design-space exploration under carbon metrics (E6);
//! * [`lifecycle`] — Table 1, reuse vs recycling, lifetime extension (§2.3);
//! * [`budget`] — embodied↔operational budget trade-off (§2.2, E7).
//!
//! ## Calibration
//!
//! Two constants (DDR4 kg/GB and nearline-HDD kg/GB) together with the
//! per-node fab table and per-part packaging constants are calibrated so
//! the three Fig. 1 systems reproduce the paper's memory+storage embodied
//! shares (43.5 % / 59.6 % / 55.5 %) with every constant inside published
//! ranges. See `DESIGN.md` at the workspace root.

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]
#![forbid(unsafe_code)]

pub mod budget;
pub mod chiplet;
pub mod components;
pub mod dse;
pub mod lifecycle;
pub mod memory;
pub mod metrics;
pub mod process;
pub mod system;

pub use components::{catalog, Part};
pub use memory::StorageTech;
pub use metrics::DesignMetric;
pub use process::{FabProfile, TechnologyNode, YieldModel};
pub use system::SystemInventory;
