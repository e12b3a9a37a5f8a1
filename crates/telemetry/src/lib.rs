//! # sustain-telemetry
//!
//! Carbon accounting for users and sites (§3.4 of the paper): per-job and
//! per-user carbon accounting from scheduler records, user-facing carbon
//! reports with real-world analogies, green-period core-hour incentives,
//! the Carbon500 ranking (§2.2), and CSV/JSON export.

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]
#![forbid(unsafe_code)]

pub mod accounting;
pub mod carbon500;
pub mod export;
pub mod incentive;
pub mod report;
pub mod requests;

pub use accounting::{aggregate_by_user, profile_job, site_account, JobCarbonProfile};
pub use carbon500::{rank, Carbon500Entry, Carbon500Row};
pub use incentive::{ElasticityModel, IncentiveScheme};
pub use report::{render, to_text};
pub use requests::{EndpointSnapshot, RequestLog};
