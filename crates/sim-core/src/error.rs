//! Typed errors and boundary validation for the simulation stack.
//!
//! The workspace follows a two-tier error policy (see DESIGN.md,
//! "Error-handling policy"):
//!
//! * **Boundaries return `Result`.** Everything a caller outside the
//!   workspace can hand us — CLI flags, imported CSV, deserialized
//!   configs, experiment parameters — is validated up front via the
//!   [`Validate`] trait and surfaced as a [`ConfigError`] /
//!   [`SimError`] instead of a panic.
//! * **Interior invariants assert.** Once inputs have passed the
//!   boundary, internal hot-path code keeps its `assert!`s: a failure
//!   there is a bug in this workspace, not bad input, and dying loudly
//!   beats silently producing wrong science.
//!
//! Both error types are `Serialize`/`Deserialize` so a service
//! front-end can relay them as structured payloads, and both implement
//! [`std::error::Error`] with proper source chaining.

use crate::time::SimTime;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A validation failure in a public configuration value.
///
/// `context` names the config type (`"CheckpointCfg"`), `field` the
/// offending field (or a `lo..hi` pair for cross-field ordering
/// constraints), and `message` the violated constraint including the
/// observed value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConfigError {
    /// The config type that failed validation.
    pub context: String,
    /// The offending field (or field pair for ordering constraints).
    pub field: String,
    /// The violated constraint, including the observed value.
    pub message: String,
}

impl ConfigError {
    /// Builds an error for `context.field`: `message`.
    pub fn new(
        context: impl Into<String>,
        field: impl Into<String>,
        message: impl Into<String>,
    ) -> ConfigError {
        ConfigError {
            context: context.into(),
            field: field.into(),
            message: message.into(),
        }
    }

    /// Returns a copy whose context is prefixed with `outer.`, for
    /// nesting errors from embedded configs (e.g.
    /// `SimConfig.checkpoint` wrapping a `CheckpointCfg` failure).
    pub fn nested(&self, outer: &str) -> ConfigError {
        ConfigError {
            context: format!("{outer}.{}", self.context),
            field: self.field.clone(),
            message: self.message.clone(),
        }
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid {}.{}: {}",
            self.context, self.field, self.message
        )
    }
}

impl std::error::Error for ConfigError {}

/// Top-level error returned by fallible simulation and experiment
/// entry points (`simulate_with_ctl`, `scenario::run`, `SweepPlan::run`, …).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SimError {
    /// A configuration value failed boundary validation.
    Config(ConfigError),
    /// Degenerate input rejected at an entry point that is not tied to
    /// a single config struct (e.g. an experiment's `days` parameter).
    InvalidInput {
        /// What was rejected and why.
        message: String,
    },
    /// An isolated unit of work (e.g. one sweep point) panicked; the
    /// unwind was caught at the fault boundary and converted here.
    Faulted {
        /// Which unit failed (a sweep point index, an experiment name).
        unit: String,
        /// The rendered panic payload.
        message: String,
    },
    /// Work stopped cooperatively at a cancellation point (see
    /// [`crate::ctl`]): an explicit [`crate::ctl::CancelToken`]
    /// (shutdown, SIGINT/SIGTERM) or an expired
    /// [`crate::ctl::Deadline`].
    Cancelled {
        /// How far the simulation clock had advanced when work stopped
        /// (zero when cancelled before the event loop, e.g. between
        /// sweep points).
        at_sim_time: SimTime,
        /// Why work stopped, including partial-progress stats where
        /// the caller tracks them (e.g. `"…; 3/8 sweep points
        /// completed"`).
        reason: String,
    },
}

/// Whether retrying the failed work can possibly change the outcome.
///
/// This is the classification the self-healing layer (see
/// [`crate::retry`] and DESIGN.md §11) keys every retry decision on.
/// The mapping from [`SimError`] is total and deliberate:
///
/// | Variant        | Transience   | Rationale                                        |
/// |----------------|--------------|--------------------------------------------------|
/// | `Faulted`      | `Transient`  | Injected faults, caught panics, cache-fill and   |
/// |                |              | poisoned-lock recoveries — not a property of the |
/// |                |              | input, so a clean re-execution may succeed       |
/// | `Config`       | `Permanent`  | The input itself is rejected; retrying re-runs   |
/// |                |              | the same validation on the same bytes            |
/// | `InvalidInput` | `Permanent`  | Same: deterministic boundary rejection           |
/// | `Cancelled`    | `NeverRetry` | A deliberate stop (shutdown, deadline); retrying |
/// |                |              | would defy the operator or the budget            |
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) enum Transience {
    /// A re-execution may succeed: the failure is environmental, not a
    /// property of the input.
    Transient,
    /// A re-execution is guaranteed to fail identically: the input
    /// itself was rejected.
    Permanent,
    /// Work stopped on purpose; retrying is forbidden, not just
    /// pointless.
    NeverRetry,
}

impl SimError {
    /// Shorthand for [`SimError::InvalidInput`].
    pub fn invalid_input(message: impl Into<String>) -> SimError {
        SimError::InvalidInput {
            message: message.into(),
        }
    }

    /// Classifies this error for the retry layer (see [`Transience`]).
    ///
    /// The match is deliberately exhaustive — no wildcard arm — so
    /// adding a `SimError` variant without deciding its transience is a
    /// compile error here, not a silent misclassification at runtime.
    pub(crate) fn transience(&self) -> Transience {
        match self {
            SimError::Faulted { .. } => Transience::Transient,
            SimError::Config(_) => Transience::Permanent,
            SimError::InvalidInput { .. } => Transience::Permanent,
            SimError::Cancelled { .. } => Transience::NeverRetry,
        }
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Config(e) => write!(f, "configuration rejected: {e}"),
            SimError::InvalidInput { message } => write!(f, "invalid input: {message}"),
            SimError::Faulted { unit, message } => {
                write!(f, "fault isolated in {unit}: {message}")
            }
            SimError::Cancelled {
                at_sim_time,
                reason,
            } => {
                write!(
                    f,
                    "cancelled at sim time {:.3}h: {reason}",
                    at_sim_time.as_hours()
                )
            }
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Config(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ConfigError> for SimError {
    fn from(e: ConfigError) -> SimError {
        SimError::Config(e)
    }
}

/// Boundary validation for public configuration structs.
///
/// Implementations check ranges, orderings, and finiteness of every
/// field (and recurse into embedded configs), returning the *first*
/// violation found. `validate` never panics: it is the layer that
/// stands between untrusted input and the asserting interior.
pub trait Validate {
    /// Returns `Ok(())` if every field is in range, otherwise the first
    /// violated constraint.
    fn validate(&self) -> Result<(), ConfigError>;
}

/// `None` is vacuously valid; `Some(cfg)` validates the payload.
impl<T: Validate> Validate for Option<T> {
    fn validate(&self) -> Result<(), ConfigError> {
        match self {
            None => Ok(()),
            Some(v) => v.validate(),
        }
    }
}

/// Requires `value` to be finite (rejects NaN and ±∞).
pub fn ensure_finite(context: &str, field: &str, value: f64) -> Result<(), ConfigError> {
    if value.is_finite() {
        Ok(())
    } else {
        Err(ConfigError::new(
            context,
            field,
            format!("must be finite, got {value}"),
        ))
    }
}

/// Requires `value` to be finite and `>= 0`.
pub fn ensure_non_negative(context: &str, field: &str, value: f64) -> Result<(), ConfigError> {
    ensure_finite(context, field, value)?;
    if value >= 0.0 {
        Ok(())
    } else {
        Err(ConfigError::new(
            context,
            field,
            format!("must be >= 0, got {value}"),
        ))
    }
}

/// Requires `value` to be finite and `> 0`.
pub fn ensure_positive(context: &str, field: &str, value: f64) -> Result<(), ConfigError> {
    ensure_finite(context, field, value)?;
    if value > 0.0 {
        Ok(())
    } else {
        Err(ConfigError::new(
            context,
            field,
            format!("must be > 0, got {value}"),
        ))
    }
}

/// Requires `value` to lie in the closed interval `[0, 1]`.
pub fn ensure_fraction(context: &str, field: &str, value: f64) -> Result<(), ConfigError> {
    ensure_finite(context, field, value)?;
    if (0.0..=1.0).contains(&value) {
        Ok(())
    } else {
        Err(ConfigError::new(
            context,
            field,
            format!("must be in [0, 1], got {value}"),
        ))
    }
}

/// Requires `lo <= hi` (an ordering constraint across two fields).
/// NaN on either side is rejected; ±∞ is allowed so "never trigger"
/// sentinels like an infinite suspend threshold stay expressible.
pub fn ensure_ordered(
    context: &str,
    lo_field: &str,
    lo: f64,
    hi_field: &str,
    hi: f64,
) -> Result<(), ConfigError> {
    if lo.is_nan() {
        return Err(ConfigError::new(context, lo_field, "must not be NaN"));
    }
    if hi.is_nan() {
        return Err(ConfigError::new(context, hi_field, "must not be NaN"));
    }
    if lo <= hi {
        Ok(())
    } else {
        Err(ConfigError::new(
            context,
            format!("{lo_field}..{hi_field}"),
            format!("requires {lo_field} ({lo}) <= {hi_field} ({hi})"),
        ))
    }
}

/// Parses the raw text of an environment knob as a non-negative
/// integer, producing a typed [`ConfigError`] (context `"env"`, field =
/// the variable name) on anything unparseable — `two`, `-1`, `1.5`,
/// an empty string. Pure so it can be unit-tested without touching the
/// process environment; [`env_knob_usize`] adds the lookup.
pub(crate) fn parse_env_usize(name: &str, raw: &str) -> Result<usize, ConfigError> {
    raw.trim().parse::<usize>().map_err(|_| {
        ConfigError::new(
            "env",
            name,
            format!("must be a non-negative integer, got {raw:?}"),
        )
    })
}

/// Strictly reads an environment knob: `Ok(None)` when unset,
/// `Ok(Some(n))` when set to a non-negative integer, and a typed
/// [`ConfigError`] when set to anything else (including non-unicode
/// values). Boundary code (CLI startup, service startup) should call
/// this and fail loudly instead of silently falling back to a default —
/// a knob the operator *tried* to set and got wrong must never be
/// ignored.
pub fn env_knob_usize(name: &str) -> Result<Option<usize>, ConfigError> {
    match std::env::var(name) {
        Ok(raw) => parse_env_usize(name, &raw).map(Some),
        Err(std::env::VarError::NotPresent) => Ok(None),
        Err(std::env::VarError::NotUnicode(_)) => Err(ConfigError::new(
            "env",
            name,
            "must be a non-negative integer, got non-unicode bytes",
        )),
    }
}

/// Requires an integer count to be at least `min`.
pub fn ensure_at_least(
    context: &str,
    field: &str,
    value: usize,
    min: usize,
) -> Result<(), ConfigError> {
    if value >= min {
        Ok(())
    } else {
        Err(ConfigError::new(
            context,
            field,
            format!("must be >= {min}, got {value}"),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn env_knob_parsing_is_strict() {
        assert_eq!(parse_env_usize("SUSTAIN_THREADS", "4"), Ok(4));
        assert_eq!(parse_env_usize("SUSTAIN_THREADS", " 0 "), Ok(0));
        for bad in ["two", "-1", "1.5", "", "0x10", "4 threads"] {
            let err = parse_env_usize("SUSTAIN_THREADS", bad).unwrap_err();
            assert_eq!(err.context, "env");
            assert_eq!(err.field, "SUSTAIN_THREADS");
            assert!(
                err.to_string().contains("non-negative integer"),
                "{bad:?}: {err}"
            );
        }
    }

    #[test]
    fn config_error_display_and_fields() {
        let e = ConfigError::new("CheckpointCfg", "interval", "must be > 0, got 0");
        assert_eq!(
            e.to_string(),
            "invalid CheckpointCfg.interval: must be > 0, got 0"
        );
        assert_eq!(e.nested("SimConfig").context, "SimConfig.CheckpointCfg");
    }

    #[test]
    fn sim_error_chains_to_config_error() {
        let e = SimError::from(ConfigError::new("A", "b", "c"));
        assert!(e.source().is_some());
        assert!(e.to_string().contains("invalid A.b"));
        assert!(SimError::invalid_input("days must be >= 1")
            .to_string()
            .contains("days"));
        let f = SimError::Faulted {
            unit: "point 3".into(),
            message: "boom".into(),
        };
        assert!(f.source().is_none());
        assert!(f.to_string().contains("point 3"));
    }

    #[test]
    fn errors_roundtrip_through_serde() {
        let e = SimError::Config(ConfigError::new("WorkloadConfig", "users", "must be >= 1"));
        let back = SimError::from_value(&e.to_value()).unwrap();
        assert_eq!(back, e);
        let c = SimError::Cancelled {
            at_sim_time: SimTime::from_hours(7.5),
            reason: "deadline of 0.250s exceeded; 3/8 sweep points completed".into(),
        };
        let back = SimError::from_value(&c.to_value()).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn transience_classification_is_total_and_matches_the_table() {
        // One witness per variant; `transience()` itself is wildcard-free,
        // so a new variant without a classification fails to compile
        // before this test can even run.
        let witnesses: Vec<(SimError, Transience)> = vec![
            (
                SimError::Config(ConfigError::new("A", "b", "c")),
                Transience::Permanent,
            ),
            (
                SimError::invalid_input("days must be >= 1"),
                Transience::Permanent,
            ),
            (
                SimError::Faulted {
                    unit: "faultpoint sweep::point".into(),
                    message: "injected fault at sweep::point (hit 1)".into(),
                },
                Transience::Transient,
            ),
            (
                SimError::Cancelled {
                    at_sim_time: SimTime::ZERO,
                    reason: "shutdown requested".into(),
                },
                Transience::NeverRetry,
            ),
        ];
        for (err, expected) in &witnesses {
            assert_eq!(err.transience(), *expected, "{err}");
        }
        // The witness list itself must stay exhaustive: count the arms.
        let covered = |e: &SimError| match e {
            SimError::Config(_) => 0usize,
            SimError::InvalidInput { .. } => 1,
            SimError::Faulted { .. } => 2,
            SimError::Cancelled { .. } => 3,
        };
        let mut seen = [false; 4];
        for (err, _) in &witnesses {
            seen[covered(err)] = true;
        }
        assert_eq!(seen, [true; 4], "every SimError variant has a witness");
    }

    #[test]
    fn cancelled_display_names_sim_time_and_reason() {
        let c = SimError::Cancelled {
            at_sim_time: SimTime::from_hours(7.5),
            reason: "shutdown requested".into(),
        };
        assert_eq!(
            c.to_string(),
            "cancelled at sim time 7.500h: shutdown requested"
        );
        assert!(c.source().is_none());
    }

    #[test]
    fn helpers_accept_and_reject() {
        assert!(ensure_finite("C", "f", 1.0).is_ok());
        assert!(ensure_finite("C", "f", f64::NAN).is_err());
        assert!(ensure_finite("C", "f", f64::INFINITY).is_err());
        assert!(ensure_non_negative("C", "f", 0.0).is_ok());
        assert!(ensure_non_negative("C", "f", -0.1).is_err());
        assert!(ensure_positive("C", "f", 0.0).is_err());
        assert!(ensure_fraction("C", "f", 1.0).is_ok());
        assert!(ensure_fraction("C", "f", 1.01).is_err());
        assert!(ensure_ordered("C", "lo", 0.2, "hi", 0.4).is_ok());
        assert!(ensure_ordered("C", "lo", 0.2, "hi", f64::INFINITY).is_ok());
        assert!(ensure_ordered("C", "lo", 0.5, "hi", 0.4).is_err());
        assert!(ensure_ordered("C", "lo", f64::NAN, "hi", 0.4).is_err());
        assert!(ensure_at_least("C", "n", 1, 1).is_ok());
        assert!(ensure_at_least("C", "n", 0, 1).is_err());
    }

    #[test]
    fn option_validate_is_vacuous_for_none() {
        struct Bad;
        impl Validate for Bad {
            fn validate(&self) -> Result<(), ConfigError> {
                Err(ConfigError::new("Bad", "x", "always"))
            }
        }
        assert!(None::<Bad>.validate().is_ok());
        assert!(Some(Bad).validate().is_err());
    }
}
