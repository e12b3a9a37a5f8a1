//! Simulation time and duration types.
//!
//! Simulated time is a monotonically increasing offset, in seconds, from the
//! start of a simulation. The origin is given meaning by the scenario (e.g.
//! "midnight, Monday 2023-01-02"); calendar helpers on [`SimTime`] interpret
//! the offset under that convention so that diurnal and weekly patterns in
//! carbon intensity and workload arrivals can be modelled.
//!
//! Times are `f64` seconds. Event ordering never relies on exact float
//! equality: the event queue breaks ties with a monotone sequence number
//! (see [`crate::event`]), so two events scheduled at the "same" instant
//! still dequeue deterministically.

use crate::error::ConfigError;
use serde::{DeError, Deserialize, Serialize, Value};
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Seconds in one minute.
pub(crate) const MINUTE: f64 = 60.0;
/// Seconds in one hour.
pub const HOUR: f64 = 3_600.0;
/// Seconds in one day.
pub(crate) const DAY: f64 = 86_400.0;
/// Seconds in one (365-day) non-leap year.
pub(crate) const YEAR: f64 = 365.0 * DAY;

/// A point in simulated time, measured in seconds since the simulation epoch.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize)]
pub struct SimTime(f64);

/// A span of simulated time in seconds. May not be negative.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize)]
pub struct SimDuration(f64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0.0);

    /// Creates a time from raw seconds since the epoch.
    ///
    /// # Panics
    /// Panics if `secs` is negative or not finite.
    #[inline]
    pub fn from_secs(secs: f64) -> Self {
        assert!(secs.is_finite() && secs >= 0.0, "invalid SimTime: {secs}");
        SimTime(secs)
    }

    /// Fallible constructor for untrusted input (CLI flags, imported
    /// CSV, deserialized configs): rejects negative and non-finite
    /// seconds with a typed error instead of panicking.
    pub fn try_from_secs(secs: f64) -> Result<Self, ConfigError> {
        if secs.is_finite() && secs >= 0.0 {
            Ok(SimTime(secs))
        } else {
            Err(ConfigError::new(
                "SimTime",
                "secs",
                format!("must be finite and >= 0, got {secs}"),
            ))
        }
    }

    /// Creates a time `h` hours after the epoch.
    #[inline]
    pub fn from_hours(h: f64) -> Self {
        Self::from_secs(h * HOUR)
    }

    /// Creates a time `d` days after the epoch.
    #[inline]
    #[cfg(test)]
    pub(crate) fn from_days(d: f64) -> Self {
        Self::from_secs(d * DAY)
    }

    /// Raw seconds since the epoch.
    #[inline]
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// Hours since the epoch (fractional).
    #[inline]
    pub fn as_hours(self) -> f64 {
        self.0 / HOUR
    }

    /// Days since the epoch (fractional).
    #[inline]
    pub fn as_days(self) -> f64 {
        self.0 / DAY
    }

    /// Hour-of-day in `[0, 24)`, assuming the epoch falls on midnight.
    #[inline]
    pub fn hour_of_day(self) -> f64 {
        (self.0.rem_euclid(DAY)) / HOUR
    }

    /// Zero-based day index since the epoch (day 0 is the first day).
    #[inline]
    pub(crate) fn day_index(self) -> u64 {
        (self.0 / DAY) as u64
    }

    /// Zero-based weekday index in `[0, 7)`, assuming the epoch falls on the
    /// first day of the week (scenario convention: a Monday).
    #[inline]
    pub fn weekday(self) -> u8 {
        ((self.0 / DAY) as u64 % 7) as u8
    }

    /// `true` for weekday indices 5 and 6 (Saturday/Sunday under the Monday
    /// epoch convention).
    #[inline]
    pub fn is_weekend(self) -> bool {
        self.weekday() >= 5
    }

    /// Saturating subtraction: the duration since `earlier`, or zero if
    /// `earlier` is in the future.
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(if self.0 > earlier.0 {
            self.0 - earlier.0
        } else {
            0.0
        })
    }

    /// The later of two times.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// The earlier of two times.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0.0);

    /// Creates a duration from raw seconds.
    ///
    /// # Panics
    /// Panics if `secs` is negative or not finite.
    #[inline]
    pub fn from_secs(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "invalid SimDuration: {secs}"
        );
        SimDuration(secs)
    }

    /// Fallible constructor for untrusted input (CLI flags, imported
    /// CSV, deserialized configs): rejects negative and non-finite
    /// seconds with a typed error instead of panicking.
    pub fn try_from_secs(secs: f64) -> Result<Self, ConfigError> {
        if secs.is_finite() && secs >= 0.0 {
            Ok(SimDuration(secs))
        } else {
            Err(ConfigError::new(
                "SimDuration",
                "secs",
                format!("must be finite and >= 0, got {secs}"),
            ))
        }
    }

    /// Creates a duration of `m` minutes.
    #[inline]
    pub fn from_mins(m: f64) -> Self {
        Self::from_secs(m * MINUTE)
    }

    /// Creates a duration of `h` hours.
    #[inline]
    pub fn from_hours(h: f64) -> Self {
        Self::from_secs(h * HOUR)
    }

    /// Creates a duration of `d` days.
    #[inline]
    pub fn from_days(d: f64) -> Self {
        Self::from_secs(d * DAY)
    }

    /// Creates a duration of `y` 365-day years.
    #[inline]
    pub fn from_years(y: f64) -> Self {
        Self::from_secs(y * YEAR)
    }

    /// Raw seconds.
    #[inline]
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// Fractional hours.
    #[inline]
    pub fn as_hours(self) -> f64 {
        self.0 / HOUR
    }

    /// Fractional days.
    #[inline]
    pub fn as_days(self) -> f64 {
        self.0 / DAY
    }

    /// `true` if the duration is exactly zero.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }
}

impl Eq for SimTime {}

#[allow(clippy::derive_ord_xor_partial_ord)]
impl Ord for SimTime {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Values are always finite (enforced at construction), so total_cmp
        // agrees with the usual numeric order.
        self.0.total_cmp(&other.0)
    }
}

impl Eq for SimDuration {}

#[allow(clippy::derive_ord_xor_partial_ord)]
impl Ord for SimDuration {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

// Deserialization is an untrusted path (configs arrive from files and
// service requests), so it goes through `try_from_secs` rather than the
// derive: a negative or non-finite payload is a deserialization error,
// never a panic.
impl Deserialize for SimTime {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let secs = f64::from_value(v)?;
        SimTime::try_from_secs(secs).map_err(|e| DeError::new(e.to_string()))
    }
}

impl Deserialize for SimDuration {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let secs = f64::from_value(v)?;
        SimDuration::try_from_secs(secs).map_err(|e| DeError::new(e.to_string()))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime::from_secs(self.0 - rhs.0)
    }
}

impl Sub for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration::from_secs(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration::from_secs(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<f64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: f64) -> SimDuration {
        SimDuration::from_secs(self.0 * rhs)
    }
}

impl Div<f64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: f64) -> SimDuration {
        SimDuration::from_secs(self.0 / rhs)
    }
}

impl Div for SimDuration {
    type Output = f64;
    #[inline]
    fn div(self, rhs: SimDuration) -> f64 {
        self.0 / rhs.0
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let day = self.day_index();
        let rem = self.0.rem_euclid(DAY);
        let h = (rem / HOUR) as u64;
        let m = ((rem % HOUR) / MINUTE) as u64;
        let s = rem % MINUTE;
        write!(f, "d{day} {h:02}:{m:02}:{s:04.1}")
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= DAY {
            write!(f, "{:.2}d", self.as_days())
        } else if self.0 >= HOUR {
            write!(f, "{:.2}h", self.as_hours())
        } else if self.0 >= MINUTE {
            write!(f, "{:.2}m", self.0 / MINUTE)
        } else {
            write!(f, "{:.2}s", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let t = SimTime::from_hours(30.0);
        assert_eq!(t.as_secs(), 30.0 * HOUR);
        assert_eq!(t.as_hours(), 30.0);
        assert_eq!(t.day_index(), 1);
        assert!((t.hour_of_day() - 6.0).abs() < 1e-9);
    }

    #[test]
    fn weekday_cycle() {
        assert_eq!(SimTime::ZERO.weekday(), 0);
        assert_eq!(SimTime::from_days(4.5).weekday(), 4);
        assert!(!SimTime::from_days(4.5).is_weekend());
        assert!(SimTime::from_days(5.1).is_weekend());
        assert!(SimTime::from_days(6.9).is_weekend());
        assert_eq!(SimTime::from_days(7.0).weekday(), 0);
    }

    #[test]
    fn arithmetic_roundtrip() {
        let t = SimTime::from_days(2.0);
        let d = SimDuration::from_hours(5.0);
        let t2 = t + d;
        assert_eq!(t2 - t, d);
        assert_eq!(t2 - d, t);
    }

    #[test]
    fn saturating_since_clamps() {
        let a = SimTime::from_secs(10.0);
        let b = SimTime::from_secs(20.0);
        assert_eq!(b.saturating_since(a).as_secs(), 10.0);
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "invalid SimTime")]
    fn negative_time_rejected() {
        SimTime::from_secs(-1.0);
    }

    #[test]
    #[should_panic(expected = "invalid SimDuration")]
    fn negative_duration_rejected() {
        let _ = SimDuration::from_secs(1.0) - SimDuration::from_secs(2.0);
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::from_hours(2.0) * 1.5;
        assert_eq!(d.as_hours(), 3.0);
        assert_eq!((d / 3.0).as_hours(), 1.0);
        assert_eq!(d / SimDuration::from_hours(1.5), 2.0);
    }

    #[test]
    fn ordering_is_total() {
        let mut v = [
            SimTime::from_secs(3.0),
            SimTime::ZERO,
            SimTime::from_secs(1.0),
        ];
        v.sort();
        assert_eq!(v[0], SimTime::ZERO);
        assert_eq!(v[2], SimTime::from_secs(3.0));
    }

    #[test]
    fn display_formats() {
        let t = SimTime::from_secs(DAY + 2.0 * HOUR + 3.0 * MINUTE + 4.5);
        assert_eq!(format!("{t}"), "d1 02:03:04.5");
        assert_eq!(format!("{}", SimDuration::from_days(2.0)), "2.00d");
        assert_eq!(format!("{}", SimDuration::from_secs(30.0)), "30.00s");
    }

    #[test]
    fn try_from_secs_accepts_and_rejects() {
        assert_eq!(SimTime::try_from_secs(5.0).unwrap().as_secs(), 5.0);
        assert_eq!(SimDuration::try_from_secs(0.0).unwrap(), SimDuration::ZERO);
        for bad in [-1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(SimTime::try_from_secs(bad).is_err(), "SimTime {bad}");
            assert!(
                SimDuration::try_from_secs(bad).is_err(),
                "SimDuration {bad}"
            );
        }
        let err = SimDuration::try_from_secs(-2.5).unwrap_err();
        assert_eq!(err.context, "SimDuration");
        assert!(err.to_string().contains("-2.5"));
    }

    #[test]
    fn deserialize_rejects_invalid_seconds() {
        let ok: SimDuration = serde::Deserialize::from_value(&serde::Value::F64(3.5)).unwrap();
        assert_eq!(ok.as_secs(), 3.5);
        let t: SimTime = serde::Deserialize::from_value(&serde::Value::U64(7)).unwrap();
        assert_eq!(t.as_secs(), 7.0);
        assert!(SimDuration::from_value(&serde::Value::F64(-1.0)).is_err());
        assert!(SimTime::from_value(&serde::Value::F64(f64::NAN)).is_err());
    }

    #[test]
    fn year_constant_consistency() {
        assert_eq!(SimDuration::from_years(1.0).as_days(), 365.0);
    }
}
