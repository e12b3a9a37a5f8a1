//! Physical unit newtypes for power, energy, and carbon.
//!
//! These are deliberately thin wrappers over `f64` — enough type safety to
//! keep watts, joules, grams-CO₂ and grams-per-kWh from being mixed up in
//! the budgeting and accounting code, without turning arithmetic into a
//! ceremony. Conversions that cross dimensions are explicit methods
//! (`Power::for_duration -> Energy`, `Energy * CarbonIntensity -> Carbon`).

use crate::time::SimDuration;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Electrical power in watts.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct Power(f64);

/// Energy in joules.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct Energy(f64);

/// Carbon mass in grams of CO₂-equivalent.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct Carbon(f64);

/// Grid carbon intensity in gCO₂e per kWh.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct CarbonIntensity(f64);

/// Joules per kWh.
pub(crate) const JOULES_PER_KWH: f64 = 3.6e6;

impl Power {
    /// Zero watts.
    pub const ZERO: Power = Power(0.0);

    /// From watts.
    #[inline]
    pub fn from_watts(w: f64) -> Self {
        debug_assert!(w.is_finite());
        Power(w)
    }

    /// From kilowatts.
    #[inline]
    pub fn from_kw(kw: f64) -> Self {
        Power(kw * 1e3)
    }

    /// From megawatts.
    #[inline]
    pub fn from_mw(mw: f64) -> Self {
        Power(mw * 1e6)
    }

    /// In watts.
    #[inline]
    pub fn watts(self) -> f64 {
        self.0
    }

    /// In kilowatts.
    #[inline]
    pub fn kw(self) -> f64 {
        self.0 / 1e3
    }

    /// In megawatts.
    #[inline]
    pub fn mw(self) -> f64 {
        self.0 / 1e6
    }

    /// Energy delivered at this power for `d`.
    #[inline]
    pub fn for_duration(self, d: SimDuration) -> Energy {
        Energy(self.0 * d.as_secs())
    }

    /// Clamps into `[lo, hi]`.
    #[inline]
    #[cfg(test)]
    pub(crate) fn clamp(self, lo: Power, hi: Power) -> Power {
        Power(self.0.clamp(lo.0, hi.0))
    }
}

impl Energy {
    /// Zero joules.
    pub const ZERO: Energy = Energy(0.0);

    /// From joules.
    #[inline]
    pub fn from_joules(j: f64) -> Self {
        debug_assert!(j.is_finite());
        Energy(j)
    }

    /// From kilowatt-hours.
    #[inline]
    pub fn from_kwh(kwh: f64) -> Self {
        Energy(kwh * JOULES_PER_KWH)
    }

    /// In joules.
    #[inline]
    pub fn joules(self) -> f64 {
        self.0
    }

    /// In kilowatt-hours.
    #[inline]
    pub fn kwh(self) -> f64 {
        self.0 / JOULES_PER_KWH
    }

    /// In megawatt-hours.
    #[inline]
    pub fn mwh(self) -> f64 {
        self.kwh() / 1e3
    }

    /// Carbon emitted when this energy is drawn at intensity `ci`.
    #[inline]
    pub fn carbon_at(self, ci: CarbonIntensity) -> Carbon {
        Carbon(self.kwh() * ci.grams_per_kwh())
    }

    /// Average power if spread over `d`.
    #[inline]
    pub fn over_duration(self, d: SimDuration) -> Power {
        assert!(d.as_secs() > 0.0, "zero duration");
        Power(self.0 / d.as_secs())
    }
}

impl Carbon {
    /// Zero grams.
    pub const ZERO: Carbon = Carbon(0.0);

    /// From grams CO₂e.
    #[inline]
    pub fn from_grams(g: f64) -> Self {
        debug_assert!(g.is_finite());
        Carbon(g)
    }

    /// From kilograms CO₂e.
    #[inline]
    pub fn from_kg(kg: f64) -> Self {
        Carbon(kg * 1e3)
    }

    /// From metric tons CO₂e.
    #[inline]
    pub fn from_tons(t: f64) -> Self {
        Carbon(t * 1e6)
    }

    /// In grams.
    #[inline]
    pub fn grams(self) -> f64 {
        self.0
    }

    /// In kilograms.
    #[inline]
    pub fn kg(self) -> f64 {
        self.0 / 1e3
    }

    /// In metric tons.
    #[inline]
    pub fn tons(self) -> f64 {
        self.0 / 1e6
    }
}

impl CarbonIntensity {
    /// Zero-carbon energy.
    pub const ZERO: CarbonIntensity = CarbonIntensity(0.0);

    /// From gCO₂e/kWh.
    #[inline]
    pub fn from_grams_per_kwh(g: f64) -> Self {
        debug_assert!(g.is_finite() && g >= 0.0);
        CarbonIntensity(g)
    }

    /// In gCO₂e/kWh.
    #[inline]
    pub fn grams_per_kwh(self) -> f64 {
        self.0
    }
}

macro_rules! impl_linear_ops {
    ($t:ident) => {
        impl Add for $t {
            type Output = $t;
            #[inline]
            fn add(self, rhs: $t) -> $t {
                $t(self.0 + rhs.0)
            }
        }
        impl AddAssign for $t {
            #[inline]
            fn add_assign(&mut self, rhs: $t) {
                self.0 += rhs.0;
            }
        }
        impl Sub for $t {
            type Output = $t;
            #[inline]
            fn sub(self, rhs: $t) -> $t {
                $t(self.0 - rhs.0)
            }
        }
        impl SubAssign for $t {
            #[inline]
            fn sub_assign(&mut self, rhs: $t) {
                self.0 -= rhs.0;
            }
        }
        impl Mul<f64> for $t {
            type Output = $t;
            #[inline]
            fn mul(self, rhs: f64) -> $t {
                $t(self.0 * rhs)
            }
        }
        impl Div<f64> for $t {
            type Output = $t;
            #[inline]
            fn div(self, rhs: f64) -> $t {
                $t(self.0 / rhs)
            }
        }
        impl Div for $t {
            type Output = f64;
            #[inline]
            fn div(self, rhs: $t) -> f64 {
                self.0 / rhs.0
            }
        }
        impl Sum for $t {
            fn sum<I: Iterator<Item = $t>>(iter: I) -> $t {
                $t(iter.map(|v| v.0).sum())
            }
        }
        impl Eq for $t {}
        #[allow(clippy::derive_ord_xor_partial_ord)]
        impl Ord for $t {
            #[inline]
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                self.0.total_cmp(&other.0)
            }
        }
    };
}

impl_linear_ops!(Power);
impl_linear_ops!(Energy);
impl_linear_ops!(Carbon);
impl_linear_ops!(CarbonIntensity);

impl fmt::Display for Power {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.abs() >= 1e6 {
            write!(f, "{:.2} MW", self.mw())
        } else if self.0.abs() >= 1e3 {
            write!(f, "{:.2} kW", self.kw())
        } else {
            write!(f, "{:.1} W", self.0)
        }
    }
}

impl fmt::Display for Energy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.kwh().abs() >= 1e3 {
            write!(f, "{:.2} MWh", self.mwh())
        } else {
            write!(f, "{:.2} kWh", self.kwh())
        }
    }
}

impl fmt::Display for Carbon {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.abs() >= 1e6 {
            write!(f, "{:.2} tCO2e", self.tons())
        } else if self.0.abs() >= 1e3 {
            write!(f, "{:.2} kgCO2e", self.kg())
        } else {
            write!(f, "{:.1} gCO2e", self.0)
        }
    }
}

impl fmt::Display for CarbonIntensity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} gCO2e/kWh", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_conversions() {
        let p = Power::from_mw(20.0);
        assert_eq!(p.watts(), 20e6);
        assert_eq!(p.kw(), 20e3);
        assert_eq!(Power::from_kw(1.5).watts(), 1500.0);
    }

    #[test]
    fn energy_from_power_and_duration() {
        let e = Power::from_kw(1.0).for_duration(SimDuration::from_hours(1.0));
        assert!((e.kwh() - 1.0).abs() < 1e-12);
        assert_eq!(e.joules(), 3.6e6);
        let p = e.over_duration(SimDuration::from_hours(2.0));
        assert!((p.kw() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn carbon_from_energy_and_intensity() {
        // 2 kWh at 500 g/kWh = 1000 g = 1 kg.
        let c = Energy::from_kwh(2.0).carbon_at(CarbonIntensity::from_grams_per_kwh(500.0));
        assert!((c.kg() - 1.0).abs() < 1e-12);
        assert!((Carbon::from_tons(1.0).grams() - 1e6).abs() < 1e-9);
    }

    #[test]
    fn arithmetic_ops() {
        let a = Power::from_watts(100.0);
        let b = Power::from_watts(50.0);
        assert_eq!((a + b).watts(), 150.0);
        assert_eq!((a - b).watts(), 50.0);
        assert_eq!((a * 2.0).watts(), 200.0);
        assert_eq!((a / 4.0).watts(), 25.0);
        assert_eq!(a / b, 2.0);
        let total: Power = vec![a, b, b].into_iter().sum();
        assert_eq!(total.watts(), 200.0);
    }

    #[test]
    fn clamp_and_minmax() {
        let p = Power::from_watts(120.0);
        assert_eq!(
            p.clamp(Power::from_watts(0.0), Power::from_watts(100.0))
                .watts(),
            100.0
        );
        assert_eq!(p.max(Power::from_watts(200.0)).watts(), 200.0);
        assert_eq!(p.min(Power::from_watts(10.0)).watts(), 10.0);
    }

    #[test]
    fn ordering() {
        let mut v = [
            Carbon::from_grams(3.0),
            Carbon::ZERO,
            Carbon::from_grams(1.0),
        ];
        v.sort();
        assert_eq!(v[0], Carbon::ZERO);
        assert_eq!(v[2], Carbon::from_grams(3.0));
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(format!("{}", Power::from_mw(20.0)), "20.00 MW");
        assert_eq!(format!("{}", Power::from_watts(250.0)), "250.0 W");
        assert_eq!(format!("{}", Carbon::from_tons(2.5)), "2.50 tCO2e");
        assert_eq!(format!("{}", Energy::from_kwh(5.0)), "5.00 kWh");
        assert_eq!(
            format!("{}", CarbonIntensity::from_grams_per_kwh(20.0)),
            "20.0 gCO2e/kWh"
        );
    }

    #[test]
    fn mwh_of_kwh() {
        let e = Energy::from_kwh(1000.0);
        assert!((e.mwh() - 1.0).abs() < 1e-12);
    }
}
