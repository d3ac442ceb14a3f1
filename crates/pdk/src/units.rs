//! Engineering units used throughout the PDK and every downstream crate.
//!
//! The three printed/silicon technologies in the paper span nine orders of
//! magnitude in delay (EGT milliseconds, CNT-TFT microseconds, TSMC-40nm
//! nanoseconds) and area (cm², mm², µm²). To keep arithmetic honest we use
//! newtypes with fixed canonical units:
//!
//! * [`Area`] — square millimetres (mm²)
//! * [`Power`] — milliwatts (mW)
//! * [`Delay`] — seconds (s)
//!
//! All are `Copy` wrappers over `f64` with arithmetic operators and
//! engineering-notation `Display` implementations.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

use serde::{Deserialize, Serialize};

macro_rules! unit {
    ($(#[$meta:meta])* $name:ident, $ctor:ident, $canon:expr) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
        pub struct $name(f64);

        impl $name {
            /// The zero value.
            pub const ZERO: $name = $name(0.0);

            /// Creates a value from the canonical unit.
            #[doc = concat!("Canonical unit: ", $canon, ".")]
            pub fn $ctor(value: f64) -> Self {
                Self(value)
            }

            /// Returns the value in the canonical unit.
            pub fn value(self) -> f64 {
                self.0
            }

            /// Returns the larger of two values.
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// Dimensionless ratio `self / other`.
            ///
            /// # Panics
            /// Does not panic; division by zero yields `inf`/`NaN` per IEEE-754.
            pub fn ratio(self, other: Self) -> f64 {
                self.0 / other.0
            }

            /// True when the value is exactly zero.
            pub fn is_zero(self) -> bool {
                self.0 == 0.0
            }
        }

        impl Add for $name {
            type Output = Self;
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = Self;
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|v| v.0).sum())
            }
        }
    };
}

unit!(
    /// Silicon or printed-circuit area, canonically in mm².
    ///
    /// ```
    /// use pdk::units::Area;
    /// let a = Area::from_mm2(150.0);
    /// assert_eq!(a.as_cm2(), 1.5);
    /// ```
    Area,
    from_mm2,
    "mm²"
);

unit!(
    /// Static power draw, canonically in mW.
    ///
    /// ```
    /// use pdk::units::Power;
    /// let p = Power::from_uw(610.0);
    /// assert!((p.as_mw() - 0.61).abs() < 1e-12);
    /// ```
    Power,
    from_mw,
    "mW"
);

unit!(
    /// Propagation delay or latency, canonically in seconds.
    ///
    /// ```
    /// use pdk::units::Delay;
    /// let d = Delay::from_ms(11.2);
    /// assert!((d.as_us() - 11_200.0).abs() < 1e-6);
    /// ```
    Delay,
    from_secs,
    "s"
);

impl Area {
    /// Creates an area from cm².
    pub fn from_cm2(cm2: f64) -> Self {
        Self(cm2 * 100.0)
    }

    /// Creates an area from µm².
    pub fn from_um2(um2: f64) -> Self {
        Self(um2 * 1e-6)
    }

    /// Returns the area in cm².
    pub fn as_cm2(self) -> f64 {
        self.0 / 100.0
    }

    /// Returns the area in mm².
    pub fn as_mm2(self) -> f64 {
        self.0
    }

    /// Returns the area in µm².
    pub fn as_um2(self) -> f64 {
        self.0 * 1e6
    }
}

impl Power {
    /// Creates a power from µW.
    pub fn from_uw(uw: f64) -> Self {
        Self(uw * 1e-3)
    }

    /// Creates a power from W.
    pub fn from_w(w: f64) -> Self {
        Self(w * 1e3)
    }

    /// Returns the power in mW.
    pub fn as_mw(self) -> f64 {
        self.0
    }

    /// Returns the power in µW.
    pub fn as_uw(self) -> f64 {
        self.0 * 1e3
    }

    /// Returns the power in W.
    pub fn as_w(self) -> f64 {
        self.0 * 1e-3
    }
}

impl Delay {
    /// Creates a delay from milliseconds.
    pub fn from_ms(ms: f64) -> Self {
        Self(ms * 1e-3)
    }

    /// Creates a delay from microseconds.
    pub fn from_us(us: f64) -> Self {
        Self(us * 1e-6)
    }

    /// Creates a delay from nanoseconds.
    pub fn from_ns(ns: f64) -> Self {
        Self(ns * 1e-9)
    }

    /// Returns the delay in seconds.
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// Returns the delay in milliseconds.
    pub fn as_ms(self) -> f64 {
        self.0 * 1e3
    }

    /// Returns the delay in microseconds.
    pub fn as_us(self) -> f64 {
        self.0 * 1e6
    }

    /// Returns the delay in nanoseconds.
    pub fn as_ns(self) -> f64 {
        self.0 * 1e9
    }
}

/// Formats `value` with an SI prefix chosen so the mantissa is in `[1, 1000)`.
fn engineering(value: f64, unit: &str, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    if value == 0.0 {
        return write!(f, "0 {unit}");
    }
    let prefixes: [(f64, &str); 7] = [
        (1e9, "G"),
        (1e6, "M"),
        (1e3, "k"),
        (1.0, ""),
        (1e-3, "m"),
        (1e-6, "µ"),
        (1e-9, "n"),
    ];
    let magnitude = value.abs();
    for (scale, prefix) in prefixes {
        if magnitude >= scale {
            return write!(f, "{:.3} {}{}", value / scale, prefix, unit);
        }
    }
    write!(f, "{:.3e} {}", value, unit)
}

impl fmt::Display for Area {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Area scales quadratically, so SI prefixes are misleading: print the
        // most readable of µm² / mm² / cm².
        let mm2 = self.0;
        if mm2 == 0.0 {
            write!(f, "0 mm²")
        } else if mm2.abs() >= 100.0 {
            write!(f, "{:.3} cm²", self.as_cm2())
        } else if mm2.abs() >= 0.01 {
            write!(f, "{:.3} mm²", mm2)
        } else {
            write!(f, "{:.1} µm²", self.as_um2())
        }
    }
}

impl fmt::Display for Power {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        engineering(self.as_w(), "W", f)
    }
}

impl fmt::Display for Delay {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        engineering(self.0, "s", f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn area_conversions_round_trip() {
        let a = Area::from_cm2(1.5);
        assert!((a.as_mm2() - 150.0).abs() < 1e-12);
        assert!((a.as_um2() - 150.0e6).abs() < 1e-3);
        assert!((Area::from_um2(94.0).as_um2() - 94.0).abs() < 1e-9);
    }

    #[test]
    fn power_conversions_round_trip() {
        let p = Power::from_w(0.61e-3);
        assert!((p.as_mw() - 0.61).abs() < 1e-12);
        assert!((p.as_uw() - 610.0).abs() < 1e-9);
    }

    #[test]
    fn delay_conversions_round_trip() {
        assert!((Delay::from_ms(27.0).as_secs() - 0.027).abs() < 1e-15);
        assert!((Delay::from_us(9.5).as_ns() - 9_500.0).abs() < 1e-9);
        assert!((Delay::from_ns(0.23).as_secs() - 0.23e-9).abs() < 1e-24);
    }

    #[test]
    fn arithmetic_ops_behave() {
        let a = Area::from_mm2(2.0) + Area::from_mm2(3.0);
        assert_eq!(a, Area::from_mm2(5.0));
        let p = Power::from_mw(4.0) - Power::from_mw(1.0);
        assert_eq!(p, Power::from_mw(3.0));
        let d = Delay::from_ms(2.0) * 3.0;
        assert_eq!(d, Delay::from_ms(6.0));
        let s: Area = vec![Area::from_mm2(1.0); 4].into_iter().sum();
        assert_eq!(s, Area::from_mm2(4.0));
    }

    #[test]
    fn ratio_is_dimensionless() {
        assert!((Area::from_mm2(10.0).ratio(Area::from_mm2(2.0)) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn display_uses_engineering_notation() {
        assert_eq!(format!("{}", Delay::from_ms(11.2)), "11.200 ms");
        // 0.23 ns is below the smallest prefix in our table: scientific fallback.
        assert!(format!("{}", Delay::from_ns(0.23)).contains("e-10"));
        let s = format!("{}", Power::from_uw(610.0));
        assert_eq!(s, "610.000 µW");
        assert_eq!(format!("{}", Area::from_cm2(1.5)), "1.500 cm²");
        assert_eq!(format!("{}", Area::from_um2(94.0)), "94.0 µm²");
        assert_eq!(format!("{}", Power::ZERO), "0 W");
    }

    #[test]
    fn max_and_zero() {
        assert_eq!(
            Delay::from_ms(1.0).max(Delay::from_ms(2.0)),
            Delay::from_ms(2.0)
        );
        assert!(Area::ZERO.is_zero());
        assert!(!Area::from_mm2(1.0).is_zero());
    }
}
