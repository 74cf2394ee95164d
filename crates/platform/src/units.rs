//! Strongly-typed scalar units used across the workspace.
//!
//! The paper's analysis is unit-agnostic ("time units"), but the experiment
//! harness calibrates against real hardware (Gflop/s, Mbit/s). Newtypes keep
//! the two worlds from being mixed up accidentally.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A duration in (possibly virtual) seconds.
///
/// All simulator timestamps and cost-model outputs are `Seconds`. The type
/// is a thin wrapper over `f64` with arithmetic; it intentionally does not
/// implement `Eq`/`Ord` (floats) — the simulator uses its own ordered time.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Seconds(pub f64);

impl Seconds {
    /// Zero duration.
    pub const ZERO: Seconds = Seconds(0.0);

    /// Construct from a raw `f64` value.
    #[inline]
    pub fn new(v: f64) -> Self {
        Seconds(v)
    }

    /// The raw value.
    #[inline]
    pub fn value(self) -> f64 {
        self.0
    }

    /// `max` of two durations.
    #[inline]
    pub fn max(self, other: Seconds) -> Seconds {
        Seconds(self.0.max(other.0))
    }

    /// `min` of two durations.
    #[inline]
    pub fn min(self, other: Seconds) -> Seconds {
        Seconds(self.0.min(other.0))
    }

    /// True if the value is finite (not NaN / infinity).
    #[inline]
    pub fn is_finite(self) -> bool {
        self.0.is_finite()
    }
}

impl Add for Seconds {
    type Output = Seconds;
    #[inline]
    fn add(self, rhs: Seconds) -> Seconds {
        Seconds(self.0 + rhs.0)
    }
}

impl AddAssign for Seconds {
    #[inline]
    fn add_assign(&mut self, rhs: Seconds) {
        self.0 += rhs.0;
    }
}

impl Sub for Seconds {
    type Output = Seconds;
    #[inline]
    fn sub(self, rhs: Seconds) -> Seconds {
        Seconds(self.0 - rhs.0)
    }
}

impl SubAssign for Seconds {
    #[inline]
    fn sub_assign(&mut self, rhs: Seconds) {
        self.0 -= rhs.0;
    }
}

impl Mul<f64> for Seconds {
    type Output = Seconds;
    #[inline]
    fn mul(self, rhs: f64) -> Seconds {
        Seconds(self.0 * rhs)
    }
}

impl Mul<Seconds> for f64 {
    type Output = Seconds;
    #[inline]
    fn mul(self, rhs: Seconds) -> Seconds {
        Seconds(self * rhs.0)
    }
}

impl Div<f64> for Seconds {
    type Output = Seconds;
    #[inline]
    fn div(self, rhs: f64) -> Seconds {
        Seconds(self.0 / rhs)
    }
}

impl Div<Seconds> for Seconds {
    type Output = f64;
    #[inline]
    fn div(self, rhs: Seconds) -> f64 {
        self.0 / rhs.0
    }
}

impl Neg for Seconds {
    type Output = Seconds;
    #[inline]
    fn neg(self) -> Seconds {
        Seconds(-self.0)
    }
}

impl Sum for Seconds {
    fn sum<I: Iterator<Item = Seconds>>(iter: I) -> Seconds {
        Seconds(iter.map(|s| s.0).sum())
    }
}

impl fmt::Display for Seconds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1.0 {
            write!(f, "{:.3}s", self.0)
        } else if self.0 >= 1e-3 {
            write!(f, "{:.3}ms", self.0 * 1e3)
        } else {
            write!(f, "{:.3}us", self.0 * 1e6)
        }
    }
}

/// Floating-point operation rate, in flop/s.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct FlopRate(pub f64);

impl FlopRate {
    /// Construct a rate from Gflop/s.
    #[inline]
    pub fn gflops(v: f64) -> Self {
        FlopRate(v * 1e9)
    }

    /// Rate in flop/s.
    #[inline]
    pub fn per_second(self) -> f64 {
        self.0
    }

    /// Time to execute `flops` floating-point operations at this rate.
    #[inline]
    pub fn time_for(self, flops: f64) -> Seconds {
        Seconds(flops / self.0)
    }
}

/// Link bandwidth, in bytes per second.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Bandwidth(pub f64);

impl Bandwidth {
    /// Construct from megabits per second (network-vendor units).
    #[inline]
    pub fn mbps(v: f64) -> Self {
        Bandwidth(v * 1e6 / 8.0)
    }

    /// Bytes per second.
    #[inline]
    pub fn value(self) -> f64 {
        self.0
    }

    /// Time to transfer `bytes` at this bandwidth.
    #[inline]
    pub fn time_for(self, bytes: f64) -> Seconds {
        Seconds(bytes / self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seconds_arithmetic() {
        let a = Seconds(2.0);
        let b = Seconds(0.5);
        assert_eq!((a + b).value(), 2.5);
        assert_eq!((a - b).value(), 1.5);
        assert_eq!((a * 2.0).value(), 4.0);
        assert_eq!((a / 2.0).value(), 1.0);
        assert_eq!(a / b, 4.0);
        assert_eq!((-b).value(), -0.5);
    }

    #[test]
    fn seconds_sum_and_minmax() {
        let total: Seconds = [Seconds(1.0), Seconds(2.0), Seconds(3.0)].into_iter().sum();
        assert_eq!(total.value(), 6.0);
        assert_eq!(Seconds(1.0).max(Seconds(2.0)).value(), 2.0);
        assert_eq!(Seconds(1.0).min(Seconds(2.0)).value(), 1.0);
    }

    #[test]
    fn seconds_display_scales() {
        assert_eq!(format!("{}", Seconds(2.5)), "2.500s");
        assert_eq!(format!("{}", Seconds(2.5e-3)), "2.500ms");
        assert_eq!(format!("{}", Seconds(2.5e-6)), "2.500us");
    }

    #[test]
    fn floprate_time() {
        let r = FlopRate::gflops(2.0);
        // 2e9 flops at 2 Gflop/s takes one second.
        assert!((r.time_for(2e9).value() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bandwidth_mbps_conversion() {
        let b = Bandwidth::mbps(100.0);
        // 100 Mbps = 12.5 MB/s.
        assert!((b.value() - 12.5e6).abs() < 1e-6);
        // One 80x80 f64 block = 51_200 bytes -> 4.096 ms.
        assert!((b.time_for(51_200.0).value() - 4.096e-3).abs() < 1e-9);
    }

    #[test]
    fn seconds_assign_ops() {
        let mut a = Seconds(1.0);
        a += Seconds(2.0);
        assert_eq!(a.value(), 3.0);
        a -= Seconds(0.5);
        assert_eq!(a.value(), 2.5);
    }
}
