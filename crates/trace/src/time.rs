//! Totally-ordered trace time.
//!
//! One timestamp type serves both timelines: the simulator advances it as
//! virtual seconds, the runtime recorder stamps it with wall-clock seconds
//! since the process trace epoch. Keeping them the same type is what lets
//! simulated and measured [`crate::Trace`]s be diffed span for span.

use mwp_platform::Seconds;
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in trace time.
///
/// Wraps `f64` but provides a **total order** via `f64::total_cmp`, so it
/// can key ordered collections. Simulation code never produces NaN; the
/// total order makes that assumption safe rather than silently wrong.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SimTime(pub f64);

impl SimTime {
    /// Time zero, the start of every simulation.
    pub const ZERO: SimTime = SimTime(0.0);

    /// A time beyond any schedule — used as an "infinity" sentinel.
    pub const FAR_FUTURE: SimTime = SimTime(f64::MAX);

    /// Raw value.
    #[inline]
    pub fn value(self) -> f64 {
        self.0
    }

    /// Later of two times.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Earlier of two times.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        if self <= other {
            self
        } else {
            other
        }
    }
}

impl Eq for SimTime {}

impl PartialOrd for SimTime {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SimTime {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl Add<Seconds> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: Seconds) -> SimTime {
        SimTime(self.0 + rhs.value())
    }
}

impl AddAssign<Seconds> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: Seconds) {
        self.0 += rhs.value();
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Seconds;
    #[inline]
    fn sub(self, rhs: SimTime) -> Seconds {
        Seconds(self.0 - rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.4}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_total() {
        let a = SimTime(1.0);
        let b = SimTime(2.0);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert!(SimTime::ZERO < SimTime::FAR_FUTURE);
    }

    #[test]
    fn arithmetic_with_seconds() {
        let t = SimTime(1.0) + Seconds(0.5);
        assert_eq!(t, SimTime(1.5));
        let mut u = SimTime(2.0);
        u += Seconds(1.0);
        assert_eq!(u, SimTime(3.0));
        assert_eq!((u - t).value(), 1.5);
    }

    #[test]
    fn display_format() {
        assert_eq!(SimTime(1.25).to_string(), "t=1.2500");
    }
}
