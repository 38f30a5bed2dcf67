//! Virtual simulation time.
//!
//! The simulator uses a discrete virtual clock with **millisecond** resolution.
//! Two newtypes are provided:
//!
//! * [`SimTime`] — an absolute instant on the virtual time line (milliseconds
//!   since the start of the simulation).
//! * [`SimDuration`] — a non-negative span of virtual time.
//!
//! Both are plain `u64` wrappers: cheap to copy, totally ordered, and with
//! saturating/checked arithmetic where overflow could realistically occur.
//!
//! # Examples
//!
//! ```
//! use simkit::time::{SimTime, SimDuration};
//!
//! let start = SimTime::ZERO;
//! let hb = SimDuration::from_secs(15);
//! let next = start + hb;
//! assert_eq!(next.as_millis(), 15_000);
//! assert_eq!(next - start, hb);
//! ```

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute instant of virtual time, in milliseconds since simulation start.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(u64);

/// A non-negative span of virtual time, in milliseconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(u64);

impl SimTime {
    /// The beginning of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant (used as "never").
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from milliseconds since simulation start.
    ///
    /// ```
    /// # use simkit::time::SimTime;
    /// assert_eq!(SimTime::from_millis(1500).as_secs_f64(), 1.5);
    /// ```
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms)
    }

    /// Creates an instant from whole seconds since simulation start.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1000)
    }

    /// Creates an instant from fractional seconds, rounding to the nearest millisecond.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "SimTime::from_secs_f64 requires a finite, non-negative value, got {secs}"
        );
        SimTime((secs * 1000.0).round() as u64)
    }

    /// Milliseconds since simulation start.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start, as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// Returns the duration elapsed since `earlier`, or zero if `earlier` is later.
    ///
    /// ```
    /// # use simkit::time::{SimTime, SimDuration};
    /// let a = SimTime::from_secs(10);
    /// let b = SimTime::from_secs(4);
    /// assert_eq!(a.saturating_since(b), SimDuration::from_secs(6));
    /// assert_eq!(b.saturating_since(a), SimDuration::ZERO);
    /// ```
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Returns `self + d`, saturating at [`SimTime::MAX`].
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The longest representable duration (used as "infinite validity").
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1000)
    }

    /// Creates a duration from fractional seconds, rounding to the nearest millisecond.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "SimDuration::from_secs_f64 requires a finite, non-negative value, got {secs}"
        );
        SimDuration((secs * 1000.0).round() as u64)
    }

    /// The duration in milliseconds.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// The duration in seconds, as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// `true` if this duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction (zero floor).
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Multiplies the duration by a non-negative float factor, rounding to milliseconds.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "SimDuration::mul_f64 requires a finite, non-negative factor, got {factor}"
        );
        SimDuration((self.0 as f64 * factor).round() as u64)
    }

    /// Divides the duration by a positive float divisor, rounding to milliseconds.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is not strictly positive or not finite.
    pub fn div_f64(self, divisor: f64) -> SimDuration {
        assert!(
            divisor.is_finite() && divisor > 0.0,
            "SimDuration::div_f64 requires a finite, positive divisor, got {divisor}"
        );
        SimDuration((self.0 as f64 / divisor).round() as u64)
    }

    /// Returns the larger of two durations.
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }

    /// Returns the smaller of two durations.
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl From<u64> for SimDuration {
    /// Interprets the value as milliseconds.
    fn from(ms: u64) -> Self {
        SimDuration(ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_construction_roundtrips() {
        assert_eq!(SimTime::from_secs(3).as_millis(), 3000);
        assert_eq!(SimTime::from_millis(250).as_secs_f64(), 0.25);
        assert_eq!(SimTime::from_secs_f64(1.2345).as_millis(), 1235);
        assert_eq!(SimTime::ZERO.as_millis(), 0);
    }

    #[test]
    fn duration_construction_roundtrips() {
        assert_eq!(SimDuration::from_secs(2).as_millis(), 2000);
        assert_eq!(SimDuration::from_millis(1).as_secs_f64(), 0.001);
        assert_eq!(SimDuration::from_secs_f64(0.5).as_millis(), 500);
        assert!(SimDuration::ZERO.is_zero());
        assert!(!SimDuration::from_millis(1).is_zero());
    }

    #[test]
    fn time_arithmetic() {
        let t = SimTime::from_secs(10);
        let d = SimDuration::from_secs(4);
        assert_eq!((t + d).as_millis(), 14_000);
        assert_eq!((t - d).as_millis(), 6_000);
        assert_eq!(t - SimTime::from_secs(4), SimDuration::from_secs(6));
        // subtraction saturates rather than underflowing
        assert_eq!(
            SimTime::from_secs(1) - SimDuration::from_secs(5),
            SimTime::ZERO
        );
        assert_eq!(
            SimTime::from_secs(1) - SimTime::from_secs(5),
            SimDuration::ZERO
        );
    }

    #[test]
    fn duration_arithmetic() {
        let a = SimDuration::from_secs(3);
        let b = SimDuration::from_secs(1);
        assert_eq!(a + b, SimDuration::from_secs(4));
        assert_eq!(a - b, SimDuration::from_secs(2));
        assert_eq!(b - a, SimDuration::ZERO);
        assert_eq!(a * 3, SimDuration::from_secs(9));
        assert_eq!(a / 3, SimDuration::from_secs(1));
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    fn float_scaling() {
        let d = SimDuration::from_secs(10);
        assert_eq!(d.mul_f64(0.5), SimDuration::from_secs(5));
        assert_eq!(d.div_f64(4.0), SimDuration::from_millis(2500));
    }

    #[test]
    fn saturating_behaviour() {
        assert_eq!(
            SimTime::MAX.saturating_add(SimDuration::from_secs(1)),
            SimTime::MAX
        );
        assert_eq!(
            SimTime::from_secs(2).saturating_since(SimTime::from_secs(5)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn display_formats_seconds() {
        assert_eq!(SimTime::from_millis(1500).to_string(), "1.500s");
        assert_eq!(SimDuration::from_millis(20).to_string(), "0.020s");
    }

    #[test]
    #[should_panic]
    fn from_secs_f64_rejects_negative() {
        let _ = SimDuration::from_secs_f64(-1.0);
    }

    #[test]
    fn ordering_is_by_instant() {
        assert!(SimTime::from_secs(1) < SimTime::from_secs(2));
        assert!(SimDuration::from_millis(999) < SimDuration::from_secs(1));
        assert_eq!(SimTime::ZERO, SimTime::default());
    }
}
