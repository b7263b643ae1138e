//! Simulated time.
//!
//! Time is a `u64` count of microseconds since the start of the run. Integer
//! time keeps event ordering exact and runs reproducible across platforms;
//! microsecond resolution is fine-grained enough for wide-area network
//! latencies (hundreds of microseconds to hundreds of milliseconds).

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time (microseconds since simulation start).
///
/// `SimTime` doubles as a duration type: the engine only ever needs
/// differences and sums of time points, and a separate duration type would
/// add noise to every protocol implementation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable time; used as "never".
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Creates a time from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    /// Creates a time from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000)
    }

    /// Creates a time from whole minutes.
    pub const fn from_mins(m: u64) -> Self {
        SimTime(m * 60_000_000)
    }

    /// Creates a time from whole hours.
    pub const fn from_hours(h: u64) -> Self {
        SimTime(h * 3_600_000_000)
    }

    /// Creates a time from fractional seconds, rounding to the nearest
    /// microsecond. Negative inputs clamp to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        if s <= 0.0 {
            return SimTime::ZERO;
        }
        SimTime((s * 1e6).round() as u64)
    }

    /// This time in microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// This time in fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// This time in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating subtraction: `self - other`, or zero if `other > self`.
    pub fn saturating_sub(self, other: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(other.0))
    }

    /// Saturating addition (clamps at [`SimTime::MAX`]).
    pub fn saturating_add(self, other: SimTime) -> SimTime {
        SimTime(self.0.saturating_add(other.0))
    }

    /// Multiplies a duration by an integer factor (saturating).
    #[allow(
        clippy::should_implement_trait,
        reason = "saturating semantics, not ops::Mul"
    )]
    pub fn mul(self, k: u64) -> SimTime {
        SimTime(self.0.saturating_mul(k))
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}us", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{}us", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_secs(1), SimTime::from_millis(1_000));
        assert_eq!(SimTime::from_millis(1), SimTime::from_micros(1_000));
        assert_eq!(SimTime::from_mins(2), SimTime::from_secs(120));
        assert_eq!(SimTime::from_hours(1), SimTime::from_mins(60));
    }

    #[test]
    fn float_round_trip() {
        let t = SimTime::from_secs_f64(1.5);
        assert_eq!(t.as_micros(), 1_500_000);
        assert!((t.as_secs_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn negative_floats_clamp_to_zero() {
        assert_eq!(SimTime::from_secs_f64(-3.0), SimTime::ZERO);
    }

    #[test]
    fn saturating_ops() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(2);
        assert_eq!(a.saturating_sub(b), SimTime::ZERO);
        assert_eq!(b.saturating_sub(a), SimTime::from_secs(1));
        assert_eq!(SimTime::MAX.saturating_add(a), SimTime::MAX);
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(SimTime::from_micros(999) < SimTime::from_millis(1));
        assert!(SimTime::MAX > SimTime::from_hours(10_000));
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(format!("{}", SimTime::from_micros(12)), "12us");
        assert_eq!(format!("{}", SimTime::from_micros(1_500)), "1.500ms");
        assert_eq!(format!("{}", SimTime::from_millis(2_500)), "2.500s");
    }
}
