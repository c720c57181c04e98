//! Simulation time.
//!
//! [`SimTime`] is an absolute instant measured in integer **picoseconds**
//! since the start of the simulation. Integer time keeps the event queue
//! totally ordered and the simulation bit-reproducible; picosecond
//! resolution keeps rounding error negligible even for single-byte
//! transfers on terabit links (1 byte at 100 GB/s is 10 ps).

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Picoseconds per second.
pub const PS_PER_SEC: u64 = 1_000_000_000_000;

/// An absolute instant (or a duration) in simulated time.
///
/// `SimTime` is a thin wrapper over integer picoseconds. It implements the
/// arithmetic needed by the engine and converts to/from floating-point
/// seconds at the API boundary.
///
/// # Examples
///
/// ```
/// use hilos_sim::SimTime;
///
/// let t = SimTime::from_micros(3) + SimTime::from_nanos(500);
/// assert_eq!(t.as_nanos(), 3_500);
/// assert!((t.as_secs_f64() - 3.5e-6).abs() < 1e-18);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The zero instant (simulation start).
    pub const ZERO: SimTime = SimTime(0);

    /// The maximum representable instant.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from raw picoseconds.
    pub const fn from_picos(ps: u64) -> Self {
        SimTime(ps)
    }

    /// Creates a time from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns * 1_000)
    }

    /// Creates a time from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000_000)
    }

    /// Creates a time from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000_000)
    }

    /// Creates a time from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * PS_PER_SEC)
    }

    /// Creates a time from floating-point seconds, rounding to the nearest
    /// picosecond. Negative or non-finite inputs saturate to zero; values
    /// beyond the representable range saturate to [`SimTime::MAX`].
    pub fn from_secs_f64(s: f64) -> Self {
        if !s.is_finite() || s <= 0.0 {
            return SimTime::ZERO;
        }
        let ps = s * PS_PER_SEC as f64;
        if ps >= u64::MAX as f64 {
            SimTime::MAX
        } else {
            SimTime(ps.round() as u64)
        }
    }

    /// Like [`SimTime::from_secs_f64`] but rounds *up* and never returns a
    /// zero duration for a positive input. The engine uses this when
    /// scheduling completions so that progress is always made.
    pub fn from_secs_f64_ceil(s: f64) -> Self {
        if !s.is_finite() || s <= 0.0 {
            return SimTime::ZERO;
        }
        let ps = (s * PS_PER_SEC as f64).ceil();
        if ps >= u64::MAX as f64 {
            SimTime::MAX
        } else {
            SimTime((ps as u64).max(1))
        }
    }

    /// Raw picosecond count.
    pub const fn as_picos(self) -> u64 {
        self.0
    }

    /// Time in whole nanoseconds (truncated).
    pub const fn as_nanos(self) -> u64 {
        self.0 / 1_000
    }

    /// Time in whole microseconds (truncated).
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Time in floating-point seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_SEC as f64
    }

    /// Saturating subtraction: `self - other`, clamped at zero.
    pub fn saturating_sub(self, other: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(other.0))
    }

    /// Saturating addition.
    pub fn saturating_add(self, other: SimTime) -> SimTime {
        SimTime(self.0.saturating_add(other.0))
    }

    /// Returns the larger of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Returns the smaller of two instants.
    pub fn min(self, other: SimTime) -> SimTime {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// True if this is the zero instant.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    /// # Panics
    ///
    /// Panics in debug builds if `rhs > self`; saturates in release.
    fn sub(self, rhs: SimTime) -> SimTime {
        debug_assert!(self.0 >= rhs.0, "SimTime subtraction underflow");
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.as_secs_f64();
        if s >= 1.0 {
            write!(f, "{s:.4}s")
        } else if s >= 1e-3 {
            write!(f, "{:.4}ms", s * 1e3)
        } else if s >= 1e-6 {
            write!(f, "{:.4}us", s * 1e6)
        } else {
            write!(f, "{}ns", self.as_nanos())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        let t = SimTime::from_secs_f64(1.25);
        assert_eq!(t.as_picos(), 1_250_000_000_000);
        assert!((t.as_secs_f64() - 1.25).abs() < 1e-12);
        assert_eq!(SimTime::from_millis(2).as_micros(), 2_000);
        assert_eq!(SimTime::from_secs(3).as_nanos(), 3_000_000_000);
    }

    #[test]
    fn from_secs_f64_handles_garbage() {
        assert_eq!(SimTime::from_secs_f64(-1.0), SimTime::ZERO);
        assert_eq!(SimTime::from_secs_f64(f64::NAN), SimTime::ZERO);
        assert_eq!(SimTime::from_secs_f64(f64::INFINITY), SimTime::ZERO.max(SimTime::ZERO));
        assert_eq!(SimTime::from_secs_f64(1e30), SimTime::MAX);
    }

    #[test]
    fn ceil_never_zero_for_positive() {
        let t = SimTime::from_secs_f64_ceil(1e-15);
        assert!(t > SimTime::ZERO);
        assert_eq!(SimTime::from_secs_f64_ceil(0.0), SimTime::ZERO);
    }

    #[test]
    fn arithmetic_saturates() {
        assert_eq!(SimTime::MAX + SimTime::from_secs(1), SimTime::MAX);
        assert_eq!(SimTime::ZERO.saturating_sub(SimTime::from_secs(1)), SimTime::ZERO);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(format!("{}", SimTime::from_secs(2)), "2.0000s");
        assert_eq!(format!("{}", SimTime::from_millis(5)), "5.0000ms");
        assert_eq!(format!("{}", SimTime::from_nanos(7)), "7ns");
    }

    #[test]
    fn ordering_is_total() {
        let mut v = [SimTime::from_secs(2), SimTime::ZERO, SimTime::from_nanos(5)];
        v.sort();
        assert_eq!(v[0], SimTime::ZERO);
        assert_eq!(v[2], SimTime::from_secs(2));
    }
}
