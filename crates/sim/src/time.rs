//! Simulated time.
//!
//! The simulator measures time in integer nanoseconds. Nanosecond resolution
//! is fine enough to express single CPU cycles of the simulated Alpha 21064
//! (7.5 ns at 133 MHz) while keeping arithmetic exact: all scheduling,
//! serialization, and cost-model math happens on `u64`/`i64` values, so two
//! runs of the same workload produce bit-identical timelines.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute instant on the simulated timeline, in nanoseconds since the
/// simulation epoch (time zero, when [`crate::engine::Engine`] starts).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(0);

    /// The largest representable instant; used as an "infinitely far away"
    /// sentinel for idle devices.
    pub(crate) const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from nanoseconds since the epoch.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Creates an instant from microseconds since the epoch.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Nanoseconds since the epoch.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Microseconds since the epoch, truncated.
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Microseconds since the epoch, as a float (for reporting).
    pub(crate) fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// The span from `earlier` to `self`, or zero when `earlier` is later
    /// than `self`.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The empty span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a span from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Creates a span from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Creates a span from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Creates a span from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Creates a span from fractional seconds, rounding to nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics on negative or non-finite input.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "invalid duration: {s}");
        SimDuration((s * 1_000_000_000.0).round() as u64)
    }

    /// Nanoseconds in the span.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Microseconds in the span, truncated.
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Microseconds in the span, as a float (for reporting).
    pub(crate) fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Seconds in the span, as a float (for reporting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// True if the span is empty.
    pub(crate) const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Multiplies the span by an integer count (e.g. per-byte costs).
    pub const fn times(self, n: u64) -> SimDuration {
        SimDuration(self.0 * n)
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
        SimTime(self.0 - rhs.0)
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
        assert!(rhs.0 <= self.0, "duration underflow: {self} - {rhs}");
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
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
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}ns", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_micros_f64())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ns", self.0)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_micros_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl SimTime {
        /// The span from `earlier` to `self`.
        ///
        /// # Panics
        ///
        /// Panics if `earlier` is later than `self`; simulated time never runs
        /// backwards, so that indicates a scheduling bug.
        fn since(self, earlier: SimTime) -> SimDuration {
            assert!(
                earlier.0 <= self.0,
                "time ran backwards: {earlier} is after {self}"
            );
            SimDuration(self.0 - earlier.0)
        }
    }

    #[test]
    fn time_arithmetic_round_trips() {
        let t = SimTime::from_micros(10);
        let d = SimDuration::from_micros(5);
        assert_eq!((t + d).as_micros(), 15);
        assert_eq!((t + d).since(t), d);
        assert_eq!((t + d) - d, t);
    }

    #[test]
    fn duration_conversions() {
        assert_eq!(SimDuration::from_secs(1).as_nanos(), 1_000_000_000);
        assert_eq!(SimDuration::from_millis(2).as_micros(), 2_000);
        assert_eq!(SimDuration::from_secs_f64(0.5).as_nanos(), 500_000_000);
        assert_eq!(SimDuration::from_micros(3).times(4).as_micros(), 12);
    }

    #[test]
    fn saturating_since_clamps_to_zero() {
        let early = SimTime::from_micros(1);
        let late = SimTime::from_micros(2);
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
        assert_eq!(late.saturating_since(early), SimDuration::from_micros(1));
    }

    #[test]
    #[should_panic(expected = "time ran backwards")]
    fn since_panics_on_backwards_time() {
        let early = SimTime::from_micros(1);
        let late = SimTime::from_micros(2);
        let _ = early.since(late);
    }

    #[test]
    fn duration_sum() {
        let total: SimDuration = (1..=4).map(SimDuration::from_micros).sum();
        assert_eq!(total.as_micros(), 10);
    }

    #[test]
    fn display_formats_microseconds() {
        assert_eq!(SimDuration::from_nanos(1_500).to_string(), "1.500us");
        assert_eq!(SimTime::from_micros(2).to_string(), "2.000us");
    }
}
