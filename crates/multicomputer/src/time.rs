//! Simulated time and compute-cost quantities.
//!
//! The simulator measures everything in nanoseconds of *simulated* time.
//! Newtypes keep simulated durations ([`Cost`]) and simulated instants
//! ([`SimTime`]) from being mixed up with real wall-clock values.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub};

/// An instant on the simulated clock, in nanoseconds since machine boot.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A duration of simulated compute or network time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cost(pub u64);

impl SimTime {
    /// Machine boot.
    pub const ZERO: SimTime = SimTime(0);

    /// Nanoseconds since boot.
    #[inline]
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since boot, as a float (for reports).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The later of two instants.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }
}

impl Cost {
    /// A zero-length duration.
    pub const ZERO: Cost = Cost(0);

    /// A duration of `n` nanoseconds.
    #[inline]
    pub const fn nanos(n: u64) -> Cost {
        Cost(n)
    }

    /// A duration of `n` microseconds.
    #[inline]
    pub const fn micros(n: u64) -> Cost {
        Cost(n * 1_000)
    }

    /// A duration of `n` milliseconds.
    #[inline]
    pub const fn millis(n: u64) -> Cost {
        Cost(n * 1_000_000)
    }

    /// Nanoseconds in this duration.
    #[inline]
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Saturating multiply by a count (e.g. per-byte costs).
    #[inline]
    pub fn times(self, n: u64) -> Cost {
        Cost(self.0.saturating_mul(n))
    }
}

/// Saturates: a delay too long to add to the clock lands at the end of
/// time, where an alarm armed for it never fires.
impl Add<Cost> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: Cost) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Cost;
    #[inline]
    fn sub(self, rhs: SimTime) -> Cost {
        Cost(self.0.saturating_sub(rhs.0))
    }
}

impl Add for Cost {
    type Output = Cost;
    #[inline]
    fn add(self, rhs: Cost) -> Cost {
        Cost(self.0 + rhs.0)
    }
}

impl AddAssign for Cost {
    #[inline]
    fn add_assign(&mut self, rhs: Cost) {
        self.0 += rhs.0;
    }
}

impl Sum for Cost {
    fn sum<I: Iterator<Item = Cost>>(iter: I) -> Cost {
        Cost(iter.map(|c| c.0).sum())
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}ns", self.0)
    }
}

impl fmt::Debug for Cost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ns", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_plus_cost() {
        assert_eq!(SimTime(100) + Cost(50), SimTime(150));
    }

    #[test]
    fn time_difference_saturates() {
        assert_eq!(SimTime(50) - SimTime(100), Cost(0));
        assert_eq!(SimTime(100) - SimTime(40), Cost(60));
    }

    #[test]
    fn cost_units() {
        assert_eq!(Cost::micros(3), Cost(3_000));
        assert_eq!(Cost::millis(2), Cost(2_000_000));
        assert_eq!(Cost::nanos(7).as_nanos(), 7);
    }

    #[test]
    fn cost_times_saturates() {
        assert_eq!(Cost(u64::MAX).times(2), Cost(u64::MAX));
        assert_eq!(Cost(10).times(5), Cost(50));
    }

    #[test]
    fn cost_sum() {
        let total: Cost = [Cost(1), Cost(2), Cost(3)].into_iter().sum();
        assert_eq!(total, Cost(6));
    }

    #[test]
    fn simtime_max() {
        assert_eq!(SimTime(5).max(SimTime(9)), SimTime(9));
        assert_eq!(SimTime(9).max(SimTime(5)), SimTime(9));
    }

    #[test]
    fn seconds_conversion() {
        assert!((SimTime(1_500_000_000).as_secs_f64() - 1.5).abs() < 1e-12);
    }
}
