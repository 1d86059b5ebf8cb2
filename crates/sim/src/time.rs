//! Virtual time and clock domains.
//!
//! All simulated time is kept in integer **picoseconds** so that clock
//! domains with non-commensurable periods (166 MHz, 33 MHz, 25 MHz, …)
//! compose without floating-point drift. A full application run in the
//! paper is ≤ 9·10¹⁰ CPU cycles ≈ 5.4·10¹⁴ ps, comfortably inside `u64`.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// A point in (or span of) virtual time, in picoseconds.
///
/// `SimTime` is used both as an absolute timestamp and as a duration; the
/// arithmetic is the same and the simulation never needs a signed span.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Time zero, the start of every simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable time; used as an "infinitely far" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        SimTime(ps)
    }

    /// Construct from nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns * 1_000)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        SimTime(us * 1_000_000)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        SimTime(ms * 1_000_000_000)
    }

    /// Picoseconds since time zero.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Whole nanoseconds (truncating).
    #[inline]
    pub const fn as_ns(self) -> u64 {
        self.0 / 1_000
    }

    /// Fractional microseconds.
    #[inline]
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Fractional milliseconds.
    #[inline]
    pub fn as_ms_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// Saturating subtraction: spans never go negative.
    #[inline]
    pub fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }

    /// The later of two times.
    #[inline]
    pub fn max(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.max(rhs.0))
    }

    /// The earlier of two times.
    #[inline]
    pub fn min(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.min(rhs.0))
    }
}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.checked_add(rhs.0).expect("SimTime overflow"))
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        *self = *self + rhs;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.checked_sub(rhs.0).expect("SimTime underflow"))
    }
}

impl SubAssign for SimTime {
    #[inline]
    fn sub_assign(&mut self, rhs: SimTime) {
        *self = *self - rhs;
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, Add::add)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ps", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ps = self.0;
        if ps >= 1_000_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if ps >= 1_000_000_000 {
            write!(f, "{:.3}ms", self.as_ms_f64())
        } else if ps >= 1_000_000 {
            write!(f, "{:.3}us", self.as_us_f64())
        } else if ps >= 1_000 {
            write!(f, "{}ns", ps / 1_000)
        } else {
            write!(f, "{}ps", ps)
        }
    }
}

/// A clock domain: converts cycle counts of a fixed-frequency component into
/// virtual time.
///
/// The period is stored in picoseconds, rounded to the nearest integer, which
/// keeps all arithmetic exact thereafter. At 166 MHz the rounding error is
/// ~2·10⁻⁵ and identical for both simulated configurations, so relative
/// results are unaffected.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Clock {
    period_ps: u64,
}

impl Clock {
    /// A clock running at `mhz` megahertz.
    pub fn from_mhz(mhz: u64) -> Self {
        assert!(mhz > 0, "clock frequency must be positive");
        // period = 1e12 ps / (mhz * 1e6 Hz), rounded to nearest.
        let hz = mhz * 1_000_000;
        Clock {
            period_ps: (1_000_000_000_000 + hz / 2) / hz,
        }
    }

    /// The clock period in picoseconds.
    #[inline]
    pub fn period_ps(self) -> u64 {
        self.period_ps
    }

    /// The duration of `cycles` clock cycles.
    #[inline]
    pub fn cycles(self, cycles: u64) -> SimTime {
        SimTime(
            cycles
                .checked_mul(self.period_ps)
                // cni-lint: allow(panic-path) -- u64 picoseconds overflow at ~5000 sim-hours; a wrap would silently corrupt every later timestamp, so die loudly
                .expect("cycle count overflow"),
        )
    }

    /// How many *whole* cycles fit in `t` (truncating).
    #[inline]
    pub fn cycles_in(self, t: SimTime) -> u64 {
        t.0 / self.period_ps
    }

    /// How many cycles are needed to cover `t` (rounding up).
    #[inline]
    pub fn cycles_ceil(self, t: SimTime) -> u64 {
        t.0.div_ceil(self.period_ps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simtime_constructors_agree() {
        assert_eq!(SimTime::from_ns(1), SimTime::from_ps(1_000));
        assert_eq!(SimTime::from_us(1), SimTime::from_ns(1_000));
        assert_eq!(SimTime::from_ms(1), SimTime::from_us(1_000));
    }

    #[test]
    fn simtime_arithmetic() {
        let a = SimTime::from_ns(10);
        let b = SimTime::from_ns(3);
        assert_eq!(a + b, SimTime::from_ns(13));
        assert_eq!(a - b, SimTime::from_ns(7));
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn simtime_sub_underflow_panics() {
        let _ = SimTime::from_ns(1) - SimTime::from_ns(2);
    }

    #[test]
    fn simtime_sum() {
        let total: SimTime = (1..=4).map(SimTime::from_ns).sum();
        assert_eq!(total, SimTime::from_ns(10));
    }

    #[test]
    fn clock_periods_round_to_nearest() {
        // 166 MHz -> 6024.096... ps, rounds to 6024.
        assert_eq!(Clock::from_mhz(166).period_ps(), 6024);
        // 25 MHz -> exactly 40_000 ps.
        assert_eq!(Clock::from_mhz(25).period_ps(), 40_000);
        // 33 MHz -> 30303.03 ps -> 30303.
        assert_eq!(Clock::from_mhz(33).period_ps(), 30_303);
    }

    #[test]
    fn clock_cycle_conversions() {
        let c = Clock::from_mhz(25);
        assert_eq!(c.cycles(2), SimTime::from_ps(80_000));
        assert_eq!(c.cycles_in(SimTime::from_ps(80_000)), 2);
        assert_eq!(c.cycles_in(SimTime::from_ps(79_999)), 1);
        assert_eq!(c.cycles_ceil(SimTime::from_ps(79_999)), 2);
        assert_eq!(c.cycles_ceil(SimTime::from_ps(80_000)), 2);
    }

    #[test]
    fn display_picks_sane_units() {
        assert_eq!(format!("{}", SimTime::from_ps(5)), "5ps");
        assert_eq!(format!("{}", SimTime::from_ns(5)), "5ns");
        assert_eq!(format!("{}", SimTime::from_us(5)), "5.000us");
        assert_eq!(format!("{}", SimTime::from_ms(5)), "5.000ms");
    }
}
