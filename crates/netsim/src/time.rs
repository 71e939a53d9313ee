//! Simulation time: integer router cycles and the cycle ↔ wall-clock mapping.
//!
//! All simulators in this workspace advance an integer cycle counter. One
//! cycle is the *flit time*: the time the physical link needs to transfer a
//! single flit. For the paper's canonical configuration (32-bit flits on a
//! 400 Mbps link) that is 80 ns; the PCS comparison uses 100 Mbps links,
//! i.e. 320 ns cycles.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// A point in (or span of) simulation time, measured in router cycles.
///
/// `Cycles` is a thin newtype over `u64` so that cycle counts cannot be
/// accidentally mixed with other integers (flit counts, byte counts, …).
///
/// # Example
///
/// ```
/// use netsim::Cycles;
/// let a = Cycles(10);
/// let b = a + Cycles(5);
/// assert_eq!(b, Cycles(15));
/// assert_eq!(b - a, Cycles(5));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycles(pub u64);

impl Cycles {
    /// The zero point of simulated time.
    pub const ZERO: Cycles = Cycles(0);

    /// Largest representable instant; used as an "infinitely far" sentinel.
    pub const MAX: Cycles = Cycles(u64::MAX);

    /// Returns the raw cycle count.
    #[inline]
    pub fn get(self) -> u64 {
        self.0
    }

    /// Saturating addition; `MAX` is sticky so "infinite" deadlines stay
    /// infinite.
    #[inline]
    pub fn saturating_add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.saturating_add(rhs.0))
    }

    /// Saturating subtraction, clamping at zero.
    #[inline]
    pub fn saturating_sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.saturating_sub(rhs.0))
    }

    /// Cycle count as `f64`, for statistics.
    #[inline]
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }
}

impl Add for Cycles {
    type Output = Cycles;
    #[inline]
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 + rhs.0)
    }
}

impl AddAssign for Cycles {
    #[inline]
    fn add_assign(&mut self, rhs: Cycles) {
        self.0 += rhs.0;
    }
}

impl Sub for Cycles {
    type Output = Cycles;
    #[inline]
    fn sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 - rhs.0)
    }
}

impl SubAssign for Cycles {
    #[inline]
    fn sub_assign(&mut self, rhs: Cycles) {
        self.0 -= rhs.0;
    }
}

impl Sum for Cycles {
    fn sum<I: Iterator<Item = Cycles>>(iter: I) -> Cycles {
        iter.fold(Cycles::ZERO, Add::add)
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}cy", self.0)
    }
}

impl From<u64> for Cycles {
    fn from(v: u64) -> Cycles {
        Cycles(v)
    }
}

/// Conversion between router cycles and wall-clock time.
///
/// A `TimeBase` is defined by the physical-link bandwidth and the flit
/// width; one cycle transfers exactly one flit.
///
/// # Example
///
/// ```
/// use netsim::{Cycles, TimeBase};
/// // The paper's canonical link: 400 Mbps, 32-bit flits → 80 ns cycles.
/// let tb = TimeBase::from_link(400e6, 32);
/// assert_eq!(tb.ns_per_cycle(), 80.0);
/// // A 33 ms MPEG-2 frame interval:
/// let frame = tb.cycles_from_ms(33.0);
/// assert_eq!(frame, Cycles(412_500));
/// assert!((tb.cycles_to_ms(frame) - 33.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeBase {
    ns_per_cycle: f64,
}

impl TimeBase {
    /// Creates a time base from a link bandwidth in bits/second and a flit
    /// width in bits.
    ///
    /// # Panics
    ///
    /// Panics if `link_bps` or `flit_bits` is zero/non-positive.
    pub fn from_link(link_bps: f64, flit_bits: u32) -> TimeBase {
        assert!(link_bps > 0.0, "link bandwidth must be positive");
        assert!(flit_bits > 0, "flit width must be positive");
        TimeBase {
            ns_per_cycle: f64::from(flit_bits) / link_bps * 1e9,
        }
    }

    /// Nanoseconds per cycle.
    #[inline]
    pub fn ns_per_cycle(self) -> f64 {
        self.ns_per_cycle
    }

    /// Link flit rate in flits/second (the inverse of the cycle time).
    #[inline]
    pub fn flits_per_second(self) -> f64 {
        1e9 / self.ns_per_cycle
    }

    /// Converts a wall-clock duration in seconds to whole cycles (rounded).
    #[inline]
    pub fn cycles_from_secs(self, secs: f64) -> Cycles {
        Cycles((secs * 1e9 / self.ns_per_cycle).round() as u64)
    }

    /// Converts a wall-clock duration in milliseconds to whole cycles.
    #[inline]
    pub fn cycles_from_ms(self, ms: f64) -> Cycles {
        self.cycles_from_secs(ms * 1e-3)
    }

    /// Converts cycles to seconds.
    #[inline]
    pub fn cycles_to_secs(self, c: Cycles) -> f64 {
        c.as_f64() * self.ns_per_cycle * 1e-9
    }

    /// Converts cycles to milliseconds.
    #[inline]
    pub fn cycles_to_ms(self, c: Cycles) -> f64 {
        c.as_f64() * self.ns_per_cycle * 1e-6
    }

    /// Converts cycles to microseconds.
    #[inline]
    pub fn cycles_to_us(self, c: Cycles) -> f64 {
        c.as_f64() * self.ns_per_cycle * 1e-3
    }

    /// The number of cycles a rate of `flits_per_sec` corresponds to between
    /// consecutive flit services — i.e. the Virtual Clock `Vtick` for a
    /// stream with that bandwidth, expressed in cycles (fractional).
    ///
    /// # Panics
    ///
    /// Panics if `flits_per_sec` is not positive.
    #[inline]
    pub fn vtick_cycles(self, flits_per_sec: f64) -> f64 {
        assert!(flits_per_sec > 0.0, "flit rate must be positive");
        self.flits_per_second() / flits_per_sec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_arithmetic() {
        let a = Cycles(7);
        let b = Cycles(3);
        assert_eq!(a + b, Cycles(10));
        assert_eq!(a - b, Cycles(4));
        let mut c = a;
        c += b;
        assert_eq!(c, Cycles(10));
        c -= Cycles(1);
        assert_eq!(c, Cycles(9));
        assert_eq!(vec![a, b].into_iter().sum::<Cycles>(), Cycles(10));
    }

    #[test]
    fn saturation_is_sticky_at_max() {
        assert_eq!(Cycles::MAX.saturating_add(Cycles(5)), Cycles::MAX);
        assert_eq!(Cycles(3).saturating_sub(Cycles(5)), Cycles::ZERO);
    }

    #[test]
    fn display_shows_unit() {
        assert_eq!(Cycles(42).to_string(), "42cy");
    }

    #[test]
    fn timebase_400mbps() {
        let tb = TimeBase::from_link(400e6, 32);
        assert_eq!(tb.ns_per_cycle(), 80.0);
        assert_eq!(tb.flits_per_second(), 12_500_000.0);
        assert_eq!(tb.cycles_from_ms(33.0), Cycles(412_500));
        assert!((tb.cycles_to_ms(Cycles(412_500)) - 33.0).abs() < 1e-9);
    }

    #[test]
    fn timebase_100mbps() {
        let tb = TimeBase::from_link(100e6, 32);
        assert_eq!(tb.ns_per_cycle(), 320.0);
    }

    #[test]
    fn vtick_for_4mbps_stream_on_400mbps_link() {
        // A 4 Mbps stream is 125_000 flits/s of 32-bit flits; the link moves
        // 12.5 M flits/s, so the stream deserves one flit every 100 cycles.
        let tb = TimeBase::from_link(400e6, 32);
        let vtick = tb.vtick_cycles(4e6 / 32.0);
        assert!((vtick - 100.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "link bandwidth must be positive")]
    fn zero_bandwidth_panics() {
        let _ = TimeBase::from_link(0.0, 32);
    }
}
