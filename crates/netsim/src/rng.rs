//! Seedable, reproducible random numbers for simulation experiments.
//!
//! Every experiment in the reproduction is driven by a single `u64` seed so
//! that a reported table can be regenerated bit-for-bit. [`SimRng`] wraps
//! `rand`'s `StdRng` with the handful of draws the simulators need and a
//! cheap [`SimRng::fork`] for giving each traffic source an independent but
//! derived stream.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A deterministic random-number source.
///
/// # Example
///
/// ```
/// use netsim::SimRng;
/// let mut a = SimRng::seed_from(7);
/// let mut b = SimRng::seed_from(7);
/// assert_eq!(a.range_u64(0, 100), b.range_u64(0, 100));
/// ```
#[derive(Debug)]
pub struct SimRng {
    inner: StdRng,
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from(seed: u64) -> SimRng {
        SimRng {
            inner: StdRng::seed_from_u64(seed),
        }
    }

    /// The raw generator state, for checkpointing.
    pub fn state(&self) -> [u64; 4] {
        self.inner.state()
    }

    /// Rebuilds a generator from a previously captured [`SimRng::state`].
    ///
    /// # Panics
    ///
    /// Panics if the state is all-zero (not producible by seeding).
    pub fn from_state(s: [u64; 4]) -> SimRng {
        SimRng {
            inner: StdRng::from_state(s),
        }
    }

    /// Uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        self.inner.random_range(lo..hi)
    }

    /// Uniform index in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "cannot draw an index from an empty range");
        self.inner.random_range(0..n)
    }

    /// Uniform `f64` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi` or either bound is not finite.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo.is_finite() && hi.is_finite(), "bounds must be finite");
        assert!(lo < hi, "empty range [{lo}, {hi})");
        self.inner.random_range(lo..hi)
    }

    /// Uniform `f64` in the open interval `(0, 1]` — safe as input to `ln()`.
    pub fn unit_open(&mut self) -> f64 {
        1.0 - self.inner.random::<f64>()
    }

    /// Picks a uniformly random element of a non-empty slice.
    ///
    /// # Panics
    ///
    /// Panics if the slice is empty.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.index(items.len())]
    }

    /// Uniform index in `[0, n)` excluding `not`; used for "random
    /// destination other than myself".
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or `not >= n`.
    pub fn index_excluding(&mut self, n: usize, not: usize) -> usize {
        assert!(n >= 2, "need at least two choices to exclude one");
        assert!(not < n, "excluded index out of range");
        let r = self.index(n - 1);
        if r >= not {
            r + 1
        } else {
            r
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from(123);
        let mut b = SimRng::seed_from(123);
        for _ in 0..100 {
            assert_eq!(a.range_u64(0, 1_000_000), b.range_u64(0, 1_000_000));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed_from(1);
        let mut b = SimRng::seed_from(2);
        let va: Vec<u64> = (0..10).map(|_| a.range_u64(0, u64::MAX - 1)).collect();
        let vb: Vec<u64> = (0..10).map(|_| b.range_u64(0, u64::MAX - 1)).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn index_excluding_never_returns_excluded() {
        let mut rng = SimRng::seed_from(5);
        for _ in 0..1000 {
            let v = rng.index_excluding(8, 3);
            assert_ne!(v, 3);
            assert!(v < 8);
        }
    }

    #[test]
    fn unit_open_in_range() {
        let mut rng = SimRng::seed_from(11);
        for _ in 0..1000 {
            let u = rng.unit_open();
            assert!(u > 0.0 && u <= 1.0);
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut rng = SimRng::seed_from(1);
        let _ = rng.range_u64(5, 5);
    }

    #[test]
    fn state_round_trip_resumes_the_stream() {
        let mut rng = SimRng::seed_from(77);
        for _ in 0..37 {
            rng.range_u64(0, 1 << 40);
        }
        let mut resumed = SimRng::from_state(rng.state());
        for _ in 0..100 {
            assert_eq!(rng.range_u64(0, 1 << 40), resumed.range_u64(0, 1 << 40));
        }
    }
}
