//! Seedable, reproducible random numbers for simulation experiments.
//!
//! Every experiment in the reproduction is driven by a single `u64` seed so
//! that a reported table can be regenerated bit-for-bit. [`SimRng`] is the
//! workspace's one generator: xoshiro256++ seeded through SplitMix64, with
//! the uniform draws the simulators need and the two distributions the
//! paper's workload needs:
//!
//! * [`SimRng::normal`] — Box–Muller; MPEG-2 VBR frame sizes are
//!   N(16 666 B, 3 333 B) in the paper.
//! * [`SimRng::exponential`] — inverse CDF; Poisson best-effort arrivals
//!   and PCS retry backoff.
//!
//! The stream is part of the reproducibility contract: every table, trace
//! and snapshot follows from it, so changing any draw here changes them
//! all. `golden_stream_from_seed_42` pins its first values.

/// A deterministic random-number source.
///
/// # Example
///
/// ```
/// use netsim::SimRng;
/// let mut a = SimRng::seed_from(7);
/// let mut b = SimRng::seed_from(7);
/// assert_eq!(a.range_u64(0, 100), b.range_u64(0, 100));
///
/// // The paper's MPEG-2 frame-size model.
/// let size = a.normal(16_666.0, 3_333.0);
/// assert!(size.is_finite());
/// assert!(a.exponential(100.0) >= 0.0);
/// ```
#[derive(Debug)]
pub struct SimRng {
    /// xoshiro256++ state; never all-zero.
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One standard-normal variate from two uniforms via Box–Muller.
///
/// `u1` is clamped away from zero before the `ln()`, so even a literal
/// `0.0` gives a finite (extreme-tail) variate instead of an infinity.
/// The second Box–Muller variate is discarded, so every
/// [`SimRng::normal`] consumes exactly two uniforms.
fn box_muller(u1: f64, u2: f64) -> f64 {
    let u1 = u1.max(f64::MIN_POSITIVE);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from(seed: u64) -> SimRng {
        let mut sm = seed;
        SimRng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// The raw generator state, for checkpointing.
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Rebuilds a generator from a previously captured [`SimRng::state`].
    ///
    /// # Panics
    ///
    /// Panics if the state is all-zero (the one state xoshiro cannot
    /// leave, which seeding never produces).
    pub fn from_state(s: [u64; 4]) -> SimRng {
        assert!(s.iter().any(|&w| w != 0), "xoshiro state must be non-zero");
        SimRng { s }
    }

    /// The next 64 uniformly random bits (xoshiro256++).
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[lo, hi)`, by widening multiply (Lemire's method
    /// without the rejection step; the bias is < 2⁻⁶⁴ per draw).
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        lo + ((u128::from(self.next_u64()) * u128::from(hi - lo)) >> 64) as u64
    }

    /// Uniform index in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "cannot draw an index from an empty range");
        self.range_u64(0, n as u64) as usize
    }

    /// Uniform `f64` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi` or either bound is not finite.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo.is_finite() && hi.is_finite(), "bounds must be finite");
        assert!(lo < hi, "empty range [{lo}, {hi})");
        let x = lo + self.unit() * (hi - lo);
        // Floating rounding can land exactly on `hi`; clamp back inside.
        if x >= hi {
            hi.next_down()
        } else {
            x
        }
    }

    /// Uniform `f64` in the open interval `(0, 1]` — safe as input to `ln()`.
    pub fn unit_open(&mut self) -> f64 {
        1.0 - self.unit()
    }

    /// A normal sample with the given mean and standard deviation
    /// (Box–Muller on exactly two [`SimRng::unit_open`] draws).
    ///
    /// # Panics
    ///
    /// Panics if `std_dev` is negative or either parameter is not finite.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        assert!(
            mean.is_finite() && std_dev.is_finite(),
            "parameters must be finite"
        );
        assert!(std_dev >= 0.0, "standard deviation must be non-negative");
        let u1 = self.unit_open();
        let u2 = self.unit_open();
        mean + std_dev * box_muller(u1, u2)
    }

    /// An exponential sample with the given mean (inverse CDF on one
    /// [`SimRng::unit_open`] draw).
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not strictly positive and finite.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean.is_finite() && mean > 0.0, "mean must be positive");
        -mean * self.unit_open().ln()
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

    /// Sample mean and standard deviation of `n` draws.
    fn sample_stats(n: usize, seed: u64, mut draw: impl FnMut(&mut SimRng) -> f64) -> (f64, f64) {
        let mut rng = SimRng::seed_from(seed);
        let xs: Vec<f64> = (0..n).map(|_| draw(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
        (mean, var.sqrt())
    }

    #[test]
    fn golden_stream_from_seed_42() {
        // The generator is the reproducibility contract: every table,
        // trace and snapshot follows from this stream, so its first draws
        // from seed 42 are pinned to literals.
        let mut rng = SimRng::seed_from(42);
        assert_eq!(rng.range_u64(0, u64::MAX), 15_021_278_609_987_233_950);
        assert_eq!(rng.range_f64(0.0, 1.0).to_bits(), 0x3fd4_6790_5d15_dbcc);
        assert_eq!(
            rng.normal(16_666.0, 3_333.0).to_bits(),
            0x40ca_e5bc_0c3f_acfc
        );
        assert_eq!(rng.exponential(250.0).to_bits(), 0x4078_a5e8_0c1a_2564);
        assert_eq!(
            rng.state(),
            [
                9_097_251_175_449_367_461,
                14_529_276_094_648_713_868,
                14_088_181_525_258_040_340,
                14_940_061_133_522_366_373,
            ]
        );
    }

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
    fn full_range_u64_hits_high_bits() {
        let mut rng = SimRng::seed_from(9);
        assert!((0..64).any(|_| rng.range_u64(0, u64::MAX) > u64::MAX / 2));
    }

    #[test]
    fn range_f64_stays_in_bounds() {
        let mut rng = SimRng::seed_from(7);
        for _ in 0..10_000 {
            let f = rng.range_f64(-1.5, 2.5);
            assert!((-1.5..2.5).contains(&f));
        }
        // A span of one ulp: every draw whose product rounds up onto `hi`
        // must be clamped back to `lo`, the only value in range.
        let lo = 1.0f64;
        let hi = lo.next_up();
        for _ in 0..1_000 {
            assert_eq!(rng.range_f64(lo, hi), lo);
        }
    }

    #[test]
    fn uniformity_rough_check() {
        let (mean, _) = sample_stats(100_000, 11, |rng| rng.range_f64(0.0, 1.0));
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
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

    #[test]
    fn normal_matches_parameters() {
        let (mean, sd) = sample_stats(200_000, 42, |rng| rng.normal(16_666.0, 3_333.0));
        assert!((mean - 16_666.0).abs() < 50.0, "mean={mean}");
        assert!((sd - 3_333.0).abs() < 50.0, "sd={sd}");
    }

    #[test]
    fn normal_zero_sd_is_constant() {
        let mut rng = SimRng::seed_from(1);
        for _ in 0..10 {
            assert_eq!(rng.normal(5.0, 0.0), 5.0);
        }
    }

    #[test]
    #[should_panic(expected = "standard deviation must be non-negative")]
    fn negative_sd_panics() {
        let _ = SimRng::seed_from(1).normal(0.0, -1.0);
    }

    #[test]
    fn exponential_matches_mean() {
        let (mean, _) = sample_stats(200_000, 7, |rng| rng.exponential(250.0));
        assert!((mean - 250.0).abs() < 5.0, "mean={mean}");
    }

    #[test]
    fn exponential_is_non_negative() {
        let mut rng = SimRng::seed_from(3);
        for _ in 0..10_000 {
            assert!(rng.exponential(1.0) >= 0.0);
        }
    }

    #[test]
    fn box_muller_is_finite_on_zero_uniform() {
        // A zero first uniform hits ln(0) = -inf without the clamp; the
        // guarded transform must stay finite over the whole closed square.
        assert!(box_muller(0.0, 0.0).is_finite());
        assert!(box_muller(0.0, 0.25).is_finite());
        assert!(box_muller(0.0, 1.0).is_finite());
        // The clamp maps 0 to the smallest positive double, the most
        // extreme (but finite) tail value the transform can produce.
        assert_eq!(box_muller(0.0, 1.0), box_muller(f64::MIN_POSITIVE, 1.0));
        // Interior points are untouched by the guard.
        let z = box_muller(0.5, 0.5);
        assert_eq!(
            z,
            (-2.0f64 * 0.5f64.ln()).sqrt() * (std::f64::consts::TAU * 0.5).cos()
        );
    }

    #[test]
    fn normal_consumes_exactly_two_uniforms() {
        // Each normal() draws exactly two uniforms (the second Box–Muller
        // variate is discarded, never cached), so a same-seeded generator
        // that skips 2·k uniforms sits at the same stream position as one
        // that drew k normals.
        let mut sampled = SimRng::seed_from(99);
        let mut skipped = SimRng::seed_from(99);
        for k in 0..5 {
            let _ = sampled.normal(16_666.0, 3_333.0);
            let _ = (skipped.unit_open(), skipped.unit_open());
            assert_eq!(
                sampled.state(),
                skipped.state(),
                "stream positions diverged after {} samples",
                k + 1
            );
        }
    }

    #[test]
    fn normal_matches_manual_box_muller() {
        // normal() must be exactly mean + sd · box_muller(u1, u2) on the
        // two uniforms it draws, bit for bit.
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(7);
        for _ in 0..10 {
            let x = a.normal(100.0, 10.0);
            let (u1, u2) = (b.unit_open(), b.unit_open());
            assert_eq!(x.to_bits(), (100.0 + 10.0 * box_muller(u1, u2)).to_bits());
        }
    }
}
