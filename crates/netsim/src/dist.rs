//! Probability distributions used by the paper's workload model.
//!
//! The workspace's dependency policy allows `rand` but not `rand_distr`, so
//! the few distributions the MediaWorm workload needs are implemented here:
//!
//! * [`Normal`] — Box–Muller transform; MPEG-2 VBR frame sizes are
//!   N(16 666 B, 3 333 B) in the paper.
//! * [`Exponential`] — inverse-CDF; used for Poisson best-effort arrivals
//!   and PCS retry backoff.

use crate::rng::SimRng;

/// A sampled distribution over `f64`.
///
/// The trait is object-safe so workload builders can hold
/// `Box<dyn Distribution>` for configurable traffic models.
pub trait Distribution: std::fmt::Debug {
    /// Draws one sample.
    fn sample(&self, rng: &mut SimRng) -> f64;

    /// The distribution's mean, used for rate accounting.
    fn mean(&self) -> f64;
}

/// Normal (Gaussian) distribution via the Box–Muller transform.
///
/// # Example
///
/// ```
/// use netsim::dist::{Distribution, Normal};
/// use netsim::SimRng;
///
/// // The paper's MPEG-2 frame-size model.
/// let frames = Normal::new(16_666.0, 3_333.0);
/// let mut rng = SimRng::seed_from(1);
/// let size = frames.sample(&mut rng);
/// assert!(size.is_finite());
/// assert_eq!(frames.mean(), 16_666.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mean: f64,
    std_dev: f64,
}

impl Normal {
    /// Creates a normal distribution with the given mean and standard
    /// deviation.
    ///
    /// # Panics
    ///
    /// Panics if `std_dev` is negative or either parameter is not finite.
    pub fn new(mean: f64, std_dev: f64) -> Normal {
        assert!(
            mean.is_finite() && std_dev.is_finite(),
            "parameters must be finite"
        );
        assert!(std_dev >= 0.0, "standard deviation must be non-negative");
        Normal { mean, std_dev }
    }

    /// The standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.std_dev
    }
}

/// One standard-normal variate from two uniforms via Box–Muller.
///
/// `u1` is clamped away from zero before the `ln()` so a zero uniform
/// cannot produce `ln(0) → -inf` (and, scaled, a NaN). [`SimRng::unit_open`]
/// already draws from `(0, 1]`, but this function accepts the full closed
/// unit square so callers with other uniform sources (or a literal `0.0`)
/// get a finite variate instead of an infinity.
///
/// The cosine branch deterministically discards the second Box–Muller
/// variate: every call consumes exactly the two uniforms it is given, which
/// keeps RNG-stream consumption per [`Normal::sample`] call fixed (two
/// draws), a property the reproducibility tests pin.
pub fn box_muller(u1: f64, u2: f64) -> f64 {
    let u1 = u1.max(f64::MIN_POSITIVE);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

impl Distribution for Normal {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        // Box–Muller: exactly two independent uniforms → one standard
        // normal. (The second normal is discarded; simplicity over a
        // cached value keeps the sampler stateless and `&self`.)
        let u1 = rng.unit_open();
        let u2 = rng.unit_open();
        self.mean + self.std_dev * box_muller(u1, u2)
    }

    fn mean(&self) -> f64 {
        self.mean
    }
}

/// Exponential distribution with the given mean, via inverse CDF.
///
/// # Example
///
/// ```
/// use netsim::dist::{Distribution, Exponential};
/// use netsim::SimRng;
///
/// let gaps = Exponential::new(100.0);
/// let mut rng = SimRng::seed_from(2);
/// assert!(gaps.sample(&mut rng) >= 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    mean: f64,
}

impl Exponential {
    /// Creates an exponential distribution with the given mean.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not strictly positive and finite.
    pub fn new(mean: f64) -> Exponential {
        assert!(mean.is_finite() && mean > 0.0, "mean must be positive");
        Exponential { mean }
    }
}

impl Distribution for Exponential {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        -self.mean * rng.unit_open().ln()
    }

    fn mean(&self) -> f64 {
        self.mean
    }
}

/// A degenerate distribution that always returns the same value; used for
/// CBR traffic, whose frame size is the constant 16 666 bytes in the paper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Constant(pub f64);

impl Distribution for Constant {
    fn sample(&self, _rng: &mut SimRng) -> f64 {
        self.0
    }

    fn mean(&self) -> f64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_stats(d: &dyn Distribution, n: usize, seed: u64) -> (f64, f64) {
        let mut rng = SimRng::seed_from(seed);
        let xs: Vec<f64> = (0..n).map(|_| d.sample(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
        (mean, var.sqrt())
    }

    #[test]
    fn normal_matches_parameters() {
        let d = Normal::new(16_666.0, 3_333.0);
        let (mean, sd) = sample_stats(&d, 200_000, 42);
        assert!((mean - 16_666.0).abs() < 50.0, "mean={mean}");
        assert!((sd - 3_333.0).abs() < 50.0, "sd={sd}");
    }

    #[test]
    fn normal_zero_sd_is_constant() {
        let d = Normal::new(5.0, 0.0);
        let mut rng = SimRng::seed_from(1);
        for _ in 0..10 {
            assert_eq!(d.sample(&mut rng), 5.0);
        }
    }

    #[test]
    fn exponential_matches_mean() {
        let d = Exponential::new(250.0);
        let (mean, _) = sample_stats(&d, 200_000, 7);
        assert!((mean - 250.0).abs() < 5.0, "mean={mean}");
    }

    #[test]
    fn exponential_is_non_negative() {
        let d = Exponential::new(1.0);
        let mut rng = SimRng::seed_from(3);
        for _ in 0..10_000 {
            assert!(d.sample(&mut rng) >= 0.0);
        }
    }

    #[test]
    fn constant_is_constant() {
        let d = Constant(3.5);
        let mut rng = SimRng::seed_from(5);
        assert_eq!(d.sample(&mut rng), 3.5);
        assert_eq!(d.mean(), 3.5);
    }

    #[test]
    fn trait_objects_work() {
        let ds: Vec<Box<dyn Distribution>> = vec![
            Box::new(Normal::new(0.0, 1.0)),
            Box::new(Exponential::new(1.0)),
            Box::new(Constant(1.0)),
        ];
        let mut rng = SimRng::seed_from(6);
        for d in &ds {
            let _ = d.sample(&mut rng);
        }
    }

    #[test]
    #[should_panic(expected = "standard deviation must be non-negative")]
    fn negative_sd_panics() {
        let _ = Normal::new(0.0, -1.0);
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
        assert!(z.is_finite());
        assert_eq!(
            z,
            (-2.0f64 * 0.5f64.ln()).sqrt() * (std::f64::consts::TAU * 0.5).cos()
        );
    }

    #[test]
    fn normal_sample_consumes_exactly_two_uniforms() {
        // Pin RNG-stream consumption: each sample() call must draw exactly
        // two uniforms (the second Box–Muller variate is discarded, never
        // cached), so a same-seeded generator that skips 2·k uniforms sits
        // at the same stream position as one that sampled k normals.
        let d = Normal::new(16_666.0, 3_333.0);
        let mut sampled = SimRng::seed_from(99);
        let mut skipped = SimRng::seed_from(99);
        for k in 0..5 {
            let _ = d.sample(&mut sampled);
            let _ = (skipped.unit_open(), skipped.unit_open());
            assert_eq!(
                sampled.range_u64(0, u64::MAX - 1),
                skipped.range_u64(0, u64::MAX - 1),
                "stream positions diverged after {} samples",
                k + 1
            );
        }
    }

    #[test]
    fn normal_sample_matches_manual_box_muller() {
        // sample() must be exactly mean + sd · box_muller(u1, u2) on the
        // two uniforms it draws, bit-for-bit.
        let d = Normal::new(100.0, 10.0);
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(7);
        for _ in 0..10 {
            let x = d.sample(&mut a);
            let (u1, u2) = (b.unit_open(), b.unit_open());
            assert_eq!(x.to_bits(), (100.0 + 10.0 * box_muller(u1, u2)).to_bits());
        }
    }
}
