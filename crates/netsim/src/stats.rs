//! Online statistics: Welford mean/variance, histograms and percentiles.
//!
//! The paper reports, for every experiment, the *mean frame delivery
//! interval* (d̄) and its *standard deviation* (σ_d), plus average latency
//! for best-effort traffic. [`RunningStats`] accumulates those in a single
//! pass without storing samples; [`Histogram`] supports percentile queries
//! for the extended analyses.

use crate::snap::{SnapError, SnapReader, SnapWriter};

/// Single-pass mean / variance / extrema accumulator (Welford's algorithm).
///
/// # Example
///
/// ```
/// use netsim::RunningStats;
///
/// let mut s = RunningStats::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.push(x);
/// }
/// assert_eq!(s.mean(), 5.0);
/// assert!((s.std_dev() - 2.138089935).abs() < 1e-6); // sample std-dev
/// assert_eq!(s.min(), 2.0);
/// assert_eq!(s.max(), 9.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RunningStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    non_finite: u64,
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub fn new() -> RunningStats {
        RunningStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            non_finite: 0,
        }
    }

    /// Adds one sample.
    ///
    /// Non-finite samples (`NaN`, `±∞`) are tallied separately via
    /// [`RunningStats::non_finite`] and excluded from the moments — a NaN
    /// would poison `mean`/`m2` forever while `f64::min`/`max` silently
    /// *drop* it, leaving a NaN mean next to finite extrema.
    pub fn push(&mut self, x: f64) {
        if !x.is_finite() {
            self.non_finite += 1;
            return;
        }
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples seen.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Whether no samples have been pushed.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Non-finite samples (`NaN`, `±∞`) rejected by [`RunningStats::push`].
    pub fn non_finite(&self) -> u64 {
        self.non_finite
    }

    /// Arithmetic mean; `NaN` if empty.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.mean
        }
    }

    /// Sample variance (n−1 denominator); `NaN` if fewer than two samples.
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            f64::NAN
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation; `NaN` if fewer than two samples, except
    /// that a single sample reports `0.0` (a lone frame interval has no
    /// jitter, which is what the experiment tables want to print).
    pub fn std_dev(&self) -> f64 {
        match self.n {
            0 => f64::NAN,
            1 => 0.0,
            _ => self.variance().sqrt(),
        }
    }

    /// Smallest sample; `NaN` if empty.
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.min
        }
    }

    /// Largest sample; `NaN` if empty.
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.max
        }
    }

    /// Serialises the accumulator into a snapshot.
    pub fn save(&self, w: &mut SnapWriter) {
        w.u64(self.n);
        w.f64(self.mean);
        w.f64(self.m2);
        w.f64(self.min);
        w.f64(self.max);
        w.u64(self.non_finite);
    }

    /// Restores an accumulator saved by [`RunningStats::save`].
    ///
    /// # Errors
    ///
    /// Propagates snapshot decoding errors.
    pub fn load(r: &mut SnapReader<'_>) -> Result<RunningStats, SnapError> {
        Ok(RunningStats {
            n: r.u64()?,
            mean: r.f64()?,
            m2: r.f64()?,
            min: r.f64()?,
            max: r.f64()?,
            non_finite: r.u64()?,
        })
    }
}

impl Extend<f64> for RunningStats {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }
}

impl FromIterator<f64> for RunningStats {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> RunningStats {
        let mut s = RunningStats::new();
        s.extend(iter);
        s
    }
}

/// A fixed-width bucket histogram over `[lo, hi)` with overflow/underflow
/// buckets, supporting percentile queries.
///
/// # Example
///
/// ```
/// use netsim::Histogram;
///
/// let mut h = Histogram::new(0.0, 100.0, 10);
/// for x in 0..100 {
///     h.record(x as f64);
/// }
/// assert_eq!(h.count(), 100);
/// let p50 = h.percentile(50.0);
/// assert!((40.0..=60.0).contains(&p50));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    buckets: Vec<u64>,
    underflow: u64,
    overflow: u64,
    non_finite: u64,
    count: u64,
}

impl Histogram {
    /// Creates a histogram over `[lo, hi)` with `n` equal-width buckets.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi` or `n == 0`.
    pub fn new(lo: f64, hi: f64, n: usize) -> Histogram {
        assert!(lo < hi, "empty histogram range");
        assert!(n > 0, "need at least one bucket");
        Histogram {
            lo,
            hi,
            buckets: vec![0; n],
            underflow: 0,
            overflow: 0,
            non_finite: 0,
            count: 0,
        }
    }

    /// Records one sample.
    ///
    /// Non-finite samples (`NaN`, `±∞`) are tallied separately via
    /// [`Histogram::non_finite`] and excluded from [`Histogram::count`]
    /// and percentiles — `NaN as usize` is `0`, so filing them into
    /// bucket 0 would silently skew the low percentiles.
    pub fn record(&mut self, x: f64) {
        if !x.is_finite() {
            self.non_finite += 1;
            return;
        }
        self.count += 1;
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let w = (self.hi - self.lo) / self.buckets.len() as f64;
            let idx = ((x - self.lo) / w) as usize;
            let idx = idx.min(self.buckets.len() - 1);
            self.buckets[idx] += 1;
        }
    }

    /// Total samples recorded (including under/overflow).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Samples below the histogram range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Samples at or above the histogram range.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Non-finite samples (`NaN`, `±∞`) rejected by [`Histogram::record`].
    pub fn non_finite(&self) -> u64 {
        self.non_finite
    }

    /// The bucket counts.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Approximate percentile (0–100) by linear interpolation within the
    /// containing bucket.
    ///
    /// The out-of-range buckets clamp rather than extrapolate: a target
    /// rank that falls among the underflow samples reports `lo`, and one
    /// that falls among the overflow samples reports `hi` — so with any
    /// overflow at all, `percentile(100.0)` is exactly `hi` regardless of
    /// how far beyond the range the samples actually were. Callers that
    /// need to detect the clamp should check [`Histogram::overflow`] /
    /// [`Histogram::underflow`] (or compare against [`Histogram::hi`]).
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]` or the histogram is empty.
    pub fn percentile(&self, p: f64) -> f64 {
        assert!((0.0..=100.0).contains(&p), "percentile must be in [0,100]");
        assert!(self.count > 0, "empty histogram");
        let target = (p / 100.0 * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = self.underflow;
        if seen >= target {
            return self.lo;
        }
        let w = (self.hi - self.lo) / self.buckets.len() as f64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if seen + c >= target {
                // Reaching here with `seen < target` forces `c >= target - seen
                // >= 1`; an empty bucket satisfying the branch would mean the
                // running tally is corrupt, so assert instead of masking it.
                debug_assert!(c > 0, "empty bucket cannot contain the target rank");
                let into = (target - seen) as f64 / c as f64;
                return self.lo + (i as f64 + into) * w;
            }
            seen += c;
        }
        // The target rank lies among the overflow samples: clamp to `hi`.
        debug_assert!(seen + self.overflow >= target, "count/bucket tally desync");
        self.hi
    }

    /// Lower bound of the bucketed range.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper bound of the bucketed range (the value overflow percentiles
    /// clamp to).
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Serialises the histogram into a snapshot.
    pub fn save(&self, w: &mut SnapWriter) {
        w.f64(self.lo);
        w.f64(self.hi);
        w.usize(self.buckets.len());
        for &b in &self.buckets {
            w.u64(b);
        }
        w.u64(self.underflow);
        w.u64(self.overflow);
        w.u64(self.non_finite);
        w.u64(self.count);
    }

    /// Restores a histogram saved by [`Histogram::save`].
    ///
    /// # Errors
    ///
    /// Propagates snapshot decoding errors; rejects an empty bucket vector
    /// or an inverted range.
    pub fn load(r: &mut SnapReader<'_>) -> Result<Histogram, SnapError> {
        let lo = r.f64()?;
        let hi = r.f64()?;
        if lo.partial_cmp(&hi) != Some(std::cmp::Ordering::Less) {
            return Err(SnapError::BadValue("histogram range"));
        }
        let n = r.usize()?;
        if n == 0 {
            return Err(SnapError::BadValue("histogram bucket count"));
        }
        let mut buckets = Vec::with_capacity(n);
        for _ in 0..n {
            buckets.push(r.u64()?);
        }
        Ok(Histogram {
            lo,
            hi,
            buckets,
            underflow: r.u64()?,
            overflow: r.u64()?,
            non_finite: r.u64()?,
            count: r.u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_are_nan() {
        let s = RunningStats::new();
        assert!(s.mean().is_nan());
        assert!(s.std_dev().is_nan());
        assert!(s.min().is_nan());
        assert_eq!(s.count(), 0);
        assert!(s.is_empty());
    }

    #[test]
    fn single_sample() {
        let s: RunningStats = [42.0].into_iter().collect();
        assert_eq!(s.mean(), 42.0);
        assert_eq!(s.std_dev(), 0.0);
        assert_eq!(s.min(), 42.0);
        assert_eq!(s.max(), 42.0);
    }

    #[test]
    fn welford_matches_two_pass() {
        let xs: Vec<f64> = (0..1000).map(|i| ((i * 37) % 101) as f64).collect();
        let s: RunningStats = xs.iter().copied().collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
        assert!((s.mean() - mean).abs() < 1e-9);
        assert!((s.variance() - var).abs() < 1e-6);
    }

    #[test]
    fn non_finite_samples_do_not_poison_stats() {
        // Regression: push() used to fold NaN into mean/m2 forever (the
        // Welford recurrences propagate it) while f64::min/max silently
        // *dropped* it — a NaN mean next to finite extrema.
        let mut s = RunningStats::new();
        s.push(2.0);
        s.push(f64::NAN);
        s.push(f64::INFINITY);
        s.push(f64::NEG_INFINITY);
        s.push(4.0);
        assert_eq!(s.count(), 2, "non-finite samples must not count");
        assert_eq!(s.non_finite(), 3);
        assert_eq!(s.mean(), 3.0, "mean must stay finite");
        assert!(s.variance().is_finite());
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 4.0);
    }

    #[test]
    fn non_finite_count_round_trips_through_snapshot() {
        use crate::snap::{SnapReader, SnapWriter};
        let mut s = RunningStats::new();
        s.push(1.0);
        s.push(f64::NAN);
        let mut w = SnapWriter::new();
        s.save(&mut w);
        let buf = w.finish();
        let mut r = SnapReader::new(&buf).unwrap();
        let s2 = RunningStats::load(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(s, s2);
        assert_eq!(s2.non_finite(), 1);
    }

    #[test]
    fn histogram_bucket_placement() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.record(-1.0);
        h.record(0.0);
        h.record(9.999);
        h.record(10.0);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.buckets()[0], 1);
        assert_eq!(h.buckets()[9], 1);
        assert_eq!(h.count(), 4);
    }

    #[test]
    fn histogram_percentiles_of_uniform() {
        let mut h = Histogram::new(0.0, 1000.0, 100);
        for i in 0..1000 {
            h.record(i as f64);
        }
        for &(p, expect) in &[(10.0, 100.0), (50.0, 500.0), (90.0, 900.0)] {
            let got = h.percentile(p);
            assert!((got - expect).abs() < 20.0, "p{p}: got {got}");
        }
    }

    #[test]
    #[should_panic(expected = "empty histogram")]
    fn percentile_of_empty_panics() {
        let h = Histogram::new(0.0, 1.0, 4);
        let _ = h.percentile(50.0);
    }

    #[test]
    fn overflow_percentiles_clamp_to_hi() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.record(5.0);
        h.record(100.0);
        h.record(2000.0);
        // Ranks falling among the overflow samples report exactly `hi`,
        // however far beyond the range the samples were.
        assert_eq!(h.percentile(100.0), h.hi());
        assert_eq!(h.percentile(90.0), h.hi());
        assert_eq!(h.overflow(), 2);
        // The in-range rank still interpolates inside its bucket.
        let p33 = h.percentile(33.0);
        assert!((5.0..=6.0).contains(&p33), "p33 = {p33}");
    }

    #[test]
    fn stats_and_histogram_snapshot_round_trip() {
        use crate::snap::{SnapReader, SnapWriter};
        let s: RunningStats = [1.5, -2.0, 7.25, 0.0].into_iter().collect();
        let mut h = Histogram::new(0.0, 10.0, 8);
        for x in [-3.0, 0.5, 5.0, 9.9, 42.0, f64::NAN] {
            h.record(x);
        }
        let mut w = SnapWriter::new();
        s.save(&mut w);
        h.save(&mut w);
        let buf = w.finish();
        let mut r = SnapReader::new(&buf).unwrap();
        let s2 = RunningStats::load(&mut r).unwrap();
        let h2 = Histogram::load(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(s, s2);
        assert_eq!(h, h2);
    }

    #[test]
    fn histogram_excludes_non_finite_samples() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        h.record(f64::NEG_INFINITY);
        // NaN must not land in bucket 0 and must not count as a sample.
        assert_eq!(h.buckets()[0], 0);
        assert_eq!(h.count(), 0);
        assert_eq!(h.underflow(), 0);
        assert_eq!(h.overflow(), 0);
        assert_eq!(h.non_finite(), 3);
        // Percentiles only see the finite samples.
        h.record(5.0);
        h.record(f64::NAN);
        assert_eq!(h.count(), 1);
        assert_eq!(h.non_finite(), 4);
        let p50 = h.percentile(50.0);
        assert!((5.0..=6.0).contains(&p50), "p50 = {p50}");
    }
}
