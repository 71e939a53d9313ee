//! Best-effort message latency tracking.

use netsim::snap::{SnapError, SnapReader, SnapWriter};
use netsim::{Cycles, RunningStats, TimeBase};

/// Accumulates message latencies (creation → tail delivery) and reports the
/// paper's "average latency for best-effort traffic" in microseconds.
///
/// # Example
///
/// ```
/// use metrics::LatencyTracker;
/// use netsim::{Cycles, TimeBase};
///
/// let tb = TimeBase::from_link(400e6, 32); // 80 ns cycles
/// let mut t = LatencyTracker::new(tb);
/// t.record(Cycles(0), Cycles(125)); // 10 µs
/// t.record(Cycles(100), Cycles(350)); // 20 µs
/// assert!((t.mean_us() - 15.0).abs() < 1e-9);
/// assert_eq!(t.count(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct LatencyTracker {
    timebase: TimeBase,
    stats: RunningStats,
    warmup_end: Cycles,
    censored: u64,
}

impl LatencyTracker {
    /// Creates a tracker; `timebase` converts cycles to microseconds.
    pub fn new(timebase: TimeBase) -> LatencyTracker {
        LatencyTracker {
            timebase,
            stats: RunningStats::new(),
            warmup_end: Cycles::ZERO,
            censored: 0,
        }
    }

    /// Ignores messages *created* before `at` (their queueing time belongs
    /// to the warm-up transient).
    pub fn set_warmup_end(&mut self, at: Cycles) {
        self.warmup_end = at;
    }

    /// Records one message delivered at `delivered` that was created at
    /// `created`.
    ///
    /// # Panics
    ///
    /// Panics if `delivered < created`.
    pub fn record(&mut self, created: Cycles, delivered: Cycles) {
        assert!(delivered >= created, "delivery before creation");
        if created < self.warmup_end {
            return;
        }
        self.stats
            .push(self.timebase.cycles_to_us(delivered - created));
    }

    /// Mean latency in microseconds (`NaN` if no samples).
    pub fn mean_us(&self) -> f64 {
        self.stats.mean()
    }

    /// Number of recorded messages.
    pub fn count(&self) -> u64 {
        self.stats.count()
    }

    /// Registers `n` right-censored observations: messages whose delivery
    /// the end of the run cut off, so their (unknown, lower-bounded)
    /// latencies are *absent* from every statistic this tracker reports.
    ///
    /// Censored observations never enter the mean/σ/max — recording a
    /// made-up value would bias the statistics the other way — but keeping
    /// an explicit count lets reports say "mean of N delivered, M
    /// truncated" instead of silently presenting a biased tail.
    pub fn note_censored(&mut self, n: u64) {
        self.censored += n;
    }

    /// Observations known to be missing from the sample (end-of-run
    /// truncation); see [`LatencyTracker::note_censored`].
    pub fn censored(&self) -> u64 {
        self.censored
    }

    /// Serialises the tracker's accumulated state into a snapshot (the
    /// time base is construction-time configuration and is not written).
    pub fn save(&self, w: &mut SnapWriter) {
        self.stats.save(w);
        w.u64(self.warmup_end.0);
        w.u64(self.censored);
    }

    /// Restores state saved by [`LatencyTracker::save`] into this
    /// freshly-constructed tracker.
    ///
    /// # Errors
    ///
    /// Propagates snapshot decoding errors.
    pub fn load_into(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.stats = RunningStats::load(r)?;
        self.warmup_end = Cycles(r.u64()?);
        self.censored = r.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tb() -> TimeBase {
        TimeBase::from_link(400e6, 32)
    }

    #[test]
    fn mean_of_known_latencies() {
        let mut t = LatencyTracker::new(tb());
        // 125 cycles at 80 ns = 10 µs.
        t.record(Cycles(0), Cycles(125));
        t.record(Cycles(0), Cycles(375));
        assert!((t.mean_us() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn warmup_filters_by_creation_time() {
        let mut t = LatencyTracker::new(tb());
        t.set_warmup_end(Cycles(1000));
        t.record(Cycles(999), Cycles(2000)); // created in warm-up: dropped
        t.record(Cycles(1000), Cycles(1125)); // counted
        assert_eq!(t.count(), 1);
        assert!((t.mean_us() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn empty_tracker_reports_nan() {
        let t = LatencyTracker::new(tb());
        assert!(t.mean_us().is_nan());
        assert_eq!(t.count(), 0);
    }

    #[test]
    #[should_panic(expected = "delivery before creation")]
    fn negative_latency_panics() {
        let mut t = LatencyTracker::new(tb());
        t.record(Cycles(10), Cycles(5));
    }

    #[test]
    fn censored_observations_are_counted_but_not_averaged() {
        // Drain-window regression: truncated messages must be visible in
        // censored() without perturbing any delivered-message statistic.
        let mut t = LatencyTracker::new(tb());
        t.record(Cycles(0), Cycles(125)); // 10 µs
        t.record(Cycles(0), Cycles(375)); // 30 µs
        let (mean, count) = (t.mean_us(), t.count());
        t.note_censored(5);
        t.note_censored(2);
        assert_eq!(t.censored(), 7);
        assert_eq!(t.count(), count, "censoring must not add samples");
        assert_eq!(
            t.mean_us().to_bits(),
            mean.to_bits(),
            "censoring must not move the mean"
        );
        assert_eq!(LatencyTracker::new(tb()).censored(), 0);
    }
}
