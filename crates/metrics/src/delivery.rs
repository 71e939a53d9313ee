//! Frame delivery interval (jitter) tracking.

use flitnet::{Flit, StreamId};
use netsim::snap::{SnapError, SnapReader, SnapWriter};
use netsim::{Cycles, Histogram, RunningStats, TimeBase};

/// Aggregated jitter results for a set of real-time streams.
///
/// All values are in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JitterSummary {
    /// Mean frame delivery interval d̄.
    pub mean_ms: f64,
    /// Standard deviation of the delivery interval σ_d.
    pub std_ms: f64,
    /// Largest observed interval.
    pub max_ms: f64,
    /// 99th-percentile interval (histogram estimate; `NaN` if empty).
    pub p99_ms: f64,
    /// Number of intervals that entered the statistics.
    pub intervals: u64,
    /// Number of frame deliveries observed (including each stream's first).
    pub frames: u64,
}

impl JitterSummary {
    /// Whether delivery is jitter-free in the paper's sense: the mean
    /// interval tracks the source frame interval within `tol_ms` and the
    /// deviation is below `tol_ms`.
    pub fn is_jitter_free(&self, source_interval_ms: f64, tol_ms: f64) -> bool {
        (self.mean_ms - source_interval_ms).abs() <= tol_ms && self.std_ms <= tol_ms
    }

    /// Whether no interval was measured (all statistics undefined).
    pub fn is_empty(&self) -> bool {
        self.intervals == 0
    }

    /// Mean interval, `None` when undefined (no intervals measured).
    pub fn mean_ms_opt(&self) -> Option<f64> {
        finite(self.mean_ms)
    }

    /// Interval standard deviation, `None` when undefined (fewer than two
    /// intervals — unlike the raw `std_ms`, which reports a lone interval
    /// as `0.0` for the tables).
    pub fn std_ms_opt(&self) -> Option<f64> {
        if self.intervals < 2 {
            return None;
        }
        finite(self.std_ms)
    }
}

/// `Some(x)` only for finite values: empty-tracker NaN and the ±∞ that
/// seed min/max registers both map to `None`.
fn finite(x: f64) -> Option<f64> {
    x.is_finite().then_some(x)
}

/// Records frame-completion times per stream and accumulates the
/// between-frame intervals.
///
/// The delivery interval is "the difference between the delivery times of
/// two successive frames at the destination" (§4.1). Intervals are pooled
/// across all tracked streams, matching the per-configuration d̄/σ_d the
/// paper plots.
///
/// A warm-up boundary may be set; intervals whose *later* frame completes
/// before the boundary are discarded, and the first interval measured
/// across the boundary is also discarded (its earlier frame belongs to the
/// warm-up regime).
///
/// # Example
///
/// ```
/// use metrics::DeliveryTracker;
/// use flitnet::StreamId;
/// use netsim::{Cycles, TimeBase};
///
/// let tb = TimeBase::from_link(400e6, 32);
/// let frame = tb.cycles_from_ms(33.0).get();
/// let mut t = DeliveryTracker::new(tb);
/// for k in 0..10 {
///     t.record_frame(StreamId(0), Cycles(k * frame));
/// }
/// let s = t.summary();
/// assert_eq!(s.intervals, 9);
/// assert!((s.mean_ms - 33.0).abs() < 1e-9);
/// assert!(s.std_ms.abs() < 1e-9);
/// assert!(s.is_jitter_free(33.0, 0.5));
/// ```
#[derive(Debug, Clone)]
pub struct DeliveryTracker {
    timebase: TimeBase,
    /// Last completion per stream (dense by stream id).
    last: Vec<Option<Cycles>>,
    intervals: RunningStats,
    /// Interval histogram in milliseconds, for percentile estimates.
    histogram: Histogram,
    frames: u64,
    warmup_end: Cycles,
}

impl DeliveryTracker {
    /// Creates a tracker; `timebase` converts cycles to milliseconds.
    pub fn new(timebase: TimeBase) -> DeliveryTracker {
        DeliveryTracker {
            timebase,
            last: Vec::new(),
            intervals: RunningStats::new(),
            // 0–330 ms covers ten frame intervals; overflow still counts.
            histogram: Histogram::new(0.0, 330.0, 660),
            frames: 0,
            warmup_end: Cycles::ZERO,
        }
    }

    /// Discards statistics for frames completing before `at`, and the first
    /// interval spanning the boundary.
    pub fn set_warmup_end(&mut self, at: Cycles) {
        self.warmup_end = at;
    }

    /// Records that `stream` completed a frame at cycle `at`.
    ///
    /// Out-of-order completions (earlier than the stream's previous frame)
    /// are a simulator bug and panic.
    pub fn record_frame(&mut self, stream: StreamId, at: Cycles) {
        let idx = stream.index();
        if idx >= self.last.len() {
            self.last.resize(idx + 1, None);
        }
        if at >= self.warmup_end {
            self.frames += 1;
        }
        if let Some(prev) = self.last[idx] {
            assert!(at >= prev, "frame completions must be monotonic per stream");
            if prev >= self.warmup_end {
                let ms = self.timebase.cycles_to_ms(at - prev);
                self.intervals.push(ms);
                self.histogram.record(ms);
            }
        }
        self.last[idx] = Some(at);
    }

    /// The pooled jitter summary.
    pub fn summary(&self) -> JitterSummary {
        JitterSummary {
            mean_ms: self.intervals.mean(),
            std_ms: self.intervals.std_dev(),
            max_ms: self.intervals.max(),
            p99_ms: if self.intervals.count() == 0 {
                f64::NAN
            } else {
                self.histogram.percentile(99.0)
            },
            intervals: self.intervals.count(),
            frames: self.frames,
        }
    }

    /// Serialises the tracker's accumulated state into a snapshot (the
    /// time base is construction-time configuration and is not written).
    pub fn save(&self, w: &mut SnapWriter) {
        w.usize(self.last.len());
        for &l in &self.last {
            w.option(l, |w, at| w.u64(at.0));
        }
        self.intervals.save(w);
        self.histogram.save(w);
        w.u64(self.frames);
        w.u64(self.warmup_end.0);
    }

    /// Restores state saved by [`DeliveryTracker::save`] into this
    /// freshly-constructed tracker.
    ///
    /// # Errors
    ///
    /// Propagates snapshot decoding errors.
    pub fn load_into(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let n = r.usize()?;
        self.last.clear();
        for _ in 0..n {
            self.last.push(r.option(|r| r.u64().map(Cycles))?);
        }
        self.intervals = RunningStats::load(r)?;
        self.histogram = Histogram::load(r)?;
        self.frames = r.u64()?;
        self.warmup_end = Cycles(r.u64()?);
        Ok(())
    }
}

/// Counts message tails per in-flight frame of each stream: a frame is
/// delivered when the tail of its last message arrives, in any order.
#[derive(Debug, Clone, Default)]
pub struct FrameTails {
    /// Per stream: `(frame, tails seen)` for each in-flight frame, sorted
    /// by frame id (a handful per stream, so no hashing).
    streams: Vec<Vec<(u32, u32)>>,
}

impl FrameTails {
    /// Counts `flit`, a message's tail; `true` when it completes its frame.
    pub fn tail(&mut self, flit: &Flit) -> bool {
        let s = flit.stream.index();
        if s >= self.streams.len() {
            self.streams.resize_with(s + 1, Vec::new);
        }
        let frames = &mut self.streams[s];
        let frame = flit.frame.get();
        let pos = frames.partition_point(|&(f, _)| f < frame);
        if frames.get(pos).is_none_or(|&(f, _)| f != frame) {
            frames.insert(pos, (frame, 0));
        }
        frames[pos].1 += 1;
        let last = frames[pos].1 == flit.msgs_in_frame;
        if last {
            frames.remove(pos);
        }
        last
    }

    /// Serialises the per-stream tail counts into a snapshot.
    pub fn save(&self, w: &mut SnapWriter) {
        w.usize(self.streams.len());
        for frames in &self.streams {
            w.usize(frames.len());
            for &(frame, tails) in frames {
                w.u32(frame);
                w.u32(tails);
            }
        }
    }

    /// Restores counts saved by [`FrameTails::save`].
    ///
    /// # Errors
    ///
    /// Propagates snapshot decoding errors.
    pub fn load(r: &mut SnapReader<'_>) -> Result<FrameTails, SnapError> {
        let streams = (0..r.usize()?)
            .map(|_| (0..r.usize()?).map(|_| Ok((r.u32()?, r.u32()?))).collect())
            .collect::<Result<_, _>>()?;
        Ok(FrameTails { streams })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tb() -> TimeBase {
        TimeBase::from_link(400e6, 32)
    }

    #[test]
    fn steady_stream_has_zero_jitter() {
        let mut t = DeliveryTracker::new(tb());
        let frame = tb().cycles_from_ms(33.0).get();
        for k in 0..100u64 {
            t.record_frame(StreamId(3), Cycles(k * frame));
        }
        let s = t.summary();
        assert_eq!(s.intervals, 99);
        assert_eq!(s.frames, 100);
        assert!((s.mean_ms - 33.0).abs() < 1e-9);
        assert!(s.std_ms < 1e-9);
    }

    #[test]
    fn jittery_stream_has_positive_sigma() {
        let mut t = DeliveryTracker::new(tb());
        let frame = tb().cycles_from_ms(33.0).get();
        let mut at = 0u64;
        for k in 0..100u64 {
            at += if k % 2 == 0 {
                frame / 2
            } else {
                frame + frame / 2
            };
            t.record_frame(StreamId(0), Cycles(at));
        }
        let s = t.summary();
        assert!((s.mean_ms - 33.0).abs() < 0.5);
        assert!(s.std_ms > 10.0);
        assert!(!s.is_jitter_free(33.0, 1.0));
    }

    #[test]
    fn pools_across_streams() {
        let mut t = DeliveryTracker::new(tb());
        let frame = tb().cycles_from_ms(33.0).get();
        for s in 0..4u32 {
            for k in 0..10u64 {
                // Offset each stream so completions interleave.
                t.record_frame(StreamId(s), Cycles(k * frame + u64::from(s) * 1000));
            }
        }
        let sum = t.summary();
        assert_eq!(sum.intervals, 4 * 9);
        assert!((sum.mean_ms - 33.0).abs() < 1e-9);
    }

    #[test]
    fn warmup_discards_early_intervals() {
        let mut t = DeliveryTracker::new(tb());
        let frame = tb().cycles_from_ms(33.0).get();
        t.set_warmup_end(Cycles(5 * frame));
        for k in 0..10u64 {
            t.record_frame(StreamId(0), Cycles(k * frame));
        }
        let s = t.summary();
        // Frames at 5..10 count; intervals only where the earlier frame is
        // past warm-up: (5,6),(6,7),(7,8),(8,9) = 4.
        assert_eq!(s.frames, 5);
        assert_eq!(s.intervals, 4);
    }

    #[test]
    fn percentile_covers_every_stream() {
        let mut t = DeliveryTracker::new(tb());
        let frame = tb().cycles_from_ms(33.0).get();
        // Stream 0: steady. Stream 1: every interval stretched by 10 %.
        for k in 0..50u64 {
            t.record_frame(StreamId(0), Cycles(k * frame));
            t.record_frame(StreamId(1), Cycles(k * frame * 11 / 10));
        }
        let s = t.summary();
        assert_eq!(s.intervals, 2 * 49);
        assert!(
            s.p99_ms >= 33.0 * 1.1 - 0.5,
            "p99 {} misses the stretched stream",
            s.p99_ms
        );
    }

    #[test]
    fn empty_summary_has_nan_percentile() {
        let t = DeliveryTracker::new(tb());
        assert!(t.summary().p99_ms.is_nan());
    }

    #[test]
    fn empty_summary_opt_accessors_are_none() {
        let s = DeliveryTracker::new(tb()).summary();
        assert!(s.is_empty());
        assert_eq!(s.mean_ms_opt(), None);
        assert_eq!(s.std_ms_opt(), None);
    }

    #[test]
    fn populated_summary_opt_accessors_match_raw() {
        let mut t = DeliveryTracker::new(tb());
        let frame = tb().cycles_from_ms(33.0).get();
        for k in 0..10u64 {
            t.record_frame(StreamId(0), Cycles(k * frame));
        }
        let s = t.summary();
        assert!(!s.is_empty());
        assert_eq!(s.mean_ms_opt(), Some(s.mean_ms));
        assert_eq!(s.std_ms_opt(), Some(s.std_ms));
    }

    #[test]
    #[should_panic(expected = "monotonic")]
    fn out_of_order_panics() {
        let mut t = DeliveryTracker::new(tb());
        t.record_frame(StreamId(0), Cycles(100));
        t.record_frame(StreamId(0), Cycles(50));
    }

    fn tail(stream: u32, frame: u32, msgs_in_frame: u32) -> Flit {
        Flit {
            stream: StreamId(stream),
            msg: flitnet::MsgId(0),
            frame: flitnet::FrameId(frame),
            seq_in_msg: 0,
            msg_len: 1,
            msgs_in_frame,
            dest: flitnet::NodeId(0),
            vc: flitnet::VcId(0),
            out_vc: flitnet::VcId(0),
            vtick: 1.0,
            class: flitnet::TrafficClass::Vbr,
            created_at: Cycles(0),
        }
    }

    #[test]
    fn frame_completes_on_its_last_tail_even_interleaved() {
        let mut t = FrameTails::default();
        assert!(!t.tail(&tail(2, 7, 3)));
        assert!(!t.tail(&tail(2, 8, 2)));
        assert!(!t.tail(&tail(0, 7, 2)), "streams count separately");
        assert!(!t.tail(&tail(2, 7, 3)));
        assert!(t.tail(&tail(2, 8, 2)));
        assert!(t.tail(&tail(2, 7, 3)));
        assert!(
            t.tail(&tail(5, 1, 1)),
            "a one-message frame completes at once"
        );
        // A completed frame starts counting afresh.
        assert!(!t.tail(&tail(2, 7, 3)));
    }

    #[test]
    fn frame_tails_round_trip_through_a_snapshot() {
        let mut t = FrameTails::default();
        t.tail(&tail(1, 9, 3));
        t.tail(&tail(1, 4, 2));
        let mut w = SnapWriter::new();
        t.save(&mut w);
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes).unwrap();
        let mut back = FrameTails::load(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(format!("{back:?}"), format!("{t:?}"));
        assert!(back.tail(&tail(1, 4, 2)));
        assert!(!back.tail(&tail(1, 9, 3)));
        assert!(back.tail(&tail(1, 9, 3)));
    }
}
