//! Real-time (VBR/CBR) stream sources.

use flitnet::{Flit, FrameId, MsgId, NodeId, StreamId, TrafficClass, VcId, Worm};
use netsim::snap::{SnapError, SnapReader, SnapWriter};
use netsim::{Cycles, SimRng, TimeBase};

use crate::spec::{FrameModel, StreamClass, WorkloadSpec};
use crate::workload::ScheduledMessage;

/// One VBR or CBR stream between a fixed source/destination pair.
///
/// Frames are generated every `frame_interval`; each frame is segmented
/// into `msg_flits`-flit messages injected evenly across the interval
/// (paper §4.2.1). Each message's head flit carries the stream's `Vtick`.
///
/// # Example
///
/// ```
/// use traffic::{RealTimeStream, StreamClass, WorkloadSpec};
/// use flitnet::{NodeId, StreamId, VcId};
/// use netsim::{Cycles, SimRng};
///
/// let spec = WorkloadSpec::paper_default();
/// let mut rng = SimRng::seed_from(3);
/// let mut s = RealTimeStream::new(
///     &spec, StreamClass::Vbr, StreamId(0),
///     NodeId(0), NodeId(5), VcId(1), VcId(2),
///     Cycles(0),
/// );
/// let mut next_msg_id = 0u64;
/// let m = s.next_message(&mut rng, &mut next_msg_id);
/// assert_eq!(m.src, NodeId(0));
/// assert_eq!(m.flits.head().dest, NodeId(5));
/// ```
#[derive(Debug)]
pub struct RealTimeStream {
    id: StreamId,
    class: TrafficClass,
    src: NodeId,
    dest: NodeId,
    /// VC used on the source's injection link.
    vc_in: VcId,
    /// VC requested on every subsequent hop (drawn at setup, §4.2.1).
    vc_out: VcId,
    vtick: f64,
    msg_flits: u32,
    frame_interval: Cycles,
    frame_sizer: FrameSizer,
    timebase: TimeBase,
    flit_bytes: u32,
    // --- generation state ---
    frame_idx: u32,
    frame_start: Cycles,
    /// Flits of the current frame not yet handed out; 0 means "start the
    /// next frame". Every message but a frame's last is `msg_flits` long.
    flits_left: u32,
    msgs_in_frame: u32,
    msg_gap: Cycles,
    next_msg_seq: u32,
}

/// Upper bound on a single frame's flit count (2²² flits = 16 MiB of
/// 4-byte flits, ~1000× the paper's 16 666-byte mean frame).
///
/// A VBR frame size is a normal sample; with a pathological σ the tail can
/// exceed what `as u32` can represent, and even a representable multi-
/// billion-flit frame would wedge the simulation inside one frame.
/// [`RealTimeStream::begin_frame`] clamps the sampled size here instead of
/// relying on float-to-int saturation.
pub const MAX_FRAME_FLITS: u32 = 1 << 22;

/// The classic 12-frame MPEG-2 group-of-pictures pattern.
const GOP_PATTERN: [char; 12] = ['I', 'B', 'B', 'P', 'B', 'B', 'P', 'B', 'B', 'P', 'B', 'B'];

/// Per-type size multipliers for a 5:3:1 I:P:B ratio, normalised so the
/// pattern (1×I, 3×P, 8×B) averages to 1.0.
fn gop_scale(kind: char) -> f64 {
    // mean = (1·5 + 3·3 + 8·1) / 12 = 22/12.
    let unit = 12.0 / 22.0;
    match kind {
        'I' => 5.0 * unit,
        'P' => 3.0 * unit,
        _ => unit,
    }
}

/// Frame-size model: VBR draws from a normal (the paper) or follows a
/// GOP pattern (extension), CBR is constant.
#[derive(Debug)]
enum FrameSizer {
    Vbr {
        mean: f64,
        std_dev: f64,
    },
    /// GOP-structured: deterministic per-type means plus normal noise,
    /// advancing through [`GOP_PATTERN`] frame by frame.
    Gop {
        mean: f64,
        std_dev: f64,
        idx: usize,
    },
    /// Every frame is this many bytes.
    Cbr(f64),
}

impl FrameSizer {
    fn sample_bytes(&mut self, rng: &mut SimRng, floor: f64) -> f64 {
        let raw = match self {
            FrameSizer::Vbr { mean, std_dev } => rng.normal(*mean, *std_dev),
            FrameSizer::Gop { mean, std_dev, idx } => {
                let kind = GOP_PATTERN[*idx % GOP_PATTERN.len()];
                *idx += 1;
                *mean * gop_scale(kind) + rng.normal(0.0, *std_dev) * gop_scale(kind)
            }
            FrameSizer::Cbr(bytes) => *bytes,
        };
        raw.max(floor)
    }
}

impl RealTimeStream {
    /// Creates a stream starting its first frame at `start`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        spec: &WorkloadSpec,
        class: StreamClass,
        id: StreamId,
        src: NodeId,
        dest: NodeId,
        vc_in: VcId,
        vc_out: VcId,
        start: Cycles,
    ) -> RealTimeStream {
        spec.validate();
        let tb = spec.timebase();
        let sizer = match (class, spec.frame_model) {
            (StreamClass::Vbr, FrameModel::Normal) => FrameSizer::Vbr {
                mean: spec.frame_mean_bytes,
                std_dev: spec.frame_std_bytes,
            },
            (StreamClass::Vbr, FrameModel::Gop) => FrameSizer::Gop {
                mean: spec.frame_mean_bytes,
                std_dev: spec.frame_std_bytes,
                idx: 0,
            },
            (StreamClass::Cbr, _) => FrameSizer::Cbr(spec.frame_mean_bytes),
        };
        RealTimeStream {
            id,
            class: class.traffic_class(),
            src,
            dest,
            vc_in,
            vc_out,
            vtick: spec.stream_vtick_cycles(),
            msg_flits: spec.msg_flits,
            frame_interval: tb.cycles_from_ms(spec.frame_interval_ms),
            frame_sizer: sizer,
            timebase: tb,
            flit_bytes: spec.flit_bytes,
            frame_idx: 0,
            frame_start: start,
            flits_left: 0,
            msgs_in_frame: 0,
            msg_gap: Cycles::ZERO,
            next_msg_seq: 0,
        }
    }

    /// Stream id.
    pub fn id(&self) -> StreamId {
        self.id
    }

    /// Source endpoint.
    pub fn src(&self) -> NodeId {
        self.src
    }

    /// Destination endpoint.
    pub fn dest(&self) -> NodeId {
        self.dest
    }

    /// Injection-link VC.
    pub fn vc_in(&self) -> VcId {
        self.vc_in
    }

    /// Requested downstream VC.
    pub fn vc_out(&self) -> VcId {
        self.vc_out
    }

    /// Traffic class (VBR or CBR).
    pub fn class(&self) -> TrafficClass {
        self.class
    }

    /// The stream's negotiated Vtick in cycles/flit.
    pub fn vtick(&self) -> f64 {
        self.vtick
    }

    fn begin_frame(&mut self, rng: &mut SimRng) {
        let bytes = self
            .frame_sizer
            .sample_bytes(rng, f64::from(self.flit_bytes));
        // Clamp the sampled size to MAX_FRAME_FLITS *before* the cast: an
        // unclamped normal tail (pathological σ) otherwise rides float→int
        // saturation to u32::MAX ≈ 4.3 G flits and wedges the simulation
        // inside one frame.
        let flits = (bytes / f64::from(self.flit_bytes))
            .ceil()
            .clamp(1.0, f64::from(MAX_FRAME_FLITS)) as u32;
        let msgs = flits.div_ceil(self.msg_flits);
        self.flits_left = flits;
        self.msgs_in_frame = msgs;
        self.msg_gap = Cycles(self.frame_interval.get() / u64::from(msgs));
        self.next_msg_seq = 0;
    }

    /// Produces the stream's next message (monotonically increasing
    /// injection times). `next_msg_id` is a global message-id counter.
    pub fn next_message(&mut self, rng: &mut SimRng, next_msg_id: &mut u64) -> ScheduledMessage {
        if self.flits_left == 0 {
            if self.msgs_in_frame > 0 {
                // Finished a frame: advance to the next interval boundary.
                self.frame_idx += 1;
                self.frame_start += self.frame_interval;
            }
            self.begin_frame(rng);
        }
        // Full messages, then a possibly-short last one.
        let len = self.flits_left.min(self.msg_flits);
        self.flits_left -= len;
        let seq = self.next_msg_seq;
        self.next_msg_seq += 1;
        let at = self.frame_start + Cycles(u64::from(seq) * self.msg_gap.get());
        let msg_id = MsgId(*next_msg_id);
        *next_msg_id += 1;
        let template = Flit {
            stream: self.id,
            msg: msg_id,
            frame: FrameId(self.frame_idx),
            seq_in_msg: 0,
            msg_len: len,
            msgs_in_frame: self.msgs_in_frame,
            dest: self.dest,
            vc: self.vc_in,
            out_vc: self.vc_out,
            vtick: self.vtick,
            class: self.class,
            created_at: at,
        };
        ScheduledMessage {
            at,
            src: self.src,
            flits: Worm::new(template),
        }
    }

    /// The time base used for cycle conversions (handy for tests).
    pub fn timebase(&self) -> TimeBase {
        self.timebase
    }

    /// Serialises the stream's generation state (frame position, flits
    /// left in the frame, GOP cursor) into a snapshot. The structural fields
    /// (endpoints, VCs, Vtick, sizer parameters) are derived from the
    /// workload spec and are not written.
    pub fn save(&self, w: &mut SnapWriter) {
        w.u32(self.frame_idx);
        w.u64(self.frame_start.0);
        w.u32(self.flits_left);
        w.u32(self.msgs_in_frame);
        w.u64(self.msg_gap.0);
        w.u32(self.next_msg_seq);
        w.usize(match &self.frame_sizer {
            FrameSizer::Gop { idx, .. } => *idx,
            _ => 0,
        });
    }

    /// Restores generation state saved by [`RealTimeStream::save`] into
    /// this freshly-constructed stream.
    ///
    /// # Errors
    ///
    /// Propagates snapshot decoding errors; rejects a frame remainder
    /// above [`MAX_FRAME_FLITS`] and a GOP cursor on a non-GOP sizer.
    pub fn load_into(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.frame_idx = r.u32()?;
        self.frame_start = Cycles(r.u64()?);
        self.flits_left = r.u32()?;
        if self.flits_left > MAX_FRAME_FLITS {
            return Err(SnapError::BadValue("frame remainder above MAX_FRAME_FLITS"));
        }
        self.msgs_in_frame = r.u32()?;
        self.msg_gap = Cycles(r.u64()?);
        self.next_msg_seq = r.u32()?;
        let gop_idx = r.usize()?;
        match &mut self.frame_sizer {
            FrameSizer::Gop { idx, .. } => *idx = gop_idx,
            _ if gop_idx != 0 => {
                return Err(SnapError::BadValue("GOP cursor on a non-GOP frame sizer"))
            }
            _ => {}
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(class: StreamClass) -> RealTimeStream {
        RealTimeStream::new(
            &WorkloadSpec::paper_default(),
            class,
            StreamId(7),
            NodeId(1),
            NodeId(2),
            VcId(0),
            VcId(3),
            Cycles(1000),
        )
    }

    #[test]
    fn messages_cover_whole_frames_in_order() {
        let mut s = stream(StreamClass::Cbr);
        let mut rng = SimRng::seed_from(1);
        let mut id = 0u64;
        // CBR frame: 16_666 B = 4167 flits = 209 messages.
        let mut total = 0u32;
        let mut last_at = Cycles::ZERO;
        for _ in 0..209 {
            let m = s.next_message(&mut rng, &mut id);
            assert!(m.at >= last_at, "injections must be monotonic");
            last_at = m.at;
            let head = m.flits.head();
            assert_eq!(head.msgs_in_frame, 209);
            assert_eq!(head.frame, FrameId(0));
            total += head.msg_len;
        }
        assert_eq!(total, 4167);
        // Next message starts frame 1, one interval later.
        let m = s.next_message(&mut rng, &mut id);
        assert_eq!(m.flits.head().frame, FrameId(1));
        let tb = s.timebase();
        let frame_cycles = tb.cycles_from_ms(33.0);
        assert_eq!(m.at, Cycles(1000) + frame_cycles);
    }

    #[test]
    fn last_message_of_cbr_frame_is_short() {
        let mut s = stream(StreamClass::Cbr);
        let mut rng = SimRng::seed_from(1);
        let mut id = 0u64;
        let mut lens = Vec::new();
        for _ in 0..209 {
            lens.push(s.next_message(&mut rng, &mut id).flits.head().msg_len);
        }
        // 209 messages: 208 full (20 flits) + 7-flit remainder.
        assert!(lens[..208].iter().all(|&l| l == 20));
        assert_eq!(lens[208], 7);
    }

    #[test]
    fn vbr_frames_split_into_full_messages_and_a_short_last_one() {
        let mut s = stream(StreamClass::Vbr);
        let mut rng = SimRng::seed_from(6);
        let mut id = 0u64;
        for frame in 0..300 {
            let mut lens = Vec::new();
            loop {
                let m = s.next_message(&mut rng, &mut id);
                let head = m.flits.head();
                assert_eq!(head.frame, FrameId(frame));
                assert_eq!(m.flits.len(), head.msg_len as usize);
                lens.push(head.msg_len);
                if lens.len() == head.msgs_in_frame as usize {
                    break;
                }
            }
            let flits: u32 = lens.iter().sum();
            assert_eq!(lens.len() as u32, flits.div_ceil(20), "frame {frame}");
            let (last, full) = lens.split_last().unwrap();
            assert!(full.iter().all(|&l| l == 20), "frame {frame}: {lens:?}");
            assert!((1..=20).contains(last), "frame {frame}: {lens:?}");
        }
    }

    #[test]
    fn a_mid_frame_snapshot_resumes_the_same_messages() {
        let mut a = stream(StreamClass::Vbr);
        let mut rng = SimRng::seed_from(9);
        let mut id = 0u64;
        // Part-way into the third frame.
        while a.next_message(&mut rng, &mut id).flits.head().frame != FrameId(2) {}
        for _ in 0..5 {
            let _ = a.next_message(&mut rng, &mut id);
        }
        let mut w = SnapWriter::new();
        a.save(&mut w);
        let bytes = w.finish();
        let mut b = stream(StreamClass::Vbr);
        let mut r = SnapReader::new(&bytes).unwrap();
        b.load_into(&mut r).unwrap();
        r.finish().unwrap();
        let mut rng_b = SimRng::from_state(rng.state());
        let mut id_b = id;
        // Through the rest of the frame and several more.
        for _ in 0..2_000 {
            let ma = a.next_message(&mut rng, &mut id);
            let mb = b.next_message(&mut rng_b, &mut id_b);
            assert_eq!(ma.at, mb.at);
            assert_eq!(ma.flits, mb.flits);
        }
        assert!(a.next_message(&mut rng, &mut id).flits.head().frame.0 > 3);
    }

    #[test]
    fn vbr_frame_sizes_vary() {
        let mut s = stream(StreamClass::Vbr);
        let mut rng = SimRng::seed_from(2);
        let mut id = 0u64;
        let mut frames = std::collections::HashSet::new();
        // Gather msgs_in_frame for 10 frames.
        for _ in 0..10 {
            let m = s.next_message(&mut rng, &mut id);
            let head = m.flits.head();
            frames.insert(head.msgs_in_frame);
            // Skip the rest of the frame.
            for _ in 1..head.msgs_in_frame {
                let _ = s.next_message(&mut rng, &mut id);
            }
        }
        assert!(frames.len() > 1, "VBR frames should vary in size");
    }

    #[test]
    fn gop_pattern_produces_large_i_frames() {
        let spec = WorkloadSpec {
            frame_model: FrameModel::Gop,
            frame_std_bytes: 0.0,
            ..WorkloadSpec::paper_default()
        };
        let mut s = RealTimeStream::new(
            &spec,
            StreamClass::Vbr,
            StreamId(0),
            NodeId(0),
            NodeId(1),
            VcId(0),
            VcId(1),
            Cycles(0),
        );
        let mut rng = SimRng::seed_from(8);
        let mut id = 0u64;
        // Collect the flit totals of 12 consecutive frames.
        let mut frame_flits = Vec::new();
        for _ in 0..12 {
            let m = s.next_message(&mut rng, &mut id);
            let msgs = m.flits.head().msgs_in_frame;
            let mut total = m.flits.len() as u32;
            for _ in 1..msgs {
                total += s.next_message(&mut rng, &mut id).flits.len() as u32;
            }
            frame_flits.push(total);
        }
        // I frame ≈ 5× a B frame.
        let i = frame_flits[0] as f64;
        let b = frame_flits[1] as f64;
        assert!((i / b - 5.0).abs() < 0.1, "I/B ratio {}", i / b);
        // Pattern mean ≈ the configured mean frame size in flits.
        let mean: f64 = frame_flits.iter().map(|&f| f as f64).sum::<f64>() / 12.0;
        assert!((mean - 4167.0).abs() < 30.0, "GOP mean {mean}");
        // The pattern repeats: frame 12 is an I frame again.
        let m = s.next_message(&mut rng, &mut id);
        let msgs = m.flits.head().msgs_in_frame;
        let mut total = m.flits.len() as u32;
        for _ in 1..msgs {
            total += s.next_message(&mut rng, &mut id).flits.len() as u32;
        }
        assert_eq!(total, frame_flits[0]);
    }

    #[test]
    fn mean_rate_tracks_4mbps() {
        let mut s = stream(StreamClass::Vbr);
        let mut rng = SimRng::seed_from(3);
        let mut id = 0u64;
        let mut flits = 0u64;
        let mut last = Cycles::ZERO;
        for _ in 0..50_000 {
            let m = s.next_message(&mut rng, &mut id);
            flits += m.flits.len() as u64;
            last = m.at;
        }
        let secs = s.timebase().cycles_to_secs(last - Cycles(1000));
        let bps = flits as f64 * 32.0 / secs;
        assert!((bps - 4e6).abs() < 0.1e6, "rate {bps}");
    }

    #[test]
    fn flits_carry_stream_metadata() {
        let mut s = stream(StreamClass::Vbr);
        let mut rng = SimRng::seed_from(4);
        let mut id = 5u64;
        let m = s.next_message(&mut rng, &mut id);
        assert_eq!(id, 6);
        for f in m.flits {
            assert_eq!(f.stream, StreamId(7));
            assert_eq!(f.dest, NodeId(2));
            assert_eq!(f.vc, VcId(0), "current-hop VC starts as vc_in");
            assert_eq!(f.out_vc, VcId(3), "requested downstream VC");
            assert_eq!(f.class, TrafficClass::Vbr);
            assert!((f.vtick - 100.0).abs() < 1e-9);
        }
    }

    #[test]
    fn pathological_sigma_is_clamped_to_max_frame() {
        // A normal tail with an absurd σ must clamp to MAX_FRAME_FLITS,
        // not saturate `as u32` to ~4.3 G flits.
        let spec = WorkloadSpec {
            frame_std_bytes: 1e18,
            ..WorkloadSpec::paper_default()
        };
        let limit = MAX_FRAME_FLITS.div_ceil(spec.msg_flits);
        let mut clamped = 0u32;
        for seed in 0..20 {
            let mut s = RealTimeStream::new(
                &spec,
                StreamClass::Vbr,
                StreamId(0),
                NodeId(0),
                NodeId(1),
                VcId(0),
                VcId(1),
                Cycles(0),
            );
            let mut rng = SimRng::seed_from(seed);
            let mut id = 0u64;
            let head = s.next_message(&mut rng, &mut id).flits.head();
            assert!(
                head.msgs_in_frame <= limit,
                "seed {seed}: frame of {} messages exceeds the clamp",
                head.msgs_in_frame
            );
            if head.msgs_in_frame == limit {
                clamped += 1;
            }
        }
        // With σ = 1e18 roughly half the samples are enormous, so the
        // clamp must actually have engaged.
        assert!(clamped > 0, "no frame hit the clamp — σ too small?");
    }

    #[test]
    fn msg_ids_are_unique_and_sequential() {
        let mut s = stream(StreamClass::Cbr);
        let mut rng = SimRng::seed_from(5);
        let mut id = 0u64;
        let a = s.next_message(&mut rng, &mut id).flits.head().msg;
        let b = s.next_message(&mut rng, &mut id).flits.head().msg;
        assert_eq!(a, MsgId(0));
        assert_eq!(b, MsgId(1));
    }
}
