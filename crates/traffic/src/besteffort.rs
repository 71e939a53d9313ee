//! Best-effort traffic sources.

use flitnet::{
    Flit, FrameId, MsgId, NodeId, StreamId, TrafficClass, VcId, Worm, BEST_EFFORT_VTICK,
};
use netsim::snap::{SnapError, SnapReader, SnapWriter};
use netsim::{Cycles, SimRng};

use crate::spec::{ArrivalProcess, WorkloadSpec};
use crate::workload::ScheduledMessage;

/// A per-node best-effort source.
///
/// The paper (§4.2.2): constant injection rate, 20-flit messages, the
/// destination "picked from a uniform distribution of the nodes in the
/// system", and "the input and output VC for a message are picked from a
/// uniform distribution of the available VCs for this traffic class".
///
/// # Example
///
/// ```
/// use traffic::{BestEffortSource, WorkloadSpec};
/// use flitnet::{NodeId, StreamId, VcId};
/// use netsim::{Cycles, SimRng};
///
/// let spec = WorkloadSpec::paper_default();
/// let vcs: Vec<VcId> = vec![VcId(14), VcId(15)];
/// let mut rng = SimRng::seed_from(1);
/// let mut src = BestEffortSource::new(
///     &spec, StreamId(100), NodeId(0), 8, vcs, 0.2 * 400e6, Cycles(0), &mut rng,
/// );
/// let mut next_id = 0u64;
/// let m = src.next_message(&mut rng, &mut next_id);
/// assert_eq!(m.flits.len(), 20);
/// assert_ne!(m.flits.head().dest, NodeId(0)); // never self-addressed
/// ```
#[derive(Debug)]
pub struct BestEffortSource {
    id: StreamId,
    node: NodeId,
    node_count: usize,
    vcs: Vec<VcId>,
    msg_flits: u32,
    /// Mean gap between message injections, in cycles.
    mean_gap: f64,
    arrival: ArrivalProcess,
    next_at: Cycles,
    /// Fractional cycles of the gap not yet applied to `next_at`.
    /// `Cycles` is integral, so each injection rounds the gap down and
    /// banks the remainder here; without the carry a constant-rate source
    /// with a non-integer mean gap injects measurably above the requested
    /// rate forever (e.g. a 100.7-cycle gap truncated to 100 runs 0.7 %
    /// hot).
    gap_err: f64,
    msg_counter: u32,
}

impl BestEffortSource {
    /// Creates a source on `node` emitting `rate_bps` of best-effort
    /// traffic spread over the given VCs, starting at a random phase after
    /// `start`.
    ///
    /// # Panics
    ///
    /// Panics if `vcs` is empty, `rate_bps` is not positive, or fewer than
    /// two nodes exist (no possible destination).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        spec: &WorkloadSpec,
        id: StreamId,
        node: NodeId,
        node_count: usize,
        vcs: Vec<VcId>,
        rate_bps: f64,
        start: Cycles,
        rng: &mut SimRng,
    ) -> BestEffortSource {
        spec.validate();
        assert!(!vcs.is_empty(), "best-effort source needs at least one VC");
        assert!(rate_bps > 0.0, "best-effort rate must be positive");
        assert!(node_count >= 2, "need a possible destination");
        let msg_bits = f64::from(spec.msg_flits * spec.flit_bytes * 8);
        let msgs_per_sec = rate_bps / msg_bits;
        let mean_gap = spec.timebase().flits_per_second() / msgs_per_sec;
        // Random phase so constant-rate sources across nodes don't beat in
        // lock-step.
        let phase = rng.range_f64(0.0, mean_gap);
        BestEffortSource {
            id,
            node,
            node_count,
            vcs,
            msg_flits: spec.msg_flits,
            mean_gap,
            arrival: spec.arrival,
            next_at: start + Cycles(phase as u64),
            gap_err: 0.0,
            msg_counter: 0,
        }
    }

    /// The source's synthetic stream id (used for accounting only).
    pub fn id(&self) -> StreamId {
        self.id
    }

    /// The node this source injects from.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Produces the next best-effort message.
    pub fn next_message(&mut self, rng: &mut SimRng, next_msg_id: &mut u64) -> ScheduledMessage {
        let at = self.next_at;
        let gap = match self.arrival {
            ArrivalProcess::Constant => self.mean_gap,
            ArrivalProcess::Poisson => rng.exponential(self.mean_gap),
        };
        // Advance by whole cycles and bank the fractional remainder: the
        // carry pays itself back as an extra cycle once it accumulates to
        // one, so the long-run rate matches the request exactly instead
        // of truncating every gap down.
        let exact = gap.max(1.0) + self.gap_err;
        let whole = exact.floor();
        self.gap_err = exact - whole;
        self.next_at = at + Cycles(whole as u64);

        let dest = NodeId(rng.index_excluding(self.node_count, self.node.index()) as u32);
        let vc_in = *rng.pick(&self.vcs);
        let vc_out = *rng.pick(&self.vcs);
        let msg_id = MsgId(*next_msg_id);
        *next_msg_id += 1;
        let seq = self.msg_counter;
        self.msg_counter = self.msg_counter.wrapping_add(1);

        let template = Flit {
            stream: self.id,
            msg: msg_id,
            frame: FrameId(seq),
            seq_in_msg: 0,
            msg_len: self.msg_flits,
            msgs_in_frame: 1,
            dest,
            vc: vc_in,
            out_vc: vc_out,
            vtick: BEST_EFFORT_VTICK,
            class: TrafficClass::BestEffort,
            created_at: at,
        };
        ScheduledMessage {
            at,
            src: self.node,
            flits: Worm::new(template),
        }
    }

    /// Serialises the source's generation state (next injection time,
    /// fractional-gap carry and message counter) into a snapshot. The
    /// rate/VC configuration is derived from the workload spec and is not
    /// written.
    pub fn save(&self, w: &mut SnapWriter) {
        w.u64(self.next_at.0);
        w.f64(self.gap_err);
        w.u32(self.msg_counter);
    }

    /// Restores state saved by [`BestEffortSource::save`] into this
    /// freshly-constructed source (overwriting the random phase drawn at
    /// construction).
    ///
    /// # Errors
    ///
    /// Propagates snapshot decoding errors.
    pub fn load_into(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.next_at = Cycles(r.u64()?);
        self.gap_err = r.f64()?;
        self.msg_counter = r.u32()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn source(arrival: ArrivalProcess, rng: &mut SimRng) -> BestEffortSource {
        let spec = WorkloadSpec {
            arrival,
            ..WorkloadSpec::paper_default()
        };
        BestEffortSource::new(
            &spec,
            StreamId(50),
            NodeId(3),
            8,
            vec![VcId(14), VcId(15)],
            0.2 * 400e6, // 20 % of the link
            Cycles(0),
            rng,
        )
    }

    #[test]
    fn constant_rate_matches_request() {
        let mut rng = SimRng::seed_from(1);
        let mut s = source(ArrivalProcess::Constant, &mut rng);
        let mut id = 0u64;
        let n = 10_000;
        let mut last = Cycles::ZERO;
        for _ in 0..n {
            last = s.next_message(&mut rng, &mut id).at;
        }
        // 20 % of 400 Mbps = 80 Mbps; a 20-flit (640-bit) message every
        // 8 µs = 100 cycles.
        let mean_gap = last.as_f64() / n as f64;
        assert!((mean_gap - 100.0).abs() < 1.0, "gap {mean_gap}");
    }

    #[test]
    fn constant_rate_tracks_non_integer_gap() {
        // Regression: a constant-rate source whose mean gap is not a
        // whole number of cycles used to truncate the fraction on every
        // message (100.7 → 100), injecting 0.7 % above the requested
        // rate with no error carry. The fractional remainder must be
        // banked and paid back as whole cycles.
        let spec = WorkloadSpec::paper_default();
        let mut rng = SimRng::seed_from(7);
        // 640-bit messages against a 12.5 Mcycle/s timebase: this rate
        // works out to a mean gap of exactly 100.7 cycles.
        let rate_bps = 640.0 * spec.timebase().flits_per_second() / 100.7;
        let mut s = BestEffortSource::new(
            &spec,
            StreamId(51),
            NodeId(3),
            8,
            vec![VcId(14), VcId(15)],
            rate_bps,
            Cycles(0),
            &mut rng,
        );
        assert!((s.mean_gap - 100.7).abs() < 1e-9);
        let mut id = 0u64;
        let n = 10_000;
        let mut last = Cycles::ZERO;
        for _ in 0..n {
            last = s.next_message(&mut rng, &mut id).at;
        }
        let mean_gap = last.as_f64() / n as f64;
        assert!(
            (mean_gap - 100.7).abs() < 0.05,
            "measured gap {mean_gap} drifted from requested 100.7"
        );
    }

    #[test]
    fn gap_error_carry_survives_snapshot() {
        // The carry is generation state: dropping it at a checkpoint
        // would make a restored run drift from the uninterrupted one.
        let spec = WorkloadSpec::paper_default();
        let mut rng = SimRng::seed_from(8);
        let rate_bps = 640.0 * spec.timebase().flits_per_second() / 100.7;
        let make = |rng: &mut SimRng| {
            BestEffortSource::new(
                &spec,
                StreamId(52),
                NodeId(1),
                8,
                vec![VcId(15)],
                rate_bps,
                Cycles(0),
                rng,
            )
        };
        let mut a = make(&mut rng);
        let mut id = 0u64;
        for _ in 0..7 {
            a.next_message(&mut rng, &mut id);
        }
        let mut w = SnapWriter::new();
        a.save(&mut w);
        let buf = w.finish();
        let mut b = make(&mut rng);
        b.load_into(&mut SnapReader::new(&buf).unwrap()).unwrap();
        // Same RNG state for both from here on: constant arrivals only
        // consume RNG draws for dest/VC picks, which we mirror by
        // cloning the RNG via snapshot-free reseeding.
        let mut rng_a = SimRng::seed_from(99);
        let mut rng_b = SimRng::seed_from(99);
        let (mut ia, mut ib) = (100u64, 100u64);
        for _ in 0..50 {
            let ma = a.next_message(&mut rng_a, &mut ia);
            let mb = b.next_message(&mut rng_b, &mut ib);
            assert_eq!(ma.at, mb.at, "restored source diverged");
        }
    }

    #[test]
    fn poisson_rate_matches_request() {
        let mut rng = SimRng::seed_from(2);
        let mut s = source(ArrivalProcess::Poisson, &mut rng);
        let mut id = 0u64;
        let n = 50_000;
        let mut last = Cycles::ZERO;
        for _ in 0..n {
            last = s.next_message(&mut rng, &mut id).at;
        }
        let mean_gap = last.as_f64() / n as f64;
        assert!((mean_gap - 100.0).abs() < 3.0, "gap {mean_gap}");
    }

    #[test]
    fn destinations_are_uniform_and_never_self() {
        let mut rng = SimRng::seed_from(3);
        let mut s = source(ArrivalProcess::Constant, &mut rng);
        let mut id = 0u64;
        let mut counts = [0u32; 8];
        for _ in 0..7000 {
            let m = s.next_message(&mut rng, &mut id);
            counts[m.flits.head().dest.index()] += 1;
        }
        assert_eq!(counts[3], 0, "never self-addressed");
        for (i, &c) in counts.iter().enumerate() {
            if i != 3 {
                assert!((800..1200).contains(&c), "dest {i} count {c}");
            }
        }
    }

    #[test]
    fn vcs_drawn_from_allowed_set() {
        let mut rng = SimRng::seed_from(4);
        let mut s = source(ArrivalProcess::Constant, &mut rng);
        let mut id = 0u64;
        for _ in 0..100 {
            let m = s.next_message(&mut rng, &mut id);
            assert!(m.flits.head().vc == VcId(14) || m.flits.head().vc == VcId(15));
            assert!(m.flits.head().out_vc == VcId(14) || m.flits.head().out_vc == VcId(15));
        }
    }

    #[test]
    fn best_effort_flits_carry_infinite_slack() {
        let mut rng = SimRng::seed_from(5);
        let mut s = source(ArrivalProcess::Constant, &mut rng);
        let mut id = 0u64;
        let m = s.next_message(&mut rng, &mut id);
        for f in m.flits {
            assert_eq!(f.vtick, BEST_EFFORT_VTICK);
            assert_eq!(f.class, TrafficClass::BestEffort);
        }
        assert_eq!(m.flits.head().msgs_in_frame, 1);
    }
}
