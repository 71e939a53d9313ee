//! Physical channels and credit return paths.
//!
//! A [`Link`] moves at most one flit per cycle with a fixed pipeline
//! latency; the matching [`CreditLink`] carries per-VC buffer credits back
//! upstream with the same latency model. Both are plain delay lines — the
//! *decision* of what to send is the router's job.
//!
//! Both queue `(arrival cycle, payload)` pairs in a [`VcBuffer`] sized at
//! construction from the latency: a flit channel holds at most one entry
//! per cycle of latency (the bandwidth gate enforces one send per cycle,
//! and due flits drain before new sends within a cycle), and a credit
//! channel holds at most `per_cycle_max` entries per cycle of latency
//! (the crossbar frees at most that many slots per port per cycle).
//! Entries are pushed in send order and the delay is constant, so arrival
//! cycles never decrease and the head is always the earliest arrival.

use netsim::snap::{SnapError, SnapReader, SnapWriter};
use netsim::Cycles;

use crate::flit::Flit;
use crate::ids::VcId;
use crate::vcbuf::VcBuffer;

/// A one-flit-per-cycle pipelined physical channel.
///
/// # Example
///
/// ```
/// use flitnet::{Flit, Link, TrafficClass};
/// use flitnet::{MsgId, NodeId, StreamId, FrameId, VcId};
/// use netsim::Cycles;
///
/// let mut link = Link::new(Cycles(1));
/// # let f = Flit { stream: StreamId(0), msg: MsgId(0),
/// #   frame: FrameId(0), seq_in_msg: 0, msg_len: 1,
/// #   msgs_in_frame: 1, dest: NodeId(0), vc: VcId(0), out_vc: VcId(0), vtick: 1.0,
/// #   class: TrafficClass::Vbr, created_at: Cycles(0) };
/// assert!(link.can_send(Cycles(5)));
/// link.send(Cycles(5), f);
/// assert!(!link.can_send(Cycles(5))); // one flit per cycle
/// assert!(link.recv(Cycles(5)).is_none()); // still in flight
/// assert!(link.recv(Cycles(6)).is_some()); // arrives after latency
/// ```
#[derive(Debug, Clone)]
pub struct Link {
    latency: Cycles,
    in_flight: VcBuffer<(Cycles, Flit)>,
    last_send: Option<Cycles>,
}

impl Link {
    /// Creates a link with the given pipeline latency (≥ 1 cycle).
    ///
    /// The in-flight FIFO holds `latency` entries: the one-send-per-cycle
    /// bandwidth gate bounds occupancy by the latency window.
    ///
    /// # Panics
    ///
    /// Panics if `latency` is zero: a zero-latency link would let a flit
    /// traverse several routers in one cycle.
    pub fn new(latency: Cycles) -> Link {
        assert!(
            latency > Cycles::ZERO,
            "link latency must be at least one cycle"
        );
        Link {
            latency,
            in_flight: VcBuffer::new(latency.0 as usize),
            last_send: None,
        }
    }

    /// The link's pipeline latency.
    pub fn latency(&self) -> Cycles {
        self.latency
    }

    /// Whether the link can accept a flit this cycle (bandwidth check only;
    /// the sender must separately hold a downstream credit).
    pub fn can_send(&self, now: Cycles) -> bool {
        self.last_send != Some(now)
    }

    /// Puts a flit on the wire at cycle `now`.
    ///
    /// # Panics
    ///
    /// Panics if a flit was already sent this cycle (one flit per cycle).
    pub fn send(&mut self, now: Cycles, flit: Flit) {
        assert!(self.can_send(now), "link bandwidth exceeded at {now}");
        self.last_send = Some(now);
        self.in_flight.push((now + self.latency, flit));
    }

    /// Takes the flit arriving at cycle `now`, if any.
    pub fn recv(&mut self, now: Cycles) -> Option<Flit> {
        if self.in_flight.head().is_some_and(|(at, _)| *at <= now) {
            Some(self.in_flight.pop().expect("peeked entry").1)
        } else {
            None
        }
    }

    /// Number of flits currently on the wire.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Whether any flit is on the wire (used for idle detection).
    pub fn is_idle(&self) -> bool {
        self.in_flight.is_empty()
    }

    /// The arrival cycle of the earliest in-flight flit, if any.
    ///
    /// Entries arrive in send order and the delay is constant, so the
    /// head of the FIFO is always the minimum — this is an O(1) load,
    /// cheap enough to scan across every active link when computing the
    /// quiescence horizon.
    pub fn earliest_arrival(&self) -> Option<Cycles> {
        self.in_flight.head().map(|&(at, _)| at)
    }

    /// Iterates over the flits currently on the wire, in send order.
    ///
    /// Read-only visibility for the audit layer's conservation checks;
    /// the router/NI hot path never calls this.
    pub fn iter_in_flight(&self) -> impl Iterator<Item = &Flit> {
        self.in_flight.iter().map(|(_, f)| f)
    }

    /// Serialises the wire state (in-flight flits with their arrival
    /// cycles, plus the bandwidth-gate timestamp) into a snapshot.
    pub fn save(&self, w: &mut SnapWriter) {
        w.option(self.last_send, |w, at| w.u64(at.0));
        self.in_flight.save_with(w, |w, (at, f)| {
            w.u64(at.0);
            f.save(w);
        });
    }

    /// Restores wire state saved by [`Link::save`] into this (idle) link.
    ///
    /// # Errors
    ///
    /// Propagates snapshot decoding errors; rejects snapshots claiming
    /// more in-flight flits than the latency-bounded FIFO can hold.
    ///
    /// # Panics
    ///
    /// Panics if the link is not idle.
    pub fn load_into(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.last_send = r.option(|r| r.u64().map(Cycles))?;
        self.in_flight
            .load_with(r, |r| Ok((Cycles(r.u64()?), Flit::load(r)?)))
    }
}

/// The upstream credit-return path paired with a [`Link`].
///
/// When a downstream input VC buffer frees a slot, a credit for that VC
/// travels back with the link's latency.
#[derive(Debug, Clone)]
pub struct CreditLink {
    latency: Cycles,
    in_flight: VcBuffer<(Cycles, VcId)>,
}

impl CreditLink {
    /// Creates a credit path with the given latency (≥ 1 cycle).
    ///
    /// `per_cycle_max` bounds how many credits the downstream component
    /// can return in a single cycle (for a router input port that is the
    /// VC count — a full crossbar can drain one flit per VC per cycle);
    /// the in-flight FIFO holds `per_cycle_max * latency` entries.
    ///
    /// # Panics
    ///
    /// Panics if `latency` is zero: credits must take as long to return
    /// as flits take to travel, or flow control turns instantaneous.
    /// Panics if `per_cycle_max` is zero.
    pub fn new(latency: Cycles, per_cycle_max: usize) -> CreditLink {
        assert!(
            latency > Cycles::ZERO,
            "credit link latency must be at least one cycle"
        );
        assert!(
            per_cycle_max > 0,
            "credit link per-cycle maximum must be at least one"
        );
        CreditLink {
            latency,
            in_flight: VcBuffer::new(per_cycle_max * latency.0 as usize),
        }
    }

    /// Sends one credit for `vc` at cycle `now`.
    pub fn send(&mut self, now: Cycles, vc: VcId) {
        self.in_flight.push((now + self.latency, vc));
    }

    /// Takes the next credit arriving at or before `now`, if any. Call in a
    /// loop to drain all due credits (multiple VCs may return credits in the
    /// same cycle).
    pub fn recv(&mut self, now: Cycles) -> Option<VcId> {
        if self.in_flight.head().is_some_and(|(at, _)| *at <= now) {
            Some(self.in_flight.pop().expect("peeked entry").1)
        } else {
            None
        }
    }

    /// Whether no credits are in flight.
    pub fn is_idle(&self) -> bool {
        self.in_flight.is_empty()
    }

    /// Number of credits currently in flight.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// The arrival cycle of the earliest in-flight credit, if any (O(1):
    /// constant delay keeps the FIFO sorted by arrival).
    pub fn earliest_arrival(&self) -> Option<Cycles> {
        self.in_flight.head().map(|&(at, _)| at)
    }

    /// Iterates over the VCs of the credits currently in flight.
    ///
    /// Read-only visibility for the audit layer's conservation checks.
    pub fn iter_in_flight(&self) -> impl Iterator<Item = VcId> + '_ {
        self.in_flight.iter().map(|&(_, vc)| vc)
    }

    /// Serialises the in-flight credits into a snapshot.
    pub fn save(&self, w: &mut SnapWriter) {
        self.in_flight.save_with(w, |w, (at, vc)| {
            w.u64(at.0);
            w.u32(vc.0);
        });
    }

    /// Restores credits saved by [`CreditLink::save`] into this (idle)
    /// credit path.
    ///
    /// # Errors
    ///
    /// Propagates snapshot decoding errors; rejects snapshots claiming
    /// more in-flight credits than the FIFO can hold.
    ///
    /// # Panics
    ///
    /// Panics if the credit path is not idle.
    pub fn load_into(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.in_flight
            .load_with(r, |r| Ok((Cycles(r.u64()?), VcId(r.u32()?))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{FrameId, MsgId, NodeId, StreamId};
    use crate::TrafficClass;

    fn flit(seq: u32) -> Flit {
        Flit {
            stream: StreamId(0),
            msg: MsgId(0),
            frame: FrameId(0),
            seq_in_msg: seq,
            msg_len: 10,
            msgs_in_frame: 1,
            dest: NodeId(0),
            vc: VcId(0),
            out_vc: VcId(0),
            vtick: 1.0,
            class: TrafficClass::Vbr,
            created_at: Cycles(0),
        }
    }

    #[test]
    fn delivers_after_latency() {
        let mut link = Link::new(Cycles(3));
        link.send(Cycles(10), flit(0));
        assert!(link.recv(Cycles(12)).is_none());
        assert_eq!(link.recv(Cycles(13)).unwrap().seq_in_msg, 0);
        assert!(link.is_idle());
    }

    #[test]
    fn preserves_order_across_cycles() {
        let mut link = Link::new(Cycles(1));
        link.send(Cycles(0), flit(0));
        assert_eq!(link.recv(Cycles(1)).unwrap().seq_in_msg, 0);
        link.send(Cycles(1), flit(1));
        assert_eq!(link.recv(Cycles(2)).unwrap().seq_in_msg, 1);
    }

    #[test]
    fn one_flit_per_cycle() {
        let mut link = Link::new(Cycles(1));
        link.send(Cycles(0), flit(0));
        assert!(!link.can_send(Cycles(0)));
        assert!(link.can_send(Cycles(1)));
    }

    #[test]
    #[should_panic(expected = "bandwidth exceeded")]
    fn double_send_panics() {
        let mut link = Link::new(Cycles(1));
        link.send(Cycles(0), flit(0));
        link.send(Cycles(0), flit(1));
    }

    #[test]
    #[should_panic(expected = "credit link latency")]
    fn zero_latency_credit_link_panics() {
        let _ = CreditLink::new(Cycles(0), 1);
    }

    #[test]
    fn credits_round_trip() {
        let mut credits = CreditLink::new(Cycles(1), 4);
        credits.send(Cycles(5), VcId(3));
        credits.send(Cycles(5), VcId(1));
        assert!(credits.recv(Cycles(5)).is_none());
        assert_eq!(credits.recv(Cycles(6)), Some(VcId(3)));
        assert_eq!(credits.recv(Cycles(6)), Some(VcId(1)));
        assert!(credits.recv(Cycles(6)).is_none());
        assert!(credits.is_idle());
    }

    #[test]
    fn in_flight_counts() {
        let mut link = Link::new(Cycles(5));
        link.send(Cycles(0), flit(0));
        link.send(Cycles(1), flit(1));
        assert_eq!(link.in_flight(), 2);
        let _ = link.recv(Cycles(5));
        assert_eq!(link.in_flight(), 1);
    }

    #[test]
    fn audit_iterators_see_in_flight_state() {
        let mut link = Link::new(Cycles(5));
        link.send(Cycles(0), flit(0));
        link.send(Cycles(1), flit(1));
        let seqs: Vec<u32> = link.iter_in_flight().map(|f| f.seq_in_msg).collect();
        assert_eq!(seqs, vec![0, 1]);

        let mut credits = CreditLink::new(Cycles(2), 4);
        credits.send(Cycles(0), VcId(3));
        credits.send(Cycles(0), VcId(1));
        assert_eq!(credits.in_flight(), 2);
        let vcs: Vec<VcId> = credits.iter_in_flight().collect();
        assert_eq!(vcs, vec![VcId(3), VcId(1)]);
    }

    #[test]
    fn earliest_arrival_tracks_head() {
        let mut link = Link::new(Cycles(3));
        assert_eq!(link.earliest_arrival(), None);
        link.send(Cycles(10), flit(0));
        link.send(Cycles(11), flit(1));
        assert_eq!(link.earliest_arrival(), Some(Cycles(13)));
        let _ = link.recv(Cycles(13));
        assert_eq!(link.earliest_arrival(), Some(Cycles(14)));

        let mut credits = CreditLink::new(Cycles(2), 1);
        assert_eq!(credits.earliest_arrival(), None);
        credits.send(Cycles(4), VcId(0));
        assert_eq!(credits.earliest_arrival(), Some(Cycles(6)));
    }

    #[test]
    fn ring_wraps_under_sustained_traffic() {
        // Saturate a latency-3 link for many cycles so the FIFO head wraps
        // repeatedly; order and arrival cycles must stay exact.
        let mut link = Link::new(Cycles(3));
        let mut next_rx = 0u32;
        for t in 0..100u64 {
            // Deliveries drain before sends within a cycle, exactly as the
            // network steps links — that order is what bounds the FIFO.
            if let Some(f) = link.recv(Cycles(t)) {
                assert_eq!(f.seq_in_msg, next_rx);
                next_rx += 1;
            }
            link.send(Cycles(t), flit(t as u32));
        }
        assert_eq!(link.in_flight(), 3);
        for t in 100..103u64 {
            let f = link.recv(Cycles(t)).expect("drain tail");
            assert_eq!(f.seq_in_msg, next_rx);
            next_rx += 1;
        }
        assert!(link.is_idle());
        assert_eq!(next_rx, 100);
    }

    #[test]
    fn credit_ring_holds_per_cycle_burst_times_latency() {
        // 4 credits per cycle for `latency` cycles is the worst case the
        // FIFO is sized for; it must hold them all without panicking.
        let mut credits = CreditLink::new(Cycles(2), 4);
        for t in 0..2u64 {
            for v in 0..4u32 {
                credits.send(Cycles(t), VcId(v));
            }
        }
        assert_eq!(credits.in_flight(), 8);
        let mut got = 0;
        for t in 2..4u64 {
            while credits.recv(Cycles(t)).is_some() {
                got += 1;
            }
        }
        assert_eq!(got, 8);
    }

    #[test]
    fn overfull_link_snapshot_is_rejected() {
        // A latency-1 link can hold one flit; a snapshot claiming two
        // must be rejected as corrupt, not grow the FIFO.
        let mut donor = Link::new(Cycles(2));
        donor.send(Cycles(0), flit(0));
        donor.send(Cycles(1), flit(1));
        let mut w = SnapWriter::new();
        donor.save(&mut w);
        let bytes = w.finish();
        let mut target = Link::new(Cycles(1));
        let mut r = SnapReader::new(&bytes).unwrap();
        assert!(matches!(
            target.load_into(&mut r),
            Err(SnapError::BadValue(_))
        ));
    }

    #[test]
    fn overfull_credit_link_snapshot_is_rejected() {
        // One credit per cycle over a latency-1 path is one entry; a
        // snapshot claiming two must be rejected as corrupt.
        let mut donor = CreditLink::new(Cycles(1), 2);
        donor.send(Cycles(0), VcId(0));
        donor.send(Cycles(0), VcId(1));
        let mut w = SnapWriter::new();
        donor.save(&mut w);
        let bytes = w.finish();
        let mut target = CreditLink::new(Cycles(1), 1);
        let mut r = SnapReader::new(&bytes).unwrap();
        assert!(matches!(
            target.load_into(&mut r),
            Err(SnapError::BadValue(_))
        ));
    }
}
