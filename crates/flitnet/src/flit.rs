//! Flits: the unit of wormhole flow control.
//!
//! A message is segmented into flits. The *head* flit carries everything a
//! router needs to route and schedule the worm — destination, requested VC,
//! and the Virtual Clock `Vtick` (the stream's negotiated inter-flit service
//! interval, §3.3). Middle and tail flits simply follow the path the head
//! reserved; the tail additionally releases that path.
//!
//! For simulator convenience every [`Flit`] carries the full descriptor (in
//! hardware only the head would); routers must only *act* on head-flit
//! fields at route/arbitration time, which the pipeline model enforces
//! structurally.
//!
//! Only `seq_in_msg` and `vc` vary within a message, so any flit of a
//! message rebuilds the others: [`Flit::nth`] is the one rule. A flit's
//! head/body/tail role is not stored but read from its position
//! ([`Flit::kind`]). A [`Worm`] is a whole message held as its head,
//! from the traffic source to the network interface; the NI keeps a
//! waiting message as its head plus a cursor and builds each flit as it
//! leaves. Snapshots store scheduled and NI-queued messages as their
//! heads ([`Flit::load_head`]).

use netsim::snap::{SnapError, SnapReader, SnapWriter};
use netsim::Cycles;

use crate::class::TrafficClass;
use crate::ids::{FrameId, MsgId, NodeId, StreamId, VcId};

/// The `Vtick` value used for best-effort traffic.
///
/// The paper sets best-effort `Vtick = ∞` ("it has the maximum slack"). A
/// genuine `f64::INFINITY` would make every best-effort timestamp equal,
/// destroying FIFO order among best-effort flits, so we use a finite but
/// astronomically large tick (10¹² cycles ≈ 22 hours of simulated time at
/// 400 Mbps): real-time flits always win, and best-effort flits still order
/// among themselves by arrival.
pub const BEST_EFFORT_VTICK: f64 = 1e12;

/// Role of a flit within its message, derived from its position by
/// [`Flit::kind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlitKind {
    /// First flit; carries routing and bandwidth-reservation information.
    Head,
    /// A middle flit; bypasses the routing/arbitration stages.
    Body,
    /// Last flit; releases the resources the head reserved.
    Tail,
    /// Single-flit message: head and tail at once.
    HeadTail,
}

/// One flit in flight.
///
/// `Flit` is `Copy` and kept small; simulators move millions of them.
///
/// # Example
///
/// ```
/// use flitnet::{Flit, FlitKind, TrafficClass};
/// use flitnet::{MsgId, NodeId, StreamId, FrameId, VcId};
/// use netsim::Cycles;
///
/// let head = Flit {
///     stream: StreamId(0),
///     msg: MsgId(1),
///     frame: FrameId(0),
///     seq_in_msg: 0,
///     msg_len: 20,
///     msgs_in_frame: 208,
///     dest: NodeId(5),
///     vc: VcId(1),
///     out_vc: VcId(3),
///     vtick: 100.0,
///     class: TrafficClass::Vbr,
///     created_at: Cycles(0),
/// };
/// assert_eq!(head.kind(), FlitKind::Head);
/// assert!(head.is_head() && !head.is_tail());
/// assert_eq!(head.nth(19).kind(), FlitKind::Tail);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Flit {
    /// Owning stream.
    pub stream: StreamId,
    /// Globally unique message id.
    pub msg: MsgId,
    /// Frame number within the stream (real-time traffic only; 0 for
    /// best-effort).
    pub frame: FrameId,
    /// Flit index within the message, `0 .. msg_len`: the flit's
    /// head/body/tail role ([`Flit::kind`]).
    pub seq_in_msg: u32,
    /// Message length in flits.
    pub msg_len: u32,
    /// Messages constituting the frame (1 for best-effort).
    pub msgs_in_frame: u32,
    /// Destination endpoint.
    pub dest: NodeId,
    /// The virtual channel the flit currently travels on. Set to the
    /// injection-link VC at the source and rewritten by each router when
    /// the flit switches to its granted output VC.
    pub vc: VcId,
    /// The virtual-channel index the stream requests on every downstream
    /// hop (the paper draws input and output VCs uniformly from the class
    /// partition at stream setup, §4.2.1). Routers read this from the head
    /// flit at routing time.
    pub out_vc: VcId,
    /// Virtual Clock tick in cycles/flit ([`BEST_EFFORT_VTICK`] for
    /// best-effort traffic).
    pub vtick: f64,
    /// Traffic class.
    pub class: TrafficClass,
    /// Cycle at which the message was created at the source; used for
    /// best-effort latency accounting.
    pub created_at: Cycles,
}

impl Flit {
    /// Builds flit `i` of this flit's message: a copy with `seq_in_msg`
    /// set to `i`. This is the one rule that rebuilds a message from any
    /// of its flits; [`Worm`] maps it over a whole message.
    pub fn nth(&self, i: u32) -> Flit {
        debug_assert!(
            i < self.msg_len,
            "flit {i} of a {}-flit message",
            self.msg_len
        );
        Flit {
            seq_in_msg: i,
            ..*self
        }
    }

    /// Whether this is its message's first flit, the one routers route
    /// and arbitrate.
    pub fn is_head(&self) -> bool {
        self.seq_in_msg == 0
    }

    /// Whether this is its message's last flit, the one that releases
    /// the path the head reserved.
    pub fn is_tail(&self) -> bool {
        self.seq_in_msg + 1 == self.msg_len
    }

    /// The flit's role, read from its position in the message.
    pub fn kind(&self) -> FlitKind {
        match (self.is_head(), self.is_tail()) {
            (true, true) => FlitKind::HeadTail,
            (true, false) => FlitKind::Head,
            (false, true) => FlitKind::Tail,
            (false, false) => FlitKind::Body,
        }
    }

    /// Serialises the flit into a snapshot.
    pub fn save(&self, w: &mut SnapWriter) {
        w.u32(self.stream.0);
        w.u64(self.msg.0);
        w.u32(self.frame.0);
        w.u32(self.seq_in_msg);
        w.u32(self.msg_len);
        w.u32(self.msgs_in_frame);
        w.u32(self.dest.0);
        w.u32(self.vc.0);
        w.u32(self.out_vc.0);
        w.f64(self.vtick);
        w.u8(match self.class {
            TrafficClass::Cbr => 0,
            TrafficClass::Vbr => 1,
            TrafficClass::BestEffort => 2,
        });
        w.u64(self.created_at.0);
    }

    /// Restores a flit saved by [`Flit::save`].
    ///
    /// # Errors
    ///
    /// Propagates snapshot decoding errors; a flit whose position is not
    /// inside a message of at least one flit is [`SnapError::BadValue`].
    pub fn load(r: &mut SnapReader<'_>) -> Result<Flit, SnapError> {
        let flit = Flit {
            stream: StreamId(r.u32()?),
            msg: MsgId(r.u64()?),
            frame: FrameId(r.u32()?),
            seq_in_msg: r.u32()?,
            msg_len: r.u32()?,
            msgs_in_frame: r.u32()?,
            dest: NodeId(r.u32()?),
            vc: VcId(r.u32()?),
            out_vc: VcId(r.u32()?),
            vtick: r.f64()?,
            class: match r.u8()? {
                0 => TrafficClass::Cbr,
                1 => TrafficClass::Vbr,
                2 => TrafficClass::BestEffort,
                _ => return Err(SnapError::BadValue("traffic class tag")),
            },
            created_at: Cycles(r.u64()?),
        };
        if flit.seq_in_msg >= flit.msg_len {
            return Err(SnapError::BadValue("flit position past its message"));
        }
        Ok(flit)
    }

    /// Restores a message's head flit saved by [`Flit::save`], for state
    /// that keeps a message as its head and rebuilds the rest with
    /// [`Flit::nth`].
    ///
    /// # Errors
    ///
    /// Propagates [`Flit::load`]'s errors; a flit that is not flit 0 of
    /// its message is [`SnapError::BadValue`].
    pub fn load_head(r: &mut SnapReader<'_>) -> Result<Flit, SnapError> {
        let head = Flit::load(r)?;
        if !head.is_head() {
            return Err(SnapError::BadValue("message head flit"));
        }
        Ok(head)
    }
}

/// A message as its head flit.
///
/// The head holds every per-message field and [`Flit::nth`] rebuilds the
/// rest, so a whole message is one `Copy` value the size of one flit.
/// Iterating a worm builds its flits head to tail.
///
/// # Example
///
/// ```
/// use flitnet::{Flit, FlitKind, TrafficClass, Worm};
/// use flitnet::{FrameId, MsgId, NodeId, StreamId, VcId};
/// use netsim::Cycles;
///
/// let worm = Worm::new(Flit {
///     stream: StreamId(0),
///     msg: MsgId(1),
///     frame: FrameId(0),
///     seq_in_msg: 0,
///     msg_len: 3,
///     msgs_in_frame: 1,
///     dest: NodeId(5),
///     vc: VcId(1),
///     out_vc: VcId(3),
///     vtick: 100.0,
///     class: TrafficClass::Vbr,
///     created_at: Cycles(0),
/// });
/// assert_eq!(worm.len(), 3);
/// let kinds: Vec<FlitKind> = worm.into_iter().map(|f| f.kind()).collect();
/// assert_eq!(kinds, [FlitKind::Head, FlitKind::Body, FlitKind::Tail]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Worm {
    head: Flit,
}

// A worm has at least one flit, so it is never empty.
#[allow(clippy::len_without_is_empty)]
impl Worm {
    /// The message `flit` belongs to; any flit of it will do.
    ///
    /// # Panics
    ///
    /// Panics if `flit.msg_len == 0`.
    pub fn new(flit: Flit) -> Worm {
        assert!(flit.msg_len > 0, "message must have at least one flit");
        Worm { head: flit.nth(0) }
    }

    /// The head flit: flit 0, which carries every per-message field.
    pub fn head(&self) -> Flit {
        self.head
    }

    /// Message length in flits.
    pub fn len(&self) -> usize {
        self.head.msg_len as usize
    }
}

impl IntoIterator for Worm {
    type Item = Flit;
    type IntoIter = Flits;

    fn into_iter(self) -> Flits {
        Flits {
            head: self.head,
            next: 0,
        }
    }
}

/// Iterator over a [`Worm`]'s flits, head to tail, each built with
/// [`Flit::nth`].
#[derive(Debug, Clone)]
pub struct Flits {
    head: Flit,
    next: u32,
}

impl Iterator for Flits {
    type Item = Flit;

    fn next(&mut self) -> Option<Flit> {
        let i = self.next;
        (i < self.head.msg_len).then(|| {
            self.next += 1;
            self.head.nth(i)
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = (self.head.msg_len - self.next) as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for Flits {}

/// Checks that a FIFO flit sequence is a well-formed run of worm
/// segments, the core wormhole invariant audited per VC buffer:
///
/// * within a message, `seq_in_msg` increments by one, nothing follows a
///   tail, and no second head appears;
/// * across messages, the earlier message's tail must come before the
///   later message's head (worms never interleave on one VC).
///
/// The sequence may begin mid-message (the head has already moved on) and
/// end mid-message (the tail has not arrived yet). Returns a description
/// of the first violation, or `None` when the sequence is well-formed.
pub fn worm_order_violation<'a>(flits: impl IntoIterator<Item = &'a Flit>) -> Option<String> {
    let mut prev: Option<&Flit> = None;
    for f in flits {
        if let Some(p) = prev {
            if p.msg == f.msg {
                if p.is_tail() {
                    return Some(format!("flit of msg {} follows its own tail", f.msg));
                }
                if f.is_head() {
                    return Some(format!("second head inside msg {}", f.msg));
                }
                if f.seq_in_msg != p.seq_in_msg + 1 {
                    return Some(format!(
                        "msg {} flit sequence jumps {} -> {}",
                        f.msg, p.seq_in_msg, f.seq_in_msg
                    ));
                }
            } else {
                if !p.is_tail() {
                    return Some(format!(
                        "msg {} interleaves into msg {} before its tail",
                        f.msg, p.msg
                    ));
                }
                if !f.is_head() {
                    return Some(format!(
                        "msg {} enters the buffer mid-worm (first flit {:?})",
                        f.msg,
                        f.kind()
                    ));
                }
            }
        }
        prev = Some(f);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn template(len: u32) -> Flit {
        Flit {
            stream: StreamId(1),
            msg: MsgId(7),
            frame: FrameId(2),
            seq_in_msg: 0,
            msg_len: len,
            msgs_in_frame: 10,
            dest: NodeId(4),
            vc: VcId(2),
            out_vc: VcId(2),
            vtick: 100.0,
            class: TrafficClass::Vbr,
            created_at: Cycles(55),
        }
    }

    fn flits(len: u32) -> Vec<Flit> {
        Worm::new(template(len)).into_iter().collect()
    }

    #[test]
    fn worm_is_a_head_bodies_and_a_tail() {
        let flits = flits(20);
        assert_eq!(flits.len(), 20);
        assert_eq!(flits[0].kind(), FlitKind::Head);
        assert_eq!(flits[19].kind(), FlitKind::Tail);
        for (i, f) in flits.iter().enumerate() {
            assert_eq!(f.seq_in_msg, i as u32);
            if i > 0 && i < 19 {
                assert_eq!(f.kind(), FlitKind::Body);
            }
            assert_eq!(f.msg, MsgId(7));
            assert_eq!(f.vtick, 100.0);
        }
    }

    #[test]
    fn nth_rebuilds_every_flit_from_any_flit_of_the_message() {
        for len in [1, 2, 3, 20] {
            let flits = flits(len);
            for f in &flits {
                for (i, want) in flits.iter().enumerate() {
                    assert_eq!(f.nth(i as u32), *want);
                }
            }
        }
    }

    #[test]
    fn two_flit_worm_is_a_head_and_a_tail() {
        let flits = flits(2);
        assert_eq!(flits[0].kind(), FlitKind::Head);
        assert_eq!(flits[1].kind(), FlitKind::Tail);
    }

    #[test]
    fn single_flit_worm_is_one_head_tail() {
        let flits = flits(1);
        assert_eq!(flits.len(), 1);
        assert_eq!(flits[0].kind(), FlitKind::HeadTail);
        assert!(flits[0].is_head());
        assert!(flits[0].is_tail());
    }

    #[test]
    fn load_rejects_a_flit_outside_its_message() {
        let load = |f: Flit| {
            let mut w = SnapWriter::new();
            f.save(&mut w);
            let bytes = w.finish();
            let mut r = SnapReader::new(&bytes).expect("header");
            Flit::load(&mut r)
        };
        let tail = template(3).nth(2);
        assert_eq!(load(tail), Ok(tail));
        for (seq_in_msg, msg_len) in [(3, 3), (7, 3), (0, 0)] {
            let bad = Flit {
                seq_in_msg,
                msg_len,
                ..tail
            };
            assert!(matches!(load(bad), Err(SnapError::BadValue(_))));
        }
    }

    #[test]
    fn best_effort_vtick_dominates_but_is_finite() {
        assert!(BEST_EFFORT_VTICK.is_finite());
        // Adding it twice must still order later additions after earlier
        // ones (the FIFO-among-best-effort property).
        let a = BEST_EFFORT_VTICK;
        let b = a + BEST_EFFORT_VTICK;
        assert!(b > a);
    }

    #[test]
    fn flit_is_small_enough_to_copy_cheaply() {
        // Guard against accidental growth of the hot-path struct.
        assert!(std::mem::size_of::<Flit>() <= 96);
    }

    #[test]
    fn worm_order_accepts_well_formed_sequences() {
        let a = flits(3);
        let mut b = flits(2);
        for f in &mut b {
            f.msg = MsgId(8);
        }
        // Two complete back-to-back worms.
        let seq: Vec<&Flit> = a.iter().chain(b.iter()).collect();
        assert_eq!(worm_order_violation(seq), None);
        // A truncated front (head popped) and a truncated end.
        assert_eq!(worm_order_violation(a[1..].iter()), None);
        assert_eq!(worm_order_violation(a[..2].iter()), None);
        // Empty and single-flit sequences are trivially fine.
        assert_eq!(worm_order_violation(std::iter::empty::<&Flit>()), None);
        assert_eq!(worm_order_violation([&a[1]].into_iter()), None);
    }

    #[test]
    fn worm_order_rejects_interleaving_and_gaps() {
        let a = flits(3);
        let mut b = flits(3);
        for f in &mut b {
            f.msg = MsgId(8);
        }
        // Another worm's head before this worm's tail.
        let interleaved = [&a[0], &a[1], &b[0]];
        assert!(worm_order_violation(interleaved.into_iter())
            .expect("interleaving must be flagged")
            .contains("interleaves"));
        // A sequence gap inside one worm.
        let gapped = [&a[0], &a[2]];
        assert!(worm_order_violation(gapped.into_iter())
            .expect("gap must be flagged")
            .contains("jumps"));
        // A worm continuing after its own tail.
        let mut after_tail = a[2];
        after_tail.seq_in_msg = 3;
        let ghost = [&a[2], &after_tail];
        assert!(worm_order_violation(ghost.into_iter())
            .expect("post-tail flit must be flagged")
            .contains("tail"));
        // A successor worm starting with a body flit.
        let cut = [&a[2], &b[1]];
        assert!(worm_order_violation(cut.into_iter())
            .expect("mid-worm entry must be flagged")
            .contains("mid-worm"));
    }
}
