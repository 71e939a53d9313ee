//! Multiplexer schedulers: Virtual Clock, FIFO, round-robin, WFQ, DRR
//! and SCFQ.
//!
//! A [`MuxScheduler`] arbitrates one multiplexing point — a crossbar input
//! multiplexer, an output VC multiplexer, or a network-interface injection
//! multiplexer — among the virtual channels feeding it.
//!
//! For **Virtual Clock** (paper §3.3), each VC keeps two registers:
//! `auxVC` (the connection's virtual clock) and `Vtick` (the negotiated
//! inter-flit service interval, carried by each message's head flit). On
//! every flit arrival the flit is stamped with
//! `auxVC ← max(Clock, auxVC) + Vtick`, and the multiplexer serves, each
//! cycle, the eligible VC whose head flit has the lowest stamp. The
//! algorithm is work-conserving: stamps order competing flits but never
//! delay a lone one.
//!
//! **FIFO** stamps flits with their arrival cycle (the conventional
//! wormhole router of Fig. 3); **round-robin** rotates among eligible VCs.
//!
//! The fair-queueing spread around that axis (ROADMAP item 2):
//!
//! * **WFQ** stamps each flit with a GPS-approximated finish time
//!   `F ← max(F_prev, V(now)) + Vtick`, where the scheduler-global
//!   virtual time `V` advances at rate `1/Σ wᵢ` over the *backlogged*
//!   VCs' weights `wᵢ = 1/Vtickᵢ`. Unlike Virtual Clock, an idle
//!   connection earns no credit while others are backlogged — `V` stalls
//!   rather than tracking the wall clock.
//! * **SCFQ** (self-clocked fair queueing) replaces the GPS reference
//!   with the tag of the flit most recently selected for service:
//!   `F ← max(F_prev, v_served) + Vtick`. Cheaper than WFQ and immune to
//!   real-clock drift, at the cost of looser delay bounds.
//! * **DRR** keeps a per-VC deficit counter topped up by a fixed
//!   [`DRR_QUANTUM`] each round; a VC may send while its deficit covers
//!   a flit. Rate-agnostic: equal quanta mean equal long-run shares
//!   regardless of Vtick.
//!
//! All stamp/register updates saturate at [`STAMP_SATURATION`] so
//! best-effort traffic (whose `Vtick` is `1e12`) cannot push a register
//! past the f64 integer-precision cliff at 2⁵³, where stamp comparisons
//! and tie rotation would silently degrade.

use std::collections::VecDeque;

use flitnet::{Flit, StreamId};
use netsim::snap::{SnapError, SnapReader, SnapWriter};
use netsim::Cycles;

use crate::config::SchedulerKind;

/// Ceiling applied to every virtual-clock-style register and stamp.
///
/// Best-effort flits carry `Vtick = 1e12` ([`flitnet::BEST_EFFORT_VTICK`]),
/// so a backlogged best-effort VC adds `1e12` per flit to its register.
/// f64 loses integer precision at 2⁵³ ≈ 9.0e15; once two stamps round to
/// the same value their *order* information is gone and tie rotation is
/// all that separates them. Saturating well below the cliff (≈ 1000
/// best-effort flits) keeps real-time stamps (Vticks of ~10–100 cycles)
/// exactly representable when added on top, and turns the best-effort
/// tail into an explicit, tested tie-rotation regime instead of a silent
/// precision failure.
pub const STAMP_SATURATION: f64 = 1e15;

/// DRR quantum in flits credited to every backlogged VC per round.
///
/// Small enough to bound burst length at one message fragment, large
/// enough that the round-refill bookkeeping stays off the per-flit path.
pub const DRR_QUANTUM: f64 = 4.0;

/// A run of queued stamps: `next`, then `next` advanced by [`advance`]
/// with `step` once per further flit, `left` flits in all.
///
/// Virtual Clock, WFQ and SCFQ runs step by the message's Vtick, so a
/// message queued whole, or a worm backlogged behind its own head, is one
/// run. FIFO, round-robin and DRR runs step by 0: their flits repeat one
/// stamp.
#[derive(Debug, Clone, Copy)]
struct Run {
    next: f64,
    step: f64,
    left: u32,
}

/// The rule that chains a run's stamps, which is also the saturating
/// `+ Vtick` of every virtual-clock-style stamp.
fn advance(stamp: f64, step: f64) -> f64 {
    (stamp + step).min(STAMP_SATURATION)
}

/// Per-VC scheduler state.
#[derive(Debug, Clone, Default)]
struct VcState {
    /// Pending stamps as runs, parallel to the flits queued at this mux
    /// point.
    runs: VecDeque<Run>,
    /// Flits queued (the runs' `left`, summed): [`MuxScheduler::pending`].
    flits: usize,
    /// Memoized stamp of the queued head flit: the pick scans every
    /// eligible VC every cycle, and a plain field load beats reading the
    /// front run in that loop. Maintained on arrival (first flit) and
    /// service (next flit); meaningless while no flit is queued.
    head_stamp: f64,
    /// The last stamp issued on this VC, so also the tail run's last
    /// stamp while a flit is queued. Virtual Clock uses it as Zhang's
    /// `auxVC`; WFQ and SCFQ as the connection's last finish tag (same
    /// lifecycle: reset when the VC is recycled to a new stream). FIFO
    /// stamps are arrival cycles and round-robin and DRR stamps are 0;
    /// those disciplines never read it back.
    aux_vc: f64,
    /// DRR deficit counter in flits. Untouched by the other disciplines.
    deficit: f64,
    /// The Vtick of the message currently using this VC (set by its head
    /// flit, discarded — i.e. simply overwritten — after the tail).
    vtick: f64,
    /// The stream (connection) the VC currently serves. `auxVC` is a
    /// per-connection register, so it is reset when this changes.
    stream: Option<StreamId>,
}

/// A scheduler for one multiplexing point with a fixed number of VCs.
///
/// The owner mirrors its flit queues into the scheduler: call
/// [`MuxScheduler::on_arrival`] when a flit joins VC `vc`'s queue,
/// [`MuxScheduler::choose_from`] each cycle with the ascending list of
/// eligible VCs (or [`MuxScheduler::choose`] with an eligibility mask),
/// and [`MuxScheduler::on_service`] when the chosen VC's head flit
/// departs. Choosing mutates nothing: an empty list (or an all-false
/// mask) returns `None` and leaves the scheduler as it was.
///
/// # Example
///
/// ```
/// use mediaworm::{MuxScheduler, SchedulerKind};
/// use netsim::Cycles;
/// # use flitnet::{Flit, TrafficClass, MsgId, NodeId, StreamId, FrameId, VcId};
/// # fn head(vtick: f64) -> Flit {
/// #     Flit { stream: StreamId(0), msg: MsgId(0), frame: FrameId(0),
/// #         seq_in_msg: 0, msg_len: 2, msgs_in_frame: 1,
/// #         dest: NodeId(0), vc: VcId(0), out_vc: VcId(0), vtick, class: TrafficClass::Vbr,
/// #         created_at: Cycles(0) }
/// # }
/// let mut s = MuxScheduler::new(SchedulerKind::VirtualClock, 2);
/// // VC 0: a low-rate stream (large Vtick). VC 1: a high-rate stream.
/// s.on_arrival(0, Cycles(0), &head(1000.0));
/// s.on_arrival(1, Cycles(0), &head(10.0));
/// // The high-rate stream's flit has the earlier virtual-clock stamp.
/// assert_eq!(s.choose_from(&[0, 1]), Some(1));
/// assert_eq!(s.choose(&[true, true]), Some(1));
/// ```
#[derive(Debug, Clone)]
pub struct MuxScheduler {
    kind: SchedulerKind,
    vcs: Vec<VcState>,
    rr_cursor: usize,
    /// WFQ's GPS-approximated virtual time, advanced lazily on arrivals.
    v_time: f64,
    /// The cycle `v_time` was last advanced to (WFQ).
    v_cycle: u64,
    /// SCFQ's virtual time: the stamp of the flit last selected for
    /// service.
    v_served: f64,
}

impl MuxScheduler {
    /// Creates a scheduler for `n_vcs` virtual channels.
    ///
    /// # Panics
    ///
    /// Panics if `n_vcs == 0`.
    pub fn new(kind: SchedulerKind, n_vcs: usize) -> MuxScheduler {
        assert!(n_vcs > 0, "a mux point needs at least one VC");
        MuxScheduler {
            kind,
            vcs: vec![VcState::default(); n_vcs],
            rr_cursor: 0,
            v_time: 0.0,
            v_cycle: 0,
            v_served: 0.0,
        }
    }

    /// Records a flit joining VC `vc`'s queue at cycle `now` and stamps it.
    ///
    /// # Panics
    ///
    /// Panics if `vc` is out of range.
    pub fn on_arrival(&mut self, vc: usize, now: Cycles, flit: &Flit) {
        self.arrive(vc, now, flit, 1);
    }

    /// Records a whole message, given as its head flit, joining VC `vc`'s
    /// queue at cycle `now`: the same stamps, runs and registers as
    /// `head.msg_len` calls of [`MuxScheduler::on_arrival`] with its
    /// flits in order, without building them.
    ///
    /// # Panics
    ///
    /// Panics if `vc` is out of range.
    pub fn on_message_arrival(&mut self, vc: usize, now: Cycles, head: &Flit) {
        debug_assert!(head.is_head(), "a message arrives by its head flit");
        self.arrive(vc, now, head, head.msg_len);
    }

    /// The stamping rule of both arrivals: stamps `flits` flits joining
    /// VC `vc`'s queue at cycle `now`, the first of them `first` and the
    /// rest the non-head flits after it.
    fn arrive(&mut self, vc: usize, now: Cycles, first: &Flit, flits: u32) {
        // Runs follow messages only while every stamp is at or above the
        // clock, which `Vtick >= 0` and a clock below the saturation
        // ceiling guarantee: a flit queued behind its own stream's last
        // stamp then chains onto that stamp's run.
        debug_assert!(
            now.as_f64() <= STAMP_SATURATION,
            "cycle {now:?} past the stamp ceiling"
        );
        // A second advance at the same cycle is a no-op, so one advance
        // serves every flit of a message.
        if self.kind == SchedulerKind::Wfq {
            self.advance_virtual_time(now);
        }
        let (kind, v_time, v_served) = (self.kind, self.v_time, self.v_served);
        let state = &mut self.vcs[vc];
        let mut last = state.aux_vc;
        if first.is_head() {
            debug_assert!(first.vtick >= 0.0, "Vtick {} below zero", first.vtick);
            state.vtick = first.vtick;
            // Zhang's auxVC is a per-connection register (WFQ and SCFQ
            // reuse it as the connection's finish tag). When the VC is
            // recycled to a different stream, the new connection must not
            // inherit (and be penalized by) the old connection's clock.
            if state.stream != Some(first.stream) {
                state.aux_vc = 0.0;
                state.stream = Some(first.stream);
            }
        }
        for _ in 0..flits {
            let (stamp, step) = match kind {
                // auxVC ← max(Clock, auxVC) + Vtick  (Zhang's update rule),
                // saturated so a best-effort backlog cannot push the
                // register past f64 integer precision.
                SchedulerKind::VirtualClock => (
                    advance(state.aux_vc.max(now.as_f64()), state.vtick),
                    state.vtick,
                ),
                // F ← max(F_prev, V) + Vtick against the GPS-approximated
                // virtual time advanced above.
                SchedulerKind::Wfq => (advance(state.aux_vc.max(v_time), state.vtick), state.vtick),
                // F ← max(F_prev, tag of the last-served flit) + Vtick.
                SchedulerKind::Scfq => (
                    advance(state.aux_vc.max(v_served), state.vtick),
                    state.vtick,
                ),
                SchedulerKind::Fifo => (now.as_f64(), 0.0),
                SchedulerKind::RoundRobin | SchedulerKind::Drr => (0.0, 0.0),
            };
            state.aux_vc = stamp;
            if state.flits == 0 {
                state.head_stamp = stamp;
            }
            state.flits += 1;
            // The flit joins the tail run when the run's own rule yields
            // its stamp, bit for bit; the run then replays it exactly.
            // `last` is the stamp issued before it, which a head that
            // recycles the VC to a new stream does not reset.
            match state.runs.back_mut() {
                Some(tail)
                    if tail.step.to_bits() == step.to_bits()
                        && advance(last, step).to_bits() == stamp.to_bits()
                        && tail.left < u32::MAX =>
                {
                    tail.left += 1;
                }
                _ => state.runs.push_back(Run {
                    next: stamp,
                    step,
                    left: 1,
                }),
            }
            last = stamp;
        }
    }

    /// Advances WFQ's virtual time to `now`.
    ///
    /// `V` grows at `1/Σ wᵢ` over the currently backlogged VCs (with
    /// `wᵢ = 1/Vtickᵢ`, so a lone backlogged connection's tags and `V`
    /// move in lockstep), and snaps forward to the wall clock across idle
    /// periods so connections arriving after a gap are stamped relative
    /// to the present — mirroring Virtual Clock's `max(Clock, auxVC)`.
    fn advance_virtual_time(&mut self, now: Cycles) {
        let dt = now.0.saturating_sub(self.v_cycle);
        if dt == 0 {
            return;
        }
        self.v_cycle = now.0;
        let weight: f64 = self
            .vcs
            .iter()
            .filter(|s| s.flits > 0)
            .map(|s| 1.0 / s.vtick)
            .sum();
        self.v_time = if weight > 0.0 {
            (self.v_time + dt as f64 / weight).min(STAMP_SATURATION)
        } else {
            self.v_time.max(now.as_f64()).min(STAMP_SATURATION)
        };
    }

    /// Picks the VC to serve this cycle among `eligible`, the eligible
    /// VCs listed in strictly ascending order.
    ///
    /// This is the hot-path entry: the owner lists only the VCs that can
    /// move (its active sets already hold them in ascending order), and
    /// the rotation starts at a `partition_point` on the service cursor
    /// instead of visiting every VC. A listed VC must have at least one
    /// queued flit — violations panic, as they indicate the owner's queue
    /// and the scheduler went out of sync.
    ///
    /// # Panics
    ///
    /// Panics if a listed VC is out of range or has no pending flit.
    pub fn choose_from(&mut self, eligible: &[usize]) -> Option<usize> {
        debug_assert!(
            eligible.windows(2).all(|w| w[0] < w[1]),
            "eligible list must be strictly ascending: {eligible:?}"
        );
        for &vc in eligible {
            assert!(
                self.vcs[vc].flits > 0,
                "eligible VC must have a queued flit"
            );
        }
        self.select(|from| {
            let split = eligible.partition_point(|&vc| vc < from);
            eligible[split..].iter().chain(&eligible[..split]).copied()
        })
    }

    /// [`MuxScheduler::choose_from`] over an eligibility mask (`eligible[vc]`
    /// marks VC `vc`). Same rule, same result; kept for callers that hold
    /// a mask rather than a list.
    ///
    /// # Panics
    ///
    /// Panics if `eligible.len()` differs from the VC count, or an eligible
    /// VC the rotation visits has no pending flit.
    pub fn choose(&mut self, eligible: &[bool]) -> Option<usize> {
        let n = self.vcs.len();
        assert_eq!(eligible.len(), n, "eligibility mask size mismatch");
        self.select(|from| {
            (from..n)
                .chain(0..from)
                .filter(move |&vc| eligible[vc])
                .inspect(|&vc| {
                    assert!(
                        self.vcs[vc].flits > 0,
                        "eligible VC must have a queued flit"
                    );
                })
        })
    }

    /// The selection rule shared by [`MuxScheduler::choose_from`] and
    /// [`MuxScheduler::choose`]. `rotated(from)` yields the eligible VCs
    /// in rotation order starting at VC `from` (wrapping past the last
    /// VC; `from == vc_count` starts at VC 0).
    fn select<I>(&self, rotated: impl Fn(usize) -> I) -> Option<usize>
    where
        I: Iterator<Item = usize>,
    {
        let after = self.rr_cursor + 1;
        match self.kind {
            SchedulerKind::VirtualClock
            | SchedulerKind::Fifo
            | SchedulerKind::Wfq
            | SchedulerKind::Scfq => {
                // Scan from the VC after the last one served so that exact
                // stamp ties rotate across VCs instead of pinning to the
                // lowest index (which starves high-index VCs under
                // saturation). Strict < keeps the first VC in scan order on
                // a tie, so the result is still fully deterministic.
                let best = rotated(after).fold(None, |best: Option<(f64, usize)>, vc| {
                    let state = &self.vcs[vc];
                    let stamp = state.head_stamp;
                    debug_assert_eq!(
                        stamp.to_bits(),
                        state.runs.front().unwrap().next.to_bits(),
                        "memoized head stamp must track the queue front"
                    );
                    if best.is_none_or(|(s, _)| stamp < s) {
                        Some((stamp, vc))
                    } else {
                        best
                    }
                });
                best.map(|(_, vc)| vc)
            }
            SchedulerKind::RoundRobin => rotated(after).next(),
            // Phase 1: the quantum holder (scan from the cursor itself,
            // not past it) keeps sending while its deficit covers a flit,
            // then the remaining credit-holders in rotation order.
            // Phase 2: every eligible VC has exhausted its deficit — open
            // a new round at the next VC in rotation. The refill itself
            // happens in `on_service`, keeping the choice pure (the
            // unmemoized oracle mirrors this scan exactly).
            SchedulerKind::Drr => rotated(self.rr_cursor)
                .find(|&vc| self.vcs[vc].deficit >= 1.0)
                .or_else(|| rotated(after).next()),
        }
    }

    /// Records that VC `vc`'s head flit was served.
    ///
    /// # Panics
    ///
    /// Panics if `vc` has no pending flit.
    pub fn on_service(&mut self, vc: usize) {
        let served = {
            let state = &mut self.vcs[vc];
            let front = state
                .runs
                .front_mut()
                .expect("serviced VC must have had a queued flit");
            let served = front.next;
            if front.left > 1 {
                front.left -= 1;
                front.next = advance(front.next, front.step);
                state.head_stamp = front.next;
            } else {
                state.runs.pop_front();
                if let Some(next) = state.runs.front() {
                    state.head_stamp = next.next;
                }
            }
            state.flits -= 1;
            served
        };
        match self.kind {
            SchedulerKind::Scfq => {
                // The served flit's tag becomes the virtual time base for
                // subsequent arrivals.
                self.v_served = served;
            }
            SchedulerKind::Drr => {
                // A grant below one flit of deficit means `choose` opened
                // a new round: top up the backlogged VCs (including the
                // one just served) and clear idle VCs so they cannot
                // hoard credit across idle periods. Capping at two quanta
                // bounds the burst a VC blocked mid-round can later send.
                if self.vcs[vc].deficit < 1.0 {
                    for (i, s) in self.vcs.iter_mut().enumerate() {
                        if i == vc || s.flits > 0 {
                            s.deficit = (s.deficit + DRR_QUANTUM).min(2.0 * DRR_QUANTUM);
                        } else {
                            s.deficit = 0.0;
                        }
                    }
                }
                self.vcs[vc].deficit -= 1.0;
            }
            _ => {}
        }
        self.rr_cursor = vc;
    }

    /// Pending flits registered for VC `vc` (restore and tests check it
    /// against the queue the multiplexer serves).
    pub fn pending(&self, vc: usize) -> usize {
        self.vcs[vc].flits
    }

    /// Serialises the mutable scheduler state (stamp runs, clocks,
    /// cursor) into a snapshot. The discipline and VC count are
    /// configuration and are written only as a consistency check.
    pub fn save(&self, w: &mut SnapWriter) {
        w.u8(kind_tag(self.kind));
        w.usize(self.vcs.len());
        w.usize(self.rr_cursor);
        // Discipline-global registers, written unconditionally (they are
        // zero for disciplines that don't use them) to keep the format
        // uniform across kinds.
        w.f64(self.v_time);
        w.u64(self.v_cycle);
        w.f64(self.v_served);
        for vc in &self.vcs {
            w.usize(vc.runs.len());
            for run in &vc.runs {
                w.f64(run.next);
                w.f64(run.step);
                w.u32(run.left);
            }
            w.f64(vc.aux_vc);
            w.f64(vc.deficit);
            w.f64(vc.vtick);
            w.option(vc.stream, |w, s| w.u32(s.0));
        }
    }

    /// Restores state saved by [`MuxScheduler::save`] into this
    /// freshly-constructed scheduler.
    ///
    /// # Errors
    ///
    /// Propagates decoding errors; rejects a snapshot whose discipline or
    /// VC count disagrees with this scheduler's configuration, whose
    /// service cursor is not one of its VCs, or that holds a run of no
    /// flits.
    pub fn load_into(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        if r.u8()? != kind_tag(self.kind) {
            return Err(SnapError::BadValue("scheduler kind mismatch"));
        }
        if r.usize()? != self.vcs.len() {
            return Err(SnapError::BadValue("scheduler VC count mismatch"));
        }
        self.rr_cursor = r.usize()?;
        if self.rr_cursor >= self.vcs.len() {
            return Err(SnapError::BadValue("scheduler cursor out of range"));
        }
        self.v_time = r.f64()?;
        self.v_cycle = r.u64()?;
        self.v_served = r.f64()?;
        for vc in &mut self.vcs {
            let n = r.usize()?;
            vc.runs.clear();
            vc.flits = 0;
            for _ in 0..n {
                let run = Run {
                    next: r.f64()?,
                    step: r.f64()?,
                    left: r.u32()?,
                };
                if run.left == 0 {
                    return Err(SnapError::BadValue("scheduler run of no flits"));
                }
                vc.flits += run.left as usize;
                vc.runs.push_back(run);
            }
            vc.head_stamp = vc.runs.front().map_or(0.0, |run| run.next);
            vc.aux_vc = r.f64()?;
            vc.deficit = r.f64()?;
            vc.vtick = r.f64()?;
            vc.stream = r.option(|r| r.u32().map(StreamId))?;
        }
        Ok(())
    }
}

/// Snapshot tag for a discipline (stable across versions; never reuse).
fn kind_tag(kind: SchedulerKind) -> u8 {
    match kind {
        SchedulerKind::VirtualClock => 0,
        SchedulerKind::Fifo => 1,
        SchedulerKind::RoundRobin => 2,
        SchedulerKind::Wfq => 3,
        SchedulerKind::Drr => 4,
        SchedulerKind::Scfq => 5,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flitnet::{FlitKind, FrameId, MsgId, NodeId, StreamId, TrafficClass, VcId};
    use proptest::prelude::*;

    /// A flit in the role `kind`, at the position in a 4-flit message
    /// (1-flit for `HeadTail`) that has that role.
    fn flit(kind: FlitKind, vtick: f64) -> Flit {
        let (seq_in_msg, msg_len) = match kind {
            FlitKind::Head => (0, 4),
            FlitKind::Body => (1, 4),
            FlitKind::Tail => (3, 4),
            FlitKind::HeadTail => (0, 1),
        };
        Flit {
            stream: StreamId(0),
            msg: MsgId(0),
            frame: FrameId(0),
            seq_in_msg,
            msg_len,
            msgs_in_frame: 1,
            dest: NodeId(0),
            vc: VcId(0),
            out_vc: VcId(0),
            vtick,
            class: TrafficClass::Vbr,
            created_at: Cycles(0),
        }
    }

    const ALL_KINDS: [SchedulerKind; 6] = [
        SchedulerKind::VirtualClock,
        SchedulerKind::Fifo,
        SchedulerKind::RoundRobin,
        SchedulerKind::Wfq,
        SchedulerKind::Drr,
        SchedulerKind::Scfq,
    ];

    #[test]
    fn virtual_clock_prefers_higher_rate() {
        let mut s = MuxScheduler::new(SchedulerKind::VirtualClock, 2);
        s.on_arrival(0, Cycles(0), &flit(FlitKind::Head, 100.0)); // stamp 100
        s.on_arrival(1, Cycles(0), &flit(FlitKind::Head, 10.0)); // stamp 10
        assert_eq!(s.choose(&[true, true]), Some(1));
        s.on_service(1);
        assert_eq!(s.choose(&[true, false]), Some(0));
    }

    #[test]
    fn virtual_clock_shares_proportionally() {
        // Two streams with 1:3 rate ratio should be served ~1:3.
        let mut s = MuxScheduler::new(SchedulerKind::VirtualClock, 2);
        // Pre-load 400 flits on each VC (burst arrival at t=0).
        let h0 = flit(FlitKind::Head, 40.0); // slow stream
        let h1 = flit(FlitKind::Head, 13.3); // ~3x faster
        s.on_arrival(0, Cycles(0), &h0);
        s.on_arrival(1, Cycles(0), &h1);
        for _ in 0..399 {
            s.on_arrival(0, Cycles(0), &flit(FlitKind::Body, 40.0));
            s.on_arrival(1, Cycles(0), &flit(FlitKind::Body, 13.3));
        }
        let mut served = [0u32; 2];
        for _ in 0..400 {
            let vc = s.choose(&[true, true]).unwrap();
            served[vc] += 1;
            s.on_service(vc);
        }
        let ratio = f64::from(served[1]) / f64::from(served[0]);
        assert!(
            (2.5..3.5).contains(&ratio),
            "ratio {ratio}, served {served:?}"
        );
    }

    #[test]
    fn virtual_clock_resets_stale_clock_to_now() {
        let mut s = MuxScheduler::new(SchedulerKind::VirtualClock, 1);
        s.on_arrival(0, Cycles(0), &flit(FlitKind::Head, 10.0));
        let vc = s.choose(&[true]).unwrap();
        s.on_service(vc);
        // Long idle gap: auxVC (10) is far behind the clock; the next
        // arrival must stamp relative to `now`, not the stale register.
        s.on_arrival(0, Cycles(1_000), &flit(FlitKind::Head, 10.0));
        // Internal stamp = max(1000, 10) + 10 = 1010. Verify by comparing
        // against a fresh fast arrival on another scheduler — here we just
        // check it serves (work conservation) and doesn't panic.
        assert_eq!(s.choose(&[true]), Some(0));
    }

    #[test]
    fn fifo_serves_in_arrival_order_across_vcs() {
        let mut s = MuxScheduler::new(SchedulerKind::Fifo, 3);
        s.on_arrival(2, Cycles(5), &flit(FlitKind::Head, 1.0));
        s.on_arrival(0, Cycles(7), &flit(FlitKind::Head, 1.0));
        s.on_arrival(1, Cycles(6), &flit(FlitKind::Head, 1.0));
        let order: Vec<usize> = (0..3)
            .map(|_| {
                let eligible: Vec<bool> = (0..3).map(|v| s.pending(v) > 0).collect();
                let vc = s.choose(&eligible).unwrap();
                s.on_service(vc);
                vc
            })
            .collect();
        assert_eq!(order, vec![2, 1, 0]);
    }

    #[test]
    fn fifo_ignores_vtick() {
        let mut s = MuxScheduler::new(SchedulerKind::Fifo, 2);
        s.on_arrival(0, Cycles(1), &flit(FlitKind::Head, 1e9)); // "slow" stream first
        s.on_arrival(1, Cycles(2), &flit(FlitKind::Head, 1.0));
        assert_eq!(s.choose(&[true, true]), Some(0));
    }

    #[test]
    fn round_robin_rotates() {
        let mut s = MuxScheduler::new(SchedulerKind::RoundRobin, 3);
        for vc in 0..3 {
            for _ in 0..2 {
                s.on_arrival(vc, Cycles(0), &flit(FlitKind::Body, 1.0));
            }
        }
        let mut order = Vec::new();
        for _ in 0..6 {
            let vc = s.choose(&[true, true, true]).unwrap();
            s.on_service(vc);
            order.push(vc);
        }
        assert_eq!(order, vec![1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn round_robin_skips_ineligible() {
        let mut s = MuxScheduler::new(SchedulerKind::RoundRobin, 3);
        s.on_arrival(0, Cycles(0), &flit(FlitKind::Body, 1.0));
        s.on_arrival(2, Cycles(0), &flit(FlitKind::Body, 1.0));
        assert_eq!(s.choose(&[true, false, true]), Some(2));
    }

    #[test]
    fn choose_returns_none_when_nothing_eligible() {
        let mut s = MuxScheduler::new(SchedulerKind::VirtualClock, 2);
        assert_eq!(s.choose(&[false, false]), None);
    }

    #[test]
    fn best_effort_always_loses_to_real_time() {
        let mut s = MuxScheduler::new(SchedulerKind::VirtualClock, 2);
        // Best-effort arrives FIRST, real-time second.
        s.on_arrival(
            0,
            Cycles(0),
            &flit(FlitKind::Head, flitnet::BEST_EFFORT_VTICK),
        );
        s.on_arrival(1, Cycles(10), &flit(FlitKind::Head, 100.0));
        assert_eq!(s.choose(&[true, true]), Some(1));
    }

    #[test]
    fn best_effort_is_fifo_among_itself() {
        let mut s = MuxScheduler::new(SchedulerKind::VirtualClock, 2);
        s.on_arrival(
            1,
            Cycles(0),
            &flit(FlitKind::Head, flitnet::BEST_EFFORT_VTICK),
        );
        s.on_arrival(
            0,
            Cycles(5),
            &flit(FlitKind::Head, flitnet::BEST_EFFORT_VTICK),
        );
        // VC 1 arrived first → lower accumulated stamp.
        assert_eq!(s.choose(&[true, true]), Some(1));
    }

    #[test]
    fn vtick_tracks_current_message() {
        let mut s = MuxScheduler::new(SchedulerKind::VirtualClock, 1);
        // Message 1: fast. Its body flits inherit the head's vtick.
        s.on_arrival(0, Cycles(0), &flit(FlitKind::Head, 10.0));
        s.on_arrival(0, Cycles(0), &flit(FlitKind::Tail, 10.0));
        // Message 2 on the same VC: slow.
        s.on_arrival(0, Cycles(0), &flit(FlitKind::Head, 1000.0));
        assert_eq!(s.pending(0), 3);
        for _ in 0..3 {
            let vc = s.choose(&[true]).unwrap();
            s.on_service(vc);
        }
        assert_eq!(s.pending(0), 0);
    }

    #[test]
    fn equal_stamps_share_service_across_vcs() {
        // Regression: equal stamps used to always pick the lowest VC
        // index, starving high-index VCs under saturation. Ties now
        // rotate (deterministically) via the service cursor.
        let mut s = MuxScheduler::new(SchedulerKind::Fifo, 4);
        for vc in 0..4 {
            for _ in 0..100 {
                // All flits arrive on the same cycle → all stamps equal.
                s.on_arrival(vc, Cycles(0), &flit(FlitKind::Body, 1.0));
            }
        }
        let mut served = [0u32; 4];
        for _ in 0..200 {
            let vc = s.choose(&[true, true, true, true]).unwrap();
            served[vc] += 1;
            s.on_service(vc);
        }
        assert_eq!(served, [50, 50, 50, 50], "equal-stamp VCs must share");
    }

    #[test]
    fn aux_vc_resets_when_vc_recycled_to_new_stream() {
        let mut s = MuxScheduler::new(SchedulerKind::VirtualClock, 2);
        // Stream A: slow (Vtick 1000) uses VC 0 and finishes.
        let mut a = flit(FlitKind::HeadTail, 1000.0);
        a.stream = StreamId(1);
        s.on_arrival(0, Cycles(0), &a); // auxVC(0) = 1000
        let vc = s.choose(&[true, false]).unwrap();
        s.on_service(vc);
        // VC 0 is recycled to stream B (Vtick 10) at cycle 100 while a
        // fresh stream C (Vtick 50) starts on VC 1 at the same cycle.
        let mut b = flit(FlitKind::Head, 10.0);
        b.stream = StreamId(2);
        s.on_arrival(0, Cycles(100), &b); // reset → stamp 100 + 10 = 110
        let mut c = flit(FlitKind::Head, 50.0);
        c.stream = StreamId(3);
        s.on_arrival(1, Cycles(100), &c); // stamp 100 + 50 = 150
                                          // Without the reset B would inherit A's clock (stamp 1010) and
                                          // lose to C despite being the faster stream on a clean VC.
        assert_eq!(s.choose(&[true, true]), Some(0));
    }

    #[test]
    fn aux_vc_accumulates_within_one_stream() {
        let mut s = MuxScheduler::new(SchedulerKind::VirtualClock, 2);
        // Two back-to-back messages of the SAME stream on VC 0: the
        // second head must keep the connection clock (no reset).
        let mut a1 = flit(FlitKind::HeadTail, 100.0);
        a1.stream = StreamId(1);
        s.on_arrival(0, Cycles(0), &a1); // auxVC = 100
        let mut a2 = flit(FlitKind::HeadTail, 100.0);
        a2.stream = StreamId(1);
        s.on_arrival(0, Cycles(0), &a2); // auxVC = 200 (accumulated)
        let mut b = flit(FlitKind::Head, 150.0);
        b.stream = StreamId(2);
        s.on_arrival(1, Cycles(0), &b); // stamp 150
        let first = s.choose(&[true, true]).unwrap();
        assert_eq!(first, 0, "a1 (stamp 100) goes first");
        s.on_service(first);
        // b (150) must beat a2 (200): the stream kept its clock.
        assert_eq!(s.choose(&[true, true]), Some(1));
    }

    /// Proportional-share conformance shared by the stamp-based fair
    /// queueing disciplines: two streams with a 1:3 rate ratio must be
    /// served ~1:3 (mirrors `virtual_clock_shares_proportionally`).
    fn assert_shares_proportionally(kind: SchedulerKind) {
        let mut s = MuxScheduler::new(kind, 2);
        let mut h0 = flit(FlitKind::Head, 40.0); // slow stream
        h0.stream = StreamId(1);
        let mut h1 = flit(FlitKind::Head, 13.3); // ~3x faster
        h1.stream = StreamId(2);
        s.on_arrival(0, Cycles(0), &h0);
        s.on_arrival(1, Cycles(0), &h1);
        for _ in 0..399 {
            s.on_arrival(0, Cycles(0), &flit(FlitKind::Body, 40.0));
            s.on_arrival(1, Cycles(0), &flit(FlitKind::Body, 13.3));
        }
        let mut served = [0u32; 2];
        for _ in 0..400 {
            let vc = s.choose(&[true, true]).unwrap();
            served[vc] += 1;
            s.on_service(vc);
        }
        let ratio = f64::from(served[1]) / f64::from(served[0]);
        assert!(
            (2.5..3.5).contains(&ratio),
            "{kind:?}: ratio {ratio}, served {served:?}"
        );
    }

    #[test]
    fn wfq_shares_proportionally() {
        assert_shares_proportionally(SchedulerKind::Wfq);
    }

    #[test]
    fn scfq_shares_proportionally() {
        assert_shares_proportionally(SchedulerKind::Scfq);
    }

    #[test]
    fn wfq_newcomer_joins_at_current_virtual_time() {
        // VC 0 builds a deep backlog at t=0 and is served alone for 500
        // cycles. A stream joining VC 1 at t=500 must be stamped at the
        // *virtual* time (which tracked VC 0's service tags), not at zero
        // (which would let it sweep the mux) and not purely at the wall
        // clock the way Virtual Clock does.
        let mut s = MuxScheduler::new(SchedulerKind::Wfq, 2);
        let mut h0 = flit(FlitKind::Head, 10.0);
        h0.stream = StreamId(1);
        s.on_arrival(0, Cycles(0), &h0);
        for _ in 0..999 {
            s.on_arrival(0, Cycles(0), &flit(FlitKind::Body, 10.0));
        }
        for _ in 0..500 {
            let vc = s.choose(&[true, false]).unwrap();
            s.on_service(vc);
        }
        let mut h1 = flit(FlitKind::Head, 10.0);
        h1.stream = StreamId(2);
        s.on_arrival(1, Cycles(500), &h1);
        for _ in 0..99 {
            s.on_arrival(1, Cycles(500), &flit(FlitKind::Body, 10.0));
        }
        let mut served = [0u32; 2];
        for _ in 0..100 {
            let vc = s.choose(&[true, true]).unwrap();
            served[vc] += 1;
            s.on_service(vc);
        }
        // Equal weights from here on → roughly half the service each.
        // (Under Virtual Clock the newcomer's wall-clock stamps of ~510
        // would beat VC 0's ~5010 backlog tags and take all 100 grants.)
        assert!(
            (40..=60).contains(&served[1]),
            "newcomer share {served:?} not ~50/100"
        );
    }

    #[test]
    fn drr_shares_equally_ignoring_rates() {
        // A 100:1 Vtick ratio is invisible to DRR: equal quanta mean
        // exactly equal long-run shares.
        let mut s = MuxScheduler::new(SchedulerKind::Drr, 2);
        s.on_arrival(0, Cycles(0), &flit(FlitKind::Head, 10.0));
        s.on_arrival(1, Cycles(0), &flit(FlitKind::Head, 1000.0));
        for _ in 0..399 {
            s.on_arrival(0, Cycles(0), &flit(FlitKind::Body, 10.0));
            s.on_arrival(1, Cycles(0), &flit(FlitKind::Body, 1000.0));
        }
        let mut served = [0u32; 2];
        for _ in 0..400 {
            let vc = s.choose(&[true, true]).unwrap();
            served[vc] += 1;
            s.on_service(vc);
        }
        assert_eq!(served, [200, 200], "DRR must ignore Vtick");
    }

    #[test]
    fn drr_serves_in_quantum_bursts() {
        let mut s = MuxScheduler::new(SchedulerKind::Drr, 2);
        for vc in 0..2 {
            for _ in 0..20 {
                s.on_arrival(vc, Cycles(0), &flit(FlitKind::Body, 1.0));
            }
        }
        let mut order = Vec::new();
        for _ in 0..12 {
            let vc = s.choose(&[true, true]).unwrap();
            s.on_service(vc);
            order.push(vc);
        }
        // New rounds open at the VC after the cursor; each backlogged VC
        // then drains one quantum (4 flits) before yielding.
        assert_eq!(order, vec![1, 1, 1, 1, 0, 0, 0, 0, 1, 1, 1, 1]);
    }

    #[test]
    fn drr_deficit_does_not_accumulate_across_idle() {
        let mut s = MuxScheduler::new(SchedulerKind::Drr, 2);
        // VC 1 is backlogged alone through several rounds; VC 0 is idle
        // and must NOT bank quanta for later.
        for _ in 0..20 {
            s.on_arrival(1, Cycles(0), &flit(FlitKind::Body, 1.0));
        }
        for _ in 0..12 {
            let vc = s.choose(&[false, true]).unwrap();
            assert_eq!(vc, 1);
            s.on_service(vc);
        }
        // VC 0 wakes up: it gets at most the capped burst (2 quanta),
        // not 3 rounds' worth of credit.
        for _ in 0..20 {
            s.on_arrival(0, Cycles(0), &flit(FlitKind::Body, 1.0));
        }
        let mut burst0 = 0;
        loop {
            let vc = s.choose(&[true, true]).unwrap();
            if vc != 0 {
                break;
            }
            burst0 += 1;
            s.on_service(vc);
            assert!(burst0 <= 2 * DRR_QUANTUM as u32, "idle VC hoarded credit");
        }
    }

    #[test]
    fn zoo_is_work_conserving() {
        // A lone eligible VC is always served immediately, whatever the
        // discipline and whatever its rate.
        for kind in ALL_KINDS {
            let mut s = MuxScheduler::new(kind, 4);
            let mut h = flit(FlitKind::Head, flitnet::BEST_EFFORT_VTICK);
            h.stream = StreamId(7);
            s.on_arrival(2, Cycles(123), &h);
            assert_eq!(
                s.choose(&[false, false, true, false]),
                Some(2),
                "{kind:?} must be work-conserving"
            );
        }
    }

    #[test]
    fn zoo_equal_stamps_rotate_across_vcs() {
        // Same-cycle, same-rate arrivals give byte-identical stamp
        // sequences on every VC; the tie rotation must share service
        // instead of pinning to the lowest index.
        for kind in [SchedulerKind::Wfq, SchedulerKind::Scfq] {
            let mut s = MuxScheduler::new(kind, 4);
            for vc in 0..4 {
                let mut h = flit(FlitKind::Head, 10.0);
                h.stream = StreamId(vc as u32);
                s.on_arrival(vc, Cycles(0), &h);
                for _ in 0..99 {
                    s.on_arrival(vc, Cycles(0), &flit(FlitKind::Body, 10.0));
                }
            }
            let mut served = [0u32; 4];
            for _ in 0..200 {
                let vc = s.choose(&[true, true, true, true]).unwrap();
                served[vc] += 1;
                s.on_service(vc);
            }
            assert_eq!(served, [50, 50, 50, 50], "{kind:?} ties must share");
        }
    }

    #[test]
    fn best_effort_backlog_saturates_stamps_and_still_rotates() {
        // Regression for the Virtual Clock register blow-up: a backlogged
        // best-effort VC adds BEST_EFFORT_VTICK (1e12) per flit to its
        // register, which used to grow without bound toward the f64
        // integer-precision cliff at 2^53. The register now saturates at
        // STAMP_SATURATION; stamps stay bounded and ordered, and the
        // post-saturation tie regime still shares service via rotation.
        let mut s = MuxScheduler::new(SchedulerKind::VirtualClock, 3);
        for vc in 0..2 {
            let mut h = flit(FlitKind::Head, flitnet::BEST_EFFORT_VTICK);
            h.stream = StreamId(vc as u32);
            s.on_arrival(vc, Cycles(0), &h);
            for _ in 0..1_999 {
                s.on_arrival(
                    vc,
                    Cycles(0),
                    &flit(FlitKind::Body, flitnet::BEST_EFFORT_VTICK),
                );
            }
        }
        for vc in 0..2 {
            let mut prev = f64::NEG_INFINITY;
            for stamp in s.stamps(vc) {
                assert!(stamp.is_finite(), "stamp must stay finite");
                assert!(
                    stamp <= STAMP_SATURATION,
                    "stamp {stamp:e} escaped the saturation ceiling"
                );
                assert!(prev <= stamp, "stamps must stay ordered");
                prev = stamp;
            }
        }
        // Saturated (tied) stamps share service through the cursor.
        let mut served = [0u32; 3];
        for _ in 0..1_000 {
            let vc = s.choose(&[true, true, false]).unwrap();
            served[vc] += 1;
            s.on_service(vc);
        }
        assert_eq!(served[..2], [500, 500], "saturated BE VCs must share");
        // A real-time stream arriving after saturation still wins: its
        // register resets to the wall clock, far below the BE plateau.
        let mut rt = flit(FlitKind::Head, 100.0);
        rt.stream = StreamId(99);
        s.on_arrival(2, Cycles(4_000), &rt);
        assert_eq!(s.choose(&[true, true, true]), Some(2));
    }

    #[test]
    #[should_panic(expected = "queued flit")]
    fn eligible_without_flit_panics() {
        let mut s = MuxScheduler::new(SchedulerKind::VirtualClock, 1);
        let _ = s.choose(&[true]);
    }

    /// `bytes`, a saved image, re-encoded with its payload bytes from
    /// `at` on overwritten by `patch` (re-encoding keeps the checksum
    /// valid).
    fn patched(bytes: &[u8], at: usize, patch: &[u8]) -> Vec<u8> {
        const HEADER_LEN: usize = 24;
        let mut payload = bytes[HEADER_LEN..].to_vec();
        payload[at..at + patch.len()].copy_from_slice(patch);
        let mut w = SnapWriter::new();
        for b in payload {
            w.u8(b);
        }
        w.finish()
    }

    #[test]
    fn restore_rejects_an_out_of_range_cursor() {
        let mut w = SnapWriter::new();
        MuxScheduler::new(SchedulerKind::RoundRobin, 3).save(&mut w);
        // The cursor follows the kind tag and the VC count.
        let bad = patched(&w.finish(), 9, &3u64.to_le_bytes());
        let mut r = SnapReader::new(&bad).unwrap();
        assert_eq!(
            MuxScheduler::new(SchedulerKind::RoundRobin, 3).load_into(&mut r),
            Err(SnapError::BadValue("scheduler cursor out of range"))
        );
    }

    /// A one-VC Virtual Clock scheduler holding one `len`-flit message of
    /// a Vtick-10 stream, queued whole at cycle 0.
    fn one_message(len: u32) -> MuxScheduler {
        let mut s = MuxScheduler::new(SchedulerKind::VirtualClock, 1);
        let mut head = flit(FlitKind::Head, 10.0);
        head.msg_len = len;
        for i in 0..len {
            s.on_arrival(0, Cycles(0), &head.nth(i));
        }
        s
    }

    #[test]
    fn a_queued_message_saves_as_one_run() {
        let s = one_message(1_000);
        assert_eq!(s.pending(0), 1_000);
        assert_eq!(s.vcs[0].runs.len(), 1);
        let mut w = SnapWriter::new();
        s.save(&mut w);
        let saved = w.finish().len() - SnapWriter::new().finish().len();
        assert!(saved < 100, "1000 queued flits saved as {saved} bytes");
    }

    #[test]
    fn restore_rejects_a_run_of_no_flits() {
        let mut w = SnapWriter::new();
        one_message(3).save(&mut w);
        // The run's `left` follows the six global fields (41 bytes), the
        // run count and the run's `next` and `step`.
        let bad = patched(&w.finish(), 41 + 8 + 16, &0u32.to_le_bytes());
        let mut r = SnapReader::new(&bad).unwrap();
        assert_eq!(
            MuxScheduler::new(SchedulerKind::VirtualClock, 1).load_into(&mut r),
            Err(SnapError::BadValue("scheduler run of no flits"))
        );
    }

    #[test]
    #[should_panic(expected = "queued flit")]
    fn listed_vc_without_flit_panics() {
        // Round-robin stops at the first listed VC; the check must still
        // cover every listed one.
        let mut s = MuxScheduler::new(SchedulerKind::RoundRobin, 3);
        s.on_arrival(1, Cycles(0), &flit(FlitKind::Body, 1.0));
        let _ = s.choose_from(&[1, 2]);
    }

    impl MuxScheduler {
        /// VC `vc`'s queued stamps, one per flit, expanded from its runs.
        fn stamps(&self, vc: usize) -> Vec<f64> {
            let mut out = Vec::new();
            for run in &self.vcs[vc].runs {
                let mut stamp = run.next;
                for _ in 0..run.left {
                    out.push(stamp);
                    stamp = advance(stamp, run.step);
                }
            }
            out
        }
    }

    /// The per-flit reference for the run queue: one stamp per queued
    /// flit in a `VecDeque`, with the stamping, pick and service rules
    /// written out plainly and every pick an unmemoized scan.
    struct Model {
        kind: SchedulerKind,
        stamps: Vec<VecDeque<f64>>,
        aux: Vec<f64>,
        vtick: Vec<f64>,
        stream: Vec<Option<StreamId>>,
        deficit: Vec<f64>,
        cursor: usize,
        v_time: f64,
        v_cycle: u64,
        v_served: f64,
    }

    impl Model {
        fn new(kind: SchedulerKind, n: usize) -> Model {
            Model {
                kind,
                stamps: vec![VecDeque::new(); n],
                aux: vec![0.0; n],
                vtick: vec![0.0; n],
                stream: vec![None; n],
                deficit: vec![0.0; n],
                cursor: 0,
                v_time: 0.0,
                v_cycle: 0,
                v_served: 0.0,
            }
        }

        fn arrive(&mut self, vc: usize, now: u64, f: &Flit) {
            let n = self.stamps.len();
            if self.kind == SchedulerKind::Wfq && now > self.v_cycle {
                let dt = (now - self.v_cycle) as f64;
                self.v_cycle = now;
                let weight: f64 = (0..n)
                    .filter(|&v| !self.stamps[v].is_empty())
                    .map(|v| 1.0 / self.vtick[v])
                    .sum();
                self.v_time = if weight > 0.0 {
                    (self.v_time + dt / weight).min(STAMP_SATURATION)
                } else {
                    self.v_time.max(now as f64).min(STAMP_SATURATION)
                };
            }
            if f.is_head() {
                self.vtick[vc] = f.vtick;
                if self.stream[vc] != Some(f.stream) {
                    self.aux[vc] = 0.0;
                    self.stream[vc] = Some(f.stream);
                }
            }
            let base = match self.kind {
                SchedulerKind::VirtualClock => now as f64,
                SchedulerKind::Wfq => self.v_time,
                SchedulerKind::Scfq => self.v_served,
                SchedulerKind::Fifo => return self.stamps[vc].push_back(now as f64),
                SchedulerKind::RoundRobin | SchedulerKind::Drr => {
                    return self.stamps[vc].push_back(0.0)
                }
            };
            self.aux[vc] = (self.aux[vc].max(base) + self.vtick[vc]).min(STAMP_SATURATION);
            self.stamps[vc].push_back(self.aux[vc]);
        }

        fn pick(&self, eligible: &[bool]) -> Option<usize> {
            let n = self.stamps.len();
            // Eligible VCs in rotation order, starting `from` past the
            // cursor.
            let rotated = |from: usize| {
                (from..from + n)
                    .map(move |off| (self.cursor + off) % n)
                    .filter(|&vc| eligible[vc])
            };
            match self.kind {
                SchedulerKind::VirtualClock
                | SchedulerKind::Fifo
                | SchedulerKind::Wfq
                | SchedulerKind::Scfq => {
                    let mut best: Option<(f64, usize)> = None;
                    for vc in rotated(1) {
                        let stamp = self.stamps[vc][0];
                        if best.is_none_or(|(s, _)| stamp < s) {
                            best = Some((stamp, vc));
                        }
                    }
                    best.map(|(_, vc)| vc)
                }
                SchedulerKind::RoundRobin => rotated(1).next(),
                SchedulerKind::Drr => rotated(0)
                    .find(|&vc| self.deficit[vc] >= 1.0)
                    .or_else(|| rotated(1).next()),
            }
        }

        fn serve(&mut self, vc: usize) {
            let served = self.stamps[vc].pop_front().expect("a queued flit");
            match self.kind {
                SchedulerKind::Scfq => self.v_served = served,
                SchedulerKind::Drr => {
                    if self.deficit[vc] < 1.0 {
                        for i in 0..self.stamps.len() {
                            self.deficit[i] = if i == vc || !self.stamps[i].is_empty() {
                                (self.deficit[i] + DRR_QUANTUM).min(2.0 * DRR_QUANTUM)
                            } else {
                                0.0
                            };
                        }
                    }
                    self.deficit[vc] -= 1.0;
                }
                _ => {}
            }
            self.cursor = vc;
        }

        /// Picks among `eligible` on both the model and `s` (by mask and
        /// by list), serves the pick on both, and checks that they agree
        /// on it and on every VC's pending count and head stamp after.
        fn step_with(&mut self, s: &mut MuxScheduler, eligible: &[bool]) -> Option<usize> {
            let list: Vec<usize> = (0..eligible.len()).filter(|&v| eligible[v]).collect();
            let expect = self.pick(eligible);
            assert_eq!(s.choose(eligible), expect, "{:?} mask pick", self.kind);
            assert_eq!(s.choose_from(&list), expect, "{:?} list pick", self.kind);
            if let Some(vc) = expect {
                self.serve(vc);
                s.on_service(vc);
            }
            self.assert_matches(s);
            expect
        }

        fn assert_matches(&self, s: &MuxScheduler) {
            for (vc, q) in self.stamps.iter().enumerate() {
                assert_eq!(s.pending(vc), q.len(), "{:?} VC {vc} pending", self.kind);
                if let Some(head) = q.front() {
                    let run = s.vcs[vc].runs.front().expect("a queued run");
                    assert_eq!(
                        run.next.to_bits(),
                        head.to_bits(),
                        "{:?} VC {vc} head",
                        self.kind
                    );
                    assert_eq!(s.vcs[vc].head_stamp.to_bits(), head.to_bits());
                }
            }
        }
    }

    #[test]
    fn memoized_choice_sequence_matches_unmemoized_scan() {
        // Drive one scheduler through a long pseudo-random arrival/service
        // trace of single flits (heads and bodies of any stream, in any
        // order) and check every choice against the per-flit model.
        // No external RNG: a tiny inline xorshift keeps this in-crate.
        let mut rng: u64 = 0x9e37_79b9_97f4_a7c5;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for kind in ALL_KINDS {
            let n = 8;
            let mut s = MuxScheduler::new(kind, n);
            let mut model = Model::new(kind, n);
            let mut choices = 0;
            for cycle in 0..5_000u64 {
                // A burst of arrivals with varied vticks (stamp ties and
                // same-cycle arrivals included, on purpose).
                for _ in 0..(next() % 3) {
                    let vc = (next() % n as u64) as usize;
                    let vtick = [10.0, 13.3, 40.0, 100.0][(next() % 4) as usize];
                    let kind = if next() % 4 == 0 {
                        FlitKind::Head
                    } else {
                        FlitKind::Body
                    };
                    let mut f = flit(kind, vtick);
                    f.stream = StreamId((next() % 3) as u32);
                    s.on_arrival(vc, Cycles(cycle), &f);
                    model.arrive(vc, cycle, &f);
                }
                // Random eligibility over the backlogged VCs.
                let eligible: Vec<bool> = (0..n)
                    .map(|v| s.pending(v) > 0 && next() % 4 != 0)
                    .collect();
                choices += usize::from(model.step_with(&mut s, &eligible).is_some());
            }
            assert!(choices > 2_000, "{kind:?} trace must stay busy");
        }
    }

    /// Per-VC Vticks for [`run_queue_matches_the_per_flit_model`]: the
    /// best-effort one drives stamps to [`STAMP_SATURATION`] within about
    /// a thousand flits.
    const VTICKS: [f64; 5] = [flitnet::BEST_EFFORT_VTICK, 10.0, 13.3, 40.0, 0.0];

    /// Asserts that two schedulers hold the same state: every saved
    /// register and run, and every VC's memoized head stamp, bit for bit.
    fn assert_same_state(a: &MuxScheduler, b: &MuxScheduler) {
        let save = |s: &MuxScheduler| {
            let mut w = SnapWriter::new();
            s.save(&mut w);
            w.finish()
        };
        assert_eq!(save(a), save(b), "{:?} saved state", a.kind);
        for (vc, (x, y)) in a.vcs.iter().zip(&b.vcs).enumerate() {
            assert_eq!(x.flits, y.flits, "{:?} VC {vc} flits", a.kind);
            assert_eq!(
                x.head_stamp.to_bits(),
                y.head_stamp.to_bits(),
                "{:?} VC {vc} head stamp",
                a.kind
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// Whole messages on random VCs, streams and Vticks, queued at
        /// cycles that never decrease and interleaved with picks and
        /// services: every discipline's run queue makes the model's picks
        /// and keeps its pending counts and head-stamp bits. Each VC
        /// mostly carries one stream at one Vtick, so best-effort backlogs
        /// grow long enough to saturate. One message in 32 switches stream
        /// (a recycled VC) and one in 16 switches Vtick (a demoted message).
        #[test]
        fn run_queue_matches_the_per_flit_model(
            vc_vticks in collection::vec(0usize..5, 3),
            ops in collection::vec((0u64..40, 0usize..3, 0u64..64, 1u32..64), 100..300),
        ) {
            for kind in ALL_KINDS {
                let mut s = MuxScheduler::new(kind, 3);
                let mut model = Model::new(kind, 3);
                let mut now = 0u64;
                for &(gap, vc, choice, len) in &ops {
                    now += gap;
                    if choice % 4 != 0 {
                        let odd = choice % 32 == 1;
                        let mut head = flit(FlitKind::Head, VTICKS[vc_vticks[vc]]);
                        head.msg_len = len;
                        head.stream = StreamId(vc as u32 + if odd { 3 } else { 0 });
                        if choice % 16 == 5 {
                            head.vtick = VTICKS[(choice / 16) as usize % VTICKS.len()];
                        }
                        for i in 0..len {
                            let f = head.nth(i);
                            s.on_arrival(vc, Cycles(now), &f);
                            model.arrive(vc, now, &f);
                        }
                        model.assert_matches(&s);
                    }
                    for i in 0..(len % 7) as usize {
                        let eligible: Vec<bool> = (0..3)
                            .map(|v| s.pending(v) > 0 && (choice as usize + i) % 4 != v)
                            .collect();
                        model.step_with(&mut s, &eligible);
                    }
                }
            }
        }

        /// One [`MuxScheduler::on_message_arrival`] per message leaves
        /// every discipline in the state `msg_len` calls of
        /// [`MuxScheduler::on_arrival`] with the message's flits do: the
        /// same runs, `aux_vc`, head stamps and WFQ virtual time, bit for
        /// bit, with picks and services in between. Messages arrive on
        /// random VCs at cycles that never decrease, from five streams
        /// (so VCs are recycled) at the Vticks of [`VTICKS`]; one in
        /// eight first fills its VC's tail run to within half a message
        /// of `u32::MAX` flits, so the message splits across the cap.
        #[test]
        fn message_arrival_matches_per_flit_arrivals(
            ops in collection::vec((0u64..40, 0usize..3, 0u64..64, 1u32..64), 1..120),
        ) {
            for kind in ALL_KINDS {
                let mut whole = MuxScheduler::new(kind, 3);
                let mut per_flit = MuxScheduler::new(kind, 3);
                let mut now = 0u64;
                for &(gap, vc, choice, len) in &ops {
                    now += gap;
                    let mut head = flit(FlitKind::Head, VTICKS[choice as usize % VTICKS.len()]);
                    head.msg_len = len;
                    head.stream = StreamId((choice % 5) as u32);
                    let head = head.nth(0);
                    if choice % 8 == 3 {
                        let full = u32::MAX - len / 2;
                        for s in [&mut whole, &mut per_flit] {
                            let state = &mut s.vcs[vc];
                            if let Some(tail) = state.runs.back_mut().filter(|t| t.left < full) {
                                state.flits += (full - tail.left) as usize;
                                tail.left = full;
                            }
                        }
                    }
                    whole.on_message_arrival(vc, Cycles(now), &head);
                    for i in 0..len {
                        per_flit.on_arrival(vc, Cycles(now), &head.nth(i));
                    }
                    assert_same_state(&whole, &per_flit);
                    for i in 0..(choice % 5) as usize {
                        let list: Vec<usize> =
                            (0..3).filter(|&v| whole.pending(v) > 0 && (v + i) % 3 != 0).collect();
                        let pick = whole.choose_from(&list);
                        prop_assert_eq!(pick, per_flit.choose_from(&list));
                        if let Some(v) = pick {
                            whole.on_service(v);
                            per_flit.on_service(v);
                        }
                    }
                    assert_same_state(&whole, &per_flit);
                }
            }
        }
    }
}
