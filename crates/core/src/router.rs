//! The pipelined MediaWorm router model.
//!
//! One [`Router`] models the paper's five-stage PROUD pipeline (Fig. 1):
//!
//! 1. **Sync / demux / buffer / decode** — arriving flits land in the
//!    per-VC input buffer (one cycle before becoming schedulable).
//! 2. **Routing decision** and
//! 3. **arbitration** — a head flit at the front of its VC spends two
//!    cycles computing its route and competing for its output VC, which a
//!    message holds from head to tail (the paper's message-granularity
//!    output arbitration, §3.3). Middle and tail flits bypass these
//!    stages.
//! 4. **Crossbar** — flits move to the output staging buffers. On a
//!    multiplexed crossbar each input port's multiplexer picks one flit
//!    per cycle among its granted VCs — the paper's contention point "A",
//!    where MediaWorm applies Virtual Clock. Output-side arbitration
//!    already happened at message granularity in stage 3 (output-VC
//!    ownership), so staging buffers absorb concurrent arrivals on
//!    different VCs. A full crossbar moves every granted VC's flit
//!    concurrently.
//! 5. **Output buffering / VC mux** — each output physical channel picks
//!    one staged flit per cycle (point "C"; the Virtual Clock point for
//!    full-crossbar routers) and transmits it, consuming a credit of the
//!    downstream input buffer.
//!
//! The router is pure state + decisions; moving flits across links and
//! returning credits is the [`crate::net::Network`]'s job.

use flitnet::{Flit, MsgId, PortId, RouterId, VcBuffer, VcId, VcPartition, VcSel};
use netsim::telemetry::{FlitEvent, FlitEventKind, JsonlSink};
use netsim::Cycles;

use crate::active::ActiveSet;
use crate::config::{CrossbarKind, RouterConfig, SchedPoint, SchedulerKind};
use crate::counters::{RouterCounters, OCCUPANCY_SAMPLE_PERIOD};
use crate::scheduler::MuxScheduler;

/// Cycles a head flit spends in stages 2–3 (routing + arbitration) before
/// it may try to win the crossbar.
pub const ROUTE_ARB_CYCLES: u64 = 2;

/// `blocked_at` value of a slot with no blocked-head record.
const NOT_BLOCKED: u64 = u64::MAX;

/// Index of a traffic class in [`OutputPort::free`]: best-effort 0,
/// real-time 1.
fn class_slot(real_time: bool) -> usize {
    usize::from(real_time)
}

/// A granted route for the message currently occupying an input VC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Grant {
    out_port: usize,
    out_vc: usize,
    /// Earliest cycle the head may traverse the crossbar.
    ready_at: Cycles,
}

/// Per-VC input unit: buffer + pipeline bookkeeping.
#[derive(Debug)]
struct InputVc {
    /// Buffered flits with their arrival cycle.
    buf: VcBuffer<(Cycles, Flit)>,
    grant: Option<Grant>,
    /// When the current head flit was first seen at the buffer front
    /// (starts the stage-2/3 latency).
    head_seen_at: Option<Cycles>,
}

#[derive(Debug)]
struct InputPort {
    vcs: Vec<InputVc>,
    /// Crossbar input multiplexer scheduler (point A).
    sched: MuxScheduler,
    /// VCs holding a grant: the connections the crossbar serves, joined at
    /// grant (arbitration) and left at release (tail crossing).
    granted: ActiveSet,
}

impl InputPort {
    /// [`InputPort::granted`] re-derived from the grants.
    fn granted_vcs(&self) -> ActiveSet {
        ActiveSet::from_fn(self.vcs.len(), |v| self.vcs[v].grant.is_some())
    }
}

/// Per-VC output unit: stage-5 staging buffer + downstream credits.
#[derive(Debug)]
struct OutputVc {
    /// Staged flits with their staging-arrival cycle.
    buf: VcBuffer<(Cycles, Flit)>,
    /// Credits for the downstream input VC buffer.
    credits: u32,
    /// Message currently allocated this output VC (held head → tail).
    owner: Option<MsgId>,
}

#[derive(Debug)]
struct OutputPort {
    vcs: Vec<OutputVc>,
    /// Output VC multiplexer scheduler (point C).
    sched: MuxScheduler,
    /// VCs with a non-empty staging buffer: the VCs the output
    /// multiplexer considers. Maintained at stage (crossbar push) and
    /// drain (stage-5 pop). Note the predicate is *non-empty
    /// staging buffer*, not VC ownership: an owner with nothing staged has
    /// nothing to transmit, and a tail handover clears the owner while the
    /// tail still sits staged.
    staged: ActiveSet,
    /// Unowned VCs per traffic class, indexed by [`class_slot`]: one down
    /// at a grant, one up at a tail release. Lets stage 3 reject a head
    /// whose class has no free VC here without scanning the VCs.
    /// Recomputed on restore, never serialized.
    free: [u32; 2],
}

impl OutputPort {
    /// [`OutputPort::staged`] re-derived from the staging buffers.
    fn staged_vcs(&self) -> ActiveSet {
        ActiveSet::from_fn(self.vcs.len(), |v| !self.vcs[v].buf.is_empty())
    }

    /// Recounts [`OutputPort::free`] from the VC owners.
    fn count_free(&self, partition: &VcPartition) -> [u32; 2] {
        let mut free = [0; 2];
        for (v, ovc) in self.vcs.iter().enumerate() {
            if ovc.owner.is_none() {
                free[class_slot(partition.class_of(VcId(v as u32)).is_real_time())] += 1;
            }
        }
        free
    }
}

/// A flit leaving the router this cycle on `port`.
#[derive(Debug, Clone, Copy)]
pub struct Departure {
    /// Output physical channel.
    pub port: PortId,
    /// The transmitted flit.
    pub flit: Flit,
}

/// A credit to return upstream: the input `(port, vc)` that freed a slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CreditReturn {
    /// Input physical channel whose buffer freed a slot.
    pub port: PortId,
    /// The VC within that channel.
    pub vc: VcId,
}

/// A MediaWorm router instance.
///
/// See the [module docs](self) for the pipeline model. Typical use is via
/// [`crate::net::Network`]; the router API is public for unit testing and
/// custom drivers.
#[derive(Debug)]
pub struct Router {
    id: RouterId,
    cfg: RouterConfig,
    /// Class split of each physical channel's VCs; output-VC allocation
    /// draws from the head flit's class partition.
    partition: VcPartition,
    inputs: Vec<InputPort>,
    outputs: Vec<OutputPort>,
    /// Rotating arbitration start point for fairness.
    arb_cursor: usize,
    /// Flat input-slot indices `port * vcs_per_pc + vc` with a buffered
    /// but unrouted head: the pending heads arbitration scans. Maintained
    /// at `receive_flit`, grant, and tail crossing.
    pending: ActiveSet,
    /// `(port, vc)` of each flat input slot, so the hot loops decode a
    /// slot index without a division.
    slot_of: Vec<(usize, usize)>,
    /// Output-VC releases so far (one per tail crossing).
    releases: u64,
    /// Per flat input slot: the value of `releases` when the slot's
    /// pending head last found every candidate output VC owned, or
    /// [`NOT_BLOCKED`]. Between releases ownership only grows, so
    /// `arbitrate` skips the head while the record is current. Reset when
    /// the slot joins `pending`; never serialized.
    blocked_at: Vec<u64>,
    /// Flits resident in the router (input buffers + output staging):
    /// makes `has_work` O(1).
    resident: u64,
    /// Reusable index scratch: the arbitration scan and full-crossbar
    /// moves (which mutate the active set they iterate), and the
    /// ascending eligible-VC lists handed to the multiplexers.
    scratch_idx: Vec<usize>,
    /// Total flits that traversed the crossbar (utilisation stats).
    flits_crossed: u64,
    /// Per-port/per-VC telemetry counters (always on: plain integer adds).
    counters: RouterCounters,
}

impl Router {
    /// Creates a router with `n_ports` physical channels whose VCs are
    /// split between traffic classes per `partition`.
    ///
    /// # Panics
    ///
    /// Panics if `n_ports == 0` or the partition does not cover exactly
    /// the configured VCs.
    pub fn new(id: RouterId, n_ports: usize, cfg: &RouterConfig, partition: VcPartition) -> Router {
        assert!(n_ports > 0, "a router needs at least one port");
        assert_eq!(
            partition.total(),
            cfg.vcs_per_pc(),
            "VC partition must cover exactly the configured VCs"
        );
        let m = cfg.vcs_per_pc() as usize;
        let point = cfg.effective_sched_point();
        let a_kind = if point == SchedPoint::CrossbarInput {
            cfg.scheduler_kind()
        } else {
            SchedulerKind::Fifo
        };
        let c_kind = if point == SchedPoint::VcMux {
            cfg.scheduler_kind()
        } else {
            SchedulerKind::Fifo
        };
        let inputs = (0..n_ports)
            .map(|_| InputPort {
                vcs: (0..m)
                    .map(|_| InputVc {
                        buf: VcBuffer::new(cfg.buf_flits_value() as usize),
                        grant: None,
                        head_seen_at: None,
                    })
                    .collect(),
                sched: MuxScheduler::new(a_kind, m),
                granted: ActiveSet::new(m),
            })
            .collect();
        let outputs = (0..n_ports)
            .map(|_| OutputPort {
                vcs: (0..m)
                    .map(|_| OutputVc {
                        buf: VcBuffer::new(cfg.out_buf_flits_value() as usize),
                        credits: 0,
                        owner: None,
                    })
                    .collect(),
                sched: MuxScheduler::new(c_kind, m),
                staged: ActiveSet::new(m),
                free: [partition.best_effort_count(), partition.real_time_count()],
            })
            .collect();
        Router {
            id,
            cfg: cfg.clone(),
            partition,
            inputs,
            outputs,
            arb_cursor: 0,
            pending: ActiveSet::new(n_ports * m),
            slot_of: (0..n_ports)
                .flat_map(|p| (0..m).map(move |v| (p, v)))
                .collect(),
            releases: 0,
            blocked_at: vec![NOT_BLOCKED; n_ports * m],
            resident: 0,
            scratch_idx: Vec::with_capacity(n_ports * m),
            flits_crossed: 0,
            counters: RouterCounters::new(n_ports, m),
        }
    }

    /// The router's telemetry counters.
    pub fn counters(&self) -> &RouterCounters {
        &self.counters
    }

    /// Router id.
    pub fn id(&self) -> RouterId {
        self.id
    }

    /// Number of physical channels.
    pub fn port_count(&self) -> usize {
        self.inputs.len()
    }

    /// Initialises the downstream credit count of output `(port, vc)` —
    /// the depth of the next hop's input buffer, or a large value for
    /// endpoint-attached ports (endpoints consume at link rate).
    pub fn init_credits(&mut self, port: PortId, vc: VcId, credits: u32) {
        self.outputs[port.index()].vcs[vc.index()].credits = credits;
    }

    /// Accepts a flit arriving on input `port` (stage 1). The flit joins
    /// the VC buffer selected by its `vc` field.
    ///
    /// # Panics
    ///
    /// Panics if the buffer overflows (credit protocol violation) or the
    /// VC index is out of range.
    pub fn receive_flit(&mut self, now: Cycles, port: PortId, flit: Flit) {
        let m = self.cfg.vcs_per_pc() as usize;
        let p = port.index();
        let ip = &mut self.inputs[p];
        let v = flit.vc.index();
        ip.vcs[v].buf.push((now, flit));
        ip.sched.on_arrival(v, now, &flit);
        self.resident += 1;
        // An ungranted slot with buffered flits is a pending head.
        let idx = p * m + v;
        if ip.vcs[v].grant.is_none() && self.pending.insert(idx) {
            self.blocked_at[idx] = NOT_BLOCKED;
        }
    }

    /// Accepts a returned credit for output `(port, vc)`.
    pub fn receive_credit(&mut self, port: PortId, vc: VcId) {
        self.outputs[port.index()].vcs[vc.index()].credits += 1;
    }

    /// Stage 2–3: routing + arbitration for every input VC whose head flit
    /// has finished its [`ROUTE_ARB_CYCLES`] and whose resources are free.
    ///
    /// `candidates(flit)` returns the deterministic route's output-port
    /// candidates (several only across parallel fat links) plus a
    /// [`VcSel`] dateline restriction; among the candidates with a free,
    /// `VcSel`-permitted VC the *least loaded* wins, per §3.4. The output
    /// VC is allocated dynamically from the head's class partition
    /// (preferring the stream's requested VC) and is owned by the message
    /// until its tail passes the crossbar — the paper's
    /// message-granularity output arbitration. On dateline-free
    /// topologies the restriction is [`VcSel::Any`] and changes nothing.
    ///
    /// Each successful grant records a `Route` event into `sink`, if one
    /// is given (`None` when the network is untraced).
    ///
    /// A head that found every candidate output VC owned is not visited
    /// again until some output VC is released: ownership only grows in
    /// between, so it would fail the same way. `candidates` must
    /// therefore be the same function of the flit on every call (the
    /// network passes its fixed routing table).
    pub fn arbitrate<'t, F>(&mut self, now: Cycles, candidates: F, mut sink: Option<&mut JsonlSink>)
    where
        F: Fn(&Flit) -> (&'t [PortId], VcSel),
    {
        let start = self.advance_arb_cursor();
        // Visit only pending heads that are not blocked, in the rotated
        // order the full scan uses: slots >= start first, then the
        // wrap-around. A scratch copy is scanned because granting removes
        // entries from `pending`.
        let mut scan = std::mem::take(&mut self.scratch_idx);
        scan.clear();
        let (releases, blocked_at) = (self.releases, &self.blocked_at);
        scan.extend(
            self.pending
                .iter_from(start)
                .filter(|&i| blocked_at[i] != releases),
        );
        for &idx in &scan {
            self.try_route_slot(idx, now, &candidates, sink.as_deref_mut());
        }
        self.scratch_idx = scan;
    }

    /// Returns this cycle's arbitration start slot and rotates the cursor.
    fn advance_arb_cursor(&mut self) -> usize {
        let start = self.arb_cursor;
        self.arb_cursor = if start + 1 == self.slot_of.len() {
            0
        } else {
            start + 1
        };
        start
    }

    /// [`Router::arbitrate`] as the original full scan over every input
    /// slot — the oracle the bit-identity tests compare the pending set
    /// and the blocked-head skip against. Both paths share
    /// [`Router::try_route_slot`] and maintain the active sets
    /// identically; this one retries blocked heads every cycle.
    pub fn arbitrate_reference<'t, F>(
        &mut self,
        now: Cycles,
        candidates: F,
        mut sink: Option<&mut JsonlSink>,
    ) where
        F: Fn(&Flit) -> (&'t [PortId], VcSel),
    {
        let total = self.slot_of.len();
        let start = self.advance_arb_cursor();
        for idx in (start..total).chain(0..start) {
            let (p, v) = self.slot_of[idx];
            let ivc = &mut self.inputs[p].vcs[v];
            if ivc.grant.is_some() {
                continue;
            }
            if ivc.buf.is_empty() {
                ivc.head_seen_at = None;
                continue;
            }
            debug_assert!(
                self.pending.contains(idx),
                "ungranted non-empty slot {idx} missing from the pending set"
            );
            self.try_route_slot(idx, now, &candidates, sink.as_deref_mut());
        }
    }

    /// Stage 2–3 body for the pending input slot with flat index `idx`:
    /// the slot holds buffered flits and no grant. Tries to route +
    /// arbitrate its head; on success the slot moves from the pending
    /// set to the port's granted set, and a head that
    /// finds no free output VC records the release count it failed at.
    fn try_route_slot<'t, F>(
        &mut self,
        idx: usize,
        now: Cycles,
        candidates: &F,
        sink: Option<&mut JsonlSink>,
    ) where
        F: Fn(&Flit) -> (&'t [PortId], VcSel),
    {
        let (p, v) = self.slot_of[idx];
        let ivc = &mut self.inputs[p].vcs[v];
        debug_assert!(ivc.grant.is_none(), "pending slot must be ungranted");
        let (arrived, head) = *ivc.buf.head().expect("pending slot has a buffered head");
        // Stage-1 latency: the head becomes visible to the routing
        // logic the cycle after it was buffered.
        if now < arrived + Cycles(1) {
            return;
        }
        if !head.is_head() {
            // A body flit with no grant can only mean the previous
            // tail released the VC out of order — a simulator bug.
            unreachable!("non-head flit at an unrouted input VC: port {p} vc {v} flit {head:?}");
        }
        let seen = *ivc.head_seen_at.get_or_insert(now);
        if now < seen.saturating_add(Cycles(ROUTE_ARB_CYCLES)) {
            return;
        }
        // Dynamic output-VC allocation: any free VC of the head's
        // class partition, preferring the stream's requested VC. With
        // VC borrowing enabled (§6 future work), a free VC of the
        // *other* class is taken as a last resort, so idle capacity
        // is never stranded by the static split. All three tiers honour
        // the hop's dateline restriction — including the borrowing
        // fallback, or a borrowed VC would re-open the wrap-link
        // dependency cycle the datelines exist to break.
        let borrowing = self.cfg.vc_borrowing_enabled();
        let (cands, sel) = candidates(&head);
        let own = class_slot(head.class.is_real_time());
        let free_vc = |op: &OutputPort| -> Option<usize> {
            // O(1) reject: no unowned VC in the head's class (nor, when
            // borrowing, in the other one) means every tier below fails.
            if op.free[own] == 0 && (!borrowing || op.free[1 - own] == 0) {
                return None;
            }
            let preferred = head.out_vc.index();
            if self.partition.class_of(head.out_vc).is_real_time() == head.class.is_real_time()
                && self.partition.sel_allows(sel, head.out_vc)
                && op.vcs[preferred].owner.is_none()
            {
                return Some(preferred);
            }
            let own = self
                .partition
                .vcs_for(head.class)
                .filter(|&vc| self.partition.sel_allows(sel, vc))
                .map(VcId::index)
                .find(|&vc| op.vcs[vc].owner.is_none());
            if own.is_some() || !borrowing {
                return own;
            }
            (0..op.vcs.len()).find(|&vc| {
                op.vcs[vc].owner.is_none() && self.partition.sel_allows(sel, VcId(vc as u32))
            })
        };
        // Pick the least-loaded candidate port with a free VC.
        let mut best: Option<(usize, usize, usize)> = None; // (load, port, vc)
        for cand in cands {
            let o = cand.index();
            let op = &self.outputs[o];
            let Some(vc) = free_vc(op) else {
                continue;
            };
            // Load proxy for the fat-link choice (§3.4): staged flits
            // plus a term per VC currently owned by an in-flight
            // message.
            let load: usize = op
                .vcs
                .iter()
                .map(|vc| vc.buf.len() + if vc.owner.is_some() { 4 } else { 0 })
                .sum();
            if best.is_none_or(|(l, _, _)| load < l) {
                best = Some((load, o, vc));
            }
        }
        let Some((_, o, out_vc)) = best else {
            self.blocked_at[idx] = self.releases;
            return;
        };
        self.inputs[p].vcs[v].grant = Some(Grant {
            out_port: o,
            out_vc,
            ready_at: now + Cycles(1),
        });
        self.inputs[p].vcs[v].head_seen_at = None;
        let class = class_slot(self.partition.class_of(VcId(out_vc as u32)).is_real_time());
        let op = &mut self.outputs[o];
        op.vcs[out_vc].owner = Some(head.msg);
        op.free[class] -= 1;
        // Routed: the slot leaves the pending heads and joins the port's
        // granted connections.
        let was_pending = self.pending.remove(idx);
        debug_assert!(was_pending);
        self.inputs[p].granted.insert(v);
        if let Some(sink) = sink {
            sink.record(&FlitEvent {
                cycle: now.get(),
                kind: FlitEventKind::Route,
                router: Some(self.id.get()),
                port: o as u32,
                vc: out_vc as u32,
                stream: head.stream.get(),
                msg: head.msg.get(),
                real_time: head.class.is_real_time(),
            });
        }
    }

    /// Whether input `(p, v)` may move its head flit through the crossbar
    /// at `now`.
    fn xbar_eligible(&self, p: usize, v: usize, now: Cycles) -> bool {
        let ivc = &self.inputs[p].vcs[v];
        let Some(grant) = ivc.grant else {
            return false;
        };
        let Some(&(arrived, head)) = ivc.buf.head() else {
            return false;
        };
        // Stage-1 latency: a flit becomes schedulable the cycle after it
        // was buffered.
        if now < arrived + Cycles(1) {
            return false;
        }
        if head.is_head() && now < grant.ready_at {
            return false;
        }
        !self.outputs[grant.out_port].vcs[grant.out_vc].buf.is_full()
    }

    /// Moves input `(p, v)`'s head flit through the crossbar.
    fn xbar_move(
        &mut self,
        p: usize,
        v: usize,
        now: Cycles,
        credits: &mut Vec<CreditReturn>,
        sink: Option<&mut JsonlSink>,
    ) {
        let grant = self.inputs[p].vcs[v]
            .grant
            .expect("eligible VC has a grant");
        let (_, mut flit) = self.inputs[p].vcs[v]
            .buf
            .pop()
            .expect("eligible VC has a flit");
        self.inputs[p].sched.on_service(v);
        credits.push(CreditReturn {
            port: PortId(p as u32),
            vc: VcId(v as u32),
        });
        // The flit now travels on the granted output VC.
        flit.vc = VcId(grant.out_vc as u32);
        let out = &mut self.outputs[grant.out_port];
        out.sched.on_arrival(grant.out_vc, now, &flit);
        out.vcs[grant.out_vc].buf.push((now, flit));
        out.staged.insert(grant.out_vc);
        self.flits_crossed += 1;
        if let Some(sink) = sink {
            sink.record(&FlitEvent {
                cycle: now.get(),
                kind: FlitEventKind::Arbitrate,
                router: Some(self.id.get()),
                port: p as u32,
                vc: v as u32,
                stream: flit.stream.get(),
                msg: flit.msg.get(),
                real_time: flit.class.is_real_time(),
            });
        }
        if flit.is_tail() {
            self.inputs[p].vcs[v].grant = None;
            // The output VC hands over at tail crossing: its staging
            // buffer is FIFO, so a successor message cannot overtake the
            // worm downstream.
            out.vcs[grant.out_vc].owner = None;
            out.free[class_slot(self.partition.class_of(flit.vc).is_real_time())] += 1;
            self.releases += 1;
            // The connection closes: the slot leaves the granted set, and
            // rejoins the pending heads if the next worm's head is already
            // buffered behind the tail.
            self.inputs[p].granted.remove(v);
            if !self.inputs[p].vcs[v].buf.is_empty() {
                let idx = p * self.cfg.vcs_per_pc() as usize + v;
                let joined = self.pending.insert(idx);
                debug_assert!(joined);
                self.blocked_at[idx] = NOT_BLOCKED;
            }
        }
    }

    /// Stage 4: crossbar traversal. Appends the credits to send upstream
    /// for the input-buffer slots freed this cycle to `credits` (an
    /// out-parameter so the per-cycle driver can reuse one buffer; the
    /// router never allocates here).
    ///
    /// Multiplexed crossbar: each input port's multiplexer (point A)
    /// picks one flit per cycle among its granted VCs. Crossbar output
    /// ports were arbitrated at message granularity back in stage 3
    /// (output-VC ownership), so there is no per-flit output conflict
    /// here: the stage-5 staging buffers absorb concurrent arrivals on
    /// different VCs and the VC multiplexer enforces the physical
    /// one-flit-per-cycle bound of the output channel.
    ///
    /// Full crossbar: every granted VC moves — each output VC has its own
    /// crossbar port.
    ///
    /// Each flit that crosses records an `Arbitrate` event into `sink`, if
    /// one is given. On a multiplexed crossbar, eligible VCs that
    /// lose their cycle are counted as mux conflicts; every
    /// [`OCCUPANCY_SAMPLE_PERIOD`] cycles the input-buffer occupancy is
    /// sampled into the counters.
    pub fn crossbar(
        &mut self,
        now: Cycles,
        credits: &mut Vec<CreditReturn>,
        sink: Option<&mut JsonlSink>,
    ) {
        self.crossbar_impl(now, credits, sink, false);
    }

    /// [`Router::crossbar`] with the original full `ports × VCs` scan —
    /// the oracle the bit-identity tests compare the granted sets
    /// against.
    pub fn crossbar_reference(
        &mut self,
        now: Cycles,
        credits: &mut Vec<CreditReturn>,
        sink: Option<&mut JsonlSink>,
    ) {
        self.crossbar_impl(now, credits, sink, true);
    }

    fn crossbar_impl(
        &mut self,
        now: Cycles,
        credits: &mut Vec<CreditReturn>,
        mut sink: Option<&mut JsonlSink>,
        reference: bool,
    ) {
        let n = self.inputs.len();
        let m = self.cfg.vcs_per_pc() as usize;
        if now.get().is_multiple_of(OCCUPANCY_SAMPLE_PERIOD) {
            // Occupancy is a busy-cycle statistic: the drivers only run
            // the crossbar on routers with resident flits, so quiescent
            // spans (stepped or horizon-skipped alike) contribute no
            // samples. If a driver ever called this on an idle router,
            // skipped and stepped runs would sample different cycle sets
            // and the identity suites would diverge — fail fast instead.
            debug_assert!(
                self.has_work(),
                "occupancy sampling on an idle router: drivers must gate \
                 the crossbar stage on has_work()"
            );
            self.counters.occupancy_samples += 1;
            for (p, ip) in self.inputs.iter().enumerate() {
                let buffered: usize = ip.vcs.iter().map(|vc| vc.buf.len()).sum();
                self.counters.ports[p].occupancy_flits += buffered as u64;
            }
        }
        match self.cfg.crossbar_kind() {
            CrossbarKind::Multiplexed => {
                let mut eligible = std::mem::take(&mut self.scratch_idx);
                for p in 0..n {
                    // Only granted VCs can be crossbar-eligible, and the
                    // granted set iterates ascending, so filtering it
                    // yields the exact list the full scan builds. A port
                    // with no grant counts no conflict, and choosing from
                    // its empty list mutates nothing: it is skipped.
                    if !reference && self.inputs[p].granted.is_empty() {
                        continue;
                    }
                    eligible.clear();
                    if reference {
                        eligible.extend((0..m).filter(|&v| self.xbar_eligible(p, v, now)));
                    } else {
                        eligible.extend(
                            self.inputs[p]
                                .granted
                                .iter()
                                .filter(|&v| self.xbar_eligible(p, v, now)),
                        );
                    }
                    let n_eligible = eligible.len() as u64;
                    // Every eligible VC beyond the one served loses this
                    // cycle to the input multiplexer: a mux conflict.
                    self.counters.ports[p].mux_conflicts += n_eligible.saturating_sub(1);
                    if let Some(v) = self.inputs[p].sched.choose_from(&eligible) {
                        self.xbar_move(p, v, now, credits, sink.as_deref_mut());
                    }
                }
                self.scratch_idx = eligible;
            }
            CrossbarKind::Full => {
                if reference {
                    for p in 0..n {
                        for v in 0..m {
                            if self.xbar_eligible(p, v, now) {
                                self.xbar_move(p, v, now, credits, sink.as_deref_mut());
                            }
                        }
                    }
                } else {
                    // Scratch copy: tail crossings mutate the granted
                    // set mid-iteration.
                    let mut scan = std::mem::take(&mut self.scratch_idx);
                    for p in 0..n {
                        scan.clear();
                        scan.extend(self.inputs[p].granted.iter());
                        for &v in &scan {
                            if self.xbar_eligible(p, v, now) {
                                self.xbar_move(p, v, now, credits, sink.as_deref_mut());
                            }
                        }
                    }
                    self.scratch_idx = scan;
                }
            }
        }
    }

    /// Stage 5: the output VC multiplexers. Each output physical channel
    /// transmits at most one staged flit (point C), consuming one
    /// downstream credit. Departures are appended to `departures` (an
    /// out-parameter so the per-cycle driver can reuse one buffer; the
    /// router never allocates here).
    pub fn output_stage(&mut self, now: Cycles, departures: &mut Vec<Departure>) {
        self.output_stage_impl(now, departures, false);
    }

    /// [`Router::output_stage`] with the original full scan over every
    /// output VC — the oracle the bit-identity tests compare the staged
    /// sets against.
    pub fn output_stage_reference(&mut self, now: Cycles, departures: &mut Vec<Departure>) {
        self.output_stage_impl(now, departures, true);
    }

    fn output_stage_impl(&mut self, now: Cycles, departures: &mut Vec<Departure>, reference: bool) {
        let mut eligible = std::mem::take(&mut self.scratch_idx);
        for (p, out) in self.outputs.iter_mut().enumerate() {
            // VCs with an empty staging buffer can neither transmit nor
            // count a credit stall, so a port with nothing staged is a
            // no-op, and the ascending staged set holds every VC the
            // full scan could list.
            if !reference && out.staged.is_empty() {
                continue;
            }
            let pc = &mut self.counters.ports[p];
            eligible.clear();
            let mut visit = |v: usize| {
                let ovc = &out.vcs[v];
                let staged = ovc.buf.head().is_some_and(|(at, _)| now >= *at + Cycles(1));
                if staged && ovc.credits > 0 {
                    eligible.push(v);
                }
                // A staged head that only lacks a credit is stalled by
                // downstream flow control — the per-VC backpressure
                // signal.
                pc.credit_stalls[v] += u64::from(staged && ovc.credits == 0);
            };
            if reference {
                (0..out.vcs.len()).for_each(&mut visit);
            } else {
                out.staged.iter().for_each(&mut visit);
            }
            let Some(v) = out.sched.choose_from(&eligible) else {
                continue;
            };
            let (_, flit) = out.vcs[v].buf.pop().expect("eligible VC has a flit");
            if out.vcs[v].buf.is_empty() {
                out.staged.remove(v);
            }
            self.resident -= 1;
            out.sched.on_service(v);
            out.vcs[v].credits -= 1;
            if flit.class.is_real_time() {
                pc.rt_flits += 1;
            } else {
                pc.be_flits += 1;
            }
            departures.push(Departure {
                port: PortId(p as u32),
                flit,
            });
        }
        self.scratch_idx = eligible;
    }

    /// Whether any flit is buffered anywhere in the router. O(1): a
    /// resident-flit counter is maintained at `receive_flit` and the
    /// stage-5 drain (crossbar moves are internal and net out to zero).
    pub fn has_work(&self) -> bool {
        self.resident > 0
    }

    /// Every flit buffer of the router: the input VC buffers, then the
    /// output staging buffers, each flit with its arrival cycle.
    pub(crate) fn buffers(&self) -> impl Iterator<Item = &VcBuffer<(Cycles, Flit)>> {
        let inputs = self.inputs.iter().flat_map(|ip| &ip.vcs).map(|vc| &vc.buf);
        let staged = self.outputs.iter().flat_map(|op| &op.vcs).map(|vc| &vc.buf);
        inputs.chain(staged)
    }

    /// Flits buffered in the router, recounted from the input and staging
    /// FIFO lengths — an audit cross-check independent of the resident
    /// counter.
    pub(crate) fn buffered_flits(&self) -> u64 {
        self.buffers().map(VcBuffer::len).sum::<usize>() as u64
    }

    /// Total flits that have traversed the crossbar.
    pub fn flits_crossed(&self) -> u64 {
        self.flits_crossed
    }

    /// Free credit count of output `(port, vc)` (for tests).
    pub fn credits_of(&self, port: PortId, vc: VcId) -> u32 {
        self.outputs[port.index()].vcs[vc.index()].credits
    }

    /// Buffered flit count of input `(port, vc)` (for tests).
    pub fn input_buffered(&self, port: PortId, vc: VcId) -> usize {
        self.inputs[port.index()].vcs[vc.index()].buf.len()
    }

    /// The granted `(output port, output VC)` of input `(port, vc)`, if a
    /// message currently holds one (audit/watchdog visibility).
    pub fn grant_of(&self, port: PortId, vc: VcId) -> Option<(PortId, VcId)> {
        self.inputs[port.index()].vcs[vc.index()]
            .grant
            .map(|g| (PortId(g.out_port as u32), VcId(g.out_vc as u32)))
    }

    /// The message currently owning output `(port, vc)`, if any
    /// (audit/watchdog visibility).
    pub fn output_owner(&self, port: PortId, vc: VcId) -> Option<MsgId> {
        self.outputs[port.index()].vcs[vc.index()].owner
    }

    /// Flits staged in output `(port, vc)`'s stage-5 buffer
    /// (audit/watchdog visibility).
    pub fn output_staged(&self, port: PortId, vc: VcId) -> usize {
        self.outputs[port.index()].vcs[vc.index()].buf.len()
    }

    /// The flit at the front of input `(port, vc)`'s buffer, if any
    /// (audit/watchdog visibility).
    pub fn input_head(&self, port: PortId, vc: VcId) -> Option<&Flit> {
        self.inputs[port.index()].vcs[vc.index()]
            .buf
            .head()
            .map(|(_, f)| f)
    }

    /// The class split of this router's VCs.
    pub fn partition(&self) -> &VcPartition {
        &self.partition
    }

    /// Audit pass over router-local invariants, filing violations into
    /// `log`:
    ///
    /// * every input and output VC buffer holds a well-formed run of worms
    ///   (head→body→tail, no interleaving);
    /// * every input-VC grant points at an output VC owned by the granted
    ///   message;
    /// * the incrementally maintained active sets (pending heads, granted
    ///   connections, staged output VCs, per-class free output-VC counts,
    ///   resident-flit counter) agree with the buffer and ownership state
    ///   they summarize.
    ///
    /// Credit conservation needs both link endpoints, so the network-level
    /// audit checks it; see `Network::audit_now`.
    pub fn audit(&self, now: Cycles, log: &mut netsim::audit::AuditLog) {
        use netsim::audit::{Violation, ViolationKind};
        let router = Some(self.id.get());
        for (p, ip) in self.inputs.iter().enumerate() {
            for (v, ivc) in ip.vcs.iter().enumerate() {
                if let Some(detail) = flitnet::worm_order_violation(ivc.buf.iter().map(|(_, f)| f))
                {
                    log.record(Violation {
                        cycle: now.get(),
                        router,
                        port: p as u32,
                        vc: v as u32,
                        kind: ViolationKind::WormOrder,
                        detail,
                    });
                }
                if let Some(grant) = ivc.grant {
                    let owner = self.outputs[grant.out_port].vcs[grant.out_vc].owner;
                    let held_by = ivc.buf.head().map(|(_, f)| f.msg);
                    let mismatch = match (owner, held_by) {
                        (None, _) => Some("granted output VC has no owner".to_string()),
                        (Some(o), Some(h)) if o != h => Some(format!(
                            "granted output VC owned by msg {o} but input head is msg {h}"
                        )),
                        _ => None,
                    };
                    if let Some(detail) = mismatch {
                        log.record(Violation {
                            cycle: now.get(),
                            router,
                            port: p as u32,
                            vc: v as u32,
                            kind: ViolationKind::GrantWithoutOwner,
                            detail,
                        });
                    }
                }
            }
        }
        for (p, op) in self.outputs.iter().enumerate() {
            for (v, ovc) in op.vcs.iter().enumerate() {
                if let Some(detail) = flitnet::worm_order_violation(ovc.buf.iter().map(|(_, f)| f))
                {
                    log.record(Violation {
                        cycle: now.get(),
                        router,
                        port: p as u32,
                        vc: v as u32,
                        kind: ViolationKind::WormOrder,
                        detail,
                    });
                }
            }
        }
        self.audit_active_sets(now, log);
    }

    /// [`Router::pending`] re-derived: the input VCs with buffered flits
    /// and no grant (whose buffer then fronts a head).
    fn pending_slots(&self) -> ActiveSet {
        ActiveSet::from_fn(self.slot_of.len(), |i| {
            let ivc = &self.inputs[self.slot_of[i].0].vcs[self.slot_of[i].1];
            ivc.grant.is_none() && !ivc.buf.is_empty()
        })
    }

    /// Audit sub-pass: every active set must equal the full-scan
    /// recomputation of the rule it summarizes.
    fn audit_active_sets(&self, now: Cycles, log: &mut netsim::audit::AuditLog) {
        use netsim::audit::{Violation, ViolationKind};
        let router = Some(self.id.get());
        let mut desync = |p: usize, detail: String| {
            log.record(Violation {
                cycle: now.get(),
                router,
                port: p as u32,
                vc: 0,
                kind: ViolationKind::ActiveSetDesync,
                detail,
            });
        };
        let want = self.pending_slots();
        if want != self.pending {
            desync(
                0,
                format!("pending {:?}, re-derived {want:?}", self.pending),
            );
        }
        for (p, (ip, op)) in self.inputs.iter().zip(&self.outputs).enumerate() {
            let want = ip.granted_vcs();
            if want != ip.granted {
                desync(p, format!("granted {:?}, re-derived {want:?}", ip.granted));
            }
            let want = op.staged_vcs();
            if want != op.staged {
                desync(p, format!("staged {:?}, re-derived {want:?}", op.staged));
            }
            let free = op.count_free(&self.partition);
            if free != op.free {
                desync(
                    p,
                    format!(
                        "free output-VC counts {:?} but {free:?} unowned \
                         (best-effort, real-time)",
                        op.free
                    ),
                );
            }
        }
        let resident = self.buffered_flits();
        if resident != self.resident {
            desync(
                0,
                format!(
                    "resident counter {} but {resident} flits buffered",
                    self.resident
                ),
            );
        }
    }

    /// Serialises the router's mutable state into a snapshot: buffers,
    /// arrival bookkeeping, grants, owners, credits, schedulers, cursors
    /// and counters. The derived active sets (pending heads, granted
    /// connections, staged VCs, per-class free output-VC counts, resident
    /// counter) are *not* written — they are pure functions of the buffer
    /// and ownership state (the exact predicates [`Router::audit`]'s
    /// `ActiveSetDesync` sweep re-derives) and are recomputed on load.
    /// Neither are the blocked-head records: a restored router retries
    /// every pending head once, which fails without side effects exactly
    /// where the records would have skipped it.
    pub fn save(&self, w: &mut netsim::snap::SnapWriter) {
        w.usize(self.arb_cursor);
        w.u64(self.flits_crossed);
        w.u64(self.counters.occupancy_samples);
        for pc in &self.counters.ports {
            w.u64(pc.rt_flits);
            w.u64(pc.be_flits);
            w.u64(pc.mux_conflicts);
            w.usize(pc.credit_stalls.len());
            for &s in &pc.credit_stalls {
                w.u64(s);
            }
            w.u64(pc.occupancy_flits);
        }
        for ip in &self.inputs {
            ip.sched.save(w);
            for ivc in &ip.vcs {
                // Flits first, then their arrival cycles.
                ivc.buf.save_with(w, |w, (_, f)| f.save(w));
                ivc.buf.save_with(w, |w, (at, _)| w.u64(at.0));
                w.option(ivc.grant, |w, g| {
                    w.usize(g.out_port);
                    w.usize(g.out_vc);
                    w.u64(g.ready_at.0);
                });
                w.option(ivc.head_seen_at, |w, at| w.u64(at.0));
            }
        }
        for op in &self.outputs {
            op.sched.save(w);
            for ovc in &op.vcs {
                ovc.buf.save_with(w, |w, (at, f)| {
                    w.u64(at.0);
                    f.save(w);
                });
                w.u32(ovc.credits);
                w.option(ovc.owner, |w, m| w.u64(m.0));
            }
        }
    }

    /// Restores state saved by [`Router::save`] into this
    /// freshly-constructed (empty) router, then recomputes the derived
    /// active sets from the restored buffers.
    ///
    /// # Errors
    ///
    /// Propagates snapshot decoding errors; rejects an arbitration cursor
    /// outside the input slots and an input or staging buffer holding
    /// more flits than its configured depth.
    ///
    /// # Panics
    ///
    /// Panics if the router already holds flits.
    pub fn load_into(
        &mut self,
        r: &mut netsim::snap::SnapReader<'_>,
    ) -> Result<(), netsim::snap::SnapError> {
        use netsim::snap::SnapError;
        assert_eq!(self.resident, 0, "restore target router must be empty");
        self.arb_cursor = r.usize()?;
        if self.arb_cursor >= self.slot_of.len() {
            return Err(SnapError::BadValue("arbitration cursor out of range"));
        }
        self.flits_crossed = r.u64()?;
        self.counters.occupancy_samples = r.u64()?;
        for pc in &mut self.counters.ports {
            pc.rt_flits = r.u64()?;
            pc.be_flits = r.u64()?;
            pc.mux_conflicts = r.u64()?;
            if r.usize()? != pc.credit_stalls.len() {
                return Err(SnapError::BadValue("credit-stall lane count mismatch"));
            }
            for s in &mut pc.credit_stalls {
                *s = r.u64()?;
            }
            pc.occupancy_flits = r.u64()?;
        }
        for ip in &mut self.inputs {
            ip.sched.load_into(r)?;
            for ivc in &mut ip.vcs {
                ivc.buf
                    .load_with(r, |r| Ok((Cycles::ZERO, Flit::load(r)?)))?;
                if r.usize()? != ivc.buf.len() {
                    return Err(SnapError::BadValue("arrival bookkeeping mismatch"));
                }
                for (at, _) in ivc.buf.iter_mut() {
                    *at = Cycles(r.u64()?);
                }
                ivc.grant = r.option(|r| {
                    Ok(Grant {
                        out_port: r.usize()?,
                        out_vc: r.usize()?,
                        ready_at: Cycles(r.u64()?),
                    })
                })?;
                ivc.head_seen_at = r.option(|r| r.u64().map(Cycles))?;
            }
        }
        for op in &mut self.outputs {
            op.sched.load_into(r)?;
            for ovc in &mut op.vcs {
                ovc.buf
                    .load_with(r, |r| Ok((Cycles(r.u64()?), Flit::load(r)?)))?;
                ovc.credits = r.u32()?;
                ovc.owner = r.option(|r| r.u64().map(MsgId))?;
            }
        }
        // Recompute the derived active sets from the restored buffers —
        // the same rules the ActiveSetDesync audit checks.
        for ip in &mut self.inputs {
            ip.granted = ip.granted_vcs();
        }
        self.pending = self.pending_slots();
        self.blocked_at.fill(NOT_BLOCKED);
        for op in &mut self.outputs {
            op.staged = op.staged_vcs();
            op.free = op.count_free(&self.partition);
        }
        self.resident = self.buffered_flits();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flitnet::{FlitKind, FrameId, MsgId, NodeId, StreamId, TrafficClass, Worm};

    impl Router {
        /// The pending set, input port `p`'s granted set and output port
        /// `p`'s staged set, for the network's audit mutation tests.
        pub(crate) fn active_sets_mut(&mut self, p: usize) -> [&mut ActiveSet; 3] {
            [
                &mut self.pending,
                &mut self.inputs[p].granted,
                &mut self.outputs[p].staged,
            ]
        }

        /// Every buffered flit, for the network's restore tests.
        pub(crate) fn buffered_flits_mut(&mut self) -> impl Iterator<Item = &mut Flit> {
            let inputs = self.inputs.iter_mut().flat_map(|ip| &mut ip.vcs);
            let inputs = inputs.flat_map(|vc| vc.buf.iter_mut());
            let staged = self.outputs.iter_mut().flat_map(|op| &mut op.vcs);
            let staged = staged.flat_map(|vc| vc.buf.iter_mut());
            inputs.chain(staged).map(|(_, f)| f)
        }
    }

    fn msg_flits(msg: u64, len: u32, dest: u32, vc: u32, vtick: f64) -> Vec<Flit> {
        let template = Flit {
            stream: StreamId(0),
            msg: MsgId(msg),
            frame: FrameId(0),
            seq_in_msg: 0,
            msg_len: len,
            msgs_in_frame: 1,
            dest: NodeId(dest),
            vc: VcId(vc),
            out_vc: VcId(vc),
            vtick,
            class: TrafficClass::Vbr,
            created_at: Cycles(0),
        };
        Worm::new(template).into_iter().collect()
    }

    fn drive(router: &mut Router, now: Cycles) -> (Vec<CreditReturn>, Vec<Departure>) {
        // Route straight to the port matching the destination id.
        const PORTS: [PortId; 4] = [PortId(0), PortId(1), PortId(2), PortId(3)];
        router.arbitrate(
            now,
            |f| (std::slice::from_ref(&PORTS[f.dest.index()]), VcSel::Any),
            None,
        );
        let mut credits = Vec::new();
        router.crossbar(now, &mut credits, None);
        let mut departs = Vec::new();
        router.output_stage(now, &mut departs);
        (credits, departs)
    }

    fn cfg() -> RouterConfig {
        RouterConfig::new(4)
    }

    fn new_router(cfg: &RouterConfig) -> Router {
        let mut r = Router::new(
            RouterId(0),
            4,
            cfg,
            VcPartition::all_real_time(cfg.vcs_per_pc()),
        );
        for p in 0..4 {
            for v in 0..cfg.vcs_per_pc() {
                r.init_credits(PortId(p), VcId(v), 1_000_000);
            }
        }
        r
    }

    #[test]
    fn single_message_flows_through_pipeline() {
        let mut r = new_router(&cfg());
        let flits = msg_flits(1, 3, 2, 0, 100.0);
        for (i, f) in flits.iter().enumerate() {
            r.receive_flit(Cycles(i as u64), PortId(0), *f);
        }
        let mut out = Vec::new();
        for t in 0..30u64 {
            let (_, d) = drive(&mut r, Cycles(t));
            out.extend(d);
        }
        assert_eq!(out.len(), 3);
        for d in &out {
            assert_eq!(d.port, PortId(2));
        }
        assert_eq!(out[0].flit.kind(), FlitKind::Head);
        assert_eq!(out[2].flit.kind(), FlitKind::Tail);
        assert!(!r.has_work());
        assert_eq!(r.flits_crossed(), 3);
    }

    #[test]
    fn head_takes_five_stage_latency() {
        let mut r = new_router(&cfg());
        let flits = msg_flits(1, 2, 3, 1, 100.0);
        r.receive_flit(Cycles(0), PortId(0), flits[0]);
        r.receive_flit(Cycles(1), PortId(0), flits[1]);
        let mut first_out = None;
        for t in 0..20u64 {
            let (_, d) = drive(&mut r, Cycles(t));
            if let Some(dep) = d.first() {
                first_out = Some((t, dep.flit.kind()));
                break;
            }
        }
        let (t, kind) = first_out.expect("head must depart");
        assert_eq!(kind, FlitKind::Head);
        // Arrived at 0; stages: buffer(1) + route/arb(2) + xbar(1) +
        // output(1) = departs at cycle 5... allow exactly 5 here.
        assert_eq!(t, 5, "head departed at cycle {t}");
    }

    #[test]
    fn messages_serialize_when_only_one_vc_exists() {
        // With a single VC per channel, two messages to the same output
        // must serialize at message granularity (the VC is owned head to
        // tail).
        let c = RouterConfig::new(1);
        let mut r = Router::new(RouterId(0), 4, &c, VcPartition::all_real_time(1));
        for p in 0..4 {
            r.init_credits(PortId(p), VcId(0), 1_000_000);
        }
        for f in msg_flits(1, 3, 3, 0, 100.0) {
            r.receive_flit(Cycles(0), PortId(0), f);
        }
        for f in msg_flits(2, 3, 3, 0, 100.0) {
            r.receive_flit(Cycles(0), PortId(1), f);
        }
        let mut order = Vec::new();
        for t in 0..80u64 {
            let (_, d) = drive(&mut r, Cycles(t));
            for dep in d {
                order.push(dep.flit.msg);
            }
        }
        assert_eq!(order.len(), 6);
        // All three flits of one message before any flit of the other.
        assert_eq!(order[0], order[1]);
        assert_eq!(order[1], order[2]);
        assert_eq!(order[3], order[4]);
        assert_eq!(order[4], order[5]);
        assert_ne!(order[0], order[3]);
    }

    #[test]
    fn best_effort_is_confined_without_borrowing() {
        // 4 VCs, 2 real-time + 2 best-effort. A best-effort message whose
        // two class VCs are owned must wait, even while real-time VCs sit
        // free.
        let c = RouterConfig::new(4);
        let part = VcPartition::from_mix(4, 50.0, 50.0);
        let mut r = Router::new(RouterId(0), 4, &c, part);
        for p in 0..4 {
            for v in 0..4 {
                r.init_credits(PortId(p), VcId(v), 1_000_000);
            }
        }
        let be = |msg: u64, port: u32, vc: u32| {
            let mut flits = msg_flits(msg, 20, 3, vc, flitnet::BEST_EFFORT_VTICK);
            for f in &mut flits {
                f.class = TrafficClass::BestEffort;
            }
            let _ = port;
            flits
        };
        // Two long best-effort worms occupy the two BE VCs (2 and 3).
        for f in be(1, 0, 2) {
            r.receive_flit(Cycles(0), PortId(0), f);
        }
        for f in be(2, 1, 3) {
            r.receive_flit(Cycles(0), PortId(1), f);
        }
        // A third best-effort message has nowhere to go until one ends.
        for f in be(3, 2, 2) {
            r.receive_flit(Cycles(0), PortId(2), f);
        }
        let mut first_flit_at = std::collections::HashMap::new();
        let mut vcs_seen = std::collections::HashSet::new();
        for t in 0..300u64 {
            let (_, d) = drive(&mut r, Cycles(t));
            for dep in d {
                first_flit_at.entry(dep.flit.msg).or_insert(t);
                vcs_seen.insert(dep.flit.vc);
            }
        }
        // All three eventually flow, but only over the two best-effort
        // VCs — and therefore one worm had to wait for a VC to free.
        assert_eq!(first_flit_at.len(), 3);
        assert!(
            vcs_seen.iter().all(|vc| vc.get() >= 2),
            "confined to BE VCs: {vcs_seen:?}"
        );
        let latest = first_flit_at.values().max().copied().expect("three worms");
        assert!(
            latest > 20,
            "one BE worm must wait for a BE VC, latest start {latest}"
        );
    }

    #[test]
    fn borrowing_lets_best_effort_use_idle_real_time_vcs() {
        let c = RouterConfig::new(4).vc_borrowing(true);
        let part = VcPartition::from_mix(4, 50.0, 50.0);
        let mut r = Router::new(RouterId(0), 4, &c, part);
        for p in 0..4 {
            for v in 0..4 {
                r.init_credits(PortId(p), VcId(v), 1_000_000);
            }
        }
        let be = |msg: u64, vc: u32| {
            let mut flits = msg_flits(msg, 20, 3, vc, flitnet::BEST_EFFORT_VTICK);
            for f in &mut flits {
                f.class = TrafficClass::BestEffort;
            }
            flits
        };
        for f in be(1, 2) {
            r.receive_flit(Cycles(0), PortId(0), f);
        }
        for f in be(2, 3) {
            r.receive_flit(Cycles(0), PortId(1), f);
        }
        for f in be(3, 2) {
            r.receive_flit(Cycles(0), PortId(2), f);
        }
        // With borrowing, the third worm is granted an idle real-time VC
        // and departs interleaved with the other two.
        let mut vcs_seen = std::collections::HashSet::new();
        for t in 0..120u64 {
            let (_, d) = drive(&mut r, Cycles(t));
            for dep in d {
                vcs_seen.insert(dep.flit.vc);
            }
        }
        assert!(
            vcs_seen.iter().any(|vc| vc.get() < 2),
            "expected a borrowed real-time VC in {vcs_seen:?}"
        );
        assert_eq!(vcs_seen.len(), 3);
    }

    #[test]
    fn same_requested_vc_reallocates_dynamically() {
        // With several VCs available, a second message requesting an
        // owned output VC is steered to a free VC of the same class and
        // proceeds concurrently (dynamic VC allocation).
        let mut r = new_router(&cfg());
        for f in msg_flits(1, 10, 3, 0, 100.0) {
            r.receive_flit(Cycles(0), PortId(0), f);
        }
        for f in msg_flits(2, 10, 3, 0, 100.0) {
            r.receive_flit(Cycles(0), PortId(1), f);
        }
        let mut done_at = std::collections::HashMap::new();
        let mut vcs_seen = std::collections::HashSet::new();
        for t in 0..120u64 {
            let (_, d) = drive(&mut r, Cycles(t));
            for dep in d {
                vcs_seen.insert(dep.flit.vc);
                if dep.flit.is_tail() {
                    done_at.insert(dep.flit.msg, t);
                }
            }
        }
        assert_eq!(done_at.len(), 2);
        assert_eq!(
            vcs_seen.len(),
            2,
            "two VCs must carry the worms: {vcs_seen:?}"
        );
        let t1 = done_at[&MsgId(1)];
        let t2 = done_at[&MsgId(2)];
        // Concurrent, interleaved on the output physical channel: the two
        // tails finish within a couple of flit times of each other.
        assert!(t1.abs_diff(t2) <= 4, "t1={t1} t2={t2}");
    }

    #[test]
    fn different_vcs_to_different_outputs_proceed_concurrently() {
        let mut r = new_router(&cfg());
        for f in msg_flits(1, 5, 2, 0, 100.0) {
            r.receive_flit(Cycles(0), PortId(0), f);
        }
        for f in msg_flits(2, 5, 3, 1, 100.0) {
            r.receive_flit(Cycles(0), PortId(1), f);
        }
        let mut done_at = std::collections::HashMap::new();
        for t in 0..60u64 {
            let (_, d) = drive(&mut r, Cycles(t));
            for dep in d {
                if dep.flit.is_tail() {
                    done_at.insert(dep.flit.msg, t);
                }
            }
        }
        let t1 = done_at[&MsgId(1)];
        let t2 = done_at[&MsgId(2)];
        // Independent paths: finish within a cycle of each other.
        assert!(t1.abs_diff(t2) <= 1, "t1={t1} t2={t2}");
    }

    #[test]
    fn credits_block_transmission_until_returned() {
        let c = cfg();
        let mut r = Router::new(
            RouterId(0),
            4,
            &c,
            VcPartition::all_real_time(c.vcs_per_pc()),
        );
        // Only 2 credits on the output this message uses.
        r.init_credits(PortId(2), VcId(0), 2);
        for f in msg_flits(1, 5, 2, 0, 100.0) {
            r.receive_flit(Cycles(0), PortId(0), f);
        }
        let mut sent = 0;
        for t in 0..40u64 {
            let (_, d) = drive(&mut r, Cycles(t));
            sent += d.len();
        }
        assert_eq!(sent, 2, "only two credits were available");
        // Returning credits resumes the flow.
        r.receive_credit(PortId(2), VcId(0));
        r.receive_credit(PortId(2), VcId(0));
        r.receive_credit(PortId(2), VcId(0));
        for t in 40..80u64 {
            let (_, d) = drive(&mut r, Cycles(t));
            sent += d.len();
        }
        assert_eq!(sent, 5);
    }

    #[test]
    fn restore_rejects_staging_over_configured_depth() {
        // With no downstream credits the whole worm piles up in one
        // output VC's staging buffer.
        let c = cfg();
        let mut r = Router::new(
            RouterId(0),
            4,
            &c,
            VcPartition::all_real_time(c.vcs_per_pc()),
        );
        for f in msg_flits(1, 5, 2, 0, 100.0) {
            r.receive_flit(Cycles(0), PortId(0), f);
        }
        for t in 0..40u64 {
            drive(&mut r, Cycles(t));
        }
        assert!(r.output_staged(PortId(2), VcId(0)) >= 2);
        let mut w = netsim::snap::SnapWriter::new();
        r.save(&mut w);
        let bytes = w.finish();
        let restore = |cfg: &RouterConfig| {
            let mut target = Router::new(
                RouterId(0),
                4,
                cfg,
                VcPartition::all_real_time(cfg.vcs_per_pc()),
            );
            let mut rd = netsim::snap::SnapReader::new(&bytes).unwrap();
            target.load_into(&mut rd)
        };
        assert!(restore(&c).is_ok());
        assert!(matches!(
            restore(&cfg().out_buf_flits(1)),
            Err(netsim::snap::SnapError::BadValue(_))
        ));
    }

    #[test]
    fn restore_rejects_an_out_of_range_arbitration_cursor() {
        let c = cfg();
        let fresh = || Router::new(RouterId(0), 4, &c, VcPartition::all_real_time(4));
        let mut w = netsim::snap::SnapWriter::new();
        fresh().save(&mut w);
        let bytes = w.finish();
        // Re-encode the payload with the cursor (its first field) set to
        // the slot count, one past the last input slot.
        const HEADER_LEN: usize = 24;
        let mut w = netsim::snap::SnapWriter::new();
        w.usize(4 * 4);
        for &b in &bytes[HEADER_LEN + 8..] {
            w.u8(b);
        }
        let bad = w.finish();
        let mut rd = netsim::snap::SnapReader::new(&bad).unwrap();
        assert_eq!(
            fresh().load_into(&mut rd),
            Err(netsim::snap::SnapError::BadValue(
                "arbitration cursor out of range"
            ))
        );
    }

    #[test]
    fn crossbar_returns_one_credit_per_moved_flit() {
        let mut r = new_router(&cfg());
        for f in msg_flits(1, 4, 1, 2, 100.0) {
            r.receive_flit(Cycles(0), PortId(3), f);
        }
        let mut credits = Vec::new();
        for t in 0..30u64 {
            let (c, _) = drive(&mut r, Cycles(t));
            credits.extend(c);
        }
        assert_eq!(credits.len(), 4);
        for c in &credits {
            assert_eq!(
                *c,
                CreditReturn {
                    port: PortId(3),
                    vc: VcId(2)
                }
            );
        }
    }

    #[test]
    fn full_crossbar_moves_multiple_vcs_of_one_port_per_cycle() {
        let c = RouterConfig::new(4).crossbar(CrossbarKind::Full);
        let mut r = Router::new(
            RouterId(0),
            4,
            &c,
            VcPartition::all_real_time(c.vcs_per_pc()),
        );
        for p in 0..4 {
            for v in 0..4 {
                r.init_credits(PortId(p), VcId(v), 1_000_000);
            }
        }
        // Two messages on the same input port, different VCs, different
        // outputs: with a full crossbar both can cross in the same cycle.
        for f in msg_flits(1, 10, 1, 0, 100.0) {
            r.receive_flit(Cycles(0), PortId(0), f);
        }
        for f in msg_flits(2, 10, 2, 1, 100.0) {
            r.receive_flit(Cycles(0), PortId(0), f);
        }
        let mut per_cycle_max = 0usize;
        for t in 0..40u64 {
            const PORTS: [PortId; 4] = [PortId(0), PortId(1), PortId(2), PortId(3)];
            r.arbitrate(
                Cycles(t),
                |f| (std::slice::from_ref(&PORTS[f.dest.index()]), VcSel::Any),
                None,
            );
            let mut credits = Vec::new();
            r.crossbar(Cycles(t), &mut credits, None);
            per_cycle_max = per_cycle_max.max(credits.len());
            let mut departs = Vec::new();
            r.output_stage(Cycles(t), &mut departs);
        }
        assert_eq!(
            per_cycle_max, 2,
            "full crossbar should move both VCs at once"
        );
    }

    #[test]
    fn multiplexed_crossbar_moves_at_most_one_vc_per_input_port() {
        let mut r = new_router(&cfg());
        for f in msg_flits(1, 10, 1, 0, 100.0) {
            r.receive_flit(Cycles(0), PortId(0), f);
        }
        for f in msg_flits(2, 10, 2, 1, 100.0) {
            r.receive_flit(Cycles(0), PortId(0), f);
        }
        for t in 0..60u64 {
            const PORTS: [PortId; 4] = [PortId(0), PortId(1), PortId(2), PortId(3)];
            r.arbitrate(
                Cycles(t),
                |f| (std::slice::from_ref(&PORTS[f.dest.index()]), VcSel::Any),
                None,
            );
            let mut credits = Vec::new();
            r.crossbar(Cycles(t), &mut credits, None);
            assert!(
                credits.len() <= 1,
                "muxed crossbar: one flit per input port"
            );
            let mut departs = Vec::new();
            r.output_stage(Cycles(t), &mut departs);
        }
    }

    #[test]
    fn fat_link_candidates_balance_by_load() {
        let mut r = new_router(&cfg());
        // Message 1 to port 2 (via candidate set {2, 3}).
        for f in msg_flits(1, 20, 0, 0, 100.0) {
            r.receive_flit(Cycles(0), PortId(0), f);
        }
        // Message 2, same candidate set, different input port & VC.
        for f in msg_flits(2, 20, 0, 1, 100.0) {
            r.receive_flit(Cycles(0), PortId(1), f);
        }
        let mut used_ports = std::collections::HashSet::new();
        for t in 0..100u64 {
            const FAT: [PortId; 2] = [PortId(2), PortId(3)];
            r.arbitrate(Cycles(t), |_| (&FAT[..], VcSel::Any), None);
            let mut credits = Vec::new();
            r.crossbar(Cycles(t), &mut credits, None);
            let mut departs = Vec::new();
            r.output_stage(Cycles(t), &mut departs);
            for d in departs {
                used_ports.insert(d.port);
            }
        }
        // The two concurrent messages must spread across the fat bundle —
        // the multiplexed crossbar holds an output per message, so the
        // second message is steered to the free parallel link.
        assert_eq!(used_ports.len(), 2, "used {used_ports:?}");
    }

    #[test]
    fn counters_track_forwarded_flits_and_mux_conflicts() {
        let mut r = new_router(&cfg());
        // Two worms on the same input port, different VCs: the input mux
        // serves one flit per cycle, so the other VC loses — a conflict.
        for f in msg_flits(1, 10, 1, 0, 100.0) {
            r.receive_flit(Cycles(0), PortId(0), f);
        }
        for f in msg_flits(2, 10, 2, 1, 100.0) {
            r.receive_flit(Cycles(0), PortId(0), f);
        }
        for t in 0..80u64 {
            drive(&mut r, Cycles(t));
        }
        let totals = r.counters().totals();
        assert_eq!(totals.rt_flits, 20, "all 20 VBR flits forwarded");
        assert_eq!(totals.be_flits, 0);
        assert!(
            r.counters().ports[0].mux_conflicts > 0,
            "competing VCs on port 0 must register conflicts"
        );
        // Cycle 0 is a sampling cycle and the buffers held flits then.
        assert!(totals.occupancy_samples > 0);
        assert!(totals.occupancy_flits > 0);
    }

    #[test]
    fn counters_record_credit_stall_cycles() {
        let c = cfg();
        let mut r = Router::new(
            RouterId(0),
            4,
            &c,
            VcPartition::all_real_time(c.vcs_per_pc()),
        );
        // Only 2 credits: the worm's remaining flits stall at the output.
        r.init_credits(PortId(2), VcId(0), 2);
        for f in msg_flits(1, 5, 2, 0, 100.0) {
            r.receive_flit(Cycles(0), PortId(0), f);
        }
        for t in 0..40u64 {
            drive(&mut r, Cycles(t));
        }
        let stalls = r.counters().ports[2].credit_stalls[0];
        assert!(stalls > 10, "starved output VC must count stalls: {stalls}");
        assert_eq!(r.counters().totals().credit_stall_cycles, stalls);
    }

    #[test]
    fn tracing_emits_route_and_arbitrate_events() {
        let mut r = new_router(&cfg());
        let mut sink = JsonlSink::new();
        for f in msg_flits(1, 3, 2, 0, 100.0) {
            r.receive_flit(Cycles(0), PortId(0), f);
        }
        const PORTS: [PortId; 4] = [PortId(0), PortId(1), PortId(2), PortId(3)];
        for t in 0..30u64 {
            let now = Cycles(t);
            r.arbitrate(
                now,
                |f| (std::slice::from_ref(&PORTS[f.dest.index()]), VcSel::Any),
                Some(&mut sink),
            );
            let mut credits = Vec::new();
            r.crossbar(now, &mut credits, Some(&mut sink));
            let mut departs = Vec::new();
            r.output_stage(now, &mut departs);
        }
        let text = String::from_utf8(sink.into_bytes()).expect("utf8");
        // One route grant for the message, one arbitrate event per flit.
        assert_eq!(text.matches("\"event\":\"route\"").count(), 1);
        assert_eq!(text.matches("\"event\":\"arbitrate\"").count(), 3);
        assert!(text.contains("\"router\":0"));
    }

    #[test]
    fn traced_router_moves_the_same_flits_as_untraced() {
        // A sink only observes: the router fed `Some(sink)` and its twin
        // fed `None` must return the same credits and departures.
        const PORTS: [PortId; 4] = [PortId(0), PortId(1), PortId(2), PortId(3)];
        let run = |mut sink: Option<&mut JsonlSink>| {
            let mut r = new_router(&cfg());
            for f in msg_flits(1, 3, 2, 0, 100.0) {
                r.receive_flit(Cycles(0), PortId(0), f);
            }
            for f in msg_flits(2, 4, 2, 1, 100.0) {
                r.receive_flit(Cycles(0), PortId(1), f);
            }
            let mut moved = Vec::new();
            for t in 0..40u64 {
                let now = Cycles(t);
                r.arbitrate(
                    now,
                    |f| (std::slice::from_ref(&PORTS[f.dest.index()]), VcSel::Any),
                    sink.as_deref_mut(),
                );
                let mut credits = Vec::new();
                r.crossbar(now, &mut credits, sink.as_deref_mut());
                let mut departs = Vec::new();
                r.output_stage(now, &mut departs);
                moved.extend(credits.iter().map(|c| (t, c.port, c.vc)));
                moved.extend(departs.iter().map(|d| (t, d.port, d.flit.vc)));
            }
            moved
        };
        let mut sink = JsonlSink::new();
        let traced = run(Some(&mut sink));
        assert_eq!(traced, run(None));
        assert_eq!(traced.len(), 14, "7 credits and 7 departures");
        assert_eq!(sink.events(), 2 + 7, "two route grants, seven crossings");
    }

    #[test]
    fn audit_flags_a_corrupted_free_vc_count() {
        use netsim::audit::{AuditLog, ViolationKind};
        let mut r = new_router(&cfg());
        for f in msg_flits(1, 10, 2, 0, 100.0) {
            r.receive_flit(Cycles(0), PortId(0), f);
        }
        for t in 0..5u64 {
            drive(&mut r, Cycles(t));
        }
        // The worm owns one of output 2's four real-time VCs.
        assert_eq!(r.outputs[2].free, [0, 3]);
        let mut log = AuditLog::new();
        r.audit(Cycles(5), &mut log);
        assert!(log.is_clean(), "healthy router: {:?}", log.violations());
        r.outputs[2].free[1] += 1;
        let mut log = AuditLog::new();
        r.audit(Cycles(5), &mut log);
        assert!(
            log.violations()
                .iter()
                .any(|v| v.kind == ViolationKind::ActiveSetDesync && v.detail.contains("free")),
            "a corrupted free count must be flagged: {:?}",
            log.violations()
        );
    }

    #[test]
    fn blocked_head_skip_grants_in_the_same_cycle_as_the_full_scan() {
        // One VC per channel: msg 2's head finds output 3's only VC owned
        // by msg 1 and blocks until msg 1's tail hands the VC over. The
        // skipping scan and the full-scan oracle must grant it in the
        // same cycle and forward the same flits.
        const PORTS: [PortId; 4] = [PortId(0), PortId(1), PortId(2), PortId(3)];
        let route = |f: &Flit| (std::slice::from_ref(&PORTS[f.dest.index()]), VcSel::Any);
        let run = |reference: bool| {
            let c = RouterConfig::new(1);
            let mut r = Router::new(RouterId(0), 4, &c, VcPartition::all_real_time(1));
            for p in 0..4 {
                r.init_credits(PortId(p), VcId(0), 1_000_000);
            }
            for f in msg_flits(1, 6, 3, 0, 100.0) {
                r.receive_flit(Cycles(0), PortId(0), f);
            }
            for f in msg_flits(2, 6, 3, 0, 100.0) {
                r.receive_flit(Cycles(0), PortId(1), f);
            }
            let (mut granted_at, mut skipped_cycles) = (None, 0);
            let mut departed = Vec::new();
            for t in 0..60u64 {
                let now = Cycles(t);
                // Slot 1 is (port 1, VC 0): msg 2's input VC.
                skipped_cycles += u64::from(r.blocked_at[1] == r.releases);
                let (mut credits, mut departs) = (Vec::new(), Vec::new());
                if reference {
                    r.arbitrate_reference(now, route, None);
                    r.crossbar_reference(now, &mut credits, None);
                    r.output_stage_reference(now, &mut departs);
                } else {
                    r.arbitrate(now, route, None);
                    r.crossbar(now, &mut credits, None);
                    r.output_stage(now, &mut departs);
                }
                if granted_at.is_none() && r.grant_of(PortId(1), VcId(0)).is_some() {
                    granted_at = Some(t);
                }
                departed.extend(departs.iter().map(|d| (t, d.flit.msg, d.flit.kind())));
            }
            assert!(!r.has_work(), "both worms drain");
            assert_eq!(r.outputs[3].free, [0, 1], "the VC is free again");
            (
                granted_at.expect("msg 2 is granted"),
                skipped_cycles,
                departed,
            )
        };
        let (fast_at, fast_skipped, fast_departed) = run(false);
        let (ref_at, _, ref_departed) = run(true);
        assert_eq!(fast_at, ref_at, "grant cycle");
        assert_eq!(fast_departed, ref_departed, "departures");
        assert!(
            fast_at > 6,
            "msg 2 must wait for msg 1's tail, granted at {fast_at}"
        );
        assert!(fast_skipped > 0, "the blocked head must have been skipped");
    }

    /// Drives one router whose route closure pins every hop to `sel`.
    fn drive_sel(r: &mut Router, now: Cycles, sel: VcSel) -> Vec<Departure> {
        const PORTS: [PortId; 4] = [PortId(0), PortId(1), PortId(2), PortId(3)];
        r.arbitrate(
            now,
            move |f| (std::slice::from_ref(&PORTS[f.dest.index()]), sel),
            None,
        );
        let mut credits = Vec::new();
        r.crossbar(now, &mut credits, None);
        let mut departs = Vec::new();
        r.output_stage(now, &mut departs);
        departs
    }

    #[test]
    fn dateline_sel_confines_output_vc_allocation() {
        // 4 all-real-time VCs: Lower = {0, 1}, Upper = {2, 3}. A head
        // requesting VC 0 under an Upper restriction must be re-allocated
        // into the upper half; under Lower it keeps its preference.
        for (sel, allowed) in [(VcSel::Upper, [2u32, 3]), (VcSel::Lower, [0u32, 1])] {
            let mut r = new_router(&cfg());
            for f in msg_flits(1, 3, 2, 0, 100.0) {
                r.receive_flit(Cycles(0), PortId(0), f);
            }
            let mut seen = Vec::new();
            for t in 0..30u64 {
                for d in drive_sel(&mut r, Cycles(t), sel) {
                    seen.push(d.flit.vc.get());
                }
            }
            assert_eq!(seen.len(), 3);
            assert!(
                seen.iter().all(|vc| allowed.contains(vc)),
                "{sel:?} must confine to {allowed:?}, got {seen:?}"
            );
        }
    }

    #[test]
    fn dateline_sel_blocks_when_its_half_is_owned() {
        // Both upper-half VCs are owned by in-flight worms; an Upper-
        // restricted head must wait even though lower VCs are free — and
        // even with borrowing enabled, since the borrowing fallback also
        // honours the restriction.
        let c = cfg().vc_borrowing(true);
        let mut r = new_router(&c);
        // Two long worms to port 2 occupy VCs 2 and 3 (Upper).
        for f in msg_flits(1, 18, 2, 2, 100.0) {
            r.receive_flit(Cycles(0), PortId(0), f);
        }
        for f in msg_flits(2, 18, 2, 3, 100.0) {
            r.receive_flit(Cycles(0), PortId(1), f);
        }
        let mut msg3_first = None;
        for t in 0..200u64 {
            if t == 6 {
                // Both upper VCs are owned by now; a third worm,
                // Upper-restricted and requesting VC 2, must block.
                for f in msg_flits(3, 3, 2, 2, 100.0) {
                    r.receive_flit(Cycles(t), PortId(3), f);
                }
            }
            for d in drive_sel(&mut r, Cycles(t), VcSel::Upper) {
                if d.flit.msg == MsgId(3) && msg3_first.is_none() {
                    msg3_first = Some((t, d.flit.vc.get()));
                }
            }
        }
        let (t, vc) = msg3_first.expect("the restricted worm eventually departs");
        assert!(
            t > 18,
            "msg 3 must wait for an upper VC to free, departed at {t}"
        );
        assert!(vc >= 2, "msg 3 must use an upper VC, used {vc}");
    }
}
