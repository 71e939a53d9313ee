//! Cycle-accurate network simulation: routers + links + endpoints.
//!
//! [`Network`] instantiates one [`Router`] per switch of a
//! [`topo::Topology`], wires full-duplex links (a flit channel one way and
//! a credit channel back), attaches endpoints (network interfaces with
//! per-VC queues of waiting messages, each a head flit plus a send
//! cursor; flits are built as they leave), and drives everything cycle
//! by cycle:
//!
//! 1. injection calendar → NI queues,
//! 2. link/credit delivery (and sink accounting at destinations),
//! 3. routing + arbitration (stages 2–3),
//! 4. crossbar traversal (stage 4; returns upstream credits),
//! 5. output VC multiplexing onto the links (stage 5),
//! 6. NI injection multiplexing onto the injection links.
//!
//! When no flit is anywhere in the system, the clock jumps straight to the
//! next injection event — at MPEG-2 rates the network is idle most of the
//! time below saturation, and the skip keeps low-load points cheap.

use std::collections::VecDeque;

use flitnet::{CreditLink, Flit, Link, NodeId, PortId, RouterId, VcId, Worm};
use metrics::{DeliveryTracker, FrameTails, LatencyTracker};
use netsim::audit::AuditLog;
use netsim::snap::{SnapError, SnapReader, SnapWriter};
use netsim::telemetry::{FlitEvent, FlitEventKind, JsonlSink};
use netsim::{Calendar, Cycles, RunningStats, TimeBase};
use topo::{PortTarget, Topology};
use traffic::{ScheduledMessage, Workload};

use crate::active::ActiveSet;
use crate::audit::{AuditConfig, StallKind, StallReport, WatchdogConfig};
use crate::config::RouterConfig;
use crate::counters::{NetCounters, SkipStats};
use crate::router::{CreditReturn, Departure, Router};
use crate::scheduler::MuxScheduler;

/// Credits given to endpoint-attached output ports: endpoints consume at
/// link rate, so they never exert backpressure.
const ENDPOINT_CREDITS: u32 = 1 << 30;

/// Who receives the flits a link delivers.
#[derive(Debug, Clone, Copy)]
enum RxSide {
    RouterIn { router: usize, port: PortId },
    Node,
}

/// Who receives the credits flowing back along a link.
#[derive(Debug, Clone, Copy)]
enum TxSide {
    RouterOut { router: usize, port: PortId },
    Ni { node: usize },
}

/// A full-duplex connection: flits one way, credits the other.
#[derive(Debug)]
struct LinkPair {
    flit: Link,
    credit: CreditLink,
    rx: RxSide,
    tx: TxSide,
}

impl LinkPair {
    /// [`Network::active_links`]'s membership rule: a flit or credit in flight.
    fn busy(&self) -> bool {
        !(self.flit.is_idle() && self.credit.is_idle())
    }
}

/// A message waiting at a network interface: its head flit, which holds
/// every per-message field, and the index of the next flit to send. The
/// NI builds each flit with [`Flit::nth`] as it leaves, so a waiting
/// message costs one flit of memory, not `msg_len`.
#[derive(Debug, Clone, Copy)]
struct NiMsg {
    head: Flit,
    next: u32,
}

impl NiMsg {
    /// Flits of this message still to send.
    fn remaining(&self) -> u64 {
        u64::from(self.head.msg_len - self.next)
    }
}

/// An endpoint's network interface: per-VC queues of waiting messages
/// plus the credit view of the router input buffer it feeds.
#[derive(Debug)]
struct Endpoint {
    queues: Vec<VecDeque<NiMsg>>,
    sched: MuxScheduler,
    credits: Vec<u32>,
    link: usize,
    /// VCs that can send: a queued message and a credit
    /// ([`Endpoint::can_send`]). The NI multiplexer picks among these,
    /// and an endpoint with none is in no [`Network::active_eps`].
    /// Derived, never serialized.
    ready: ActiveSet,
    /// VC of the worm currently being injected. The NI drains a message's
    /// flits back-to-back when it can (like a DMA engine), so worms enter
    /// the network compact; pacing between competing worms is the
    /// *router's* job (that is where the paper puts Virtual Clock).
    current: Option<usize>,
    /// Reusable ascending list of the sendable VCs the NI multiplexer
    /// picks from (scratch; never serialized).
    sendable: Vec<usize>,
}

impl Endpoint {
    /// [`Endpoint::ready`]'s membership rule: VC `v` holds a message and a
    /// credit.
    fn can_send(&self, v: usize) -> bool {
        !self.queues[v].is_empty() && self.credits[v] > 0
    }

    /// [`Endpoint::ready`] re-derived from the queues and credits.
    fn ready_vcs(&self) -> ActiveSet {
        ActiveSet::from_fn(self.queues.len(), |v| self.can_send(v))
    }

    /// Flits still to send, recounted from the queued messages' cursors
    /// (the audit's flit-conservation term and the stall report's NI
    /// backlog).
    fn backlog(&self) -> u64 {
        self.queues.iter().flatten().map(NiMsg::remaining).sum()
    }
}

/// State of the (opt-in) invariant audit sweep.
#[derive(Debug)]
struct AuditState {
    cfg: AuditConfig,
    log: AuditLog,
    /// Next cycle an audit sweep is due (tolerant of idle-cycle jumps).
    next_at: Cycles,
}

/// The watchdog's `last_signature` after a check that found the network
/// empty: no real signature equals it, so the first busy check after a
/// drained span always counts as progress. That keeps the trip cycle
/// independent of which drained cycles a driver stepped (the oracle
/// steps all of them, the fast driver jumps most).
const DRAINED: u64 = u64::MAX;

/// State of the (opt-in) progress watchdog.
#[derive(Debug)]
struct WatchdogState {
    cfg: WatchdogConfig,
    /// Progress signature at the last observed progress (see
    /// [`Network::progress_signature`]), or [`DRAINED`] after a check
    /// that found the network empty.
    last_signature: u64,
    /// Cycle of the last observed progress (or idle network).
    last_progress_at: Cycles,
}

/// Destination-side accounting.
#[derive(Debug)]
struct Sinks {
    delivery: DeliveryTracker,
    latency: LatencyTracker,
    frame_tails: FrameTails,
    delivered_msgs: u64,
    delivered_flits: u64,
    /// Per real-time stream: end-to-end message latency in cycles
    /// (injection stamp → tail delivery), for messages created after
    /// warmup. These are the observations the delay-bound audit checks
    /// against the analytic worst case.
    rt_latency: Vec<RunningStats>,
    /// Messages created before this stamp stay out of `rt_latency`.
    rt_warmup_end: Cycles,
}

/// The simulated network: topology + routers + endpoints + traffic.
///
/// Most users should go through [`crate::sim::run`]; `Network` is public
/// for fine-grained control (custom stopping conditions, mid-run probes)
/// and for integration tests.
#[derive(Debug)]
pub struct Network {
    topology: Topology,
    routers: Vec<Router>,
    endpoints: Vec<Endpoint>,
    links: Vec<LinkPair>,
    /// Link id carrying router `r`'s output port `p`.
    out_link: Vec<Vec<usize>>,
    /// Link id feeding router `r`'s input port `p`.
    feed_link: Vec<Vec<usize>>,
    workload: Workload,
    /// Every source's next message, keyed by its injection cycle: one
    /// `(source index, message)` entry per source at all times.
    calendar: Calendar<(usize, ScheduledMessage)>,
    sinks: Sinks,
    now: Cycles,
    flits_in_flight: u64,
    injected_msgs: u64,
    timebase: TimeBase,
    /// Reusable per-cycle buffer for crossbar credit returns.
    credit_buf: Vec<CreditReturn>,
    /// Reusable per-cycle buffer for output-stage departures.
    depart_buf: Vec<Departure>,
    /// Links with at least one flit or credit in flight
    /// ([`LinkPair::busy`]); `deliver` scans only these, so idle links
    /// cost nothing per cycle. The set iterates ascending, the order of
    /// the full-scan reference (delivery order is observable: it fixes
    /// the float-accumulation order in the trackers and the trace byte
    /// order).
    active_links: ActiveSet,
    /// Endpoints whose NI can send this cycle (a non-empty
    /// [`Endpoint::ready`]); `ni_send` scans only these, ascending for the
    /// same reason as `active_links`. An endpoint joins when a VC becomes
    /// ready (an injection onto a VC with a credit, or a credit for a VC
    /// with a message) and leaves once its last ready VC runs out of
    /// credits or messages. A backlogged but credit-blocked NI is not a
    /// member, so it costs nothing per cycle.
    active_eps: ActiveSet,
    /// Downstream input-buffer depth per VC (the audit's conservation
    /// checks need the capacity the credits were initialised from).
    buf_flits: u32,
    /// Monotone count of flits put on any link: the watchdog's
    /// forwarding-progress signal.
    total_link_sends: u64,
    /// Invariant audit sweep; `None` (the default) costs nothing.
    audit: Option<AuditState>,
    /// Progress watchdog; `None` (the default) costs nothing.
    watchdog: Option<WatchdogState>,
    /// Flit-event trace; `None` (the default) costs one predicted branch
    /// per emission site. Never serialised: a snapshot holds simulation
    /// state, not the record of how it got there.
    trace: Option<JsonlSink>,
    /// The stall report, once the watchdog has tripped.
    stall: Option<StallReport>,
    /// Skip-effectiveness counters (driver diagnostics; never
    /// serialised — a restored network starts its own tally).
    skip: SkipStats,
}

impl Network {
    /// Builds a network running `workload` over `topology` with every
    /// switch configured per `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if the workload's node universe does not match the topology.
    pub fn new(topology: &Topology, workload: Workload, cfg: &RouterConfig) -> Network {
        let timebase = workload.spec().timebase();
        let m = cfg.vcs_per_pc();
        let node_count = topology.node_count();

        let partition = workload.partition();
        if topology.has_datelines() {
            // Dateline restrictions halve each class's VC range; a class
            // with a single VC would have an empty lower half and worms
            // crossing the wrap-around could never be routed.
            assert!(
                partition.real_time_count() != 1,
                "a torus needs at least 2 real-time VCs for its dateline classes"
            );
            assert!(
                partition.best_effort_count() != 1,
                "a torus needs at least 2 best-effort VCs for its dateline classes"
            );
        }
        let mut routers: Vec<Router> = topology
            .routers()
            .map(|(id, spec)| Router::new(id, spec.ports.len(), cfg, partition))
            .collect();

        let mut links = Vec::new();
        let mut out_link = vec![Vec::new(); routers.len()];
        let mut feed_link = vec![vec![usize::MAX; 0]; routers.len()];
        for (rid, spec) in topology.routers() {
            feed_link[rid.index()] = vec![usize::MAX; spec.ports.len()];
            for (p, target) in spec.ports.iter().enumerate() {
                let rx = match target {
                    PortTarget::Router { router, port } => RxSide::RouterIn {
                        router: router.index(),
                        port: *port,
                    },
                    PortTarget::Node(_) => RxSide::Node,
                };
                links.push(LinkPair {
                    flit: Link::new(Cycles(u64::from(cfg.link_latency_value()))),
                    // The downstream input port can free at most one slot
                    // per VC per cycle (full crossbar), bounding the
                    // credit FIFO at m credits per cycle of latency.
                    credit: CreditLink::new(
                        Cycles(u64::from(cfg.link_latency_value())),
                        m as usize,
                    ),
                    rx,
                    tx: TxSide::RouterOut {
                        router: rid.index(),
                        port: PortId(p as u32),
                    },
                });
                out_link[rid.index()].push(links.len() - 1);
            }
        }
        // Endpoint injection links.
        let mut endpoints = Vec::with_capacity(node_count);
        for n in 0..node_count {
            let (router, port) = topology.attachment(NodeId(n as u32));
            links.push(LinkPair {
                flit: Link::new(Cycles(u64::from(cfg.link_latency_value()))),
                credit: CreditLink::new(Cycles(u64::from(cfg.link_latency_value())), m as usize),
                rx: RxSide::RouterIn {
                    router: router.index(),
                    port,
                },
                tx: TxSide::Ni { node: n },
            });
            endpoints.push(Endpoint {
                queues: (0..m).map(|_| VecDeque::new()).collect(),
                sched: MuxScheduler::new(cfg.scheduler_kind(), m as usize),
                credits: vec![cfg.buf_flits_value(); m as usize],
                link: links.len() - 1,
                ready: ActiveSet::new(m as usize),
                current: None,
                sendable: Vec::with_capacity(m as usize),
            });
        }
        // Index the feeders.
        for (i, lp) in links.iter().enumerate() {
            if let RxSide::RouterIn { router, port } = lp.rx {
                feed_link[router][port.index()] = i;
            }
        }
        for row in &feed_link {
            assert!(
                row.iter().all(|&l| l != usize::MAX),
                "every router input port must have a feeder"
            );
        }
        // Downstream credits for router outputs.
        for (rid, spec) in topology.routers() {
            for (p, target) in spec.ports.iter().enumerate() {
                let credits = match target {
                    PortTarget::Router { .. } => cfg.buf_flits_value(),
                    PortTarget::Node(_) => ENDPOINT_CREDITS,
                };
                for v in 0..m {
                    routers[rid.index()].init_credits(PortId(p as u32), VcId(v), credits);
                }
            }
        }

        // Schedule the first message of every source.
        let mut calendar = Calendar::with_capacity(workload.source_count());
        let mut workload = workload;
        for i in 0..workload.source_count() {
            let msg = workload.next_message(i);
            assert!(
                msg.src.index() < node_count,
                "workload source {} out of the topology's node range",
                msg.src
            );
            calendar.schedule(msg.at, (i, msg));
        }

        let link_count = links.len();
        Network {
            topology: topology.clone(),
            routers,
            endpoints,
            links,
            out_link,
            feed_link,
            workload,
            calendar,
            sinks: Sinks {
                delivery: DeliveryTracker::new(timebase),
                latency: LatencyTracker::new(timebase),
                frame_tails: FrameTails::default(),
                delivered_msgs: 0,
                delivered_flits: 0,
                rt_latency: Vec::new(),
                rt_warmup_end: Cycles::ZERO,
            },
            now: Cycles::ZERO,
            flits_in_flight: 0,
            injected_msgs: 0,
            timebase,
            credit_buf: Vec::new(),
            depart_buf: Vec::new(),
            active_links: ActiveSet::new(link_count),
            active_eps: ActiveSet::new(node_count),
            buf_flits: cfg.buf_flits_value(),
            total_link_sends: 0,
            audit: None,
            watchdog: None,
            trace: None,
            stall: None,
            skip: SkipStats::default(),
        }
    }

    /// [`Network::active_links`] re-derived from the links.
    fn busy_links(&self) -> ActiveSet {
        ActiveSet::from_fn(self.links.len(), |l| self.links[l].busy())
    }

    /// [`Network::active_eps`] re-derived from the endpoints' ready sets.
    fn ready_eps(&self) -> ActiveSet {
        ActiveSet::from_fn(self.endpoints.len(), |n| {
            !self.endpoints[n].ready.is_empty()
        })
    }

    /// Current simulation time.
    pub fn now(&self) -> Cycles {
        self.now
    }

    /// The network's cycle ↔ wall-clock mapping.
    pub fn timebase(&self) -> TimeBase {
        self.timebase
    }

    /// Flits injected but not yet delivered.
    pub fn flits_in_flight(&self) -> u64 {
        self.flits_in_flight
    }

    /// Messages injected so far.
    pub fn injected_msgs(&self) -> u64 {
        self.injected_msgs
    }

    /// Messages fully delivered so far.
    pub fn delivered_msgs(&self) -> u64 {
        self.sinks.delivered_msgs
    }

    /// Flits delivered so far.
    pub fn delivered_flits(&self) -> u64 {
        self.sinks.delivered_flits
    }

    /// Discards measurements before `at` (cycles).
    pub fn set_warmup_end(&mut self, at: Cycles) {
        self.sinks.delivery.set_warmup_end(at);
        self.sinks.latency.set_warmup_end(at);
        self.sinks.rt_warmup_end = at;
    }

    /// Per real-time stream message-latency statistics (cycles, messages
    /// created after warmup). Indexed by stream id; streams that have not
    /// delivered yet may be absent from the tail of the slice.
    pub fn rt_latency_stats(&self) -> &[RunningStats] {
        &self.sinks.rt_latency
    }

    /// Per real-time stream, indexed by stream id: the creation stamp of
    /// its oldest injected-but-undelivered message, if any. `now − stamp`
    /// is a latency already *incurred* — the delay-bound audit charges
    /// stuck messages with it, which is what lets it catch a deadlocked
    /// (never-delivering) network. Read from the network in one pass: a
    /// message is undelivered while it waits at its NI or its tail flit
    /// is on a link or in a router buffer. Streams past the last one
    /// with such a message may be absent from the tail of the result.
    pub fn rt_oldest_outstanding(&self) -> Vec<Option<u64>> {
        let queued = self
            .endpoints
            .iter()
            .flat_map(|ep| ep.queues.iter().flatten())
            .map(|m| &m.head);
        let on_links = self.links.iter().flat_map(|lp| lp.flit.iter_in_flight());
        let in_routers = self
            .routers
            .iter()
            .flat_map(Router::buffers)
            .flat_map(|b| b.iter().map(|(_, f)| f));
        let tails = on_links.chain(in_routers).filter(|f| f.is_tail());
        let mut oldest: Vec<Option<u64>> = Vec::new();
        for f in queued.chain(tails).filter(|f| f.class.is_real_time()) {
            let s = f.stream.index();
            if s >= oldest.len() {
                oldest.resize(s + 1, None);
            }
            let created = f.created_at.get();
            oldest[s] = Some(oldest[s].map_or(created, |o| o.min(created)));
        }
        oldest
    }

    /// The frame-delivery (jitter) tracker.
    pub fn delivery(&self) -> &DeliveryTracker {
        &self.sinks.delivery
    }

    /// The best-effort latency tracker.
    pub fn latency(&self) -> &LatencyTracker {
        &self.sinks.latency
    }

    /// The workload driving the network.
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    /// Network-wide telemetry counter totals summed over all routers.
    pub fn counters(&self) -> NetCounters {
        let mut t = NetCounters::default();
        for r in &self.routers {
            t.absorb(&r.counters().totals());
        }
        t
    }

    /// Runs the simulation until cycle `end`.
    ///
    /// When the audit or the watchdog is enabled (see
    /// [`Network::enable_audit`] / [`Network::enable_watchdog`]), each
    /// cycle additionally runs the safety checks; a detected stall stops
    /// the run early with a [`StallReport`] available from
    /// [`Network::stall_report`]. When tracing is enabled (see
    /// [`Network::enable_trace`]), flit events accumulate for
    /// [`Network::take_trace`].
    pub fn run_until(&mut self, end: Cycles) {
        self.run_until_impl(end, false);
    }

    /// Folds end-of-run truncation into the latency tracker: every
    /// message injected but not fully delivered when the clock stopped is
    /// a right-censored observation, not a missing one. Returns how many
    /// such messages there were.
    ///
    /// [`crate::sim::run`] calls this once, after the drain window; the
    /// count is surfaced as `in_flight_at_end` so measurement windows
    /// that truncate a meaningful share of traffic are visible instead
    /// of silently inflating the delivered-latency average.
    pub fn note_truncated_messages(&mut self) -> u64 {
        let in_flight = self.injected_msgs - self.sinks.delivered_msgs;
        self.sinks.latency.note_censored(in_flight);
        in_flight
    }

    /// Runs the simulation until cycle `end` on the *oracle* driver: every
    /// cycle is stepped (no horizon jump) and every phase scans every
    /// slot, as the code did before the occupancy-driven active sets
    /// existed. The audit, watchdog and trace run exactly as under
    /// [`Network::run_until`]. Kept for the bit-identity tests: a run here
    /// must produce exactly the same counters, stall reports, snapshots
    /// and trace bytes as the fast driver.
    pub fn run_until_reference(&mut self, end: Cycles) {
        self.run_until_impl(end, true);
    }

    /// The sequential driver loop; `oracle` selects full scans with every
    /// cycle stepped, otherwise active-set scans with horizon jumps.
    fn run_until_impl(&mut self, end: Cycles, oracle: bool) {
        let checked = self.audit.is_some() || self.watchdog.is_some();
        while self.now < end {
            if !oracle && self.try_horizon_jump(end) {
                continue;
            }
            self.step_impl(oracle);
            if checked {
                self.safety_check();
                if self.stall.is_some() {
                    break;
                }
            }
            self.advance_clock();
        }
    }

    /// Whether no component can change state at the current cycle: every
    /// router's pipeline is empty (`!has_work`, which covers pending
    /// heads, granted connections and staged outputs — all imply resident
    /// flits) and no NI can send (`active_eps` is empty: every backlogged
    /// NI is credit-blocked on all its VCs).
    ///
    /// Anything else that *will* act — a due injection, a flit or credit
    /// arriving on a wire, an audit or watchdog deadline — acts at a
    /// known future cycle, which is what [`Network::horizon`] computes.
    fn quiescent(&self) -> bool {
        // Fast path: `flits_in_flight` counts every undelivered flit —
        // NI-queued, router-resident and on-the-wire — so zero means
        // nothing can act and the scans below would all pass trivially.
        if self.flits_in_flight == 0 {
            return true;
        }
        self.active_eps.is_empty() && self.routers.iter().all(|r| !r.has_work())
    }

    /// The earliest future cycle at which any component can act: the next
    /// calendar injection, the earliest in-flight flit or credit arrival
    /// across the active links, and — when enabled — the next audit sweep
    /// and the watchdog's trip deadline. `Cycles(u64::MAX)` if none of
    /// those exist (an empty network with an exhausted calendar).
    ///
    /// The link terms are O(1) head loads per active link
    /// ([`Link::earliest_arrival`]); during quiescent spans the active
    /// link set is exactly the set of wires still carrying state, so the
    /// scan is as small as the span is quiet.
    fn horizon(&self) -> Cycles {
        let mut h = self.calendar.next_at().unwrap_or(Cycles(u64::MAX));
        for l in self.active_links.iter() {
            let lp = &self.links[l];
            if let Some(at) = lp.flit.earliest_arrival() {
                h = h.min(at);
            }
            if let Some(at) = lp.credit.earliest_arrival() {
                h = h.min(at);
            }
        }
        // Safety machinery deadlines are horizon terms, not exceptions:
        // an audited run steps its due-cycles (the sweep observes the
        // same quiescent state it would have seen stepping every cycle),
        // and the watchdog's trip cycle stays exact even when
        // the span around it is skipped.
        if let Some(st) = &self.audit {
            h = h.min(st.next_at);
        }
        if let Some(wd) = &self.watchdog {
            h = h.min(wd.last_progress_at + Cycles(wd.cfg.stall_cycles));
        }
        h
    }

    /// If the network is quiescent and nothing is due at the current
    /// cycle, jumps the clock to the horizon (clamped to `end`) and
    /// returns `true`; the caller skips the step pipeline entirely. Every
    /// skipped cycle is one in which no component could have acted, so
    /// stepping it would have been a pure no-op — the identity suites
    /// hold the horizon path to that claim bit-for-bit against
    /// [`Network::run_until_reference`], which steps every cycle.
    fn try_horizon_jump(&mut self, end: Cycles) -> bool {
        if !self.quiescent() {
            return false;
        }
        let h = self.horizon();
        if h <= self.now {
            return false;
        }
        debug_assert!(
            self.routers.iter().all(|r| !r.has_work()),
            "horizon jump with router work pending"
        );
        let target = h.min(end);
        self.skip.cycles_skipped += (target - self.now).get();
        self.skip.horizon_jumps += 1;
        self.now = target;
        true
    }

    /// End-of-cycle clock advance shared by every driver. Always a plain
    /// `+1`: the jump decision lives at the top of the loop, so a
    /// re-entered driver — e.g. a checkpoint segment boundary — re-jumps
    /// without stepping.
    fn advance_clock(&mut self) {
        self.skip.cycles_stepped += 1;
        self.now += Cycles(1);
    }

    /// Skip-effectiveness counters accumulated by this network's drivers
    /// since construction.
    pub fn skip_stats(&self) -> SkipStats {
        self.skip
    }

    /// Executes one cycle at the current time; `reference` selects the
    /// full-scan phases.
    fn step_impl(&mut self, reference: bool) {
        let now = self.now;
        self.inject(now);
        if reference {
            self.deliver_reference(now);
        } else {
            self.deliver(now);
        }
        self.route_and_arbitrate(now, reference);
        self.crossbar(now, reference);
        self.output(now, reference);
        if reference {
            self.ni_send_reference(now);
        } else {
            self.ni_send(now);
        }
    }

    /// Phase 1: fire due injections into the NI queues.
    fn inject(&mut self, now: Cycles) {
        while let Some((at, (i, msg))) = self.calendar.pop_due(now) {
            let (src, head) = (msg.src, msg.flits.head());
            let ep = &mut self.endpoints[src.index()];
            let v = head.vc.index();
            ep.sched.on_message_arrival(v, now, &head);
            ep.queues[v].push_back(NiMsg { head, next: 0 });
            if ep.credits[v] > 0 {
                ep.ready.insert(v);
                self.active_eps.insert(src.index());
            }
            if let Some(sink) = &mut self.trace {
                // One event per message; `port` holds the source node id
                // (there is no router at the injection point).
                sink.record(&FlitEvent {
                    cycle: now.get(),
                    kind: FlitEventKind::Inject,
                    router: None,
                    port: src.get(),
                    vc: head.vc.get(),
                    stream: head.stream.get(),
                    msg: head.msg.get(),
                    real_time: head.class.is_real_time(),
                });
            }
            self.flits_in_flight += u64::from(head.msg_len);
            self.injected_msgs += 1;
            let next = self.workload.next_message(i);
            debug_assert!(next.at >= at, "source injections must be monotonic");
            self.calendar.schedule(next.at, (i, next));
        }
    }

    /// Phase 2: link and credit delivery (including sink accounting).
    ///
    /// Only links in the active set are scanned; a link leaves the set
    /// once both its flit and credit channels have drained and rejoins it
    /// on the next send. Delivery sends nothing, so the set can be taken
    /// out while it is scanned; an empty set skips the take.
    fn deliver(&mut self, now: Cycles) {
        if self.active_links.is_empty() {
            return;
        }
        let mut active = std::mem::take(&mut self.active_links);
        active.retain(|l| self.deliver_link(l, now));
        self.active_links = active;
    }

    /// Phase 2, reference mode: scan *every* link in index order (the
    /// order the active set iterates in), then prune the active set
    /// exactly as the optimized scan would have.
    fn deliver_reference(&mut self, now: Cycles) {
        for l in 0..self.links.len() {
            let busy = self.deliver_link(l, now);
            debug_assert!(
                !busy || self.active_links.contains(l),
                "a busy link must be in the active set"
            );
        }
        let links = &self.links;
        self.active_links.retain(|l| links[l].busy());
    }

    /// Drains everything due on link `l` this cycle; returns whether the
    /// link is still busy (something left in flight either way).
    fn deliver_link(&mut self, l: usize, now: Cycles) -> bool {
        let lp = &mut self.links[l];
        while let Some(flit) = lp.flit.recv(now) {
            match lp.rx {
                RxSide::RouterIn { router, port } => {
                    self.routers[router].receive_flit(now, port, flit);
                }
                RxSide::Node => {
                    Self::sink_flit(
                        &mut self.sinks,
                        &mut self.flits_in_flight,
                        now,
                        flit,
                        self.trace.as_mut(),
                    );
                }
            }
        }
        while let Some(vc) = lp.credit.recv(now) {
            match lp.tx {
                TxSide::RouterOut { router, port } => {
                    self.routers[router].receive_credit(port, vc);
                }
                TxSide::Ni { node } => {
                    let (ep, v) = (&mut self.endpoints[node], vc.index());
                    ep.credits[v] += 1;
                    if !ep.queues[v].is_empty() {
                        ep.ready.insert(v);
                        self.active_eps.insert(node);
                    }
                }
            }
        }
        lp.busy()
    }

    fn sink_flit(
        sinks: &mut Sinks,
        in_flight: &mut u64,
        now: Cycles,
        flit: Flit,
        trace: Option<&mut JsonlSink>,
    ) {
        *in_flight -= 1;
        sinks.delivered_flits += 1;
        if !flit.is_tail() {
            return;
        }
        if let Some(trace) = trace {
            // One event per message, on its tail flit; `port` holds the
            // destination node id.
            trace.record(&FlitEvent {
                cycle: now.get(),
                kind: FlitEventKind::Deliver,
                router: None,
                port: flit.dest.get(),
                vc: 0,
                stream: flit.stream.get(),
                msg: flit.msg.get(),
                real_time: flit.class.is_real_time(),
            });
        }
        sinks.delivered_msgs += 1;
        if flit.class.is_real_time() {
            let s = flit.stream.index();
            if s >= sinks.rt_latency.len() {
                sinks.rt_latency.resize_with(s + 1, RunningStats::new);
            }
            if flit.created_at >= sinks.rt_warmup_end {
                sinks.rt_latency[s].push((now - flit.created_at).get() as f64);
            }
            if sinks.frame_tails.tail(&flit) {
                sinks.delivery.record_frame(flit.stream, now);
            }
        } else {
            sinks.latency.record(flit.created_at, now);
        }
    }

    /// Phase 3: stages 2–3 on every router.
    fn route_and_arbitrate(&mut self, now: Cycles, reference: bool) {
        let topology = &self.topology;
        for (r, router) in self.routers.iter_mut().enumerate() {
            if !router.has_work() {
                continue;
            }
            let rid = RouterId(r as u32);
            if reference {
                router.arbitrate_reference(
                    now,
                    |flit| topology.route_sel(rid, flit.dest),
                    self.trace.as_mut(),
                );
            } else {
                router.arbitrate(
                    now,
                    |flit| topology.route_sel(rid, flit.dest),
                    self.trace.as_mut(),
                );
            }
        }
    }

    /// Phase 4: crossbars; send freed-slot credits back upstream.
    fn crossbar(&mut self, now: Cycles, reference: bool) {
        let mut credits = std::mem::take(&mut self.credit_buf);
        for r in 0..self.routers.len() {
            if !self.routers[r].has_work() {
                continue;
            }
            credits.clear();
            if reference {
                self.routers[r].crossbar_reference(now, &mut credits, self.trace.as_mut());
            } else {
                self.routers[r].crossbar(now, &mut credits, self.trace.as_mut());
            }
            for c in &credits {
                let feeder = self.feed_link[r][c.port.index()];
                self.links[feeder].credit.send(now, c.vc);
                self.active_links.insert(feeder);
            }
        }
        self.credit_buf = credits;
    }

    /// Phase 5: output VC multiplexers onto the links.
    fn output(&mut self, now: Cycles, reference: bool) {
        let mut departures = std::mem::take(&mut self.depart_buf);
        for r in 0..self.routers.len() {
            if !self.routers[r].has_work() {
                continue;
            }
            departures.clear();
            if reference {
                self.routers[r].output_stage_reference(now, &mut departures);
            } else {
                self.routers[r].output_stage(now, &mut departures);
            }
            for d in &departures {
                let l = self.out_link[r][d.port.index()];
                self.links[l].flit.send(now, d.flit);
                self.active_links.insert(l);
                self.total_link_sends += 1;
            }
        }
        self.depart_buf = departures;
    }

    /// Phase 6: NI injection multiplexers onto the injection links.
    ///
    /// The NI finishes the worm it is injecting before starting another
    /// when it can (credits permitting), falling back to the scheduler's
    /// pick when the current worm stalls. Keeping worms compact at the
    /// source matters: a worm spread thin over time holds its granted
    /// output VC at every router for the whole stretch.
    ///
    /// Only endpoints that can send are visited: a backlogged NI whose
    /// VCs all lack a credit is not in the set. Sending touches only the
    /// injection links, so the endpoint set can be taken out while it is
    /// scanned; an empty set skips the take.
    fn ni_send(&mut self, now: Cycles) {
        if self.active_eps.is_empty() {
            return;
        }
        let mut active = std::mem::take(&mut self.active_eps);
        active.retain(|n| {
            self.ni_send_one(n, now, false);
            !self.endpoints[n].ready.is_empty()
        });
        self.active_eps = active;
    }

    /// Phase 6, reference mode: let every endpoint with a queued message
    /// pick in index order from the VCs [`Endpoint::can_send`] lists (not
    /// from its ready set), then prune the active set exactly as the
    /// optimized scan would have.
    fn ni_send_reference(&mut self, now: Cycles) {
        for n in 0..self.endpoints.len() {
            let ep = &self.endpoints[n];
            if ep.queues.iter().all(VecDeque::is_empty) {
                continue;
            }
            debug_assert_eq!(ep.ready, ep.ready_vcs(), "endpoint {n}'s ready VCs");
            debug_assert_eq!(
                self.active_eps.contains(n),
                !ep.ready.is_empty(),
                "an NI that can send must be in the active set"
            );
            self.ni_send_one(n, now, true);
        }
        let endpoints = &self.endpoints;
        self.active_eps.retain(|n| !endpoints[n].ready.is_empty());
    }

    /// Lets endpoint `n`'s NI put (at most) one flit on its injection
    /// link; `reference` selects [`Network::ni_pick`]'s full scan.
    fn ni_send_one(&mut self, n: usize, now: Cycles, reference: bool) {
        let ep = &mut self.endpoints[n];
        let Some(flit) = Self::ni_pick(ep, reference) else {
            return;
        };
        let link = ep.link;
        self.links[link].flit.send(now, flit);
        self.active_links.insert(link);
        self.total_link_sends += 1;
    }

    /// The NI scheduling decision of [`Network::ni_send_one`], minus the
    /// link send: picks (and dequeues) the flit endpoint `ep` injects
    /// this cycle, if any. The scheduler's candidates are the ready set,
    /// or with `reference` every VC [`Endpoint::can_send`] admits (the
    /// same ascending list while the set is in sync).
    fn ni_pick(ep: &mut Endpoint, reference: bool) -> Option<Flit> {
        let v = match ep.current {
            Some(v) if ep.can_send(v) => v,
            _ => {
                let mut list = std::mem::take(&mut ep.sendable);
                list.clear();
                if reference {
                    list.extend((0..ep.queues.len()).filter(|&v| ep.can_send(v)));
                } else {
                    list.extend(ep.ready.iter());
                }
                let choice = ep.sched.choose_from(&list);
                ep.sendable = list;
                choice?
            }
        };
        let entry = ep.queues[v].front_mut().expect("eligible VC has a message");
        let flit = entry.head.nth(entry.next);
        entry.next += 1;
        if entry.next == entry.head.msg_len {
            ep.queues[v].pop_front();
        }
        ep.sched.on_service(v);
        ep.credits[v] -= 1;
        if !ep.can_send(v) {
            ep.ready.remove(v);
        }
        ep.current = if flit.is_tail() { None } else { Some(v) };
        Some(flit)
    }

    // ---- audit + watchdog + trace ----------------------------------------

    /// Enables the invariant audit sweep. Violations accumulate in the
    /// log returned by [`Network::audit_log`]. Off by default: a run
    /// without this call executes the exact same instruction stream as
    /// before the audit layer existed.
    pub fn enable_audit(&mut self, cfg: AuditConfig) {
        self.audit = Some(AuditState {
            cfg,
            log: AuditLog::new(),
            next_at: self.now,
        });
    }

    /// Enables the progress watchdog. When flits are in flight but no
    /// forwarding progress happens for `cfg.stall_cycles` cycles,
    /// [`Network::run_until`] stops early and
    /// [`Network::stall_report`] describes the stall.
    pub fn enable_watchdog(&mut self, cfg: WatchdogConfig) {
        self.watchdog = Some(WatchdogState {
            cfg,
            // Arming counts as progress, like a drained check.
            last_signature: DRAINED,
            last_progress_at: self.now,
        });
    }

    /// Enables flit-event tracing: from now on every inject, route grant,
    /// crossbar crossing and delivery is recorded as one JSONL line (see
    /// [`netsim::telemetry`]) until [`Network::take_trace`] drains it.
    /// Off by default. Tracing only observes, so a traced run simulates
    /// the same bits as an untraced one; the buffer lives in memory, so
    /// keep traced runs to a few simulated milliseconds.
    pub fn enable_trace(&mut self) {
        self.trace.get_or_insert_with(JsonlSink::new);
    }

    /// The JSONL bytes recorded since tracing was enabled or last
    /// drained; tracing stays on. Empty when tracing is off.
    pub fn take_trace(&mut self) -> Vec<u8> {
        self.trace
            .as_mut()
            .map_or_else(Vec::new, |t| std::mem::take(t).into_bytes())
    }

    /// The audit log, if auditing is enabled.
    pub fn audit_log(&self) -> Option<&AuditLog> {
        self.audit.as_ref().map(|a| &a.log)
    }

    /// The watchdog's stall report, if the run stalled.
    pub fn stall_report(&self) -> Option<&StallReport> {
        self.stall.as_ref()
    }

    /// Runs one audit sweep immediately (enabling auditing with the
    /// default config if needed) and returns the violations found by
    /// *this* sweep.
    pub fn audit_now(&mut self) -> u64 {
        let mut st = self.audit.take().unwrap_or_else(|| AuditState {
            cfg: AuditConfig::default(),
            log: AuditLog::new(),
            next_at: self.now,
        });
        let found = self.audit_pass(self.now, &mut st.log);
        self.audit = Some(st);
        found
    }

    /// Mints a spurious credit on router `router`'s output `(port, vc)`
    /// — a deliberate credit-accounting bug for mutation-testing the
    /// audit layer (a credit that matches no freed downstream slot).
    pub fn inject_credit_fault(&mut self, router: RouterId, port: PortId, vc: VcId) {
        self.routers[router.index()].receive_credit(port, vc);
    }

    /// Discards every downstream credit of router `router`'s output
    /// `(port, vc)` — the opposite flow-control fault to
    /// [`Network::inject_credit_fault`]. Applied to an ejection port
    /// (whose endpoint never returns credits) before traffic flows, the
    /// VC is starved forever: flits routed to it stall indefinitely.
    /// Mutation-testing hook for the delay-bound oracle, which must flag
    /// the stuck messages as bound violations.
    pub fn inject_credit_starvation(&mut self, router: RouterId, port: PortId, vc: VcId) {
        self.routers[router.index()].init_credits(port, vc, 0);
    }

    /// Forwarding-progress signature: strictly increases whenever any
    /// flit moves (onto a link, across a crossbar, or into a sink).
    fn progress_signature(&self) -> u64 {
        let crossed: u64 = self.routers.iter().map(Router::flits_crossed).sum();
        self.sinks.delivered_flits + crossed + self.total_link_sends
    }

    /// Per-cycle safety checks: the periodic audit sweep and the
    /// watchdog's progress test. Only called when at least one of the two
    /// is enabled.
    fn safety_check(&mut self) {
        let now = self.now;
        if let Some(mut st) = self.audit.take() {
            if now >= st.next_at {
                self.audit_pass(now, &mut st.log);
                st.next_at = now + Cycles(st.cfg.interval);
            }
            self.audit = Some(st);
        }
        if let Some(mut wd) = self.watchdog.take() {
            let sig = self.progress_signature();
            if self.flits_in_flight == 0 {
                wd.last_signature = DRAINED;
                wd.last_progress_at = now;
            } else if sig != wd.last_signature {
                wd.last_signature = sig;
                wd.last_progress_at = now;
            } else if (now - wd.last_progress_at).get() >= wd.cfg.stall_cycles {
                self.stall = Some(self.build_stall_report(now - wd.last_progress_at));
                wd.last_progress_at = now;
            }
            self.watchdog = Some(wd);
        }
    }

    /// One full audit sweep: router-local invariants, credit conservation
    /// around every link, and global flit conservation. Returns the
    /// violations found by this sweep.
    fn audit_pass(&self, now: Cycles, log: &mut AuditLog) -> u64 {
        use netsim::audit::{Violation, ViolationKind};
        let before = log.total();
        for r in &self.routers {
            r.audit(now, log);
        }
        let vcs = self.routers[0].partition().total();
        for lp in &self.links {
            match (lp.tx, lp.rx) {
                (_, RxSide::RouterIn { router, port }) => {
                    self.audit_credit_books(now, log, lp, router, port);
                }
                (TxSide::RouterOut { router: r, port: p }, RxSide::Node) => {
                    // Endpoints never return credits: the credit channel
                    // of an ejection link must stay idle, and the
                    // endpoint credit pool can only drain.
                    if !lp.credit.is_idle() {
                        log.record(Violation {
                            cycle: now.get(),
                            router: Some(r as u32),
                            port: p.get(),
                            vc: 0,
                            kind: ViolationKind::CreditConservation,
                            detail: format!(
                                "{} credits in flight on an ejection link",
                                lp.credit.in_flight()
                            ),
                        });
                    }
                    for v in 0..vcs {
                        let held = self.routers[r].credits_of(p, VcId(v));
                        if held > ENDPOINT_CREDITS {
                            log.record(Violation {
                                cycle: now.get(),
                                router: Some(r as u32),
                                port: p.get(),
                                vc: v,
                                kind: ViolationKind::CreditOverflow,
                                detail: format!(
                                    "{held} credits exceed the endpoint pool {ENDPOINT_CREDITS}"
                                ),
                            });
                        }
                    }
                }
                (TxSide::Ni { .. }, RxSide::Node) => {
                    unreachable!("an injection link never ends at a node")
                }
            }
        }
        // Active-set conservation: a link must be in the active set
        // exactly when it has traffic in flight, an NI VC in its
        // endpoint's ready set exactly when it holds a message and a
        // credit, and an endpoint in the active set exactly when it has a
        // ready VC. The stepper scans only the members, so a desync
        // silently strands traffic.
        let mut desync = |port: u32, detail: String| {
            log.record(Violation {
                cycle: now.get(),
                router: None,
                port,
                vc: 0,
                kind: ViolationKind::ActiveSetDesync,
                detail,
            });
        };
        let sets = [
            (&self.active_links, self.busy_links(), "links"),
            (&self.active_eps, self.ready_eps(), "endpoints"),
        ];
        for (live, want, what) in sets {
            if *live != want {
                desync(0, format!("active {what} {live:?}, re-derived {want:?}"));
            }
        }
        // An endpoint's violation carries its node id as the port.
        for (n, ep) in self.endpoints.iter().enumerate() {
            let (live, want) = (&ep.ready, ep.ready_vcs());
            if *live != want {
                desync(n as u32, format!("ready VCs {live:?}, re-derived {want:?}"));
            }
        }
        // Global flit conservation: everything injected but undelivered
        // must be somewhere — an NI queue, a link, or a router buffer.
        let in_nis: u64 = self.endpoints.iter().map(Endpoint::backlog).sum();
        let on_links: u64 = self.links.iter().map(|lp| lp.flit.in_flight() as u64).sum();
        let in_routers: u64 = self.routers.iter().map(Router::buffered_flits).sum();
        let present = in_nis + on_links + in_routers;
        if present != self.flits_in_flight {
            log.record(Violation {
                cycle: now.get(),
                router: None,
                port: 0,
                vc: 0,
                kind: ViolationKind::FlitConservation,
                detail: format!(
                    "{in_nis} queued + {on_links} on links + {in_routers} in routers = \
                     {present}, but {} flits are in flight",
                    self.flits_in_flight
                ),
            });
        }
        log.total() - before
    }

    /// Per-VC credit books of link `lp`, which feeds router `rx`'s input
    /// port `rx_port` from a router output or an NI: the sender holds at
    /// most the buffer depth, and held + returning + on wire + buffered
    /// equals it. Violations name the sender (an NI by its node id, with
    /// no router).
    fn audit_credit_books(
        &self,
        now: Cycles,
        log: &mut AuditLog,
        lp: &LinkPair,
        rx: usize,
        rx_port: PortId,
    ) {
        use netsim::audit::{Violation, ViolationKind};
        let cap = self.buf_flits;
        let (router, port, what, held_as) = match lp.tx {
            TxSide::RouterOut { router, port } => {
                (Some(router as u32), port.get(), "credits", "held")
            }
            TxSide::Ni { node } => (None, node as u32, "NI credits", "NI credits"),
        };
        for v in 0..self.routers[0].partition().total() {
            let vc = VcId(v);
            let held = match lp.tx {
                TxSide::RouterOut { router, port } => self.routers[router].credits_of(port, vc),
                TxSide::Ni { node } => self.endpoints[node].credits[vc.index()],
            };
            let violation = |kind, detail| Violation {
                cycle: now.get(),
                router,
                port,
                vc: v,
                kind,
                detail,
            };
            if held > cap {
                log.record(violation(
                    ViolationKind::CreditOverflow,
                    format!("{held} {what} for a {cap}-slot buffer"),
                ));
            }
            let returning = lp.credit.iter_in_flight().filter(|c| *c == vc).count() as u32;
            let on_wire = lp.flit.iter_in_flight().filter(|f| f.vc == vc).count() as u32;
            let buffered = self.routers[rx].input_buffered(rx_port, vc) as u32;
            let total = held + returning + on_wire + buffered;
            if total != cap {
                log.record(violation(
                    ViolationKind::CreditConservation,
                    format!(
                        "{held} {held_as} + {returning} returning + {on_wire} on wire + \
                         {buffered} buffered = {total}, capacity {cap}"
                    ),
                ));
            }
        }
    }

    /// Builds the watchdog's structured stall report: the waits-for graph
    /// over held output VCs, classified deadlock (cycle) vs. starvation.
    fn build_stall_report(&self, stalled_for: Cycles) -> StallReport {
        let topology = &self.topology;
        let downstream = |r: usize, p: PortId| -> Option<(usize, PortId)> {
            match topology.target_of(RouterId(r as u32), p) {
                PortTarget::Router { router, port } => Some((router.index(), port)),
                PortTarget::Node(_) => None,
            }
        };
        let route = |r: usize, f: &Flit| topology.route(RouterId(r as u32), f.dest).to_vec();
        let (mut holders, adj) = crate::audit::build_waits_for(&self.routers, &downstream, &route);
        let on_cycle = crate::audit::find_cycle_nodes(&adj);
        let mut any_cycle = false;
        for (h, on) in holders.iter_mut().zip(&on_cycle) {
            h.on_cycle = *on;
            any_cycle |= *on;
        }
        let ni_backlog: u64 = self.endpoints.iter().map(Endpoint::backlog).sum();
        StallReport {
            cycle: self.now.get(),
            stalled_for: stalled_for.get(),
            kind: if any_cycle {
                StallKind::Deadlock
            } else {
                StallKind::Starvation
            },
            flits_in_flight: self.flits_in_flight,
            ni_backlog,
            holders,
        }
    }

    // ---- checkpoint / restore --------------------------------------------

    /// Serialises the network's complete mutable state into a versioned,
    /// checksummed snapshot.
    ///
    /// The snapshot covers everything a restored run needs to continue
    /// bit-identically: the clock, in-flight accounting, the workload's
    /// RNG stream and per-source positions, the injection calendar with
    /// each source's next message (and the tie-break sequence numbers),
    /// NI queues and credits, every router's buffers/grants/credits/
    /// schedulers/counters, every link's wire state, the destination-side
    /// trackers, and the audit/watchdog/stall state. Structural state
    /// (topology, wiring, configuration) is *not* written — [`Network::
    /// restore`] requires a network freshly built from the same inputs.
    ///
    /// The derived active sets (busy links, NI VCs and endpoints that can
    /// send, router pending/granted/staged sets) are recomputed on
    /// restore from the restored buffers and credits; they are pure
    /// functions of that state (the predicates the `ActiveSetDesync`
    /// audit checks).
    pub fn snapshot(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.u64(self.now.0);
        w.u64(self.flits_in_flight);
        w.u64(self.injected_msgs);
        w.u64(self.total_link_sends);
        self.workload.save(&mut w);
        w.u64(self.calendar.next_seq());
        let entries = self.calendar.snapshot_entries();
        w.usize(entries.len());
        for (at, seq, (idx, msg)) in entries {
            w.u64(at.0);
            w.u64(seq);
            w.usize(*idx);
            w.u32(msg.src.0);
            msg.flits.head().save(&mut w);
        }
        for ep in &self.endpoints {
            for q in &ep.queues {
                w.usize(q.len());
                for e in q {
                    e.head.save(&mut w);
                    w.u32(e.next);
                }
            }
            ep.sched.save(&mut w);
            for &c in &ep.credits {
                w.u32(c);
            }
            w.option(ep.current, |w, v| w.usize(v));
        }
        for r in &self.routers {
            r.save(&mut w);
        }
        for lp in &self.links {
            lp.flit.save(&mut w);
            lp.credit.save(&mut w);
        }
        self.sinks.delivery.save(&mut w);
        self.sinks.latency.save(&mut w);
        self.sinks.frame_tails.save(&mut w);
        w.u64(self.sinks.delivered_msgs);
        w.u64(self.sinks.delivered_flits);
        w.usize(self.sinks.rt_latency.len());
        for st in &self.sinks.rt_latency {
            st.save(&mut w);
        }
        w.u64(self.sinks.rt_warmup_end.0);
        w.option(self.audit.as_ref(), |w, st| {
            w.u64(st.cfg.interval);
            w.u64(st.next_at.0);
            st.log.save(w);
        });
        w.option(self.watchdog.as_ref(), |w, wd| {
            w.u64(wd.cfg.stall_cycles);
            w.u64(wd.last_signature);
            w.u64(wd.last_progress_at.0);
        });
        w.option(self.stall.as_ref(), |w, s| s.save(w));
        w.finish()
    }

    /// Restores state saved by [`Network::snapshot`] into this network,
    /// which must have been freshly built by [`Network::new`] from the
    /// *same* topology, workload-builder inputs and router configuration.
    /// After a successful restore, stepping this network produces
    /// bit-identical counters, traces and reports to the run the snapshot
    /// was taken from.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapError`] if the snapshot is corrupt (bad magic,
    /// version, length or checksum), truncated, or structurally
    /// incompatible with this network (wrong link/source/router counts).
    ///
    /// # Panics
    ///
    /// Panics if this network has already been stepped (it must be
    /// freshly constructed).
    pub fn restore(&mut self, bytes: &[u8]) -> Result<(), SnapError> {
        assert_eq!(
            self.flits_in_flight, 0,
            "restore target network must be freshly constructed"
        );
        let mut r = SnapReader::new(bytes)?;
        self.now = Cycles(r.u64()?);
        self.flits_in_flight = r.u64()?;
        self.injected_msgs = r.u64()?;
        self.total_link_sends = r.u64()?;
        self.workload.load_into(&mut r)?;
        let next_seq = r.u64()?;
        // Every source has exactly one message in the calendar.
        let sources = self.workload.source_count();
        if r.usize()? != sources {
            return Err(SnapError::BadValue("calendar size is not the source count"));
        }
        let mut seen = vec![false; sources];
        let mut seqs = Vec::with_capacity(sources);
        let mut entries = Vec::with_capacity(sources);
        for _ in 0..sources {
            let at = Cycles(r.u64()?);
            let seq = r.u64()?;
            let idx = r.usize()?;
            let src = NodeId(r.u32()?);
            let head = Flit::load_head(&mut r)?;
            if idx >= sources || seen[idx] || seq >= next_seq {
                return Err(SnapError::BadValue(
                    "calendar entry out of range or repeating a source",
                ));
            }
            seen[idx] = true;
            seqs.push(seq);
            let ep = self.endpoints.get(src.index());
            if ep.is_none_or(|ep| head.vc.index() >= ep.queues.len()) {
                return Err(SnapError::BadValue(
                    "scheduled message source or VC out of range",
                ));
            }
            let flits = Worm::new(head);
            entries.push((at, seq, (idx, ScheduledMessage { at, src, flits })));
        }
        // Each schedule draws a fresh `seq`, so two entries sharing one
        // would tie in the heap and pop in an order no run produces.
        seqs.sort_unstable();
        if seqs.windows(2).any(|w| w[0] == w[1]) {
            return Err(SnapError::BadValue("calendar entries sharing a seq"));
        }
        self.calendar = Calendar::from_snapshot(entries, next_seq);
        for ep in &mut self.endpoints {
            for q in &mut ep.queues {
                let n = r.usize()?;
                q.clear();
                for _ in 0..n {
                    let head = Flit::load_head(&mut r)?;
                    let next = r.u32()?;
                    if next >= head.msg_len {
                        return Err(SnapError::BadValue("NI message cursor past its tail"));
                    }
                    q.push_back(NiMsg { head, next });
                }
            }
            ep.sched.load_into(&mut r)?;
            // The NI multiplexer's runs cover every flit still to send.
            for (v, q) in ep.queues.iter().enumerate() {
                if ep.sched.pending(v) as u64 != q.iter().map(NiMsg::remaining).sum::<u64>() {
                    return Err(SnapError::BadValue("NI runs disagree with queued flits"));
                }
            }
            for c in &mut ep.credits {
                *c = r.u32()?;
            }
            ep.current = r.option(|r| r.usize())?;
            if ep.current.is_some_and(|v| v >= ep.queues.len()) {
                return Err(SnapError::BadValue("NI current VC out of range"));
            }
            ep.ready = ep.ready_vcs();
        }
        for router in &mut self.routers {
            router.load_into(&mut r)?;
        }
        for lp in &mut self.links {
            lp.flit.load_into(&mut r)?;
            lp.credit.load_into(&mut r)?;
        }
        self.sinks.delivery.load_into(&mut r)?;
        self.sinks.latency.load_into(&mut r)?;
        self.sinks.frame_tails = FrameTails::load(&mut r)?;
        self.sinks.delivered_msgs = r.u64()?;
        self.sinks.delivered_flits = r.u64()?;
        let n = r.usize()?;
        self.sinks.rt_latency.clear();
        for _ in 0..n {
            self.sinks.rt_latency.push(RunningStats::load(&mut r)?);
        }
        self.sinks.rt_warmup_end = Cycles(r.u64()?);
        self.audit = r
            .option(|r| {
                let interval = r.u64()?;
                let next_at = Cycles(r.u64()?);
                let log = AuditLog::load(r)?;
                Ok(AuditState {
                    cfg: AuditConfig { interval },
                    log,
                    next_at,
                })
            })?
            .or_else(|| self.audit.take());
        self.watchdog = r
            .option(|r| {
                let stall_cycles = r.u64()?;
                let last_signature = r.u64()?;
                let last_progress_at = Cycles(r.u64()?);
                Ok(WatchdogState {
                    cfg: WatchdogConfig { stall_cycles },
                    last_signature,
                    last_progress_at,
                })
            })?
            .or_else(|| self.watchdog.take());
        self.stall = r.option(StallReport::load)?;
        r.finish()?;
        // Recompute the derived active sets from the restored state.
        self.active_links = self.busy_links();
        self.active_eps = self.ready_eps();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SchedulerKind;
    use flitnet::VcPartition;
    use traffic::{StreamClass, WorkloadBuilder, WorkloadSpec};

    fn small_workload(load: f64, seed: u64) -> Workload {
        WorkloadBuilder::new(8, VcPartition::all_real_time(16))
            .load(load)
            .mix(100.0, 0.0)
            .real_time_class(StreamClass::Cbr)
            .seed(seed)
            .build()
    }

    #[test]
    fn conservation_all_injected_flits_are_delivered() {
        let topology = Topology::single_switch(8);
        let cfg = RouterConfig::default();
        let mut net = Network::new(&topology, small_workload(0.3, 1), &cfg);
        let end = net.timebase().cycles_from_ms(40.0);
        net.run_until(end);
        assert!(net.injected_msgs() > 100, "workload should be active");
        // Drain: stop time only after everything in flight lands. Run a
        // little longer and compare.
        let drain = net.now() + Cycles(500_000);
        net.run_until(drain);
        // All flits that were injected must have been delivered (modulo
        // the ones injected in the drain window still moving — at 0.3 load
        // the network drains within a frame interval).
        assert!(
            net.delivered_flits() * 100 >= net.injected_msgs() * 20 * 95,
            "delivered {} of {} msgs",
            net.delivered_flits() / 20,
            net.injected_msgs()
        );
    }

    #[test]
    fn low_load_cbr_is_jitter_free() {
        let topology = Topology::single_switch(8);
        let cfg = RouterConfig::default();
        let mut net = Network::new(&topology, small_workload(0.4, 2), &cfg);
        let tb = net.timebase();
        net.set_warmup_end(tb.cycles_from_ms(40.0));
        net.run_until(tb.cycles_from_ms(150.0));
        let s = net.delivery().summary();
        assert!(
            s.intervals > 50,
            "need interval samples, got {}",
            s.intervals
        );
        assert!(
            s.is_jitter_free(33.0, 0.8),
            "expected jitter-free at low load: d={} σ={}",
            s.mean_ms,
            s.std_ms
        );
    }

    #[test]
    fn mixed_traffic_records_best_effort_latency() {
        let topology = Topology::single_switch(8);
        let wl = WorkloadBuilder::new(8, VcPartition::from_mix(16, 50.0, 50.0))
            .load(0.5)
            .mix(50.0, 50.0)
            .seed(3)
            .build();
        let cfg = RouterConfig::default();
        let mut net = Network::new(&topology, wl, &cfg);
        let tb = net.timebase();
        net.run_until(tb.cycles_from_ms(30.0));
        assert!(
            net.latency().count() > 100,
            "best-effort messages must flow"
        );
        let mean = net.latency().mean_us();
        // One switch at half load: latencies should be tens of µs at most.
        assert!(mean > 0.0 && mean < 500.0, "mean latency {mean} µs");
    }

    #[test]
    fn fifo_and_virtual_clock_both_complete() {
        let topology = Topology::single_switch(8);
        for kind in [
            SchedulerKind::Fifo,
            SchedulerKind::VirtualClock,
            SchedulerKind::RoundRobin,
        ] {
            let cfg = RouterConfig::default().scheduler(kind);
            let mut net = Network::new(&topology, small_workload(0.5, 4), &cfg);
            let tb = net.timebase();
            net.run_until(tb.cycles_from_ms(20.0));
            assert!(net.delivered_msgs() > 0, "{kind:?} delivered nothing");
        }
    }

    #[test]
    fn fat_mesh_delivers_across_hops() {
        let topology = Topology::fat_mesh(2, 2, 2, 4);
        let wl = WorkloadBuilder::new(16, VcPartition::all_real_time(16))
            .load(0.3)
            .mix(100.0, 0.0)
            .real_time_class(StreamClass::Cbr)
            .seed(5)
            .build();
        let cfg = RouterConfig::default();
        let mut net = Network::new(&topology, wl, &cfg);
        let tb = net.timebase();
        net.set_warmup_end(tb.cycles_from_ms(40.0));
        net.run_until(tb.cycles_from_ms(120.0));
        let s = net.delivery().summary();
        assert!(
            s.intervals > 50,
            "fat mesh must deliver frames; got {}",
            s.intervals
        );
        assert!(
            s.is_jitter_free(33.0, 1.0),
            "low-load fat mesh should be jitter-free: d={} σ={}",
            s.mean_ms,
            s.std_ms
        );
    }

    #[test]
    fn utilization_tracks_offered_load() {
        let topology = Topology::single_switch(8);
        let cfg = RouterConfig::default();
        let mut net = Network::new(&topology, small_workload(0.5, 9), &cfg);
        let tb = net.timebase();
        // CBR streams start at random phases within the first 33 ms frame
        // interval; measure a window that excludes that ramp-up.
        let (start, end) = (tb.cycles_from_ms(40.0), tb.cycles_from_ms(100.0));
        net.run_until(start);
        let before = net.counters();
        net.run_until(end);
        let after = net.counters();
        // Every output port of the single switch is an ejection link, and
        // they should run near the offered 0.5 load (uniform destinations).
        let sent = (after.rt_flits + after.be_flits) - (before.rt_flits + before.be_flits);
        let mean_out = sent as f64 / (8.0 * (end - start).as_f64());
        assert!((mean_out - 0.5).abs() < 0.06, "mean output util {mean_out}");
    }

    #[test]
    fn counters_balance_with_delivered_flits() {
        let topology = Topology::single_switch(8);
        let cfg = RouterConfig::default();
        let mut net = Network::new(&topology, small_workload(0.3, 7), &cfg);
        let tb = net.timebase();
        net.run_until(tb.cycles_from_ms(20.0));
        let c = net.counters();
        // Single switch, all-real-time workload: every delivered flit
        // crossed exactly one router output.
        assert_eq!(c.be_flits, 0);
        assert!(c.rt_flits >= net.delivered_flits());
        assert!(c.rt_flits <= net.delivered_flits() + net.flits_in_flight());
    }

    #[test]
    fn traced_run_emits_inject_and_deliver_events() {
        let topology = Topology::single_switch(8);
        let cfg = RouterConfig::default();
        let mut net = Network::new(&topology, small_workload(0.3, 8), &cfg);
        let tb = net.timebase();
        net.enable_trace();
        net.run_until(tb.cycles_from_ms(5.0));
        let text = String::from_utf8(net.take_trace()).expect("utf8");
        let injects = text.matches("\"event\":\"inject\"").count() as u64;
        let delivers = text.matches("\"event\":\"deliver\"").count() as u64;
        assert_eq!(injects, net.injected_msgs());
        assert_eq!(delivers, net.delivered_msgs());
        assert!(text.matches("\"event\":\"route\"").count() > 0);
        assert!(text.matches("\"event\":\"arbitrate\"").count() > 0);
    }

    #[test]
    fn traced_run_matches_plain_run() {
        let topology = Topology::single_switch(8);
        let cfg = RouterConfig::default();
        let mut plain = Network::new(&topology, small_workload(0.4, 11), &cfg);
        let mut traced = Network::new(&topology, small_workload(0.4, 11), &cfg);
        traced.enable_trace();
        let tb = plain.timebase();
        let end = tb.cycles_from_ms(25.0);
        plain.run_until(end);
        traced.run_until(end);
        assert_eq!(plain.delivered_flits(), traced.delivered_flits());
        assert_eq!(plain.injected_msgs(), traced.injected_msgs());
        assert_eq!(plain.counters(), traced.counters());
        // Trace state stays out of snapshots.
        assert_eq!(plain.snapshot(), traced.snapshot());
        assert!(!traced.take_trace().is_empty());
        assert!(traced.take_trace().is_empty(), "take_trace drains");
        assert!(
            plain.take_trace().is_empty(),
            "untraced runs record nothing"
        );
    }

    #[test]
    fn small_message_spec_flows() {
        // Single-flit messages exercise the HeadTail path end to end.
        let spec = WorkloadSpec {
            msg_flits: 1,
            ..WorkloadSpec::paper_default()
        };
        let wl = WorkloadBuilder::new(8, VcPartition::all_real_time(4))
            .spec(spec)
            .load(0.2)
            .mix(100.0, 0.0)
            .real_time_class(StreamClass::Cbr)
            .seed(6)
            .build();
        let cfg = RouterConfig::new(4);
        let topology = Topology::single_switch(8);
        let mut net = Network::new(&topology, wl, &cfg);
        let tb = net.timebase();
        net.run_until(tb.cycles_from_ms(5.0));
        assert!(net.delivered_msgs() > 0);
    }

    #[test]
    fn audit_is_clean_on_a_healthy_run() {
        use crate::audit::AuditConfig;
        let topology = Topology::single_switch(8);
        let cfg = RouterConfig::default();
        let mut net = Network::new(&topology, small_workload(0.5, 13), &cfg);
        net.enable_audit(AuditConfig { interval: 64 });
        let tb = net.timebase();
        net.run_until(tb.cycles_from_ms(10.0));
        assert!(net.delivered_msgs() > 0);
        let log = net.audit_log().expect("audit enabled");
        assert!(
            log.is_clean(),
            "healthy run must audit clean, got: {:?}",
            log.violations()
        );
        assert!(net.stall_report().is_none());
    }

    #[test]
    fn audit_catches_an_injected_credit_fault() {
        use crate::audit::AuditConfig;
        let topology = Topology::single_switch(8);
        let cfg = RouterConfig::default();
        let mut net = Network::new(&topology, small_workload(0.5, 14), &cfg);
        net.enable_audit(AuditConfig::every_cycle());
        let tb = net.timebase();
        net.run_until(tb.cycles_from_ms(2.0));
        assert_eq!(net.audit_log().map(|l| l.total()), Some(0));
        // Mutation: hand the router a credit no endpoint ever sent. The
        // per-link credit books no longer balance, and every later sweep
        // must notice.
        net.inject_credit_fault(flitnet::RouterId(0), PortId(3), flitnet::VcId(0));
        let found = net.audit_now();
        assert!(found > 0, "audit must flag the forged credit");
        let log = net.audit_log().expect("audit enabled");
        assert!(!log.is_clean());
        assert!(log
            .violations()
            .iter()
            .any(|v| v.router == Some(0) && v.port == 3 && v.vc == 0));
    }

    /// An 8-port switch at load 0.9, stopped at a cycle where each of
    /// its active sets (router 0's pending set, port 0's granted and
    /// staged sets, the link and endpoint sets) has both members and
    /// non-members; it audits clean.
    fn busy_switch() -> Network {
        let topology = Topology::single_switch(8);
        let cfg = RouterConfig::default();
        let mut net = Network::new(&topology, small_workload(0.9, 16), &cfg);
        net.run_until(Cycles(31_580));
        assert_eq!(net.audit_now(), 0, "{:?}", net.audit_log());
        net
    }

    /// Corrupts the active set `set` picks out of a [`busy_switch`] twice,
    /// by dropping its first member and by adding its first non-member
    /// below `universe`, and asserts that `audit_now` files an
    /// `ActiveSetDesync` violation each time.
    fn assert_corrupted_set_is_flagged(
        universe: usize,
        set: impl Fn(&mut Network) -> &mut ActiveSet,
    ) {
        use netsim::audit::ViolationKind;
        for drop_member in [true, false] {
            let mut net = busy_switch();
            let s = set(&mut net);
            if drop_member {
                let i = s.iter().next().expect("the set has a member");
                s.remove(i);
            } else {
                let i = (0..universe).find(|&i| !s.contains(i));
                s.insert(i.expect("the set has a non-member"));
            }
            assert!(
                net.audit_now() > 0,
                "corruption (drop {drop_member}) missed"
            );
            let log = net.audit_log().expect("audit enabled");
            assert!(
                log.violations()
                    .iter()
                    .any(|v| v.kind == ViolationKind::ActiveSetDesync),
                "{:?}",
                log.violations()
            );
        }
    }

    #[test]
    fn audit_flags_a_corrupted_pending_set() {
        assert_corrupted_set_is_flagged(8 * 16, |net| {
            let [pending, _, _] = net.routers[0].active_sets_mut(0);
            pending
        });
    }

    #[test]
    fn audit_flags_a_corrupted_granted_set() {
        assert_corrupted_set_is_flagged(16, |net| {
            let [_, granted, _] = net.routers[0].active_sets_mut(0);
            granted
        });
    }

    #[test]
    fn audit_flags_a_corrupted_staged_set() {
        assert_corrupted_set_is_flagged(16, |net| {
            let [_, _, staged] = net.routers[0].active_sets_mut(0);
            staged
        });
    }

    #[test]
    fn audit_flags_a_corrupted_active_link_set() {
        assert_corrupted_set_is_flagged(16, |net| &mut net.active_links);
    }

    #[test]
    fn audit_flags_a_corrupted_active_endpoint_set() {
        assert_corrupted_set_is_flagged(8, |net| &mut net.active_eps);
    }

    #[test]
    fn audit_flags_a_corrupted_ready_vc_set() {
        assert_corrupted_set_is_flagged(16, |net| {
            let n = net.active_eps.iter().next().expect("an NI that can send");
            &mut net.endpoints[n].ready
        });
    }

    #[test]
    fn audited_run_matches_unaudited_numbers() {
        use crate::audit::{AuditConfig, WatchdogConfig};
        let topology = Topology::single_switch(8);
        let cfg = RouterConfig::default();
        let mut plain = Network::new(&topology, small_workload(0.4, 15), &cfg);
        let mut checked = Network::new(&topology, small_workload(0.4, 15), &cfg);
        checked.enable_audit(AuditConfig { interval: 256 });
        checked.enable_watchdog(WatchdogConfig::default());
        let tb = plain.timebase();
        let end = tb.cycles_from_ms(20.0);
        plain.run_until(end);
        checked.run_until(end);
        // Observability must not perturb the simulation.
        assert_eq!(plain.delivered_flits(), checked.delivered_flits());
        assert_eq!(plain.injected_msgs(), checked.injected_msgs());
        assert_eq!(plain.counters(), checked.counters());
        assert!(checked.audit_log().expect("enabled").is_clean());
        assert!(checked.stall_report().is_none());
    }

    #[test]
    fn watchdog_classifies_clockwise_ring_deadlock() {
        use crate::audit::{StallKind, WatchdogConfig};
        // A unidirectional ring with a single VC and no dateline has a
        // cyclic channel dependency; deep worms at high load must deadlock.
        let topology = Topology::ring(3, 1);
        let spec = WorkloadSpec {
            msg_flits: 64,
            ..WorkloadSpec::paper_default()
        };
        let wl = WorkloadBuilder::new(3, VcPartition::all_real_time(1))
            .spec(spec)
            .load(0.9)
            .mix(100.0, 0.0)
            .real_time_class(StreamClass::Cbr)
            .seed(16)
            .build();
        let cfg = RouterConfig::new(1).buf_flits(4);
        let mut net = Network::new(&topology, wl, &cfg);
        net.enable_watchdog(WatchdogConfig {
            stall_cycles: 5_000,
        });
        let tb = net.timebase();
        let end = tb.cycles_from_ms(500.0);
        net.run_until(end);
        let stall = net
            .stall_report()
            .expect("1-VC clockwise ring must deadlock");
        assert_eq!(stall.kind, StallKind::Deadlock);
        assert!(stall.flits_in_flight > 0);
        assert!(
            stall.holders.iter().filter(|h| h.on_cycle).count() >= 2,
            "a deadlock cycle spans at least two holders: {:?}",
            stall.holders
        );
        // The run stops at detection instead of spinning to the end.
        assert!(net.now() < end);
        assert_eq!(stall.stalled_for, 5_000);
    }

    #[test]
    fn watchdog_trips_at_the_same_cycle_after_a_drained_span_on_both_drivers() {
        use crate::audit::WatchdogConfig;
        // Every NI starts with zero credits, so the first message can never
        // leave its NI. The drained span before it is jumped by the fast
        // driver and stepped by the oracle; the first busy check must count
        // as progress on both, or the trip cycles drift apart.
        let build = || {
            let topology = Topology::single_switch(8);
            let mut net = Network::new(&topology, small_workload(0.3, 4), &RouterConfig::default());
            net.enable_watchdog(WatchdogConfig {
                stall_cycles: 5_000,
            });
            for ep in &mut net.endpoints {
                ep.credits.iter_mut().for_each(|c| *c = 0);
            }
            net
        };
        let mut fast = build();
        let mut oracle = build();
        let end = fast.timebase().cycles_from_ms(50.0);
        fast.run_until(end);
        oracle.run_until_reference(end);
        let stall = fast.stall_report().expect("credit-less NIs must stall");
        assert_eq!(Some(stall), oracle.stall_report());
        assert_eq!(fast.now(), oracle.now(), "both trip at the same cycle");
        assert!(
            fast.skip_stats().cycles_skipped > 0,
            "the fast driver jumped"
        );
    }

    #[test]
    fn snapshot_round_trip_is_bit_identical() {
        let topology = Topology::single_switch(8);
        let cfg = RouterConfig::default();
        let mut a = Network::new(&topology, small_workload(0.5, 21), &cfg);
        let tb = a.timebase();
        a.run_until(tb.cycles_from_ms(10.0));
        let bytes = a.snapshot();

        let mut b = Network::new(&topology, small_workload(0.5, 21), &cfg);
        b.restore(&bytes).expect("restore");
        assert_eq!(a.now(), b.now());
        assert_eq!(a.injected_msgs(), b.injected_msgs());
        assert_eq!(a.flits_in_flight(), b.flits_in_flight());
        assert_eq!(
            bytes,
            b.snapshot(),
            "re-snapshot after restore must be byte-identical"
        );

        let end = tb.cycles_from_ms(25.0);
        a.run_until(end);
        b.run_until(end);
        assert_eq!(a.injected_msgs(), b.injected_msgs());
        assert_eq!(a.delivered_msgs(), b.delivered_msgs());
        assert_eq!(a.delivered_flits(), b.delivered_flits());
        assert_eq!(a.counters(), b.counters());
        assert_eq!(
            a.snapshot(),
            b.snapshot(),
            "states diverge after the restore point"
        );
    }

    #[test]
    fn snapshot_round_trip_with_audit_and_mixed_traffic() {
        use crate::audit::{AuditConfig, WatchdogConfig};
        let topology = Topology::fat_mesh(2, 2, 2, 4);
        let build = || {
            WorkloadBuilder::new(16, VcPartition::from_mix(16, 50.0, 50.0))
                .load(0.6)
                .mix(50.0, 50.0)
                .seed(22)
                .build()
        };
        let cfg = RouterConfig::default();
        let mut a = Network::new(&topology, build(), &cfg);
        a.enable_audit(AuditConfig { interval: 64 });
        a.enable_watchdog(WatchdogConfig::default());
        let tb = a.timebase();
        a.set_warmup_end(tb.cycles_from_ms(5.0));
        a.run_until(tb.cycles_from_ms(12.0));
        let bytes = a.snapshot();

        // The snapshot carries the audit/watchdog state, so the restored
        // network does not need them re-enabled by the caller.
        let mut b = Network::new(&topology, build(), &cfg);
        b.restore(&bytes).expect("restore");
        let end = tb.cycles_from_ms(20.0);
        a.run_until(end);
        b.run_until(end);
        assert_eq!(a.delivered_flits(), b.delivered_flits());
        assert_eq!(a.counters(), b.counters());
        assert_eq!(
            a.audit_log().map(|l| l.total()),
            b.audit_log().map(|l| l.total())
        );
        assert_eq!(a.snapshot(), b.snapshot());
    }

    #[test]
    fn restore_rejects_corrupted_bytes() {
        let topology = Topology::single_switch(8);
        let cfg = RouterConfig::default();
        let mut a = Network::new(&topology, small_workload(0.4, 23), &cfg);
        let tb = a.timebase();
        a.run_until(tb.cycles_from_ms(2.0));
        let mut bytes = a.snapshot();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x5a;
        let mut b = Network::new(&topology, small_workload(0.4, 23), &cfg);
        assert!(b.restore(&bytes).is_err(), "corruption must be detected");
    }

    /// Steps `net` one cycle at a time until some NI is part-way through
    /// a worm, and returns that message as `(endpoint, vc, cursor)`.
    fn run_to_mid_worm(net: &mut Network) -> (usize, usize, u32) {
        for _ in 0..100_000 {
            let entry = net.endpoints.iter().enumerate().find_map(|(n, ep)| {
                ep.queues
                    .iter()
                    .enumerate()
                    .find_map(|(v, q)| q.front().filter(|e| e.next > 0).map(|e| (n, v, e.next)))
            });
            if let Some(entry) = entry {
                return entry;
            }
            net.run_until(net.now() + Cycles(1));
        }
        panic!("no NI was part-way through a worm");
    }

    #[test]
    fn snapshot_mid_worm_at_the_ni_restores_bit_identically() {
        use crate::audit::AuditConfig;
        let topology = Topology::single_switch(8);
        let cfg = RouterConfig::default();
        let mut a = Network::new(&topology, small_workload(0.9, 24), &cfg);
        a.enable_audit(AuditConfig { interval: 1 });
        let tb = a.timebase();
        a.run_until(tb.cycles_from_ms(5.0));
        let (n, v, next) = run_to_mid_worm(&mut a);
        let bytes = a.snapshot();

        let mut b = Network::new(&topology, small_workload(0.9, 24), &cfg);
        b.restore(&bytes).expect("restore");
        assert_eq!(b.endpoints[n].queues[v].front().map(|e| e.next), Some(next));
        assert_eq!(b.endpoints[n].backlog(), a.endpoints[n].backlog());
        assert_eq!(b.endpoints[n].ready, a.endpoints[n].ready);
        assert_eq!(bytes, b.snapshot(), "re-snapshot must be byte-identical");

        let end = tb.cycles_from_ms(15.0);
        a.run_until(end);
        b.run_until(end);
        assert_eq!(a.delivered_flits(), b.delivered_flits());
        assert_eq!(a.counters(), b.counters());
        assert_eq!(a.snapshot(), b.snapshot());
        // The audit recounts NI flits from the cursors every cycle.
        assert_eq!(a.audit_log().map(|l| l.total()), Some(0));
        assert_eq!(b.audit_log().map(|l| l.total()), Some(0));
    }

    #[test]
    fn restore_rejects_a_v6_image() {
        let topology = Topology::single_switch(8);
        let cfg = RouterConfig::default();
        let mut a = Network::new(&topology, small_workload(0.4, 25), &cfg);
        a.run_until(a.timebase().cycles_from_ms(2.0));
        let mut bytes = a.snapshot();
        // The version word follows the 4-byte magic.
        bytes[4..8].copy_from_slice(&6u32.to_le_bytes());
        let mut b = Network::new(&topology, small_workload(0.4, 25), &cfg);
        assert_eq!(b.restore(&bytes), Err(SnapError::BadVersion { found: 6 }));
    }

    #[test]
    fn restore_rejects_a_flit_outside_its_message() {
        let topology = Topology::single_switch(8);
        let cfg = RouterConfig::default();
        let build = || Network::new(&topology, small_workload(0.9, 28), &cfg);
        let mut good = build();
        good.run_until(good.timebase().cycles_from_ms(5.0));
        while good.routers[0].buffered_flits() == 0 || good.links.iter().all(|lp| lp.flit.is_idle())
        {
            good.run_until(good.now() + Cycles(1));
        }
        // Restores `good`'s image with one flit's position edited by
        // `edit`: a router-buffered flit, or (`on_link`) the first flit
        // on a busy link, re-sent alone on a fresh wire.
        let restore_after = |on_link: bool, edit: &dyn Fn(&mut Flit)| {
            let mut bad = build();
            bad.restore(&good.snapshot()).expect("restore");
            if on_link {
                let lp = bad.links.iter_mut().find(|lp| !lp.flit.is_idle()).unwrap();
                let mut flit = *lp.flit.iter_in_flight().next().unwrap();
                edit(&mut flit);
                lp.flit = Link::new(lp.flit.latency());
                lp.flit.send(bad.now, flit);
            } else {
                edit(bad.routers[0].buffered_flits_mut().next().unwrap());
            }
            build().restore(&bad.snapshot())
        };
        let bad_value = |r: Result<(), SnapError>| matches!(r, Err(SnapError::BadValue(_)));
        for on_link in [false, true] {
            // A position at or past the message's end, and a message of
            // no flits.
            assert!(bad_value(
                restore_after(on_link, &|f| f.seq_in_msg = f.msg_len)
            ));
            assert!(bad_value(
                restore_after(on_link, &|f| f.seq_in_msg += f.msg_len + 3)
            ));
            assert!(bad_value(restore_after(on_link, &|f| {
                f.seq_in_msg = 0;
                f.msg_len = 0;
            })));
        }
        // Untouched, the same image restores.
        assert_eq!(restore_after(false, &|_| {}), Ok(()));
    }

    #[test]
    fn restore_rejects_a_bad_ni_cursor_or_head() {
        let topology = Topology::single_switch(8);
        let cfg = RouterConfig::default();
        let build = || Network::new(&topology, small_workload(0.9, 26), &cfg);
        let mut good = build();
        good.run_until(good.timebase().cycles_from_ms(5.0));
        let (n, v, _) = run_to_mid_worm(&mut good);
        let restore_after = |corrupt: &dyn Fn(&mut Network)| {
            let mut bad = build();
            bad.restore(&good.snapshot()).expect("restore");
            corrupt(&mut bad);
            build().restore(&bad.snapshot())
        };
        let bad_value = |r: Result<(), SnapError>| matches!(r, Err(SnapError::BadValue(_)));

        // An NI cursor at or past its message's tail.
        assert!(bad_value(restore_after(&|net| {
            let e = net.endpoints[n].queues[v].front_mut().unwrap();
            e.next = e.head.msg_len;
        })));
        // An NI cursor in range that no longer matches the NI
        // multiplexer's runs.
        assert!(bad_value(restore_after(&|net| {
            let e = net.endpoints[n].queues[v].front_mut().unwrap();
            e.next = (e.next + 1) % e.head.msg_len;
        })));
        // NI runs holding one flit more than the queued messages.
        assert!(bad_value(restore_after(&|net| {
            let now = net.now();
            let ep = &mut net.endpoints[n];
            let head = ep.queues[v].front().unwrap().head;
            ep.sched.on_arrival(v, now, &head.nth(head.msg_len - 1));
        })));
        // An NI message of no flits.
        assert!(bad_value(restore_after(&|net| {
            let e = net.endpoints[n].queues[v].front_mut().unwrap();
            e.head.msg_len = 0;
            e.next = 0;
        })));
        // An NI entry whose stored flit is not its message's head.
        assert!(bad_value(restore_after(&|net| {
            let e = net.endpoints[n].queues[v].front_mut().unwrap();
            e.head = e.head.nth(e.head.msg_len - 1);
            e.head.msg_len += 1;
        })));
        // Untouched, the same image restores.
        assert_eq!(restore_after(&|_| {}), Ok(()));
    }

    #[test]
    fn restore_rejects_a_calendar_without_each_source_once() {
        let topology = Topology::single_switch(8);
        let cfg = RouterConfig::default();
        let build = || Network::new(&topology, small_workload(0.9, 27), &cfg);
        let mut good = build();
        good.run_until(good.timebase().cycles_from_ms(5.0));
        // Restores `good`'s image with its calendar entries (in pop
        // order) edited by `edit`.
        type Entries = Vec<(Cycles, u64, (usize, ScheduledMessage))>;
        let restore_after = |edit: &dyn Fn(&mut Entries)| {
            let mut bad = build();
            bad.restore(&good.snapshot()).expect("restore");
            let next_seq = bad.calendar.next_seq();
            let mut entries: Vec<_> = bad
                .calendar
                .snapshot_entries()
                .into_iter()
                .map(|(at, seq, &e)| (at, seq, e))
                .collect();
            edit(&mut entries);
            bad.calendar = Calendar::from_snapshot(entries, next_seq);
            build().restore(&bad.snapshot())
        };
        let bad_value = |r: Result<(), SnapError>| matches!(r, Err(SnapError::BadValue(_)));

        // A source missing, and a source repeated in place of another.
        assert!(bad_value(restore_after(&|e| {
            e.pop();
        })));
        assert!(bad_value(restore_after(&|e| {
            e[1].2 .0 = e[0].2 .0;
        })));
        // Two entries sharing a `seq`.
        assert!(bad_value(restore_after(&|e| {
            e[1].1 = e[0].1;
        })));
        // A message from a source or on a VC the network does not have.
        assert!(bad_value(restore_after(&|e| {
            e[0].2 .1.src = NodeId(8);
        })));
        assert!(bad_value(restore_after(&|e| {
            let msg = &mut e[0].2 .1;
            msg.flits = Worm::new(Flit {
                vc: VcId(16),
                ..msg.flits.head()
            });
        })));
        // Untouched, the same image restores and re-snapshots identically.
        assert_eq!(restore_after(&|_| {}), Ok(()));
        let mut b = build();
        b.restore(&good.snapshot()).expect("restore");
        assert_eq!(b.snapshot(), good.snapshot());
    }
}
