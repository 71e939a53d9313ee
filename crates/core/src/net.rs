//! Cycle-accurate network simulation: routers + links + endpoints.
//!
//! [`Network`] instantiates one [`Router`] per switch of a
//! [`topo::Topology`], wires full-duplex links (a flit channel one way and
//! a credit channel back), attaches endpoints (network interfaces with
//! per-VC injection queues), and drives everything cycle by cycle:
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

use flitnet::{CreditLink, Flit, Link, NodeId, PortId, RouterId, VcId};
use metrics::{DeliveryTracker, LatencyTracker};
use netsim::audit::AuditLog;
use netsim::snap::{SnapError, SnapReader, SnapWriter};
use netsim::telemetry::{FlitEvent, FlitEventKind, NoopSink, TelemetrySink};
use netsim::{Calendar, Cycles, RunningStats, TimeBase};
use topo::{PortTarget, Topology};
use traffic::{ScheduledMessage, Workload};

use crate::audit::{AuditConfig, StallKind, StallReport, WatchdogConfig};
use crate::config::RouterConfig;
use crate::counters::{NetCounters, SkipStats};
use crate::router::{sorted_insert, CreditReturn, Departure, Router};
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

/// An endpoint's network interface: per-VC injection queues plus the
/// credit view of the router input buffer it feeds.
#[derive(Debug)]
struct Endpoint {
    queues: Vec<VecDeque<Flit>>,
    sched: MuxScheduler,
    credits: Vec<u32>,
    link: usize,
    /// Flits queued across all VCs: the NI's O(1) idle test (`ni_send`
    /// visits only endpoints with `queued > 0`).
    queued: u64,
    /// VC of the worm currently being injected. The NI drains a message's
    /// flits back-to-back when it can (like a DMA engine), so worms enter
    /// the network compact; pacing between competing worms is the
    /// *router's* job (that is where the paper puts Virtual Clock).
    current: Option<usize>,
    /// Reusable ascending list of the sendable VCs the NI multiplexer
    /// picks from (scratch; never serialized).
    sendable: Vec<usize>,
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
    /// Per real-time stream: `(frame, tails seen)` for each in-flight
    /// frame, sorted ascending by frame id. A stream has at most a
    /// handful of frames in flight, so a sorted small-vec beats a hash
    /// map on the delivery path (no hashing, no rehash allocation).
    frame_tails: Vec<Vec<(u32, u32)>>,
    delivered_msgs: u64,
    delivered_flits: u64,
    /// Per real-time stream: end-to-end message latency in cycles
    /// (injection stamp → tail delivery), for messages created after
    /// warmup. These are the observations the delay-bound audit checks
    /// against the analytic worst case.
    rt_latency: Vec<RunningStats>,
    /// Per real-time stream: creation stamps of injected-but-undelivered
    /// messages, in injection order. A message stuck in the fabric must
    /// still be counted against its delay bound — this is what lets the
    /// audit catch a deadlocked (never-delivering) network.
    rt_outstanding: Vec<VecDeque<u64>>,
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
    calendar: Calendar<usize>,
    staged: Vec<Option<ScheduledMessage>>,
    sinks: Sinks,
    now: Cycles,
    flits_in_flight: u64,
    injected_msgs: u64,
    timebase: TimeBase,
    /// Reusable per-cycle buffer for crossbar credit returns.
    credit_buf: Vec<CreditReturn>,
    /// Reusable per-cycle buffer for output-stage departures.
    depart_buf: Vec<Departure>,
    /// Links with at least one flit or credit in flight; `deliver` scans
    /// only these, so idle links cost nothing per cycle. Kept sorted
    /// ascending so the scan visits links in the same order as the
    /// full-scan reference (delivery order is observable: it fixes the
    /// float-accumulation order in the trackers and the trace byte
    /// order).
    active_links: Vec<usize>,
    /// Whether each link is in `active_links` (same indexing as `links`).
    link_active: Vec<bool>,
    /// Endpoints with flits queued at the NI; `ni_send` scans only these.
    /// Sorted ascending for the same order-identity reason as
    /// `active_links`. An endpoint joins on injection and leaves once its
    /// queues drain (`queued == 0` — which implies no open worm, since a
    /// message's flits are queued atomically).
    active_eps: Vec<usize>,
    /// Whether each endpoint is in `active_eps`.
    ep_active: Vec<bool>,
    /// Flits sent per link (same indexing as `links`), for utilisation
    /// statistics.
    link_sent: Vec<u64>,
    /// Start of the current link-statistics window (see
    /// [`Network::reset_link_stats`]).
    stats_start: Cycles,
    /// Whether endpoint inject/deliver events go to the telemetry sink.
    /// Mirrors the per-router flag; set from the sink at the start of
    /// [`Network::run_until_with`].
    trace: bool,
    /// Downstream input-buffer depth per VC (the audit's conservation
    /// checks need the capacity the credits were initialised from).
    buf_flits: u32,
    /// Monotone count of flits put on any link. Never reset (unlike
    /// `link_sent`, which [`Network::reset_link_stats`] zeroes), so the
    /// watchdog can use it as a forwarding-progress signal.
    total_link_sends: u64,
    /// Invariant audit sweep; `None` (the default) costs nothing.
    audit: Option<AuditState>,
    /// Progress watchdog; `None` (the default) costs nothing.
    watchdog: Option<WatchdogState>,
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
                queued: 0,
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

        // Stage the first message of every source.
        let mut calendar = Calendar::with_capacity(workload.source_count());
        let mut staged = Vec::with_capacity(workload.source_count());
        let mut workload = workload;
        for i in 0..workload.source_count() {
            let msg = workload.next_message(i);
            assert!(
                msg.src.index() < node_count,
                "workload source {} out of the topology's node range",
                msg.src
            );
            calendar.schedule(msg.at, i);
            staged.push(Some(msg));
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
            staged,
            sinks: Sinks {
                delivery: DeliveryTracker::new(timebase),
                latency: LatencyTracker::new(timebase),
                frame_tails: Vec::new(),
                delivered_msgs: 0,
                delivered_flits: 0,
                rt_latency: Vec::new(),
                rt_outstanding: Vec::new(),
                rt_warmup_end: Cycles::ZERO,
            },
            now: Cycles::ZERO,
            flits_in_flight: 0,
            injected_msgs: 0,
            timebase,
            credit_buf: Vec::new(),
            depart_buf: Vec::new(),
            active_links: Vec::new(),
            link_active: vec![false; link_count],
            active_eps: Vec::new(),
            ep_active: vec![false; node_count],
            link_sent: vec![0; link_count],
            stats_start: Cycles::ZERO,
            trace: false,
            buf_flits: cfg.buf_flits_value(),
            total_link_sends: 0,
            audit: None,
            watchdog: None,
            stall: None,
            skip: SkipStats::default(),
        }
    }

    /// Marks link `l` as carrying traffic so `deliver` will scan it.
    fn activate_link(link_active: &mut [bool], active_links: &mut Vec<usize>, l: usize) {
        if !link_active[l] {
            link_active[l] = true;
            sorted_insert(active_links, l);
        }
    }

    /// Marks endpoint `n` as having queued flits so `ni_send` will scan
    /// it.
    fn activate_ep(ep_active: &mut [bool], active_eps: &mut Vec<usize>, n: usize) {
        if !ep_active[n] {
            ep_active[n] = true;
            sorted_insert(active_eps, n);
        }
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

    /// The creation stamp of stream `s`'s oldest injected-but-undelivered
    /// message, if any. `now − stamp` is a latency already *incurred* —
    /// the delay-bound audit charges stuck messages with it.
    pub fn rt_oldest_outstanding(&self, s: usize) -> Option<u64> {
        self.sinks
            .rt_outstanding
            .get(s)
            .and_then(|q| q.front().copied())
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

    /// Cycles elapsed in the current link-statistics window.
    fn stats_window(&self) -> Cycles {
        self.now - self.stats_start
    }

    /// Zeroes the per-link flit counters and restarts the utilisation
    /// window at the current cycle.
    ///
    /// Utilisation queries divide by cycles elapsed *since this call*
    /// (or since construction), so a caller can exclude the start-up
    /// transient — CBR streams begin at random phases within the first
    /// frame interval, which otherwise dilutes a whole-run average.
    pub fn reset_link_stats(&mut self) {
        self.link_sent.fill(0);
        self.stats_start = self.now;
    }

    /// Utilisation of router `r`'s output link on port `p`: flits sent
    /// divided by cycles elapsed in the statistics window (0.0 before
    /// the clock advances past the window start).
    pub fn link_utilization(&self, r: flitnet::RouterId, p: PortId) -> f64 {
        let window = self.stats_window();
        if window == Cycles::ZERO {
            return 0.0;
        }
        let l = self.out_link[r.index()][p.index()];
        self.link_sent[l] as f64 / window.as_f64()
    }

    /// Utilisation of `node`'s injection link.
    pub fn injection_utilization(&self, node: NodeId) -> f64 {
        let window = self.stats_window();
        if window == Cycles::ZERO {
            return 0.0;
        }
        let l = self.endpoints[node.index()].link;
        self.link_sent[l] as f64 / window.as_f64()
    }

    /// Network-wide telemetry counter totals summed over all routers.
    pub fn counters(&self) -> NetCounters {
        let mut t = NetCounters::default();
        for r in &self.routers {
            t.absorb(&r.counters().totals());
        }
        t
    }

    /// Sums router allocator diagnostics
    /// `(active_cycles, conflict_losses, empty_slots)`.
    pub fn alloc_diag(&self) -> (u64, u64, u64) {
        let mut d = (0, 0, 0);
        for r in &self.routers {
            let rd = r.diag();
            d.0 += rd.0;
            d.1 += rd.1;
            d.2 += rd.2;
        }
        d
    }

    /// Runs the simulation until cycle `end`.
    pub fn run_until(&mut self, end: Cycles) {
        self.run_until_with(end, &mut NoopSink);
    }

    /// Runs the simulation until cycle `end`, streaming flit events into
    /// `sink`.
    ///
    /// Tracing is armed from `sink.is_enabled()` once, up front, so a
    /// [`NoopSink`] run executes the exact same instruction stream as
    /// [`Network::run_until`] — the per-flit guard is a cached boolean,
    /// not a virtual call.
    /// When the audit or the watchdog is enabled (see
    /// [`Network::enable_audit`] / [`Network::enable_watchdog`]), each
    /// cycle additionally runs the safety checks; a detected stall stops
    /// the run early with a [`StallReport`] available from
    /// [`Network::stall_report`].
    pub fn run_until_with(&mut self, end: Cycles, sink: &mut dyn TelemetrySink) {
        self.run_until_impl(end, sink, false);
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
    /// existed. The audit and watchdog run exactly as under
    /// [`Network::run_until`]. Kept for the bit-identity tests: a run here
    /// must produce exactly the same counters, stall reports, snapshots
    /// and trace bytes as the fast driver.
    pub fn run_until_reference(&mut self, end: Cycles) {
        self.run_until_reference_with(end, &mut NoopSink);
    }

    /// [`Network::run_until_reference`], streaming flit events into
    /// `sink`.
    pub fn run_until_reference_with(&mut self, end: Cycles, sink: &mut dyn TelemetrySink) {
        self.run_until_impl(end, sink, true);
    }

    /// The sequential driver loop; `oracle` selects full scans with every
    /// cycle stepped, otherwise active-set scans with horizon jumps.
    fn run_until_impl(&mut self, end: Cycles, sink: &mut dyn TelemetrySink, oracle: bool) {
        self.set_tracing(sink.is_enabled());
        let checked = self.audit.is_some() || self.watchdog.is_some();
        while self.now < end {
            if !oracle && self.try_horizon_jump(end) {
                continue;
            }
            self.step_impl(sink, oracle);
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
    /// flits) and every backlogged NI is credit-blocked on all its VCs.
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
        self.routers.iter().all(|r| !r.has_work())
            && self.active_eps.iter().all(|&n| {
                let ep = &self.endpoints[n];
                !ep.queues
                    .iter()
                    .zip(&ep.credits)
                    .any(|(q, &c)| !q.is_empty() && c > 0)
            })
    }

    /// The earliest future cycle at which any component can act: the next
    /// calendar injection, the earliest in-flight flit or credit arrival
    /// across the active links, and — when enabled — the next audit sweep
    /// and the watchdog's trip deadline. `Cycles(u64::MAX)` if none of
    /// those exist (an empty network with an exhausted calendar).
    ///
    /// The link terms are O(1) head loads per active link
    /// ([`Link::earliest_arrival`]); during quiescent spans the active
    /// link list is exactly the set of wires still carrying state, so the
    /// scan is as small as the span is quiet.
    fn horizon(&self) -> Cycles {
        let mut h = self.calendar.next_at().unwrap_or(Cycles(u64::MAX));
        for &l in &self.active_links {
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
    /// since construction (or [`Network::reset_skip_stats`]).
    pub fn skip_stats(&self) -> SkipStats {
        self.skip
    }

    /// Zeroes the skip counters (e.g. between a warm-up and a measured
    /// window).
    pub fn reset_skip_stats(&mut self) {
        self.skip = SkipStats::default();
    }

    /// Arms or disarms flit-event tracing on the endpoints and every
    /// router.
    fn set_tracing(&mut self, on: bool) {
        self.trace = on;
        for r in &mut self.routers {
            r.set_tracing(on);
        }
    }

    /// Executes one cycle at the current time; `reference` selects the
    /// full-scan phases.
    fn step_impl(&mut self, sink: &mut dyn TelemetrySink, reference: bool) {
        let now = self.now;
        self.inject(now, sink);
        if reference {
            self.deliver_reference(now, sink);
        } else {
            self.deliver(now, sink);
        }
        self.route_and_arbitrate(now, sink, reference);
        self.crossbar(now, sink, reference);
        self.output(now, reference);
        if reference {
            self.ni_send_reference(now);
        } else {
            self.ni_send(now);
        }
    }

    /// Phase 1: fire due injections into the NI queues.
    fn inject(&mut self, now: Cycles, sink: &mut dyn TelemetrySink) {
        while let Some((_, i)) = self.calendar.pop_due(now) {
            let msg = self.staged[i].take().expect("staged message present");
            let ep = &mut self.endpoints[msg.src.index()];
            let v = msg.vc_in.index();
            for flit in &msg.flits {
                ep.queues[v].push_back(*flit);
                ep.sched.on_arrival(v, now, flit);
            }
            ep.queued += msg.flits.len() as u64;
            Self::activate_ep(&mut self.ep_active, &mut self.active_eps, msg.src.index());
            if self.trace {
                // One event per message; `port` holds the source node id
                // (there is no router at the injection point).
                let head = &msg.flits[0];
                sink.record(&FlitEvent {
                    cycle: now.get(),
                    kind: FlitEventKind::Inject,
                    router: None,
                    port: msg.src.get(),
                    vc: msg.vc_in.get(),
                    stream: head.stream.get(),
                    msg: head.msg.get(),
                    real_time: head.class.is_real_time(),
                });
            }
            self.flits_in_flight += msg.flits.len() as u64;
            self.injected_msgs += 1;
            let head = &msg.flits[0];
            if head.class.is_real_time() {
                let s = head.stream.index();
                if s >= self.sinks.rt_outstanding.len() {
                    self.sinks.rt_outstanding.resize_with(s + 1, VecDeque::new);
                }
                self.sinks.rt_outstanding[s].push_back(head.created_at.get());
            }
            let next = self.workload.next_message(i);
            debug_assert!(next.at >= msg.at, "source injections must be monotonic");
            self.calendar.schedule(next.at, i);
            self.staged[i] = Some(next);
        }
    }

    /// Phase 2: link and credit delivery (including sink accounting).
    ///
    /// Only links on the active list are scanned; a link leaves the list
    /// once both its flit and credit channels have drained and rejoins it
    /// on the next send.
    fn deliver(&mut self, now: Cycles, sink: &mut dyn TelemetrySink) {
        let mut i = 0;
        while i < self.active_links.len() {
            let l = self.active_links[i];
            if self.deliver_link(l, now, sink) {
                self.link_active[l] = false;
                // Order-preserving removal keeps the list sorted.
                self.active_links.remove(i);
            } else {
                i += 1;
            }
        }
    }

    /// Phase 2, reference mode: scan *every* link in index order (the
    /// order the sorted active list reproduces), then prune the active
    /// list exactly as the optimized scan would have.
    fn deliver_reference(&mut self, now: Cycles, sink: &mut dyn TelemetrySink) {
        for l in 0..self.links.len() {
            let drained = self.deliver_link(l, now, sink);
            debug_assert!(
                drained || self.link_active[l],
                "a busy link must be on the active list"
            );
        }
        let mut i = 0;
        while i < self.active_links.len() {
            let l = self.active_links[i];
            if self.links[l].flit.is_idle() && self.links[l].credit.is_idle() {
                self.link_active[l] = false;
                self.active_links.remove(i);
            } else {
                i += 1;
            }
        }
    }

    /// Drains everything due on link `l` this cycle; returns whether the
    /// link is now fully idle (nothing left in flight either way).
    fn deliver_link(&mut self, l: usize, now: Cycles, sink: &mut dyn TelemetrySink) -> bool {
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
                        self.trace,
                        sink,
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
                    self.endpoints[node].credits[vc.index()] += 1;
                }
            }
        }
        lp.flit.is_idle() && lp.credit.is_idle()
    }

    fn sink_flit(
        sinks: &mut Sinks,
        in_flight: &mut u64,
        now: Cycles,
        flit: Flit,
        trace: bool,
        tsink: &mut dyn TelemetrySink,
    ) {
        *in_flight -= 1;
        sinks.delivered_flits += 1;
        if !flit.kind.is_tail() {
            return;
        }
        if trace {
            // One event per message, on its tail flit; `port` holds the
            // destination node id.
            tsink.record(&FlitEvent {
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
            // Retire the message from the outstanding FIFO by stamp (not
            // front-pop: fat bundles can deliver messages out of order).
            if let Some(q) = sinks.rt_outstanding.get_mut(s) {
                let stamp = flit.created_at.get();
                if let Some(pos) = q.iter().position(|&c| c == stamp) {
                    q.remove(pos);
                }
            }
            if s >= sinks.frame_tails.len() {
                sinks.frame_tails.resize_with(s + 1, Vec::new);
            }
            let frames = &mut sinks.frame_tails[s];
            let frame = flit.frame.get();
            let pos = frames.partition_point(|&(f, _)| f < frame);
            let tails = match frames.get_mut(pos) {
                Some(entry) if entry.0 == frame => {
                    entry.1 += 1;
                    entry.1
                }
                _ => {
                    frames.insert(pos, (frame, 1));
                    1
                }
            };
            if tails == flit.msgs_in_frame {
                frames.remove(pos);
                sinks.delivery.record_frame(flit.stream, now);
            }
        } else {
            sinks.latency.record(flit.created_at, now);
        }
    }

    /// Phase 3: stages 2–3 on every router.
    fn route_and_arbitrate(&mut self, now: Cycles, sink: &mut dyn TelemetrySink, reference: bool) {
        let topology = &self.topology;
        for (r, router) in self.routers.iter_mut().enumerate() {
            if !router.has_work() {
                continue;
            }
            let rid = RouterId(r as u32);
            if reference {
                router.arbitrate_reference(now, |flit| topology.route_sel(rid, flit.dest), sink);
            } else {
                router.arbitrate(now, |flit| topology.route_sel(rid, flit.dest), sink);
            }
        }
    }

    /// Phase 4: crossbars; send freed-slot credits back upstream.
    fn crossbar(&mut self, now: Cycles, sink: &mut dyn TelemetrySink, reference: bool) {
        let mut credits = std::mem::take(&mut self.credit_buf);
        for r in 0..self.routers.len() {
            if !self.routers[r].has_work() {
                continue;
            }
            credits.clear();
            if reference {
                self.routers[r].crossbar_reference(now, &mut credits, sink);
            } else {
                self.routers[r].crossbar(now, &mut credits, sink);
            }
            for c in &credits {
                let feeder = self.feed_link[r][c.port.index()];
                self.links[feeder].credit.send(now, c.vc);
                Self::activate_link(&mut self.link_active, &mut self.active_links, feeder);
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
                Self::activate_link(&mut self.link_active, &mut self.active_links, l);
                self.link_sent[l] += 1;
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
    fn ni_send(&mut self, now: Cycles) {
        let mut i = 0;
        while i < self.active_eps.len() {
            let n = self.active_eps[i];
            debug_assert!(
                self.endpoints[n].queued > 0,
                "active endpoint must have flits"
            );
            self.ni_send_one(n, now);
            if self.endpoints[n].queued == 0 {
                self.ep_active[n] = false;
                // Order-preserving removal keeps the list sorted.
                self.active_eps.remove(i);
            } else {
                i += 1;
            }
        }
    }

    /// Phase 6, reference mode: scan every endpoint in index order, then
    /// prune the active list exactly as the optimized scan would have.
    fn ni_send_reference(&mut self, now: Cycles) {
        for n in 0..self.endpoints.len() {
            if self.endpoints[n].queues.iter().all(VecDeque::is_empty) {
                debug_assert_eq!(
                    self.endpoints[n].queued, 0,
                    "queued counter must track queues"
                );
                continue;
            }
            debug_assert!(
                self.ep_active[n],
                "a backlogged NI must be on the active list"
            );
            self.ni_send_one(n, now);
        }
        let mut i = 0;
        while i < self.active_eps.len() {
            let n = self.active_eps[i];
            if self.endpoints[n].queued == 0 {
                self.ep_active[n] = false;
                self.active_eps.remove(i);
            } else {
                i += 1;
            }
        }
    }

    /// Lets endpoint `n`'s NI put (at most) one flit on its injection
    /// link.
    fn ni_send_one(&mut self, n: usize, now: Cycles) {
        let ep = &mut self.endpoints[n];
        let Some(flit) = Self::ni_pick(ep) else {
            return;
        };
        let link = ep.link;
        self.links[link].flit.send(now, flit);
        Self::activate_link(&mut self.link_active, &mut self.active_links, link);
        self.link_sent[link] += 1;
        self.total_link_sends += 1;
    }

    /// The NI scheduling decision of [`Network::ni_send_one`], minus the
    /// link send: picks (and dequeues) the flit endpoint `ep` injects
    /// this cycle, if any.
    fn ni_pick(ep: &mut Endpoint) -> Option<Flit> {
        let sendable = |ep: &Endpoint, v: usize| !ep.queues[v].is_empty() && ep.credits[v] > 0;
        let v = match ep.current {
            Some(v) if sendable(ep, v) => v,
            _ => {
                let mut list = std::mem::take(&mut ep.sendable);
                list.clear();
                list.extend((0..ep.queues.len()).filter(|&v| sendable(ep, v)));
                let choice = ep.sched.choose_from(&list);
                ep.sendable = list;
                choice?
            }
        };
        let flit = ep.queues[v].pop_front().expect("eligible VC has a flit");
        ep.sched.on_service(v);
        ep.credits[v] -= 1;
        ep.queued -= 1;
        ep.current = if flit.kind.is_tail() { None } else { Some(v) };
        Some(flit)
    }

    // ---- audit + watchdog ------------------------------------------------

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
    /// [`Network::run_until_with`] stops early and
    /// [`Network::stall_report`] describes the stall.
    pub fn enable_watchdog(&mut self, cfg: WatchdogConfig) {
        self.watchdog = Some(WatchdogState {
            cfg,
            // Arming counts as progress, like a drained check.
            last_signature: DRAINED,
            last_progress_at: self.now,
        });
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
        let cap = self.buf_flits;
        let vcs = self.routers[0].partition().total();
        for lp in &self.links {
            match (lp.tx, lp.rx) {
                (
                    TxSide::RouterOut { router: r, port: p },
                    RxSide::RouterIn {
                        router: r2,
                        port: p2,
                    },
                ) => {
                    for v in 0..vcs {
                        let vc = VcId(v);
                        let held = self.routers[r].credits_of(p, vc);
                        if held > cap {
                            log.record(Violation {
                                cycle: now.get(),
                                router: Some(r as u32),
                                port: p.get(),
                                vc: v,
                                kind: ViolationKind::CreditOverflow,
                                detail: format!("{held} credits for a {cap}-slot buffer"),
                            });
                        }
                        let returning =
                            lp.credit.iter_in_flight().filter(|c| *c == vc).count() as u32;
                        let on_wire =
                            lp.flit.iter_in_flight().filter(|f| f.vc == vc).count() as u32;
                        let buffered = self.routers[r2].input_buffered(p2, vc) as u32;
                        let total = held + returning + on_wire + buffered;
                        if total != cap {
                            log.record(Violation {
                                cycle: now.get(),
                                router: Some(r as u32),
                                port: p.get(),
                                vc: v,
                                kind: ViolationKind::CreditConservation,
                                detail: format!(
                                    "{held} held + {returning} returning + {on_wire} on wire + \
                                     {buffered} buffered = {total}, capacity {cap}"
                                ),
                            });
                        }
                    }
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
                (
                    TxSide::Ni { node },
                    RxSide::RouterIn {
                        router: r2,
                        port: p2,
                    },
                ) => {
                    for v in 0..vcs {
                        let vc = VcId(v);
                        let held = self.endpoints[node].credits[v as usize];
                        if held > cap {
                            log.record(Violation {
                                cycle: now.get(),
                                router: None,
                                port: node as u32,
                                vc: v,
                                kind: ViolationKind::CreditOverflow,
                                detail: format!("{held} NI credits for a {cap}-slot buffer"),
                            });
                        }
                        let returning =
                            lp.credit.iter_in_flight().filter(|c| *c == vc).count() as u32;
                        let on_wire =
                            lp.flit.iter_in_flight().filter(|f| f.vc == vc).count() as u32;
                        let buffered = self.routers[r2].input_buffered(p2, vc) as u32;
                        let total = held + returning + on_wire + buffered;
                        if total != cap {
                            log.record(Violation {
                                cycle: now.get(),
                                router: None,
                                port: node as u32,
                                vc: v,
                                kind: ViolationKind::CreditConservation,
                                detail: format!(
                                    "{held} NI credits + {returning} returning + {on_wire} on \
                                     wire + {buffered} buffered = {total}, capacity {cap}"
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
        // Active-set conservation: a link must be on the active list
        // exactly when it has traffic in flight, and an endpoint exactly
        // when it has flits queued. The stepper scans only the listed
        // entries, so a desync silently strands traffic.
        for (l, lp) in self.links.iter().enumerate() {
            let busy = !(lp.flit.is_idle() && lp.credit.is_idle());
            let flagged = self.link_active[l];
            let listed = self.active_links.binary_search(&l).is_ok();
            if busy != flagged || flagged != listed {
                log.record(Violation {
                    cycle: now.get(),
                    router: None,
                    port: l as u32,
                    vc: 0,
                    kind: ViolationKind::ActiveSetDesync,
                    detail: format!("link {l}: busy={busy} flagged={flagged} listed={listed}"),
                });
            }
        }
        for (n, ep) in self.endpoints.iter().enumerate() {
            let backlogged = ep.queued > 0;
            let flagged = self.ep_active[n];
            let listed = self.active_eps.binary_search(&n).is_ok();
            if backlogged != flagged || flagged != listed {
                log.record(Violation {
                    cycle: now.get(),
                    router: None,
                    port: n as u32,
                    vc: 0,
                    kind: ViolationKind::ActiveSetDesync,
                    detail: format!(
                        "endpoint {n}: backlogged={backlogged} flagged={flagged} listed={listed}"
                    ),
                });
            }
        }
        // Global flit conservation: everything injected but undelivered
        // must be somewhere — an NI queue, a link, or a router buffer.
        let in_nis: u64 = self
            .endpoints
            .iter()
            .map(|ep| ep.queues.iter().map(VecDeque::len).sum::<usize>() as u64)
            .sum();
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
        let ni_backlog: u64 = self
            .endpoints
            .iter()
            .map(|ep| ep.queues.iter().map(VecDeque::len).sum::<usize>() as u64)
            .sum();
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
    /// RNG stream and per-source positions, the injection calendar
    /// (including its tie-break sequence numbers), staged messages, NI
    /// queues and credits, every router's buffers/grants/credits/
    /// schedulers/counters, every link's wire state, the destination-side
    /// trackers, and the audit/watchdog/stall state. Structural state
    /// (topology, wiring, configuration) is *not* written — [`Network::
    /// restore`] requires a network freshly built from the same inputs.
    ///
    /// The derived active sets (busy links, backlogged endpoints, router
    /// pending/granted/staged lists) are recomputed on restore from the
    /// restored buffers; they are pure functions of that state (the
    /// predicates the `ActiveSetDesync` audit checks).
    pub fn snapshot(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.u64(self.now.0);
        w.u64(self.flits_in_flight);
        w.u64(self.injected_msgs);
        w.u64(self.total_link_sends);
        w.u64(self.stats_start.0);
        w.usize(self.link_sent.len());
        for &n in &self.link_sent {
            w.u64(n);
        }
        self.workload.save(&mut w);
        w.u64(self.calendar.next_seq());
        let entries = self.calendar.snapshot_entries();
        w.usize(entries.len());
        for (at, seq, &idx) in entries {
            w.u64(at.0);
            w.u64(seq);
            w.usize(idx);
        }
        w.usize(self.staged.len());
        for slot in &self.staged {
            w.option(slot.as_ref(), |w, msg| {
                w.u64(msg.at.0);
                w.u32(msg.src.0);
                w.u32(msg.vc_in.0);
                w.usize(msg.flits.len());
                for f in &msg.flits {
                    f.save(w);
                }
            });
        }
        for ep in &self.endpoints {
            for q in &ep.queues {
                w.usize(q.len());
                for f in q {
                    f.save(&mut w);
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
        w.usize(self.sinks.frame_tails.len());
        for frames in &self.sinks.frame_tails {
            w.usize(frames.len());
            for &(frame, tails) in frames {
                w.u32(frame);
                w.u32(tails);
            }
        }
        w.u64(self.sinks.delivered_msgs);
        w.u64(self.sinks.delivered_flits);
        w.usize(self.sinks.rt_latency.len());
        for st in &self.sinks.rt_latency {
            st.save(&mut w);
        }
        w.usize(self.sinks.rt_outstanding.len());
        for q in &self.sinks.rt_outstanding {
            w.usize(q.len());
            for &c in q {
                w.u64(c);
            }
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
        self.stats_start = Cycles(r.u64()?);
        if r.usize()? != self.link_sent.len() {
            return Err(SnapError::BadValue("link count mismatch"));
        }
        for n in &mut self.link_sent {
            *n = r.u64()?;
        }
        self.workload.load_into(&mut r)?;
        let next_seq = r.u64()?;
        let n = r.usize()?;
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            let at = Cycles(r.u64()?);
            let seq = r.u64()?;
            let idx = r.usize()?;
            if idx >= self.staged.len() || seq >= next_seq {
                return Err(SnapError::BadValue("calendar entry out of range"));
            }
            entries.push((at, seq, idx));
        }
        self.calendar = Calendar::from_snapshot(entries, next_seq);
        if r.usize()? != self.staged.len() {
            return Err(SnapError::BadValue("staged source count mismatch"));
        }
        for slot in &mut self.staged {
            *slot = r.option(|r| {
                let at = Cycles(r.u64()?);
                let src = NodeId(r.u32()?);
                let vc_in = VcId(r.u32()?);
                let n = r.usize()?;
                let mut flits = Vec::with_capacity(n);
                for _ in 0..n {
                    flits.push(Flit::load(r)?);
                }
                Ok(ScheduledMessage {
                    at,
                    src,
                    vc_in,
                    flits,
                })
            })?;
        }
        for ep in &mut self.endpoints {
            let mut queued = 0u64;
            for q in &mut ep.queues {
                let n = r.usize()?;
                q.clear();
                for _ in 0..n {
                    q.push_back(Flit::load(&mut r)?);
                }
                queued += n as u64;
            }
            ep.sched.load_into(&mut r)?;
            for c in &mut ep.credits {
                *c = r.u32()?;
            }
            ep.current = r.option(|r| r.usize())?;
            if ep.current.is_some_and(|v| v >= ep.queues.len()) {
                return Err(SnapError::BadValue("NI current VC out of range"));
            }
            ep.queued = queued;
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
        let n = r.usize()?;
        self.sinks.frame_tails.clear();
        for _ in 0..n {
            let m = r.usize()?;
            let mut frames = Vec::with_capacity(m);
            for _ in 0..m {
                frames.push((r.u32()?, r.u32()?));
            }
            self.sinks.frame_tails.push(frames);
        }
        self.sinks.delivered_msgs = r.u64()?;
        self.sinks.delivered_flits = r.u64()?;
        let n = r.usize()?;
        self.sinks.rt_latency.clear();
        for _ in 0..n {
            self.sinks.rt_latency.push(RunningStats::load(&mut r)?);
        }
        let n = r.usize()?;
        self.sinks.rt_outstanding.clear();
        for _ in 0..n {
            let m = r.usize()?;
            let mut q = VecDeque::with_capacity(m);
            for _ in 0..m {
                q.push_back(r.u64()?);
            }
            self.sinks.rt_outstanding.push(q);
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
        self.active_links.clear();
        for (l, lp) in self.links.iter().enumerate() {
            let busy = !(lp.flit.is_idle() && lp.credit.is_idle());
            self.link_active[l] = busy;
            if busy {
                self.active_links.push(l);
            }
        }
        self.active_eps.clear();
        for (e, ep) in self.endpoints.iter().enumerate() {
            let backlogged = ep.queued > 0;
            self.ep_active[e] = backlogged;
            if backlogged {
                self.active_eps.push(e);
            }
        }
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
        net.run_until(tb.cycles_from_ms(40.0));
        net.reset_link_stats();
        net.run_until(tb.cycles_from_ms(100.0));
        // Injection links should run near the offered 0.5 load; ejection
        // links likewise (uniform destinations).
        let mut total_inj = 0.0;
        for n in 0..8 {
            total_inj += net.injection_utilization(flitnet::NodeId(n));
        }
        let mean_inj = total_inj / 8.0;
        assert!(
            (mean_inj - 0.5).abs() < 0.06,
            "mean injection util {mean_inj}"
        );
        let mut total_out = 0.0;
        for p in 0..8 {
            total_out += net.link_utilization(flitnet::RouterId(0), PortId(p));
        }
        let mean_out = total_out / 8.0;
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
        use netsim::JsonlSink;
        let topology = Topology::single_switch(8);
        let cfg = RouterConfig::default();
        let mut net = Network::new(&topology, small_workload(0.3, 8), &cfg);
        let tb = net.timebase();
        let mut sink = JsonlSink::new();
        net.run_until_with(tb.cycles_from_ms(5.0), &mut sink);
        let text = String::from_utf8(sink.into_bytes()).expect("utf8");
        let injects = text.matches("\"event\":\"inject\"").count() as u64;
        let delivers = text.matches("\"event\":\"deliver\"").count() as u64;
        assert_eq!(injects, net.injected_msgs());
        assert_eq!(delivers, net.delivered_msgs());
        assert!(text.matches("\"event\":\"route\"").count() > 0);
        assert!(text.matches("\"event\":\"arbitrate\"").count() > 0);
    }

    #[test]
    fn noop_sink_run_matches_plain_run() {
        let topology = Topology::single_switch(8);
        let cfg = RouterConfig::default();
        let mut plain = Network::new(&topology, small_workload(0.4, 11), &cfg);
        let mut wired = Network::new(&topology, small_workload(0.4, 11), &cfg);
        let tb = plain.timebase();
        let end = tb.cycles_from_ms(25.0);
        plain.run_until(end);
        wired.run_until_with(end, &mut NoopSink);
        assert_eq!(plain.delivered_flits(), wired.delivered_flits());
        assert_eq!(plain.injected_msgs(), wired.injected_msgs());
        assert_eq!(plain.counters(), wired.counters());
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
}
