//! Deterministic shared-memory parallel stepping.
//!
//! [`drive`] runs a [`Network`] on a scoped thread pool and produces
//! **bit-identical** results to the sequential active-set stepper at any
//! thread count: every arbitration decision, counter increment, float
//! accumulation and trace byte is the same. The construction:
//!
//! * **Partitioning.** Routers are split into contiguous index ranges,
//!   one per participant (participant 0 is the coordinator — the calling
//!   thread). Every other piece of state has exactly one owner derived
//!   from that: an endpoint belongs to the owner of its attachment
//!   router; a link's *flit* channel to the owner of the router it feeds
//!   (ejection channels to the coordinator, which owns the sinks); a
//!   link's *credit* channel to the owner of the upstream router or NI
//!   it refunds. The two channels of one [`LinkPair`] may thus belong to
//!   different threads — accesses project the field through a raw
//!   pointer without ever materializing `&mut LinkPair`.
//!
//! * **Phases and barriers.** Each cycle runs injection (serial, on the
//!   coordinator), then a *deliver* phase and a *compute* phase
//!   (arbitrate → crossbar → output → NI injection) on all participants
//!   between barriers, then a serial merge. Within a phase no thread
//!   reads state another thread writes: deliver only moves flits/credits
//!   from an owned channel into an owned router/endpoint, and compute
//!   only reads/writes owned routers and *sends* onto link channels that
//!   no other participant touches this phase (each channel has a single
//!   sender per cycle by construction).
//!
//! * **Mailboxes and merge order.** Cross-partition traffic moves only
//!   through the link channels, which the next cycle's deliver phase
//!   drains in ascending link order — exactly the order the sequential
//!   stepper's sorted active list produces. Everything order-sensitive
//!   that a phase cannot write directly (trace events, link activations,
//!   the global send counter) is buffered per participant and merged by
//!   the coordinator in participant order, which — the ranges being
//!   contiguous and ascending — is the sequential router order.
//!
//! * **Determinism.** Per consumer (a router input port, an endpoint's
//!   credit pool, the delivery sinks, the trace stream) the sequence of
//!   mutations is a permutation-free match of the sequential one:
//!   deliver visits the frozen active list in the same order, compute
//!   phases see the same `has_work` values (a router's state changes
//!   only on its own thread between barriers), and the sinks plus every
//!   float accumulation live on the coordinator, fed in ascending link
//!   order. Active-list pruning is deferred to the merge, which leaves
//!   the same post-cycle set the sequential stepper maintains
//!   incrementally (a link stays listed iff it still has traffic in
//!   flight; an endpoint iff it still has flits queued).
//!
//! The audit's mailbox-conservation sweep (`ActiveSetDesync`)
//! cross-checks that invariant after every audited cycle.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;

use flitnet::{NodeId, RouterId};
use netsim::par::{SharedCell, SharedSlice};
use netsim::telemetry::{BufferSink, TelemetrySink};
use netsim::Cycles;
use topo::Topology;

use super::{Endpoint, LinkPair, Network, RxSide, Sinks, TxSide};
use crate::router::{CreditReturn, Departure, Router};

/// Owner tag for ejection-link flit channels: the coordinator drains
/// them into the delivery sinks (which it alone owns).
const EJECT: usize = usize::MAX;

/// `cmd` value telling workers to step another cycle.
const STEP: usize = 0;
/// `cmd` value telling workers to exit.
const EXIT: usize = 1;

/// The static ownership table: who steps what. Built once per run.
struct Plan {
    /// Contiguous router range `[lo, hi)` per participant.
    router_ranges: Vec<(usize, usize)>,
    /// Owning participant of each endpoint (= its attachment router's).
    ep_owner: Vec<usize>,
    /// Owning participant of each link's flit channel ([`EJECT`] for
    /// ejection links, drained by the coordinator into the sinks).
    flit_owner: Vec<usize>,
    /// Owning participant of each link's credit channel (the upstream
    /// router's owner, or the endpoint's for injection links).
    credit_owner: Vec<usize>,
}

impl Plan {
    fn build(net: &Network, threads: usize) -> Plan {
        let n = net.routers.len();
        debug_assert!(threads >= 2 && threads <= n);
        let (base, rem) = (n / threads, n % threads);
        let mut router_owner = vec![0usize; n];
        let mut router_ranges = Vec::with_capacity(threads);
        let mut start = 0;
        for t in 0..threads {
            let len = base + usize::from(t < rem);
            router_ranges.push((start, start + len));
            for owner in &mut router_owner[start..start + len] {
                *owner = t;
            }
            start += len;
        }
        let ep_owner: Vec<usize> = (0..net.endpoints.len())
            .map(|node| {
                let (r, _) = net.topology.attachment(NodeId(node as u32));
                router_owner[r.index()]
            })
            .collect();
        let flit_owner = net
            .links
            .iter()
            .map(|lp| match lp.rx {
                RxSide::RouterIn { router, .. } => router_owner[router],
                RxSide::Node => EJECT,
            })
            .collect();
        let credit_owner = net
            .links
            .iter()
            .map(|lp| match lp.tx {
                TxSide::RouterOut { router, .. } => router_owner[router],
                TxSide::Ni { node } => ep_owner[node],
            })
            .collect();
        Plan {
            router_ranges,
            ep_owner,
            flit_owner,
            credit_owner,
        }
    }
}

/// The per-cycle shared view of the network, republished by the
/// coordinator before every cycle (the backing `Vec`s may have grown).
///
/// Pointer-based so copies are lifetime-free; every access goes through
/// the ownership discipline in [`Plan`].
#[derive(Clone, Copy)]
struct Ctx {
    routers: SharedSlice<Router>,
    endpoints: SharedSlice<Endpoint>,
    links: SharedSlice<LinkPair>,
    link_sent: SharedSlice<u64>,
    /// The cycle's frozen deliver mailbox list (nobody mutates
    /// `active_links` between the publish and the merge).
    active_links: SharedSlice<usize>,
    /// The cycle's frozen NI backlog list.
    active_eps: SharedSlice<usize>,
    feed_link: SharedSlice<Vec<usize>>,
    out_link: SharedSlice<Vec<usize>>,
    topology: *const Topology,
    now: Cycles,
}

// SAFETY: the raw topology pointer is only read (`&Topology` is Sync),
// and the slices carry their own Send justification.
unsafe impl Send for Ctx {}

impl Ctx {
    fn capture(net: &mut Network, now: Cycles) -> Ctx {
        Ctx {
            routers: SharedSlice::new(&mut net.routers),
            endpoints: SharedSlice::new(&mut net.endpoints),
            links: SharedSlice::new(&mut net.links),
            link_sent: SharedSlice::new(&mut net.link_sent),
            active_links: SharedSlice::new(&mut net.active_links),
            active_eps: SharedSlice::new(&mut net.active_eps),
            feed_link: SharedSlice::new(&mut net.feed_link),
            out_link: SharedSlice::new(&mut net.out_link),
            topology: &net.topology,
            now,
        }
    }
}

/// Per-participant private state: trace buffers, pending activations,
/// and the scratch buffers the compute phase reuses.
struct WorkerBox {
    /// Route events (arbitrate stage), flushed to the real sink at the
    /// merge in participant order.
    route_sink: BufferSink,
    /// Arbitrate events (crossbar stage), flushed after all route
    /// events, in participant order.
    arb_sink: BufferSink,
    /// Links this participant sent on this cycle; the merge activates
    /// them (idempotently) on the shared active list.
    activations: Vec<usize>,
    /// Flits this participant put on links this cycle (the merge folds
    /// this into `total_link_sends`).
    link_sends: u64,
    credit_buf: Vec<CreditReturn>,
    depart_buf: Vec<Departure>,
}

impl WorkerBox {
    fn new(trace: bool) -> WorkerBox {
        WorkerBox {
            route_sink: BufferSink::new(trace),
            arb_sink: BufferSink::new(trace),
            activations: Vec::new(),
            link_sends: 0,
            credit_buf: Vec::new(),
            depart_buf: Vec::new(),
        }
    }
}

/// Deliver phase: drain this participant's flit and credit channels, in
/// ascending order over the frozen active-link list.
///
/// # Safety
///
/// Must run between the cycle's first and second barriers, with `ctx`
/// the coordinator's current publication and `me` this participant's
/// id. The [`Plan`] ownership discipline makes every access exclusive.
unsafe fn deliver_pass(me: usize, plan: &Plan, ctx: &Ctx) {
    for i in 0..ctx.active_links.len() {
        let l = *ctx.active_links.get(i);
        let lp = ctx.links.ptr_at(l);
        if plan.flit_owner[l] == me {
            while let Some(flit) = (*lp).flit.recv(ctx.now) {
                match (*lp).rx {
                    RxSide::RouterIn { router, port } => {
                        ctx.routers
                            .get_mut(router)
                            .receive_flit(ctx.now, port, flit);
                    }
                    RxSide::Node => unreachable!("ejection channels belong to the coordinator"),
                }
            }
        }
        if plan.credit_owner[l] == me {
            while let Some(vc) = (*lp).credit.recv(ctx.now) {
                match (*lp).tx {
                    TxSide::RouterOut { router, port } => {
                        ctx.routers.get_mut(router).receive_credit(port, vc);
                    }
                    TxSide::Ni { node } => {
                        ctx.endpoints.get_mut(node).credits[vc.index()] += 1;
                    }
                }
            }
        }
    }
}

/// Coordinator-only half of the deliver phase: drain the ejection
/// channels into the delivery sinks, in ascending order over the frozen
/// active-link list — the exact order (and float-accumulation order)
/// of the sequential stepper.
///
/// # Safety
///
/// Same window as [`deliver_pass`]; additionally `sinks`, `in_flight`
/// and `tsink` must be the coordinator's exclusive borrows.
unsafe fn eject_pass(
    plan: &Plan,
    ctx: &Ctx,
    sinks: &mut Sinks,
    in_flight: &mut u64,
    trace: bool,
    tsink: &mut dyn TelemetrySink,
) {
    for i in 0..ctx.active_links.len() {
        let l = *ctx.active_links.get(i);
        if plan.flit_owner[l] != EJECT {
            continue;
        }
        let lp = ctx.links.ptr_at(l);
        while let Some(flit) = (*lp).flit.recv(ctx.now) {
            Network::sink_flit(sinks, in_flight, ctx.now, flit, trace, tsink);
        }
    }
}

/// Compute phase: stages 2–5 plus NI injection for this participant's
/// routers and endpoints. No internal barriers: nothing here reads state
/// another participant writes (sends land on channels with a single
/// sender per cycle, and are only read by next cycle's deliver).
///
/// # Safety
///
/// Must run between the cycle's second and third barriers; same
/// ownership contract as [`deliver_pass`].
unsafe fn compute_pass(me: usize, plan: &Plan, ctx: &Ctx, bx: &mut WorkerBox) {
    let (lo, hi) = plan.router_ranges[me];
    let now = ctx.now;
    let topology = &*ctx.topology;
    // Stages 2–3: routing + output-VC arbitration.
    for r in lo..hi {
        let router = ctx.routers.get_mut(r);
        if !router.has_work() {
            continue;
        }
        let rid = RouterId(r as u32);
        router.arbitrate(
            now,
            |flit| topology.route_sel(rid, flit.dest),
            &mut bx.route_sink,
        );
    }
    // Stage 4: crossbar traversal; refund freed slots upstream.
    for r in lo..hi {
        let router = ctx.routers.get_mut(r);
        if !router.has_work() {
            continue;
        }
        bx.credit_buf.clear();
        router.crossbar(now, &mut bx.credit_buf, &mut bx.arb_sink);
        for c in &bx.credit_buf {
            let feeder = ctx.feed_link.get(r)[c.port.index()];
            // SAFETY: only the fed router's owner sends credits on its
            // feeder; the channel's *flit* half may concurrently belong
            // to another thread, hence the field projection.
            (*ctx.links.ptr_at(feeder)).credit.send(now, c.vc);
            bx.activations.push(feeder);
        }
    }
    // Stage 5: output VC multiplexers onto the links.
    for r in lo..hi {
        let router = ctx.routers.get_mut(r);
        if !router.has_work() {
            continue;
        }
        bx.depart_buf.clear();
        router.output_stage(now, &mut bx.depart_buf);
        for d in &bx.depart_buf {
            let l = ctx.out_link.get(r)[d.port.index()];
            (*ctx.links.ptr_at(l)).flit.send(now, d.flit);
            *ctx.link_sent.get_mut(l) += 1;
            bx.link_sends += 1;
            bx.activations.push(l);
        }
    }
    // Phase 6: NI injection, over the frozen backlog list.
    for i in 0..ctx.active_eps.len() {
        let n = *ctx.active_eps.get(i);
        if plan.ep_owner[n] != me {
            continue;
        }
        let ep = ctx.endpoints.get_mut(n);
        if let Some(flit) = Network::ni_pick(ep) {
            let link = ep.link;
            (*ctx.links.ptr_at(link)).flit.send(now, flit);
            *ctx.link_sent.get_mut(link) += 1;
            bx.link_sends += 1;
            bx.activations.push(link);
        }
    }
}

/// Runs `net` until `end` on `threads` participants (the caller plus
/// `threads - 1` scoped workers). See the module docs for the
/// determinism argument.
pub(super) fn drive(net: &mut Network, end: Cycles, threads: usize, sink: &mut dyn TelemetrySink) {
    let plan = Plan::build(net, threads);
    let trace = net.trace;
    let checked = net.audit.is_some() || net.watchdog.is_some();

    let mut box0 = WorkerBox::new(trace);
    let boxes: Vec<SharedCell<WorkerBox>> = (1..threads)
        .map(|_| SharedCell::new(WorkerBox::new(trace)))
        .collect();
    let ctx_cell = SharedCell::new(Ctx::capture(net, net.now));
    let b1 = Barrier::new(threads);
    let b2 = Barrier::new(threads);
    let b3 = Barrier::new(threads);
    let cmd = AtomicUsize::new(STEP);

    std::thread::scope(|s| {
        for me in 1..threads {
            let bx = &boxes[me - 1];
            let (b1, b2, b3) = (&b1, &b2, &b3);
            let (cmd, ctx_cell, plan) = (&cmd, &ctx_cell, &plan);
            s.spawn(move || loop {
                b1.wait();
                if cmd.load(Ordering::Relaxed) == EXIT {
                    break;
                }
                // SAFETY: the coordinator publishes `ctx` before b1 and
                // does not touch it again until after b3; this box is
                // ours alone between barriers; all state accesses follow
                // the plan's ownership table.
                unsafe {
                    let ctx = *ctx_cell.get();
                    let bx = &mut *bx.get();
                    deliver_pass(me, plan, &ctx);
                    b2.wait();
                    compute_pass(me, plan, &ctx, bx);
                }
                b3.wait();
            });
        }

        while net.now < end {
            if net.try_horizon_jump(end) {
                continue;
            }
            let now = net.now;
            net.inject(now, sink);
            let ctx = Ctx::capture(net, now);
            // SAFETY: workers are parked at b1; the write is ordered
            // before their reads by the barrier.
            unsafe { *ctx_cell.get() = ctx };
            b1.wait();
            // SAFETY: from here to b3 the coordinator touches routers /
            // endpoints / links only through `ctx`, and `sinks` /
            // `flits_in_flight` are fields no worker accesses.
            unsafe {
                deliver_pass(0, &plan, &ctx);
                eject_pass(
                    &plan,
                    &ctx,
                    &mut net.sinks,
                    &mut net.flits_in_flight,
                    trace,
                    sink,
                );
                b2.wait();
                compute_pass(0, &plan, &ctx, &mut box0);
            }
            b3.wait();

            // Serial merge. Trace events first: all route events in
            // participant (= ascending router) order, then all arbitrate
            // events — the sequential phase order.
            box0.route_sink.drain_into(sink);
            for bx in &boxes {
                // SAFETY: workers are parked at b1 again; b3 ordered
                // their writes before these reads.
                unsafe { (*bx.get()).route_sink.drain_into(sink) };
            }
            box0.arb_sink.drain_into(sink);
            for bx in &boxes {
                unsafe { (*bx.get()).arb_sink.drain_into(sink) };
            }
            // Activations and the global send counter.
            for l in box0.activations.drain(..) {
                Network::activate_link(&mut net.link_active, &mut net.active_links, l);
            }
            net.total_link_sends += box0.link_sends;
            box0.link_sends = 0;
            for bx in &boxes {
                let bx = unsafe { &mut *bx.get() };
                for l in bx.activations.drain(..) {
                    Network::activate_link(&mut net.link_active, &mut net.active_links, l);
                }
                net.total_link_sends += bx.link_sends;
                bx.link_sends = 0;
            }
            // Deferred pruning: drop links that drained without being
            // resent on, and endpoints whose NI backlog emptied — the
            // same post-cycle sets the sequential stepper leaves.
            let mut i = 0;
            while i < net.active_links.len() {
                let l = net.active_links[i];
                if net.links[l].flit.is_idle() && net.links[l].credit.is_idle() {
                    net.link_active[l] = false;
                    net.active_links.remove(i);
                } else {
                    i += 1;
                }
            }
            let mut i = 0;
            while i < net.active_eps.len() {
                let n = net.active_eps[i];
                if net.endpoints[n].queued == 0 {
                    net.ep_active[n] = false;
                    net.active_eps.remove(i);
                } else {
                    i += 1;
                }
            }

            if checked {
                net.safety_check();
                if net.stall.is_some() {
                    break;
                }
            }
            net.advance_clock();
        }

        cmd.store(EXIT, Ordering::Relaxed);
        b1.wait();
    });
}
