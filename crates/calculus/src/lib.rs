//! Network-calculus worst-case delay bounds for MediaWorm fabrics.
//!
//! A second, *analytic* correctness oracle beside the bit-identity
//! stepping references: every real-time stream is modelled by a
//! (σ, ρ) token-bucket **arrival curve** `α(t) = σ + ρt` (flits,
//! flits/cycle) — the same envelope the admission controller negotiates
//! and the NI token buckets enforce — and every scheduling point on its
//! route by a rate-latency **service curve** `β(t) = R·(t − θ)⁺` derived
//! from the link rate and the scheduler's fairness bound. Min-plus
//! convolution composes the per-hop curves along the (feedforward) route,
//! and the horizontal deviation between α and the composed β is a delay
//! no conforming message can exceed — at any fabric size, in O(flows ×
//! hops) time, where the every-cycle stepping oracle stops scaling.
//!
//! The analysis is *separate-flow* (SFA): at each scheduling point the
//! flow under study receives the scheduler's per-VC service curve minus
//! the worst-case envelope of its competing traffic (blind-multiplexing
//! leftover — sound for any intra-VC service order), burstiness of cross
//! traffic is propagated point-to-point through each flow's output curve,
//! and the flow's own burst is paid only once via the convolution.
//!
//! Restrictions, by construction of the theory:
//!
//! * **Feedforward routes only.** The precedence graph of scheduling
//!   points must be acyclic; cyclic route sets (a `ring` whose flows wrap
//!   all the way round, any dateline `torus`) are rejected with a typed
//!   [`BoundError`] instead of a silently unsound number.
//! * **Stability.** A flow whose aggregate competition saturates a point
//!   (ρ ≥ R) has no finite bound; its entry reports `None` rather than a
//!   fabricated value, and the unbounded burstiness poisons every flow it
//!   later crosses. Under FIFO scheduling, unregulated best-effort cross
//!   traffic at a shared router port usually makes bounds unbounded —
//!   which *is* the paper's observation about FIFO and QoS.

#![warn(missing_docs)]

use std::collections::BTreeMap;

use flitnet::NodeId;
use topo::Topology;

/// A token-bucket arrival curve `α(t) = σ + ρt`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrivalCurve {
    /// Burst tolerance σ in flits.
    pub sigma: f64,
    /// Sustained rate ρ in flits per cycle.
    pub rho: f64,
}

impl ArrivalCurve {
    /// Creates a curve; panics on a negative burst or non-positive rate.
    pub fn new(sigma: f64, rho: f64) -> ArrivalCurve {
        assert!(sigma >= 0.0, "burst must be non-negative");
        assert!(rho > 0.0, "rate must be positive");
        ArrivalCurve { sigma, rho }
    }

    /// The aggregate of two curves: bursts and rates add.
    pub fn plus(self, other: ArrivalCurve) -> ArrivalCurve {
        ArrivalCurve {
            sigma: self.sigma + other.sigma,
            rho: self.rho + other.rho,
        }
    }

    /// This curve scaled `n`-fold (an aggregate of `n` identical flows).
    pub fn times(self, n: f64) -> ArrivalCurve {
        ArrivalCurve {
            sigma: self.sigma * n,
            rho: self.rho * n,
        }
    }

    /// The arrival curve of this flow's *output* after crossing a server
    /// with service curve `s`: the rate is preserved, the burst grows by
    /// the service latency (`σ + ρθ` — the classic output-burstiness
    /// propagation for rate-latency servers with `ρ ≤ R`).
    pub fn output(self, s: ServiceCurve) -> ArrivalCurve {
        ArrivalCurve {
            sigma: self.sigma + self.rho * s.latency,
            rho: self.rho,
        }
    }
}

/// A rate-latency service curve `β(t) = R·(t − θ)⁺`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceCurve {
    /// Guaranteed long-term rate `R` in flits per cycle.
    pub rate: f64,
    /// Worst-case service latency `θ` in cycles.
    pub latency: f64,
}

impl ServiceCurve {
    /// Creates a curve; panics on a non-positive rate or negative latency.
    pub fn new(rate: f64, latency: f64) -> ServiceCurve {
        assert!(rate > 0.0, "service rate must be positive");
        assert!(latency >= 0.0, "service latency must be non-negative");
        ServiceCurve { rate, latency }
    }

    /// Min-plus convolution of two rate-latency curves: the end-to-end
    /// service of two servers in tandem is again rate-latency with the
    /// *minimum* rate and the *sum* of latencies.
    pub fn convolve(self, other: ServiceCurve) -> ServiceCurve {
        ServiceCurve {
            rate: self.rate.min(other.rate),
            latency: self.latency + other.latency,
        }
    }

    /// The *leftover* service curve after subtracting cross traffic
    /// `cross` under blind multiplexing: `R' = R − ρ_x`,
    /// `θ' = (Rθ + σ_x) / (R − ρ_x)`. `None` when the cross traffic
    /// saturates the server (no guaranteed residual rate).
    pub fn leftover(self, cross: ArrivalCurve) -> Option<ServiceCurve> {
        if cross.rho >= self.rate {
            return None;
        }
        let rate = self.rate - cross.rho;
        let latency = (self.rate * self.latency + cross.sigma) / rate;
        Some(ServiceCurve { rate, latency })
    }

    /// Worst-case delay (horizontal deviation) for arrivals bounded by
    /// `a`: `θ + σ/R`, or `None` when the flow's sustained rate exceeds
    /// the guaranteed service rate (unbounded backlog).
    pub fn delay_bound(self, a: ArrivalCurve) -> Option<f64> {
        if a.rho > self.rate {
            return None;
        }
        Some(self.latency + a.sigma / self.rate)
    }
}

/// The output-multiplexer discipline at every scheduling point, with the
/// parameters its fairness bound needs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SchedKind {
    /// Virtual Clock: rate-latency per reserved rate, same latency term
    /// as PGPS for leaky-bucket sources (Figueira & Pasquale).
    VirtualClock,
    /// Weighted Fair Queueing (PGPS): `θ = L/R_v + L/C`.
    Wfq,
    /// Self-Clocked Fair Queueing: `θ = L/R_v + (n−1)·L/C` — one maximal
    /// packet of every competing queue can finish first.
    Scfq,
    /// Deficit Round Robin with the given per-VC quantum in flits:
    /// latency-rate server with `θ = (3n−2)·q/C` (Stiliadis & Varma).
    Drr {
        /// Per-VC quantum in flits.
        quantum: f64,
    },
    /// FIFO by arrival stamp: no isolation — the whole port is a single
    /// constant-rate server shared with *all* traffic, best-effort
    /// included.
    Fifo,
    /// Per-VC round robin, rate-agnostic: every active VC gets an equal
    /// share regardless of its reservation.
    RoundRobin,
}

/// Fabric-wide parameters shared by every scheduling point.
#[derive(Debug, Clone, Copy)]
pub struct FabricModel {
    /// Scheduler at every output multiplexer (routers and NIs).
    pub sched: SchedKind,
    /// Link rate `C` in flits per cycle (1.0 for MediaWorm links).
    pub link_rate: f64,
    /// Largest message (worm) in flits — the non-preemptable unit `L`.
    pub max_msg_flits: f64,
    /// Fixed cycles added per scheduling point: router pipeline depth
    /// plus wire latency. Not load-dependent, so outside the curves.
    pub point_fixed_cycles: f64,
    /// Scheduler weight of a real-time VC (`1 / Vtick`).
    pub rt_weight: f64,
    /// Scheduler weight of a best-effort VC (`1 / BEST_EFFORT_VTICK`).
    pub be_weight: f64,
    /// Best-effort VCs per port, all assumed backlogged (worst case).
    pub be_vcs: u32,
    /// Arrival envelope of one node's best-effort source, if the mix has
    /// a best-effort component. Only FIFO lets it interfere with
    /// real-time service order; rate-based and round-robin schedulers
    /// bound its influence through `be_vcs`/`be_weight` instead.
    pub be_per_node: Option<ArrivalCurve>,
    /// Number of endpoints (for the FIFO worst case, where every node's
    /// best-effort traffic can converge on one port).
    pub node_count: u32,
}

/// One real-time flow to bound.
#[derive(Debug, Clone, Copy)]
pub struct FlowSpec {
    /// Stream id (opaque to the analysis; echoed in the result).
    pub id: u32,
    /// Source endpoint.
    pub src: NodeId,
    /// Destination endpoint.
    pub dest: NodeId,
    /// VC on the injection link.
    pub vc_in: u32,
    /// VC on every router-to-router and ejection link.
    pub vc_out: u32,
    /// The flow's arrival envelope at the source.
    pub arrival: ArrivalCurve,
    /// Whether the envelope is *provably* enforced (CBR construction, or
    /// a shaping token bucket in front of the NI) rather than a mean-rate
    /// model of a variable source.
    pub guaranteed: bool,
}

/// The analytic result for one flow.
#[derive(Debug, Clone, Copy)]
pub struct FlowBound {
    /// Stream id, as given.
    pub id: u32,
    /// Worst-case end-to-end delay in cycles; `None` when some point on
    /// the route offers the flow no guaranteed rate (unstable or
    /// FIFO-with-unregulated-cross) — the flow has no finite bound.
    pub bound_cycles: Option<f64>,
    /// Router-to-router plus ejection scheduling points on the route.
    pub hops: u32,
    /// Copied from [`FlowSpec::guaranteed`].
    pub guaranteed: bool,
    /// The envelope the bound was computed from.
    pub arrival: ArrivalCurve,
}

/// Why a route set cannot be bounded at all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BoundError {
    /// The topology routes with dateline VC disciplines (tori): traffic
    /// wraps around a cycle by construction, outside feedforward
    /// network-calculus.
    Datelines {
        /// The topology's name.
        topology: String,
    },
    /// The flows' scheduling points form a precedence cycle (e.g. ring
    /// traffic wrapping all the way round): cross-traffic burstiness has
    /// no well-defined fixpoint under plain SFA.
    CyclicRoutes {
        /// The topology's name.
        topology: String,
        /// Scheduling points left unordered by the cycle.
        unordered_points: usize,
    },
    /// A flow's deterministic route failed to terminate within the
    /// router count — the routing function itself cycles.
    RouteLoop {
        /// The flow whose walk looped.
        flow: u32,
    },
}

impl std::fmt::Display for BoundError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BoundError::Datelines { topology } => {
                write!(f, "topology {topology} uses dateline (cyclic) routing; delay bounds need feedforward routes")
            }
            BoundError::CyclicRoutes {
                topology,
                unordered_points,
            } => {
                write!(f, "flow routes on {topology} form a precedence cycle ({unordered_points} points unordered); delay bounds need feedforward routes")
            }
            BoundError::RouteLoop { flow } => {
                write!(f, "deterministic route of flow {flow} revisits a router")
            }
        }
    }
}

impl std::error::Error for BoundError {}

/// A scheduling point: `(u32::MAX, node)` is node `node`'s NI multiplexer
/// onto its injection link; `(r, p)` is router `r`'s output port `p`
/// (router-to-router or ejection).
type Point = (u32, u32);

/// The canonical single-candidate route of `src → dest` as a sequence of
/// scheduling points: the NI, then one output port per router traversed
/// (the last being the ejection port).
fn flow_points(t: &Topology, src: NodeId, dest: NodeId) -> Option<Vec<Point>> {
    let hops = t.path(src, dest)?;
    let mut points = vec![(u32::MAX, src.get())];
    points.extend(hops.into_iter().map(|(r, p)| (r.get(), p.get())));
    Some(points)
}

/// The per-VC service curve of one scheduling point for the rate-based
/// and round-robin disciplines (`Fifo` is handled by the caller as a
/// shared aggregate server).
fn vc_service(m: &FabricModel, rt_vcs_here: u32) -> ServiceCurve {
    let c = m.link_rate;
    let l = m.max_msg_flits;
    let n = f64::from(rt_vcs_here + m.be_vcs);
    match m.sched {
        SchedKind::VirtualClock | SchedKind::Wfq | SchedKind::Scfq => {
            let total_weight =
                f64::from(rt_vcs_here) * m.rt_weight + f64::from(m.be_vcs) * m.be_weight;
            let r = c * m.rt_weight / total_weight;
            let cross_pkts = if matches!(m.sched, SchedKind::Scfq) {
                (n - 1.0).max(0.0)
            } else {
                1.0
            };
            ServiceCurve::new(r, l / r + cross_pkts * l / c)
        }
        SchedKind::Drr { quantum } => {
            let r = c / n;
            ServiceCurve::new(r, (3.0 * n - 2.0) * quantum / c + l / c)
        }
        SchedKind::RoundRobin => {
            let r = c / n;
            ServiceCurve::new(r, n * l / c)
        }
        SchedKind::Fifo => unreachable!("FIFO points are aggregate servers"),
    }
}

/// Computes the worst-case delay bound of every flow over its
/// deterministic route.
///
/// Results are in the input's flow order. Flows crossing a saturated
/// point (or FIFO points shared with unregulated best-effort traffic)
/// report `bound_cycles: None`.
///
/// # Errors
///
/// [`BoundError::Datelines`] for dateline topologies (tori),
/// [`BoundError::CyclicRoutes`] when the flows' scheduling points form a
/// precedence cycle (e.g. ring traffic wrapping the whole loop), and
/// [`BoundError::RouteLoop`] if a single route revisits a router.
pub fn flow_bounds(
    t: &Topology,
    flows: &[FlowSpec],
    m: &FabricModel,
) -> Result<Vec<FlowBound>, BoundError> {
    if t.has_datelines() {
        return Err(BoundError::Datelines {
            topology: t.name().to_string(),
        });
    }
    // Per-flow point sequences.
    let mut paths = Vec::with_capacity(flows.len());
    for f in flows {
        let points = flow_points(t, f.src, f.dest).ok_or(BoundError::RouteLoop { flow: f.id })?;
        paths.push(points);
    }
    // Occupancy: which flows cross each point (ascending flow index, so
    // every float accumulation below has a deterministic order).
    let mut at_point: BTreeMap<Point, Vec<usize>> = BTreeMap::new();
    for (i, path) in paths.iter().enumerate() {
        for &pt in path {
            at_point.entry(pt).or_default().push(i);
        }
    }
    // Feedforward check + processing order: Kahn's algorithm over the
    // precedence edges (consecutive points of each path).
    let order = topo_order(&at_point, &paths).ok_or_else(|| BoundError::CyclicRoutes {
        topology: t.name().to_string(),
        unordered_points: at_point.len(),
    })?;

    // SFA sweep in precedence order: at each point, each crossing flow
    // gets the blind-multiplexing leftover of its VC's (or, for FIFO, the
    // port's) service curve, and its burstiness is propagated to the next
    // point on its path. `None` marks a flow with no finite bound from
    // this point on.
    let mut alpha: Vec<Option<ArrivalCurve>> = flows.iter().map(|f| Some(f.arrival)).collect();
    let mut leftovers: Vec<Vec<Option<ServiceCurve>>> = vec![Vec::new(); flows.len()];
    for pt in order {
        let here = &at_point[&pt];
        let is_ni = pt.0 == u32::MAX;
        // Aggregate curves by VC (rate-based paths) and over the whole
        // point (FIFO), in ascending flow order.
        let vc_of = |i: usize| {
            if is_ni {
                flows[i].vc_in
            } else {
                flows[i].vc_out
            }
        };
        let rt_vcs_here = {
            let mut vcs: Vec<u32> = here.iter().map(|&i| vc_of(i)).collect();
            vcs.sort_unstable();
            vcs.dedup();
            vcs.len() as u32
        };
        for &i in here {
            let Some(a_i) = alpha[i] else {
                leftovers[i].push(None);
                continue;
            };
            let leftover = if matches!(m.sched, SchedKind::Fifo) {
                // One shared constant-rate server; competition is every
                // other flow plus (worst-case) best-effort traffic.
                let mut cross: Option<ArrivalCurve> = None;
                let mut add = |c: ArrivalCurve| {
                    cross = Some(cross.map_or(c, |x| x.plus(c)));
                };
                let mut saturated = false;
                for &j in here {
                    if j == i {
                        continue;
                    }
                    match alpha[j] {
                        Some(a) => add(a),
                        None => saturated = true,
                    }
                }
                if let Some(be) = m.be_per_node {
                    // At the NI only the local source competes; at a
                    // router port, any subset of the fabric's best-effort
                    // traffic can converge (destinations are arbitrary).
                    let n = if is_ni { 1.0 } else { f64::from(m.node_count) };
                    add(be.times(n));
                }
                let port = ServiceCurve::new(m.link_rate, 0.0);
                if saturated {
                    None
                } else {
                    match cross {
                        Some(c) => port.leftover(c),
                        None => Some(port),
                    }
                }
            } else {
                let vc = vc_of(i);
                let service = vc_service(m, rt_vcs_here);
                let mut cross: Option<ArrivalCurve> = None;
                let mut saturated = false;
                for &j in here {
                    if j == i || vc_of(j) != vc {
                        continue;
                    }
                    match alpha[j] {
                        Some(a) => cross = Some(cross.map_or(a, |x| x.plus(a))),
                        None => saturated = true,
                    }
                }
                if saturated {
                    None
                } else {
                    match cross {
                        Some(c) => service.leftover(c),
                        None => Some(service),
                    }
                }
            };
            leftovers[i].push(leftover);
            alpha[i] = match leftover {
                Some(s) if a_i.rho <= s.rate => Some(a_i.output(s)),
                _ => None,
            };
        }
    }

    // End-to-end: min-plus convolution of each flow's per-point leftover
    // curves, horizontal deviation against its source envelope, plus the
    // fixed pipeline/wire cycles per point.
    Ok(flows
        .iter()
        .enumerate()
        .map(|(i, f)| {
            let e2e = leftovers[i]
                .iter()
                .try_fold(None::<ServiceCurve>, |acc, s| {
                    let s = (*s)?;
                    Some(Some(acc.map_or(s, |a| a.convolve(s))))
                })
                .flatten();
            let fixed = m.point_fixed_cycles * paths[i].len() as f64;
            let bound_cycles = e2e
                .and_then(|s| s.delay_bound(f.arrival))
                .map(|d| d + fixed);
            FlowBound {
                id: f.id,
                bound_cycles,
                hops: (paths[i].len() - 1) as u32,
                guaranteed: f.guaranteed,
                arrival: f.arrival,
            }
        })
        .collect())
}

/// Kahn's topological sort over the precedence edges (consecutive points
/// of each flow path). Deterministic: the ready set is ordered by point
/// key. `None` if a cycle leaves points unordered.
fn topo_order(at_point: &BTreeMap<Point, Vec<usize>>, paths: &[Vec<Point>]) -> Option<Vec<Point>> {
    let mut indegree: BTreeMap<Point, usize> = at_point.keys().map(|&p| (p, 0)).collect();
    let mut edges: BTreeMap<Point, Vec<Point>> = BTreeMap::new();
    for path in paths {
        for w in path.windows(2) {
            edges.entry(w[0]).or_default().push(w[1]);
        }
    }
    for (_, outs) in edges.iter_mut() {
        outs.sort_unstable();
        outs.dedup();
        for o in outs.iter() {
            *indegree.get_mut(o).expect("edge target is a known point") += 1;
        }
    }
    let mut ready: Vec<Point> = indegree
        .iter()
        .filter(|&(_, &d)| d == 0)
        .map(|(&p, _)| p)
        .collect();
    let mut order = Vec::with_capacity(at_point.len());
    while let Some(p) = ready.pop() {
        order.push(p);
        if let Some(outs) = edges.get(&p) {
            for &o in outs {
                let d = indegree.get_mut(&o).expect("known point");
                *d -= 1;
                if *d == 0 {
                    ready.push(o);
                }
            }
        }
        // Keep the ready set deterministic (pop the largest key; any
        // fixed order works, it never changes the results — only the
        // sweep sequence).
        ready.sort_unstable();
    }
    (order.len() == at_point.len()).then_some(order)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow(id: u32, src: u32, dest: u32, vc: u32, sigma: f64, rho: f64) -> FlowSpec {
        FlowSpec {
            id,
            src: NodeId(src),
            dest: NodeId(dest),
            vc_in: vc,
            vc_out: vc,
            arrival: ArrivalCurve::new(sigma, rho),
            guaranteed: true,
        }
    }

    fn model(sched: SchedKind) -> FabricModel {
        FabricModel {
            sched,
            link_rate: 1.0,
            max_msg_flits: 20.0,
            point_fixed_cycles: 6.0,
            rt_weight: 0.01,
            be_weight: 1e-12,
            be_vcs: 0,
            be_per_node: None,
            node_count: 8,
        }
    }

    #[test]
    fn curve_algebra_basics() {
        let a = ArrivalCurve::new(20.0, 0.01);
        let b = a.plus(ArrivalCurve::new(10.0, 0.02));
        assert_eq!(b, ArrivalCurve::new(30.0, 0.03));
        let s = ServiceCurve::new(0.5, 10.0).convolve(ServiceCurve::new(0.25, 5.0));
        assert_eq!(s, ServiceCurve::new(0.25, 15.0));
        // Horizontal deviation: θ + σ/R.
        assert_eq!(s.delay_bound(a), Some(15.0 + 20.0 / 0.25));
        // Output burstiness: σ + ρθ.
        assert_eq!(a.output(s), ArrivalCurve::new(20.0 + 0.01 * 15.0, 0.01));
        // An overloaded server bounds nothing.
        assert_eq!(s.delay_bound(ArrivalCurve::new(1.0, 0.3)), None);
        assert_eq!(
            ServiceCurve::new(0.5, 0.0).leftover(ArrivalCurve::new(1.0, 0.5)),
            None
        );
    }

    #[test]
    fn cbr_single_switch_closed_form() {
        // One lone CBR flow through a single switch under Virtual Clock:
        // two scheduling points (NI + ejection port), no cross traffic,
        // each a full-weight rate-latency server. With one RT VC and no
        // BE VCs, R = C = 1 and θ = L/R + L/C = 40; the convolution is
        // (1, 80), the bound θ_e2e + σ/R + 2·fixed = 80 + 20 + 12 = 112.
        let t = Topology::single_switch(4);
        let flows = [flow(0, 0, 1, 1, 20.0, 0.01)];
        let b = flow_bounds(&t, &flows, &model(SchedKind::VirtualClock)).unwrap();
        assert_eq!(b.len(), 1);
        assert_eq!(b[0].hops, 1);
        let expected = 2.0 * (20.0 / 1.0 + 20.0 / 1.0) + 20.0 / 1.0 + 2.0 * 6.0;
        assert!(
            (b[0].bound_cycles.unwrap() - expected).abs() < 1e-9,
            "bound {:?} expected {expected}",
            b[0].bound_cycles
        );
    }

    #[test]
    fn bound_grows_with_competing_load() {
        let t = Topology::single_switch(8);
        let m = model(SchedKind::VirtualClock);
        let solo = flow_bounds(&t, &[flow(0, 0, 7, 1, 20.0, 0.01)], &m).unwrap()[0]
            .bound_cycles
            .unwrap();
        // Nine flows from distinct sources converging on the same
        // ejection port and VC: more cross traffic, larger bound.
        let flows: Vec<FlowSpec> = (0..7).map(|i| flow(i, i, 7, 1, 20.0, 0.01)).collect();
        let loaded = flow_bounds(&t, &flows, &m).unwrap()[0]
            .bound_cycles
            .unwrap();
        assert!(
            loaded > solo,
            "competing load must not shrink the bound: solo {solo} loaded {loaded}"
        );
        // And the bound is monotone in the number of competitors.
        let mut last = solo;
        for n in 2..=7u32 {
            let flows: Vec<FlowSpec> = (0..n).map(|i| flow(i, i, 7, 1, 20.0, 0.01)).collect();
            let b = flow_bounds(&t, &flows, &m).unwrap()[0]
                .bound_cycles
                .unwrap();
            assert!(b >= last, "bound shrank from {last} to {b} at n={n}");
            last = b;
        }
    }

    #[test]
    fn bound_grows_with_hops() {
        // The same flow over longer mesh lines: each extra router adds a
        // scheduling point, so the bound must grow.
        let m = model(SchedKind::VirtualClock);
        let mut last = 0.0;
        for w in 2..=5u32 {
            let t = Topology::mesh(w, 1, 1);
            let flows = [flow(0, 0, w - 1, 1, 20.0, 0.01)];
            let b = flow_bounds(&t, &flows, &m).unwrap()[0];
            assert_eq!(b.hops, w);
            let bound = b.bound_cycles.unwrap();
            assert!(bound > last, "bound must grow with hops: {last} → {bound}");
            last = bound;
        }
    }

    #[test]
    fn every_scheduler_yields_a_finite_bound_without_be() {
        let t = Topology::single_switch(8);
        for sched in [
            SchedKind::VirtualClock,
            SchedKind::Wfq,
            SchedKind::Scfq,
            SchedKind::Drr { quantum: 4.0 },
            SchedKind::RoundRobin,
            SchedKind::Fifo,
        ] {
            let flows: Vec<FlowSpec> = (0..4).map(|i| flow(i, i, 7, 1, 20.0, 0.01)).collect();
            let b = flow_bounds(&t, &flows, &model(sched)).unwrap();
            for fb in &b {
                assert!(
                    fb.bound_cycles.is_some(),
                    "{sched:?} must bound a lightly-loaded RT-only mix"
                );
            }
        }
    }

    #[test]
    fn fifo_with_best_effort_cross_traffic_is_unbounded() {
        let t = Topology::single_switch(8);
        let mut m = model(SchedKind::Fifo);
        m.be_per_node = Some(ArrivalCurve::new(20.0, 0.2));
        // 8 nodes × 0.2 flits/cycle of potential cross traffic saturates
        // any single port: FIFO offers the stream no guaranteed rate.
        let b = flow_bounds(&t, &[flow(0, 0, 1, 1, 20.0, 0.01)], &m).unwrap();
        assert_eq!(b[0].bound_cycles, None);
        // The same mix under Virtual Clock stays bounded: BE rides its
        // own VCs at negligible weight.
        let mut m = model(SchedKind::VirtualClock);
        m.be_per_node = Some(ArrivalCurve::new(20.0, 0.2));
        m.be_vcs = 3;
        let b = flow_bounds(&t, &[flow(0, 0, 1, 1, 20.0, 0.01)], &m).unwrap();
        assert!(b[0].bound_cycles.is_some());
    }

    #[test]
    fn saturated_vc_reports_none_not_a_number() {
        let t = Topology::single_switch(8);
        let m = model(SchedKind::VirtualClock);
        // 120 flows of ρ=0.01 on one VC of one ejection port: aggregate
        // 1.2 flits/cycle exceeds the link — no finite bound for anyone
        // crossing it.
        let flows: Vec<FlowSpec> = (0..120).map(|i| flow(i, i % 7, 7, 1, 20.0, 0.01)).collect();
        let b = flow_bounds(&t, &flows, &m).unwrap();
        assert!(b.iter().all(|fb| fb.bound_cycles.is_none()));
    }

    #[test]
    fn torus_rejected_with_typed_error() {
        let t = Topology::torus(3, 3, 1);
        let err =
            flow_bounds(&t, &[flow(0, 0, 4, 1, 20.0, 0.01)], &model(SchedKind::Wfq)).unwrap_err();
        assert!(matches!(err, BoundError::Datelines { .. }), "{err}");
    }

    #[test]
    fn ring_wrap_around_rejected_as_cyclic() {
        // Four two-hop clockwise flows covering the whole ring: their
        // through ports chain r0→r1→r2→r3→r0 — a precedence cycle.
        let t = Topology::ring(4, 1);
        let flows = [
            flow(0, 0, 2, 1, 20.0, 0.01),
            flow(1, 1, 3, 1, 20.0, 0.01),
            flow(2, 2, 0, 1, 20.0, 0.01),
            flow(3, 3, 1, 1, 20.0, 0.01),
        ];
        let err = flow_bounds(&t, &flows, &model(SchedKind::Wfq)).unwrap_err();
        assert!(matches!(err, BoundError::CyclicRoutes { .. }), "{err}");
        // A partial (genuinely feedforward) ring mix stays analysable.
        let ok = flow_bounds(&t, &flows[..2], &model(SchedKind::Wfq)).unwrap();
        assert!(ok.iter().all(|b| b.bound_cycles.is_some()));
    }

    #[test]
    fn results_are_deterministic() {
        let t = Topology::single_switch(8);
        let flows: Vec<FlowSpec> = (0..20)
            .map(|i| flow(i, i % 8, (i + 3) % 8, 1 + i % 3, 20.0, 0.01))
            .collect();
        let a = flow_bounds(&t, &flows, &model(SchedKind::Scfq)).unwrap();
        let b = flow_bounds(&t, &flows, &model(SchedKind::Scfq)).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(
                x.bound_cycles.map(f64::to_bits),
                y.bound_cycles.map(f64::to_bits)
            );
        }
    }
}
