//! Bandwidth-accounting admission control.
//!
//! The paper's conclusion (§5.7, §6): "Admission control criteria … have to
//! consider what is the maximum load and proportion of VBR to best-effort
//! traffic that will provide statistically acceptable QoS". This module
//! implements the natural controller: track the real-time bandwidth
//! reserved on every physical link, and admit a stream only if every link
//! of its deterministic route stays below a configurable utilisation
//! threshold — the threshold being exactly the jitter-free operating point
//! the experiments identify (≈ 0.7–0.8 of link bandwidth for a single
//! MediaWorm switch).

use std::collections::HashMap;

use flitnet::{NodeId, PortId, RouterId, StreamId};
use topo::{PortTarget, Topology};

/// A link (or fat bundle) in a route: router `r`'s output port `p` —
/// lowest member port when parallel links bundle toward one neighbour —
/// (the injection link is represented by the attachment router's input,
/// keyed specially).
type LinkKey = (u32, u32);

/// Tracks per-link reserved bandwidth and admits or rejects streams.
///
/// # Example
///
/// ```
/// use mediaworm::AdmissionController;
/// use flitnet::{NodeId, StreamId};
/// use topo::Topology;
///
/// let topology = Topology::single_switch(8);
/// // 400 Mbps links, admit up to 80 % real-time utilisation.
/// let mut ac = AdmissionController::new(&topology, 400e6, 0.8);
/// // 80 streams of 4 Mbps fit under the 320 Mbps ceiling…
/// for k in 0..80 {
///     assert!(ac.admit(StreamId(k), NodeId(0), NodeId(1), 4e6).is_ok());
/// }
/// // …the 81st does not.
/// assert!(ac.admit(StreamId(80), NodeId(0), NodeId(1), 4e6).is_err());
/// ```
#[derive(Debug, Clone)]
pub struct AdmissionController {
    topology: Topology,
    link_bps: f64,
    threshold: f64,
    reserved: HashMap<LinkKey, f64>,
    /// Per admitted stream: each route link's key and aggregate capacity
    /// (kept so `release` can scale its cleanup threshold per bundle; the
    /// injection pseudo-key cannot be recovered from `bundle_of`).
    routes: HashMap<u32, Vec<(LinkKey, f64)>>,
}

/// Why a stream was rejected.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionError {
    /// The saturated link (router id, output port).
    pub link: (RouterId, PortId),
    /// The utilisation the stream would have pushed the link to.
    pub would_be_utilisation: f64,
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "admission denied: link {}:{} would reach {:.1}% utilisation",
            self.link.0,
            self.link.1,
            self.would_be_utilisation * 100.0
        )
    }
}

impl std::error::Error for AdmissionError {}

/// Why a release failed: the stream was never admitted (or was already
/// released).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReleaseError {
    /// The stream the caller tried to release.
    pub stream: StreamId,
}

impl std::fmt::Display for ReleaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "release failed: stream {} was not admitted", self.stream)
    }
}

impl std::error::Error for ReleaseError {}

impl AdmissionController {
    /// Creates a controller for `topology` with links of `link_bps` and a
    /// real-time utilisation ceiling of `threshold` (fraction of link
    /// bandwidth).
    ///
    /// # Panics
    ///
    /// Panics if `link_bps` is not positive or `threshold` is outside
    /// `(0, 1]`.
    pub fn new(topology: &Topology, link_bps: f64, threshold: f64) -> AdmissionController {
        assert!(link_bps > 0.0, "link bandwidth must be positive");
        assert!(
            threshold > 0.0 && threshold <= 1.0,
            "threshold must be in (0, 1]"
        );
        AdmissionController {
            topology: topology.clone(),
            link_bps,
            threshold,
            reserved: HashMap::new(),
            routes: HashMap::new(),
        }
    }

    /// The links a `src → dest` stream traverses under deterministic
    /// routing, each with its aggregate capacity in bps, plus the
    /// injection link encoded as `(u32::MAX, src)`.
    ///
    /// On fat bundles the router spreads flits across every parallel link
    /// by instantaneous load, so the reservation is keyed by the *bundle*
    /// (its lowest member port) and metered against `width × link_bps` —
    /// booking only the first candidate link both rejected streams the
    /// bundle could carry and left the other members unaccounted.
    ///
    /// Keys come from [`AdmissionController::bundle_of`], the same
    /// function `utilisation` reads with: keying by `min(route
    /// candidates)` instead used to desynchronise the two whenever routing
    /// offered a strict subset of a bundle (reserve under one key, read
    /// another — utilisation silently reported 0).
    fn route_links(&self, src: NodeId, dest: NodeId) -> Vec<(LinkKey, f64)> {
        let path = self.topology.path(src, dest).expect("routing loop");
        let mut links = vec![((u32::MAX, src.get()), self.link_bps)];
        links.extend(path.into_iter().map(|(r, p)| self.bundle_of(r, p)));
        links
    }

    /// The bundle containing router `r`'s output port `p`: its key (the
    /// lowest member port) and aggregate capacity. Node-facing ports are
    /// their own single-link bundle.
    fn bundle_of(&self, r: RouterId, p: PortId) -> (LinkKey, f64) {
        match self.topology.target_of(r, p) {
            PortTarget::Router { router: next, .. } => {
                let mut width = 0u32;
                let mut key_port = u32::MAX;
                for q in 0..self.topology.ports_of(r) {
                    if let PortTarget::Router { router, .. } = self.topology.target_of(r, PortId(q))
                    {
                        if router == next {
                            width += 1;
                            key_port = key_port.min(q);
                        }
                    }
                }
                ((r.get(), key_port), self.link_bps * f64::from(width))
            }
            PortTarget::Node(_) => ((r.get(), p.get()), self.link_bps),
        }
    }

    /// Requests admission for a stream of `rate_bps` from `src` to `dest`.
    ///
    /// On success the bandwidth is reserved on every link of the route
    /// until [`AdmissionController::release`].
    ///
    /// # Errors
    ///
    /// Returns the first link whose real-time reservation would exceed the
    /// threshold.
    ///
    /// # Panics
    ///
    /// Panics if `rate_bps` is not positive or the stream id is already
    /// admitted.
    pub fn admit(
        &mut self,
        stream: StreamId,
        src: NodeId,
        dest: NodeId,
        rate_bps: f64,
    ) -> Result<(), AdmissionError> {
        assert!(rate_bps > 0.0, "stream rate must be positive");
        assert!(
            !self.routes.contains_key(&stream.get()),
            "stream {stream} already admitted"
        );
        let links = self.route_links(src, dest);
        for (key, capacity_bps) in &links {
            let used = self.reserved.get(key).copied().unwrap_or(0.0);
            let would = (used + rate_bps) / capacity_bps;
            // Relative epsilon: an absolute one is meaningless across the
            // ~1e8 dynamic range of link rates, and repeated admit/release
            // cycles accumulate relative rounding error.
            if would > self.threshold * (1.0 + 1e-9) {
                return Err(AdmissionError {
                    link: (RouterId(key.0), PortId(key.1)),
                    would_be_utilisation: would,
                });
            }
        }
        for (key, _) in &links {
            *self.reserved.entry(*key).or_insert(0.0) += rate_bps;
        }
        self.routes.insert(stream.get(), links);
        Ok(())
    }

    /// Releases a previously admitted stream's reservations.
    ///
    /// # Errors
    ///
    /// Returns [`ReleaseError`] if the stream was never admitted (or was
    /// already released); the controller's state is unchanged.
    pub fn release(&mut self, stream: StreamId, rate_bps: f64) -> Result<(), ReleaseError> {
        let links = self
            .routes
            .remove(&stream.get())
            .ok_or(ReleaseError { stream })?;
        for (key, capacity_bps) in links {
            let used = self.reserved.get_mut(&key).expect("reservation exists");
            // Clamp at zero: subtraction can undershoot by a few ulps and a
            // negative reservation would let later admissions overshoot the
            // threshold. The drop-the-entry threshold scales with the
            // *bundle's* aggregate capacity — a fixed `link_bps * 1e-12`
            // under-cleans wide bundles, whose ulp-scale residue is
            // proportionally larger.
            *used = (*used - rate_bps).max(0.0);
            if *used <= capacity_bps * 1e-12 {
                self.reserved.remove(&key);
            }
        }
        Ok(())
    }

    /// Current real-time utilisation of the link (or fat bundle) that
    /// router `r`'s output port `p` belongs to — every member port of a
    /// bundle reports the same aggregate figure.
    pub fn utilisation(&self, r: RouterId, p: PortId) -> f64 {
        let (key, capacity_bps) = self.bundle_of(r, p);
        self.reserved.get(&key).copied().unwrap_or(0.0) / capacity_bps
    }

    /// Number of admitted streams.
    pub fn admitted(&self) -> usize {
        self.routes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admits_until_threshold_then_rejects() {
        let t = Topology::single_switch(8);
        let mut ac = AdmissionController::new(&t, 400e6, 0.7);
        // 0.7 × 400 Mbps = 280 Mbps = 70 streams of 4 Mbps on one route.
        for k in 0..70 {
            ac.admit(StreamId(k), NodeId(0), NodeId(1), 4e6).unwrap();
        }
        let err = ac
            .admit(StreamId(70), NodeId(0), NodeId(1), 4e6)
            .unwrap_err();
        assert!(err.would_be_utilisation > 0.7);
        assert_eq!(ac.admitted(), 70);
    }

    #[test]
    fn different_routes_do_not_interfere() {
        let t = Topology::single_switch(8);
        let mut ac = AdmissionController::new(&t, 400e6, 0.5);
        for k in 0..50 {
            ac.admit(StreamId(k), NodeId(0), NodeId(1), 4e6).unwrap();
        }
        // The 0→1 ejection link is full, but 2→3 is untouched… except the
        // injection link of node 2 which is also fresh.
        assert!(ac.admit(StreamId(100), NodeId(2), NodeId(3), 4e6).is_ok());
        // A new stream into node 1 hits the saturated ejection link.
        assert!(ac.admit(StreamId(101), NodeId(2), NodeId(1), 4e6).is_err());
    }

    #[test]
    fn release_frees_capacity() {
        let t = Topology::single_switch(8);
        let mut ac = AdmissionController::new(&t, 400e6, 0.1);
        for k in 0..10 {
            ac.admit(StreamId(k), NodeId(0), NodeId(1), 4e6).unwrap();
        }
        assert!(ac.admit(StreamId(10), NodeId(0), NodeId(1), 4e6).is_err());
        ac.release(StreamId(0), 4e6).unwrap();
        assert!(ac.admit(StreamId(10), NodeId(0), NodeId(1), 4e6).is_ok());
    }

    #[test]
    fn release_of_unknown_stream_is_an_error_not_a_panic() {
        let t = Topology::single_switch(8);
        let mut ac = AdmissionController::new(&t, 400e6, 0.5);
        assert_eq!(
            ac.release(StreamId(7), 4e6),
            Err(ReleaseError {
                stream: StreamId(7)
            })
        );
        ac.admit(StreamId(7), NodeId(0), NodeId(1), 4e6).unwrap();
        ac.release(StreamId(7), 4e6).unwrap();
        // Double release is also an error, and state stays consistent.
        assert!(ac.release(StreamId(7), 4e6).is_err());
        assert_eq!(ac.admitted(), 0);
    }

    #[test]
    fn churn_does_not_accumulate_float_drift() {
        let t = Topology::single_switch(8);
        let mut ac = AdmissionController::new(&t, 400e6, 0.7);
        // 4e6 × 1.1 / 3 is not exactly representable, so every cycle of
        // admit/release leaves ulp-scale residue unless releases clamp.
        let rate = 4e6 * 1.1 / 3.0;
        for round in 0..10_000u32 {
            ac.admit(StreamId(round), NodeId(0), NodeId(1), rate)
                .unwrap();
            ac.release(StreamId(round), rate).unwrap();
        }
        // After full churn the controller must still admit the exact
        // threshold-filling population it accepts when fresh.
        let full = (0.7 * 400e6 / rate) as u32;
        for k in 0..full {
            ac.admit(StreamId(k), NodeId(0), NodeId(1), rate).unwrap();
        }
        assert_eq!(ac.admitted(), full as usize);
    }

    #[test]
    fn fat_mesh_routes_reserve_intermediate_links() {
        let t = Topology::fat_mesh(2, 2, 2, 4);
        let mut ac = AdmissionController::new(&t, 400e6, 1.0);
        // Node 0 (router 0) → node 12 (router 3): two hops.
        ac.admit(StreamId(0), NodeId(0), NodeId(12), 4e6).unwrap();
        // Some inter-router link on router 0 carries the reservation.
        let used: f64 = (0..8).map(|p| ac.utilisation(RouterId(0), PortId(p))).sum();
        assert!(used > 0.0, "route must reserve a router-0 output");
    }

    #[test]
    fn fat_bundle_is_metered_against_aggregate_capacity() {
        // 2×2 fat mesh: two parallel links per neighbour pair. The router
        // spreads flits across the bundle by instantaneous load, so the
        // controller must meter 2 × link_bps — booking route()[0] alone
        // rejected the second stream at half the real capacity.
        let t = Topology::fat_mesh(2, 2, 2, 4);
        let mut ac = AdmissionController::new(&t, 400e6, 1.0);
        // Nodes 0..3 live on router 0, nodes 8..11 on router 2; the +Y hop
        // crosses the two-link bundle. Distinct src/dest keep injection
        // and ejection links disjoint, so the bundle is the only shared
        // resource.
        ac.admit(StreamId(0), NodeId(0), NodeId(8), 400e6).unwrap();
        ac.admit(StreamId(1), NodeId(1), NodeId(9), 400e6).unwrap();
        // Two full-link streams saturate the 800 Mbps bundle exactly;
        // every member port reports the aggregate figure.
        let cands: Vec<PortId> = t.route(RouterId(0), NodeId(8)).to_vec();
        assert_eq!(cands.len(), 2, "fat mesh offers a two-link bundle");
        for &p in &cands {
            assert!((ac.utilisation(RouterId(0), p) - 1.0).abs() < 1e-9);
        }
        // A third stream over the same bundle must be rejected against
        // the bundle, not against one member link.
        let err = ac
            .admit(StreamId(2), NodeId(2), NodeId(10), 400e6)
            .unwrap_err();
        assert!(err.would_be_utilisation > 1.0);
        assert_eq!(err.link.0, RouterId(0));
        assert_eq!(ac.admitted(), 2);
        // Releasing one stream frees bundle headroom again.
        ac.release(StreamId(0), 400e6).unwrap();
        ac.admit(StreamId(2), NodeId(2), NodeId(10), 400e6).unwrap();
    }

    #[test]
    fn routing_subset_of_a_bundle_reserves_under_the_bundle_key() {
        // Fat-tree uplinks are route *candidates* that lead to different
        // spine routers, so each is its own width-1 bundle. `route_links`
        // used to pool them anyway — keyed by min(candidate), metered at
        // `cands.len() × link_bps` — while `utilisation()` reads the
        // width-1 bundle at 1 × link_bps. `admit` therefore booked two
        // full-rate streams against the pooled capacity and the port-0
        // uplink read 200 % utilised.
        let t = Topology::fat_tree(2, 2, 2);
        let mut ac = AdmissionController::new(&t, 400e6, 1.0);
        // Node 0 (edge router 0) → node 2 (edge router 1): up one spine,
        // back down. The up hop books the bundle of candidate port 0.
        ac.admit(StreamId(0), NodeId(0), NodeId(2), 400e6).unwrap();
        assert!((ac.utilisation(RouterId(0), PortId(0)) - 1.0).abs() < 1e-9);
        // Pre-fix this second full-rate stream was *accepted* against the
        // phantom pooled capacity, overbooking the physical uplink.
        let err = ac
            .admit(StreamId(1), NodeId(1), NodeId(3), 400e6)
            .unwrap_err();
        assert_eq!(err.link, (RouterId(0), PortId(0)));
        // The reservation admit metered is the one utilisation reports.
        assert!(ac.utilisation(RouterId(0), PortId(0)) <= 1.0 + 1e-9);
    }

    #[test]
    fn release_cleanup_threshold_scales_with_bundle_capacity() {
        // A 1536-wide fat bundle accumulates reservations around 4e11 bps,
        // where one f64 ulp is ~1.2e-4 — already above the old absolute
        // cleanup threshold of link_bps × 1e-12 = 4e-4 after a few ops.
        // The varied rate schedule below deterministically leaves a
        // subtraction residue of ~6.8e-4 bps on the bundle accumulator
        // once every stream is released: the old threshold leaked the
        // entry (utilisation stayed nonzero forever), the
        // capacity-scaled threshold cleans it.
        let t = Topology::fat_mesh(2, 1, 1536, 1536);
        let mut ac = AdmissionController::new(&t, 400e6, 1.0);
        let rate = |i: u32| 400e6 * (0.5 + 0.4 * f64::from((i * 37) % 101) / 101.0);
        for i in 0..1536u32 {
            // Distinct src/dest per stream: the shared bundle is the only
            // accumulator that sees every rate.
            ac.admit(StreamId(i), NodeId(i), NodeId(1536 + i), rate(i))
                .unwrap();
        }
        let bundle_port = t.route(RouterId(0), NodeId(1536))[0];
        assert!(ac.utilisation(RouterId(0), bundle_port) > 0.4);
        for i in 0..1536u32 {
            ac.release(StreamId(i), rate(i)).unwrap();
        }
        assert_eq!(ac.admitted(), 0);
        assert_eq!(
            ac.utilisation(RouterId(0), bundle_port),
            0.0,
            "released bundle must report exactly zero utilisation"
        );
    }

    #[test]
    fn utilisation_reports_fractions() {
        let t = Topology::single_switch(8);
        let mut ac = AdmissionController::new(&t, 400e6, 1.0);
        ac.admit(StreamId(0), NodeId(3), NodeId(4), 40e6).unwrap();
        let (r, p) = t.attachment(NodeId(4));
        assert!((ac.utilisation(r, p) - 0.1).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "already admitted")]
    fn double_admit_panics() {
        let t = Topology::single_switch(8);
        let mut ac = AdmissionController::new(&t, 400e6, 1.0);
        ac.admit(StreamId(0), NodeId(0), NodeId(1), 4e6).unwrap();
        let _ = ac.admit(StreamId(0), NodeId(0), NodeId(2), 4e6);
    }
}
