//! Cluster interconnect topologies for the MediaWorm study.
//!
//! The paper evaluates a single 8-port switch and a 2×2 *fat-mesh* — a
//! 4-switch mesh in which each neighbouring pair of switches is connected by
//! **two** parallel physical links ("fat pipes", §3.4), with the remaining
//! ports attached to endpoints. This crate describes such topologies and
//! precomputes deterministic route tables:
//!
//! * [`Topology::single_switch`] — one `n`-port crossbar, `n` endpoints.
//! * [`Topology::fat_mesh`] — a `w×h` mesh with `fat` parallel links per
//!   neighbour pair and a configurable number of endpoints per switch
//!   (`fat_mesh(2, 2, 2, 4)` is the paper's network).
//! * [`Topology::mesh`] — the thin (fat = 1) special case.
//!
//! Routing is deterministic dimension-ordered XY. Where a hop has several
//! parallel links, [`Topology::route`] returns *all* candidate output ports
//! and the router picks one "based on the current load", exactly as §3.4
//! prescribes.

#![warn(missing_docs)]

mod builder;
mod route;

pub use builder::{PortTarget, RouterSpec};
pub use route::RouteTable;

use flitnet::{NodeId, PortId, RouterId, VcSel};

/// A described interconnect: routers, their port wiring, endpoint
/// attachments and a precomputed deterministic route table.
///
/// # Example
///
/// ```
/// use topo::Topology;
/// use flitnet::{NodeId, RouterId};
///
/// // The paper's single 8-port switch…
/// let single = Topology::single_switch(8);
/// assert_eq!(single.router_count(), 1);
/// assert_eq!(single.node_count(), 8);
///
/// // …and its 2×2 fat-mesh (two links per neighbour pair, 4 endpoints
/// // per switch → 8 ports per router, 16 endpoints).
/// let fat = Topology::fat_mesh(2, 2, 2, 4);
/// assert_eq!(fat.router_count(), 4);
/// assert_eq!(fat.node_count(), 16);
/// assert_eq!(fat.ports_of(RouterId(0)), 8);
/// ```
#[derive(Debug, Clone)]
pub struct Topology {
    routers: Vec<RouterSpec>,
    /// For each node: the (router, port) it attaches to.
    attachments: Vec<(RouterId, PortId)>,
    routes: RouteTable,
    name: String,
    /// Per-(router, dest) dateline VC restriction; `None` on topologies
    /// without wrap links (everything except the torus).
    vc_sel: Option<Vec<Vec<VcSel>>>,
}

impl Topology {
    /// A single switch with `ports` ports, each attached to one endpoint.
    ///
    /// # Panics
    ///
    /// Panics if `ports == 0`.
    pub fn single_switch(ports: u32) -> Topology {
        builder::single_switch(ports)
    }

    /// A `w × h` mesh of switches with `fat` parallel links between each
    /// neighbouring pair and `endpoints` endpoints per switch.
    ///
    /// Router `(x, y)` has id `y·w + x`. Ports are laid out neighbour links
    /// first (−X, +X, −Y, +Y in that order, `fat` consecutive ports per
    /// present neighbour), then endpoint ports.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero, `fat == 0`, or `endpoints == 0`.
    pub fn fat_mesh(w: u32, h: u32, fat: u32, endpoints: u32) -> Topology {
        builder::fat_mesh(w, h, fat, endpoints)
    }

    /// A thin `w × h` mesh (one link per neighbour pair).
    pub fn mesh(w: u32, h: u32, endpoints: u32) -> Topology {
        builder::fat_mesh(w, h, 1, endpoints)
    }

    /// A `w × h` torus (a mesh whose rows and columns wrap around) with
    /// `endpoints` endpoints per switch.
    ///
    /// Router `(x, y)` has id `y·w + x`; ports 0–3 are the −X, +X, −Y, +Y
    /// neighbour links, then the endpoint ports. Routing is
    /// shortest-direction dimension-ordered XY (ties at distance `k/2` go
    /// in the positive direction). The wrap links would close
    /// channel-dependency cycles around each ring, so every hop carries a
    /// dateline VC restriction (see [`Topology::vc_sel`]): a worm whose
    /// remaining path in the current dimension still crosses the wrap link
    /// must allocate from the lower half of its class's VC range, and from
    /// the upper half afterwards. Lower channels hand over to upper
    /// channels exactly once (at the wrap hop) and upper channels never
    /// use a wrap link, so the dependency order is acyclic. Simulators
    /// honouring the restriction need ≥ 2 VCs per populated traffic class.
    ///
    /// # Panics
    ///
    /// Panics if `w < 3` or `h < 3` (below that the wrap link duplicates
    /// the mesh link) or `endpoints == 0`.
    pub fn torus(w: u32, h: u32, endpoints: u32) -> Topology {
        builder::torus(w, h, endpoints)
    }

    /// A two-level fat-tree: `leaves` leaf switches (each with
    /// `endpoints` endpoints) fully connected to `roots` root switches —
    /// the other "fat topology" the paper names in §3.4. Up-links are
    /// load-balanced (any root reaches any leaf); routing is the
    /// deadlock-free up/down scheme.
    ///
    /// # Panics
    ///
    /// Panics if `leaves < 2`, `roots == 0`, or `endpoints == 0`.
    pub fn fat_tree(leaves: u32, roots: u32, endpoints: u32) -> Topology {
        builder::fat_tree(leaves, roots, endpoints)
    }

    /// A unidirectional ring of `n` switches with `endpoints` endpoints
    /// each: port 0 is the clockwise out-link, port 1 the in-link from the
    /// counter-clockwise neighbour, and all traffic routes clockwise.
    ///
    /// With a single VC lane this closes the classic channel-dependency
    /// cycle around the ring — the topology is **deliberately
    /// deadlock-prone** (no dateline VC scheme) and exists to exercise the
    /// core crate's progress watchdog; do not use it for performance
    /// studies.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or `endpoints == 0`.
    pub fn ring(n: u32, endpoints: u32) -> Topology {
        builder::ring(n, endpoints)
    }

    /// Human-readable topology name (for reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of routers.
    pub fn router_count(&self) -> usize {
        self.routers.len()
    }

    /// Number of endpoints.
    pub fn node_count(&self) -> usize {
        self.attachments.len()
    }

    /// Number of ports on router `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn ports_of(&self, r: RouterId) -> u32 {
        self.routers[r.index()].ports.len() as u32
    }

    /// What router `r`'s port `p` connects to.
    ///
    /// # Panics
    ///
    /// Panics if `r` or `p` is out of range.
    pub fn target_of(&self, r: RouterId, p: PortId) -> PortTarget {
        self.routers[r.index()].ports[p.index()]
    }

    /// The `(router, port)` a node attaches to.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn attachment(&self, node: NodeId) -> (RouterId, PortId) {
        self.attachments[node.index()]
    }

    /// Candidate output ports at router `at` for traffic to `dest`
    /// (deterministic XY; several ports only where parallel fat links
    /// exist).
    ///
    /// # Panics
    ///
    /// Panics if `at` or `dest` is out of range.
    pub fn route(&self, at: RouterId, dest: NodeId) -> &[PortId] {
        self.routes.candidates(at, dest)
    }

    /// The dateline VC restriction for the hop router `at` takes toward
    /// `dest` — [`VcSel::Any`] everywhere except on tori (see
    /// [`Topology::torus`]).
    ///
    /// # Panics
    ///
    /// Panics if `at` or `dest` is out of range (only on topologies that
    /// carry a table; others return `Any` unconditionally).
    pub fn vc_sel(&self, at: RouterId, dest: NodeId) -> VcSel {
        match &self.vc_sel {
            Some(t) => t[at.index()][dest.index()],
            None => VcSel::Any,
        }
    }

    /// [`Topology::route`] and [`Topology::vc_sel`] in one call — what a
    /// router's VC allocator consumes per head flit.
    pub fn route_sel(&self, at: RouterId, dest: NodeId) -> (&[PortId], VcSel) {
        (self.routes.candidates(at, dest), self.vc_sel(at, dest))
    }

    /// Whether this topology carries a dateline VC discipline (tori).
    /// Simulators honouring it need at least two VCs per populated
    /// traffic class, or the lower dateline half is empty.
    pub fn has_datelines(&self) -> bool {
        self.vc_sel.is_some()
    }

    /// The canonical (first-candidate) route of `src → dest`: one
    /// `(router, output port)` pair per router traversed, from the
    /// source's attachment router to the destination's, whose last port
    /// is the ejection port. `None` if the walk revisits a router
    /// (a routing loop).
    ///
    /// # Panics
    ///
    /// Panics if `src` or `dest` is out of range.
    pub fn path(&self, src: NodeId, dest: NodeId) -> Option<Vec<(RouterId, PortId)>> {
        let (mut at, _) = self.attachment(src);
        let (goal, _) = self.attachment(dest);
        let mut path = Vec::new();
        loop {
            if path.len() > self.router_count() {
                return None;
            }
            let port = self.route(at, dest)[0];
            path.push((at, port));
            if at == goal {
                return Some(path);
            }
            match self.target_of(at, port) {
                PortTarget::Router { router, .. } => at = router,
                PortTarget::Node(_) => return Some(path),
            }
        }
    }

    /// Number of router-to-router hops between two endpoints.
    ///
    /// # Panics
    ///
    /// Panics on a routing loop (see [`Topology::path`]).
    pub fn hops(&self, src: NodeId, dest: NodeId) -> u32 {
        let path = self.path(src, dest).expect("routing loop");
        (path.len() - 1) as u32
    }

    /// Iterates over all router specs.
    pub fn routers(&self) -> impl Iterator<Item = (RouterId, &RouterSpec)> {
        self.routers
            .iter()
            .enumerate()
            .map(|(i, s)| (RouterId(i as u32), s))
    }

    pub(crate) fn from_parts(
        name: String,
        routers: Vec<RouterSpec>,
        attachments: Vec<(RouterId, PortId)>,
        routes: RouteTable,
    ) -> Topology {
        Topology {
            routers,
            attachments,
            routes,
            name,
            vc_sel: None,
        }
    }

    /// Attaches a per-(router, dest) dateline table (torus builder only).
    pub(crate) fn with_vc_sel(mut self, table: Vec<Vec<VcSel>>) -> Topology {
        assert_eq!(table.len(), self.routers.len());
        self.vc_sel = Some(table);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_switch_wiring() {
        let t = Topology::single_switch(8);
        assert_eq!(t.router_count(), 1);
        assert_eq!(t.node_count(), 8);
        for n in 0..8 {
            let (r, p) = t.attachment(NodeId(n));
            assert_eq!(r, RouterId(0));
            assert_eq!(p, PortId(n));
            assert_eq!(t.target_of(r, p), PortTarget::Node(NodeId(n)));
        }
    }

    #[test]
    fn single_switch_routes_to_attachment_port() {
        let t = Topology::single_switch(8);
        for n in 0..8 {
            let ports = t.route(RouterId(0), NodeId(n));
            assert_eq!(ports, &[PortId(n)]);
        }
    }

    #[test]
    fn paper_fat_mesh_shape() {
        let t = Topology::fat_mesh(2, 2, 2, 4);
        assert_eq!(t.router_count(), 4);
        assert_eq!(t.node_count(), 16);
        // Each router: 2 neighbours × 2 fat links + 4 endpoints = 8 ports.
        for r in 0..4 {
            assert_eq!(t.ports_of(RouterId(r)), 8);
        }
    }

    #[test]
    fn fat_mesh_parallel_links_offer_two_candidates() {
        let t = Topology::fat_mesh(2, 2, 2, 4);
        // Node 8 lives on router 2 (y=1, x=0). From router 0, X is equal,
        // so we go +Y over two parallel links.
        let (r, _) = t.attachment(NodeId(8));
        assert_eq!(r, RouterId(2));
        let cands = t.route(RouterId(0), NodeId(8));
        assert_eq!(cands.len(), 2);
        for p in cands {
            match t.target_of(RouterId(0), *p) {
                PortTarget::Router { router, .. } => assert_eq!(router, RouterId(2)),
                PortTarget::Node(_) => panic!("expected router link"),
            }
        }
    }

    #[test]
    fn fat_mesh_local_delivery_uses_endpoint_port() {
        let t = Topology::fat_mesh(2, 2, 2, 4);
        let (r, p) = t.attachment(NodeId(5));
        let cands = t.route(r, NodeId(5));
        assert_eq!(cands, &[p]);
    }

    #[test]
    fn xy_routing_goes_x_first() {
        let t = Topology::fat_mesh(2, 2, 2, 4);
        // Node 12 is on router 3 (x=1, y=1); from router 0 the first hop
        // must be in X, i.e. to router 1.
        let cands = t.route(RouterId(0), NodeId(12));
        for p in cands {
            match t.target_of(RouterId(0), *p) {
                PortTarget::Router { router, .. } => assert_eq!(router, RouterId(1)),
                PortTarget::Node(_) => panic!("expected router link"),
            }
        }
    }

    #[test]
    fn hops_in_fat_mesh() {
        let t = Topology::fat_mesh(2, 2, 2, 4);
        assert_eq!(t.hops(NodeId(0), NodeId(1)), 0); // same router
        assert_eq!(t.hops(NodeId(0), NodeId(4)), 1); // adjacent router
        assert_eq!(t.hops(NodeId(0), NodeId(12)), 2); // diagonal
    }

    #[test]
    fn links_are_bidirectional_pairs() {
        let t = Topology::fat_mesh(2, 2, 2, 4);
        for (rid, spec) in t.routers() {
            for (pidx, target) in spec.ports.iter().enumerate() {
                if let PortTarget::Router { router, port } = target {
                    // The far end must point back at us.
                    match t.target_of(*router, *port) {
                        PortTarget::Router {
                            router: back_r,
                            port: back_p,
                        } => {
                            assert_eq!(back_r, rid);
                            assert_eq!(back_p, PortId(pidx as u32));
                        }
                        PortTarget::Node(_) => panic!("asymmetric wiring"),
                    }
                }
            }
        }
    }

    #[test]
    fn larger_mesh_routes_terminate() {
        let t = Topology::fat_mesh(4, 3, 2, 2);
        let n = t.node_count();
        for s in 0..n {
            for d in 0..n {
                if s == d {
                    continue;
                }
                // hops() asserts against routing loops internally.
                let _ = t.hops(NodeId(s as u32), NodeId(d as u32));
            }
        }
    }

    #[test]
    fn fat_tree_shape_and_routes() {
        // 4 leaves × 2 roots × 2 endpoints.
        let t = Topology::fat_tree(4, 2, 2);
        assert_eq!(t.router_count(), 6);
        assert_eq!(t.node_count(), 8);
        // Leaf ports: 2 up + 2 endpoints; root ports: 4 down.
        assert_eq!(t.ports_of(RouterId(0)), 4);
        assert_eq!(t.ports_of(RouterId(4)), 4);
        // Cross-leaf traffic from leaf 0 can go up via either root.
        let cands = t.route(RouterId(0), NodeId(7)); // node 7 on leaf 3
        assert_eq!(cands.len(), 2);
        for p in cands {
            match t.target_of(RouterId(0), *p) {
                PortTarget::Router { router, .. } => assert!(router.get() >= 4),
                PortTarget::Node(_) => panic!("expected an up-link"),
            }
        }
        // At a root, exactly one down candidate.
        let down = t.route(RouterId(4), NodeId(7));
        assert_eq!(down.len(), 1);
        // Local traffic stays on the leaf.
        assert_eq!(t.hops(NodeId(0), NodeId(1)), 0);
        assert_eq!(t.hops(NodeId(0), NodeId(7)), 2);
    }

    #[test]
    fn fat_tree_wiring_is_symmetric() {
        let t = Topology::fat_tree(3, 2, 1);
        for (rid, spec) in t.routers() {
            for (pidx, target) in spec.ports.iter().enumerate() {
                if let PortTarget::Router { router, port } = target {
                    match t.target_of(*router, *port) {
                        PortTarget::Router {
                            router: br,
                            port: bp,
                        } => {
                            assert_eq!(br, rid);
                            assert_eq!(bp, PortId(pidx as u32));
                        }
                        PortTarget::Node(_) => panic!("asymmetric wiring"),
                    }
                }
            }
        }
    }

    #[test]
    fn ring_shape_and_clockwise_routes() {
        let t = Topology::ring(3, 2);
        assert_eq!(t.router_count(), 3);
        assert_eq!(t.node_count(), 6);
        for r in 0..3 {
            assert_eq!(t.ports_of(RouterId(r)), 4);
            // Port 0 goes clockwise, arriving on the neighbour's port 1.
            assert_eq!(
                t.target_of(RouterId(r), PortId(0)),
                PortTarget::Router {
                    router: RouterId((r + 1) % 3),
                    port: PortId(1),
                }
            );
        }
        // Wiring symmetry.
        for (rid, spec) in t.routers() {
            for (pidx, target) in spec.ports.iter().enumerate() {
                if let PortTarget::Router { router, port } = target {
                    match t.target_of(*router, *port) {
                        PortTarget::Router {
                            router: br,
                            port: bp,
                        } => {
                            assert_eq!(br, rid);
                            assert_eq!(bp, PortId(pidx as u32));
                        }
                        PortTarget::Node(_) => panic!("asymmetric wiring"),
                    }
                }
            }
        }
        // All remote traffic leaves on port 0 (clockwise only), even when
        // counter-clockwise would be shorter; local traffic ejects.
        let cands = t.route(RouterId(1), NodeId(0)); // node 0 is on router 0
        assert_eq!(cands, &[PortId(0)]);
        let (r, p) = t.attachment(NodeId(3));
        assert_eq!(t.route(r, NodeId(3)), &[p]);
        // Going all the way round: router 0 → node on router 2 takes 2 hops.
        assert_eq!(t.hops(NodeId(0), NodeId(4)), 2);
    }

    #[test]
    fn thin_mesh_offers_single_candidates() {
        let t = Topology::mesh(3, 3, 1);
        for (rid, _) in t.routers() {
            for d in 0..t.node_count() {
                let c = t.route(rid, NodeId(d as u32));
                assert_eq!(c.len(), 1);
            }
        }
    }

    #[test]
    fn torus_shape_and_symmetric_wiring() {
        let t = Topology::torus(4, 4, 1);
        assert_eq!(t.router_count(), 16);
        assert_eq!(t.node_count(), 16);
        for (rid, spec) in t.routers() {
            assert_eq!(spec.ports.len(), 5); // 4 neighbours + 1 endpoint
            for (pidx, target) in spec.ports.iter().enumerate() {
                if let PortTarget::Router { router, port } = target {
                    match t.target_of(*router, *port) {
                        PortTarget::Router {
                            router: br,
                            port: bp,
                        } => {
                            assert_eq!(br, rid);
                            assert_eq!(bp, PortId(pidx as u32));
                        }
                        PortTarget::Node(_) => panic!("asymmetric wiring"),
                    }
                }
            }
        }
    }

    #[test]
    fn torus_routes_take_the_wrap_shortcut() {
        let t = Topology::torus(4, 4, 1);
        // (0,0) → (3,0) is one −X wrap hop, not three mesh hops.
        assert_eq!(t.hops(NodeId(0), NodeId(3)), 1);
        // (0,0) → (0,3) likewise in Y.
        assert_eq!(t.hops(NodeId(0), NodeId(12)), 1);
        // (0,0) → (2,2): two ties broken positively, 2 + 2 hops.
        assert_eq!(t.hops(NodeId(0), NodeId(10)), 4);
        // Every pair terminates (hops() asserts against loops).
        for s in 0..16 {
            for d in 0..16 {
                let _ = t.hops(NodeId(s), NodeId(d));
            }
        }
    }

    #[test]
    fn torus_tie_breaks_positive() {
        let t = Topology::torus(4, 4, 1);
        // x = 0 → x = 2 is distance 2 both ways; the tie goes +X.
        let p = t.route(RouterId(0), NodeId(2))[0];
        match t.target_of(RouterId(0), p) {
            PortTarget::Router { router, .. } => assert_eq!(router, RouterId(1)),
            PortTarget::Node(_) => panic!("expected router link"),
        }
    }

    #[test]
    fn torus_dateline_sel_flips_at_the_wrap() {
        let t = Topology::torus(4, 4, 1);
        assert!(t.has_datelines());
        // x = 3 → x = 1 goes +X through the wrap: Lower until the wrap
        // hop, Upper after it (x = 0 → x = 1 no longer wraps).
        assert_eq!(t.vc_sel(RouterId(3), NodeId(1)), VcSel::Lower);
        assert_eq!(t.vc_sel(RouterId(0), NodeId(1)), VcSel::Upper);
        // x = 1 → x = 3 is the positive tie with no wrap: Upper all the way.
        assert_eq!(t.vc_sel(RouterId(1), NodeId(3)), VcSel::Upper);
        assert_eq!(t.vc_sel(RouterId(2), NodeId(3)), VcSel::Upper);
        // Ejection is unrestricted.
        assert_eq!(t.vc_sel(RouterId(3), NodeId(3)), VcSel::Any);
        // A −X route that wraps: x = 1 → x = 3 is a tie (positive), but
        // x = 0 → x = 3 is one negative hop through the wrap.
        assert_eq!(t.vc_sel(RouterId(0), NodeId(3)), VcSel::Lower);
    }

    #[test]
    fn torus_upper_channels_never_use_wrap_links() {
        // The acyclicity argument's load-bearing clause, checked
        // exhaustively: any hop routed on a wrap link must be Lower.
        let t = Topology::torus(4, 3, 1);
        for (rid, _) in t.routers() {
            for d in 0..t.node_count() {
                let dest = NodeId(d as u32);
                let (goal, _) = t.attachment(dest);
                if rid == goal {
                    continue;
                }
                let p = t.route(rid, dest)[0];
                let PortTarget::Router { router: next, .. } = t.target_of(rid, p) else {
                    panic!("transit hop must use a router link");
                };
                // A wrap hop moves between ring ends (|Δ| = k - 1).
                let (x, y) = (rid.get() % 4, rid.get() / 4);
                let (nx, ny) = (next.get() % 4, next.get() / 4);
                let wrap_hop = x.abs_diff(nx) == 3 || y.abs_diff(ny) == 2;
                if wrap_hop {
                    assert_eq!(
                        t.vc_sel(rid, dest),
                        VcSel::Lower,
                        "wrap hop {rid} → {next} for dest {d} must be Lower"
                    );
                }
            }
        }
    }

    #[test]
    fn meshes_have_no_datelines() {
        let t = Topology::mesh(3, 3, 1);
        assert!(!t.has_datelines());
        assert_eq!(t.vc_sel(RouterId(0), NodeId(8)), VcSel::Any);
        let (ports, sel) = t.route_sel(RouterId(0), NodeId(8));
        assert_eq!(ports, t.route(RouterId(0), NodeId(8)));
        assert_eq!(sel, VcSel::Any);
    }

    #[test]
    #[should_panic(expected = "at least 3")]
    fn degenerate_torus_rejected() {
        let _ = Topology::torus(2, 4, 1);
    }

    #[test]
    fn path_follows_first_candidates_and_is_none_on_a_loop() {
        let ring = Topology::ring(3, 1);
        // Clockwise out on port 0, eject on the endpoint port 2.
        assert_eq!(
            ring.path(NodeId(0), NodeId(2)),
            Some(vec![
                (RouterId(0), PortId(0)),
                (RouterId(1), PortId(0)),
                (RouterId(2), PortId(2)),
            ])
        );
        assert_eq!(ring.hops(NodeId(0), NodeId(2)), 2);
        assert_eq!(
            ring.path(NodeId(1), NodeId(1)),
            Some(vec![(RouterId(1), PortId(2))])
        );

        // The same wiring, but traffic for router 2 bounces between
        // routers 0 and 1 forever.
        let specs: Vec<RouterSpec> = ring.routers().map(|(_, s)| s.clone()).collect();
        let routes = RouteTable::build(&specs, &ring.attachments, |at, goal| {
            if goal == RouterId(2) {
                vec![RouterId(1 - at.get())]
            } else {
                vec![RouterId((at.get() + 1) % 3)]
            }
        });
        let looped = Topology::from_parts("looped".into(), specs, ring.attachments, routes);
        assert_eq!(looped.path(NodeId(0), NodeId(2)), None);
        assert_eq!(looped.path(NodeId(0), NodeId(1)).map(|p| p.len()), Some(2));
    }
}
