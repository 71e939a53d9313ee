//! Construction of the supported topologies.

use flitnet::{NodeId, PortId, RouterId, VcSel};

use crate::route::RouteTable;
use crate::Topology;

/// What the far end of a router port is wired to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortTarget {
    /// An inter-switch link to `port` of `router` (full duplex; the far end
    /// points back symmetrically).
    Router {
        /// Neighbouring router.
        router: RouterId,
        /// Port on the neighbouring router.
        port: PortId,
    },
    /// An endpoint attachment: this port both receives the node's injected
    /// flits and ejects flits destined to it.
    Node(NodeId),
}

/// One router's wiring: what each of its ports connects to.
#[derive(Debug, Clone)]
pub struct RouterSpec {
    /// Port targets, indexed by [`PortId`].
    pub ports: Vec<PortTarget>,
}

pub(crate) fn single_switch(ports: u32) -> Topology {
    assert!(ports > 0, "a switch needs at least one port");
    let spec = RouterSpec {
        ports: (0..ports).map(|p| PortTarget::Node(NodeId(p))).collect(),
    };
    let attachments: Vec<(RouterId, PortId)> =
        (0..ports).map(|p| (RouterId(0), PortId(p))).collect();
    let routers = vec![spec];
    let routes = RouteTable::build(&routers, &attachments, |_at, _dest| unreachable!());
    Topology::from_parts(
        format!("single-switch-{ports}"),
        routers,
        attachments,
        routes,
    )
}

/// A unidirectional-routing ring of `n` switches, `endpoints` endpoints
/// per switch. Router `r`'s port 0 is the clockwise out-link to router
/// `(r+1) mod n` (arriving on its port 1); ports `2..2+endpoints` carry
/// the endpoints. All traffic routes clockwise, so worms crossing several
/// switches close a channel-dependency cycle around the ring — the ring is
/// deliberately deadlock-prone (no dateline VC scheme) and exists to
/// validate the progress watchdog.
pub(crate) fn ring(n: u32, endpoints: u32) -> Topology {
    assert!(n >= 2, "a ring needs at least two switches");
    assert!(endpoints >= 1, "each switch needs at least one endpoint");

    let mut specs: Vec<RouterSpec> = Vec::with_capacity(n as usize);
    let mut attachments = Vec::with_capacity((n * endpoints) as usize);
    for r in 0..n {
        let mut ports = Vec::with_capacity((2 + endpoints) as usize);
        // Port 0: clockwise out-link; port 1: the link from the
        // counter-clockwise neighbour.
        ports.push(PortTarget::Router {
            router: RouterId((r + 1) % n),
            port: PortId(1),
        });
        ports.push(PortTarget::Router {
            router: RouterId((r + n - 1) % n),
            port: PortId(0),
        });
        for e in 0..endpoints {
            let node = NodeId(r * endpoints + e);
            ports.push(PortTarget::Node(node));
            attachments.push((RouterId(r), PortId(2 + e)));
        }
        specs.push(RouterSpec { ports });
    }

    let routes = RouteTable::build(&specs, &attachments, move |at, _goal| {
        vec![RouterId((at.get() + 1) % n)]
    });

    Topology::from_parts(format!("ring-{n}-e{endpoints}"), specs, attachments, routes)
}

/// Grid coordinates of router `r` in a `w`-wide mesh.
fn coords(r: RouterId, w: u32) -> (u32, u32) {
    (r.get() % w, r.get() / w)
}

/// A two-level fat-tree: `leaves` leaf switches each carrying `endpoints`
/// endpoints, fully connected to `roots` root switches (one link per
/// leaf–root pair). Traffic between leaves goes *up* to any root (the
/// router load-balances across the up-links) and *down* to the
/// destination leaf — the deadlock-free up/down routing of fat-trees.
///
/// Leaf `l` has router id `l`; root `k` has id `leaves + k`. Leaf ports:
/// `0..roots` are up-links (port `k` to root `k`), then the endpoints.
/// Root ports: `0..leaves`, port `l` to leaf `l`.
pub(crate) fn fat_tree(leaves: u32, roots: u32, endpoints: u32) -> Topology {
    assert!(leaves >= 2, "a fat-tree needs at least two leaf switches");
    assert!(roots >= 1, "a fat-tree needs at least one root switch");
    assert!(endpoints >= 1, "each leaf needs at least one endpoint");

    let mut specs: Vec<RouterSpec> = Vec::with_capacity((leaves + roots) as usize);
    // Leaves.
    for l in 0..leaves {
        let mut ports = Vec::with_capacity((roots + endpoints) as usize);
        for k in 0..roots {
            ports.push(PortTarget::Router {
                router: RouterId(leaves + k),
                port: PortId(l),
            });
        }
        for e in 0..endpoints {
            ports.push(PortTarget::Node(NodeId(l * endpoints + e)));
        }
        specs.push(RouterSpec { ports });
    }
    // Roots.
    for k in 0..roots {
        let ports = (0..leaves)
            .map(|l| PortTarget::Router {
                router: RouterId(l),
                port: PortId(k),
            })
            .collect();
        let _ = k;
        specs.push(RouterSpec { ports });
    }

    let mut attachments = Vec::with_capacity((leaves * endpoints) as usize);
    for l in 0..leaves {
        for e in 0..endpoints {
            attachments.push((RouterId(l), PortId(roots + e)));
        }
    }

    let routes = RouteTable::build(&specs, &attachments, move |at, goal| {
        if at.get() < leaves {
            // At a leaf, any root works (adaptive up).
            (0..roots).map(|k| RouterId(leaves + k)).collect()
        } else {
            // At a root, go down to the goal leaf.
            vec![goal]
        }
    });

    Topology::from_parts(
        format!("fat-tree-l{leaves}-r{roots}-e{endpoints}"),
        specs,
        attachments,
        routes,
    )
}

/// Whether a worm at ring position `a` headed for `g` should step in the
/// positive direction in a ring of `k` routers (shortest way; the tie at
/// distance `k/2` goes positive so routing stays deterministic).
fn ring_positive(a: u32, g: u32, k: u32) -> bool {
    debug_assert_ne!(a, g);
    let fwd = (g + k - a) % k;
    let bwd = (a + k - g) % k;
    fwd <= bwd
}

/// Dateline VC restriction for the remaining path from ring position `a`
/// to `g`: [`VcSel::Lower`] while the path (including the current hop)
/// still crosses the ring's wrap link, [`VcSel::Upper`] once it no longer
/// does. See [`Topology::torus`] for the acyclicity argument.
fn dateline_sel(a: u32, g: u32, k: u32) -> VcSel {
    let wraps = if ring_positive(a, g, k) {
        g < a // moving +: we pass the (k-1) → 0 edge iff the goal is behind us
    } else {
        g > a // moving −: we pass the 0 → (k-1) edge iff the goal is ahead
    };
    if wraps {
        VcSel::Lower
    } else {
        VcSel::Upper
    }
}

/// A `w × h` torus: the mesh with wrap links. Ports 0–3 are −X, +X, −Y,
/// +Y, then the endpoints. Routing is shortest-direction dimension-ordered
/// XY and every hop carries a dateline VC restriction.
pub(crate) fn torus(w: u32, h: u32, endpoints: u32) -> Topology {
    assert!(
        w >= 3 && h >= 3,
        "torus dimensions must be at least 3 (below that the wrap link duplicates the mesh link)"
    );
    assert!(endpoints > 0, "each switch needs at least one endpoint");

    let rid = |x: u32, y: u32| RouterId(y * w + x);
    let router_count = (w * h) as usize;

    let mut specs: Vec<RouterSpec> = Vec::with_capacity(router_count);
    let mut attachments = Vec::with_capacity(router_count * endpoints as usize);
    for r in 0..router_count as u32 {
        let (x, y) = coords(RouterId(r), w);
        let mut ports = Vec::with_capacity((4 + endpoints) as usize);
        // Symmetric wiring: our −X port lands on the neighbour's +X port
        // and vice versa; same for Y.
        ports.push(PortTarget::Router {
            router: rid((x + w - 1) % w, y),
            port: PortId(1),
        });
        ports.push(PortTarget::Router {
            router: rid((x + 1) % w, y),
            port: PortId(0),
        });
        ports.push(PortTarget::Router {
            router: rid(x, (y + h - 1) % h),
            port: PortId(3),
        });
        ports.push(PortTarget::Router {
            router: rid(x, (y + 1) % h),
            port: PortId(2),
        });
        for e in 0..endpoints {
            ports.push(PortTarget::Node(NodeId(r * endpoints + e)));
            attachments.push((RouterId(r), PortId(4 + e)));
        }
        specs.push(RouterSpec { ports });
    }

    let next_router = move |at: RouterId, goal: RouterId| -> RouterId {
        let (ax, ay) = coords(at, w);
        let (gx, gy) = coords(goal, w);
        if ax != gx {
            if ring_positive(ax, gx, w) {
                rid((ax + 1) % w, ay)
            } else {
                rid((ax + w - 1) % w, ay)
            }
        } else if ring_positive(ay, gy, h) {
            rid(ax, (ay + 1) % h)
        } else {
            rid(ax, (ay + h - 1) % h)
        }
    };

    let routes = RouteTable::build(&specs, &attachments, |at, goal| vec![next_router(at, goal)]);

    // Dateline table: the restriction depends only on the current router's
    // position and the goal position in the dimension being routed.
    let mut vc_sel = vec![vec![VcSel::Any; attachments.len()]; router_count];
    for (r, row) in vc_sel.iter_mut().enumerate() {
        let (x, y) = coords(RouterId(r as u32), w);
        for (d, sel) in row.iter_mut().enumerate() {
            let (goal, _) = attachments[d];
            let (gx, gy) = coords(goal, w);
            *sel = if (x, y) == (gx, gy) {
                VcSel::Any // ejection: the endpoint channel ends every dependency chain
            } else if x != gx {
                dateline_sel(x, gx, w)
            } else {
                dateline_sel(y, gy, h)
            };
        }
    }

    Topology::from_parts(
        format!("torus-{w}x{h}-e{endpoints}"),
        specs,
        attachments,
        routes,
    )
    .with_vc_sel(vc_sel)
}

pub(crate) fn fat_mesh(w: u32, h: u32, fat: u32, endpoints: u32) -> Topology {
    assert!(w > 0 && h > 0, "mesh dimensions must be positive");
    assert!(fat > 0, "fat width must be at least one link");
    assert!(endpoints > 0, "each switch needs at least one endpoint");

    let rid = |x: u32, y: u32| RouterId(y * w + x);
    let router_count = (w * h) as usize;

    // Neighbour order: -X, +X, -Y, +Y. Each present neighbour contributes
    // `fat` consecutive ports. Endpoint ports follow.
    let neighbours = |x: u32, y: u32| -> Vec<RouterId> {
        let mut v = Vec::new();
        if x > 0 {
            v.push(rid(x - 1, y));
        }
        if x + 1 < w {
            v.push(rid(x + 1, y));
        }
        if y > 0 {
            v.push(rid(x, y - 1));
        }
        if y + 1 < h {
            v.push(rid(x, y + 1));
        }
        v
    };

    // First pass: assign port ranges.
    // port_base[r][neighbour] = first port index of the fat bundle to that
    // neighbour.
    let mut specs: Vec<RouterSpec> = Vec::with_capacity(router_count);
    let mut bundle_base: Vec<Vec<(RouterId, u32)>> = Vec::with_capacity(router_count);
    for r in 0..router_count as u32 {
        let (x, y) = coords(RouterId(r), w);
        let ns = neighbours(x, y);
        let mut bases = Vec::with_capacity(ns.len());
        let mut next = 0u32;
        for n in &ns {
            bases.push((*n, next));
            next += fat;
        }
        let total_ports = next + endpoints;
        specs.push(RouterSpec {
            // Placeholder targets; wired below.
            ports: vec![PortTarget::Node(NodeId(0)); total_ports as usize],
        });
        bundle_base.push(bases);
    }

    let base_to = |r: RouterId, n: RouterId| -> u32 {
        bundle_base[r.index()]
            .iter()
            .find(|(nn, _)| *nn == n)
            .map(|(_, b)| *b)
            .expect("neighbour bundle must exist")
    };

    // Second pass: wire neighbour bundles symmetrically (lane k ↔ lane k).
    for r in 0..router_count as u32 {
        let r = RouterId(r);
        let (x, y) = coords(r, w);
        for n in neighbours(x, y) {
            let my_base = base_to(r, n);
            let their_base = base_to(n, r);
            for k in 0..fat {
                specs[r.index()].ports[(my_base + k) as usize] = PortTarget::Router {
                    router: n,
                    port: PortId(their_base + k),
                };
            }
        }
    }

    // Endpoint attachments.
    let mut attachments = Vec::with_capacity(router_count * endpoints as usize);
    for r in 0..router_count as u32 {
        let r = RouterId(r);
        let (x, y) = coords(r, w);
        let link_ports = neighbours(x, y).len() as u32 * fat;
        for e in 0..endpoints {
            let node = NodeId(r.get() * endpoints + e);
            let port = PortId(link_ports + e);
            specs[r.index()].ports[port.index()] = PortTarget::Node(node);
            attachments.push((r, port));
        }
    }

    // XY routing: next router toward the destination's router.
    let next_router = move |at: RouterId, goal: RouterId| -> RouterId {
        let (ax, ay) = coords(at, w);
        let (gx, gy) = coords(goal, w);
        if ax < gx {
            rid(ax + 1, ay)
        } else if ax > gx {
            rid(ax - 1, ay)
        } else if ay < gy {
            rid(ax, ay + 1)
        } else {
            rid(ax, ay - 1)
        }
    };

    let attachments_for_routes = attachments.clone();
    let routes = RouteTable::build(&specs, &attachments_for_routes, move |at, dest_router| {
        vec![next_router(at, dest_router)]
    });

    Topology::from_parts(
        format!("fat-mesh-{w}x{h}-fat{fat}-e{endpoints}"),
        specs,
        attachments,
        routes,
    )
}
