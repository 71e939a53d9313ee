//! Precomputed deterministic route tables.
//!
//! For every `(router, destination node)` pair the table stores the set of
//! candidate output ports. With deterministic XY routing the *next router*
//! is unique, but a fat topology may reach it over several parallel links —
//! the router picks among those by instantaneous load (§3.4), so all lanes
//! are listed.

use flitnet::{NodeId, PortId, RouterId};

use crate::builder::{PortTarget, RouterSpec};

/// Candidate output ports for every `(router, dest-node)` pair.
#[derive(Debug, Clone)]
pub struct RouteTable {
    /// `table[router][node]` → candidate ports.
    table: Vec<Vec<Vec<PortId>>>,
}

impl RouteTable {
    /// Builds a table from router wiring, endpoint attachments, and the
    /// routing algorithm: `next_routers(at, goal)` returns every
    /// acceptable next router (one for deterministic routing, several for
    /// a fat-tree's up-links), and all lanes toward any of them become
    /// candidates, in port order. It is only consulted when `at != goal`
    /// (single-switch topologies never call it).
    ///
    /// # Panics
    ///
    /// Panics if some `(at, goal)` pair with `at != goal` yields no next
    /// router, names `at` itself, or yields no candidate ports.
    pub fn build<F>(
        specs: &[RouterSpec],
        attachments: &[(RouterId, PortId)],
        next_routers: F,
    ) -> RouteTable
    where
        F: Fn(RouterId, RouterId) -> Vec<RouterId>,
    {
        let mut table = Vec::with_capacity(specs.len());
        for (r, spec) in specs.iter().enumerate() {
            let at = RouterId(r as u32);
            let mut per_node = Vec::with_capacity(attachments.len());
            for (goal_router, goal_port) in attachments.iter() {
                let candidates = if at == *goal_router {
                    vec![*goal_port]
                } else {
                    let nexts = next_routers(at, *goal_router);
                    assert!(
                        !nexts.is_empty() && !nexts.contains(&at),
                        "next_routers must make progress"
                    );
                    let lanes: Vec<PortId> = spec
                        .ports
                        .iter()
                        .enumerate()
                        .filter_map(|(p, t)| match t {
                            PortTarget::Router { router, .. } if nexts.contains(router) => {
                                Some(PortId(p as u32))
                            }
                            _ => None,
                        })
                        .collect();
                    assert!(
                        !lanes.is_empty(),
                        "no link from {at} toward any of the next routers"
                    );
                    lanes
                };
                per_node.push(candidates);
            }
            table.push(per_node);
        }
        RouteTable { table }
    }

    /// The candidate output ports at `at` for traffic to `dest`.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    pub fn candidates(&self, at: RouterId, dest: NodeId) -> &[PortId] {
        &self.table[at.index()][dest.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_router_table() {
        let specs = vec![RouterSpec {
            ports: vec![PortTarget::Node(NodeId(0)), PortTarget::Node(NodeId(1))],
        }];
        let attachments = vec![(RouterId(0), PortId(0)), (RouterId(0), PortId(1))];
        let t = RouteTable::build(&specs, &attachments, |_, _| unreachable!());
        assert_eq!(t.candidates(RouterId(0), NodeId(0)), &[PortId(0)]);
        assert_eq!(t.candidates(RouterId(0), NodeId(1)), &[PortId(1)]);
    }

    #[test]
    fn two_router_line_with_fat_links() {
        // r0 ports: 0,1 → r1 (fat bundle); 2 → node0.
        // r1 ports: 0,1 → r0; 2 → node1.
        let specs = vec![
            RouterSpec {
                ports: vec![
                    PortTarget::Router {
                        router: RouterId(1),
                        port: PortId(0),
                    },
                    PortTarget::Router {
                        router: RouterId(1),
                        port: PortId(1),
                    },
                    PortTarget::Node(NodeId(0)),
                ],
            },
            RouterSpec {
                ports: vec![
                    PortTarget::Router {
                        router: RouterId(0),
                        port: PortId(0),
                    },
                    PortTarget::Router {
                        router: RouterId(0),
                        port: PortId(1),
                    },
                    PortTarget::Node(NodeId(1)),
                ],
            },
        ];
        let attachments = vec![(RouterId(0), PortId(2)), (RouterId(1), PortId(2))];
        let t = RouteTable::build(&specs, &attachments, |at, goal| {
            assert_ne!(at, goal);
            vec![goal]
        });
        assert_eq!(
            t.candidates(RouterId(0), NodeId(1)),
            &[PortId(0), PortId(1)]
        );
        assert_eq!(t.candidates(RouterId(1), NodeId(1)), &[PortId(2)]);
    }
}
