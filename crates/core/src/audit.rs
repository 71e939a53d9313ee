//! Flow-control invariant auditing and the progress watchdog.
//!
//! Two independent safety nets guard a simulation run, both following the
//! telemetry layer's free-when-off design (a disabled run executes the
//! same instruction stream as before):
//!
//! * **Audit mode** ([`AuditConfig`]) periodically sweeps the whole
//!   network and verifies wormhole flow-control invariants — per-VC
//!   credit counts never exceed the downstream buffer capacity, every
//!   credit matches a freed slot (credit conservation around each link),
//!   flits are conserved from injection through delivery, and every VC
//!   buffer holds a well-formed run of worms. Violations are filed into a
//!   [`netsim::audit::AuditLog`].
//! * The **progress watchdog** ([`WatchdogConfig`]) detects "flits in
//!   flight but zero forwarding progress for N cycles", then builds a
//!   waits-for graph over the (router, output VC) holders to classify the
//!   stall: a cycle in the graph is a true **deadlock** (circular
//!   channel-dependency — no flit can ever move again), an acyclic graph
//!   means **starvation/livelock** (progress is blocked but no circular
//!   wait exists). The outcome is a structured [`StallReport`] in
//!   `SimOutcome`/`--json` instead of a silent timeout.
//!
//! See `DESIGN.md` for the invariant catalogue and the waits-for edge
//! rules.

use flitnet::{PortId, VcId};
use metrics::Json;
use netsim::snap::{SnapError, SnapReader, SnapWriter};

use crate::router::Router;

/// Configuration of the invariant audit sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuditConfig {
    /// Cycles between full-network audit sweeps. Conservation violations
    /// persist once introduced, so a periodic sweep catches them; a sweep
    /// every cycle is for unit tests and costs O(links × VCs) per cycle.
    pub interval: u64,
}

impl Default for AuditConfig {
    fn default() -> AuditConfig {
        AuditConfig { interval: 1024 }
    }
}

impl AuditConfig {
    /// An audit sweep on every simulated cycle (test use).
    pub fn every_cycle() -> AuditConfig {
        AuditConfig { interval: 1 }
    }
}

/// Configuration of the progress watchdog.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// Cycles without any forwarding progress (while flits are in flight)
    /// before the run is declared stalled. The default is far above any
    /// legitimate pause: a worm's worst-case wait under the paper's
    /// workloads is a few thousand cycles.
    pub stall_cycles: u64,
}

impl Default for WatchdogConfig {
    fn default() -> WatchdogConfig {
        WatchdogConfig {
            stall_cycles: 50_000,
        }
    }
}

/// How a stalled run is classified.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallKind {
    /// The waits-for graph over output-VC holders contains a cycle: a
    /// circular channel dependency that can never resolve.
    Deadlock,
    /// No circular wait: flits are blocked (e.g. starved behind other
    /// traffic or an accounting bug dried up credits) but no dependency
    /// cycle exists.
    Starvation,
}

impl StallKind {
    /// The stable lowercase label (used in JSON output).
    pub fn label(self) -> &'static str {
        match self {
            StallKind::Deadlock => "deadlock",
            StallKind::Starvation => "starvation",
        }
    }
}

/// One (router, output port, output VC) held by a blocked worm at stall
/// time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VcHold {
    /// Router holding the output VC.
    pub router: u32,
    /// Output physical channel.
    pub port: u32,
    /// Output virtual channel.
    pub vc: u32,
    /// Message owning the VC (held head → tail).
    pub msg: u64,
    /// Flits staged in the VC's output buffer.
    pub staged: u32,
    /// Credits the VC holds for the downstream buffer.
    pub credits: u32,
    /// The `(router, port, vc)` holder this one waits for, if blocked on
    /// another held VC.
    pub waits_for: Option<(u32, u32, u32)>,
    /// Whether this holder lies on a waits-for cycle.
    pub on_cycle: bool,
}

impl VcHold {
    fn to_json(self) -> Json {
        let mut o = Json::obj([
            ("router", Json::Uint(u64::from(self.router))),
            ("port", Json::Uint(u64::from(self.port))),
            ("vc", Json::Uint(u64::from(self.vc))),
            ("msg", Json::Uint(self.msg)),
            ("staged", Json::Uint(u64::from(self.staged))),
            ("credits", Json::Uint(u64::from(self.credits))),
        ]);
        o.push(
            "waits_for",
            match self.waits_for {
                Some((r, p, v)) => Json::obj([
                    ("router", Json::Uint(u64::from(r))),
                    ("port", Json::Uint(u64::from(p))),
                    ("vc", Json::Uint(u64::from(v))),
                ]),
                None => Json::Null,
            },
        );
        o.push("on_cycle", Json::Bool(self.on_cycle));
        o
    }

    fn save(self, w: &mut SnapWriter) {
        w.u32(self.router);
        w.u32(self.port);
        w.u32(self.vc);
        w.u64(self.msg);
        w.u32(self.staged);
        w.u32(self.credits);
        w.option(self.waits_for, |w, (r, p, v)| {
            w.u32(r);
            w.u32(p);
            w.u32(v);
        });
        w.bool(self.on_cycle);
    }

    fn load(r: &mut SnapReader<'_>) -> Result<VcHold, SnapError> {
        Ok(VcHold {
            router: r.u32()?,
            port: r.u32()?,
            vc: r.u32()?,
            msg: r.u64()?,
            staged: r.u32()?,
            credits: r.u32()?,
            waits_for: r.option(|r| Ok((r.u32()?, r.u32()?, r.u32()?)))?,
            on_cycle: r.bool()?,
        })
    }
}

/// The structured report the watchdog emits when a run stalls.
#[derive(Debug, Clone, PartialEq)]
pub struct StallReport {
    /// Cycle the stall was declared on.
    pub cycle: u64,
    /// Cycles since the last observed forwarding progress.
    pub stalled_for: u64,
    /// Deadlock (waits-for cycle) or starvation/livelock.
    pub kind: StallKind,
    /// Flits injected but not delivered at stall time.
    pub flits_in_flight: u64,
    /// Flits still queued in the network interfaces.
    pub ni_backlog: u64,
    /// Every output VC held by a blocked worm, with its wait edge.
    pub holders: Vec<VcHold>,
}

impl StallReport {
    /// The report as a JSON object (the `"stall"` value in `--json`
    /// output; shape documented in the README).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("cycle", Json::Uint(self.cycle)),
            ("stalled_for", Json::Uint(self.stalled_for)),
            ("kind", Json::str(self.kind.label())),
            ("flits_in_flight", Json::Uint(self.flits_in_flight)),
            ("ni_backlog", Json::Uint(self.ni_backlog)),
            (
                "holders",
                Json::arr(self.holders.iter().map(|h| h.to_json())),
            ),
        ])
    }

    /// Serialises the report into a snapshot (a tripped watchdog is part
    /// of the network state a checkpoint must carry).
    pub fn save(&self, w: &mut SnapWriter) {
        w.u64(self.cycle);
        w.u64(self.stalled_for);
        w.u8(match self.kind {
            StallKind::Deadlock => 0,
            StallKind::Starvation => 1,
        });
        w.u64(self.flits_in_flight);
        w.u64(self.ni_backlog);
        w.usize(self.holders.len());
        for h in &self.holders {
            h.save(w);
        }
    }

    /// Restores a report saved by [`StallReport::save`].
    ///
    /// # Errors
    ///
    /// Propagates snapshot decoding errors; rejects unknown stall-kind
    /// tags.
    pub fn load(r: &mut SnapReader<'_>) -> Result<StallReport, SnapError> {
        let cycle = r.u64()?;
        let stalled_for = r.u64()?;
        let kind = match r.u8()? {
            0 => StallKind::Deadlock,
            1 => StallKind::Starvation,
            _ => return Err(SnapError::BadValue("unknown stall kind tag")),
        };
        let flits_in_flight = r.u64()?;
        let ni_backlog = r.u64()?;
        let n = r.usize()?;
        let mut holders = Vec::with_capacity(n);
        for _ in 0..n {
            holders.push(VcHold::load(r)?);
        }
        Ok(StallReport {
            cycle,
            stalled_for,
            kind,
            flits_in_flight,
            ni_backlog,
            holders,
        })
    }
}

/// Builds the waits-for graph over the routers' held output VCs.
///
/// Nodes are the `(router, output port, output VC)` triples currently
/// owned by a message. Edges follow the blocked worm downstream:
///
/// * `downstream(router, port)` names the `(router, input port)` the
///   output feeds, or `None` for an ejection port (endpoints always
///   drain, so ejection holders wait on nothing).
/// * If the downstream input VC carries a **granted** worm, the holder
///   waits for that grant's output VC (the same worm's next hop).
/// * If the downstream input VC's front flit is an **ungranted head**,
///   the worm is waiting for *any* free output VC of its class on its
///   candidate ports (`route(router, flit)`): one edge per currently
///   owned candidate VC.
/// * An empty downstream buffer means the worm can still progress (it is
///   strung out, not blocked): no edge.
///
/// Returns the holders (with `waits_for` set to the first edge and
/// `on_cycle` false) and the adjacency lists over holder indices.
pub(crate) fn build_waits_for(
    routers: &[Router],
    downstream: &dyn Fn(usize, PortId) -> Option<(usize, PortId)>,
    route: &dyn Fn(usize, &flitnet::Flit) -> Vec<PortId>,
) -> (Vec<VcHold>, Vec<Vec<usize>>) {
    use std::collections::HashMap;

    let mut holders = Vec::new();
    let mut index: HashMap<(u32, u32, u32), usize> = HashMap::new();
    for (r, router) in routers.iter().enumerate() {
        let m = router.partition().total();
        for p in 0..router.port_count() {
            for v in 0..m {
                let (port, vc) = (PortId(p as u32), VcId(v));
                if let Some(msg) = router.output_owner(port, vc) {
                    index.insert((r as u32, p as u32, v), holders.len());
                    holders.push(VcHold {
                        router: r as u32,
                        port: p as u32,
                        vc: v,
                        msg: msg.get(),
                        staged: router.output_staged(port, vc) as u32,
                        credits: router.credits_of(port, vc),
                        waits_for: None,
                        on_cycle: false,
                    });
                }
            }
        }
    }

    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); holders.len()];
    for i in 0..holders.len() {
        let h = holders[i];
        let Some((r2, p2)) = downstream(h.router as usize, PortId(h.port)) else {
            continue; // ejection port: always drains
        };
        let in_vc = VcId(h.vc); // flits keep the granted VC across the link
        let mut targets: Vec<(u32, u32, u32)> = Vec::new();
        if let Some((go, gv)) = routers[r2].grant_of(p2, in_vc) {
            targets.push((r2 as u32, go.get(), gv.get()));
        } else if let Some(head) = routers[r2].input_head(p2, in_vc) {
            if head.is_head() {
                for cand in route(r2, head) {
                    for vc2 in routers[r2].partition().vcs_for(head.class) {
                        if routers[r2].output_owner(cand, vc2).is_some() {
                            targets.push((r2 as u32, cand.get(), vc2.get()));
                        }
                    }
                }
            }
        }
        for t in targets {
            if let Some(&j) = index.get(&t) {
                if holders[i].waits_for.is_none() {
                    holders[i].waits_for = Some(t);
                }
                adj[i].push(j);
            }
        }
    }
    (holders, adj)
}

/// Marks every node that lies on a cycle of `adj`.
///
/// Stall-time only (and the graphs are small), so a per-node DFS is
/// plenty: node `i` is on a cycle iff `i` is reachable from one of its
/// successors.
pub(crate) fn find_cycle_nodes(adj: &[Vec<usize>]) -> Vec<bool> {
    let n = adj.len();
    let mut on_cycle = vec![false; n];
    let mut visited = vec![false; n];
    let mut stack = Vec::new();
    for i in 0..n {
        visited.iter_mut().for_each(|v| *v = false);
        stack.clear();
        stack.extend(adj[i].iter().copied());
        while let Some(x) = stack.pop() {
            if x == i {
                on_cycle[i] = true;
                break;
            }
            if !visited[x] {
                visited[x] = true;
                stack.extend(adj[x].iter().copied());
            }
        }
    }
    on_cycle
}

#[cfg(test)]
mod tests {
    use super::*;
    use flitnet::{
        Flit, FrameId, MsgId, NodeId, RouterId, StreamId, TrafficClass, VcPartition, VcSel, Worm,
    };
    use netsim::Cycles;

    use crate::config::RouterConfig;

    fn worm(msg: u64, len: u32, dest: u32) -> Vec<Flit> {
        Worm::new(Flit {
            stream: StreamId(msg as u32),
            msg: MsgId(msg),
            frame: FrameId(0),
            seq_in_msg: 0,
            msg_len: len,
            msgs_in_frame: 1,
            dest: NodeId(dest),
            vc: VcId(0),
            out_vc: VcId(0),
            vtick: 100.0,
            class: TrafficClass::Vbr,
            created_at: Cycles(0),
        })
        .into_iter()
        .collect()
    }

    #[test]
    fn stall_kind_labels_are_stable() {
        assert_eq!(StallKind::Deadlock.label(), "deadlock");
        assert_eq!(StallKind::Starvation.label(), "starvation");
    }

    #[test]
    fn cycle_detection_marks_only_cycle_members() {
        // 0 → 1 → 2 → 1 (cycle {1, 2}), 3 → 0 (chain into it), 4 isolated.
        let adj = vec![vec![1], vec![2], vec![1], vec![0], vec![]];
        let on = find_cycle_nodes(&adj);
        assert_eq!(on, vec![false, true, true, false, false]);
        // A self-loop is a cycle.
        let on = find_cycle_nodes(&[vec![0]]);
        assert_eq!(on, vec![true]);
        // A DAG has none.
        let on = find_cycle_nodes(&[vec![1, 2], vec![2], vec![]]);
        assert_eq!(on, vec![false, false, false]);
    }

    #[test]
    fn stall_report_serializes_to_documented_shape() {
        let report = StallReport {
            cycle: 9000,
            stalled_for: 5000,
            kind: StallKind::Deadlock,
            flits_in_flight: 42,
            ni_backlog: 7,
            holders: vec![VcHold {
                router: 0,
                port: 1,
                vc: 0,
                msg: 17,
                staged: 3,
                credits: 0,
                waits_for: Some((1, 0, 0)),
                on_cycle: true,
            }],
        };
        let text = report.to_json().to_string();
        assert!(text.contains("\"kind\":\"deadlock\""));
        assert!(text.contains("\"stalled_for\":5000"));
        assert!(text.contains("\"waits_for\":{\"router\":1,\"port\":0,\"vc\":0}"));
        assert!(text.contains("\"on_cycle\":true"));
        let none = VcHold {
            waits_for: None,
            ..report.holders[0]
        };
        assert!(none.to_json().to_string().contains("\"waits_for\":null"));
    }

    /// The crafted two-router cyclic-dependency configuration the issue
    /// calls for: two real routers, each holding its inter-router output
    /// VC for a worm whose head sits ungranted at the *other* router,
    /// wanting that router's (owned) inter-router output. The waits-for
    /// graph must close the cycle and classify as deadlock.
    #[test]
    fn crafted_two_router_cycle_is_classified_as_deadlock() {
        // One VC, tiny buffers. Port 0 of each router is the inter-router
        // link (0.port0 ↔ 1.port0); port 1 is the ejection port.
        let cfg = RouterConfig::new(1).buf_flits(4);
        let part = VcPartition::all_real_time(1);
        let mut r0 = Router::new(RouterId(0), 2, &cfg, part);
        let mut r1 = Router::new(RouterId(1), 2, &cfg, part);
        for r in [&mut r0, &mut r1] {
            r.init_credits(PortId(0), VcId(0), 4);
            r.init_credits(PortId(1), VcId(0), 1_000_000);
        }
        // Worm A arrives at router 0 (from its endpoint via port 1) and is
        // granted output port 0 (toward router 1). Worm B mirrors it.
        const TO_NEIGHBOUR: [PortId; 1] = [PortId(0)];
        for (i, f) in worm(1, 16, 3).into_iter().take(4).enumerate() {
            r0.receive_flit(Cycles(i as u64), PortId(1), f);
        }
        for (i, f) in worm(2, 16, 1).into_iter().take(4).enumerate() {
            r1.receive_flit(Cycles(i as u64), PortId(1), f);
        }
        for t in 0..10u64 {
            r0.arbitrate(Cycles(t), |_| (&TO_NEIGHBOUR[..], VcSel::Any), None);
            r1.arbitrate(Cycles(t), |_| (&TO_NEIGHBOUR[..], VcSel::Any), None);
        }
        assert_eq!(r0.output_owner(PortId(0), VcId(0)), Some(MsgId(1)));
        assert_eq!(r1.output_owner(PortId(0), VcId(0)), Some(MsgId(2)));

        // Each worm's *continuation* head is parked ungranted at the other
        // router's inter-router input: worm A's next message-segment wants
        // router 1's port 0 (owned by B), and vice versa. (In a real ring
        // this is the strung-out worm's head one hop ahead; hand-placing
        // the flits lets the test pin the exact shape.)
        r0.receive_flit(Cycles(20), PortId(0), worm(3, 16, 3)[0]);
        r1.receive_flit(Cycles(20), PortId(0), worm(4, 16, 1)[0]);

        let routers = [r0, r1];
        let downstream = |r: usize, p: PortId| -> Option<(usize, PortId)> {
            (p == PortId(0)).then_some((1 - r, PortId(0)))
        };
        let route = |_r: usize, _f: &Flit| vec![PortId(0)];
        let (mut holders, adj) = build_waits_for(&routers, &downstream, &route);
        assert_eq!(holders.len(), 2, "both inter-router VCs are held");
        let on_cycle = find_cycle_nodes(&adj);
        for (h, on) in holders.iter_mut().zip(&on_cycle) {
            h.on_cycle = *on;
        }
        assert!(
            on_cycle.iter().all(|&c| c),
            "the two holders must wait on each other: {holders:?}"
        );
        // Each holder's wait edge points at the other router's held VC.
        for h in &holders {
            let (wr, wp, wv) = h.waits_for.expect("blocked holder has a wait edge");
            assert_eq!(wr, 1 - h.router);
            assert_eq!((wp, wv), (0, 0));
        }
    }

    /// Without the parked heads, the held VCs wait on nothing — an
    /// acyclic graph that must NOT classify as deadlock.
    #[test]
    fn holders_with_empty_downstream_have_no_wait_edges() {
        let cfg = RouterConfig::new(1).buf_flits(4);
        let part = VcPartition::all_real_time(1);
        let mut r0 = Router::new(RouterId(0), 2, &cfg, part);
        let r1 = Router::new(RouterId(1), 2, &cfg, part);
        r0.init_credits(PortId(0), VcId(0), 4);
        r0.init_credits(PortId(1), VcId(0), 1_000_000);
        const TO_NEIGHBOUR: [PortId; 1] = [PortId(0)];
        for (i, f) in worm(1, 16, 3).into_iter().take(4).enumerate() {
            r0.receive_flit(Cycles(i as u64), PortId(1), f);
        }
        for t in 0..10u64 {
            r0.arbitrate(Cycles(t), |_| (&TO_NEIGHBOUR[..], VcSel::Any), None);
        }
        let routers = [r0, r1];
        let downstream = |r: usize, p: PortId| -> Option<(usize, PortId)> {
            (p == PortId(0)).then_some((1 - r, PortId(0)))
        };
        let route = |_r: usize, _f: &Flit| vec![PortId(0)];
        let (holders, adj) = build_waits_for(&routers, &downstream, &route);
        assert_eq!(holders.len(), 1);
        assert!(adj[0].is_empty(), "empty downstream buffer ⇒ no edge");
        assert!(!find_cycle_nodes(&adj)[0]);
    }
}
