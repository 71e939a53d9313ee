//! The PCS single-switch data-path model.
//!
//! Once a circuit is established, its flits see three resources:
//!
//! 1. the **input link** from the source node to the switch (shared by
//!    the node's outgoing circuits, one flit per cycle, Virtual Clock
//!    multiplexing at the negotiated rates),
//! 2. the **switch pipe** — a fixed five-stage latency (no contention:
//!    the circuit was reserved end to end), and
//! 3. the **output link** from the switch to the destination node (shared
//!    by the circuits terminating there, Virtual Clock again).
//!
//! Queues are unbounded: circuit admission bounds the resident rate of
//! every link below its capacity, so queues stay small in any admitted
//! configuration — backpressure hardware would be dead logic here.

use std::collections::VecDeque;

use flitnet::{Flit, NodeId, VcId};
use mediaworm::counters::OCCUPANCY_SAMPLE_PERIOD;
use mediaworm::{MuxScheduler, SchedulerKind};
use metrics::{DeliveryTracker, FrameTails};
use netsim::{Cycles, TimeBase};

use crate::config::PcsConfig;

/// Telemetry counters of a [`PcsNetwork`], mirroring the MediaWorm
/// router's counters where PCS has an analogous resource (PCS has no
/// credits, so there is no credit-stall counter).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PcsCounters {
    /// Flits transmitted by the link multiplexers (input + output side).
    pub flits_forwarded: u64,
    /// Link-mux conflicts: one per eligible circuit VC that lost its
    /// transmission cycle.
    pub mux_conflicts: u64,
    /// Occupancy sampling events taken.
    pub occupancy_samples: u64,
    /// Summed sampled queue occupancy (flits) over all links.
    pub occupancy_flits: u64,
}

impl PcsCounters {
    /// Mean sampled queue occupancy in flits, `None` without samples.
    pub fn mean_occupancy(&self) -> Option<f64> {
        (self.occupancy_samples > 0)
            .then(|| self.occupancy_flits as f64 / self.occupancy_samples as f64)
    }
}

/// One physical link shared by up to `vcs` circuits.
#[derive(Debug)]
struct LinkMux {
    queues: Vec<VecDeque<Flit>>,
    /// VCs with a non-empty queue, ascending: the list the multiplexer
    /// picks from.
    backlogged: Vec<usize>,
    sched: MuxScheduler,
    forwarded: u64,
    conflicts: u64,
}

impl LinkMux {
    fn new(vcs: usize) -> LinkMux {
        LinkMux {
            queues: (0..vcs).map(|_| VecDeque::new()).collect(),
            backlogged: Vec::with_capacity(vcs),
            sched: MuxScheduler::new(SchedulerKind::VirtualClock, vcs),
            forwarded: 0,
            conflicts: 0,
        }
    }

    fn enqueue(&mut self, now: Cycles, vc: usize, flit: Flit) {
        if self.queues[vc].is_empty() {
            let pos = self.backlogged.partition_point(|&v| v < vc);
            self.backlogged.insert(pos, vc);
        }
        self.queues[vc].push_back(flit);
        self.sched.on_arrival(vc, now, &flit);
    }

    fn transmit(&mut self) -> Option<Flit> {
        let v = self.sched.choose_from(&self.backlogged)?;
        let flit = self.queues[v].pop_front().expect("eligible VC has a flit");
        self.sched.on_service(v);
        self.forwarded += 1;
        self.conflicts += self.backlogged.len() as u64 - 1;
        if self.queues[v].is_empty() {
            let pos = self.backlogged.partition_point(|&b| b < v);
            self.backlogged.remove(pos);
        }
        Some(flit)
    }

    fn occupancy(&self) -> u64 {
        self.queues.iter().map(|q| q.len() as u64).sum()
    }

    fn is_empty(&self) -> bool {
        self.backlogged.is_empty()
    }
}

/// The PCS switch with its attached links and circuit bookkeeping.
///
/// Circuit setup is driven by [`crate::sim`], and a circuit lasts for
/// the whole run; the network model only moves flits of established
/// circuits.
#[derive(Debug)]
pub struct PcsNetwork {
    pipe_latency: Cycles,
    input_links: Vec<LinkMux>,
    output_links: Vec<LinkMux>,
    /// Flits inside the switch pipe: (exit time, destination, flit).
    pipe: VecDeque<(Cycles, NodeId, Flit)>,
    /// VC occupancy per node, input side and output side.
    in_vc_used: Vec<Vec<bool>>,
    out_vc_used: Vec<Vec<bool>>,
    delivery: DeliveryTracker,
    frame_tails: FrameTails,
    flits_in_flight: u64,
    delivered_msgs: u64,
    /// Occupancy sampling events taken so far.
    occupancy_samples: u64,
    /// Summed sampled queue occupancy across all links.
    occupancy_flits: u64,
    /// Whether each input/output link transmitted a data flit on the most
    /// recent cycle — a probe arriving then is blocked and nacked (§3.5:
    /// deterministic routing, no backtracking).
    in_busy: Vec<bool>,
    out_busy: Vec<bool>,
}

impl PcsNetwork {
    /// Builds the switch model for `cfg`.
    pub fn new(cfg: &PcsConfig, timebase: TimeBase) -> PcsNetwork {
        cfg.validate();
        let vcs = cfg.vcs_per_link as usize;
        PcsNetwork {
            pipe_latency: Cycles(u64::from(cfg.pipe_cycles)),
            input_links: (0..cfg.nodes).map(|_| LinkMux::new(vcs)).collect(),
            output_links: (0..cfg.nodes).map(|_| LinkMux::new(vcs)).collect(),
            pipe: VecDeque::new(),
            in_vc_used: vec![vec![false; vcs]; cfg.nodes],
            out_vc_used: vec![vec![false; vcs]; cfg.nodes],
            delivery: DeliveryTracker::new(timebase),
            frame_tails: FrameTails::default(),
            flits_in_flight: 0,
            delivered_msgs: 0,
            occupancy_samples: 0,
            occupancy_flits: 0,
            in_busy: vec![false; cfg.nodes],
            out_busy: vec![false; cfg.nodes],
        }
    }

    /// Whether a probe `src → dest` would be blocked by in-flight data
    /// this instant. A blocked probe cannot progress and, without
    /// backtracking, is nacked (§3.5).
    pub fn probe_blocked(&self, src: NodeId, dest: NodeId) -> bool {
        self.in_busy[src.index()] || self.out_busy[dest.index()]
    }

    /// Attempts to reserve a circuit `src → dest`: one free VC on the
    /// source's input link and one on the destination's output link
    /// (deterministic routing, no backtracking — failure means the probe
    /// is nacked and the connection dropped). The caller should first
    /// consult [`PcsNetwork::probe_blocked`]; this method only checks VC
    /// availability.
    ///
    /// Returns the allocated `(input_vc, output_vc)` on success.
    pub fn try_establish(&mut self, src: NodeId, dest: NodeId) -> Option<(VcId, VcId)> {
        let in_vc = self.in_vc_used[src.index()].iter().position(|u| !u)?;
        let out_vc = self.out_vc_used[dest.index()].iter().position(|u| !u)?;
        self.in_vc_used[src.index()][in_vc] = true;
        self.out_vc_used[dest.index()][out_vc] = true;
        Some((VcId(in_vc as u32), VcId(out_vc as u32)))
    }

    /// Injects one flit of an established circuit at the source node. The
    /// flit's `vc` field selects the input-link VC; `out_vc` the
    /// output-link VC at the destination.
    pub fn inject(&mut self, now: Cycles, src: NodeId, flit: Flit) {
        self.input_links[src.index()].enqueue(now, flit.vc.index(), flit);
        self.flits_in_flight += 1;
    }

    /// Advances the model by one cycle.
    pub fn step(&mut self, now: Cycles) {
        if now.get().is_multiple_of(OCCUPANCY_SAMPLE_PERIOD) {
            self.occupancy_samples += 1;
            self.occupancy_flits += self
                .input_links
                .iter()
                .chain(&self.output_links)
                .map(LinkMux::occupancy)
                .sum::<u64>();
        }
        // Pipe exits → output link queues.
        while self.pipe.front().is_some_and(|(at, _, _)| *at <= now) {
            let (_, dest, flit) = self.pipe.pop_front().expect("peeked");
            self.output_links[dest.index()].enqueue(now, flit.out_vc.index(), flit);
        }
        // Input links → switch pipe.
        for node in 0..self.input_links.len() {
            let sent = self.input_links[node].transmit();
            self.in_busy[node] = sent.is_some();
            if let Some(flit) = sent {
                self.pipe
                    .push_back((now + self.pipe_latency, flit.dest, flit));
            }
        }
        // Output links → destination sinks.
        for node in 0..self.output_links.len() {
            let sent = self.output_links[node].transmit();
            self.out_busy[node] = sent.is_some();
            if let Some(flit) = sent {
                self.sink(now, flit);
            }
        }
    }

    fn sink(&mut self, now: Cycles, flit: Flit) {
        self.flits_in_flight -= 1;
        if !flit.is_tail() {
            return;
        }
        self.delivered_msgs += 1;
        if self.frame_tails.tail(&flit) {
            self.delivery.record_frame(flit.stream, now);
        }
    }

    /// Flits injected but not yet delivered.
    pub fn flits_in_flight(&self) -> u64 {
        self.flits_in_flight
    }

    /// Whether every queue and the pipe are empty.
    pub fn is_idle(&self) -> bool {
        self.flits_in_flight == 0
            && self.pipe.is_empty()
            && self.input_links.iter().all(LinkMux::is_empty)
            && self.output_links.iter().all(LinkMux::is_empty)
    }

    /// Messages fully delivered.
    pub fn delivered_msgs(&self) -> u64 {
        self.delivered_msgs
    }

    /// The frame-delivery (jitter) tracker.
    pub fn delivery(&self) -> &DeliveryTracker {
        &self.delivery
    }

    /// Discards measurements before `at`.
    pub fn set_warmup_end(&mut self, at: Cycles) {
        self.delivery.set_warmup_end(at);
    }

    /// Telemetry counter totals summed over every link multiplexer.
    pub fn counters(&self) -> PcsCounters {
        let mut c = PcsCounters {
            occupancy_samples: self.occupancy_samples,
            occupancy_flits: self.occupancy_flits,
            ..PcsCounters::default()
        };
        for l in self.input_links.iter().chain(&self.output_links) {
            c.flits_forwarded += l.forwarded;
            c.mux_conflicts += l.conflicts;
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flitnet::{FrameId, MsgId, StreamId, TrafficClass, Worm};

    fn timebase() -> TimeBase {
        TimeBase::from_link(100e6, 32)
    }

    fn network() -> PcsNetwork {
        PcsNetwork::new(&PcsConfig::paper_default(), timebase())
    }

    fn msg(stream: u32, msg_id: u64, dest: u32, vc_in: u32, vc_out: u32, len: u32) -> Vec<Flit> {
        Worm::new(Flit {
            stream: StreamId(stream),
            msg: MsgId(msg_id),
            frame: FrameId(0),
            seq_in_msg: 0,
            msg_len: len,
            msgs_in_frame: 1,
            dest: NodeId(dest),
            vc: VcId(vc_in),
            out_vc: VcId(vc_out),
            vtick: 25.0,
            class: TrafficClass::Vbr,
            created_at: Cycles(0),
        })
        .into_iter()
        .collect()
    }

    #[test]
    fn establish_until_vcs_exhausted() {
        let mut net = network();
        // 24 circuits into the same destination fill its output link.
        for _ in 0..24 {
            assert!(net.try_establish(NodeId(0), NodeId(1)).is_some());
        }
        assert!(net.try_establish(NodeId(0), NodeId(1)).is_none());
        // A different destination still works? No: node 0's INPUT VCs are
        // also exhausted (24 allocated).
        assert!(net.try_establish(NodeId(0), NodeId(2)).is_none());
        // But another source can still reach node 2.
        assert!(net.try_establish(NodeId(3), NodeId(2)).is_some());
    }

    #[test]
    fn flits_flow_end_to_end() {
        let mut net = network();
        let (i, o) = net.try_establish(NodeId(0), NodeId(1)).unwrap();
        for f in msg(0, 1, 1, i.get(), o.get(), 20) {
            net.inject(Cycles(0), NodeId(0), f);
        }
        for t in 0..100u64 {
            net.step(Cycles(t));
        }
        assert!(net.is_idle());
        assert_eq!(net.delivered_msgs(), 1);
        assert_eq!(net.delivery().summary().frames, 1);
    }

    #[test]
    fn two_circuits_share_a_link_fairly() {
        let mut net = network();
        let (i1, o1) = net.try_establish(NodeId(0), NodeId(1)).unwrap();
        let (i2, o2) = net.try_establish(NodeId(0), NodeId(1)).unwrap();
        for f in msg(0, 1, 1, i1.get(), o1.get(), 50) {
            net.inject(Cycles(0), NodeId(0), f);
        }
        for f in msg(1, 2, 1, i2.get(), o2.get(), 50) {
            net.inject(Cycles(0), NodeId(0), f);
        }
        // Both circuits have equal Vticks → their delivery completes
        // within a couple of cycles of each other.
        let mut done = Vec::new();
        for t in 0..400u64 {
            net.step(Cycles(t));
            if net.delivered_msgs() as usize > done.len() {
                done.push(t);
            }
        }
        assert_eq!(done.len(), 2);
        assert!(done[1] - done[0] <= 3, "finish times {done:?}");
    }

    #[test]
    fn counters_track_forwarding_and_conflicts() {
        let mut net = network();
        let (i1, o1) = net.try_establish(NodeId(0), NodeId(1)).unwrap();
        let (i2, o2) = net.try_establish(NodeId(0), NodeId(1)).unwrap();
        for f in msg(0, 1, 1, i1.get(), o1.get(), 50) {
            net.inject(Cycles(0), NodeId(0), f);
        }
        for f in msg(1, 2, 1, i2.get(), o2.get(), 50) {
            net.inject(Cycles(0), NodeId(0), f);
        }
        for t in 0..400u64 {
            net.step(Cycles(t));
        }
        let c = net.counters();
        // Every flit crosses one input link and one output link.
        assert_eq!(c.flits_forwarded, 200);
        // Two circuits competed on the shared input link the whole time
        // (the output link drains as fast as it fills, so it rarely has
        // two backlogged VCs at once).
        assert!(c.mux_conflicts >= 90, "conflicts {}", c.mux_conflicts);
        // Cycle 0 is a sampling cycle and the queues held 100 flits then.
        assert!(c.occupancy_samples >= 1);
        assert_eq!(c.mean_occupancy().map(|m| m > 0.0), Some(true));
    }

    #[test]
    fn idle_network_counters_are_empty() {
        let net = network();
        let c = net.counters();
        assert_eq!(c.flits_forwarded, 0);
        assert_eq!(c.mux_conflicts, 0);
        assert_eq!(c.mean_occupancy(), None);
    }

    #[test]
    fn pipe_latency_is_applied() {
        let mut net = network();
        let (i, o) = net.try_establish(NodeId(2), NodeId(5)).unwrap();
        let flits = msg(0, 1, 5, i.get(), o.get(), 1);
        net.inject(Cycles(0), NodeId(2), flits[0]);
        let mut delivered_at = None;
        for t in 0..50u64 {
            net.step(Cycles(t));
            if net.delivered_msgs() == 1 && delivered_at.is_none() {
                delivered_at = Some(t);
            }
        }
        // input link (cycle 0) + 5-cycle pipe + output link ≥ 5.
        assert!(delivered_at.expect("delivered") >= 5);
    }
}
