//! Building complete traffic-mix workloads (paper §4.2.3).

use flitnet::{NodeId, StreamId, TrafficClass, VcId, VcPartition, Worm};
use netsim::snap::{SnapError, SnapReader, SnapWriter};
use netsim::{Cycles, SimRng};

use crate::besteffort::BestEffortSource;
use crate::police::{Policer, PolicingMode};
use crate::spec::{StreamClass, WorkloadSpec};
use crate::stream::RealTimeStream;

/// One message ready for injection: when, where, and the message as its
/// head flit.
#[derive(Debug, Clone, Copy)]
pub struct ScheduledMessage {
    /// Injection cycle at the source network interface.
    pub at: Cycles,
    /// Source endpoint.
    pub src: NodeId,
    /// The message; its head's `vc` is the injection-link VC.
    pub flits: Worm,
}

/// A traffic source: either a fixed real-time stream or a per-node
/// best-effort generator.
#[derive(Debug)]
pub enum Source {
    /// A VBR or CBR stream.
    RealTime(RealTimeStream),
    /// A best-effort generator.
    BestEffort(BestEffortSource),
}

/// Static description of a real-time stream, used for reports and for PCS
/// connection establishment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamInfo {
    /// Stream id (indexes [`metrics`-style trackers](https://docs.rs) densely).
    pub id: StreamId,
    /// VBR or CBR.
    pub class: TrafficClass,
    /// Source endpoint.
    pub src: NodeId,
    /// Destination endpoint.
    pub dest: NodeId,
    /// Injection-link VC.
    pub vc_in: VcId,
    /// Requested downstream VC.
    pub vc_out: VcId,
}

/// A complete workload: every source in the system plus shared generation
/// state (RNG, global message ids).
///
/// The simulation driver asks each source for its next message and keeps a
/// calendar of pending injections; see `mediaworm::sim`.
#[derive(Debug)]
pub struct Workload {
    sources: Vec<Source>,
    infos: Vec<StreamInfo>,
    rng: SimRng,
    next_msg_id: u64,
    rt_count: usize,
    rt_load: f64,
    be_load: f64,
    spec: WorkloadSpec,
    partition: VcPartition,
    oversubscribed: bool,
    policer: Policer,
}

impl Workload {
    /// Number of sources (real-time streams + best-effort generators).
    pub fn source_count(&self) -> usize {
        self.sources.len()
    }

    /// Number of real-time streams.
    pub fn real_time_stream_count(&self) -> usize {
        self.rt_count
    }

    /// Descriptions of the real-time streams.
    pub fn stream_infos(&self) -> &[StreamInfo] {
        &self.infos
    }

    /// The workload's physical parameters.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// The VC partition the workload was built against.
    pub fn partition(&self) -> VcPartition {
        self.partition
    }

    /// Realized (real-time, best-effort) load as fractions of the link
    /// bandwidth per injection link.
    pub fn realized_load(&self) -> (f64, f64) {
        (self.rt_load, self.be_load)
    }

    /// Whether the requested real-time load exceeded the per-VC stream
    /// capacity (`⌊(link/VCs)/stream⌋` per VC, §4.2.3) and VCs had to carry
    /// more streams than their bandwidth share strictly allows.
    pub fn is_oversubscribed(&self) -> bool {
        self.oversubscribed
    }

    /// Pulls the next message from source `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn next_message(&mut self, idx: usize) -> ScheduledMessage {
        let mut msg = match &mut self.sources[idx] {
            Source::RealTime(s) => s.next_message(&mut self.rng, &mut self.next_msg_id),
            Source::BestEffort(s) => s.next_message(&mut self.rng, &mut self.next_msg_id),
        };
        // Police real-time sources against their negotiated envelope at
        // the NI, in front of admission control. Best-effort sources have
        // no contract to enforce.
        if idx < self.rt_count {
            self.policer.apply(idx, &mut msg);
        }
        msg
    }

    /// The NI policing mode the workload was built with.
    pub fn policing(&self) -> PolicingMode {
        self.policer.mode()
    }

    /// Serialises the workload's generation state into a snapshot: the
    /// shared RNG stream, the global message-id counter, and every
    /// source's position. The source roster itself is a pure function of
    /// the builder inputs and is not written.
    pub fn save(&self, w: &mut SnapWriter) {
        for &word in &self.rng.state() {
            w.u64(word);
        }
        w.u64(self.next_msg_id);
        w.usize(self.sources.len());
        for src in &self.sources {
            match src {
                Source::RealTime(s) => {
                    w.u8(0);
                    s.save(w);
                }
                Source::BestEffort(s) => {
                    w.u8(1);
                    s.save(w);
                }
            }
        }
        self.policer.save(w);
    }

    /// Restores state saved by [`Workload::save`] into this workload,
    /// which must have been rebuilt from the *same* builder inputs (same
    /// node count, partition, spec, load, mix, class and seed).
    ///
    /// # Errors
    ///
    /// Propagates snapshot decoding errors; rejects a source roster whose
    /// length or per-source kinds disagree with the snapshot.
    pub fn load_into(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let state = [r.u64()?, r.u64()?, r.u64()?, r.u64()?];
        if state.iter().all(|&w| w == 0) {
            return Err(SnapError::BadValue("all-zero RNG state"));
        }
        self.rng = SimRng::from_state(state);
        self.next_msg_id = r.u64()?;
        if r.usize()? != self.sources.len() {
            return Err(SnapError::BadValue("workload source count mismatch"));
        }
        for src in &mut self.sources {
            let tag = r.u8()?;
            match (tag, src) {
                (0, Source::RealTime(s)) => s.load_into(r)?,
                (1, Source::BestEffort(s)) => s.load_into(r)?,
                _ => return Err(SnapError::BadValue("workload source kind mismatch")),
            }
        }
        self.policer.load_into(r)?;
        Ok(())
    }
}

/// Builder for [`Workload`]s.
///
/// # Example
///
/// ```
/// use traffic::{StreamClass, WorkloadBuilder};
/// use flitnet::VcPartition;
///
/// let partition = VcPartition::from_mix(16, 50.0, 50.0);
/// let wl = WorkloadBuilder::new(8, partition)
///     .load(0.8)
///     .mix(50.0, 50.0)
///     .real_time_class(StreamClass::Cbr)
///     .seed(7)
///     .build();
/// // 50 % of 0.8 load = 40 streams of 4 Mbps per 400 Mbps link.
/// assert_eq!(wl.real_time_stream_count(), 8 * 40);
/// ```
#[derive(Debug, Clone)]
pub struct WorkloadBuilder {
    node_count: usize,
    partition: VcPartition,
    spec: WorkloadSpec,
    load: f64,
    mix_x: f64,
    mix_y: f64,
    class: StreamClass,
    seed: u64,
    policing: PolicingMode,
}

impl WorkloadBuilder {
    /// Starts a builder for `node_count` endpoints with the given VC
    /// partition. Defaults: paper Table 1 spec, load 0.8, mix 80:20, VBR,
    /// seed 0.
    ///
    /// # Panics
    ///
    /// Panics if `node_count < 2`.
    pub fn new(node_count: usize, partition: VcPartition) -> WorkloadBuilder {
        assert!(node_count >= 2, "need at least two endpoints");
        WorkloadBuilder {
            node_count,
            partition,
            spec: WorkloadSpec::paper_default(),
            load: 0.8,
            mix_x: 80.0,
            mix_y: 20.0,
            class: StreamClass::Vbr,
            seed: 0,
            policing: PolicingMode::Off,
        }
    }

    /// Replaces the physical workload parameters.
    pub fn spec(mut self, spec: WorkloadSpec) -> WorkloadBuilder {
        self.spec = spec;
        self
    }

    /// Sets the total input load as a fraction of link bandwidth.
    ///
    /// # Panics
    ///
    /// Panics if `load` is not in `(0, 1.5]` (loads slightly above 1.0 are
    /// allowed to study saturation).
    pub fn load(mut self, load: f64) -> WorkloadBuilder {
        assert!(load > 0.0 && load <= 1.5, "load must be in (0, 1.5]");
        self.load = load;
        self
    }

    /// Sets the real-time : best-effort mix ratio `x:y`.
    pub fn mix(mut self, x: f64, y: f64) -> WorkloadBuilder {
        assert!(x >= 0.0 && y >= 0.0 && x + y > 0.0, "invalid mix");
        self.mix_x = x;
        self.mix_y = y;
        self
    }

    /// Chooses VBR or CBR for the real-time component.
    pub fn real_time_class(mut self, class: StreamClass) -> WorkloadBuilder {
        self.class = class;
        self
    }

    /// Sets the RNG seed (the whole workload is a pure function of it).
    pub fn seed(mut self, seed: u64) -> WorkloadBuilder {
        self.seed = seed;
        self
    }

    /// Chooses the NI policing action for real-time streams (default:
    /// [`PolicingMode::Off`]).
    pub fn policing(mut self, mode: PolicingMode) -> WorkloadBuilder {
        self.policing = mode;
        self
    }

    /// Materialises the workload.
    ///
    /// Per node: `round(load · x/(x+y) · link/stream)` real-time streams
    /// assigned round-robin to the real-time VCs, plus one best-effort
    /// generator carrying `load · y/(x+y)` of the link (if non-zero).
    pub fn build(&self) -> Workload {
        self.spec.validate();
        let mut rng = SimRng::seed_from(self.seed);
        let tb = self.spec.timebase();
        let frac_rt = self.mix_x / (self.mix_x + self.mix_y);
        let rt_load = self.load * frac_rt;
        let be_load = self.load - rt_load;

        let streams_per_node = (rt_load * self.spec.link_bps / self.spec.stream_bps).round() as u32;
        let rt_vcs: Vec<VcId> = self.partition.vcs_for(TrafficClass::Vbr).collect();
        let be_vcs: Vec<VcId> = self.partition.vcs_for(TrafficClass::BestEffort).collect();
        let cap_per_vc = self
            .partition
            .streams_per_vc(self.spec.link_bps, self.spec.stream_bps);
        let oversubscribed =
            !rt_vcs.is_empty() && streams_per_node > cap_per_vc * rt_vcs.len() as u32;

        assert!(
            streams_per_node == 0 || !rt_vcs.is_empty(),
            "real-time load requested but no real-time VCs in the partition"
        );
        assert!(
            be_load <= 0.0 || !be_vcs.is_empty(),
            "best-effort load requested but no best-effort VCs in the partition"
        );

        let mut sources = Vec::new();
        let mut infos = Vec::new();
        let mut next_stream = 0u32;
        let frame_interval = tb.cycles_from_ms(self.spec.frame_interval_ms);

        for node in 0..self.node_count as u32 {
            for k in 0..streams_per_node {
                let id = StreamId(next_stream);
                next_stream += 1;
                let vc_in = rt_vcs[(k as usize) % rt_vcs.len()];
                let vc_out = *rng.pick(&rt_vcs);
                let dest = NodeId(rng.index_excluding(self.node_count, node as usize) as u32);
                let phase = Cycles(rng.range_u64(0, frame_interval.get().max(1)));
                let stream = RealTimeStream::new(
                    &self.spec,
                    self.class,
                    id,
                    NodeId(node),
                    dest,
                    vc_in,
                    vc_out,
                    phase,
                );
                infos.push(StreamInfo {
                    id,
                    class: self.class.traffic_class(),
                    src: NodeId(node),
                    dest,
                    vc_in,
                    vc_out,
                });
                sources.push(Source::RealTime(stream));
            }
        }
        let rt_count = sources.len();

        if be_load > 1e-12 {
            for node in 0..self.node_count as u32 {
                let id = StreamId(next_stream);
                next_stream += 1;
                let src = BestEffortSource::new(
                    &self.spec,
                    id,
                    NodeId(node),
                    self.node_count,
                    be_vcs.clone(),
                    be_load * self.spec.link_bps,
                    Cycles::ZERO,
                    &mut rng,
                );
                sources.push(Source::BestEffort(src));
            }
        }

        let realized_rt = f64::from(streams_per_node) * self.spec.stream_bps / self.spec.link_bps;
        Workload {
            sources,
            infos,
            rng,
            next_msg_id: 0,
            rt_count,
            rt_load: realized_rt,
            be_load,
            spec: self.spec.clone(),
            partition: self.partition,
            oversubscribed,
            policer: Policer::new(self.policing, rt_count, &self.spec),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn builder() -> WorkloadBuilder {
        WorkloadBuilder::new(8, VcPartition::from_mix(16, 80.0, 20.0))
    }

    #[test]
    fn stream_count_matches_load_arithmetic() {
        // 80 % of 0.9 load on 400 Mbps = 288 Mbps = 72 streams of 4 Mbps.
        let wl = builder().load(0.9).mix(80.0, 20.0).build();
        assert_eq!(wl.real_time_stream_count(), 8 * 72);
        let (rt, _be) = wl.realized_load();
        assert!((rt - 0.72).abs() < 1e-9);
    }

    #[test]
    fn pure_real_time_has_no_best_effort_sources() {
        let wl = WorkloadBuilder::new(8, VcPartition::all_real_time(16))
            .load(0.8)
            .mix(100.0, 0.0)
            .build();
        assert_eq!(wl.source_count(), wl.real_time_stream_count());
    }

    #[test]
    fn best_effort_sources_one_per_node() {
        let wl = builder().load(0.8).mix(80.0, 20.0).build();
        assert_eq!(wl.source_count(), wl.real_time_stream_count() + 8);
    }

    #[test]
    fn streams_use_only_real_time_vcs() {
        let wl = builder().load(0.8).build();
        let p = wl.partition();
        for info in wl.stream_infos() {
            assert!(p.class_of(info.vc_in).is_real_time());
            assert!(p.class_of(info.vc_out).is_real_time());
            assert_ne!(info.src, info.dest);
        }
    }

    #[test]
    fn same_seed_reproduces_workload() {
        let a = builder().seed(99).build();
        let b = builder().seed(99).build();
        assert_eq!(a.stream_infos(), b.stream_infos());
        let mut wa = a;
        let mut wb = b;
        for i in 0..wa.source_count().min(10) {
            let ma = wa.next_message(i);
            let mb = wb.next_message(i);
            assert_eq!(ma.at, mb.at);
            assert_eq!(ma.flits.len(), mb.flits.len());
        }
    }

    #[test]
    fn oversubscription_detected_past_vc_capacity() {
        // 100:0 at load 1.0 → 100 streams/node, but 16 VCs × 6 = 96 cap.
        let wl = WorkloadBuilder::new(8, VcPartition::all_real_time(16))
            .load(1.0)
            .mix(100.0, 0.0)
            .build();
        assert!(wl.is_oversubscribed());
        let ok = WorkloadBuilder::new(8, VcPartition::all_real_time(16))
            .load(0.9)
            .mix(100.0, 0.0)
            .build();
        assert!(!ok.is_oversubscribed());
    }

    #[test]
    fn messages_pull_in_time_order_per_source() {
        let mut wl = builder().load(0.7).seed(3).build();
        for i in 0..wl.source_count() {
            let mut last = Cycles::ZERO;
            for _ in 0..5 {
                let m = wl.next_message(i);
                assert!(m.at >= last);
                last = m.at;
            }
        }
    }

    #[test]
    fn msg_ids_are_globally_unique() {
        let mut wl = builder().load(0.6).seed(4).build();
        let mut seen = std::collections::HashSet::new();
        for i in 0..wl.source_count() {
            for _ in 0..3 {
                let m = wl.next_message(i);
                assert!(seen.insert(m.flits.head().msg));
            }
        }
    }

    #[test]
    fn shaped_workload_keeps_per_source_time_order() {
        let mut wl = builder()
            .load(0.9)
            .seed(5)
            .policing(PolicingMode::Shape)
            .build();
        for i in 0..wl.source_count() {
            let mut last = Cycles::ZERO;
            for _ in 0..8 {
                let m = wl.next_message(i);
                assert!(m.at >= last, "shaping broke time order at source {i}");
                last = m.at;
            }
        }
    }

    #[test]
    fn demoted_messages_keep_their_class_and_vcs() {
        // A very bursty VBR spec (σ = mean/2) so oversized frames reliably
        // overrun the mean-rate bucket within a few frame intervals.
        let spec = WorkloadSpec {
            frame_std_bytes: 8_333.0,
            ..WorkloadSpec::paper_default()
        };
        let mut wl = builder()
            .spec(spec)
            .load(0.9)
            .seed(6)
            .policing(PolicingMode::Demote)
            .build();
        let p = wl.partition();
        let rt = wl.real_time_stream_count().min(16);
        let mut demoted = 0u32;
        for i in 0..rt {
            for _ in 0..1_700 {
                let m = wl.next_message(i);
                if m.flits.head().vtick == flitnet::BEST_EFFORT_VTICK {
                    demoted += 1;
                    // Demotion changes scheduling priority only: the
                    // flits stay in their class partition.
                    assert_eq!(m.flits.head().class, TrafficClass::Vbr);
                    assert!(p.class_of(m.flits.head().vc).is_real_time());
                }
            }
        }
        // VBR frames above the mean must trip the mean-rate bucket.
        assert!(demoted > 0, "a VBR workload should demote some messages");
    }

    #[test]
    #[should_panic(expected = "no real-time VCs")]
    fn rt_load_without_rt_vcs_panics() {
        let _ = WorkloadBuilder::new(8, VcPartition::from_mix(16, 0.0, 100.0))
            .load(0.8)
            .mix(80.0, 20.0)
            .build();
    }
}
