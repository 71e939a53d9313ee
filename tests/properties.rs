//! Property-based tests (proptest) on the core data structures and
//! invariants of the reproduction.

use flitnet::{
    Flit, FlitKind, FrameId, MsgId, NodeId, StreamId, TrafficClass, VcId, VcPartition, Worm,
};
use mediaworm::{MuxScheduler, SchedulerKind, DRR_QUANTUM};
use netsim::{Calendar, Cycles, RunningStats, SimRng, TimeBase};
use proptest::prelude::*;

/// A flit of `stream` in the role `kind`, at the position in a 4-flit
/// message (1-flit for `HeadTail`) that has that role.
fn flit(kind: FlitKind, vtick: f64, stream: u32) -> Flit {
    let (seq_in_msg, msg_len) = match kind {
        FlitKind::Head => (0, 4),
        FlitKind::Body => (1, 4),
        FlitKind::Tail => (3, 4),
        FlitKind::HeadTail => (0, 1),
    };
    Flit {
        stream: StreamId(stream),
        msg: MsgId(u64::from(stream)),
        frame: FrameId(0),
        seq_in_msg,
        msg_len,
        msgs_in_frame: 1,
        dest: NodeId(0),
        vc: VcId(0),
        out_vc: VcId(0),
        vtick,
        class: TrafficClass::Vbr,
        created_at: Cycles(0),
    }
}

const ZOO: [SchedulerKind; 6] = [
    SchedulerKind::VirtualClock,
    SchedulerKind::Fifo,
    SchedulerKind::RoundRobin,
    SchedulerKind::Wfq,
    SchedulerKind::Drr,
    SchedulerKind::Scfq,
];

/// The multiplexer selection rule as a rotated scan over an eligibility
/// mask, written out independently of the scheduler. Virtual Clock, FIFO,
/// WFQ and SCFQ take the lowest stamp, scanning from the VC after the
/// service cursor so the first VC in scan order wins a tie. Round-robin
/// takes the first eligible VC after the cursor. DRR takes the first
/// eligible VC whose deficit covers a flit, scanning from the cursor
/// itself, and otherwise opens a round the way round-robin picks.
fn spec_choice(
    kind: SchedulerKind,
    cursor: usize,
    stamps: &[f64],
    deficits: &[f64],
    eligible: &[bool],
) -> Option<usize> {
    let n = eligible.len();
    let from = |first: usize| (first..first + n).map(move |i| i % n);
    let first_after = from(cursor + 1).find(|&v| eligible[v]);
    match kind {
        SchedulerKind::RoundRobin => first_after,
        SchedulerKind::Drr => from(cursor)
            .find(|&v| eligible[v] && deficits[v] >= 1.0)
            .or(first_after),
        _ => {
            let mut best: Option<(f64, usize)> = None;
            for v in from(cursor + 1).filter(|&v| eligible[v]) {
                if best.is_none_or(|(s, _)| stamps[v] < s) {
                    best = Some((stamps[v], v));
                }
            }
            best.map(|(_, v)| v)
        }
    }
}

proptest! {
    /// The VC partition always covers all VCs, with both classes disjoint,
    /// and any class with a positive share keeps at least one VC.
    #[test]
    fn partition_covers_and_respects_shares(
        total in 1u32..64,
        x in 0.0f64..100.0,
        y in 0.0f64..100.0,
    ) {
        prop_assume!(x + y > 0.0);
        let p = VcPartition::from_mix(total, x, y);
        prop_assert_eq!(p.real_time_count() + p.best_effort_count(), total);
        if x > 0.0 && total >= 2 {
            prop_assert!(p.real_time_count() >= 1);
        }
        if y > 0.0 && total >= 2 {
            prop_assert!(p.best_effort_count() >= 1);
        }
        let rt: Vec<VcId> = p.vcs_for(TrafficClass::Vbr).collect();
        let be: Vec<VcId> = p.vcs_for(TrafficClass::BestEffort).collect();
        for vc in &rt {
            prop_assert!(p.class_of(*vc).is_real_time());
        }
        for vc in &be {
            prop_assert!(!p.class_of(*vc).is_real_time());
        }
    }

    /// A worm's flits are always exactly one head and one tail, in order,
    /// covering `msg_len` flits.
    #[test]
    fn worm_flits_are_well_formed(len in 1u32..500) {
        let mut template = flit(FlitKind::Head, 10.0, 0);
        template.msg_len = len;
        let worm = Worm::new(template);
        prop_assert_eq!(worm.into_iter().len(), len as usize);
        let flits: Vec<Flit> = worm.into_iter().collect();
        prop_assert_eq!(flits.len(), len as usize);
        prop_assert!(flits[0].is_head());
        prop_assert!(flits[len as usize - 1].is_tail());
        let heads = flits.iter().filter(|f| f.is_head()).count();
        let tails = flits.iter().filter(|f| f.is_tail()).count();
        prop_assert_eq!(heads, 1);
        prop_assert_eq!(tails, 1);
        for (i, f) in flits.iter().enumerate() {
            prop_assert_eq!(f.seq_in_msg as usize, i);
        }
    }

    /// The Virtual Clock scheduler is work-conserving: whenever any VC is
    /// eligible, it serves one — and it never serves an empty VC.
    #[test]
    fn virtual_clock_is_work_conserving(
        arrivals in proptest::collection::vec((0usize..4, 1.0f64..1000.0), 1..200),
    ) {
        let mut s = MuxScheduler::new(SchedulerKind::VirtualClock, 4);
        let mut queued = [0u32; 4];
        for (vc, vtick) in &arrivals {
            s.on_arrival(*vc, Cycles(0), &flit(FlitKind::HeadTail, *vtick, *vc as u32));
            queued[*vc] += 1;
        }
        let total: u32 = queued.iter().sum();
        for _ in 0..total {
            let eligible: Vec<bool> = queued.iter().map(|&q| q > 0).collect();
            let vc = s.choose(&eligible).expect("work conservation");
            prop_assert!(queued[vc] > 0);
            queued[vc] -= 1;
            s.on_service(vc);
        }
        prop_assert!(queued.iter().all(|&q| q == 0));
    }

    /// Under persistent backlog, Virtual Clock shares bandwidth in
    /// proportion to the configured rates (the paper's soft guarantee).
    #[test]
    fn virtual_clock_shares_by_rate(ratio in 2u32..8) {
        let mut s = MuxScheduler::new(SchedulerKind::VirtualClock, 2);
        let slow_tick = 1000.0;
        let fast_tick = slow_tick / f64::from(ratio);
        let n = 2000u32;
        s.on_arrival(0, Cycles(0), &flit(FlitKind::Head, slow_tick, 0));
        s.on_arrival(1, Cycles(0), &flit(FlitKind::Head, fast_tick, 1));
        for _ in 1..n {
            s.on_arrival(0, Cycles(0), &flit(FlitKind::Body, slow_tick, 0));
            s.on_arrival(1, Cycles(0), &flit(FlitKind::Body, fast_tick, 1));
        }
        let mut served = [0u32; 2];
        for _ in 0..n {
            let vc = s.choose(&[true, true]).expect("backlogged");
            served[vc] += 1;
            s.on_service(vc);
        }
        let measured = f64::from(served[1]) / f64::from(served[0]);
        prop_assert!(
            (measured - f64::from(ratio)).abs() / f64::from(ratio) < 0.25,
            "expected ratio {ratio}, measured {measured:.2} ({served:?})"
        );
    }

    /// Every discipline in the scheduler zoo is work-conserving: whenever
    /// any VC is eligible, one is served — and never an empty one.
    #[test]
    fn scheduler_zoo_is_work_conserving(
        kind_idx in 0usize..6,
        arrivals in proptest::collection::vec((0usize..4, 1.0f64..1000.0), 1..200),
    ) {
        let kind = [
            SchedulerKind::VirtualClock,
            SchedulerKind::Fifo,
            SchedulerKind::RoundRobin,
            SchedulerKind::Wfq,
            SchedulerKind::Drr,
            SchedulerKind::Scfq,
        ][kind_idx];
        let mut s = MuxScheduler::new(kind, 4);
        let mut queued = [0u32; 4];
        for (vc, vtick) in &arrivals {
            s.on_arrival(*vc, Cycles(0), &flit(FlitKind::HeadTail, *vtick, *vc as u32));
            queued[*vc] += 1;
        }
        let total: u32 = queued.iter().sum();
        for _ in 0..total {
            let eligible: Vec<bool> = queued.iter().map(|&q| q > 0).collect();
            let vc = s.choose(&eligible).expect("work conservation");
            prop_assert!(queued[vc] > 0, "{kind:?} granted an empty VC");
            queued[vc] -= 1;
            s.on_service(vc);
        }
        prop_assert!(queued.iter().all(|&q| q == 0));
    }

    /// `choose_from` over an ascending eligible list picks exactly what
    /// the rotated mask scan ([`spec_choice`]) picks, and `choose` over
    /// the same eligibility as a mask agrees: all six disciplines, 1–24
    /// VCs, the service cursor parked at a random VC through
    /// `on_service`, stamps drawn from two Vticks so they tie on purpose,
    /// and random eligibility over a random backlog.
    #[test]
    fn choose_from_matches_the_rotated_mask_scan(
        n in 1usize..25,
        cursor_pick in 0usize..1_000,
        backlog_bits in 0u32..(1 << 24),
        eligible_bits in 0u32..(1 << 24),
        tick_bits in 0u32..(1 << 24),
        at in 1u64..50,
    ) {
        const CURSOR_TICK: f64 = 5.0;
        let cursor = cursor_pick % n;
        let bit = |bits: u32, v: usize| bits >> v & 1 == 1;
        let backlogged: Vec<bool> = (0..n).map(|v| bit(backlog_bits, v)).collect();
        let eligible: Vec<bool> = (0..n).map(|v| backlogged[v] && bit(eligible_bits, v)).collect();
        let list: Vec<usize> = (0..n).filter(|&v| eligible[v]).collect();
        let vtick = |v: usize| if bit(tick_bits, v) { 20.0 } else { 10.0 };
        for kind in ZOO {
            let mut s = MuxScheduler::new(kind, n);
            // Park the service cursor: one flit of a stream no VC below
            // uses goes through VC `cursor` at cycle 0.
            s.on_arrival(cursor, Cycles(0), &flit(FlitKind::HeadTail, CURSOR_TICK, 1_000));
            s.on_service(cursor);
            // One head per backlogged VC at cycle `at`, each a new stream
            // (so its connection register starts from zero).
            for v in (0..n).filter(|&v| backlogged[v]) {
                s.on_arrival(v, Cycles(at), &flit(FlitKind::HeadTail, vtick(v), v as u32));
            }
            // The stamps those heads got. WFQ's virtual time snaps to the
            // wall clock across the idle gap, like Virtual Clock's
            // max(Clock, auxVC); SCFQ's is the cursor flit's tag.
            let stamps: Vec<f64> = (0..n)
                .map(|v| match kind {
                    SchedulerKind::Fifo => at as f64,
                    SchedulerKind::VirtualClock | SchedulerKind::Wfq => at as f64 + vtick(v),
                    SchedulerKind::Scfq => CURSOR_TICK + vtick(v),
                    SchedulerKind::RoundRobin | SchedulerKind::Drr => 0.0,
                })
                .collect();
            // DRR: serving the cursor flit opened a round, leaving the
            // cursor VC one flit short of a quantum and the others empty.
            let deficits: Vec<f64> = (0..n)
                .map(|v| if v == cursor { DRR_QUANTUM - 1.0 } else { 0.0 })
                .collect();
            let expect = spec_choice(kind, cursor, &stamps, &deficits, &eligible);
            let (from_list, from_mask) = (s.choose_from(&list), s.choose(&eligible));
            prop_assert!(
                from_list == expect && from_mask == expect,
                "{kind:?}: list {list:?}, cursor {cursor}: choose_from {from_list:?}, \
                 choose {from_mask:?}, spec {expect:?}"
            );
        }
    }

    /// The rate-aware fair-queueing disciplines (WFQ, SCFQ) share a
    /// backlogged link in proportion to the configured rates, like
    /// Virtual Clock does.
    #[test]
    fn fair_queueing_zoo_shares_by_rate(kind_idx in 0usize..2, ratio in 2u32..8) {
        let kind = [SchedulerKind::Wfq, SchedulerKind::Scfq][kind_idx];
        let mut s = MuxScheduler::new(kind, 2);
        let slow_tick = 1000.0;
        let fast_tick = slow_tick / f64::from(ratio);
        let n = 2000u32;
        s.on_arrival(0, Cycles(0), &flit(FlitKind::Head, slow_tick, 0));
        s.on_arrival(1, Cycles(0), &flit(FlitKind::Head, fast_tick, 1));
        for _ in 1..n {
            s.on_arrival(0, Cycles(0), &flit(FlitKind::Body, slow_tick, 0));
            s.on_arrival(1, Cycles(0), &flit(FlitKind::Body, fast_tick, 1));
        }
        let mut served = [0u32; 2];
        for _ in 0..n {
            let vc = s.choose(&[true, true]).expect("backlogged");
            served[vc] += 1;
            s.on_service(vc);
        }
        let measured = f64::from(served[1]) / f64::from(served[0]);
        prop_assert!(
            (measured - f64::from(ratio)).abs() / f64::from(ratio) < 0.25,
            "{kind:?}: expected ratio {ratio}, measured {measured:.2} ({served:?})"
        );
    }

    /// DRR ignores rates entirely: with a fixed quantum both backlogged
    /// VCs get equal service no matter how skewed their vticks are.
    #[test]
    fn drr_splits_evenly_regardless_of_rate(ratio in 2u32..8) {
        let mut s = MuxScheduler::new(SchedulerKind::Drr, 2);
        let slow_tick = 1000.0;
        let fast_tick = slow_tick / f64::from(ratio);
        let n = 2000u32;
        for i in 0..n {
            let k = if i == 0 { FlitKind::Head } else { FlitKind::Body };
            s.on_arrival(0, Cycles(0), &flit(k, slow_tick, 0));
            s.on_arrival(1, Cycles(0), &flit(k, fast_tick, 1));
        }
        let mut served = [0u32; 2];
        for _ in 0..n {
            let vc = s.choose(&[true, true]).expect("backlogged");
            served[vc] += 1;
            s.on_service(vc);
        }
        prop_assert!(served[0] == served[1], "DRR must split evenly: {served:?}");
    }

    /// The calendar pops events in non-decreasing time order, FIFO within
    /// a cycle.
    #[test]
    fn calendar_orders_events(times in proptest::collection::vec(0u64..10_000, 1..300)) {
        let mut cal = Calendar::new();
        for (i, t) in times.iter().enumerate() {
            cal.schedule(Cycles(*t), i);
        }
        let mut last: Option<(Cycles, usize)> = None;
        while let Some((at, idx)) = cal.pop() {
            if let Some((lat, lidx)) = last {
                prop_assert!(at >= lat);
                if at == lat {
                    prop_assert!(idx > lidx, "FIFO within a cycle");
                }
            }
            last = Some((at, idx));
        }
    }

    /// Welford statistics agree with the two-pass computation on random
    /// samples.
    #[test]
    fn running_stats_match_two_pass(xs in proptest::collection::vec(-1e6f64..1e6, 2..500)) {
        let s: RunningStats = xs.iter().copied().collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
        prop_assert!((s.mean() - mean).abs() <= 1e-6 * mean.abs().max(1.0));
        prop_assert!((s.variance() - var).abs() <= 1e-6 * var.abs().max(1.0));
    }

    /// Time base round trips cycles ↔ wall clock within rounding error.
    #[test]
    fn timebase_roundtrip(ms in 0.001f64..10_000.0) {
        let tb = TimeBase::from_link(400e6, 32);
        let c = tb.cycles_from_ms(ms);
        let back = tb.cycles_to_ms(c);
        // Half a cycle of rounding is 40 ns.
        prop_assert!((back - ms).abs() <= tb.ns_per_cycle() * 1e-6);
    }

    /// Normal samples have the right first two moments for arbitrary
    /// parameters.
    #[test]
    fn normal_moments(mean in -1e4f64..1e4, sd in 0.1f64..1e3, seed in 0u64..1000) {
        let mut rng = SimRng::seed_from(seed);
        let n = 20_000;
        let mut stats = RunningStats::new();
        for _ in 0..n {
            stats.push(rng.normal(mean, sd));
        }
        prop_assert!((stats.mean() - mean).abs() < 5.0 * sd / (n as f64).sqrt() + 1e-9);
        prop_assert!((stats.std_dev() - sd).abs() / sd < 0.1);
    }

    /// Fat-tree routes always terminate and respect the two-hop bound.
    #[test]
    fn fat_tree_routes_terminate(
        leaves in 2u32..6,
        roots in 1u32..4,
        endpoints in 1u32..4,
    ) {
        use topo::Topology;
        let t = Topology::fat_tree(leaves, roots, endpoints);
        let n = t.node_count() as u32;
        for s in 0..n {
            for d in 0..n {
                if s == d {
                    continue;
                }
                let hops = t.hops(NodeId(s), NodeId(d));
                prop_assert!(hops == 0 || hops == 2, "fat-tree hop count {hops}");
            }
        }
    }

    /// Fat-mesh routes terminate for arbitrary grid shapes.
    #[test]
    fn fat_mesh_routes_terminate(
        w in 1u32..5,
        h in 1u32..5,
        fat in 1u32..3,
        endpoints in 1u32..3,
    ) {
        prop_assume!(w * h >= 2);
        use topo::Topology;
        let t = Topology::fat_mesh(w, h, fat, endpoints);
        let n = t.node_count() as u32;
        let max_hops = (w - 1) + (h - 1);
        for s in 0..n {
            for d in 0..n {
                if s == d {
                    continue;
                }
                prop_assert!(t.hops(NodeId(s), NodeId(d)) <= max_hops);
            }
        }
    }

    /// FIFO ties (equal stamps) rotate deterministically through the VCs:
    /// serving a tied winner moves the tie-break cursor past it, so every
    /// VC is visited exactly once per round instead of pinning to the
    /// lowest index.
    #[test]
    fn fifo_tie_break_is_deterministic(n_vcs in 2usize..8) {
        let mut s = MuxScheduler::new(SchedulerKind::Fifo, n_vcs);
        for vc in 0..n_vcs {
            // Two tied flits per VC so every VC stays eligible for a full
            // rotation.
            s.on_arrival(vc, Cycles(7), &flit(FlitKind::HeadTail, 1.0, vc as u32));
            s.on_arrival(vc, Cycles(7), &flit(FlitKind::HeadTail, 1.0, vc as u32));
        }
        let mut eligible = vec![true; n_vcs];
        for round in 0..2 * n_vcs {
            for (vc, e) in eligible.iter_mut().enumerate() {
                *e = s.pending(vc) > 0;
            }
            let pick = s.choose(&eligible);
            prop_assert_eq!(pick, Some((round + 1) % n_vcs));
            s.on_service(pick.unwrap());
        }
    }

    /// Stream workloads conserve frame bytes: the flits of each frame's
    /// messages sum to the frame size in flits.
    #[test]
    fn stream_messages_cover_frames(seed in 0u64..500) {
        use traffic::{RealTimeStream, StreamClass, WorkloadSpec};
        let spec = WorkloadSpec::paper_default();
        let mut s = RealTimeStream::new(
            &spec,
            StreamClass::Vbr,
            StreamId(0),
            NodeId(0),
            NodeId(1),
            VcId(0),
            VcId(1),
            Cycles(0),
        );
        let mut rng = SimRng::seed_from(seed);
        let mut next_id = 0u64;
        // Walk two full frames.
        for _ in 0..2 {
            let first = s.next_message(&mut rng, &mut next_id);
            let msgs = first.flits.head().msgs_in_frame;
            let mut flits = first.flits.len() as u32;
            for _ in 1..msgs {
                let m = s.next_message(&mut rng, &mut next_id);
                prop_assert_eq!(m.flits.head().frame, first.flits.head().frame);
                flits += m.flits.len() as u32;
            }
            // Full messages except possibly the last.
            prop_assert!(flits > (msgs - 1) * spec.msg_flits);
            prop_assert!(flits <= msgs * spec.msg_flits);
        }
    }

    /// Histogram percentiles agree with the exact sorted-sample quantile
    /// to within one bucket width for in-range samples. Both sides use
    /// the same rank convention (`ceil(p/100 · n)`, clamped to at least
    /// rank 1), so the bucket's linear interpolation is the only source
    /// of error.
    #[test]
    fn histogram_percentile_matches_exact_quantile(
        xs in proptest::collection::vec(0.0f64..100.0, 1..400),
        buckets in 1usize..200,
        p in 0.0f64..100.0,
    ) {
        use netsim::Histogram;
        let mut h = Histogram::new(0.0, 100.0, buckets);
        for &x in &xs {
            h.record(x);
        }
        let mut sorted = xs.clone();
        sorted.sort_by(f64::total_cmp);
        let rank = ((p / 100.0 * sorted.len() as f64).ceil().max(1.0) as usize).min(sorted.len());
        let exact = sorted[rank - 1];
        let width = 100.0 / buckets as f64;
        let approx = h.percentile(p);
        prop_assert!(
            (approx - exact).abs() <= width + 1e-9,
            "p{p}: histogram {approx} vs exact {exact} (bucket width {width})"
        );
        // The extremes bracket the samples: p0 at or below the minimum's
        // bucket ceiling, p100 at or above the maximum.
        prop_assert!(h.percentile(100.0) + 1e-9 >= exact.min(*sorted.last().unwrap()));
    }

    /// Out-of-range samples clamp percentiles to the histogram bounds
    /// instead of extrapolating.
    #[test]
    fn histogram_percentile_clamps_out_of_range(
        below in 1usize..20,
        above in 1usize..20,
    ) {
        use netsim::Histogram;
        let mut h = Histogram::new(0.0, 10.0, 16);
        for _ in 0..below {
            h.record(-5.0);
        }
        for _ in 0..above {
            h.record(25.0);
        }
        prop_assert_eq!(h.underflow(), below as u64);
        prop_assert_eq!(h.overflow(), above as u64);
        prop_assert_eq!(h.percentile(0.0).to_bits(), 0.0f64.to_bits());
        prop_assert_eq!(h.percentile(100.0).to_bits(), 10.0f64.to_bits());
    }
}

// The simulation properties below drive full cycle-accurate networks, so
// each case costs real wall-clock time; the case count is capped.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// `Network::run_until`'s idle-cycle jump must be unobservable: the
    /// oracle, which steps an identically-built network cycle by cycle
    /// (`run_until_reference`), reaches the same end state (deliveries,
    /// jitter summary, best-effort latency) bit for bit at the
    /// mostly-idle low end of the load range, where the driver jumps.
    /// The jumped-over cycles have no component able to act, so nothing
    /// can happen in them.
    #[test]
    fn idle_jump_matches_exhaustive_stepping(
        seed in 0u64..1_000_000,
        load_pct in 10u32..45,
    ) {
        use mediaworm::{Network, RouterConfig};
        use topo::Topology;
        use traffic::{StreamClass, WorkloadBuilder};

        let build = || {
            WorkloadBuilder::new(8, VcPartition::from_mix(16, 80.0, 20.0))
                .load(f64::from(load_pct) / 100.0)
                .mix(80.0, 20.0)
                .real_time_class(StreamClass::Vbr)
                .seed(seed)
                .build()
        };
        let topology = Topology::single_switch(8);
        let cfg = RouterConfig::default();
        let mut jumped = Network::new(&topology, build(), &cfg);
        let mut naive = Network::new(&topology, build(), &cfg);
        let tb = jumped.timebase();
        let warmup = tb.cycles_from_ms(2.0);
        let end = tb.cycles_from_ms(8.0);
        jumped.set_warmup_end(warmup);
        naive.set_warmup_end(warmup);
        jumped.run_until(end);
        naive.run_until_reference(end);

        prop_assert_eq!(jumped.injected_msgs(), naive.injected_msgs());
        prop_assert_eq!(jumped.delivered_msgs(), naive.delivered_msgs());
        prop_assert_eq!(jumped.delivered_flits(), naive.delivered_flits());
        prop_assert_eq!(jumped.flits_in_flight(), naive.flits_in_flight());
        let (j, n) = (jumped.delivery().summary(), naive.delivery().summary());
        prop_assert_eq!(j.intervals, n.intervals);
        prop_assert_eq!(j.frames, n.frames);
        prop_assert_eq!(j.mean_ms.to_bits(), n.mean_ms.to_bits());
        prop_assert_eq!(j.std_ms.to_bits(), n.std_ms.to_bits());
        prop_assert_eq!(j.max_ms.to_bits(), n.max_ms.to_bits());
        prop_assert_eq!(j.p99_ms.to_bits(), n.p99_ms.to_bits());
        prop_assert_eq!(jumped.latency().count(), naive.latency().count());
        prop_assert_eq!(
            jumped.latency().mean_us().to_bits(),
            naive.latency().mean_us().to_bits()
        );
        // Stepped + skipped covers the run; the oracle skips nothing.
        prop_assert_eq!(jumped.skip_stats().simulated_cycles(), end.get());
        prop_assert_eq!(naive.skip_stats().cycles_stepped, end.get());
    }

    /// The occupancy-driven active sets must be unobservable: stepping
    /// with them (`run_until`) and with the oracle, which full-scans
    /// every slot on every cycle (`run_until_reference`), reaches the
    /// same end state bit for bit, for arbitrary seeds and loads across
    /// the operating range.
    #[test]
    fn active_set_stepping_matches_full_scan_reference(
        seed in 0u64..1_000_000,
        load_pct in 20u32..97,
    ) {
        use mediaworm::{Network, RouterConfig};
        use topo::Topology;
        use traffic::{StreamClass, WorkloadBuilder};

        let build = || {
            WorkloadBuilder::new(8, VcPartition::from_mix(16, 80.0, 20.0))
                .load(f64::from(load_pct) / 100.0)
                .mix(80.0, 20.0)
                .real_time_class(StreamClass::Vbr)
                .seed(seed)
                .build()
        };
        let topology = Topology::single_switch(8);
        let cfg = RouterConfig::default();
        let mut active = Network::new(&topology, build(), &cfg);
        let mut reference = Network::new(&topology, build(), &cfg);
        let tb = active.timebase();
        let warmup = tb.cycles_from_ms(2.0);
        let end = tb.cycles_from_ms(8.0);
        active.set_warmup_end(warmup);
        reference.set_warmup_end(warmup);
        active.run_until(end);
        reference.run_until_reference(end);

        prop_assert_eq!(active.injected_msgs(), reference.injected_msgs());
        prop_assert_eq!(active.delivered_msgs(), reference.delivered_msgs());
        prop_assert_eq!(active.delivered_flits(), reference.delivered_flits());
        prop_assert_eq!(active.flits_in_flight(), reference.flits_in_flight());
        prop_assert_eq!(active.counters(), reference.counters());
        let (a, r) = (active.delivery().summary(), reference.delivery().summary());
        prop_assert_eq!(a.intervals, r.intervals);
        prop_assert_eq!(a.frames, r.frames);
        prop_assert_eq!(a.mean_ms.to_bits(), r.mean_ms.to_bits());
        prop_assert_eq!(a.std_ms.to_bits(), r.std_ms.to_bits());
        prop_assert_eq!(a.max_ms.to_bits(), r.max_ms.to_bits());
        prop_assert_eq!(a.p99_ms.to_bits(), r.p99_ms.to_bits());
        prop_assert_eq!(active.latency().count(), reference.latency().count());
        prop_assert_eq!(
            active.latency().mean_us().to_bits(),
            reference.latency().mean_us().to_bits()
        );
        // Stepped + skipped covers the run on both drivers; the oracle
        // skips nothing.
        prop_assert_eq!(active.skip_stats().simulated_cycles(), end.get());
        prop_assert_eq!(reference.skip_stats().cycles_stepped, end.get());
    }
}
