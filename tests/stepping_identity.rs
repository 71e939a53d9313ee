//! The fast driver vs. the oracle.
//!
//! The fast driver (`Network::run_until`: occupancy-driven active sets
//! plus quiescence-horizon jumps) must be *bit-identical* to the oracle
//! (`Network::run_until_reference`), which steps every cycle and scans
//! every slot, with the same audit and watchdog: the active lists are
//! iterated in the exact order the full scans visit the same slots and
//! every skipped cycle is one in which nothing could act, so every
//! arbitration, every counter increment, every float accumulation and
//! every trace byte must match. These tests pin that contract over the
//! fig. 3 operating range, multi-hop topologies up to the 8x8 mesh, both
//! crossbar kinds, the audited torus, and the deadlock-prone ring (the
//! stall report and its waits-for graph must classify identically).

use flitnet::VcPartition;
use mediaworm::{
    sim, CrossbarKind, Network, RouterConfig, SchedulerKind, SimOpts, SimOutcome, WatchdogConfig,
};
use netsim::{Cycles, JsonlSink, NoopSink};
use proptest::prelude::*;
use topo::Topology;
use traffic::{PolicingMode, StreamClass, Workload, WorkloadBuilder, WorkloadSpec};

/// The fig. 3 load grid (fractions of link bandwidth).
const LOADS: [f64; 5] = [0.6, 0.7, 0.8, 0.9, 0.96];

/// Every discipline in the scheduler zoo, for identity grids that must
/// cover them all.
const ZOO: [SchedulerKind; 6] = [
    SchedulerKind::VirtualClock,
    SchedulerKind::Fifo,
    SchedulerKind::RoundRobin,
    SchedulerKind::Wfq,
    SchedulerKind::Drr,
    SchedulerKind::Scfq,
];

fn fig3_policed(load: f64, seed: u64, policing: PolicingMode) -> Workload {
    WorkloadBuilder::new(8, VcPartition::from_mix(16, 80.0, 20.0))
        .load(load)
        .mix(80.0, 20.0)
        .real_time_class(StreamClass::Vbr)
        .policing(policing)
        .seed(seed)
        .build()
}

fn fig3_workload(load: f64, seed: u64) -> Workload {
    fig3_policed(load, seed, PolicingMode::Off)
}

/// One `sim::run_with` run with no checkpoint and no trace.
fn run_point(
    topology: &Topology,
    workload: Workload,
    cfg: &RouterConfig,
    warmup_secs: f64,
    measure_secs: f64,
    opts: SimOpts,
) -> SimOutcome {
    sim::run_with(
        topology,
        workload,
        cfg,
        warmup_secs,
        measure_secs,
        opts,
        None,
        &mut NoopSink,
    )
    .expect("run")
}

/// [`run_point`] recording a JSONL flit-event trace.
fn run_point_traced(
    topology: &Topology,
    workload: Workload,
    cfg: &RouterConfig,
    warmup_secs: f64,
    measure_secs: f64,
    opts: SimOpts,
) -> (SimOutcome, Vec<u8>) {
    let mut sink = JsonlSink::new();
    let out = sim::run_with(
        topology,
        workload,
        cfg,
        warmup_secs,
        measure_secs,
        opts,
        None,
        &mut sink,
    )
    .expect("traced run");
    (out, sink.into_bytes())
}

/// Every observable of the two outcomes must match, floats bit-for-bit.
fn assert_outcomes_identical(fast: &SimOutcome, slow: &SimOutcome, what: &str) {
    assert_eq!(fast.injected_msgs, slow.injected_msgs, "{what}: injected");
    assert_eq!(
        fast.delivered_msgs, slow.delivered_msgs,
        "{what}: delivered"
    );
    assert_eq!(fast.counters, slow.counters, "{what}: telemetry counters");
    assert_eq!(fast.stall, slow.stall, "{what}: stall classification");
    assert_eq!(
        fast.audit_violations, slow.audit_violations,
        "{what}: audit violations"
    );
    assert_eq!(
        fast.jitter.mean_ms.to_bits(),
        slow.jitter.mean_ms.to_bits(),
        "{what}: jitter mean"
    );
    assert_eq!(
        fast.jitter.std_ms.to_bits(),
        slow.jitter.std_ms.to_bits(),
        "{what}: jitter std"
    );
    assert_eq!(
        fast.jitter.p99_ms.to_bits(),
        slow.jitter.p99_ms.to_bits(),
        "{what}: jitter p99"
    );
    assert_eq!(
        fast.be_mean_latency_us.to_bits(),
        slow.be_mean_latency_us.to_bits(),
        "{what}: best-effort latency"
    );
    assert_eq!(fast.be_msgs, slow.be_msgs, "{what}: best-effort count");
    assert_eq!(
        fast.in_flight_at_end, slow.in_flight_at_end,
        "{what}: in flight at end"
    );
}

/// Steps two identically built bare fig. 3 switches (no audit or
/// watchdog, so end snapshots compare byte for byte) to `end_secs`, one
/// with the fast driver and one with the every-cycle oracle, and asserts
/// they match. `wire64` selects the wire-dominated switch (64-cycle
/// links, 4-flit buffers). With `must_skip` the fast driver must actually
/// skip cycles: otherwise the identity is vacuous and the horizon has
/// silently stopped paying off.
fn assert_fig3_point_matches_oracle(
    kind: SchedulerKind,
    wire64: bool,
    load: f64,
    mode: PolicingMode,
    (warmup, end_secs): (f64, f64),
    must_skip: bool,
) {
    let topology = Topology::single_switch(8);
    let label = if wire64 { "wire64" } else { "table1" };
    let what = format!("{kind:?} {label} load {load} policing {mode}");
    let mut cfg = RouterConfig::default().scheduler(kind);
    if wire64 {
        cfg = cfg.link_latency(64).buf_flits(4);
    }
    let build = || {
        let mut net = Network::new(&topology, fig3_policed(load, 42, mode), &cfg);
        net.set_warmup_end(net.timebase().cycles_from_secs(warmup));
        net
    };
    let mut fast = build();
    let mut oracle = build();
    let end = fast.timebase().cycles_from_secs(end_secs);
    fast.run_until(end);
    oracle.run_until_reference(end);
    assert!(fast.delivered_msgs() > 0, "{what}: traffic must flow");
    assert_networks_identical(&fast, &oracle, &what);
    let skip = fast.skip_stats();
    assert_eq!(
        skip.simulated_cycles(),
        end.get(),
        "{what}: stepped + skipped must cover the whole run"
    );
    assert_eq!(
        oracle.skip_stats().cycles_stepped,
        end.get(),
        "{what}: the oracle steps every cycle"
    );
    if must_skip {
        assert!(
            skip.cycles_skipped > 0,
            "{what}: a skippable point must skip cycles"
        );
        assert!(skip.horizon_jumps > 0, "{what}: jumps must be counted");
    }
}

/// The fast driver vs. the oracle over the paper's fig. 3 load grid
/// under Virtual Clock and FIFO, over the fig. 3 windows (10 ms warm-up,
/// 40 ms end).
#[test]
fn fig3_load_grid_is_bit_identical_to_reference() {
    for kind in [SchedulerKind::VirtualClock, SchedulerKind::Fifo] {
        for &load in &LOADS {
            assert_fig3_point_matches_oracle(
                kind,
                false,
                load,
                PolicingMode::Off,
                (0.01, 0.04),
                false,
            );
        }
    }
}

/// The horizon-skipping driver vs. the every-cycle oracle over the
/// fig. 3 switch at a low-, mid- and saturation-load point, under every
/// policing mode, plus the `wire64` switch at load 0.05, each over a few
/// milliseconds. At the low-load, shaped and `wire64` points the driver
/// must actually skip cycles.
#[test]
fn horizon_skipping_matches_exhaustive_on_fig3_grid() {
    for &load in &[0.3, 0.6, 0.96] {
        for mode in PolicingMode::ALL {
            let must_skip = load <= 0.3 || mode == PolicingMode::Shape;
            assert_fig3_point_matches_oracle(
                SchedulerKind::VirtualClock,
                false,
                load,
                mode,
                (0.0, 0.003),
                must_skip,
            );
        }
    }
    assert_fig3_point_matches_oracle(
        SchedulerKind::VirtualClock,
        true,
        0.05,
        PolicingMode::Off,
        (0.0, 0.005),
        true,
    );
}

/// The new disciplines (round-robin, WFQ, DRR, SCFQ) crossed with NI
/// policing must be bit-identical on the memoized fast path and the
/// unmemoized full-scan reference — same contract the Virtual Clock and
/// FIFO grid above enforces.
#[test]
fn scheduler_zoo_and_policing_are_bit_identical_to_reference() {
    let topology = Topology::single_switch(8);
    for kind in [
        SchedulerKind::RoundRobin,
        SchedulerKind::Wfq,
        SchedulerKind::Drr,
        SchedulerKind::Scfq,
    ] {
        let cfg = RouterConfig::default().scheduler(kind);
        for mode in PolicingMode::ALL {
            let what = format!("{kind:?} policing {mode}");
            let fast = run_point(
                &topology,
                fig3_policed(0.9, 42, mode),
                &cfg,
                0.005,
                0.015,
                SimOpts::standard(),
            );
            let slow = run_point(
                &topology,
                fig3_policed(0.9, 42, mode),
                &cfg,
                0.005,
                0.015,
                SimOpts::standard().reference(),
            );
            assert!(fast.delivered_msgs > 0, "{what}: traffic must flow");
            assert_outcomes_identical(&fast, &slow, &what);
        }
    }
}

/// Every zoo discipline survives a mid-run snapshot/restore: the
/// restored run must land on the same counters and a byte-equal
/// end-of-run snapshot as the uninterrupted one. Shape policing rides
/// along so the token buckets' state is exercised too.
#[test]
fn scheduler_zoo_survives_mid_run_snapshot_restore() {
    let topology = Topology::single_switch(8);
    for kind in ZOO {
        for mode in [PolicingMode::Off, PolicingMode::Shape] {
            let what = format!("{kind:?} policing {mode}");
            let cfg = RouterConfig::default().scheduler(kind);
            let mut full = Network::new(&topology, fig3_policed(0.9, 42, mode), &cfg);
            let tb = full.timebase();
            let warmup = tb.cycles_from_secs(0.001);
            let mid = tb.cycles_from_secs(0.004);
            let end = tb.cycles_from_secs(0.008);
            full.set_warmup_end(warmup);
            full.run_until(end);
            assert!(full.delivered_msgs() > 0, "{what}: traffic must flow");

            let mut pre = Network::new(&topology, fig3_policed(0.9, 42, mode), &cfg);
            pre.set_warmup_end(warmup);
            pre.run_until(mid);
            let bytes = pre.snapshot();

            let mut post = Network::new(&topology, fig3_policed(0.9, 42, mode), &cfg);
            post.restore(&bytes).expect("restore");
            post.run_until(end);
            assert_eq!(
                full.injected_msgs(),
                post.injected_msgs(),
                "{what}: injected"
            );
            assert_eq!(full.counters(), post.counters(), "{what}: counters");
            assert!(
                full.snapshot() == post.snapshot(),
                "{what}: end-of-run snapshots differ"
            );
        }
    }
}

#[test]
fn full_crossbar_is_bit_identical_to_reference() {
    let topology = Topology::single_switch(8);
    let cfg = RouterConfig::default().crossbar(CrossbarKind::Full);
    for &load in &[0.7, 0.96] {
        let fast = run_point(
            &topology,
            fig3_workload(load, 11),
            &cfg,
            0.01,
            0.03,
            SimOpts::standard(),
        );
        let slow = run_point(
            &topology,
            fig3_workload(load, 11),
            &cfg,
            0.01,
            0.03,
            SimOpts::standard().reference(),
        );
        assert_outcomes_identical(&fast, &slow, &format!("full crossbar load {load}"));
    }
}

#[test]
fn fat_mesh_multi_hop_is_bit_identical_to_reference() {
    let topology = Topology::fat_mesh(2, 2, 2, 4);
    let wl = |seed| {
        WorkloadBuilder::new(16, VcPartition::from_mix(16, 80.0, 20.0))
            .load(0.5)
            .mix(80.0, 20.0)
            .real_time_class(StreamClass::Vbr)
            .seed(seed)
            .build()
    };
    let cfg = RouterConfig::default();
    let fast = run_point(&topology, wl(5), &cfg, 0.01, 0.03, SimOpts::standard());
    let slow = run_point(
        &topology,
        wl(5),
        &cfg,
        0.01,
        0.03,
        SimOpts::standard().reference(),
    );
    assert!(fast.delivered_msgs > 0);
    assert_outcomes_identical(&fast, &slow, "fat mesh");
}

#[test]
fn traces_are_bit_identical_to_reference() {
    let topology = Topology::single_switch(8);
    let cfg = RouterConfig::default();
    for &load in &[0.6, 0.96] {
        let (fast, fast_trace) = run_point_traced(
            &topology,
            fig3_workload(load, 42),
            &cfg,
            0.005,
            0.01,
            SimOpts::standard(),
        );
        let (slow, slow_trace) = run_point_traced(
            &topology,
            fig3_workload(load, 42),
            &cfg,
            0.005,
            0.01,
            SimOpts::standard().reference(),
        );
        assert!(!fast_trace.is_empty(), "traced run must produce events");
        assert_eq!(
            fast_trace, slow_trace,
            "load {load}: trace bytes must match"
        );
        assert_outcomes_identical(&fast, &slow, &format!("traced load {load}"));
    }
}

#[test]
fn audited_run_is_bit_identical_to_reference() {
    // The audit sweep recomputes the active sets from scratch every
    // interval (`ActiveSetDesync`), so an audited identity run doubles as
    // a continuous consistency check of the incremental state.
    let topology = Topology::single_switch(8);
    let cfg = RouterConfig::default();
    let fast = run_point(
        &topology,
        fig3_workload(0.9, 17),
        &cfg,
        0.01,
        0.03,
        SimOpts::audited(),
    );
    let slow = run_point(
        &topology,
        fig3_workload(0.9, 17),
        &cfg,
        0.01,
        0.03,
        SimOpts::audited().reference(),
    );
    assert_eq!(
        fast.audit_violations, 0,
        "optimized stepping must audit clean"
    );
    assert_outcomes_identical(&fast, &slow, "audited load 0.9");
}

/// A small multi-hop workload for the multi-router grids: `nodes`
/// endpoints, 4 VCs split 2+2 (the torus dateline rule needs two VCs
/// per populated class), 80:20 VBR traffic mix.
fn grid_workload(nodes: usize, load: f64, seed: u64) -> Workload {
    grid_workload_policed(nodes, load, seed, PolicingMode::Off)
}

/// [`grid_workload`] with NI policing applied to the real-time streams.
fn grid_workload_policed(nodes: usize, load: f64, seed: u64, policing: PolicingMode) -> Workload {
    WorkloadBuilder::new(nodes, VcPartition::from_mix(4, 50.0, 50.0))
        .load(load)
        .mix(80.0, 20.0)
        .real_time_class(StreamClass::Vbr)
        .policing(policing)
        .seed(seed)
        .build()
}

/// The largest network the suite steps: the 8x8 mesh (64 routers,
/// multi-hop XY worms) on the fast driver must match the oracle.
#[test]
fn mesh_8x8_is_bit_identical_to_reference() {
    let topology = Topology::mesh(8, 8, 1);
    let cfg = RouterConfig::new(4);
    let run = |opts| {
        run_point(
            &topology,
            grid_workload(64, 0.4, 7),
            &cfg,
            0.0005,
            0.003,
            opts,
        )
    };
    let fast = run(SimOpts::standard());
    let slow = run(SimOpts::standard().reference());
    assert!(fast.delivered_msgs > 0, "traffic must flow");
    assert_outcomes_identical(&fast, &slow, "mesh 8x8");
}

/// The audit's active-set conservation sweep must stay clean on the
/// dateline torus (wrap links, multi-hop credit loops), and the audited
/// fast run must match the audited oracle.
#[test]
fn audited_torus_is_bit_identical_to_reference() {
    let topology = Topology::torus(4, 4, 1);
    let cfg = RouterConfig::new(4);
    let run = |opts| {
        run_point(
            &topology,
            grid_workload(16, 0.4, 23),
            &cfg,
            0.0005,
            0.003,
            opts,
        )
    };
    let fast = run(SimOpts::audited());
    let slow = run(SimOpts::audited().reference());
    assert_eq!(fast.audit_violations, 0, "torus must audit clean");
    assert!(fast.delivered_msgs > 0, "torus traffic must flow");
    assert_outcomes_identical(&fast, &slow, "audited torus");
}

/// The deadlock-prone 1-VC clockwise ring with a stall watchdog armed.
fn deadlock_ring() -> Network {
    let topology = Topology::ring(3, 1);
    let spec = WorkloadSpec {
        msg_flits: 64,
        ..WorkloadSpec::paper_default()
    };
    let wl = WorkloadBuilder::new(3, VcPartition::all_real_time(1))
        .spec(spec)
        .load(0.9)
        .mix(100.0, 0.0)
        .real_time_class(StreamClass::Cbr)
        .seed(16)
        .build();
    let cfg = RouterConfig::new(1).buf_flits(4);
    let mut net = Network::new(&topology, wl, &cfg);
    net.enable_watchdog(WatchdogConfig {
        stall_cycles: 5_000,
    });
    net
}

#[test]
fn ring_deadlock_classification_is_identical_to_reference() {
    // The deadlock-prone 1-VC clockwise ring: both stepping modes must
    // stall at the same cycle with byte-equal stall reports (same holders,
    // same waits-for edges, same cycle membership).
    let mut fast = deadlock_ring();
    let mut slow = deadlock_ring();
    let end = fast.timebase().cycles_from_ms(500.0);
    fast.run_until(end);
    slow.run_until_reference(end);
    let fast_stall = fast.stall_report().expect("ring must deadlock");
    let slow_stall = slow.stall_report().expect("reference ring must deadlock");
    assert_eq!(fast_stall, slow_stall, "stall reports must be identical");
    assert_eq!(fast.now(), slow.now(), "both stop at the detection cycle");
    assert_eq!(fast.injected_msgs(), slow.injected_msgs());
    assert_eq!(fast.delivered_flits(), slow.delivered_flits());
    assert_eq!(fast.flits_in_flight(), slow.flits_in_flight());
    assert_eq!(fast.counters(), slow.counters());
}

/// The checkpoint/restore identity grid: on every topology, a run
/// snapshotted at `mid`, restored into a freshly built network and
/// stepped to `end` must be bit-identical — counters, metric
/// accumulators, the stitched trace bytes, and the end-of-run snapshot
/// image itself — to the uninterrupted run.
#[test]
fn checkpoint_restore_grid_is_bit_identical() {
    let cases: [(&str, Topology, usize); 3] = [
        ("mesh 8x8", Topology::mesh(8, 8, 1), 64),
        ("fat mesh 2x2", Topology::fat_mesh(2, 2, 2, 4), 16),
        ("torus 4x4", Topology::torus(4, 4, 1), 16),
    ];
    for (what, topology, nodes) in &cases {
        let cfg = RouterConfig::new(4);
        let mut full = Network::new(topology, grid_workload(*nodes, 0.4, 42), &cfg);
        let tb = full.timebase();
        let warmup = tb.cycles_from_secs(0.0005);
        let mid = tb.cycles_from_secs(0.0015);
        let end = tb.cycles_from_secs(0.0035);
        full.set_warmup_end(warmup);
        let mut full_sink = JsonlSink::new();
        full.run_until_with(end, &mut full_sink);
        assert!(full.delivered_msgs() > 0, "{what}: traffic must flow");

        let mut pre = Network::new(topology, grid_workload(*nodes, 0.4, 42), &cfg);
        pre.set_warmup_end(warmup);
        let mut pre_sink = JsonlSink::new();
        pre.run_until_with(mid, &mut pre_sink);
        let bytes = pre.snapshot();

        let mut post = Network::new(topology, grid_workload(*nodes, 0.4, 42), &cfg);
        post.restore(&bytes).expect("restore");
        let mut post_sink = JsonlSink::new();
        post.run_until_with(end, &mut post_sink);

        assert_eq!(
            full.injected_msgs(),
            post.injected_msgs(),
            "{what}: injected"
        );
        assert_eq!(
            full.delivered_flits(),
            post.delivered_flits(),
            "{what}: delivered flits"
        );
        assert_eq!(full.counters(), post.counters(), "{what}: counters");
        let mut stitched = pre_sink.into_bytes();
        stitched.extend_from_slice(&post_sink.into_bytes());
        assert!(
            stitched == full_sink.into_bytes(),
            "{what}: stitched pre+post trace differs from the uninterrupted trace"
        );
        assert!(
            full.snapshot() == post.snapshot(),
            "{what}: end-of-run snapshots differ"
        );
    }
}

/// A checkpoint taken before the watchdog trips must reproduce the same
/// deadlock at the same cycle with a byte-equal stall report after
/// restore — the waits-for analysis runs on reconstructed state.
#[test]
fn ring_deadlock_stall_report_survives_checkpoint() {
    let mut full = deadlock_ring();
    let end = full.timebase().cycles_from_ms(500.0);
    full.run_until(end);
    let full_stall = full.stall_report().expect("ring must deadlock").clone();

    let mut pre = deadlock_ring();
    let mid = pre.timebase().cycles_from_ms(1.0);
    pre.run_until(mid);
    assert!(
        pre.stall_report().is_none(),
        "checkpoint must precede the stall"
    );
    let bytes = pre.snapshot();

    let mut post = deadlock_ring();
    post.restore(&bytes).expect("restore");
    post.run_until(end);
    let post_stall = post.stall_report().expect("restored ring must deadlock");
    assert_eq!(&full_stall, post_stall, "stall reports must be identical");
    assert_eq!(full.now(), post.now(), "both stop at the detection cycle");
    assert_eq!(full.injected_msgs(), post.injected_msgs());
    assert_eq!(full.flits_in_flight(), post.flits_in_flight());
    assert_eq!(full.counters(), post.counters());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Snapshot round-trip identity holds at random seeds, loads,
    /// checkpoint cycles, topologies, scheduler disciplines and policing
    /// modes — not just the hand-picked grids
    /// above.
    #[test]
    fn snapshot_round_trip_over_random_runs(
        seed in 0u64..1000,
        load in 0.2f64..0.8,
        frac in 0.1f64..0.9,
        topo_idx in 0usize..3,
        kind_idx in 0usize..6,
        pol_idx in 0usize..3,
    ) {
        let topology = match topo_idx {
            0 => Topology::mesh(4, 4, 1),
            1 => Topology::fat_mesh(2, 2, 2, 4),
            _ => Topology::torus(4, 4, 1),
        };
        let mode = PolicingMode::ALL[pol_idx];
        let wl = |s| grid_workload_policed(16, load, s, mode);
        let cfg = RouterConfig::new(4).scheduler(ZOO[kind_idx]);
        let mut a = Network::new(&topology, wl(seed), &cfg);
        let tb = a.timebase();
        let end = tb.cycles_from_secs(0.0025);
        a.set_warmup_end(tb.cycles_from_secs(0.0005));
        let mid = Cycles((end.get() as f64 * frac) as u64);
        a.run_until(mid);
        let bytes = a.snapshot();

        let mut b = Network::new(&topology, wl(seed), &cfg);
        b.restore(&bytes).expect("restore");
        a.run_until(end);
        b.run_until(end);
        prop_assert_eq!(a.injected_msgs(), b.injected_msgs());
        prop_assert_eq!(a.delivered_flits(), b.delivered_flits());
        prop_assert_eq!(&a.counters(), &b.counters());
        prop_assert!(a.snapshot() == b.snapshot(), "end snapshots differ");
    }
}

// ---------------------------------------------------------------------------
// Quiescence-horizon time skipping.
//
// `Network::run_until` jumps the clock over any span in which no component
// can act — every router pipeline empty and every backlogged NI credit-
// blocked — not just when the network is fully drained. The skipped cycles
// must be *provably* no-ops: every observable (counters, traces, stall
// reports, snapshots) has to match `run_until_reference`, the oracle that
// steps every single cycle. These grids use bare networks (no audit or
// watchdog) so end snapshots can be compared byte-for-byte: the one
// field the drivers may legitimately differ in is the watchdog's
// last-progress cycle inside a fully drained span, which the fast driver
// records at its last stepped cycle and the oracle at every cycle. No
// trip can observe it (see the `DRAINED` sentinel in `net.rs`).

/// Every observable of two bare networks stepped to the same cycle must
/// match, including the snapshot bytes (which cover RNG streams, link
/// rings, scheduler state and metric accumulators), the jitter and
/// best-effort latency bits and the allocator diagnostics.
fn assert_networks_identical(fast: &Network, slow: &Network, what: &str) {
    assert_eq!(fast.now(), slow.now(), "{what}: clock");
    assert_eq!(
        fast.injected_msgs(),
        slow.injected_msgs(),
        "{what}: injected"
    );
    assert_eq!(
        fast.delivered_msgs(),
        slow.delivered_msgs(),
        "{what}: delivered msgs"
    );
    assert_eq!(
        fast.delivered_flits(),
        slow.delivered_flits(),
        "{what}: delivered flits"
    );
    assert_eq!(
        fast.flits_in_flight(),
        slow.flits_in_flight(),
        "{what}: flits in flight"
    );
    assert_eq!(fast.counters(), slow.counters(), "{what}: counters");
    assert_eq!(fast.alloc_diag(), slow.alloc_diag(), "{what}: alloc diag");
    let (f, s) = (fast.delivery().summary(), slow.delivery().summary());
    assert_eq!(
        (f.intervals, f.frames),
        (s.intervals, s.frames),
        "{what}: jitter counts"
    );
    for (name, a, b) in [
        ("mean", f.mean_ms, s.mean_ms),
        ("std", f.std_ms, s.std_ms),
        ("max", f.max_ms, s.max_ms),
        ("p99", f.p99_ms, s.p99_ms),
        (
            "be latency",
            fast.latency().mean_us(),
            slow.latency().mean_us(),
        ),
    ] {
        assert_eq!(a.to_bits(), b.to_bits(), "{what}: {name} bits");
    }
    assert!(
        fast.snapshot() == slow.snapshot(),
        "{what}: snapshots differ"
    );
}

/// The horizon-skipping fast driver and the every-cycle full-scan
/// oracle are one equivalence class over multi-hop topologies and every
/// policing mode.
#[test]
fn horizon_identity_grid_over_topologies_and_drivers() {
    let cases: [(&str, Topology, usize); 3] = [
        ("mesh 4x4", Topology::mesh(4, 4, 1), 16),
        ("fat mesh 2x2", Topology::fat_mesh(2, 2, 2, 4), 16),
        ("torus 4x4", Topology::torus(4, 4, 1), 16),
    ];
    for (name, topology, nodes) in &cases {
        let cfg = RouterConfig::new(4);
        for mode in PolicingMode::ALL {
            let what = format!("{name} policing {mode:?}");
            let build =
                || Network::new(topology, grid_workload_policed(*nodes, 0.3, 9, mode), &cfg);
            let mut jumped = build();
            let end = jumped.timebase().cycles_from_secs(0.002);
            jumped.run_until(end);
            assert!(jumped.delivered_msgs() > 0, "{what}: traffic must flow");

            let mut oracle = build();
            oracle.run_until_reference(end);
            assert_networks_identical(&jumped, &oracle, &what);
        }
    }
}

/// Runs one network on the fast driver and one on the every-cycle oracle
/// for `ms` milliseconds of simulated time and requires the same bits.
fn assert_fast_matches_oracle(
    what: &str,
    topology: &Topology,
    workload: impl Fn() -> Workload,
    cfg: &RouterConfig,
    ms: f64,
) {
    let mut fast = Network::new(topology, workload(), cfg);
    let end = fast.timebase().cycles_from_ms(ms);
    fast.run_until(end);
    assert!(fast.delivered_msgs() > 0, "{what}: traffic must flow");
    let mut oracle = Network::new(topology, workload(), cfg);
    oracle.run_until_reference(end);
    assert_networks_identical(&fast, &oracle, what);
}

/// Saturation coverage for the arbitration shortcuts: the O(1) reject
/// of a head whose class has no free output VC, and the skip of a head
/// that stays blocked until an output VC is released. At each point
/// heads find every candidate output VC owned, which the identity grids
/// at lighter loads rarely reach: the fig. 3 switch at 0.96 with VC
/// borrowing on (most heads block once the 33 ms VBR phase ramp is
/// over, so it runs 40 ms), and the 4×4 dateline torus and the 2×2 fat
/// mesh (two candidate ports per fat hop) at 0.9 on 4 VCs.
#[test]
fn saturated_arbitration_is_bit_identical_to_reference() {
    assert_fast_matches_oracle(
        "fig3 switch load 0.96 with borrowing",
        &Topology::single_switch(8),
        || fig3_workload(0.96, 3),
        &RouterConfig::default().vc_borrowing(true),
        40.0,
    );
    for (name, topology) in [
        ("torus 4x4 load 0.9", Topology::torus(4, 4, 1)),
        ("fat mesh 2x2 load 0.9", Topology::fat_mesh(2, 2, 2, 4)),
    ] {
        assert_fast_matches_oracle(
            name,
            &topology,
            || grid_workload(16, 0.9, 3),
            &RouterConfig::new(4),
            8.0,
        );
    }
}

/// Skipped spans must record no telemetry: the oracle steps through
/// every idle cycle, so if idle cycles ever sampled occupancy the
/// oracle would accumulate samples the jumping driver skips over. Equal
/// sample counts alongside a nonzero skip count prove skipped (and idle-
/// stepped) cycles contribute nothing.
#[test]
fn horizon_skipped_spans_record_no_occupancy_samples() {
    let topology = Topology::single_switch(8);
    let cfg = RouterConfig::default();
    let mut jumped = Network::new(&topology, fig3_policed(0.3, 11, PolicingMode::Shape), &cfg);
    let mut naive = Network::new(&topology, fig3_policed(0.3, 11, PolicingMode::Shape), &cfg);
    let end = jumped.timebase().cycles_from_secs(0.003);
    jumped.run_until(end);
    naive.run_until_reference(end);
    let skipped = jumped.skip_stats().cycles_skipped;
    assert!(skipped > 0, "shaped low-load point must skip cycles");
    let fast = jumped.counters();
    let slow = naive.counters();
    assert!(fast.occupancy_samples > 0, "busy cycles must still sample");
    assert_eq!(
        fast.occupancy_samples, slow.occupancy_samples,
        "skipped spans must not change the occupancy sample count"
    );
    assert_eq!(
        fast.occupancy_flits, slow.occupancy_flits,
        "skipped spans must not change the sampled occupancy sum"
    );
}

/// A checkpoint taken *inside* a skipped span must behave exactly like
/// one taken on a stepped cycle: the restored network re-snapshots to the
/// same bytes, and resuming both the original and the restored copy lands
/// them in identical end states. The interrupt cycle is asserted idle so
/// the test really does land mid-jump rather than on a busy cycle.
#[test]
fn snapshot_mid_jump_round_trips_bit_identically() {
    let topology = Topology::single_switch(8);
    let cfg = RouterConfig::default();
    let wl = |s| fig3_policed(0.3, s, PolicingMode::Shape);
    let mut a = Network::new(&topology, wl(5), &cfg);
    let tb = a.timebase();
    let end = tb.cycles_from_secs(0.003);
    // An odd interrupt cycle partway through the run: at 30% shaped load
    // most cycles sit inside inter-message gaps the driver jumps over.
    let mid = Cycles(tb.cycles_from_secs(0.00137).get() | 1);
    a.run_until(mid);
    assert_eq!(a.now(), mid, "jump must clamp exactly at the target");
    assert_eq!(
        a.flits_in_flight(),
        0,
        "interrupt cycle must fall in an idle span (inside a jump)"
    );
    assert!(
        a.skip_stats().cycles_skipped > 0,
        "the run up to the checkpoint must have skipped cycles"
    );

    let bytes = a.snapshot();
    let mut b = Network::new(&topology, wl(5), &cfg);
    b.restore(&bytes).expect("restore");
    assert!(
        b.snapshot() == bytes,
        "restored network must re-snapshot to the same bytes"
    );

    a.run_until(end);
    b.run_until(end);
    assert_networks_identical(&a, &b, "resumed original vs restored");

    // And the interrupted run must match an uninterrupted one.
    let mut c = Network::new(&topology, wl(5), &cfg);
    c.run_until(end);
    assert_networks_identical(&a, &c, "interrupted vs uninterrupted");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Horizon-vs-oracle identity holds at random seeds, loads,
    /// scheduler disciplines, policing modes and topologies — not just
    /// the hand-picked grids above.
    #[test]
    fn horizon_identity_over_random_runs(
        seed in 0u64..1000,
        load in 0.1f64..0.8,
        topo_idx in 0usize..3,
        kind_idx in 0usize..6,
        pol_idx in 0usize..3,
    ) {
        let topology = match topo_idx {
            0 => Topology::mesh(4, 4, 1),
            1 => Topology::fat_mesh(2, 2, 2, 4),
            _ => Topology::torus(4, 4, 1),
        };
        let mode = PolicingMode::ALL[pol_idx];
        let cfg = RouterConfig::new(4).scheduler(ZOO[kind_idx]);
        let wl = |s| grid_workload_policed(16, load, s, mode);
        let mut jumped = Network::new(&topology, wl(seed), &cfg);
        let mut naive = Network::new(&topology, wl(seed), &cfg);
        let end = jumped.timebase().cycles_from_secs(0.002);
        jumped.run_until(end);
        naive.run_until_reference(end);
        prop_assert_eq!(jumped.now(), naive.now());
        prop_assert_eq!(jumped.injected_msgs(), naive.injected_msgs());
        prop_assert_eq!(jumped.delivered_flits(), naive.delivered_flits());
        prop_assert_eq!(&jumped.counters(), &naive.counters());
        prop_assert!(jumped.snapshot() == naive.snapshot(), "snapshots differ");
        // Stepped + skipped must cover the whole run.
        prop_assert_eq!(jumped.skip_stats().simulated_cycles(), end.get());
    }
}

/// The deadlock watchdog must fire at the same cycle with a byte-equal
/// stall report whether or not the driver jumps: the watchdog deadline
/// (`last_progress_at + stall_cycles`) is a horizon term, so the ring's
/// check cycle gets stepped, not skipped. The oracle runs the same
/// watchdog while stepping every cycle; the fast driver must have jumped
/// over part of the run, or the comparison proves nothing about skipping.
#[test]
fn horizon_jumps_preserve_deadlock_detection() {
    let mut jumped = deadlock_ring();
    let mut oracle = deadlock_ring();
    let end = jumped.timebase().cycles_from_ms(500.0);
    jumped.run_until(end);
    oracle.run_until_reference(end);
    let fast = jumped.stall_report().expect("jumping ring must deadlock");
    let slow = oracle.stall_report().expect("oracle ring must deadlock");
    assert_eq!(fast, slow, "stall reports must be identical");
    assert_eq!(
        jumped.now(),
        oracle.now(),
        "both stop at the detection cycle"
    );
    assert_eq!(jumped.counters(), oracle.counters());
    let skip = jumped.skip_stats();
    assert!(skip.cycles_skipped > 0, "the ring run must skip cycles");
    assert_eq!(skip.simulated_cycles(), jumped.now().get());
    assert_eq!(oracle.skip_stats().cycles_stepped, oracle.now().get());
}
