//! The delay-bound oracle vs. the simulator.
//!
//! Network calculus gives every real-time stream an analytic worst-case
//! latency (see `crates/calculus` and `mediaworm::bounds`); the simulator
//! measures what actually happened. `observed ≤ bound` must hold on every
//! healthy run — and, just as importantly, must *fail* when the fabric is
//! sabotaged, which the credit-starvation mutation test proves. A bound
//! oracle that can't catch a broken network isn't checking anything.

use flitnet::VcPartition;
use mediaworm::{sim, BoundsOracle, Network, RouterConfig, SchedulerKind, SimOpts, SimOutcome};
use topo::Topology;
use traffic::{PolicingMode, StreamClass, Workload, WorkloadBuilder};

/// All the rate-isolating disciplines (FIFO is the deliberate outlier:
/// with unregulated best-effort cross traffic it has no bound at all).
const ISOLATING: [SchedulerKind; 5] = [
    SchedulerKind::VirtualClock,
    SchedulerKind::Wfq,
    SchedulerKind::Scfq,
    SchedulerKind::Drr,
    SchedulerKind::RoundRobin,
];

fn cbr_workload(load: f64, seed: u64) -> Workload {
    WorkloadBuilder::new(8, VcPartition::all_real_time(16))
        .load(load)
        .mix(100.0, 0.0)
        .real_time_class(StreamClass::Cbr)
        .seed(seed)
        .build()
}

fn fig3_workload(load: f64, seed: u64, policing: PolicingMode) -> Workload {
    WorkloadBuilder::new(8, VcPartition::from_mix(16, 80.0, 20.0))
        .load(load)
        .mix(80.0, 20.0)
        .real_time_class(StreamClass::Vbr)
        .policing(policing)
        .seed(seed)
        .build()
}

/// Runs `workload` on the fig. 3 switch for 5 + 15 ms with the delay-bound
/// audit on.
fn run_bounded(workload: Workload, cfg: &RouterConfig) -> SimOutcome {
    sim::run_with(
        &Topology::single_switch(8),
        workload,
        cfg,
        0.005,
        0.015,
        SimOpts::standard().bounds(),
        None,
    )
    .expect("the single switch is feedforward")
}

/// CBR without policing is the `guaranteed` case: the envelope is the
/// generator's literal schedule, so a violation falsifies the simulator.
/// Every isolating scheduler at a mid and a high fig. 3 load must come
/// back clean.
#[test]
fn cbr_bounds_hold_for_every_isolating_scheduler() {
    for kind in ISOLATING {
        for &load in &[0.6, 0.9] {
            let out = run_bounded(
                cbr_workload(load, 42),
                &RouterConfig::default().scheduler(kind),
            );
            let report = out.bounds.expect("bounds audit requested");
            let what = format!("{kind:?} load {load}");
            assert!(out.delivered_msgs > 0, "{what}: traffic must flow");
            assert!(
                report.streams.iter().all(|s| s.guaranteed),
                "{what}: CBR without policing is a provable envelope"
            );
            assert!(
                report.streams.iter().any(|s| s.bound_cycles.is_some()),
                "{what}: the analysis must bound some streams"
            );
            assert!(
                report.violations.is_empty(),
                "{what}: observed must stay under the bound: {:?}",
                report.violations
            );
            // The bound is an upper bound, not an estimate: whenever both
            // sides exist, tightness stays in (0, 1].
            for s in &report.streams {
                if let Some(t) = s.tightness() {
                    assert!(
                        t > 0.0 && t <= 1.0,
                        "{what}: stream {} tightness {t} outside (0, 1]",
                        s.stream
                    );
                }
            }
        }
    }
}

/// The fig. 3 mixed workload (VBR 80:20 with best-effort) across the
/// policing ablation. VBR streams are modelled by their negotiated
/// envelope (`guaranteed: false`), and the bounds still hold empirically
/// with room to spare.
#[test]
fn fig3_mixed_bounds_hold_across_policing_modes() {
    for mode in PolicingMode::ALL {
        let out = run_bounded(fig3_workload(0.9, 42, mode), &RouterConfig::default());
        let report = out.bounds.expect("bounds audit requested");
        assert!(out.delivered_msgs > 0, "policing {mode}: traffic must flow");
        assert!(
            report.streams.iter().any(|s| s.bound_cycles.is_some()),
            "policing {mode}: Virtual Clock must bound the VBR streams"
        );
        assert_eq!(
            report.guaranteed_violations().count(),
            0,
            "policing {mode}: no provable-envelope violations"
        );
        assert!(
            report.violations.is_empty(),
            "policing {mode}: VBR bounds expected to hold empirically: {:?}",
            report.violations
        );
    }
}

/// FIFO offers real-time traffic no isolation from best-effort floods:
/// with 8 nodes of unregulated cross traffic every port can saturate, so
/// the analysis must refuse to produce a number at all.
#[test]
fn fifo_with_best_effort_has_no_finite_bounds() {
    let out = run_bounded(
        fig3_workload(0.9, 42, PolicingMode::Off),
        &RouterConfig::default().scheduler(SchedulerKind::Fifo),
    );
    let report = out.bounds.expect("bounds audit requested");
    assert!(
        report.streams.iter().all(|s| s.bound_cycles.is_none()),
        "FIFO + unregulated best-effort must be unbounded"
    );
    assert!(report.violations.is_empty(), "no bound, nothing to violate");
}

/// The mutation test: sabotage flow control and the oracle must fire.
/// Zeroing the credits of one ejection-port VC before any traffic flows
/// starves it forever (endpoints never return credits), so messages
/// routed there are never delivered. A max-latency check alone would
/// vacuously pass — the stuck-message check is what catches it.
#[test]
fn credit_starvation_trips_the_oracle() {
    let topology = Topology::single_switch(8);
    let cfg = RouterConfig::default();
    // Low load so every stream gets a finite bound (no saturated VCs).
    let wl = || cbr_workload(0.2, 7);

    let oracle = BoundsOracle::new(&topology, &wl(), &cfg).expect("feedforward");
    assert!(
        oracle.bounds().iter().all(|b| b.bound_cycles.is_some()),
        "low-load CBR must be fully bounded"
    );
    let infos = wl().stream_infos().to_vec();
    let victim = infos[0];
    let (router, port) = topology.attachment(victim.dest);

    // Healthy control: same run, no sabotage, audit comes back clean.
    // CBR streams stagger their first frame across the 33 ms interval,
    // so the run must cover at least one full interval for the victim
    // stream to inject at all.
    let mut healthy = Network::new(&topology, wl(), &cfg);
    let end = healthy.timebase().cycles_from_secs(0.04);
    healthy.run_until(end);
    let clean = oracle.report(&healthy, end);
    assert!(
        clean.violations.is_empty(),
        "healthy fabric must audit clean: {:?}",
        clean.violations
    );

    // Mutant: the victim stream's ejection VC never has credits.
    let mut broken = Network::new(&topology, wl(), &cfg);
    broken.inject_credit_starvation(router, port, victim.vc_out);
    broken.run_until(end);
    let report = oracle.report(&broken, end);
    let stuck: Vec<_> = report
        .violations
        .iter()
        .filter(|v| v.kind == mediaworm::BoundViolationKind::Stuck)
        .collect();
    assert!(
        !stuck.is_empty(),
        "starved fabric must produce stuck-message violations"
    );
    assert!(
        stuck.iter().any(|v| v.guaranteed),
        "the starved CBR streams are guaranteed — their violation is load-bearing"
    );
    // Output VCs are allocated dynamically (vc_out is a preference), so
    // the stranded worm is whichever stream's message claimed the starved
    // VC — but it must be one routed to the sabotaged ejection port.
    assert!(
        stuck
            .iter()
            .any(|v| infos[v.stream as usize].dest == victim.dest),
        "a stream routed to the starved port must be among the violations: {stuck:?}"
    );
}

/// The audit's observation state (per-stream latency statistics and the
/// outstanding-message FIFOs) lives in the snapshot: a run restored from
/// a mid-run checkpoint must produce the byte-identical report.
#[test]
fn bounds_observations_survive_snapshot_round_trip() {
    let topology = Topology::single_switch(8);
    let cfg = RouterConfig::default();
    let wl = || cbr_workload(0.6, 11);
    let oracle = BoundsOracle::new(&topology, &wl(), &cfg).expect("feedforward");

    let mut full = Network::new(&topology, wl(), &cfg);
    let tb = full.timebase();
    let warmup = tb.cycles_from_secs(0.0005);
    let mid = tb.cycles_from_secs(0.002);
    let end = tb.cycles_from_secs(0.004);
    full.set_warmup_end(warmup);
    full.run_until(end);
    assert!(
        full.rt_latency_stats().iter().any(|s| s.count() > 0),
        "the run must measure real-time latencies"
    );

    let mut pre = Network::new(&topology, wl(), &cfg);
    pre.set_warmup_end(warmup);
    pre.run_until(mid);
    let bytes = pre.snapshot();

    let mut post = Network::new(&topology, wl(), &cfg);
    post.restore(&bytes).expect("restore");
    post.run_until(end);

    assert!(
        full.snapshot() == post.snapshot(),
        "end-of-run snapshots (including audit state) must be identical"
    );
    let a = oracle.report(&full, end).to_json().to_string();
    let b = oracle.report(&post, end).to_json().to_string();
    assert_eq!(a, b, "restored run must reproduce the same bounds report");
}
