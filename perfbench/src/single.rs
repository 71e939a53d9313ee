//! The single-network workloads.
//!
//! A run builds a few networks of the same configuration, each from its
//! own workload seed derived from `--seed`, so that one unlucky VBR trace
//! does not set the figure. Set-up of all of them is timed several times
//! (the median is `setup_s`); each network is then warmed past the VBR
//! phase ramp and snapshotted. A measured round restores a fresh network
//! from every warm image and steps the same window of simulated cycles in
//! fixed strides, so every round repeats the exact same simulated work
//! and must end in the exact same states. Every timed span is corrected
//! to the nominal host speed by the reference in `calib`.

use std::hint::black_box;
use std::time::Instant;

use flitnet::Flit;
use mediaworm::{BoundsOracle, NetCounters, Network, RouterConfig, SchedulerKind, WatchdogConfig};
use mediaworm_bench::sweep::derive_seed;
use mediaworm_bench::Point;
use netsim::{Calendar, Cycles};
use topo::Topology;
use traffic::{PolicingMode, Workload};

use crate::calib::Reference;
use crate::report::{self, median, percentile, Fnv, Report, Tracer};
use crate::{layers, sweep};

/// Simulated warm-up: 40 ms, past the 33 ms frame interval inside which
/// every VBR stream starts at a random phase.
pub const WARM_MS: f64 = 40.0;

/// Measured rounds per run, at the least (the rest fill `--seconds`).
const MIN_ROUNDS: usize = 3;

/// Set-up repetitions before the warm-up: at least this many, more
/// while the budget lasts. Every measured round adds one more, so the
/// median samples the whole run.
const SETUP_MIN_REPS: usize = 9;
const SETUP_MAX_REPS: usize = 101;
const SETUP_BUDGET_SECS: f64 = 0.25;

/// Slices of the warm-up, each timed between two reference readings.
const WARM_SLICES: u64 = 20;

/// Warm-up passes over every network: one, and more while all passes so
/// far took less than the budget. Each network's warm-up time is its
/// median over the passes.
const WARM_MAX_PASSES: usize = 5;
const WARM_BUDGET_SECS: f64 = 4.0;

/// One simulated network configuration and how to measure it.
pub struct Scenario {
    pub name: &'static str,
    topology: fn() -> Topology,
    point: Point,
    /// The run's seed, and one workload seed per network derived from it.
    seed: u64,
    seeds: Vec<u64>,
    /// Whether set-up builds the network-calculus delay-bound oracle.
    bounds: bool,
    warm_cycles: u64,
    window_cycles: u64,
    strides: u64,
    /// Each network's window fingerprint at the default seed, if recorded.
    pub expected: Option<Vec<u64>>,
    /// The sweep probe's point fingerprints at the default seed, if
    /// recorded.
    pub sweep_expected: Option<[u64; 6]>,
}

/// The 8-port single switch of figs. 3–7.
fn single_switch() -> Topology {
    Topology::single_switch(8)
}

/// The 2×2 fat-mesh of fig. 9: two links per neighbour pair, 4 endpoints
/// per switch.
fn fat_mesh() -> Topology {
    Topology::fat_mesh(2, 2, 2, 4)
}

/// The paper's VBR 80:20 mix at `load` on `router`.
fn vbr_point(load: f64, router: RouterConfig, policing: PolicingMode) -> Point {
    let mut p = Point::new(load, 80.0, 20.0);
    p.router = router;
    p.policing = policing;
    p
}

/// 40 ms in cycles of the paper's 400 Mbps / 32-bit-flit time base.
fn warm_cycles() -> u64 {
    traffic::WorkloadSpec::paper_default()
        .timebase()
        .cycles_from_ms(WARM_MS)
        .get()
}

/// The `n` workload seeds of a run with `seed`, derived the way sweep
/// tasks derive theirs.
fn derived_seeds(seed: u64, n: u64) -> Vec<u64> {
    (0..n).map(|j| derive_seed(seed, j)).collect()
}

impl Scenario {
    /// The top point of fig. 3: 16-VC Virtual Clock switch at load 0.96.
    /// How saturated the switch runs depends on the VBR traces, so its
    /// speed varies from seed to seed more than the other workloads';
    /// eight networks average that out.
    pub fn switch_sat(seed: u64) -> Scenario {
        Scenario {
            name: "switch_sat",
            topology: single_switch,
            point: vbr_point(0.96, RouterConfig::default(), PolicingMode::Off),
            seed,
            seeds: derived_seeds(seed, 8),
            bounds: false,
            warm_cycles: warm_cycles(),
            window_cycles: 10_000,
            strides: 100,
            expected: None,
            sweep_expected: None,
        }
    }

    /// The same switch with 64-cycle links and 4-flit buffers at load
    /// 0.05: wire-dominated and mostly quiescent.
    pub fn wire64_sparse(seed: u64) -> Scenario {
        Scenario {
            name: "wire64_sparse",
            topology: single_switch,
            point: vbr_point(
                0.05,
                RouterConfig::default().link_latency(64).buf_flits(4),
                PolicingMode::Off,
            ),
            seed,
            seeds: derived_seeds(seed, 3),
            bounds: false,
            warm_cycles: warm_cycles(),
            window_cycles: 60_000,
            strides: 100,
            expected: None,
            sweep_expected: None,
        }
    }

    /// Fig. 9's 2×2 fat-mesh at load 0.7 with the delay-bound oracle.
    /// At 0.8 about one network in seven backs up past an output's
    /// capacity: it steps 25% slower and holds 10 MiB more, which set
    /// peak memory apart by seed (26 or 35–40 MiB over ten seeds). At
    /// 0.7 no seed tried does.
    pub fn fatmesh_fig9(seed: u64) -> Scenario {
        Scenario {
            name: "fatmesh_fig9",
            topology: fat_mesh,
            point: vbr_point(0.7, RouterConfig::default(), PolicingMode::Off),
            seed,
            seeds: derived_seeds(seed, 3),
            bounds: true,
            warm_cycles: warm_cycles(),
            window_cycles: 5_000,
            strides: 100,
            expected: None,
            sweep_expected: None,
        }
    }

    fn workload(&self, topology: &Topology, seed: u64) -> Workload {
        self.point.workload(topology, seed)
    }

    /// A network at cycle zero running `wl`: watchdog on, statistics from
    /// the warm-up end on.
    fn network_of(&self, topology: &Topology, wl: Workload) -> Network {
        let mut net = Network::new(topology, wl, &self.point.router);
        net.enable_watchdog(WatchdogConfig::default());
        net.set_warmup_end(Cycles(self.warm_cycles));
        net
    }

    fn network(&self, topology: &Topology, seed: u64) -> Network {
        self.network_of(topology, self.workload(topology, seed))
    }

    /// Full set-up of every network, as `setup_s` times it: topology and
    /// route tables, workload, the bounds oracle when on, and the network.
    fn setup(&self) -> Vec<(Network, Option<BoundsOracle>)> {
        self.seeds
            .iter()
            .map(|&seed| {
                let topology = (self.topology)();
                let wl = self.workload(&topology, seed);
                let oracle = self.bounds.then(|| {
                    BoundsOracle::new(&topology, &wl, &self.point.router)
                        .expect("feedforward routes have a delay bound")
                });
                (self.network_of(&topology, wl), oracle)
            })
            .collect()
    }

    fn restored(&self, topology: &Topology, seed: u64, image: &[u8]) -> Network {
        let mut net = self.network(topology, seed);
        net.restore(image)
            .expect("a warm image restores into its own configuration");
        net
    }

    fn window_end(&self) -> Cycles {
        Cycles(self.warm_cycles + self.window_cycles)
    }

    fn stride(&self) -> u64 {
        self.window_cycles / self.strides
    }

    /// Seconds one full set-up of every network takes at the nominal
    /// host speed.
    fn time_setup(&self, reference: &mut Reference) -> f64 {
        let (secs, built) = reference.time(|| self.setup());
        drop(black_box(built));
        secs
    }

    /// Steps `net` through the warm-up in slices and returns the seconds
    /// that took at the nominal host speed.
    fn warm_up(&self, net: &mut Network, reference: &mut Reference) -> f64 {
        (1..=WARM_SLICES)
            .map(|k| {
                let end = Cycles(self.warm_cycles * k / WARM_SLICES);
                reference.time(|| net.run_until(end)).0
            })
            .sum()
    }

    /// Sets every network up several times, then warms the last set and
    /// snapshots each network. Short warm-ups run again from fresh
    /// networks, which must end in the same states.
    fn prepare(&self, topology: &Topology, reference: &mut Reference) -> Prepared {
        let mut setup = Vec::new();
        let budget = Instant::now();
        while setup.len() + 1 < SETUP_MIN_REPS
            || (setup.len() + 1 < SETUP_MAX_REPS
                && budget.elapsed().as_secs_f64() < SETUP_BUDGET_SECS)
        {
            setup.push(self.time_setup(reference));
        }
        let (secs, built) = reference.time(|| self.setup());
        setup.push(secs);
        let started = Instant::now();
        let mut nets: Vec<Warm> = built
            .into_iter()
            .zip(&self.seeds)
            .map(|((mut net, _oracle), &seed)| Warm {
                seed,
                warm_passes: vec![self.warm_up(&mut net, reference)],
                stalled: net.stall_report().is_some(),
                fingerprint: fingerprint(&net),
                repeatable: true,
                image: net.snapshot(),
                replica: self.replica(topology, seed),
            })
            .collect();
        while nets[0].warm_passes.len() < WARM_MAX_PASSES
            && started.elapsed().as_secs_f64() < WARM_BUDGET_SECS
        {
            for (warm, (mut net, _oracle)) in nets.iter_mut().zip(self.setup()) {
                warm.warm_passes.push(self.warm_up(&mut net, reference));
                warm.repeatable &= fingerprint(&net) == warm.fingerprint
                    && net.stall_report().is_some() == warm.stalled;
            }
        }
        Prepared { setup, nets }
    }

    /// Steps one window from `warm`'s image. `trace` samples the network
    /// between strides, outside the timed spans. The network is dropped
    /// unless `keep` asks for it.
    fn window(
        &self,
        topology: &Topology,
        warm: &Warm,
        trace: Option<&mut Tracer>,
        keep: bool,
        reference: &mut Reference,
    ) -> Window {
        let mut net = self.restored(topology, warm.seed, &warm.image);
        let before = reference.slowdown();
        let start = net.now();
        let stride = self.stride();
        let mut strides_ms = Vec::with_capacity(self.strides as usize);
        let mut in_flight = Vec::new();
        let mut stride_spans = Vec::new();
        let counters_at_start = net.counters();
        let mut hops = counters_at_start.rt_flits + counters_at_start.be_flits;
        let t0 = Instant::now();
        for k in 1..=self.strides {
            let s = Instant::now();
            net.run_until(start + Cycles(k * stride));
            let e = Instant::now();
            strides_ms.push((e - s).as_secs_f64() * 1e3);
            if trace.is_some() {
                let c = net.counters();
                in_flight.push(net.flits_in_flight() as f64);
                stride_spans.push((s, e, c.rt_flits + c.be_flits - hops));
                hops = c.rt_flits + c.be_flits;
            }
            if net.stall_report().is_some() {
                break;
            }
        }
        let slowdown = (before + reference.slowdown()) / 2.0;
        for ms in &mut strides_ms {
            *ms /= slowdown;
        }
        if let Some(tr) = trace {
            let win = tr.record("net.window", t0, Instant::now(), None, self.window_cycles);
            for (s, e, hops) in stride_spans {
                tr.record("net.run_until", s, e, Some(win), hops);
            }
        }
        Window {
            slowdown,
            strides_ms,
            in_flight,
            counters_at_start,
            end: End::of(&net),
            net: keep.then_some(net),
        }
    }

    /// One window on every network, in seed order.
    fn round(
        &self,
        topology: &Topology,
        prep: &Prepared,
        mut trace: Option<&mut Tracer>,
        keep: bool,
        reference: &mut Reference,
    ) -> Vec<Window> {
        prep.nets
            .iter()
            .map(|warm| self.window(topology, warm, trace.as_deref_mut(), keep, reference))
            .collect()
    }

    /// Replays injection outside the network: the same workload inputs,
    /// a calendar ordered like the network's, and every message due
    /// before the window ends. Gives the messages and flits the network
    /// must have injected, and the cycle by which every real-time stream
    /// had sent its first message.
    fn replica(&self, topology: &Topology, seed: u64) -> Replica {
        let mut wl = self.workload(topology, seed);
        let started = Instant::now();
        let rt = wl.real_time_stream_count();
        let n = wl.source_count();
        let mut calendar = Calendar::with_capacity(n);
        let mut staged = Vec::with_capacity(n);
        let mut rt_started_by = 0;
        for i in 0..n {
            let m = wl.next_message(i);
            if i < rt {
                rt_started_by = rt_started_by.max(m.at.get());
            }
            calendar.schedule(m.at, i);
            staged.push(m.flits.len() as u64);
        }
        let (mut msgs, mut flits) = (0u64, 0u64);
        while let Some((_, i)) = calendar.pop_due(self.window_end() - Cycles(1)) {
            msgs += 1;
            flits += staged[i];
            let m = wl.next_message(i);
            calendar.schedule(m.at, i);
            staged[i] = m.flits.len() as u64;
        }
        Replica {
            msgs,
            flits,
            calls: n as u64 + msgs,
            secs: started.elapsed().as_secs_f64(),
            rt_started_by,
        }
    }

    /// The first check a finished window fails, if any.
    fn window_fault(
        &self,
        end: &End,
        warm: &Warm,
        reference: u64,
        expected: Option<u64>,
    ) -> Option<&'static str> {
        let checks = [
            (!warm.stalled, "the watchdog tripped during warm-up"),
            (warm.repeatable, "warm-ups of one network differ"),
            (
                warm.replica.rt_started_by < self.warm_cycles,
                "a real-time stream had not begun when the window opened",
            ),
            (!end.stalled, "the watchdog tripped"),
            (end.now == self.window_end(), "the window ended early"),
            (
                end.injected_msgs == warm.replica.msgs,
                "injected messages differ from the replayed workload",
            ),
            (
                end.delivered_flits + end.flits_in_flight == warm.replica.flits,
                "flit conservation broken",
            ),
            (
                end.fingerprint == reference,
                "windows from one image differ",
            ),
            (
                expected.is_none_or(|e| e == end.fingerprint),
                "fingerprint differs from the recorded one",
            ),
        ];
        checks.iter().find(|(ok, _)| !ok).map(|&(_, why)| why)
    }

    /// Counts each window of `rounds` as an op, against the first
    /// round's fingerprints, and reports the first fault seen.
    fn count_ops<'a>(
        &self,
        report: &mut Report,
        prep: &Prepared,
        rounds: impl IntoIterator<Item = &'a Vec<Window>>,
    ) -> Vec<u64> {
        let mut references: Vec<u64> = Vec::new();
        let mut first = None;
        for round in rounds {
            if references.is_empty() {
                references = round.iter().map(|w| w.end.fingerprint).collect();
            }
            for (j, w) in round.iter().enumerate() {
                // A network with no recorded fingerprint fails the check.
                let expected = self
                    .expected
                    .as_ref()
                    .map(|e| e.get(j).copied().unwrap_or_default());
                let fault = self.window_fault(&w.end, &prep.nets[j], references[j], expected);
                report.op(fault.is_none());
                first = first.or(fault);
            }
        }
        if let Some(why) = first {
            eprintln!("# {}: failed op: {why}", self.name);
        }
        references
    }

    /// Simulated cycles per host second over `strides_ms`, a set of
    /// whole windows.
    fn rate(&self, windows: usize, strides_ms: impl IntoIterator<Item = f64>) -> f64 {
        (windows as u64 * self.window_cycles) as f64 * 1e3 / strides_ms.into_iter().sum::<f64>()
    }

    /// Runs the scenario for about `seconds` of measured rounds and
    /// reports the end-to-end metrics (`trace == false`) or the per-layer
    /// metrics (`trace == true`).
    pub fn run(&self, seconds: f64, trace: bool) -> Report {
        let topology = (self.topology)();
        let mut reference = Reference::new();
        let prep = self.prepare(&topology, &mut reference);
        if trace {
            return self.run_traced(seconds, &topology, &prep, &mut reference);
        }
        let mut rounds = Vec::new();
        let mut setup = prep.setup.clone();
        let t0 = Instant::now();
        while rounds.len() < MIN_ROUNDS || t0.elapsed().as_secs_f64() < seconds {
            rounds.push(self.round(&topology, &prep, None, false, &mut reference));
            setup.push(self.time_setup(&mut reference));
        }
        let setup_secs = median(&setup);
        let mut report = Report::default();
        let references = self.count_ops(&mut report, &prep, &rounds);
        let typical = typical_strides(&rounds);
        let strides: Vec<f64> = typical.iter().flatten().copied().collect();
        // The whole workload once: every network's set-up, warm-up and
        // one window.
        let warm: f64 = prep.nets.iter().map(Warm::secs).sum();
        let windows = strides.iter().sum::<f64>() / 1e3;
        self.print_summary(&prep, &setup, &rounds, &typical, &references);
        report.push(
            "sim_cycles_per_s",
            self.rate(typical.len(), strides.iter().copied()),
            "cycles/s",
        );
        report.push("wall_s", setup_secs + warm + windows, "s");
        report.push("setup_s", setup_secs, "s");
        report.push("peak_rss_mb", report::peak_rss_mib(), "MiB");
        report.push("chunk_ms_p50", percentile(&strides, 50.0), "ms");
        report.push("chunk_ms_p90", percentile(&strides, 90.0), "ms");
        report
    }

    /// One human-readable line: what ran, every round's rate, each
    /// network's noise-filtered rate, and the fingerprints.
    fn print_summary(
        &self,
        prep: &Prepared,
        setup: &[f64],
        rounds: &[Vec<Window>],
        typical: &[Vec<f64>],
        references: &[u64],
    ) {
        let list = |xs: Vec<String>| xs.join(" ");
        let warm = list(
            prep.nets
                .iter()
                .map(|n| format!("{:.2}", n.secs()))
                .collect(),
        );
        let rounds_at = list(
            rounds
                .iter()
                .map(|r| {
                    format!(
                        "{:.0}",
                        self.rate(r.len(), r.iter().flat_map(|w| w.strides_ms.iter().copied()))
                    )
                })
                .collect(),
        );
        let nets_at = list(
            typical
                .iter()
                .map(|t| format!("{:.0}", self.rate(1, t.iter().copied())))
                .collect(),
        );
        let fps = list(references.iter().map(|f| format!("{f:#018x}")).collect());
        let slowdowns: Vec<f64> = rounds.iter().flatten().map(|w| w.slowdown).collect();
        println!(
            "# {}: {} networks | setup {:.3} ms (median of {}) | warm-up {} cycles in [{warm}] s \
             (median of {}) | \
             {} rounds of {}-cycle windows at [{rounds_at}] cycles/s | host slowdown {:.2} \
             (median; {:.2}-{:.2}) | median strides per network at [{nets_at}] cycles/s | \
             {} strides of {} cycles | fingerprints [{fps}]",
            self.name,
            prep.nets.len(),
            median(setup) * 1e3,
            setup.len(),
            self.warm_cycles,
            prep.nets[0].warm_passes.len(),
            rounds.len(),
            self.window_cycles,
            median(&slowdowns),
            percentile(&slowdowns, 1.0),
            percentile(&slowdowns, 100.0),
            typical.iter().map(Vec::len).sum::<usize>(),
            self.stride(),
        );
    }

    /// The traced run: untraced and traced rounds alternate over the same
    /// warm images; then each layer's public calls are timed on their
    /// own, sized from the windows' counts.
    fn run_traced(
        &self,
        seconds: f64,
        topology: &Topology,
        prep: &Prepared,
        reference: &mut Reference,
    ) -> Report {
        let mut tracer = Tracer::new();
        let mut plain = Vec::new();
        let mut traced = Vec::new();
        let t0 = Instant::now();
        while traced.len() < MIN_ROUNDS || t0.elapsed().as_secs_f64() < seconds {
            plain.push(self.round(topology, prep, None, false, reference));
            let keep = traced.is_empty();
            traced.push(self.round(topology, prep, Some(&mut tracer), keep, reference));
        }

        let mut report = Report::default();
        let references = self.count_ops(&mut report, prep, plain.iter().chain(&traced));
        let plain_typical = typical_strides(&plain);
        let traced_typical = typical_strides(&traced);
        let rate = |t: &[Vec<f64>]| self.rate(t.len(), t.iter().flatten().copied());
        let overhead = rate(&plain_typical) / rate(&traced_typical);
        self.print_summary(prep, &prep.setup, &traced, &traced_typical, &references);

        // Counts repeat exactly from round to round, so they come from
        // the first traced round (summed over its networks); times from
        // the traced strides' medians.
        let busy_secs = traced_typical.iter().flatten().sum::<f64>() / 1e3;
        let first = &traced[0];
        let nets: Vec<&Network> = first
            .iter()
            .map(|w| {
                w.net
                    .as_ref()
                    .expect("the first traced round keeps its networks")
            })
            .collect();
        let (mut hops, mut conflicts, mut stalls, mut occ_samples, mut occ_flits) = (0, 0, 0, 0, 0);
        let (mut stepped, mut skipped, mut jumps) = (0, 0, 0);
        for (w, net) in first.iter().zip(&nets) {
            let (end, start) = (net.counters(), &w.counters_at_start);
            hops += (end.rt_flits + end.be_flits) - (start.rt_flits + start.be_flits);
            conflicts += end.mux_conflicts - start.mux_conflicts;
            stalls += end.credit_stall_cycles - start.credit_stall_cycles;
            occ_samples += end.occupancy_samples - start.occupancy_samples;
            occ_flits += end.occupancy_flits - start.occupancy_flits;
            let s = net.skip_stats();
            stepped += s.cycles_stepped;
            skipped += s.cycles_skipped;
            jumps += s.horizon_jumps;
        }
        let in_flight: Vec<f64> = first
            .iter()
            .flat_map(|w| w.in_flight.iter().copied())
            .collect();

        report.push("net.cycles_stepped", stepped as f64, "cycles");
        report.push("net.cycles_skipped", skipped as f64, "cycles");
        report.push("net.horizon_jumps", jumps as f64, "count");
        report.push(
            "net.ns_per_stepped_cycle",
            busy_secs * 1e9 / stepped.max(1) as f64,
            "ns",
        );
        report.push(
            "net.ns_per_flit_hop",
            busy_secs * 1e9 / hops.max(1) as f64,
            "ns",
        );
        report.push(
            "net.flits_in_flight_mean",
            in_flight.iter().sum::<f64>() / in_flight.len().max(1) as f64,
            "flits",
        );
        report.push("router.flit_hops", hops as f64, "count");
        report.push("router.mux_conflicts", conflicts as f64, "count");
        report.push(
            "router.conflicts_per_hop",
            conflicts as f64 / hops.max(1) as f64,
            "ratio",
        );
        report.push("router.credit_stall_cycles", stalls as f64, "cycles");
        report.push(
            "router.mean_occupancy_flits",
            occ_flits as f64 / occ_samples.max(1) as f64,
            "flits",
        );

        let first_seed = self.seeds[0];
        let sample = self.sample_flits(topology, first_seed);
        let iters = hops.clamp(layers::MIN_ITERS, layers::MAX_ITERS);
        let vcs = self.point.router.vcs_per_pc() as usize;
        for (name, kind) in [
            ("scheduler.pick_ns.vc", SchedulerKind::VirtualClock),
            ("scheduler.pick_ns.wfq", SchedulerKind::Wfq),
            ("scheduler.pick_ns.drr", SchedulerKind::Drr),
            ("scheduler.pick_ns.scfq", SchedulerKind::Scfq),
        ] {
            let ns = tracer.time(name, iters, || {
                layers::scheduler_pick_ns(kind, vcs, &sample, iters)
            });
            report.push(name, ns, "ns");
        }

        let calls: u64 = prep.nets.iter().map(|n| n.replica.calls).sum();
        let replica_secs = tracer.time("traffic.replica", calls, || {
            let replays: Vec<f64> = (0..3)
                .map(|_| {
                    self.seeds
                        .iter()
                        .map(|&seed| self.replica(topology, seed).secs)
                        .sum()
                })
                .collect();
            median(&replays)
        });
        let msgs: u64 = prep.nets.iter().map(|n| n.replica.msgs).sum();
        report.push("traffic.msgs", msgs as f64, "count");
        report.push(
            "traffic.next_message_ns",
            replica_secs * 1e9 / calls as f64,
            "ns",
        );

        let depth = self.point.router.buf_flits_value() as usize;
        let latency = u64::from(self.point.router.link_latency_value());
        let ns = tracer.time("flitnet.vcbuf", iters, || {
            layers::vcbuf_ns(depth, &sample, iters)
        });
        report.push("flitnet.vcbuf_ns", ns, "ns");
        let ns = tracer.time("flitnet.link", iters, || {
            layers::link_ns(latency, vcs, &sample, iters)
        });
        report.push("flitnet.link_ns", ns, "ns");

        // Snapshot and restore of each warm network, per network.
        let n = prep.nets.len() as f64;
        let (mut bytes, mut save, mut restore) = (0.0, 0.0, 0.0);
        for warm in &prep.nets {
            let net = self.restored(topology, warm.seed, &warm.image);
            let (secs, image) =
                tracer.time("snap.save", 3, || report::median_secs(3, || net.snapshot()));
            drop(net);
            let secs_restore = tracer.time("snap.restore", 3, || {
                let mut secs = Vec::new();
                for _ in 0..3 {
                    let mut fresh = self.network(topology, warm.seed);
                    let t = Instant::now();
                    fresh.restore(&image).expect("own snapshot restores");
                    secs.push(t.elapsed().as_secs_f64());
                    black_box(fresh.now());
                }
                median(&secs)
            });
            bytes += image.len() as f64 / n;
            save += secs / n;
            restore += secs_restore / n;
        }
        report.push("snap.bytes", bytes, "bytes");
        report.push("snap.save_ms", save * 1e3, "ms");
        report.push("snap.restore_ms", restore * 1e3, "ms");

        let wl = self.workload(topology, first_seed);
        let (build_secs, oracle) = tracer.time("bounds.build", 5, || {
            report::median_secs(5, || BoundsOracle::new(topology, &wl, &self.point.router))
        });
        let oracle = oracle.expect("feedforward routes have a delay bound");
        let (report_secs, _) = tracer.time("bounds.report", 5, || {
            report::median_secs(5, || oracle.report(nets[0], self.window_end()))
        });
        report.push("bounds.build_ms", build_secs * 1e3, "ms");
        report.push("bounds.report_ms", report_secs * 1e3, "ms");

        let (topo_secs, _) = tracer.time("topo.build", 101, || {
            report::median_secs(101, self.topology)
        });
        report.push("topo.build_ms", topo_secs * 1e3, "ms");

        let (summary_secs, _) = tracer.time("metrics.summary", 1001, || {
            report::median_secs(1001, || {
                let l = nets[0].latency();
                (nets[0].delivery().summary(), l.mean_us(), l.count())
            })
        });
        report.push("metrics.summary_us", summary_secs * 1e6, "us");

        let sweep = sweep::probe(
            self.seed,
            self.sweep_expected.as_ref(),
            &mut tracer,
            &mut report,
        );
        report.push("sweep.points", sweep.points as f64, "count");
        report.push("sweep.cpu_share", sweep.cpu_share, "ratio");
        report.push("trace.overhead", overhead, "ratio");

        match tracer.write(self.name, self.seed) {
            Ok(path) => println!("# {}: spans written to {}", self.name, path.display()),
            Err(e) => eprintln!("# {}: spans not written: {e}", self.name),
        }
        report
    }

    /// Flits of the workload's first messages, real-time and best-effort
    /// alike: the inputs of the standalone layer timings.
    fn sample_flits(&self, topology: &Topology, seed: u64) -> Vec<Flit> {
        let mut wl = self.workload(topology, seed);
        let mut flits = Vec::new();
        for i in 0..wl.source_count().min(64) {
            flits.extend(wl.next_message(i).flits);
        }
        flits
    }
}

/// Each network's stride times, each the median over the rounds. A
/// stride repeats the same simulated work in every round; the host shares
/// its cores with other tenants, and the median tracks the speed it
/// holds for minutes at a time, where the fastest round depends on
/// whether a short burst of full speed happened to arrive.
fn typical_strides(rounds: &[Vec<Window>]) -> Vec<Vec<f64>> {
    let nets = rounds.first().map_or(0, Vec::len);
    (0..nets)
        .map(|j| {
            let strides = rounds
                .iter()
                .map(|r| r[j].strides_ms.len())
                .min()
                .unwrap_or(0);
            (0..strides)
                .map(|k| {
                    median(
                        &rounds
                            .iter()
                            .map(|r| r[j].strides_ms[k])
                            .collect::<Vec<_>>(),
                    )
                })
                .collect()
        })
        .collect()
}

/// Every network of a run, set up and warmed.
struct Prepared {
    /// Host seconds of each full set-up so far.
    setup: Vec<f64>,
    nets: Vec<Warm>,
}

/// One network's warm state: the image every window starts from.
struct Warm {
    seed: u64,
    /// Seconds of each warm-up pass at the nominal host speed.
    warm_passes: Vec<f64>,
    stalled: bool,
    /// The first pass's end state, and whether every later pass matched.
    fingerprint: u64,
    repeatable: bool,
    image: Vec<u8>,
    replica: Replica,
}

impl Warm {
    /// The warm-up's seconds at the nominal host speed.
    fn secs(&self) -> f64 {
        median(&self.warm_passes)
    }
}

/// One measured window.
struct Window {
    /// The host's slowdown over the window.
    slowdown: f64,
    /// Each stride's time at the nominal host speed.
    strides_ms: Vec<f64>,
    /// `flits_in_flight()` after each stride (traced windows only).
    in_flight: Vec<f64>,
    counters_at_start: NetCounters,
    end: End,
    /// The network as the window left it, when kept.
    net: Option<Network>,
}

/// What the checks need of a network at the end of a window.
struct End {
    now: Cycles,
    stalled: bool,
    injected_msgs: u64,
    delivered_flits: u64,
    flits_in_flight: u64,
    fingerprint: u64,
}

impl End {
    fn of(net: &Network) -> End {
        End {
            now: net.now(),
            stalled: net.stall_report().is_some(),
            injected_msgs: net.injected_msgs(),
            delivered_flits: net.delivered_flits(),
            flits_in_flight: net.flits_in_flight(),
            fingerprint: fingerprint(net),
        }
    }
}

/// Injection as replayed outside the network.
struct Replica {
    msgs: u64,
    flits: u64,
    /// `Workload::next_message` calls made, and the host seconds they and
    /// the calendar took.
    calls: u64,
    secs: f64,
    /// The latest first-message cycle over the real-time streams.
    rt_started_by: u64,
}

/// The outcome fingerprint of a network: injected and delivered
/// messages, the router counters, the skip counters and the bits of the
/// jitter and best-effort latency values.
pub fn fingerprint(net: &Network) -> u64 {
    let c = net.counters();
    let s = net.skip_stats();
    let j = net.delivery().summary();
    let l = net.latency();
    Fnv::new()
        .u64(net.injected_msgs())
        .u64(net.delivered_msgs())
        .u64(c.rt_flits)
        .u64(c.be_flits)
        .u64(c.mux_conflicts)
        .u64(c.credit_stall_cycles)
        .u64(c.occupancy_samples)
        .u64(c.occupancy_flits)
        .u64(s.cycles_stepped)
        .u64(s.cycles_skipped)
        .u64(s.horizon_jumps)
        .u64(j.mean_ms.to_bits())
        .u64(j.std_ms.to_bits())
        .u64(l.mean_us().to_bits())
        .u64(l.count())
        .finish()
}
