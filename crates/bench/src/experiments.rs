//! One function per table/figure of the paper's evaluation (§5), plus
//! the ablations and extensions beyond it.
//!
//! Every function prints its result table and returns an
//! [`ExperimentRun`]: the table, one machine-readable JSON record per
//! simulated point and the total simulated cycles (for throughput
//! accounting). `repro-all` collects everything into one report and
//! `--json` serializes each run to `BENCH_<name>.json`. Parameter values
//! mirror the paper exactly; see EXPERIMENTS.md for paper-vs-measured
//! notes.
//!
//! Each experiment is a sweep: it builds its full point list up front and
//! hands it to the one runner, `sweep`, which fans the points across a
//! [`SweepRunner`] (capped by `--jobs`) and takes the results back in
//! task order — so the printed output, the JSON records
//! and the trace file are bit-identical at any job count. Under
//! `--trace` the runner streams each point's flit-event trace to the file
//! as soon as every earlier point's is written; no experiment holds the
//! whole sweep's trace. Most experiments are a `Grid`: label columns,
//! then d̄ and σ_d, optionally best-effort latency. Every JSON record
//! carries its task `index`.

use std::fs::File;
use std::io::Write as _;

use mediaworm::{BoundsReport, CrossbarKind, RouterConfig, SchedPoint, SchedulerKind, SimOutcome};
use metrics::{Json, Table};
use pcs_router::{PcsConfig, PcsOutcome};
use topo::Topology;
use traffic::{FrameModel, PolicingMode, StreamClass, WorkloadSpec};

use crate::sweep::{SweepRunner, SweepTask};
use crate::{banner, ExperimentRun, Point, RunArgs};

/// The load axis used by the single-switch sweeps (Figs. 3–6).
pub const LOADS: [f64; 5] = [0.6, 0.7, 0.8, 0.9, 0.96];

/// Best-effort latency above which a cell prints as `Sat.` (the paper's
/// Table 2 notation for a saturated best-effort class).
pub const SATURATION_US: f64 = 5_000.0;

fn be_cell(us: f64) -> String {
    if us.is_nan() || us > SATURATION_US {
        "Sat.".to_string()
    } else {
        format!("{us:.1}")
    }
}

/// The one sweep runner: runs all `count` tasks across the sweep workers
/// (`run` maps a task to its result) and returns the results in task
/// order. Under `--trace`, each result's trace bytes (`trace` takes them
/// out) are appended to the trace file in task order as soon as every
/// earlier task's are, then dropped: only results that finished ahead of
/// an earlier task hold trace bytes in memory. The file is created at the
/// first non-empty trace, so a sweep that traces nothing (PCS points
/// only) leaves no file behind.
fn sweep<T: Send>(
    args: &RunArgs,
    count: usize,
    run: impl Fn(SweepTask) -> T + Sync,
    trace: impl Fn(&mut T) -> Vec<u8>,
) -> Vec<T> {
    let mut file: Option<File> = None;
    let mut out = Vec::with_capacity(count);
    SweepRunner::from_args(args).for_each_in_order(count, run, |mut value| {
        let bytes = trace(&mut value);
        if let Some(path) = args.trace.as_ref().filter(|_| !bytes.is_empty()) {
            let file = file.get_or_insert_with(|| File::create(path).expect("create flit trace"));
            file.write_all(&bytes).expect("write flit trace");
        }
        out.push(value);
    });
    out
}

/// [`sweep`] over `points` on `topology`.
fn run_points(points: &[Point], topology: &Topology, args: &RunArgs) -> Vec<SimOutcome> {
    sweep(
        args,
        points.len(),
        |task| points[task.index].run_on_seeded(topology, args, task.seed),
        |out| std::mem::take(&mut out.trace),
    )
}

/// Total simulated cycles over a sweep's points.
fn sim_cycles(outs: &[SimOutcome]) -> u64 {
    outs.iter().map(|out| out.cycles).sum()
}

/// The fixed parts of a grid experiment: a sweep whose table has label
/// columns, then d̄ and σ_d, then optionally best-effort latency.
struct Grid<const N: usize> {
    name: &'static str,
    banner: &'static str,
    title: &'static str,
    /// `(table header, JSON key)` of each label column.
    labels: [(&'static str, &'static str); N],
    /// Whether a `BE lat (us)` column follows d̄ and σ_d.
    be_latency: bool,
}

impl<const N: usize> Grid<N> {
    /// Prints the banner, runs `rows` (each point with its label cells) on
    /// `topology`, prints the table and returns the run.
    fn run(
        self,
        rows: Vec<([String; N], Point)>,
        topology: &Topology,
        args: &RunArgs,
    ) -> ExperimentRun {
        banner(self.banner, args);
        let (cells, points): (Vec<[String; N]>, Vec<Point>) = rows.into_iter().unzip();
        let mut headers: Vec<&str> = self.labels.iter().map(|&(header, _)| header).collect();
        headers.extend(["d (ms)", "sigma_d (ms)"]);
        if self.be_latency {
            headers.push("BE lat (us)");
        }
        let mut table = Table::new(headers).with_title(self.title);
        let outs = run_points(&points, topology, args);
        let mut records = Vec::new();
        for (i, (cells, out)) in cells.iter().zip(&outs).enumerate() {
            let mut row = cells.to_vec();
            row.push(format!("{:.2}", out.jitter.mean_ms));
            row.push(format!("{:.2}", out.jitter.std_ms));
            if self.be_latency {
                row.push(be_cell(out.be_mean_latency_us));
            }
            table.row(row);
            let labels: Vec<(&str, &str)> = self
                .labels
                .iter()
                .zip(cells)
                .map(|(&(_, key), cell)| (key, cell.as_str()))
                .collect();
            records.push(point_json(i, &labels, out));
        }
        println!("{table}");
        ExperimentRun {
            name: self.name,
            table,
            points: records,
            sim_cycles: sim_cycles(&outs),
        }
    }
}

/// One point's machine-readable record: its task index, the sweep
/// labels, then the jitter/latency results (NaN-free: undefined
/// statistics are `null`) and the router telemetry counter totals.
fn point_json(index: usize, labels: &[(&str, &str)], out: &SimOutcome) -> Json {
    let mut o = Json::obj([("index", Json::Uint(index as u64))]);
    for &(k, v) in labels {
        o.push(k, Json::str(v));
    }
    o.push("d_ms", Json::opt_num(out.jitter.mean_ms_opt()));
    o.push("sigma_d_ms", Json::opt_num(out.jitter.std_ms_opt()));
    o.push("intervals", Json::Uint(out.jitter.intervals));
    o.push("be_latency_us", Json::opt_num(out.be_mean_latency_us_opt()));
    o.push("be_msgs", Json::Uint(out.be_msgs));
    o.push("injected_msgs", Json::Uint(out.injected_msgs));
    o.push("delivered_msgs", Json::Uint(out.delivered_msgs));
    o.push("in_flight_at_end", Json::Uint(out.in_flight_at_end));
    o.push("counters", out.counters.to_json());
    o.push("skip", out.skip.to_json());
    o.push("audit_violations", Json::Uint(out.audit_violations));
    o.push(
        "stall",
        out.stall.as_ref().map_or(Json::Null, |s| s.to_json()),
    );
    o
}

/// A PCS point's machine-readable record.
fn pcs_json(index: usize, labels: &[(&str, &str)], out: &PcsOutcome) -> Json {
    let mut o = Json::obj([("index", Json::Uint(index as u64))]);
    for &(k, v) in labels {
        o.push(k, Json::str(v));
    }
    o.push("d_ms", Json::opt_num(out.jitter.mean_ms_opt()));
    o.push("sigma_d_ms", Json::opt_num(out.jitter.std_ms_opt()));
    o.push("offered", Json::Uint(out.offered));
    o.push("attempts", Json::Uint(out.attempts));
    o.push("established", Json::Uint(out.established));
    o.push("dropped", Json::Uint(out.dropped));
    o.push(
        "counters",
        Json::obj([
            ("flits_forwarded", Json::Uint(out.counters.flits_forwarded)),
            ("mux_conflicts", Json::Uint(out.counters.mux_conflicts)),
            (
                "mean_occupancy_flits",
                Json::opt_num(out.counters.mean_occupancy()),
            ),
        ]),
    );
    o.push(
        "stall",
        out.stall.map_or(Json::Null, |s| {
            Json::obj([
                ("cycle", Json::Uint(s.cycle)),
                ("stalled_for", Json::Uint(s.stalled_for)),
                ("flits_in_flight", Json::Uint(s.flits_in_flight)),
            ])
        }),
    );
    o
}

/// Fig. 3 — Virtual Clock vs FIFO (16 VCs, 80:20 mix): d̄ and σ_d vs load.
pub fn fig3(args: &RunArgs) -> ExperimentRun {
    let mut rows = Vec::new();
    for &load in &LOADS {
        for kind in [SchedulerKind::VirtualClock, SchedulerKind::Fifo] {
            let mut p = Point::new(load, 80.0, 20.0);
            p.router = RouterConfig::default().scheduler(kind);
            rows.push(([format!("{load:.2}"), format!("{kind:?}")], p));
        }
    }
    Grid {
        name: "fig3",
        banner: "Fig 3: Virtual Clock vs FIFO (16 VCs, mix 80:20)",
        title: "Fig 3 — mean delivery interval and deviation, VBR 80:20",
        labels: [("load", "load"), ("scheduler", "scheduler")],
        be_latency: false,
    }
    .run(rows, &Topology::single_switch(8), args)
}

/// Fig. 4 — CBR-only vs VBR-only traffic (16 VCs, 400 Mbps).
pub fn fig4(args: &RunArgs) -> ExperimentRun {
    let mut rows = Vec::new();
    for &load in &LOADS {
        for class in [StreamClass::Cbr, StreamClass::Vbr] {
            let mut p = Point::new(load, 100.0, 0.0);
            p.class = class;
            rows.push(([format!("{load:.2}"), format!("{class:?}")], p));
        }
    }
    Grid {
        name: "fig4",
        banner: "Fig 4: CBR vs VBR traffic (16 VCs, 400 Mbps)",
        title: "Fig 4 — pure real-time traffic, no best-effort",
        labels: [("load", "load"), ("class", "class")],
        be_latency: false,
    }
    .run(rows, &Topology::single_switch(8), args)
}

/// The paper's traffic mixes for Fig. 5 / Table 2.
pub const MIXES: [(f64, f64); 5] = [
    (20.0, 80.0),
    (50.0, 50.0),
    (80.0, 20.0),
    (90.0, 10.0),
    (100.0, 0.0),
];

/// Fig. 5 — mixed traffic: d̄ and σ_d over mix × load (16 VCs).
pub fn fig5(args: &RunArgs) -> ExperimentRun {
    let mut rows = Vec::new();
    for &(x, y) in &MIXES {
        for &load in &LOADS {
            rows.push((
                [format!("{x:.0}:{y:.0}"), format!("{load:.2}")],
                Point::new(load, x, y),
            ));
        }
    }
    Grid {
        name: "fig5",
        banner: "Fig 5: mixed VBR/best-effort traffic (16 VCs)",
        title: "Fig 5 — jitter across traffic mixes",
        labels: [("mix (x:y)", "mix"), ("load", "load")],
        be_latency: false,
    }
    .run(rows, &Topology::single_switch(8), args)
}

/// Table 2 — average best-effort latency (µs) over mix × load.
pub fn table2(args: &RunArgs) -> ExperimentRun {
    banner(
        "Table 2: average best-effort latency (8x8, 16 VCs, 400 Mbps)",
        args,
    );
    let mut t = Table::new(["mix (x:y)", "0.60", "0.70", "0.80", "0.90", "0.96"])
        .with_title("Table 2 — best-effort latency in microseconds");
    let mixes: Vec<(f64, f64)> = MIXES.iter().copied().filter(|(_, y)| *y > 0.0).collect();
    let mut points = Vec::new();
    for &(x, y) in &mixes {
        for &load in &LOADS {
            points.push(Point::new(load, x, y));
        }
    }
    let outs = run_points(&points, &Topology::single_switch(8), args);
    let mut records = Vec::new();
    for (row, &(x, y)) in mixes.iter().enumerate() {
        let mix = format!("{x:.0}:{y:.0}");
        let mut cells = vec![mix.clone()];
        for (col, load) in LOADS.iter().enumerate() {
            let index = row * LOADS.len() + col;
            let out = &outs[index];
            cells.push(be_cell(out.be_mean_latency_us));
            let load = format!("{load:.2}");
            records.push(point_json(index, &[("mix", &mix), ("load", &load)], out));
        }
        t.row(cells);
    }
    println!("{t}");
    ExperimentRun {
        name: "table2",
        table: t,
        points: records,
        sim_cycles: sim_cycles(&outs),
    }
}

/// Fig. 6 — impact of VC count and crossbar style (100:0 VBR).
pub fn fig6(args: &RunArgs) -> ExperimentRun {
    let configs: [(&str, RouterConfig); 4] = [
        ("16 VC muxed", RouterConfig::new(16)),
        ("8 VC muxed", RouterConfig::new(8)),
        ("4 VC muxed", RouterConfig::new(4)),
        (
            "4 VC full",
            RouterConfig::new(4).crossbar(CrossbarKind::Full),
        ),
    ];
    let mut rows = Vec::new();
    for (name, cfg) in &configs {
        for &load in &[0.5, 0.6, 0.7, 0.8, 0.9, 0.96] {
            let mut p = Point::new(load, 100.0, 0.0);
            p.router = cfg.clone();
            rows.push(([(*name).to_string(), format!("{load:.2}")], p));
        }
    }
    Grid {
        name: "fig6",
        banner: "Fig 6: VCs and crossbar capabilities (400 Mbps, 100:0)",
        title: "Fig 6 — jitter vs VC count / crossbar style",
        labels: [("config", "config"), ("load", "load")],
        be_latency: false,
    }
    .run(rows, &Topology::single_switch(8), args)
}

/// Fig. 7 — effect of message size on jitter (16 VCs).
pub fn fig7(args: &RunArgs) -> ExperimentRun {
    let mut rows = Vec::new();
    for &size in &[20u32, 40, 80, 160, 2560] {
        for &load in &[0.64, 0.80] {
            let mut p = Point::new(load, 100.0, 0.0);
            p.spec = WorkloadSpec {
                msg_flits: size,
                ..WorkloadSpec::paper_default()
            };
            rows.push(([format!("{size}"), format!("{load:.2}")], p));
        }
    }
    Grid {
        name: "fig7",
        banner: "Fig 7: message size vs jitter (16 VCs)",
        title: "Fig 7 — jitter vs message size",
        labels: [("msg (flits)", "msg_flits"), ("load", "load")],
        be_latency: false,
    }
    .run(rows, &Topology::single_switch(8), args)
}

/// Fig. 8 — MediaWorm vs the PCS router (8×8, 100 Mbps, 24 VCs).
pub fn fig8(args: &RunArgs) -> ExperimentRun {
    banner("Fig 8: MediaWorm vs PCS (8x8, 100 Mbps, 24 VCs)", args);
    let mut t = Table::new(["load", "router", "d (ms)", "sigma_d (ms)"])
        .with_title("Fig 8 — wormhole vs pipelined circuit switching");
    let loads = [0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9];
    /// Per-task result: either a MediaWorm or a PCS point.
    enum Half {
        Worm(Box<SimOutcome>),
        Pcs(PcsOutcome),
    }
    let switch = Topology::single_switch(8);
    // Task 2i runs MediaWorm at loads[i]; task 2i+1 runs PCS at loads[i].
    let halves = sweep(
        args,
        loads.len() * 2,
        |task| {
            let load = loads[task.index / 2];
            if task.index % 2 == 0 {
                // MediaWorm at 100 Mbps with 24 VCs.
                let mut p = Point::new(load, 100.0, 0.0);
                p.router = RouterConfig::new(24);
                p.spec = WorkloadSpec::paper_100mbps();
                Half::Worm(Box::new(p.run_on_seeded(&switch, args, task.seed)))
            } else {
                let (w, m) = args.windows();
                Half::Pcs(pcs_router::sim::run(
                    load,
                    &PcsConfig::paper_default(),
                    w,
                    m,
                    task.seed,
                ))
            }
        },
        |half| match half {
            Half::Worm(out) => std::mem::take(&mut out.trace),
            Half::Pcs(_) => Vec::new(),
        },
    );
    let mut records = Vec::new();
    let mut cycles = 0u64;
    for (i, half) in halves.into_iter().enumerate() {
        let load = format!("{:.2}", loads[i / 2]);
        let (router, mean, std) = match half {
            Half::Worm(out) => {
                cycles += out.cycles;
                records.push(point_json(
                    i,
                    &[("load", &load), ("router", "MediaWorm")],
                    &out,
                ));
                ("MediaWorm", out.jitter.mean_ms, out.jitter.std_ms)
            }
            Half::Pcs(out) => {
                cycles += out.cycles;
                records.push(pcs_json(i, &[("load", &load), ("router", "PCS")], &out));
                ("PCS", out.jitter.mean_ms, out.jitter.std_ms)
            }
        };
        t.row([
            load,
            router.to_string(),
            format!("{mean:.2}"),
            format!("{std:.2}"),
        ]);
    }
    println!("{t}");
    ExperimentRun {
        name: "fig8",
        table: t,
        points: records,
        sim_cycles: cycles,
    }
}

/// Table 3 — PCS connection attempts / establishments / drops vs load.
pub fn table3(args: &RunArgs) -> ExperimentRun {
    banner(
        "Table 3: PCS connection accounting (8x8, 100 Mbps, 24 VCs)",
        args,
    );
    let mut t = Table::new(["load", "offered", "attempts", "established", "dropped"])
        .with_title("Table 3 — attempted, established and dropped connections");
    let loads = [0.37, 0.42, 0.64, 0.67, 0.74, 0.80, 0.87, 0.91];
    let (w, m) = args.windows();
    let outs = sweep(
        args,
        loads.len(),
        |task| {
            pcs_router::sim::run(
                loads[task.index],
                &PcsConfig::paper_default(),
                w,
                m,
                task.seed,
            )
        },
        |_| Vec::new(),
    );
    let mut records = Vec::new();
    let mut cycles = 0u64;
    for (i, (&load, out)) in loads.iter().zip(&outs).enumerate() {
        cycles += out.cycles;
        let load = format!("{load:.2}");
        records.push(pcs_json(i, &[("load", &load)], out));
        t.row([
            load,
            format!("{}", out.offered),
            format!("{}", out.attempts),
            format!("{}", out.established),
            format!("{}", out.dropped),
        ]);
    }
    println!("{t}");
    ExperimentRun {
        name: "table3",
        table: t,
        points: records,
        sim_cycles: cycles,
    }
}

/// Fig. 9 — the 2×2 fat-mesh (two links per neighbour pair, 4 endpoints
/// per switch): jitter and best-effort latency over mix × load.
pub fn fig9(args: &RunArgs) -> ExperimentRun {
    let mut rows = Vec::new();
    for &(x, y) in &[(40.0, 60.0), (60.0, 40.0), (80.0, 20.0)] {
        for &load in &[0.7, 0.8, 0.9] {
            rows.push((
                [format!("{x:.0}:{y:.0}"), format!("{load:.2}")],
                Point::new(load, x, y),
            ));
        }
    }
    Grid {
        name: "fig9",
        banner: "Fig 9: 2x2 fat-mesh (two links per neighbour pair)",
        title: "Fig 9 — fat-mesh jitter and best-effort latency",
        labels: [("mix (x:y)", "mix"), ("load", "load")],
        be_latency: true,
    }
    .run(rows, &Topology::fat_mesh(2, 2, 2, 4), args)
}

/// The full scheduler zoo, in matrix order.
pub const ALL_SCHEDULERS: [SchedulerKind; 6] = [
    SchedulerKind::VirtualClock,
    SchedulerKind::Fifo,
    SchedulerKind::RoundRobin,
    SchedulerKind::Wfq,
    SchedulerKind::Drr,
    SchedulerKind::Scfq,
];

/// The load × scheduler × NI policing matrix over the Fig. 3 mix (80:20,
/// 16-VC router), in task order, with each point's `load`, `scheduler`
/// and `policing` label cells. `--loads`, `--schedulers` and `--policing`
/// restrict it; by default it runs `loads` × every scheduler × every
/// policing mode.
fn matrix(args: &RunArgs, loads: &[f64]) -> Vec<([String; 3], Point)> {
    let loads = args.loads.as_deref().unwrap_or(loads);
    let kinds = args.schedulers.as_deref().unwrap_or(&ALL_SCHEDULERS);
    let modes = args.policing.as_deref().unwrap_or(&PolicingMode::ALL);
    let mut rows = Vec::new();
    for &load in loads {
        for &kind in kinds {
            for &mode in modes {
                let mut p = Point::new(load, 80.0, 20.0);
                p.router = RouterConfig::default().scheduler(kind);
                p.policing = mode;
                let cells = [format!("{load:.2}"), format!("{kind:?}"), mode.to_string()];
                rows.push((cells, p));
            }
        }
    }
    rows
}

/// Ablation — the scheduler-discipline zoo crossed with NI policing over
/// the Fig. 3 mix: Virtual Clock, FIFO and round-robin (the paper's
/// §3.3/§6 axis) plus WFQ, DRR and SCFQ, each with policing off, shaping
/// and demotion. `--schedulers`, `--policing` and `--loads` restrict the
/// grid (CI smoke runs a tiny slice); the defaults run the full
/// load × 6 × 3 matrix.
pub fn ablation_sched(args: &RunArgs) -> ExperimentRun {
    let rows = matrix(args, &[0.7, 0.8, 0.9, 0.96]);
    Grid {
        name: "ablation_sched",
        banner: "Ablation: scheduler x policing matrix (16 VCs, mix 80:20)",
        title: "Ablation — scheduler discipline x NI policing",
        labels: [
            ("load", "load"),
            ("scheduler", "scheduler"),
            ("policing", "policing"),
        ],
        be_latency: true,
    }
    .run(rows, &Topology::single_switch(8), args)
}

/// Compact roll-up of one point's [`BoundsReport`] for the table row and
/// the top of its JSON record (the full per-stream dump rides along
/// under `"bounds"`). All cycle values are `None`-safe: a saturated
/// point, or FIFO with unregulated best-effort, has no finite bounds.
struct BoundsSummary {
    streams: usize,
    bounded: usize,
    bound_max_cycles: Option<f64>,
    observed_max_cycles: Option<f64>,
    tightness_max: Option<f64>,
    violations: usize,
    guaranteed_violations: usize,
}

impl BoundsSummary {
    fn of(report: &BoundsReport) -> BoundsSummary {
        fn fold_max(it: impl Iterator<Item = f64>) -> Option<f64> {
            it.fold(None, |m, v| Some(m.map_or(v, |m| m.max(v))))
        }
        BoundsSummary {
            streams: report.streams.len(),
            bounded: report
                .streams
                .iter()
                .filter(|s| s.bound_cycles.is_some())
                .count(),
            bound_max_cycles: fold_max(report.streams.iter().filter_map(|s| s.bound_cycles)),
            observed_max_cycles: fold_max(
                report.streams.iter().filter_map(|s| s.observed_max_cycles),
            ),
            tightness_max: fold_max(report.streams.iter().filter_map(|s| s.tightness())),
            violations: report.violations.len(),
            guaranteed_violations: report.guaranteed_violations().count(),
        }
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("streams", Json::Uint(self.streams as u64)),
            ("bounded", Json::Uint(self.bounded as u64)),
            ("bound_max_cycles", Json::opt_num(self.bound_max_cycles)),
            (
                "observed_max_cycles",
                Json::opt_num(self.observed_max_cycles),
            ),
            ("tightness_max", Json::opt_num(self.tightness_max)),
            ("violations", Json::Uint(self.violations as u64)),
            (
                "guaranteed_violations",
                Json::Uint(self.guaranteed_violations as u64),
            ),
        ])
    }

    fn cell(v: Option<f64>) -> String {
        v.map_or("-".to_string(), |v| format!("{v:.0}"))
    }
}

/// Extension — the delay-bound audit over the Fig. 3 scheduler × NI
/// policing × load matrix, for CBR and VBR real-time traffic: every
/// point runs with the network-calculus oracle enabled and reports each
/// stream's analytic worst-case latency against the observed maximum
/// (`BENCH_bounds.json` carries the full per-stream bound/observation/
/// tightness records). A violation on a *guaranteed* stream — CBR with
/// policing off, the one case where the arrival envelope is provable —
/// aborts the experiment: that is a simulator bug, not a result.
/// `--schedulers`, `--policing` and `--loads` restrict the grid.
pub fn bounds(args: &RunArgs) -> ExperimentRun {
    banner(
        "Bounds: analytic worst case vs observed (16 VCs, mix 80:20)",
        args,
    );
    let mut t = Table::new([
        "load",
        "scheduler",
        "policing",
        "class",
        "bounded",
        "bound max (cyc)",
        "obs max (cyc)",
        "tightness",
        "viol",
    ])
    .with_title("Delay bounds — network calculus vs simulation");
    // The audit *is* the experiment: force it on whether or not the
    // caller passed `--bounds`.
    let mut bargs = args.clone();
    bargs.bounds = true;
    let mut cells = Vec::new();
    let mut points = Vec::new();
    for ([load, kind, mode], p) in matrix(args, &[0.7, 0.9]) {
        for class in [StreamClass::Cbr, StreamClass::Vbr] {
            let mut p = p.clone();
            p.class = class;
            cells.push([
                load.clone(),
                kind.clone(),
                mode.clone(),
                format!("{class:?}"),
            ]);
            points.push(p);
        }
    }
    let outs = run_points(&points, &Topology::single_switch(8), &bargs);
    let mut records = Vec::new();
    for (i, ([load, kind, mode, class], out)) in cells.iter().zip(&outs).enumerate() {
        let report = out.bounds.as_ref().expect("bounds audit enabled");
        let s = BoundsSummary::of(report);
        assert_eq!(
            s.guaranteed_violations, 0,
            "{load} {kind} {mode} {class}: a guaranteed stream exceeded its \
             analytic bound — simulator bug: {:?}",
            report.violations
        );
        t.row([
            load.clone(),
            kind.clone(),
            mode.clone(),
            class.clone(),
            format!("{}/{}", s.bounded, s.streams),
            BoundsSummary::cell(s.bound_max_cycles),
            BoundsSummary::cell(s.observed_max_cycles),
            s.tightness_max
                .map_or("-".to_string(), |v| format!("{v:.3}")),
            format!("{}", s.violations),
        ]);
        let mut rec = point_json(
            i,
            &[
                ("load", load),
                ("scheduler", kind),
                ("policing", mode),
                ("class", class),
            ],
            out,
        );
        rec.push("bounds_summary", s.to_json());
        rec.push("bounds", report.to_json());
        records.push(rec);
    }
    println!("{t}");
    ExperimentRun {
        name: "bounds",
        table: t,
        points: records,
        sim_cycles: sim_cycles(&outs),
    }
}

/// Ablation — Virtual Clock applied at the crossbar input multiplexer
/// (the paper's point A) vs at the VC output multiplexer (point C), both
/// on the multiplexed crossbar. Quantifies the paper's §3.3 argument.
pub fn ablation_point(args: &RunArgs) -> ExperimentRun {
    let mut rows = Vec::new();
    for &load in &[0.7, 0.8, 0.9, 0.96] {
        for (name, point) in [
            ("A (xbar input)", SchedPoint::CrossbarInput),
            ("C (VC mux)", SchedPoint::VcMux),
        ] {
            let mut p = Point::new(load, 80.0, 20.0);
            p.router = RouterConfig::default().sched_point(point);
            rows.push(([format!("{load:.2}"), name.to_string()], p));
        }
    }
    Grid {
        name: "ablation_point",
        banner: "Ablation: Virtual Clock at point A vs point C (muxed xbar)",
        title: "Ablation — QoS scheduling point",
        labels: [("load", "load"), ("point", "sched_point")],
        be_latency: false,
    }
    .run(rows, &Topology::single_switch(8), args)
}

/// Ablation — dynamic VC borrowing (the paper's §6 "dynamically
/// partitioned resources" future-work direction): when its own partition
/// is exhausted, a message may take a free VC of the other class. The
/// interesting question is whether best-effort improves without hurting
/// the real-time class (Virtual Clock still outranks it at point A).
pub fn ablation_borrowing(args: &RunArgs) -> ExperimentRun {
    let mut rows = Vec::new();
    for &load in &[0.6, 0.7, 0.8, 0.9] {
        for borrowing in [false, true] {
            let mut p = Point::new(load, 90.0, 10.0);
            p.router = RouterConfig::default().vc_borrowing(borrowing);
            let cell = if borrowing { "on" } else { "off" };
            rows.push(([format!("{load:.2}"), cell.to_string()], p));
        }
    }
    Grid {
        name: "ablation_borrowing",
        banner: "Ablation: dynamic VC borrowing (mix 90:10)",
        title: "Ablation — static partition vs VC borrowing",
        labels: [("load", "load"), ("borrowing", "borrowing")],
        be_latency: true,
    }
    .run(rows, &Topology::single_switch(8), args)
}

/// Extension — GOP-structured VBR vs the paper's normal frame model.
/// Real MPEG-2 alternates large I frames with small B/P frames; at equal
/// mean rate the bursts are harder on the router. This experiment asks
/// how much of the jitter-free region that structure costs.
pub fn gop_sensitivity(args: &RunArgs) -> ExperimentRun {
    let mut rows = Vec::new();
    for &load in &[0.6, 0.7, 0.8, 0.9] {
        for model in [FrameModel::Normal, FrameModel::Gop] {
            let mut p = Point::new(load, 100.0, 0.0);
            p.spec = WorkloadSpec {
                frame_model: model,
                ..WorkloadSpec::paper_default()
            };
            rows.push(([format!("{load:.2}"), format!("{model:?}")], p));
        }
    }
    Grid {
        name: "gop_sensitivity",
        banner: "Extension: GOP-structured VBR vs normal frame sizes",
        title: "Extension — frame-size model sensitivity (100:0 VBR)",
        labels: [("load", "load"), ("frame model", "frame_model")],
        be_latency: false,
    }
    .run(rows, &Topology::single_switch(8), args)
}

#[cfg(test)]
mod tests {
    use std::sync::{Condvar, Mutex};

    use super::*;

    fn quick() -> RunArgs {
        RunArgs {
            quick: true,
            seed: 11,
            warmup_secs: 0.02,
            measure_secs: 0.04,
            jobs: Some(2),
            ..RunArgs::default()
        }
    }

    #[test]
    fn be_cell_saturates() {
        assert_eq!(be_cell(50.0), "50.0");
        assert_eq!(be_cell(1e6), "Sat.");
        assert_eq!(be_cell(f64::NAN), "Sat.");
    }

    #[test]
    fn sweep_writes_traces_in_task_order_when_tasks_finish_in_reverse() {
        let path = std::env::temp_dir().join(format!(
            "mediaworm-sweep-order-{}.jsonl",
            std::process::id()
        ));
        // Four tasks, one per worker; each waits until every later task
        // has finished, so they finish in reverse task order.
        let args = RunArgs {
            jobs: Some(4),
            trace: Some(path.clone()),
            ..RunArgs::default()
        };
        let finished = Mutex::new(Vec::new());
        let turn = Condvar::new();
        let out = sweep(
            &args,
            4,
            |task| {
                let mut done = finished.lock().unwrap();
                while done.len() < 3 - task.index {
                    done = turn.wait(done).unwrap();
                }
                done.push(task.index);
                turn.notify_all();
                format!("task {}\n", task.index).into_bytes()
            },
            std::mem::take,
        );
        assert_eq!(*finished.lock().unwrap(), [3, 2, 1, 0]);
        assert_eq!(out.len(), 4, "every task's result comes back");
        let file = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(file, "task 0\ntask 1\ntask 2\ntask 3\n");
    }

    #[test]
    fn table3_rows_match_loads() {
        let run = table3(&quick());
        assert_eq!(run.table.row_count(), 8);
        assert_eq!(run.points.len(), 8);
        assert!(run.sim_cycles > 0);
    }

    #[test]
    fn fig3_produces_full_grid() {
        let run = fig3(&quick());
        assert_eq!(run.table.row_count(), LOADS.len() * 2);
        assert_eq!(run.points.len(), LOADS.len() * 2);
    }

    #[test]
    fn bounds_experiment_reports_per_stream_bounds() {
        let mut args = quick();
        // One cheap slice of the grid: Virtual Clock, policing off and
        // shaping, one load — four points with the CBR/VBR class axis.
        args.schedulers = Some(vec![SchedulerKind::VirtualClock]);
        args.policing = Some(vec![PolicingMode::Off, PolicingMode::Shape]);
        args.loads = Some(vec![0.7]);
        let run = bounds(&args);
        assert_eq!(run.points.len(), 4);
        let doc = run.to_json(1.0).to_string();
        assert!(doc.contains("\"bounds_summary\""));
        assert!(doc.contains("\"tightness\""));
        // The CBR/Off point carries provable envelopes and the sweep
        // asserted none of them were violated; the records must agree.
        assert!(doc.contains("\"guaranteed\":true"));
        assert!(doc.contains("\"guaranteed_violations\":0"));
        assert!(!doc.contains("NaN"), "NaN leaked into JSON: {doc}");
    }

    #[test]
    fn json_document_is_nan_free() {
        let run = fig3(&quick());
        let doc = run.to_json(1.5).to_string();
        assert!(doc.starts_with("{\"experiment\":\"fig3\""));
        assert!(doc.contains("\"throughput\":{\"wall_secs\":1.5"));
        assert!(!doc.contains("NaN"), "NaN leaked into JSON: {doc}");
        assert!(!doc.contains("inf"), "inf leaked into JSON: {doc}");
    }
}
