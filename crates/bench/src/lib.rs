//! Shared experiment harness for the MediaWorm reproduction binaries.
//!
//! Every table and figure of the paper has a binary in `src/bin/` that
//! builds the right workload/topology/router configuration, runs the
//! simulation, and prints the same rows or series the paper reports. This
//! library holds what they share: the command-line knobs ([`RunArgs`]),
//! the single-point runners ([`run_single_switch`], [`run_fat_mesh`]), and
//! formatting helpers.
//!
//! # Conventions
//!
//! * All binaries accept `--quick` (shorter measurement window for smoke
//!   runs), `--seed <u64>`, `--warmup <secs>`, `--measure <secs>` and
//!   `--jobs <N>` (worker threads for the sweep; also settable via the
//!   `MEDIAWORM_JOBS` environment variable, default: all available
//!   cores). Results are bit-identical at any job count — see
//!   [`sweep`].
//! * Sweeps shard and resume: `--shard i/n` runs only the tasks owned by
//!   shard `i` of `n` and writes `BENCH_<name>.shard<i>of<n>.json`;
//!   [`merge_shards`] (or the `merge_shards` binary) recombines the shard
//!   files into the byte-stable monolithic report. `--checkpoint N`
//!   snapshots each in-flight point every `N` simulated cycles under
//!   `target/bench/state/`, and `--resume` restores from those snapshots,
//!   continuing interrupted points bit-identically.
//! * `--json` writes machine-readable results to
//!   `target/bench/BENCH_<name>.json` by default; `--json PATH` places
//!   the file explicitly.
//! * Results print as plain-text tables; `EXPERIMENTS.md` records the
//!   paper-vs-measured comparison.

#![warn(missing_docs)]

pub mod experiments;
pub mod sweep;

use std::io;
use std::path::{Path, PathBuf};

use flitnet::VcPartition;
use mediaworm::{sim, RouterConfig, SchedulerKind, SimOpts, SimOutcome};
use metrics::{Json, Table};
use netsim::{JsonlSink, NoopSink, TelemetrySink};
use topo::Topology;
use traffic::{PolicingMode, StreamClass, WorkloadBuilder, WorkloadSpec};

/// Command-line arguments shared by all experiment binaries.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Shorter windows for smoke runs.
    pub quick: bool,
    /// Base RNG seed.
    pub seed: u64,
    /// Warm-up window in simulated seconds.
    pub warmup_secs: f64,
    /// Measurement window in simulated seconds.
    pub measure_secs: f64,
    /// Worker-thread cap for sweeps (`--jobs`); `None` falls back to
    /// `MEDIAWORM_JOBS`, then to the machine's available parallelism.
    pub jobs: Option<usize>,
    /// Also write machine-readable results to `BENCH_<name>.json` (under
    /// `target/bench/` unless [`RunArgs::json_path`] places it).
    pub json: bool,
    /// Explicit output path for the JSON results (`--json PATH`); implies
    /// [`RunArgs::json`].
    pub json_path: Option<PathBuf>,
    /// `(index, count)` from `--shard i/n`: run only the sweep tasks this
    /// shard owns (task index `≡ i (mod n)`) and tag the JSON output with
    /// the shard coordinates so [`merge_shards`] can recombine the
    /// reports. `None` runs the whole sweep.
    pub shard: Option<(usize, usize)>,
    /// Cycles between point checkpoints (`--checkpoint N`). `None` leaves
    /// periodic checkpointing off unless `--resume` asks for the default
    /// cadence; see [`RunArgs::checkpoint_cycles`].
    pub checkpoint: Option<u64>,
    /// Resume interrupted points from their snapshots under
    /// `target/bench/state/` (`--resume`). Restored runs are bit-identical
    /// to uninterrupted ones.
    pub resume: bool,
    /// Record a JSONL flit-event trace of every simulated point to this
    /// path. Traces are large; combine with `--quick`.
    pub trace: Option<PathBuf>,
    /// Run every point with the flow-control invariant audit enabled
    /// (`--audit`); violation counts land in the per-point JSON records.
    pub audit: bool,
    /// Run every point with the network-calculus delay-bound audit
    /// enabled (`--bounds`): each real-time stream's analytic worst-case
    /// latency is checked against the observed maximum, and the
    /// per-stream bounds land in the per-point JSON records. Only
    /// feedforward topologies (the single switch, meshes) have bounds;
    /// a point on a torus aborts with [`sim::SimError::Bounds`].
    pub bounds: bool,
    /// `--schedulers LIST`: restrict matrix experiments (`ablation_sched`)
    /// to these disciplines (comma-separated: `vc`, `fifo`, `rr`, `wfq`,
    /// `drr`, `scfq`). `None` runs the full set. Note that per-point seeds
    /// derive from the task index *within the selected grid*, so a
    /// filtered run is bit-identical to itself at any `--jobs`/`--shard`
    /// setting but is not a row-subset of the full matrix.
    pub schedulers: Option<Vec<SchedulerKind>>,
    /// `--policing LIST`: restrict matrix experiments to these NI policing
    /// modes (comma-separated: `off`, `shape`, `demote`). `None` runs all.
    pub policing: Option<Vec<PolicingMode>>,
    /// `--loads LIST`: restrict matrix experiments to these input loads
    /// (comma-separated fractions). `None` runs the experiment's default
    /// load grid.
    pub loads: Option<Vec<f64>>,
}

impl RunArgs {
    /// Parses `std::env::args()`. Unknown flags abort with a usage
    /// message.
    pub fn from_env() -> RunArgs {
        RunArgs::from_argv(std::env::args().skip(1))
    }

    /// Parses an explicit argument list (no binary name). Invalid flags
    /// abort with a usage message, exactly like [`RunArgs::from_env`].
    pub fn from_argv(argv: impl IntoIterator<Item = String>) -> RunArgs {
        let mut args = RunArgs::default();
        let mut it = argv.into_iter().peekable();
        let mut explicit_windows = false;
        while let Some(a) = it.next() {
            match a.as_str() {
                "--quick" => args.quick = true,
                "--seed" => {
                    args.seed = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--seed needs a u64"));
                }
                "--warmup" => {
                    args.warmup_secs = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--warmup needs seconds"));
                    explicit_windows = true;
                }
                "--measure" => {
                    args.measure_secs = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--measure needs seconds"));
                    explicit_windows = true;
                }
                "--jobs" => {
                    let n: usize = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--jobs needs a positive count"));
                    if n == 0 {
                        usage("--jobs needs a positive count");
                    }
                    args.jobs = Some(n);
                }
                "--json" => {
                    args.json = true;
                    if it.peek().is_some_and(|next| !next.starts_with("--")) {
                        args.json_path = it.next().map(PathBuf::from);
                    }
                }
                "--shard" => {
                    let spec = it.next().unwrap_or_else(|| usage("--shard needs i/n"));
                    args.shard = Some(
                        parse_shard(&spec).unwrap_or_else(|| usage("--shard needs i/n with i < n")),
                    );
                }
                "--checkpoint" => {
                    args.checkpoint = Some(
                        it.next()
                            .and_then(|v| v.parse().ok())
                            .unwrap_or_else(|| usage("--checkpoint needs a cycle count")),
                    );
                }
                "--resume" => args.resume = true,
                "--audit" => args.audit = true,
                "--bounds" => args.bounds = true,
                "--schedulers" => {
                    let list = it
                        .next()
                        .unwrap_or_else(|| usage("--schedulers needs a list"));
                    let kinds: Vec<SchedulerKind> = list
                        .split(',')
                        .map(|s| {
                            parse_scheduler_kind(s).unwrap_or_else(|| {
                                usage(&format!(
                                    "unknown scheduler {s:?} (vc|fifo|rr|wfq|drr|scfq)"
                                ))
                            })
                        })
                        .collect();
                    if kinds.is_empty() {
                        usage("--schedulers needs a non-empty list");
                    }
                    args.schedulers = Some(kinds);
                }
                "--policing" => {
                    let list = it
                        .next()
                        .unwrap_or_else(|| usage("--policing needs a list"));
                    let modes: Vec<PolicingMode> = list
                        .split(',')
                        .map(|s| s.parse().unwrap_or_else(|e: String| usage(&e)))
                        .collect();
                    if modes.is_empty() {
                        usage("--policing needs a non-empty list");
                    }
                    args.policing = Some(modes);
                }
                "--loads" => {
                    let list = it.next().unwrap_or_else(|| usage("--loads needs a list"));
                    let loads: Vec<f64> = list
                        .split(',')
                        .map(|s| {
                            s.trim()
                                .parse()
                                .ok()
                                .filter(|&l: &f64| l > 0.0 && l <= 1.5)
                                .unwrap_or_else(|| {
                                    usage(&format!("bad load {s:?} (fraction in (0, 1.5])"))
                                })
                        })
                        .collect();
                    if loads.is_empty() {
                        usage("--loads needs a non-empty list");
                    }
                    args.loads = Some(loads);
                }
                "--trace" => {
                    args.trace = Some(PathBuf::from(
                        it.next().unwrap_or_else(|| usage("--trace needs a path")),
                    ));
                }
                "--help" | "-h" => usage(""),
                other => usage(&format!("unknown flag {other}")),
            }
        }
        if args.quick && !explicit_windows {
            args.warmup_secs = 0.05;
            args.measure_secs = 0.15;
        }
        args
    }

    /// The `(warmup, measure)` windows in seconds.
    pub fn windows(&self) -> (f64, f64) {
        (self.warmup_secs, self.measure_secs)
    }

    /// The sweep worker count: `--jobs`, else `MEDIAWORM_JOBS`, else the
    /// machine's available parallelism (always at least 1).
    pub fn effective_jobs(&self) -> usize {
        if let Some(n) = self.jobs {
            return n.max(1);
        }
        if let Some(n) = std::env::var("MEDIAWORM_JOBS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
        {
            return n;
        }
        std::thread::available_parallelism().map_or(1, |n| n.get())
    }

    /// The [`SimOpts`] these args imply: the standard watchdog always,
    /// plus the invariant audit when `--audit` was given and the
    /// delay-bound audit when `--bounds` was given.
    pub fn sim_opts(&self) -> SimOpts {
        let mut opts = if self.audit {
            SimOpts::audited()
        } else {
            SimOpts::standard()
        };
        if self.bounds {
            opts = opts.bounds();
        }
        opts
    }

    /// The checkpoint cadence in simulated cycles, if points should
    /// checkpoint at all: `--checkpoint N` wins, and bare `--resume`
    /// implies the default cadence of one million cycles (so a resumed
    /// sweep keeps writing the snapshots it will need next time).
    pub fn checkpoint_cycles(&self) -> Option<u64> {
        match self.checkpoint {
            Some(n) => Some(n),
            None if self.resume => Some(DEFAULT_CHECKPOINT_CYCLES),
            None => None,
        }
    }

    /// Where the JSON results of experiment `name` go: `--json PATH` if
    /// given, else `target/bench/BENCH_<name>.json` — suffixed
    /// `.shard<i>of<n>` when this run is one shard of a sweep.
    pub fn out_path(&self, name: &str) -> PathBuf {
        match &self.json_path {
            Some(p) => p.clone(),
            None => PathBuf::from(BENCH_DIR).join(shard_file_name(name, self.shard)),
        }
    }
}

/// Default directory for machine-readable bench artifacts.
pub const BENCH_DIR: &str = "target/bench";

/// Checkpoint cadence `--resume` implies when `--checkpoint` is absent.
const DEFAULT_CHECKPOINT_CYCLES: u64 = 1_000_000;

/// The file name shard `shard` of experiment `name` writes.
fn shard_file_name(name: &str, shard: Option<(usize, usize)>) -> String {
    match shard {
        Some((i, n)) => format!("BENCH_{name}.shard{i}of{n}.json"),
        None => format!("BENCH_{name}.json"),
    }
}

/// Parses the `i/n` of `--shard i/n`; `None` if malformed or `i >= n`.
fn parse_shard(spec: &str) -> Option<(usize, usize)> {
    let (i, n) = spec.split_once('/')?;
    let i: usize = i.trim().parse().ok()?;
    let n: usize = n.trim().parse().ok()?;
    (i < n).then_some((i, n))
}

impl Default for RunArgs {
    fn default() -> RunArgs {
        RunArgs {
            quick: false,
            seed: 42,
            warmup_secs: 0.1,
            measure_secs: 0.4,
            jobs: None,
            json: false,
            json_path: None,
            shard: None,
            checkpoint: None,
            resume: false,
            trace: None,
            audit: false,
            bounds: false,
            schedulers: None,
            policing: None,
            loads: None,
        }
    }
}

/// Parses a scheduler name for `--schedulers` (case-insensitive, with
/// the short aliases the ablation docs use).
pub fn parse_scheduler_kind(s: &str) -> Option<SchedulerKind> {
    match s.trim().to_ascii_lowercase().as_str() {
        "vc" | "virtualclock" | "virtual_clock" => Some(SchedulerKind::VirtualClock),
        "fifo" => Some(SchedulerKind::Fifo),
        "rr" | "roundrobin" | "round_robin" => Some(SchedulerKind::RoundRobin),
        "wfq" => Some(SchedulerKind::Wfq),
        "drr" => Some(SchedulerKind::Drr),
        "scfq" => Some(SchedulerKind::Scfq),
        _ => None,
    }
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    eprintln!(
        "usage: <experiment> [--quick] [--seed N] [--warmup SECS] [--measure SECS] [--jobs N] \
         [--json [PATH]] [--shard I/N] [--checkpoint CYCLES] [--resume] [--audit] \
         [--bounds] [--trace PATH] [--schedulers LIST] [--policing LIST] [--loads LIST]"
    );
    std::process::exit(2);
}

/// Parameters for one simulation point.
#[derive(Debug, Clone)]
pub struct Point {
    /// Total input load as a fraction of link bandwidth.
    pub load: f64,
    /// Real-time share of the mix.
    pub mix_x: f64,
    /// Best-effort share of the mix.
    pub mix_y: f64,
    /// VBR or CBR for the real-time component.
    pub class: StreamClass,
    /// Router configuration.
    pub router: RouterConfig,
    /// NI policing mode for the real-time streams.
    pub policing: PolicingMode,
    /// Physical workload parameters.
    pub spec: WorkloadSpec,
}

impl Point {
    /// A paper-default point: VBR, Table 1 spec, 16-VC Virtual Clock
    /// router.
    pub fn new(load: f64, mix_x: f64, mix_y: f64) -> Point {
        Point {
            load,
            mix_x,
            mix_y,
            class: StreamClass::Vbr,
            router: RouterConfig::default(),
            policing: PolicingMode::Off,
            spec: WorkloadSpec::paper_default(),
        }
    }

    /// The VC partition the point's mix implies.
    pub fn partition(&self) -> VcPartition {
        if self.mix_y == 0.0 {
            VcPartition::all_real_time(self.router.vcs_per_pc())
        } else {
            VcPartition::from_mix(self.router.vcs_per_pc(), self.mix_x, self.mix_y)
        }
    }

    /// Runs this point over `topology` with the args' base seed.
    pub fn run_on(&self, topology: &Topology, args: &RunArgs) -> SimOutcome {
        self.run_on_seeded(topology, args, args.seed).0
    }

    /// Runs this point over `topology` with an explicit workload seed
    /// (sweeps derive one per task; see [`sweep`]), returning the outcome
    /// and — when the args ask for `--trace` — the point's JSONL
    /// flit-event trace (empty otherwise).
    ///
    /// When the args ask for checkpointing ([`RunArgs::checkpoint_cycles`]),
    /// the run snapshots periodically to a point-specific file under
    /// `target/bench/state/` and — with `--resume` — restores from it
    /// first. Checkpointed, resumed and plain runs all produce identical
    /// bits.
    ///
    /// # Panics
    ///
    /// Panics with the [`sim::SimError`] when the point cannot run:
    /// checkpoint I/O fails, or `--bounds` meets a topology without a
    /// delay bound (a torus).
    pub fn run_on_seeded(
        &self,
        topology: &Topology,
        args: &RunArgs,
        seed: u64,
    ) -> (SimOutcome, Vec<u8>) {
        let workload = self.workload(topology, seed);
        let (w, m) = args.windows();
        let ckpt = self.checkpoint_opts(topology, args, seed);
        let mut trace = args.trace.is_some().then(JsonlSink::new);
        let sink: &mut dyn TelemetrySink = match &mut trace {
            Some(t) => t,
            None => &mut NoopSink,
        };
        let out = sim::run_with(
            topology,
            workload,
            &self.router,
            w,
            m,
            args.sim_opts(),
            ckpt.as_ref(),
            sink,
        )
        .unwrap_or_else(|e| panic!("{e}"));
        (out, trace.map_or_else(Vec::new, JsonlSink::into_bytes))
    }

    /// The checkpoint configuration these args imply for this point, if
    /// any. The snapshot file name hashes everything that defines the
    /// run — topology, point parameters, seed and windows — so distinct
    /// points never share state and a resumed sweep finds exactly the
    /// snapshots its own interrupted points wrote.
    fn checkpoint_opts(
        &self,
        topology: &Topology,
        args: &RunArgs,
        seed: u64,
    ) -> Option<sim::CheckpointOpts> {
        let interval_cycles = args.checkpoint_cycles()?;
        Some(sim::CheckpointOpts {
            interval_cycles,
            path: self.state_path(topology, args, seed),
            resume: args.resume,
        })
    }

    /// `target/bench/state/point-<hash>.snap` for this (point, seed) run:
    /// where a checkpointed run keeps its snapshot until it completes.
    pub fn state_path(&self, topology: &Topology, args: &RunArgs, seed: u64) -> PathBuf {
        let key = format!(
            "{:?}|{:?}|{seed}|{}|{}",
            topology,
            self,
            args.warmup_secs.to_bits(),
            args.measure_secs.to_bits()
        );
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in key.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        PathBuf::from(BENCH_DIR)
            .join("state")
            .join(format!("point-{h:016x}.snap"))
    }

    /// The [`traffic::Workload`] this point implies over `topology` with
    /// `seed` — exactly what the runners simulate. Public so tooling and
    /// tests can reconstruct a point's network state.
    pub fn workload(&self, topology: &Topology, seed: u64) -> traffic::Workload {
        WorkloadBuilder::new(topology.node_count(), self.partition())
            .spec(self.spec.clone())
            .load(self.load)
            .mix(self.mix_x, self.mix_y)
            .real_time_class(self.class)
            .seed(seed)
            .policing(self.policing)
            .build()
    }
}

/// Runs one point on the paper's 8-port single switch.
pub fn run_single_switch(point: &Point, args: &RunArgs) -> SimOutcome {
    point.run_on(&Topology::single_switch(8), args)
}

/// [`run_single_switch`] with an explicit workload seed; see
/// [`Point::run_on_seeded`] for the trace bytes.
pub fn run_single_switch_seeded(point: &Point, args: &RunArgs, seed: u64) -> (SimOutcome, Vec<u8>) {
    point.run_on_seeded(&Topology::single_switch(8), args, seed)
}

/// Runs one point on the paper's 2×2 fat-mesh (two parallel links per
/// neighbour pair, 4 endpoints per switch).
pub fn run_fat_mesh(point: &Point, args: &RunArgs) -> SimOutcome {
    point.run_on(&Topology::fat_mesh(2, 2, 2, 4), args)
}

/// [`run_fat_mesh`] with an explicit workload seed; see
/// [`Point::run_on_seeded`] for the trace bytes.
pub fn run_fat_mesh_seeded(point: &Point, args: &RunArgs, seed: u64) -> (SimOutcome, Vec<u8>) {
    point.run_on_seeded(&Topology::fat_mesh(2, 2, 2, 4), args, seed)
}

/// The full result of one experiment: the printed table plus the
/// machine-readable per-point records, simulated-cycle accounting and
/// (when tracing was requested) the concatenated flit-event trace.
#[derive(Debug, Clone)]
pub struct ExperimentRun {
    /// Short machine-friendly name (`fig3`, `table2`, ...); names the
    /// `BENCH_<name>.json` output file.
    pub name: &'static str,
    /// The paper-style text table the experiment printed.
    pub table: Table,
    /// One JSON object per simulated point, in sweep (task) order.
    pub points: Vec<Json>,
    /// Total simulated cycles across every point of the sweep.
    pub sim_cycles: u64,
    /// Concatenated JSONL flit-event trace, point order; empty unless
    /// `--trace` was given (PCS points do not produce trace events).
    pub trace: Vec<u8>,
}

impl ExperimentRun {
    /// The machine-readable document `--json` writes: experiment name,
    /// per-point results, and throughput (wall-clock seconds, simulated
    /// cycles, cycles per second).
    pub fn to_json(&self, wall_secs: f64) -> Json {
        let cycles_per_sec = (wall_secs > 0.0).then(|| self.sim_cycles as f64 / wall_secs);
        Json::obj([
            ("experiment", Json::str(self.name)),
            ("results", Json::arr(self.points.iter().cloned())),
            (
                "throughput",
                Json::obj([
                    ("wall_secs", Json::num(wall_secs)),
                    ("sim_cycles", Json::Uint(self.sim_cycles)),
                    ("cycles_per_sec", Json::opt_num(cycles_per_sec)),
                ]),
            ),
        ])
    }

    /// The shard variant of [`ExperimentRun::to_json`]: the same
    /// per-point records (each tagged with its global task index by the
    /// experiment), plus the shard coordinates [`merge_shards`] needs to
    /// recombine the reports.
    pub fn to_shard_json(&self, wall_secs: f64, shard: (usize, usize)) -> Json {
        let cycles_per_sec = (wall_secs > 0.0).then(|| self.sim_cycles as f64 / wall_secs);
        Json::obj([
            ("experiment", Json::str(self.name)),
            (
                "shard",
                Json::obj([
                    ("index", Json::Uint(shard.0 as u64)),
                    ("count", Json::Uint(shard.1 as u64)),
                ]),
            ),
            ("results", Json::arr(self.points.iter().cloned())),
            (
                "throughput",
                Json::obj([
                    ("wall_secs", Json::num(wall_secs)),
                    ("sim_cycles", Json::Uint(self.sim_cycles)),
                    ("cycles_per_sec", Json::opt_num(cycles_per_sec)),
                ]),
            ),
        ])
    }
}

/// Runs one experiment and handles its `--json` / `--trace` outputs: the
/// standard `main` body of every experiment binary. Returns the run so
/// callers (`repro-all`) can collect the tables.
pub fn run_experiment(args: &RunArgs, f: fn(&RunArgs) -> ExperimentRun) -> ExperimentRun {
    let started = std::time::Instant::now();
    let run = f(args);
    let wall_secs = started.elapsed().as_secs_f64();
    if args.json {
        let path = write_json_results(args, &run, wall_secs).expect("write json results");
        println!("json results written to {}", path.display());
    }
    if let Some(path) = &args.trace {
        std::fs::write(path, &run.trace).expect("write flit trace");
        println!(
            "flit trace ({} bytes) written to {}",
            run.trace.len(),
            path.display()
        );
    }
    run
}

/// Writes `run`'s machine-readable document where the args route it
/// ([`RunArgs::out_path`], shard-suffixed under a shard) and returns the
/// path. Shared by [`run_experiment`] and `repro-all`.
pub fn write_json_results(
    args: &RunArgs,
    run: &ExperimentRun,
    wall_secs: f64,
) -> io::Result<PathBuf> {
    let path = args.out_path(run.name);
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent)?;
    }
    let doc = match args.shard {
        Some(shard) => run.to_shard_json(wall_secs, shard),
        None => run.to_json(wall_secs),
    };
    std::fs::write(&path, format!("{doc}\n"))?;
    Ok(path)
}

/// Merges the `BENCH_<name>.shard<i>of<count>.json` files in `dir` into
/// the monolithic `BENCH_<name>.json` there and returns its path.
///
/// The merged document is canonical and byte-stable: records appear in
/// global task-index order exactly as the shards wrote them, simulated
/// cycles add up, and the wall-clock throughput fields are `null` (the
/// shards ran on different clocks, so only simulated work is meaningful).
/// Merging the same sweep split into any number of shards therefore
/// yields identical bytes.
///
/// Errors with [`io::ErrorKind::InvalidData`] if a shard file names the
/// wrong experiment or shard, lacks its results, or the shards' records
/// do not cover every task index exactly once.
pub fn merge_shards(name: &str, dir: &Path, count: usize) -> io::Result<PathBuf> {
    assert!(count >= 1, "a merge needs at least one shard");
    let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    let mut records: Vec<(u64, String)> = Vec::new();
    let mut sim_cycles: u64 = 0;
    for i in 0..count {
        let path = dir.join(shard_file_name(name, Some((i, count))));
        let doc = std::fs::read_to_string(&path)?;
        let bad = |msg: &str| invalid(format!("{}: {msg}", path.display()));
        if !doc.contains(&format!("\"experiment\":\"{name}\"")) {
            return Err(bad("names a different experiment"));
        }
        if !doc.contains(&format!("\"shard\":{{\"index\":{i},\"count\":{count}}}")) {
            return Err(bad("carries different shard coordinates"));
        }
        let results = json_array(&doc, "results").ok_or_else(|| bad("has no results array"))?;
        for rec in json_split_top(results) {
            let idx =
                json_uint(rec, "index").ok_or_else(|| bad("has a record without an index"))?;
            records.push((idx, rec.to_string()));
        }
        sim_cycles += json_uint(&doc, "sim_cycles").ok_or_else(|| bad("has no sim_cycles"))?;
    }
    records.sort_by_key(|&(idx, _)| idx);
    for (expect, &(idx, _)) in records.iter().enumerate() {
        if idx != expect as u64 {
            return Err(invalid(format!(
                "BENCH_{name} shards: task index {expect} is missing or duplicated"
            )));
        }
    }
    let body: Vec<String> = records.into_iter().map(|(_, r)| r).collect();
    let doc = format!(
        "{{\"experiment\":\"{name}\",\"results\":[{}],\"throughput\":{{\"wall_secs\":null,\
         \"sim_cycles\":{sim_cycles},\"cycles_per_sec\":null}}}}\n",
        body.join(",")
    );
    let out = dir.join(shard_file_name(name, None));
    std::fs::write(&out, doc)?;
    Ok(out)
}

/// The raw text inside the first `"<key>":[...]` array of a compact JSON
/// document (the serializer's own whitespace-free output; strings and
/// nesting are tracked, insignificant whitespace is not handled).
fn json_array<'a>(doc: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":[");
    let start = doc.find(&needle)? + needle.len();
    let mut depth = 1i32;
    let mut in_str = false;
    let mut escape = false;
    for (off, &b) in doc.as_bytes()[start..].iter().enumerate() {
        if escape {
            escape = false;
            continue;
        }
        match b {
            b'\\' if in_str => escape = true,
            b'"' => in_str = !in_str,
            _ if in_str => {}
            b'[' | b'{' => depth += 1,
            b']' | b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(&doc[start..start + off]);
                }
            }
            _ => {}
        }
    }
    None
}

/// Splits the inside of a compact JSON array at its top-level commas.
fn json_split_top(inner: &str) -> Vec<&str> {
    let mut out = Vec::new();
    if inner.is_empty() {
        return out;
    }
    let mut depth = 0i32;
    let mut in_str = false;
    let mut escape = false;
    let mut start = 0usize;
    for (off, &b) in inner.as_bytes().iter().enumerate() {
        if escape {
            escape = false;
            continue;
        }
        match b {
            b'\\' if in_str => escape = true,
            b'"' => in_str = !in_str,
            _ if in_str => {}
            b'[' | b'{' => depth += 1,
            b']' | b'}' => depth -= 1,
            b',' if depth == 0 => {
                out.push(&inner[start..off]);
                start = off + 1;
            }
            _ => {}
        }
    }
    out.push(&inner[start..]);
    out
}

/// The first `"<key>":<digits>` value in a compact JSON document.
fn json_uint(doc: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let start = doc.find(&needle)? + needle.len();
    let digits = doc[start..]
        .find(|c: char| !c.is_ascii_digit())
        .map_or(&doc[start..], |end| &doc[start..start + end]);
    digits.parse().ok()
}

/// Formats a jitter pair `(d̄, σ_d)` in milliseconds.
pub fn fmt_jitter(outcome: &SimOutcome) -> (String, String) {
    (
        format!("{:.2}", outcome.jitter.mean_ms),
        format!("{:.2}", outcome.jitter.std_ms),
    )
}

/// Prints the standard experiment header.
pub fn banner(title: &str, args: &RunArgs) {
    println!("== {title} ==");
    println!(
        "   (seed {}, warm-up {:.0} ms, measure {:.0} ms{})",
        args.seed,
        args.warmup_secs * 1e3,
        args.measure_secs * 1e3,
        if args.quick { ", quick mode" } else { "" }
    );
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_args_are_sane() {
        let a = RunArgs::default();
        assert!(a.warmup_secs > 0.0 && a.measure_secs > 0.0);
        assert!(!a.quick);
    }

    #[test]
    fn point_partition_handles_pure_real_time() {
        let p = Point::new(0.8, 100.0, 0.0);
        assert_eq!(p.partition().best_effort_count(), 0);
        let q = Point::new(0.8, 80.0, 20.0);
        assert!(q.partition().best_effort_count() > 0);
    }

    #[test]
    fn quick_single_switch_point_runs() {
        let args = RunArgs {
            quick: true,
            seed: 7,
            warmup_secs: 0.02,
            measure_secs: 0.05,
            jobs: Some(1),
            ..RunArgs::default()
        };
        let out = run_single_switch(&Point::new(0.4, 100.0, 0.0), &args);
        assert!(out.jitter.intervals > 0);
    }

    #[test]
    fn run_args_parse_defaults_exclude_json_and_trace() {
        let a = RunArgs::default();
        assert!(!a.json);
        assert!(a.trace.is_none());
    }

    fn argv(flags: &[&str]) -> RunArgs {
        RunArgs::from_argv(flags.iter().map(|s| s.to_string()))
    }

    #[test]
    fn shard_checkpoint_and_resume_flags_parse() {
        let a = argv(&["--shard", "2/5", "--checkpoint", "50000", "--resume"]);
        assert_eq!(a.shard, Some((2, 5)));
        assert_eq!(a.checkpoint, Some(50_000));
        assert!(a.resume);
        assert_eq!(a.checkpoint_cycles(), Some(50_000));
    }

    #[test]
    fn resume_alone_implies_the_default_cadence() {
        let a = argv(&["--resume"]);
        assert_eq!(a.checkpoint_cycles(), Some(DEFAULT_CHECKPOINT_CYCLES));
        assert_eq!(argv(&[]).checkpoint_cycles(), None);
    }

    #[test]
    fn json_takes_an_optional_path() {
        let bare = argv(&["--json", "--audit"]);
        assert!(bare.json && bare.json_path.is_none());
        assert_eq!(
            bare.out_path("fig3"),
            PathBuf::from("target/bench/BENCH_fig3.json")
        );
        let placed = argv(&["--json", "out/results.json"]);
        assert!(placed.json);
        assert_eq!(placed.out_path("fig3"), PathBuf::from("out/results.json"));
    }

    #[test]
    fn sharded_runs_write_shard_suffixed_files() {
        let a = argv(&["--json", "--shard", "1/4"]);
        assert_eq!(
            a.out_path("table2"),
            PathBuf::from("target/bench/BENCH_table2.shard1of4.json")
        );
    }

    #[test]
    fn matrix_filter_flags_parse_lists_and_aliases() {
        let a = argv(&[
            "--schedulers",
            "wfq,drr,scfq",
            "--policing",
            "off,shape",
            "--loads",
            "0.8,0.96",
        ]);
        assert_eq!(
            a.schedulers,
            Some(vec![
                SchedulerKind::Wfq,
                SchedulerKind::Drr,
                SchedulerKind::Scfq
            ])
        );
        assert_eq!(
            a.policing,
            Some(vec![PolicingMode::Off, PolicingMode::Shape])
        );
        assert_eq!(a.loads, Some(vec![0.8, 0.96]));
        assert_eq!(
            parse_scheduler_kind("VirtualClock"),
            Some(SchedulerKind::VirtualClock)
        );
        assert_eq!(
            parse_scheduler_kind("round_robin"),
            Some(SchedulerKind::RoundRobin)
        );
        assert_eq!(parse_scheduler_kind("bogus"), None);
    }

    #[test]
    fn bounds_flag_parses_and_reaches_sim_opts() {
        let a = argv(&["--bounds"]);
        assert!(a.bounds);
        assert!(a.sim_opts().bounds);
        let b = argv(&["--audit"]);
        assert!(!b.bounds);
        assert!(!b.sim_opts().bounds);
    }

    #[test]
    fn shard_spec_rejects_out_of_range_and_garbage() {
        assert_eq!(parse_shard("0/1"), Some((0, 1)));
        assert_eq!(parse_shard("3/4"), Some((3, 4)));
        assert_eq!(parse_shard("4/4"), None);
        assert_eq!(parse_shard("1"), None);
        assert_eq!(parse_shard("a/b"), None);
    }

    #[test]
    fn state_paths_distinguish_points_seeds_and_windows() {
        let topo = Topology::single_switch(8);
        let args = RunArgs::default();
        let p = Point::new(0.4, 80.0, 20.0);
        let q = Point::new(0.5, 80.0, 20.0);
        let base = p.state_path(&topo, &args, 1);
        assert_ne!(base, q.state_path(&topo, &args, 1));
        assert_ne!(base, p.state_path(&topo, &args, 2));
        let mut wide = args.clone();
        wide.measure_secs *= 2.0;
        assert_ne!(base, p.state_path(&topo, &wide, 1));
        assert_eq!(base, p.state_path(&topo, &args, 1));
        assert!(base.starts_with("target/bench/state"));
    }

    #[test]
    fn json_scanner_extracts_arrays_records_and_uints() {
        let doc = r#"{"experiment":"x","results":[{"index":0,"s":"a,{]"},{"index":1,"v":[1,2]}],"throughput":{"sim_cycles":42}}"#;
        let inner = json_array(doc, "results").unwrap();
        let recs = json_split_top(inner);
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0], r#"{"index":0,"s":"a,{]"}"#);
        assert_eq!(recs[1], r#"{"index":1,"v":[1,2]}"#);
        assert_eq!(json_uint(recs[1], "index"), Some(1));
        assert_eq!(json_uint(doc, "sim_cycles"), Some(42));
        assert!(json_array(doc, "missing").is_none());
        assert!(json_split_top("").is_empty());
    }

    #[test]
    fn merge_rejects_incomplete_shard_sets() {
        let dir = std::env::temp_dir().join("mediaworm-merge-incomplete-test");
        std::fs::create_dir_all(&dir).unwrap();
        // Two shards that both claim index 0 (and no index 1).
        for i in 0..2usize {
            let doc = format!(
                "{{\"experiment\":\"unit\",\"shard\":{{\"index\":{i},\"count\":2}},\
                 \"results\":[{{\"index\":0,\"v\":{i}}}],\
                 \"throughput\":{{\"wall_secs\":0.1,\"sim_cycles\":10,\"cycles_per_sec\":100}}}}\n"
            );
            std::fs::write(dir.join(format!("BENCH_unit.shard{i}of2.json")), doc).unwrap();
        }
        let err = merge_shards("unit", &dir, 2).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn merge_produces_the_canonical_report() {
        let dir = std::env::temp_dir().join("mediaworm-merge-canonical-test");
        std::fs::create_dir_all(&dir).unwrap();
        for (i, (indices, cycles)) in [(vec![0u64, 2], 30u64), (vec![1], 12)].iter().enumerate() {
            let recs: Vec<String> = indices
                .iter()
                .map(|idx| format!("{{\"index\":{idx},\"v\":{}}}", idx * 10))
                .collect();
            let doc = format!(
                "{{\"experiment\":\"unit\",\"shard\":{{\"index\":{i},\"count\":2}},\
                 \"results\":[{}],\
                 \"throughput\":{{\"wall_secs\":0.5,\"sim_cycles\":{cycles},\
                 \"cycles_per_sec\":1.0}}}}\n",
                recs.join(",")
            );
            std::fs::write(dir.join(format!("BENCH_unit.shard{i}of2.json")), doc).unwrap();
        }
        let out = merge_shards("unit", &dir, 2).unwrap();
        let merged = std::fs::read_to_string(out).unwrap();
        assert_eq!(
            merged,
            "{\"experiment\":\"unit\",\"results\":[{\"index\":0,\"v\":0},{\"index\":1,\"v\":10},\
             {\"index\":2,\"v\":20}],\"throughput\":{\"wall_secs\":null,\"sim_cycles\":42,\
             \"cycles_per_sec\":null}}\n"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn experiment_json_handles_zero_wall_time() {
        let run = ExperimentRun {
            name: "unit",
            table: Table::new(["a"]),
            points: Vec::new(),
            sim_cycles: 100,
            trace: Vec::new(),
        };
        let doc = run.to_json(0.0).to_string();
        assert!(doc.contains("\"cycles_per_sec\":null"));
        assert!(!doc.contains("NaN"));
    }
}
