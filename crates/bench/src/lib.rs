//! Shared experiment harness for the MediaWorm reproduction binaries.
//!
//! Every table and figure of the paper has a binary in `src/bin/` that
//! builds the right workload/topology/router configuration, runs the
//! simulation, and prints the same rows or series the paper reports; the
//! ablations and extensions beyond the paper have binaries too. This
//! library holds what they share: the command-line knobs ([`RunArgs`]),
//! the simulation point ([`Point::run_on_seeded`]), the experiments'
//! result ([`ExperimentRun`]) and the standard `main` body
//! ([`run_experiment`]).
//!
//! # Conventions
//!
//! * All binaries accept `--quick` (shorter measurement window for smoke
//!   runs), `--seed <u64>`, `--warmup <secs>`, `--measure <secs>` and
//!   `--jobs <N>` (worker threads for the sweep, default: all available
//!   cores). Results are bit-identical at any job count — see [`sweep`].
//! * Sweeps resume: `--checkpoint N` snapshots each in-flight point
//!   every `N` simulated cycles under `target/bench/state/`, and
//!   `--resume` restores from those snapshots, continuing interrupted
//!   points bit-identically and reusing finished points' final images.
//! * `--json` writes machine-readable results to
//!   `target/bench/BENCH_<name>.json` by default; `--json PATH` places
//!   the file explicitly.
//! * `--trace PATH` writes the sweep's JSONL flit-event trace to `PATH`,
//!   point by point in task order as the points finish.
//! * Results print as plain-text tables; `EXPERIMENTS.md` records the
//!   paper-vs-measured comparison.

#![warn(missing_docs)]

pub mod experiments;
pub mod sweep;

use std::io::{self, Read};
use std::path::PathBuf;
use std::sync::OnceLock;

use flitnet::VcPartition;
use mediaworm::{sim, RouterConfig, SchedulerKind, SimOpts, SimOutcome};
use metrics::{Json, Table};
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
    /// Worker-thread cap for sweeps (`--jobs`); `None` falls back to the
    /// machine's available parallelism.
    pub jobs: Option<usize>,
    /// Also write machine-readable results to `BENCH_<name>.json` (under
    /// `target/bench/` unless [`RunArgs::json_path`] places it).
    pub json: bool,
    /// Explicit output path for the JSON results (`--json PATH`); implies
    /// [`RunArgs::json`].
    pub json_path: Option<PathBuf>,
    /// Cycles between point checkpoints (`--checkpoint N`). `None` leaves
    /// periodic checkpointing off unless `--resume` asks for the default
    /// cadence; see [`RunArgs::checkpoint_cycles`].
    pub checkpoint: Option<u64>,
    /// Resume points from their snapshots under `target/bench/state/`
    /// (`--resume`): an interrupted point continues from its last
    /// checkpoint and a finished one restores its final image without
    /// stepping. Only images the same build wrote are reused. Restored
    /// runs are bit-identical to uninterrupted ones, except the `skip`
    /// counters, which count only the cycles this run stepped or skipped.
    pub resume: bool,
    /// Record a JSONL flit-event trace of every simulated point to this
    /// path. Each point's trace is appended in task order once every
    /// earlier point's is written, so only points that finished out of
    /// order wait in memory. Every crossbar crossing is a line, so keep the
    /// windows to a few simulated milliseconds (`--warmup`, `--measure`).
    /// Cannot be combined with `--resume`: a resumed point's trace would
    /// cover only the segment after its restore point.
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
    /// filtered run is bit-identical to itself at any `--jobs` setting
    /// but is not a row-subset of the full matrix.
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
    /// abort with a usage message and exit status 2, exactly like
    /// [`RunArgs::from_env`]: unknown flags, windows that are not finite
    /// and positive, and `--trace` together with `--resume`.
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
                        .and_then(|v| parse_window(&v))
                        .unwrap_or_else(|| usage("--warmup needs positive seconds"));
                    explicit_windows = true;
                }
                "--measure" => {
                    args.measure_secs = it
                        .next()
                        .and_then(|v| parse_window(&v))
                        .unwrap_or_else(|| usage("--measure needs positive seconds"));
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
                    args.schedulers = Some(parse_list(&a, it.next(), |s| {
                        parse_scheduler_kind(s).ok_or_else(|| {
                            format!("unknown scheduler {s:?} (vc|fifo|rr|wfq|drr|scfq)")
                        })
                    }));
                }
                "--policing" => args.policing = Some(parse_list(&a, it.next(), str::parse)),
                "--loads" => {
                    args.loads = Some(parse_list(&a, it.next(), |s| {
                        s.trim()
                            .parse()
                            .ok()
                            .filter(|&l: &f64| l > 0.0 && l <= 1.5)
                            .ok_or_else(|| format!("bad load {s:?} (fraction in (0, 1.5])"))
                    }));
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
        if args.trace.is_some() && args.resume {
            usage(
                "--trace cannot be combined with --resume: a resumed point's trace \
                 covers only the segment after its restore point",
            );
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

    /// The sweep worker count: `--jobs`, else the machine's available
    /// parallelism (always at least 1).
    pub fn effective_jobs(&self) -> usize {
        self.jobs.map_or_else(
            || std::thread::available_parallelism().map_or(1, |n| n.get()),
            |n| n.max(1),
        )
    }

    /// The [`SimOpts`] these args imply: the standard watchdog always,
    /// plus the invariant audit when `--audit` was given, the delay-bound
    /// audit when `--bounds` was given and the flit-event trace when
    /// `--trace` was given.
    pub fn sim_opts(&self) -> SimOpts {
        let mut opts = if self.audit {
            SimOpts::audited()
        } else {
            SimOpts::standard()
        };
        if self.bounds {
            opts = opts.bounds();
        }
        opts.trace = self.trace.is_some();
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
    /// given, else `target/bench/BENCH_<name>.json`.
    pub fn out_path(&self, name: &str) -> PathBuf {
        match &self.json_path {
            Some(p) => p.clone(),
            None => PathBuf::from(BENCH_DIR).join(format!("BENCH_{name}.json")),
        }
    }

    /// These args for experiment `name` of a multi-experiment run
    /// (`repro_all`): an explicit `--json PATH` becomes `PATH.<name>.json`
    /// and `--trace PATH` becomes `PATH.<name>.jsonl`, so the experiments
    /// do not overwrite one another's files.
    pub fn for_experiment(&self, name: &str) -> RunArgs {
        let suffixed =
            |base: &PathBuf, ext: &str| PathBuf::from(format!("{}.{name}.{ext}", base.display()));
        RunArgs {
            json_path: self.json_path.as_ref().map(|p| suffixed(p, "json")),
            trace: self.trace.as_ref().map(|p| suffixed(p, "jsonl")),
            ..self.clone()
        }
    }
}

/// Default directory for machine-readable bench artifacts.
pub const BENCH_DIR: &str = "target/bench";

/// Checkpoint cadence `--resume` implies when `--checkpoint` is absent.
const DEFAULT_CHECKPOINT_CYCLES: u64 = 1_000_000;

/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into the FNV-1a hash `h`.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The running program's identity: a hash of its executable's bytes,
/// read once per process. It keys the checkpoint files, so `--resume`
/// reuses only images the same build wrote; after any rebuild a resumed
/// point simulates afresh instead of reporting an older build's results.
/// When the executable cannot be read, the identity is unique to this
/// process, and nothing is reused.
fn build_id() -> u64 {
    static ID: OnceLock<u64> = OnceLock::new();
    *ID.get_or_init(|| {
        let hash_exe = || -> io::Result<u64> {
            let mut file = std::fs::File::open(std::env::current_exe()?)?;
            let mut buf = vec![0; 1 << 16];
            let mut h = FNV_OFFSET;
            loop {
                match file.read(&mut buf)? {
                    0 => return Ok(h),
                    n => h = fnv1a(h, &buf[..n]),
                }
            }
        };
        hash_exe().unwrap_or_else(|_| {
            let nanos = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map_or(0, |d| d.as_nanos());
            fnv1a(
                FNV_OFFSET,
                format!("{}|{nanos}", std::process::id()).as_bytes(),
            )
        })
    })
}

/// Parses the comma-separated `list` after `flag` item by item (`item`
/// returns the error message); aborts with a usage message on the first
/// bad item or a missing list. `split` yields at least one item, so the
/// list is never empty.
fn parse_list<T>(
    flag: &str,
    list: Option<String>,
    item: impl Fn(&str) -> Result<T, String>,
) -> Vec<T> {
    let list = list.unwrap_or_else(|| usage(&format!("{flag} needs a list")));
    list.split(',')
        .map(|s| item(s).unwrap_or_else(|e| usage(&e)))
        .collect()
}

/// Parses a `--warmup` / `--measure` window; `None` unless finite and
/// positive.
fn parse_window(v: &str) -> Option<f64> {
    v.parse().ok().filter(|s: &f64| s.is_finite() && *s > 0.0)
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
         [--json [PATH]] [--checkpoint CYCLES] [--resume] [--audit] [--bounds] \
         [--trace PATH] [--schedulers LIST] [--policing LIST] [--loads LIST]"
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

    /// Runs this point over `topology` with an explicit workload seed
    /// (sweeps derive one per task; see [`sweep`]). When the args ask for
    /// `--trace`, the outcome carries the point's JSONL flit-event trace
    /// in [`SimOutcome::trace`]; writing it is the caller's job.
    ///
    /// When the args ask for checkpointing ([`RunArgs::checkpoint_cycles`]),
    /// the run snapshots periodically to a point-specific file under
    /// `target/bench/state/`, leaves its final image there, and — with
    /// `--resume` — restores from it first. Checkpointed, resumed and
    /// plain runs all produce identical bits, except a resumed run's
    /// `skip` counters, which cover only the cycles after its restore.
    ///
    /// # Panics
    ///
    /// Panics with the [`sim::SimError`] when the point cannot run:
    /// checkpoint I/O fails, or `--bounds` meets a topology without a
    /// delay bound (a torus).
    pub fn run_on_seeded(&self, topology: &Topology, args: &RunArgs, seed: u64) -> SimOutcome {
        let workload = self.workload(topology, seed);
        let (w, m) = args.windows();
        // The snapshot file name hashes everything that defines the run,
        // so a resumed sweep finds exactly the snapshots its own
        // interrupted points wrote.
        let ckpt = args
            .checkpoint_cycles()
            .map(|interval_cycles| sim::CheckpointOpts {
                interval_cycles,
                path: self.state_path(topology, args, seed),
                resume: args.resume,
            });
        sim::run_with(
            topology,
            workload,
            &self.router,
            w,
            m,
            args.sim_opts(),
            ckpt.as_ref(),
        )
        .unwrap_or_else(|e| panic!("{e}"))
    }

    /// `target/bench/state/point-<hash>.snap` for this (point, seed) run:
    /// where a checkpointed run keeps its snapshot, and its final image
    /// once it completes. The hash covers topology, point parameters,
    /// seed, windows, [`RunArgs::sim_opts`] and the running executable
    /// (see [`build_id`]), so distinct points never share state, an
    /// `--audit` or `--bounds` run never resumes an image from a run
    /// without that option, and a rebuilt program never resumes an image
    /// an older build wrote.
    pub fn state_path(&self, topology: &Topology, args: &RunArgs, seed: u64) -> PathBuf {
        let key = format!(
            "{:?}|{:?}|{seed}|{}|{}|{:?}|{:016x}",
            topology,
            self,
            args.warmup_secs.to_bits(),
            args.measure_secs.to_bits(),
            args.sim_opts(),
            build_id()
        );
        let h = fnv1a(FNV_OFFSET, key.as_bytes());
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

/// The full result of one experiment: the printed table plus the
/// machine-readable per-point records and simulated-cycle accounting.
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
}

impl ExperimentRun {
    /// The machine-readable document `--json` writes: experiment name,
    /// per-point results (each tagged with its task index by the
    /// experiment), and throughput (wall-clock seconds, simulated cycles,
    /// cycles per second).
    pub fn to_json(&self, wall_secs: f64) -> Json {
        let mut doc = Json::obj([
            ("experiment", Json::str(self.name)),
            ("results", Json::arr(self.points.iter().cloned())),
        ]);
        let cycles_per_sec = (wall_secs > 0.0).then(|| self.sim_cycles as f64 / wall_secs);
        doc.push(
            "throughput",
            Json::obj([
                ("wall_secs", Json::num(wall_secs)),
                ("sim_cycles", Json::Uint(self.sim_cycles)),
                ("cycles_per_sec", Json::opt_num(cycles_per_sec)),
            ]),
        );
        doc
    }
}

/// Runs one experiment and reports its `--json` / `--trace` outputs: the
/// standard `main` body of every experiment binary. The experiment's sweep
/// writes the trace file itself; it is created empty up front, so an
/// unwritable path fails before any simulation and a sweep with nothing
/// to trace (PCS points only) still leaves the file.
pub fn run_experiment(args: &RunArgs, f: fn(&RunArgs) -> ExperimentRun) -> ExperimentRun {
    if let Some(path) = &args.trace {
        std::fs::File::create(path).expect("create flit trace");
    }
    let started = std::time::Instant::now();
    let run = f(args);
    let wall_secs = started.elapsed().as_secs_f64();
    if args.json {
        let path = write_json_results(args, &run, wall_secs).expect("write json results");
        println!("json results written to {}", path.display());
    }
    if let Some(path) = &args.trace {
        let bytes = std::fs::metadata(path).expect("stat flit trace").len();
        println!("flit trace ({bytes} bytes) written to {}", path.display());
    }
    run
}

/// Writes `run`'s machine-readable document where the args route it
/// ([`RunArgs::out_path`]) and returns the path. Shared by [`run_experiment`] and `repro-all`.
pub fn write_json_results(
    args: &RunArgs,
    run: &ExperimentRun,
    wall_secs: f64,
) -> io::Result<PathBuf> {
    let path = args.out_path(run.name);
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent)?;
    }
    let doc = run.to_json(wall_secs);
    std::fs::write(&path, format!("{doc}\n"))?;
    Ok(path)
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
        let out = Point::new(0.4, 100.0, 0.0).run_on_seeded(
            &Topology::single_switch(8),
            &args,
            args.seed,
        );
        assert!(out.jitter.intervals > 0);
        assert!(out.trace.is_empty(), "untraced runs carry no trace");
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
    fn checkpoint_and_resume_flags_parse() {
        let a = argv(&["--checkpoint", "50000", "--resume"]);
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
    fn each_experiment_gets_its_own_json_and_trace_paths() {
        let a = argv(&["--json", "out/all.json", "--trace", "t/run"]);
        let fig3 = a.for_experiment("fig3");
        assert_eq!(
            fig3.out_path("fig3"),
            PathBuf::from("out/all.json.fig3.json")
        );
        assert_eq!(fig3.trace, Some(PathBuf::from("t/run.fig3.jsonl")));
        assert_ne!(
            a.for_experiment("bounds").out_path("bounds"),
            fig3.out_path("fig3")
        );
        // Default paths already differ by experiment and stay as they are.
        let bare = argv(&["--json"]).for_experiment("table2");
        assert_eq!(
            bare.out_path("table2"),
            PathBuf::from("target/bench/BENCH_table2.json")
        );
        assert!(bare.trace.is_none());
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
        assert_ne!(base, p.state_path(&topo, &argv(&["--audit"]), 1));
        assert_ne!(base, p.state_path(&topo, &argv(&["--bounds"]), 1));
        assert_eq!(base, p.state_path(&topo, &argv(&["--resume"]), 1));
        assert_eq!(base, p.state_path(&topo, &args, 1));
        assert!(base.starts_with("target/bench/state"));
    }

    #[test]
    fn a_resumed_point_reuses_its_finished_image() {
        let topo = Topology::single_switch(8);
        let point = Point::new(0.6, 80.0, 20.0);
        let args = RunArgs {
            warmup_secs: 0.002,
            measure_secs: 0.004,
            checkpoint: Some(20_000),
            ..RunArgs::default()
        };
        let seed = 0x5e5e;
        let path = point.state_path(&topo, &args, seed);
        let _ = std::fs::remove_file(&path);
        let first = point.run_on_seeded(&topo, &args, seed);
        assert!(first.skip.cycles_stepped > 0);
        assert!(path.exists(), "a finished point leaves its image");

        let resumed = RunArgs {
            resume: true,
            ..args
        };
        let again = point.run_on_seeded(&topo, &resumed, seed);
        std::fs::remove_file(&path).unwrap();
        assert_eq!(
            again.skip.cycles_stepped, 0,
            "a finished point steps no cycle"
        );
        assert_eq!(
            again.jitter.mean_ms.to_bits(),
            first.jitter.mean_ms.to_bits()
        );
        assert_eq!(again.jitter.std_ms.to_bits(), first.jitter.std_ms.to_bits());
        assert_eq!(again.jitter.intervals, first.jitter.intervals);
        assert_eq!(
            again.be_mean_latency_us.to_bits(),
            first.be_mean_latency_us.to_bits()
        );
        assert_eq!(again.be_msgs, first.be_msgs);
        assert_eq!(again.injected_msgs, first.injected_msgs);
        assert_eq!(again.delivered_msgs, first.delivered_msgs);
        assert_eq!(again.in_flight_at_end, first.in_flight_at_end);
        assert_eq!(again.counters, first.counters);
        assert_eq!(again.stall, first.stall);
        assert_eq!(again.audit_violations, first.audit_violations);
    }

    #[test]
    fn experiment_json_handles_zero_wall_time() {
        let run = ExperimentRun {
            name: "unit",
            table: Table::new(["a"]),
            points: Vec::new(),
            sim_cycles: 100,
        };
        let doc = run.to_json(0.0).to_string();
        assert!(doc.contains("\"cycles_per_sec\":null"));
        assert!(!doc.contains("NaN"));
    }
}
