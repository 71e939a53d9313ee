//! The sweep layer, probed in every traced run: the scheduler × policing
//! ablation driven through its command-line flags, with periodic
//! checkpoints and two sweep workers. It runs the Virtual Clock
//! alternatives (WFQ, DRR, SCFQ), NI policing, snapshot writes beside
//! stepping, and the sweep pool.

use std::time::Instant;

use mediaworm::SchedulerKind;
use mediaworm_bench::sweep::derive_seed;
use mediaworm_bench::{experiments, Point, RunArgs};
use metrics::Json;
use topo::Topology;
use traffic::PolicingMode;

use crate::report::{self, Fnv, Report, Tracer};
use crate::single::WARM_MS;

/// The experiment flags, as a user would type them: 6 points of 1M
/// cycles each.
const FLAGS: [&str; 14] = [
    "--schedulers",
    "wfq,drr,scfq",
    "--policing",
    "shape,demote",
    "--loads",
    "0.9",
    "--warmup",
    "0.04",
    "--measure",
    "0.04",
    "--checkpoint",
    "250000",
    "--jobs",
    "2",
];

/// Sweep workers, as `--jobs` sets them.
const JOBS: f64 = 2.0;

/// The grid in task order: loads × schedulers × policing modes.
const GRID: [(SchedulerKind, PolicingMode); 6] = [
    (SchedulerKind::Wfq, PolicingMode::Shape),
    (SchedulerKind::Wfq, PolicingMode::Demote),
    (SchedulerKind::Drr, PolicingMode::Shape),
    (SchedulerKind::Drr, PolicingMode::Demote),
    (SchedulerKind::Scfq, PolicingMode::Shape),
    (SchedulerKind::Scfq, PolicingMode::Demote),
];

/// Each point's record fingerprint at the default seed.
pub const EXPECTED: [u64; 6] = [
    0xddc8_dea4_5fae_3470,
    0x8f7f_a220_d5ea_75f1,
    0x604a_b10d_88c7_9de5,
    0x31aa_76e4_4e5d_55b3,
    0x2c02_9398_09df_d5aa,
    0x54ee_ab47_49f9_52d7,
];

/// The sweep layer's numbers.
pub struct Probe {
    pub points: usize,
    /// Process CPU time over `jobs` × wall time.
    pub cpu_share: f64,
}

/// Whether every real-time stream of sweep task `i` sends its first
/// message before the point's measurement phase opens.
fn streams_begin_in_warmup(seed: u64, i: usize) -> bool {
    let warm = traffic::WorkloadSpec::paper_default()
        .timebase()
        .cycles_from_ms(WARM_MS);
    let (kind, policing) = GRID[i];
    let mut p = Point::new(0.9, 80.0, 20.0);
    p.router = p.router.scheduler(kind);
    p.policing = policing;
    let mut wl = p.workload(&Topology::single_switch(8), derive_seed(seed, i as u64));
    (0..wl.real_time_stream_count()).all(|s| wl.next_message(s).at < warm)
}

fn field<'a>(rec: &'a Json, key: &str) -> Option<&'a Json> {
    match rec {
        Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn uint(rec: &Json, key: &str) -> Option<u64> {
    match field(rec, key)? {
        Json::Uint(n) => Some(*n),
        _ => None,
    }
}

fn record_fingerprint(rec: &Json) -> u64 {
    Fnv::new().bytes(rec.to_string().as_bytes()).finish()
}

/// The first check point `i`'s record fails, if any.
fn record_fault(
    seed: u64,
    i: usize,
    rec: &Json,
    expected: Option<&[u64; 6]>,
) -> Option<&'static str> {
    let conserved = match (
        uint(rec, "injected_msgs"),
        uint(rec, "delivered_msgs"),
        uint(rec, "in_flight_at_end"),
    ) {
        (Some(inj), Some(del), Some(fly)) => inj == del + fly,
        _ => false,
    };
    let checks = [
        (uint(rec, "index") == Some(i as u64), "a point is missing"),
        (
            streams_begin_in_warmup(seed, i),
            "a real-time stream had not begun when the measurement opened",
        ),
        (
            matches!(field(rec, "stall"), Some(Json::Null)),
            "the watchdog tripped",
        ),
        (conserved, "message conservation broken"),
        (
            expected.is_none_or(|e| e[i] == record_fingerprint(rec)),
            "fingerprint differs from the recorded one",
        ),
    ];
    checks.iter().find(|(ok, _)| !ok).map(|&(_, why)| why)
}

/// Runs the sweep once, counting each point as an op of `report`.
pub fn probe(
    seed: u64,
    expected: Option<&[u64; 6]>,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Probe {
    let argv = FLAGS
        .iter()
        .map(|s| s.to_string())
        .chain(["--seed".into(), seed.to_string()]);
    let args = RunArgs::from_argv(argv);
    let cpu0 = report::process_cpu_secs();
    let t = Instant::now();
    let run = experiments::ablation_sched(&args);
    let end = Instant::now();
    let cpu = report::process_cpu_secs() - cpu0;
    tracer.record("sweep.ablation_sched", t, end, None, run.sim_cycles);

    let mut first = None;
    for i in 0..GRID.len() {
        let fault = match run.points.get(i) {
            Some(rec) => record_fault(seed, i, rec, expected),
            None => Some("a point is missing"),
        };
        report.op(fault.is_none());
        first = first.or(fault);
    }
    if let Some(why) = first {
        eprintln!("# sweep: failed op: {why}");
    }
    let wall = (end - t).as_secs_f64();
    let fps: Vec<String> = run
        .points
        .iter()
        .map(|r| format!("{:#018x}", record_fingerprint(r)))
        .collect();
    println!(
        "# sweep: ablation_sched seed {seed} | {} points, {} cycles in {wall:.2} s | fingerprints [{}]",
        run.points.len(),
        run.sim_cycles,
        fps.join(" ")
    );
    Probe {
        points: run.points.len(),
        cpu_share: cpu / (JOBS * wall),
    }
}
