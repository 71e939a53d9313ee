//! Steady-state benchmark of the MediaWorm simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload switch_sat --seed 42 --seconds 10 --trace 0
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --self-test
//! ```
//!
//! Each run measures one workload and prints, as the last line of
//! standard output, one JSON object: `correct`, `attempted`, `failed` and
//! the metrics. `--trace 0` gives the end-to-end metrics, `--trace 1` the
//! per-layer ones. See `README.md` beside this crate for the workloads,
//! the metrics and the checks.

mod calib;
mod layers;
mod report;
mod single;
mod sweep;

use report::Report;
use single::Scenario;

/// The seed whose outcome fingerprints are recorded below.
const DEFAULT_SEED: u64 = 42;

const WORKLOADS: [&str; 3] = ["switch_sat", "wire64_sparse", "fatmesh_fig9"];

/// Measured-window fingerprints of the single-network workloads at
/// [`DEFAULT_SEED`], one per network.
const EXPECTED: [(&str, &[u64]); 3] = [
    (
        "switch_sat",
        &[
            0xc5f8_aaad_245c_cfd4,
            0x71ed_e854_3bae_31d9,
            0xaada_f148_313b_1321,
            0x79cc_da5b_bc79_aeba,
            0x579a_7197_3ca5_02e6,
            0x51ff_dfa4_132a_54af,
            0x13ec_b337_8e0e_ba3d,
            0x399b_dfba_5776_ddd1,
        ],
    ),
    (
        "wire64_sparse",
        &[
            0x8153_1d83_e367_1f79,
            0x46a4_7ec1_68c7_c7e0,
            0xb4f0_8e10_c466_ffa7,
        ],
    ),
    (
        "fatmesh_fig9",
        &[
            0x2a20_f528_4c13_6b4c,
            0xb6cf_a09b_7932_454c,
            0xe4d5_42b1_b765_454e,
        ],
    ),
];

/// Every end-to-end metric, with its unit (`--trace 0`).
const END_TO_END: [(&str, &str); 6] = [
    ("sim_cycles_per_s", "cycles/s"),
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("chunk_ms_p50", "ms"),
    ("chunk_ms_p90", "ms"),
];

/// Every per-layer metric, with its unit (`--trace 1`).
const PER_LAYER: [(&str, &str); 29] = [
    ("net.cycles_stepped", "cycles"),
    ("net.cycles_skipped", "cycles"),
    ("net.horizon_jumps", "count"),
    ("net.ns_per_stepped_cycle", "ns"),
    ("net.ns_per_flit_hop", "ns"),
    ("net.flits_in_flight_mean", "flits"),
    ("router.flit_hops", "count"),
    ("router.mux_conflicts", "count"),
    ("router.conflicts_per_hop", "ratio"),
    ("router.credit_stall_cycles", "cycles"),
    ("router.mean_occupancy_flits", "flits"),
    ("scheduler.pick_ns.vc", "ns"),
    ("scheduler.pick_ns.wfq", "ns"),
    ("scheduler.pick_ns.drr", "ns"),
    ("scheduler.pick_ns.scfq", "ns"),
    ("traffic.msgs", "count"),
    ("traffic.next_message_ns", "ns"),
    ("flitnet.vcbuf_ns", "ns"),
    ("flitnet.link_ns", "ns"),
    ("snap.bytes", "bytes"),
    ("snap.save_ms", "ms"),
    ("snap.restore_ms", "ms"),
    ("bounds.build_ms", "ms"),
    ("bounds.report_ms", "ms"),
    ("topo.build_ms", "ms"),
    ("metrics.summary_us", "us"),
    ("sweep.points", "count"),
    ("sweep.cpu_share", "ratio"),
    ("trace.overhead", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    self_test: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]\n       perfbench --self-test",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        self_test: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs {what}")))
        };
        match flag.as_str() {
            "--workload" => args.workload = value("a name"),
            "--seed" => {
                args.seed = value("a u64")
                    .parse()
                    .unwrap_or_else(|_| usage("--seed needs a u64"));
            }
            "--seconds" => {
                args.seconds = value("seconds")
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .unwrap_or_else(|| usage("--seconds needs a positive number"));
            }
            "--trace" => {
                args.trace = match value("0 or 1").as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace needs 0 or 1"),
                };
            }
            "--self-test" => args.self_test = true,
            other => usage(&format!("unknown flag {other}")),
        }
    }
    if !args.self_test && !WORKLOADS.contains(&args.workload.as_str()) {
        usage("--workload needs one of the workload names");
    }
    args
}

/// The recorded fingerprints of `workload` at [`DEFAULT_SEED`].
fn recorded(workload: &str) -> Option<&'static [u64]> {
    EXPECTED
        .iter()
        .find(|(w, _)| *w == workload)
        .map(|&(_, fp)| fp)
}

/// Runs one workload. `corrupt` flips a bit of every recorded
/// fingerprint, which must fail every op (the self-test's negative case).
fn run(workload: &str, seed: u64, seconds: f64, trace: bool, corrupt: bool) -> Report {
    let checked = seed == DEFAULT_SEED;
    let flip = u64::from(corrupt);
    let mut scenario = match workload {
        "switch_sat" => Scenario::switch_sat(seed),
        "wire64_sparse" => Scenario::wire64_sparse(seed),
        "fatmesh_fig9" => Scenario::fatmesh_fig9(seed),
        other => unreachable!("workload {other} was validated"),
    };
    scenario.expected = recorded(workload)
        .filter(|_| checked)
        .map(|fps| fps.iter().map(|fp| fp ^ flip).collect());
    scenario.sweep_expected = checked.then(|| sweep::EXPECTED.map(|fp| fp ^ flip));
    scenario.run(seconds, trace)
}

/// Short runs of every workload in both modes: each prints every metric
/// with its unit and fails no op, and a corrupted fingerprint fails every
/// op. Returns the process exit code.
fn self_test() -> i32 {
    let mut problems = Vec::new();
    for w in WORKLOADS {
        for (trace, names) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            let r = run(w, DEFAULT_SEED, 0.5, trace, false);
            let got: Vec<(&str, &str)> = r.metrics.iter().map(|m| (m.name, m.unit)).collect();
            if got != names {
                problems.push(format!("{w} trace={trace}: metrics {got:?}"));
            }
            if r.attempted == 0 || r.failed != 0 {
                problems.push(format!(
                    "{w} trace={trace}: {} of {} ops failed",
                    r.failed, r.attempted
                ));
            }
            println!("# self-test {w} trace={trace}: {}", r.to_json_line());
        }
    }
    for trace in [false, true] {
        let r = run("wire64_sparse", DEFAULT_SEED, 0.5, trace, true);
        if r.attempted == 0 || r.failed != r.attempted {
            problems.push(format!(
                "trace={trace}: corrupted fingerprints failed {} of {} ops",
                r.failed, r.attempted
            ));
        }
    }
    for p in &problems {
        eprintln!("self-test: {p}");
    }
    println!(
        "self-test: {}",
        if problems.is_empty() { "ok" } else { "FAILED" }
    );
    i32::from(!problems.is_empty())
}

fn main() {
    let args = parse_args();
    if args.self_test {
        std::process::exit(self_test());
    }
    let report = run(&args.workload, args.seed, args.seconds, args.trace, false);
    println!("{}", report.to_json_line());
}
