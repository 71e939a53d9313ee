//! Runs every table/figure reproduction, ablation and extension in
//! sequence, writes a combined text report to `repro_report.txt`, and
//! with `--json` additionally writes one `target/bench/BENCH_<name>.json`
//! per experiment (per-point results plus wall-clock / cycles-per-second
//! throughput); `--json PATH` writes `PATH.<name>.json` instead.
//!
//! The report is rewritten after every section, so a run that panics
//! part-way (and still exits non-zero) keeps the sections it finished.
//!
//! With `--trace PATH`, each experiment streams its flit-event trace to
//! `PATH.<name>.jsonl` (experiments that produce no trace — pure PCS
//! sweeps — write no file).

use std::fmt::Write as _;

use mediaworm_bench::{experiments, write_json_results, ExperimentRun, RunArgs};

fn main() {
    let args = RunArgs::from_env();
    type Experiment = fn(&RunArgs) -> ExperimentRun;
    let runs: Vec<(&str, &str, Experiment)> = vec![
        ("fig3", "Fig 3", experiments::fig3),
        ("fig4", "Fig 4", experiments::fig4),
        ("fig5", "Fig 5", experiments::fig5),
        ("table2", "Table 2", experiments::table2),
        ("fig6", "Fig 6", experiments::fig6),
        ("fig7", "Fig 7", experiments::fig7),
        ("fig8", "Fig 8", experiments::fig8),
        ("table3", "Table 3", experiments::table3),
        ("fig9", "Fig 9", experiments::fig9),
        (
            "ablation_sched",
            "Ablation: scheduler",
            experiments::ablation_sched,
        ),
        (
            "ablation_point",
            "Ablation: sched point",
            experiments::ablation_point,
        ),
        (
            "ablation_borrowing",
            "Ablation: VC borrowing",
            experiments::ablation_borrowing,
        ),
        (
            "gop_sensitivity",
            "Extension: GOP frames",
            experiments::gop_sensitivity,
        ),
        ("bounds", "Extension: delay bounds", experiments::bounds),
    ];
    let mut report = String::new();
    for (name, title, f) in runs {
        let run_args = args.for_experiment(name);
        let started = std::time::Instant::now();
        let run = f(&run_args);
        let wall_secs = started.elapsed().as_secs_f64();
        if args.json {
            let path = write_json_results(&run_args, &run, wall_secs).expect("write json results");
            println!("json results written to {}", path.display());
        }
        if let Some(path) = &run_args.trace {
            if std::fs::metadata(path).is_ok_and(|m| m.len() > 0) {
                println!("flit trace written to {}", path.display());
            }
        }
        let _ = writeln!(
            report,
            "## {title} (wall time {wall_secs:.1}s)\n\n{}\n",
            run.table
        );
        std::fs::write("repro_report.txt", &report).expect("write report");
    }
    println!("combined report written to repro_report.txt");
}
