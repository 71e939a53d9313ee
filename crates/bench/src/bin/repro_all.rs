//! Runs every table/figure reproduction in sequence, writes a combined
//! text report to `repro_report.txt`, and with `--json` additionally
//! writes one `target/bench/BENCH_<name>.json` per experiment (per-point
//! results plus wall-clock / cycles-per-second throughput).
//!
//! The report is rewritten after every section, so a run that panics
//! part-way (and still exits non-zero) keeps the sections it finished.
//!
//! With `--trace PATH`, each experiment's flit-event trace is written to
//! `PATH.<name>.jsonl` (experiments that produce no trace — pure PCS
//! sweeps — are skipped).

use std::fmt::Write as _;
use std::path::PathBuf;

use mediaworm_bench::{experiments, write_json_results, ExperimentRun, RunArgs};

fn main() {
    let args = RunArgs::from_env();
    type Experiment = fn(&RunArgs) -> ExperimentRun;
    let runs: Vec<(&str, Experiment)> = vec![
        ("Fig 3", experiments::fig3),
        ("Fig 4", experiments::fig4),
        ("Fig 5", experiments::fig5),
        ("Table 2", experiments::table2),
        ("Fig 6", experiments::fig6),
        ("Fig 7", experiments::fig7),
        ("Fig 8", experiments::fig8),
        ("Table 3", experiments::table3),
        ("Fig 9", experiments::fig9),
        ("Ablation: scheduler", experiments::ablation_sched),
        ("Ablation: sched point", experiments::ablation_point),
        ("Ablation: VC borrowing", experiments::ablation_borrowing),
        ("Extension: GOP frames", experiments::gop_sensitivity),
        ("Extension: delay bounds", experiments::bounds),
    ];
    let mut report = String::new();
    for (title, f) in runs {
        let started = std::time::Instant::now();
        let run = f(&args);
        let wall_secs = started.elapsed().as_secs_f64();
        if args.json {
            let path = write_json_results(&args, &run, wall_secs).expect("write json results");
            println!("json results written to {}", path.display());
        }
        // Each experiment gets its own trace file so they don't clobber
        // one another.
        if let Some(base) = &args.trace {
            if !run.trace.is_empty() {
                let path = PathBuf::from(format!("{}.{}.jsonl", base.display(), run.name));
                std::fs::write(&path, &run.trace).expect("write flit trace");
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
