//! The sweep harness must produce bit-identical results at any job count:
//! seeds derive from the task index alone and results are slotted by
//! index. The telemetry layer must
//! obey the same contract — counters and the JSONL trace file are
//! assembled in task order, and tracing must not change any number.

use mediaworm::{SchedulerKind, SimOutcome};
use mediaworm_bench::sweep::SweepRunner;
use mediaworm_bench::{experiments, Point, RunArgs};
use topo::Topology;
use traffic::PolicingMode;

fn args_with_jobs(jobs: usize) -> RunArgs {
    RunArgs {
        quick: true,
        seed: 42,
        warmup_secs: 0.01,
        measure_secs: 0.03,
        jobs: Some(jobs),
        ..RunArgs::default()
    }
}

/// [`args_with_jobs`] with `--trace` set, so each point's outcome carries
/// its JSONL trace (a lone point never writes the path).
fn traced_args_with_jobs(jobs: usize) -> RunArgs {
    RunArgs {
        trace: Some("trace.jsonl".into()),
        ..args_with_jobs(jobs)
    }
}

fn run_on_switch(point: &Point, args: &RunArgs, seed: u64) -> SimOutcome {
    point.run_on_seeded(&Topology::single_switch(8), args, seed)
}

fn test_points() -> [Point; 3] {
    [
        Point::new(0.4, 100.0, 0.0),
        Point::new(0.5, 80.0, 20.0),
        Point::new(0.6, 50.0, 50.0),
    ]
}

#[test]
fn fig5_table_is_identical_at_any_job_count() {
    let sequential = format!("{}", experiments::fig5(&args_with_jobs(1)).table);
    let parallel = format!("{}", experiments::fig5(&args_with_jobs(8)).table);
    assert_eq!(sequential, parallel);
}

#[test]
fn json_records_are_identical_at_any_job_count() {
    let sequential = experiments::fig3(&args_with_jobs(1));
    let parallel = experiments::fig3(&args_with_jobs(8));
    assert_eq!(sequential.sim_cycles, parallel.sim_cycles);
    assert_eq!(sequential.points.len(), parallel.points.len());
    for (s, p) in sequential.points.iter().zip(&parallel.points) {
        assert_eq!(s.to_string(), p.to_string(), "per-point JSON must match");
    }
}

#[test]
fn counters_are_identical_at_any_job_count() {
    let points = test_points();
    let collect = |jobs: usize| {
        let args = args_with_jobs(jobs);
        SweepRunner::from_args(&args).map(points.len(), |task| {
            run_on_switch(&points[task.index], &args, task.seed).counters
        })
    };
    assert_eq!(collect(1), collect(8));
}

#[test]
fn traces_are_bit_identical_at_any_job_count() {
    // The trace file a four-point ablation slice writes, at one and at
    // eight workers (windows of a few milliseconds keep it small).
    let trace_file = |jobs: usize| {
        let path = std::env::temp_dir().join(format!(
            "mediaworm-trace-jobs{jobs}-{}.jsonl",
            std::process::id()
        ));
        let args = RunArgs {
            warmup_secs: 0.001,
            measure_secs: 0.002,
            schedulers: Some(vec![SchedulerKind::Wfq, SchedulerKind::Drr]),
            policing: Some(vec![PolicingMode::Off, PolicingMode::Shape]),
            loads: Some(vec![0.4]),
            trace: Some(path.clone()),
            ..args_with_jobs(jobs)
        };
        let run = experiments::ablation_sched(&args);
        assert_eq!(run.points.len(), 4);
        let bytes = std::fs::read(&path).expect("the sweep wrote its trace file");
        std::fs::remove_file(&path).unwrap();
        bytes
    };
    let sequential = trace_file(1);
    assert!(!sequential.is_empty(), "traced runs must produce events");
    assert!(sequential == trace_file(8), "trace files differ");
}

#[test]
fn tracing_does_not_change_results() {
    let args = args_with_jobs(2);
    for point in &test_points() {
        let plain = run_on_switch(point, &args, 7);
        let traced = run_on_switch(point, &traced_args_with_jobs(2), 7);
        assert!(
            plain.trace.is_empty(),
            "untraced runs return no trace bytes"
        );
        assert!(!traced.trace.is_empty());
        assert_eq!(plain.delivered_msgs, traced.delivered_msgs);
        assert_eq!(plain.injected_msgs, traced.injected_msgs);
        assert_eq!(plain.counters, traced.counters);
        assert_eq!(
            plain.jitter.mean_ms.to_bits(),
            traced.jitter.mean_ms.to_bits(),
            "tracing must not perturb the simulation"
        );
    }
}
