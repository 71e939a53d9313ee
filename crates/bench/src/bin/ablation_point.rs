//! Runs the QoS scheduling-point ablation, point A vs point C (beyond the paper). See
//! EXPERIMENTS.md.

fn main() {
    let args = mediaworm_bench::RunArgs::from_env();
    let _ = mediaworm_bench::run_experiment(&args, mediaworm_bench::experiments::ablation_point);
}
