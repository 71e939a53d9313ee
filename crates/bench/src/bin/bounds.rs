//! Audits the delay-bound oracle against the simulator. See EXPERIMENTS.md.

fn main() {
    let args = mediaworm_bench::RunArgs::from_env();
    let _ = mediaworm_bench::run_experiment(&args, mediaworm_bench::experiments::bounds);
}
