//! Command-line errors end an experiment binary with a usage message and
//! exit status 2 before it simulates anything — never with a panic.

use std::process::Command;

fn fig3(flags: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_fig3"))
        .args(flags)
        .output()
        .expect("run fig3")
}

fn assert_usage_error(flags: &[&str]) {
    let out = fig3(flags);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{flags:?}: {stderr}");
    assert!(stderr.contains("usage:"), "{flags:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{flags:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{flags:?} printed before failing");
}

#[test]
fn windows_that_are_not_finite_and_positive_are_usage_errors() {
    for window in ["--warmup", "--measure"] {
        for value in ["0", "-0.01", "nan", "inf", "soon"] {
            assert_usage_error(&["--quick", window, value]);
        }
    }
}

#[test]
fn trace_with_resume_is_a_usage_error() {
    let trace = std::env::temp_dir().join(format!("mediaworm-cli-{}.jsonl", std::process::id()));
    let trace = trace.to_str().unwrap();
    assert_usage_error(&["--quick", "--trace", trace, "--resume"]);
    assert_usage_error(&["--resume", "--quick", "--trace", trace]);
    assert!(
        !std::path::Path::new(trace).exists(),
        "a rejected run must not create its trace file"
    );
}

#[test]
fn unknown_flags_are_usage_errors() {
    assert_usage_error(&["--quick", "--bogus"]);
    // Sweeps split only by `--jobs`; the old process-splitting flag is gone.
    assert_usage_error(&["--quick", "--shard", "0/2"]);
}
