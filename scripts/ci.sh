#!/usr/bin/env bash
# Local CI gate: formatting, lints, every test in the workspace (unit,
# doc and integration tests of all crates, once each), and the smoke runs.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --check
cargo clippy --workspace --all-targets -- -D warnings
cargo test -q --workspace

# Build the criterion micro-benches (crates/bench/benches/micro.rs) so
# they keep compiling; running them stays out of the gate (they are
# wall-clock heavy).
cargo bench --no-run -p mediaworm-bench

# require_tests CARGO_ARGS... -- NAME...: every NAME must appear in the
# `--list` output of `cargo test CARGO_ARGS`. The tests themselves ran in
# the workspace step above; listing them keeps the gate loud if one is
# renamed or deleted away, without running it twice.
require_tests() {
  local args=()
  while [ "$1" != "--" ]; do
    args+=("$1")
    shift
  done
  shift
  local list
  list=$(cargo test -q "${args[@]}" -- --list 2>/dev/null)
  for name in "$@"; do
    if ! grep -qF -- "$name" <<<"$list"; then
      echo "error: no test matching '$name' in cargo test ${args[*]}" >&2
      exit 1
    fi
  done
}

# Bit identity: the fast driver (active sets, blocked-head skips and
# horizon jumps) must match the every-cycle full-scan oracle, which runs
# the same audit and watchdog (counters, stall reports, trace bytes,
# snapshots), across loads up to saturation, policing modes and
# topologies up to the 8x8 mesh and the audited torus, including a
# checkpoint taken inside a skipped span and the deadlocked ring's stall
# report. The fig. 3 horizon grid also gates skip effectiveness:
# cycles_skipped > 0 at load 0.3, at the shaped points and on the
# wire-dominated wire64 switch.
require_tests --test stepping_identity -- \
  fig3_load_grid_is_bit_identical_to_reference \
  saturated_arbitration_is_bit_identical_to_reference \
  horizon_skipping_matches_exhaustive_on_fig3_grid \
  audited_run_is_bit_identical_to_reference \
  traces_are_bit_identical_to_reference \
  mesh_8x8_is_bit_identical_to_reference \
  audited_torus_is_bit_identical_to_reference \
  horizon_identity_grid_over_topologies_and_drivers \
  horizon_identity_over_random_runs \
  horizon_jumps_preserve_deadlock_detection \
  snapshot_mid_jump_round_trips_bit_identically
require_tests --test properties -- \
  idle_jump_matches_exhaustive_stepping \
  active_set_stepping_matches_full_scan_reference
require_tests -p mediaworm -- skip

# Audit mode: the flow-control invariant checks must stay clean on healthy
# runs AND flag an injected credit fault (mutation coverage), and the
# progress watchdog must classify the crafted deadlock without false
# positives elsewhere.
require_tests -p mediaworm -- audit watchdog
require_tests -p pcs-router -- watchdog

# Resume identity: checkpoint/restore must be bit-identical to an
# uninterrupted run (stitched traces, end snapshots, stall reports) on
# every topology, and the sharded sweep engine must merge shard
# reports byte-stably. Corrupt checkpoints must abort, never silently
# restart.
require_tests --test stepping_identity -- \
  checkpoint_restore_grid_is_bit_identical \
  snapshot_round_trip_over_random_runs \
  ring_deadlock_stall_report_survives_checkpoint
require_tests -p mediaworm -- snapshot checkpoint
require_tests -p mediaworm-bench -- shard resume

# Delay-bound oracle: the network-calculus bounds must dominate the
# simulator on healthy runs (sim <= bound for every real-time stream),
# the credit-starvation mutation test proves the oracle fires when flow
# control is sabotaged, and bounds on a torus are a typed error.
require_tests -p calculus -- tests::
require_tests --test delay_bounds -- \
  cbr_bounds_hold_for_every_isolating_scheduler \
  credit_starvation_trips_the_oracle
require_tests -p mediaworm -- bounds_on_a_torus_is_a_typed_error_not_a_panic

# Bounds smoke: one Virtual Clock slice of the bounds matrix must bound
# every stream, observe no violations, and audit the provable (CBR,
# policing-off) envelopes clean.
cargo run --release -q -p mediaworm-bench --bin bounds -- \
  --quick --schedulers vc --policing off,shape --loads 0.8 \
  --json target/bench/BENCH_bounds.json
test "$(jq '([.results[] | .bounds_summary.guaranteed_violations == 0] | all)
  and ([.results[] | .bounds_summary.bounded > 0] | all)
  and ([.results[] | .bounds_summary.violations == 0] | all)' \
  target/bench/BENCH_bounds.json)" = "true"

# Ablation smoke: a tiny slice of the scheduler x policing matrix must
# produce bit-identical results at any --jobs split. The throughput
# block records wall-clock time (the one legitimate difference), so it
# is stripped before comparing; everything else must match byte-for-byte.
smoke_flags=(--quick --schedulers wfq,drr,scfq --policing off,shape --loads 0.8)
cargo run --release -q -p mediaworm-bench --bin ablation_sched -- \
  "${smoke_flags[@]}" --jobs 1 --json target/bench/ablation_smoke_jobs1.json
cargo run --release -q -p mediaworm-bench --bin ablation_sched -- \
  "${smoke_flags[@]}" --jobs 2 --json target/bench/BENCH_ablation_sched.json
sed 's/"throughput".*//' target/bench/ablation_smoke_jobs1.json \
  > target/bench/ablation_smoke_jobs1.stripped
sed 's/"throughput".*//' target/bench/BENCH_ablation_sched.json \
  > target/bench/ablation_smoke_jobs2.stripped
cmp target/bench/ablation_smoke_jobs1.stripped target/bench/ablation_smoke_jobs2.stripped

# Shard smoke: the same slice run as two shards in its own directory and
# recombined by the merge_shards binary must equal the --jobs 1 report
# byte-for-byte once the throughput block is stripped.
shard_dir=target/bench/shard_smoke
rm -rf "$shard_dir"
mkdir -p "$shard_dir"
for i in 0 1; do
  cargo run --release -q -p mediaworm-bench --bin ablation_sched -- \
    "${smoke_flags[@]}" --shard "$i/2" \
    --json "$shard_dir/BENCH_ablation_sched.shard${i}of2.json"
done
cargo run --release -q -p mediaworm-bench --bin merge_shards -- \
  ablation_sched --shards 2 --dir "$shard_dir"
sed 's/"throughput".*//' "$shard_dir/BENCH_ablation_sched.json" \
  > "$shard_dir/merged.stripped"
cmp target/bench/ablation_smoke_jobs1.stripped "$shard_dir/merged.stripped"
