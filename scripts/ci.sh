#!/usr/bin/env bash
# Local CI gate: formatting, lints, every test in the workspace (unit,
# doc and integration tests of all crates, once each), and the smoke runs.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --check
cargo clippy --workspace --all-targets -- -D warnings
cargo test -q --workspace

# The simulator core again in the release profile (opt-level 3, no
# overflow checks): optimiser-dependent faults, such as a counter update
# lost while a `&mut` into a `Vec` element is live, pass in the dev
# profile above and show only here.
cargo test --release -q -p mediaworm --lib

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

# The generator is the reproducibility contract: seed 42's first range,
# normal and exponential draws must stay the pinned literals, or every
# table, trace and snapshot has changed.
require_tests -p netsim -- golden_stream_from_seed_42

# Audit mode: the flow-control invariant checks must stay clean on healthy
# runs AND flag an injected credit fault (mutation coverage), and the
# progress watchdog must classify the crafted deadlock without false
# positives elsewhere.
require_tests -p mediaworm -- audit watchdog
require_tests -p pcs-router -- watchdog

# Active sets: ActiveSet agrees with a BTreeSet model (membership,
# ascending and rotated iteration, equality) over universes that are not
# a multiple of 64, and the audit flags each of the stepper's six sets
# (an NI's ready VCs among them) when it loses a member or gains a
# non-member.
require_tests -p mediaworm -- \
  active_set_matches_a_btreeset_model \
  audit_flags_a_corrupted_pending_set \
  audit_flags_a_corrupted_granted_set \
  audit_flags_a_corrupted_staged_set \
  audit_flags_a_corrupted_active_link_set \
  audit_flags_a_corrupted_active_endpoint_set \
  audit_flags_a_corrupted_ready_vc_set

# The NI queues a message with one scheduler call, which must leave every
# discipline in the state its per-flit arrivals would (runs, registers and
# head stamps, bit for bit, across the run cap).
require_tests -p mediaworm -- message_arrival_matches_per_flit_arrivals

# Resume identity: checkpoint/restore must be bit-identical to an
# uninterrupted run (stitched traces, end snapshots, stall reports) on
# every topology, and the sweep's checkpoint flags must parse. Corrupt
# checkpoints must abort, never silently restart.
require_tests --test stepping_identity -- \
  checkpoint_restore_grid_is_bit_identical \
  snapshot_round_trip_over_random_runs \
  ring_deadlock_stall_report_survives_checkpoint
require_tests -p mediaworm -- snapshot checkpoint
require_tests -p mediaworm-bench -- resume

# Snapshot format v7: the injection calendar holds one entry per source
# carrying its next message as a head flit; scheduler stamps are runs
# that replay the per-flit stamps bit for bit under every discipline, so
# a queued message saves in constant size; an NI part-way through a worm
# (message cursor > 0) restores bit-identically; a stream resumes
# mid-frame with the same message lengths. Flits carry no kind tag (the
# role follows from seq_in_msg and msg_len) and no frame index, and the
# image holds no outstanding-message FIFO. A v6 image is a version
# error, and a calendar with a source missing or repeated, two entries
# sharing a seq, a source id of 8 or a VC of 16 on the 8-port switch, a
# bad NI cursor or head, NI runs that disagree with the queued flits, a
# run of no flits, or a router or link flit with seq_in_msg >= msg_len
# (msg_len 0 included) is a typed error, never a panic. A resumed sweep
# point that had finished restores its final image and steps no cycle.
require_tests -p mediaworm -- \
  run_queue_matches_the_per_flit_model \
  a_queued_message_saves_as_one_run \
  restore_rejects_a_run_of_no_flits \
  snapshot_mid_worm_at_the_ni_restores_bit_identically \
  restore_rejects_a_v6_image \
  restore_rejects_a_flit_outside_its_message \
  restore_rejects_a_calendar_without_each_source_once \
  restore_rejects_a_bad_ni_cursor_or_head
require_tests -p mediaworm-bench -- a_resumed_point_reuses_its_finished_image
require_tests -p traffic -- \
  vbr_frames_split_into_full_messages_and_a_short_last_one \
  a_mid_frame_snapshot_resumes_the_same_messages
require_tests -p flitnet -- \
  nth_rebuilds_every_flit_from_any_flit_of_the_message \
  load_rejects_a_flit_outside_its_message

# repro_all gives every experiment its own --json and --trace file.
require_tests -p mediaworm-bench -- each_experiment_gets_its_own_json_and_trace_paths

# Delay-bound oracle: the network-calculus bounds must dominate the
# simulator on healthy runs (sim <= bound for every real-time stream),
# the credit-starvation mutation test proves the oracle fires when flow
# control is sabotaged, and bounds on a torus are a typed error.
require_tests -p calculus -- tests::
require_tests --test delay_bounds -- \
  cbr_bounds_hold_for_every_isolating_scheduler \
  credit_starvation_trips_the_oracle
require_tests -p mediaworm -- bounds_on_a_torus_is_a_typed_error_not_a_panic

# Trace coverage: tracing must only observe (traced runs match untraced
# ones, snapshots exclude the trace), emit every event kind, and stay
# bit-identical at any --jobs count; the sweep runner must write every
# point's trace in task order when the points finish out of order.
require_tests -p mediaworm -- \
  traced_run_matches_plain_run \
  traced_run_emits_inject_and_deliver_events \
  tracing_emits_route_and_arbitrate_events \
  traced_run_matches_untraced_numbers
require_tests -p mediaworm-bench -- \
  traces_are_bit_identical_at_any_job_count \
  sweep_writes_traces_in_task_order_when_tasks_finish_in_reverse

# Command-line errors: windows that are not finite and positive,
# --trace with --resume, and unknown flags exit 2 with a usage message,
# never a panic.
require_tests -p mediaworm-bench --test cli -- \
  windows_that_are_not_finite_and_positive_are_usage_errors \
  trace_with_resume_is_a_usage_error \
  unknown_flags_are_usage_errors

# Bounds smoke: one Virtual Clock slice of the bounds matrix must bound
# every stream, observe no violations, and audit the provable (CBR,
# policing-off) envelopes clean. At least one stream must report a
# stuck_age_cycles, so the oldest-undelivered-message ages the oracle
# reads from the network are exercised end to end.
cargo run --release -q -p mediaworm-bench --bin bounds -- \
  --quick --schedulers vc --policing off,shape --loads 0.8 \
  --json target/bench/BENCH_bounds.json
test "$(jq '([.results[] | .bounds_summary.guaranteed_violations == 0] | all)
  and ([.results[] | .bounds_summary.bounded > 0] | all)
  and ([.results[] | .bounds_summary.violations == 0] | all)
  and ([.results[].bounds.streams[].stuck_age_cycles | numbers] | length > 0)' \
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

# Trace smoke: the same slice with windows of a few milliseconds, traced
# at --jobs 1 and --jobs 2, must write byte-identical trace files.
trace_flags=("${smoke_flags[@]}" --warmup 0.002 --measure 0.004)
for j in 1 2; do
  cargo run --release -q -p mediaworm-bench --bin ablation_sched -- \
    "${trace_flags[@]}" --jobs "$j" --trace "target/bench/trace_smoke_jobs$j.jsonl"
done
test -s target/bench/trace_smoke_jobs1.jsonl
cmp target/bench/trace_smoke_jobs1.jsonl target/bench/trace_smoke_jobs2.jsonl
rm target/bench/trace_smoke_jobs1.jsonl target/bench/trace_smoke_jobs2.jsonl

# Benchmark: build perfbench (its own workspace under perfbench/) and run
# its self-test, which fails if any workload's recorded outcome
# fingerprints change. It also keeps the simulator APIs perfbench calls
# compiling. About 2.5 min on 2 cores.
cargo build --release --offline --manifest-path perfbench/Cargo.toml
cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- --self-test
