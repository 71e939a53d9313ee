#!/usr/bin/env bash
# Profiling driver for the simulator hot path.
#
# Usage:
#   scripts/profile.sh [report|flame] [WORKLOAD]
#
#   report     perf record/report the benchmark (the default)
#   flame      same, rendered as a flamegraph (needs inferno or
#              flamegraph.pl on PATH)
#   WORKLOAD   a perfbench workload (see BENCHMARK.json); default
#              `switch_sat`
#
# What it profiles: the `perfbench` benchmark (see perfbench/README.md) on
# one workload, seed 42, 15 s. The first stretch of the profile is the
# warm-up.
#
# * `switch_sat`, the top point of fig. 3 (8-port switch, 16 VCs, VBR
#   80:20 at load 0.96), is arbitration-bound: the fast driver's
#   `Router::arbitrate` / `crossbar` / `output_stage`, `Network::deliver`
#   / `ni_send`, and the schedulers lead.
# * `wire64_sparse`, the same switch with 64-cycle links and 4-flit
#   buffers at load 0.05, is wire-bound: `Network::deliver` (the link
#   rings), `ni_send` and the horizon check (`try_horizon_jump`) lead,
#   while arbitration is nearly idle.
#
# Symbols: the release profile strips nothing by default, but for clean
# stacks add to perfbench/Cargo.toml temporarily:
#   [profile.release]
#   debug = true
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml

if ! command -v perf >/dev/null; then
    echo "error: 'perf' not found; install linux-tools for your kernel" >&2
    exit 1
fi

bench=(./perfbench/target/release/mediaworm-perfbench
    --workload "${2:-switch_sat}" --seed 42 --seconds 15 --trace 0)

case "${1:-report}" in
flame)
    # perf script | stack collapse | flamegraph SVG. Works with either the
    # Rust `inferno` tools or Brendan Gregg's flamegraph.pl scripts.
    perf record -g --call-graph dwarf -o perf.data "${bench[@]}"
    if command -v inferno-collapse-perf >/dev/null; then
        perf script -i perf.data | inferno-collapse-perf | inferno-flamegraph >flame.svg
    else
        perf script -i perf.data | stackcollapse-perf.pl | flamegraph.pl >flame.svg
    fi
    echo "wrote flame.svg"
    ;;
report)
    perf record -g --call-graph dwarf -o perf.data "${bench[@]}"
    perf report -i perf.data
    ;;
*)
    echo "usage: scripts/profile.sh [report|flame] [WORKLOAD]" >&2
    exit 2
    ;;
esac
