#!/usr/bin/env bash
# Profiling driver for the simulator hot path.
#
# Usage:
#   scripts/profile.sh            # perf record/report the benchmark
#   scripts/profile.sh flame      # same, rendered as a flamegraph (needs
#                                 # inferno or flamegraph.pl on PATH)
#
# What it profiles: the `perfbench` benchmark (see perfbench/README.md) on
# its `switch_sat` workload, the top point of fig. 3 (8-port switch,
# 16 VCs, VBR 80:20 at load 0.96) warmed past the 33 ms VBR phase ramp.
# It is arbitration-bound, so the profile is dominated by the fast
# driver's hot code: `Router::arbitrate` / `crossbar` / `output_stage`,
# `Network::deliver` / `ni_send`, and the schedulers. The first stretch
# of the profile is the warm-up.
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
    --workload switch_sat --seed 42 --seconds 15 --trace 0)

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
    echo "usage: scripts/profile.sh [flame|report]" >&2
    exit 2
    ;;
esac
