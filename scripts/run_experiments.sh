#!/usr/bin/env bash
# Regenerates every paper table/figure plus the extension benchmarks.
#
# Usage:
#   scripts/run_experiments.sh [quick|default|full] [output-file]
#
#   quick   — smoke parameters (~1 minute)
#   default — balanced parameters (a few minutes)
#   full    — paper-scale durations and record counts (hours on small boxes)
set -euo pipefail

mode="${1:-default}"
out="${2:-bench_output.txt}"
build_dir="${BUILD_DIR:-build}"

case "$mode" in
  quick)
    export OPTIQL_BENCH_DURATION_MS=50
    export OPTIQL_BENCH_RECORDS=20000
    ;;
  default)
    export OPTIQL_BENCH_DURATION_MS=150
    export OPTIQL_BENCH_RECORDS=100000
    ;;
  full)
    export OPTIQL_BENCH_DURATION_MS=1000
    export OPTIQL_BENCH_RECORDS=10000000
    ;;
  *)
    echo "unknown mode: $mode (expected quick|default|full)" >&2
    exit 1
    ;;
esac

if [ ! -d "$build_dir/bench" ]; then
  echo "build first: cmake -B $build_dir -G Ninja && cmake --build $build_dir" >&2
  exit 1
fi

# One row per benchmark: "binary[ args...]". Rows with --json also
# regenerate that bench's BENCH_<name>.json next to the text output, so a
# single run of this script refreshes every table, figure, and JSON record
# the repo quotes. Keep this list in sync with bench/CMakeLists.txt; any
# built binary missing from it is run flagless with a warning below.
benches=(
  "fig01_motivation"
  "fig06_lock_throughput"
  "fig07_mixed_ratios"
  "fig08_cs_length"
  "fig09_index_skewed"
  "fig10_index_uniform"
  "fig11_node_size_aor"
  "fig12_tail_latency"
  "fig13_art_sparse"
  "tab01_reader_success"
  "abl_fairness"
  "abl_restarts --json"
  "micro_search_kernel --json"
  "micro_gbench"
  "ext_insert_delete"
  "ext_ycsb"
  "ext_sharded --json"
  "ext_adaptive --json"
  "ext_txn --json"
  "ext_batch --json"
  "ext_reshard --json"
)

{
  echo "# optiql experiment run: mode=$mode $(date -u +%Y-%m-%dT%H:%M:%SZ)"
  echo "# host: $(uname -srm), $(nproc) hardware threads"
  listed=" "
  for row in "${benches[@]}"; do
    read -r name args <<< "$row"
    listed="$listed$name "
    bin="$build_dir/bench/$name"
    if [ ! -x "$bin" ]; then
      echo "WARNING: $bin not built, skipping" >&2
      continue
    fi
    echo
    echo "===== RUN: $name ${args:-} ====="
    # shellcheck disable=SC2086
    "$bin" ${args:-}
  done
  # Safety net: benches added to CMake but not to the table above still
  # run (flagless), and the warning flags the missing row.
  for bench in "$build_dir"/bench/*; do
    [ -x "$bench" ] && [ -f "$bench" ] || continue
    name="$(basename "$bench")"
    case "$listed" in *" $name "*) continue ;; esac
    echo "WARNING: $name has no row in scripts/run_experiments.sh" >&2
    echo
    echo "===== RUN: $name ====="
    "$bench"
  done
} | tee "$out"
