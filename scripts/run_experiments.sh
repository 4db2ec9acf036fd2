#!/usr/bin/env bash
# Regenerates every experiment table (E1-E10, A1-A2, R1, C1, S1, K1, F1,
# T1, W1) and collects CSVs, stdout captures ($OUT_DIR/<bench>.txt) and
# machine-metrics JSON snapshots (one JSON object per line in
# $OUT_DIR/<bench>.metrics.jsonl).  Each bench checks every line it writes
# (check_metrics in src/core/metrics.cpp) and its own PASS criteria, and
# exits nonzero on a violation, which stops this script.
#
# Usage: scripts/run_experiments.sh [build-dir] [out-dir] [bench-flag ...]
#   e.g. scripts/run_experiments.sh build results --jobs=0 --full
#
# Every trailing flag is passed to each harness bench.  --jobs=N runs each
# bench's sweep grid on N worker threads (0 = one per hardware thread).
# Outputs are byte-identical for every N — the harness contract, enforced
# by scripts/check_jobs_determinism.sh — so --jobs only changes the wall
# clock.  --full enlarges the sweeps.
set -euo pipefail

BUILD_DIR="${1:-build}"
OUT_DIR="${2:-results}"
shift $(( $# < 2 ? $# : 2 ))

mkdir -p "$OUT_DIR"

for bench in "$BUILD_DIR"/bench/bench_*; do
  [[ -f "$bench" && -x "$bench" ]] || continue
  name="$(basename "$bench")"
  echo "=== running $name ==="
  "$bench" --csv="$OUT_DIR/$name.csv" \
           --metrics="$OUT_DIR/$name.metrics.jsonl" \
           "$@" | tee "$OUT_DIR/$name.txt"
  echo
done

echo "All experiment outputs are in $OUT_DIR/"
