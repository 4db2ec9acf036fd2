#!/usr/bin/env bash
# Checks that two builds produce the same experiment results: runs
# scripts/run_experiments.sh against each build directory into its own
# output directory, then cmp's every CSV, machine-metrics JSONL and stdout
# capture.
#
# Use it to show that a host-side change (a faster data structure, a
# refactor) moves no charged I/O, no ledger high-water mark and no table
# entry: build the old and the new tree, then compare.  Every output is
# compared, each bench's stdout too: no bench reads a clock (host time is
# perfbench/'s to measure).
#
# Usage: scripts/diff_experiments.sh <build-a> <build-b> [out-root]
#                                     [bench-flag ...]
#   e.g. scripts/diff_experiments.sh ../parent/build build /tmp/diff --jobs=4
#   Results land in <out-root>/a and <out-root>/b (default: a fresh
#   temporary directory, printed at the end).  Trailing flags are passed to
#   run_experiments.sh, which passes them to every harness bench.  Exits
#   nonzero on any difference, including a file present in only one of the
#   two result sets.
set -euo pipefail

if [[ $# -lt 2 ]]; then
  echo "usage: $0 <build-a> <build-b> [out-root] [bench-flag ...]" >&2
  exit 2
fi
BUILD_A="$1"
BUILD_B="$2"
OUT_ROOT="${3:-$(mktemp -d)}"
shift $(( $# < 3 ? $# : 3 ))
SCRIPT_DIR="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

for b in "$BUILD_A" "$BUILD_B"; do
  if [[ ! -d "$b/bench" ]]; then
    echo "error: $b/bench not found (build the tree first)" >&2
    exit 2
  fi
done

mkdir -p "$OUT_ROOT/a" "$OUT_ROOT/b"
echo "=== run_experiments.sh on $BUILD_A ==="
"$SCRIPT_DIR/run_experiments.sh" "$BUILD_A" "$OUT_ROOT/a" "$@" > "$OUT_ROOT/a.log"
echo "=== run_experiments.sh on $BUILD_B ==="
"$SCRIPT_DIR/run_experiments.sh" "$BUILD_B" "$OUT_ROOT/b" "$@" > "$OUT_ROOT/b.log"

list_results() {
  (cd "$1" && ls -1 -- *.csv *.metrics.jsonl *.txt 2>/dev/null || true) |
    sort -u
}

fail=0
same=0
while IFS= read -r f; do
  [[ -n "$f" ]] || continue
  if [[ ! -f "$OUT_ROOT/a/$f" || ! -f "$OUT_ROOT/b/$f" ]]; then
    echo "DIFF $f (present in only one result set)"
    fail=1
  elif cmp -s "$OUT_ROOT/a/$f" "$OUT_ROOT/b/$f"; then
    same=$((same + 1))
  else
    echo "DIFF $f"
    diff "$OUT_ROOT/a/$f" "$OUT_ROOT/b/$f" | head -6 || true
    fail=1
  fi
done < <({ list_results "$OUT_ROOT/a"; list_results "$OUT_ROOT/b"; } |
         sort -u)

echo "$same files byte-identical; results in $OUT_ROOT"
if [[ $fail -ne 0 ]]; then
  echo "FAIL: the two builds' experiment results differ"
  exit 1
fi
echo "OK: every CSV, metrics JSONL and stdout capture is byte-identical"
