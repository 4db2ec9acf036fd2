#!/usr/bin/env bash
# The harness's observable contract, checked end-to-end on real binaries:
# every experiment's stdout, CSV, and metrics log must be BYTE-identical at
# --jobs=1 and --jobs=4, and at --jobs=16 for the batching benches
# (docs/MODEL.md section 12).
#
# Usage: scripts/check_jobs_determinism.sh [build-dir] [bench ...]
#   With no bench names, checks every built bench ($build-dir/bench/bench_*),
#   each at its default grid; it fails if there is none.
set -euo pipefail

BUILD_DIR="${1:-build}"
shift || true
BENCHES=("$@")
if [[ ${#BENCHES[@]} -eq 0 ]]; then
  for bin in "$BUILD_DIR"/bench/bench_*; do
    [[ -f "$bin" && -x "$bin" ]] && BENCHES+=("$(basename "$bin")")
  done
  if [[ ${#BENCHES[@]} -eq 0 ]]; then
    echo "no bench_* binaries under $BUILD_DIR/bench"
    exit 1
  fi
fi

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

# bench_t1_traffic groups requests into admission windows and
# bench_w1_lowwrite groups puts into page-group batches; how the sweep splits
# those cells across workers must never leak into the output, so they also
# run at a deeper fan-out.
jobs_for() {
  case "$1" in
    bench_t1_traffic|bench_w1_lowwrite) echo "1 4 16" ;;
    *) echo "1 4" ;;
  esac
}

fail=0
for name in "${BENCHES[@]}"; do
  bin="$BUILD_DIR/bench/$name"
  if [[ ! -x "$bin" ]]; then
    echo "SKIP $name (not built)"
    continue
  fi
  read -r -a jobs_list <<< "$(jobs_for "$name")"
  for jobs in "${jobs_list[@]}"; do
    "$bin" --jobs="$jobs" \
           --csv="$WORK/$name.$jobs.csv" \
           --metrics="$WORK/$name.$jobs.jsonl" \
           > "$WORK/$name.$jobs.out"
  done
  ok=1
  for jobs in "${jobs_list[@]:1}"; do
    for ext in csv jsonl out; do
      if ! cmp -s "$WORK/$name.1.$ext" "$WORK/$name.$jobs.$ext"; then
        echo "FAIL $name: $ext differs between --jobs=1 and --jobs=$jobs"
        diff "$WORK/$name.1.$ext" "$WORK/$name.$jobs.$ext" | head -10 || true
        ok=0
        fail=1
      fi
    done
  done
  [[ $ok -eq 1 ]] && echo "OK   $name (stdout, csv, metrics byte-identical at --jobs=$(IFS=/; echo "${jobs_list[*]}"))"
done

if [[ $fail -ne 0 ]]; then
  echo "jobs-determinism check FAILED"
  exit 1
fi
echo "jobs-determinism check passed"
