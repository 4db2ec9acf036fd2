#!/usr/bin/env bash
# The harness's observable contract, checked end-to-end on real binaries:
# every experiment's stdout, CSV, and metrics log must be BYTE-identical at
# --jobs=1 and --jobs=4 (docs/MODEL.md section 12).
#
# Usage: scripts/check_jobs_determinism.sh [build-dir] [bench ...]
#   With no bench names, checks a representative fast subset.
set -euo pipefail

BUILD_DIR="${1:-build}"
shift || true
BENCHES=("$@")
if [[ ${#BENCHES[@]} -eq 0 ]]; then
  BENCHES=(bench_e1_merge bench_e3_sort_shootout bench_e5_crossover
           bench_e8_counting bench_e10_ablation bench_r1_faults
           bench_c1_cache bench_s1_shard bench_k1_store bench_f1_recovery
           bench_t1_traffic bench_w1_lowwrite)
fi

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

fail=0
for name in "${BENCHES[@]}"; do
  bin="$BUILD_DIR/bench/$name"
  if [[ ! -x "$bin" ]]; then
    echo "SKIP $name (not built)"
    continue
  fi
  for jobs in 1 4; do
    "$bin" --jobs="$jobs" \
           --csv="$WORK/$name.$jobs.csv" \
           --metrics="$WORK/$name.$jobs.jsonl" \
           > "$WORK/$name.$jobs.out"
  done
  ok=1
  for ext in csv jsonl out; do
    if ! cmp -s "$WORK/$name.1.$ext" "$WORK/$name.4.$ext"; then
      echo "FAIL $name: $ext differs between --jobs=1 and --jobs=4"
      diff "$WORK/$name.1.$ext" "$WORK/$name.4.$ext" | head -10 || true
      ok=0
      fail=1
    fi
  done
  [[ $ok -eq 1 ]] && echo "OK   $name (stdout, csv, metrics byte-identical)"
done

# Deep fan-out phase: bench_t1_traffic groups requests into admission
# windows and bench_w1_lowwrite groups puts into page-group batches; how
# the sweep splits those cells across workers must never leak into the
# output.  Deeper jobs fan-out than the sweep above: 1 vs 4 vs 16.
for batched in bench_t1_traffic bench_w1_lowwrite; do
  bin="$BUILD_DIR/bench/$batched"
  if [[ ! -x "$bin" ]]; then
    echo "SKIP $batched 1/4/16 phase (not built)"
    continue
  fi
  for jobs in 1 4 16; do
    "$bin" --jobs="$jobs" \
           --csv="$WORK/$batched.batched.$jobs.csv" \
           --metrics="$WORK/$batched.batched.$jobs.jsonl" \
           > "$WORK/$batched.batched.$jobs.out"
  done
  ok=1
  for jobs in 4 16; do
    for ext in csv jsonl out; do
      if ! cmp -s "$WORK/$batched.batched.1.$ext" \
                  "$WORK/$batched.batched.$jobs.$ext"; then
        echo "FAIL $batched: $ext differs between --jobs=1 and --jobs=$jobs"
        diff "$WORK/$batched.batched.1.$ext" \
             "$WORK/$batched.batched.$jobs.$ext" | head -10 || true
        ok=0
        fail=1
      fi
    done
  done
  [[ $ok -eq 1 ]] && echo "OK   $batched (batched path byte-identical at --jobs=1/4/16)"
done

if [[ $fail -ne 0 ]]; then
  echo "jobs-determinism check FAILED"
  exit 1
fi
echo "jobs-determinism check passed"
