#!/usr/bin/env bash
# ASan + UBSan build-and-ctest job: builds the whole tree with
# -fsanitize=address,undefined (-fno-sanitize-recover=all, so any finding is
# a hard failure) and runs the full test suite.  This keeps the ledger /
# reservation lifetime fixes honest: a double-release, use-after-move, or
# signed overflow in the accounting layer fails this job even when the
# release build happens to pass.
#
# Both sanitizer trees are RelWithDebInfo with NDEBUG left undefined, so
# every assert() is live here (the ctest job builds Release, which compiles
# them out).  An assert that fires is a finding like any sanitizer report.
#
# Usage: scripts/ci_sanitize.sh [build-dir]
set -euo pipefail

BUILD_DIR="${1:-build-asan}"
JOBS="$(nproc 2>/dev/null || echo 4)"

cmake -B "$BUILD_DIR" -S "$(dirname "$0")/.." \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS_RELWITHDEBINFO="-O2 -g" \
  -DAEM_SANITIZE=ON
cmake --build "$BUILD_DIR" -j "$JOBS"

# halt_on_error: first ASan report aborts; UBSan already aborts via
# -fno-sanitize-recover=all.
ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" \
UBSAN_OPTIONS="print_stacktrace=1" \
  ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"

# Second pass: the fault-injection run.  AEM_FAULT_RATE cranks the fault
# schedules of the fault-aware suite tests (test_recovery builds its
# FaultConfig via from_env), so the recovery layer's retry/remap/corruption
# paths — the code most likely to hide a use-after-move or off-by-one in
# byte twiddling — execute under ASan+UBSan too.  Exact-cost tests build
# their configs directly and are unaffected.
echo "=== fault-injection pass (AEM_FAULT_RATE=0.02) ==="
ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" \
UBSAN_OPTIONS="print_stacktrace=1" \
AEM_FAULT_RATE=0.02 AEM_FAULT_SEED=7 \
  ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"

# The benches need no pass of their own: the first pass's ctest runs
# jobs_determinism (scripts/check_jobs_determinism.sh), which runs
# bench_s1_shard, bench_k1_store, bench_f1_recovery, bench_t1_traffic and
# bench_w1_lowwrite (among others) under ASan+UBSan at --jobs 1 and 4 (t1
# and w1 also at 16), with their internal guards and check_metrics on every
# metrics line as asserts.  It also runs every gtest with no env set.  The
# passes below re-run only gtests under an env-armed schedule.

# Store pass: the KV store's bit-packed Elias-Fano index, payload gather,
# and probe walks are exactly the byte-twiddling code the sanitizers exist
# for; run the store gtests under an injected fault schedule (the store
# must round-trip through the recovery layer).
echo "=== store pass (store tests under AEM_FAULT_RATE=0.02) ==="
ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" \
UBSAN_OPTIONS="print_stacktrace=1" \
AEM_FAULT_RATE=0.02 AEM_FAULT_SEED=11 \
  "$BUILD_DIR/tests/aem_tests" --gtest_filter='EliasFano*:KvStore*' > /dev/null
echo "store tests clean under ASan+UBSan"

# Crash-injection pass: cut a durable store build at an env-chosen write
# (CrashEnvRecoveryTest builds its FaultConfig via from_env and must recover
# to a byte-identical store) — manifest recovery is exactly where a
# torn-state bug would hide from the release build.
echo "=== crash-injection pass (AEM_CRASH_AFTER_WRITES=45) ==="
ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" \
UBSAN_OPTIONS="print_stacktrace=1" \
AEM_CRASH_AFTER_WRITES=45 \
  "$BUILD_DIR/tests/aem_tests" \
  --gtest_filter='CrashEnvRecoveryTest.*' > /dev/null
echo "crash-injection pass clean (env-armed cut recovered)"

# Traffic pass: the TrafficEngine's per-request cost deltas, histogram
# bucketing, and admission bookkeeping sit on top of every other layer, so
# run the traffic gtests under an env-armed fault schedule (requests must
# survive the recovery layer's retries with the books still balancing).
echo "=== traffic pass (traffic tests under AEM_FAULT_RATE=0.02) ==="
ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" \
UBSAN_OPTIONS="print_stacktrace=1" \
AEM_FAULT_RATE=0.02 AEM_FAULT_SEED=13 \
  "$BUILD_DIR/tests/aem_tests" \
  --gtest_filter='QHistogram*:RequestGen*:TrafficEngine*' > /dev/null
echo "traffic tests clean under ASan+UBSan"

# Third pass: docs consistency.  The sanitize build compiles every bench
# target, so the freshly built tree is exactly what the docs checker needs
# to verify that documented binaries/scripts/schema strings are real.
echo "=== docs consistency pass (scripts/check_docs.sh) ==="
"$(dirname "$0")/check_docs.sh" "$BUILD_DIR"

# Fourth pass: ThreadSanitizer over the parallel sweep harness.  TSan cannot
# combine with ASan, so this is a separate build; it runs the harness
# determinism tests (worker pool + slot writes + exception funnel) and one
# real multi-threaded bench sweep, the code paths with actual cross-thread
# traffic.
TSAN_BUILD_DIR="${BUILD_DIR}-tsan"
echo "=== ThreadSanitizer pass (build dir $TSAN_BUILD_DIR) ==="
cmake -B "$TSAN_BUILD_DIR" -S "$(dirname "$0")/.." \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS_RELWITHDEBINFO="-O2 -g" \
  -DAEM_SANITIZE_THREAD=ON
cmake --build "$TSAN_BUILD_DIR" -j "$JOBS" --target aem_tests bench_e3_sort_shootout
TSAN_OPTIONS="halt_on_error=1" \
  "$TSAN_BUILD_DIR/tests/aem_tests" --gtest_filter='ParallelSweep*'
TSAN_OPTIONS="halt_on_error=1" \
  "$TSAN_BUILD_DIR/bench/bench_e3_sort_shootout" --jobs=4 > /dev/null
echo "ThreadSanitizer pass clean (harness tests + bench_e3 --jobs=4 smoke)"

echo "sanitizer job passed (ASan + UBSan clean, incl. fault-injection," \
     "store, crash-injection, traffic, docs, and TSan passes)"
