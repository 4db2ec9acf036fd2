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

# Sharding pass: bench_s1_shard exercises the ShardedMachine fan-out
# (per-device Machine lifetimes, amplified native transfers, wear vectors,
# metrics aggregation) far harder than the unit tests; its internal guards
# (facade invariance, device conservation, wear spread) double as asserts
# under the sanitizers.
echo "=== sharding pass (bench_s1_shard under ASan+UBSan) ==="
ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" \
UBSAN_OPTIONS="print_stacktrace=1" \
  "$BUILD_DIR/bench/bench_s1_shard" --jobs=2 > /dev/null
echo "bench_s1_shard clean under ASan+UBSan"

# Store pass: the KV store's bit-packed Elias-Fano index, payload gather,
# and probe walks are exactly the byte-twiddling code the sanitizers exist
# for.  Run the store gtests under an injected fault schedule (the store
# must round-trip through the recovery layer) and the K1 bench with its
# internal guards as asserts.
echo "=== store pass (store tests + bench_k1_store under ASan+UBSan) ==="
ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" \
UBSAN_OPTIONS="print_stacktrace=1" \
AEM_FAULT_RATE=0.02 AEM_FAULT_SEED=11 \
  "$BUILD_DIR/tests/aem_tests" --gtest_filter='EliasFano*:KvStore*' > /dev/null
ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" \
UBSAN_OPTIONS="print_stacktrace=1" \
  "$BUILD_DIR/bench/bench_k1_store" --jobs=2 > /dev/null
echo "store tests + bench_k1_store clean under ASan+UBSan"

# Crash-injection pass: cut a durable store build at an env-chosen write
# (CrashEnvRecoveryTest builds its FaultConfig via from_env and must recover
# to a byte-identical store), then run bench_f1_recovery, whose internal
# guards (recovered-store identity, recovery write-bill bound, outage
# accounting) double as asserts — manifest recovery and the outage
# queue/drain path are exactly where a torn-state bug would hide from the
# release build.
echo "=== crash-injection pass (AEM_CRASH_AFTER_WRITES=45 + bench_f1_recovery under ASan+UBSan) ==="
ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" \
UBSAN_OPTIONS="print_stacktrace=1" \
AEM_CRASH_AFTER_WRITES=45 \
  "$BUILD_DIR/tests/aem_tests" \
  --gtest_filter='CrashEnvRecoveryTest.*' > /dev/null
ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" \
UBSAN_OPTIONS="print_stacktrace=1" \
  "$BUILD_DIR/bench/bench_f1_recovery" --jobs=2 > /dev/null
echo "crash-injection pass clean (env-armed cut recovered; bench_f1_recovery guards hold)"

# Traffic pass: the TrafficEngine's per-request cost deltas, histogram
# bucketing, and admission bookkeeping sit on top of every other layer, so
# run the traffic gtests under an env-armed fault schedule (requests must
# survive the recovery layer's retries with the books still balancing) and
# the T1 bench, whose serial sections arm a device outage window and whose
# internal guards (stream identity, placement invariance, charge-nothing
# rejections, degraded-serving cost accounting) double as asserts.
echo "=== traffic pass (traffic tests + bench_t1_traffic under ASan+UBSan) ==="
ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" \
UBSAN_OPTIONS="print_stacktrace=1" \
AEM_FAULT_RATE=0.02 AEM_FAULT_SEED=13 \
  "$BUILD_DIR/tests/aem_tests" \
  --gtest_filter='QHistogram*:RequestGen*:TrafficEngine*' > /dev/null
ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" \
UBSAN_OPTIONS="print_stacktrace=1" \
  "$BUILD_DIR/bench/bench_t1_traffic" --jobs=2 > /dev/null
echo "traffic tests + bench_t1_traffic clean under ASan+UBSan"

# Batch pass: code that walks spans and scratch vectors — the Submit*
# tests (Machine::submit's in-order loop and its per-op ceiling, crash and
# outage cases), the Eytzinger/FastDiv/route kernels, and
# bench_t1_traffic's admission-window request batches.  An off-by-one index
# or a stale scratch reuse there would corrupt memory without failing a
# release-build equality check.  (The idle-feature byte-identity tests run
# in the first ctest pass above.)
echo "=== batch pass (submit/search tests + bench_t1_traffic under ASan+UBSan) ==="
ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" \
UBSAN_OPTIONS="print_stacktrace=1" \
  "$BUILD_DIR/tests/aem_tests" \
  --gtest_filter='Submit*:Eytzinger*:FastDiv*:ShardRoute*' > /dev/null
ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" \
UBSAN_OPTIONS="print_stacktrace=1" \
  "$BUILD_DIR/bench/bench_t1_traffic" --jobs=2 > /dev/null
echo "batch pass clean (submit/search tests, bench_t1_traffic)"

# Low-write pass: the read-favoring samplesort's windowed distribution, the
# buffered PQ's widened merge cascade, and the store's page-grouped batch
# puts all juggle bounded resident sets and saturating size arithmetic —
# exactly where a reservation-lifetime slip or an overflow-adjacent index
# would corrupt memory while the release build's charge identities still
# hold.  Run the low-write gtests (incl. the SortBudget saturation edges and
# the degenerate mergesort/percentile boundary sweeps) under ASan+UBSan,
# then bench_w1_lowwrite with its internal guards as asserts.
echo "=== low-write pass (lowwrite tests + bench_w1_lowwrite under ASan+UBSan) ==="
ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" \
UBSAN_OPTIONS="print_stacktrace=1" \
  "$BUILD_DIR/tests/aem_tests" \
  --gtest_filter='MulSat*:SortBudgetTest.*:LowWriteSampleSort*:BufferedPq*:KvStorePutBatch*:QHistogramTest.PercentileBoundariesPinned:MergeSortTest.DegenerateBaseBoundary:MergeSortTest.MinimumFanoutLadder' > /dev/null
ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" \
UBSAN_OPTIONS="print_stacktrace=1" \
  "$BUILD_DIR/bench/bench_w1_lowwrite" --jobs=2 > /dev/null
echo "lowwrite tests + bench_w1_lowwrite clean under ASan+UBSan"

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

echo "sanitizer job passed (ASan + UBSan clean, incl. fault-injection, sharding, store, crash-injection, traffic, batch, low-write, docs, and TSan passes)"
