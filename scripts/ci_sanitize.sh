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

# That one ctest run covers the fault, store, crash and traffic paths: each
# fault-armed gtest loops over its own fixed seed table (test_recovery,
# KvStoreFaultTest, TrafficEngineTest.BooksBalanceOnAFaultyDevice) and
# DurableBuildTest.CrashAndRecoverAcrossCrashPoints cuts builds at fixed
# writes, so every schedule is written in the test and runs under
# ASan+UBSan here.  The benches need no pass of their own either:
# jobs_determinism (scripts/check_jobs_determinism.sh) runs every built
# bench at --jobs 1 and 4 (t1 and w1 also at 16), with their internal
# guards and check_metrics on every metrics line as asserts.

# Second pass: docs consistency.  The sanitize build compiles every bench
# target, so the freshly built tree is exactly what the docs checker needs
# to verify that documented binaries/scripts/schema strings are real.
echo "=== docs consistency pass (scripts/check_docs.sh) ==="
"$(dirname "$0")/check_docs.sh" "$BUILD_DIR"

# Third pass: ThreadSanitizer over the parallel sweep harness.  TSan cannot
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

echo "sanitizer job passed (ASan + UBSan ctest, docs, and TSan passes)"
