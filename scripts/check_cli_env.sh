#!/usr/bin/env bash
# CLI robustness contract: a malformed --jobs value, a malformed integer
# flag or an unknown flag must make a bench binary exit with a ONE-LINE
# diagnostic and a clean nonzero status — never an uncaught-exception
# std::terminate (which shows up as SIGABRT, exit code 134).  And the
# environment is not an input: a bench ignores whatever it holds.
# Registered as the `cli_env_guard` ctest.
#
# Usage: scripts/check_cli_env.sh [build-dir] [bench ...]
set -euo pipefail

BUILD_DIR="${1:-build}"
shift || true
BENCHES=("${@:-bench_e1_merge}")

fail() { echo "FAIL: $*" >&2; exit 1; }

check_rejected() {
  # $1 = description, $2 = expected-diagnostic substring; the command to run
  # follows.  Asserts: nonzero exit, NOT a signal death, diagnostic present.
  local desc="$1" needle="$2"
  shift 2
  local out status=0
  out="$("$@" 2>&1 >/dev/null)" || status=$?
  [[ "$status" -ne 0 ]] || fail "$desc: accepted (exit 0)"
  [[ "$status" -lt 128 ]] || fail "$desc: died on a signal (exit $status) — uncaught exception?"
  [[ "$out" == *"$needle"* ]] || fail "$desc: diagnostic missing '$needle' (got: $out)"
  [[ "$out" != *$'\n'* ]] || fail "$desc: diagnostic is not one line (got: $out)"
  echo "ok: $desc -> exit $status, diagnostic mentions '$needle'"
}

for name in "${BENCHES[@]}"; do
  bench="$BUILD_DIR/bench/$name"
  [[ -x "$bench" ]] || fail "$bench not built"

  # Malformed --jobs in every shape std::stoull used to mis-handle.
  for bad in "abc" "12abc" "-4" "+4" " 3" "0x10" "99999999999999999999" "järn"; do
    check_rejected "$name --jobs='$bad'" "--jobs" "$bench" --jobs="$bad"
  done

  # Parallelism comes only from --jobs: a junk AEM_JOBS is never read.
  env AEM_JOBS=abc "$bench" > /dev/null \
    || fail "$name AEM_JOBS=abc: the environment was read"
  echo "ok: $name ignores AEM_JOBS"

  # Other integer flags go through the same strict parser.
  check_rejected "$name --seed=junk" "--seed" "$bench" --seed=junk

  # An unknown flag (a typo, or one a bench no longer takes) is an error.
  check_rejected "$name --no-such-flag" "--no-such-flag" "$bench" --no-such-flag
done

echo "cli_env_guard passed: malformed and unknown flags exit nonzero with diagnostics; the environment is ignored"
