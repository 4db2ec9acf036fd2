#!/usr/bin/env bash
# CLI/env robustness contract: a malformed AEM_JOBS value, a malformed
# integer flag or an unknown flag must make a bench binary exit with a
# ONE-LINE diagnostic and a clean nonzero status — never an
# uncaught-exception std::terminate (which shows up as SIGABRT, exit code
# 134).  Registered as the `cli_env_guard` ctest.
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

  # Malformed AEM_JOBS in every shape std::stoull used to mis-handle.
  for bad in "abc" "12abc" "-4" "+4" " 3" "0x10" "99999999999999999999" "järn"; do
    check_rejected "$name AEM_JOBS='$bad'" "AEM_JOBS" \
      env AEM_JOBS="$bad" "$bench"
  done

  # A well-formed AEM_JOBS must still work.
  env AEM_JOBS=2 "$bench" > /dev/null \
    || fail "$name AEM_JOBS=2: rejected a valid value"
  echo "ok: $name AEM_JOBS=2 accepted"

  # Malformed integer flags go through the same strict parser.
  check_rejected "$name --seed=junk" "--seed" "$bench" --seed=junk
  check_rejected "$name --jobs=-1" "--jobs" "$bench" --jobs=-1

  # An unknown flag (a typo, or one a bench no longer takes) is an error.
  check_rejected "$name --no-such-flag" "--no-such-flag" "$bench" --no-such-flag
done

echo "cli_env_guard passed: malformed AEM_JOBS/flags and unknown flags exit nonzero with diagnostics"
