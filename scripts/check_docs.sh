#!/usr/bin/env bash
# Docs <-> code consistency check.  Docs rot silently: a renamed bench
# binary, a bumped metrics schema, or a new src/ subsystem leaves stale
# references nothing else catches.  This script makes the documented
# surface a CI invariant:
#
#   1. every bench binary a doc names exists in the build tree;
#   2. every scripts/*.sh path a doc names exists (and is executable);
#   3. every example/tool source a doc names exists in the repo;
#   4. every aem.machine.metrics/v* schema string in the docs matches the
#      single source of truth, MetricsSnapshot::kSchema in
#      src/core/metrics.hpp;
#   5. docs/ARCHITECTURE.md covers EVERY src/ subdirectory;
#   6. every test a doc cites as `Suite.Name` (or `Suite.*`) is defined by
#      a TEST/TEST_F/TEST_P in tests/*.cpp;
#   7. every source file a doc names in backticks (*.hpp, *.cpp, *.py, and
#      the `name.hpp/.cpp` shorthand for both) exists under src/, tests/,
#      bench/, perfbench/, tools/ or examples/.
#
# Every check is structural: it names a file, binary or string the code
# owns, never a doc's wording.
#
# Scope: the maintained doc set (README, DESIGN, EXPERIMENTS, docs/*).
# CHANGES.md / ISSUE.md / ROADMAP.md are historical logs and exempt.
#
# Usage: scripts/check_docs.sh [build-dir]     (default: build)
set -euo pipefail

REPO="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${1:-build}"
# Accept absolute, cwd-relative (how ci_sanitize.sh invokes cmake), or
# repo-relative build dirs.
if [[ "$BUILD_DIR" != /* ]]; then
  if [[ -d "$BUILD_DIR" ]]; then BUILD_DIR="$(cd "$BUILD_DIR" && pwd)"
  else BUILD_DIR="$REPO/$BUILD_DIR"; fi
fi

DOCS=(
  "$REPO/README.md"
  "$REPO/DESIGN.md"
  "$REPO/EXPERIMENTS.md"
  "$REPO/docs/MODEL.md"
  "$REPO/docs/ARCHITECTURE.md"
)

fail=0
err() { echo "check_docs FAIL: $*" >&2; fail=1; }

for d in "${DOCS[@]}"; do
  [[ -f "$d" ]] || err "doc missing: ${d#"$REPO"/}"
done

if [[ ! -d "$BUILD_DIR/bench" ]]; then
  err "build dir $BUILD_DIR has no bench/ — build the tree first"
  exit 1
fi

# --- 1. bench binaries -----------------------------------------------------
# Binary names follow bench_<letter><digits>_<suffix> (bench_e1_merge,
# bench_r1_faults, ...); the pattern deliberately misses bench_common.hpp
# and bench_output.txt, so a doc naming a deleted bench says "the former
# M0 bench", not its binary name.
mapfile -t bench_refs < <(grep -hoE 'bench_[a-z][0-9]+_[a-z_]+' "${DOCS[@]}" | sort -u)
[[ ${#bench_refs[@]} -gt 0 ]] || err "no bench binary references found in docs (pattern broke?)"
for b in "${bench_refs[@]}"; do
  [[ -x "$BUILD_DIR/bench/$b" ]] || err "docs reference $b but $BUILD_DIR/bench/$b is not built"
done

# --- 2. script paths -------------------------------------------------------
mapfile -t script_refs < <(grep -hoE 'scripts/[A-Za-z0-9_]+\.sh' "${DOCS[@]}" | sort -u)
for s in "${script_refs[@]}"; do
  [[ -x "$REPO/$s" ]] || err "docs reference $s but it does not exist (or is not executable)"
done

# --- 3. example / tool sources ---------------------------------------------
mapfile -t src_refs < <(grep -hoE '(examples|tools)/[A-Za-z0-9_]+\.(cpp|hpp)' "${DOCS[@]}" | sort -u)
for f in "${src_refs[@]}"; do
  [[ -f "$REPO/$f" ]] || err "docs reference $f but it does not exist"
done

# --- 4. metrics schema string ----------------------------------------------
schema="$(grep -oE 'aem\.machine\.metrics/v[0-9]+' "$REPO/src/core/metrics.hpp" | head -1)"
[[ -n "$schema" ]] || { err "cannot find kSchema in src/core/metrics.hpp"; exit 1; }
while read -r ref; do
  [[ "$ref" == "$schema" ]] || err "docs mention schema $ref but code says $schema"
done < <(grep -hoE 'aem\.machine\.metrics/v[0-9]+' "${DOCS[@]}" | sort -u)

# --- 5. ARCHITECTURE.md covers every src/ subdirectory ----------------------
for dir in "$REPO"/src/*/; do
  name="$(basename "$dir")"
  grep -q "src/$name" "$REPO/docs/ARCHITECTURE.md" ||
    err "docs/ARCHITECTURE.md does not cover src/$name"
done

# --- 6. cited gtest names -------------------------------------------------
# A citation is a backticked `FooTest.Bar` (or `FooTest.*`, which needs only
# the suite).  Definitions may wrap their arguments across lines.
mapfile -t test_defs < <(perl -0777 -ne \
  'print "$1.$2\n" while /\bTEST(?:_F|_P)?\(\s*(\w+)\s*,\s*(\w+)\s*\)/g' \
  "$REPO"/tests/*.cpp | sort -u)
[[ ${#test_defs[@]} -gt 0 ]] || err "no TEST definitions found in tests/*.cpp (pattern broke?)"
mapfile -t test_refs < <(grep -hoE '`[A-Za-z0-9_]+Test\.([A-Za-z0-9_]+|\*)`' "${DOCS[@]}" |
  tr -d '`' | sort -u)
for t in "${test_refs[@]}"; do
  found=0
  for d in "${test_defs[@]}"; do
    if [[ "$t" == *.\* ]]; then [[ "$d" == "${t%\*}"* ]] && { found=1; break; }
    else [[ "$d" == "$t" ]] && { found=1; break; }
    fi
  done
  [[ $found -eq 1 ]] || err "docs cite $t but no TEST/TEST_F/TEST_P in tests/*.cpp defines it"
done

# --- 7. source files named in backticks -----------------------------------
# A bare name (`loser_tree.hpp`) must be some file's basename; a name with a
# directory (`sort/occ.hpp`, `tests/test_store.cpp`) must be some file's
# path suffix.  `cache.hpp/.cpp` names both cache.hpp and cache.cpp.
mapfile -t file_refs < <(grep -ho '`[^`]*`' "${DOCS[@]}" |
  grep -oE '[A-Za-z0-9_./-]+\.(hpp|cpp|py)(/\.(hpp|cpp))?' | sort -u)
[[ ${#file_refs[@]} -gt 0 ]] || err "no source file references found in docs (pattern broke?)"
mapfile -t repo_files < <(cd "$REPO" &&
  find src tests bench perfbench tools examples -type f 2>/dev/null)
for ref in "${file_refs[@]}"; do
  names=("$ref")
  if [[ "$ref" =~ ^(.*)\.(hpp|cpp)/\.(hpp|cpp)$ ]]; then
    names=("${BASH_REMATCH[1]}.${BASH_REMATCH[2]}" "${BASH_REMATCH[1]}.${BASH_REMATCH[3]}")
  fi
  for name in "${names[@]}"; do
    found=0
    for f in "${repo_files[@]}"; do
      if [[ "$f" == "$name" || "$f" == */"$name" ]]; then found=1; break; fi
    done
    [[ $found -eq 1 ]] ||
      err "docs name \`$name\` but no file under src/ tests/ bench/ perfbench/ tools/ examples/ matches it"
  done
done

if [[ $fail -ne 0 ]]; then
  echo "check_docs: FAILED" >&2
  exit 1
fi
echo "check_docs passed: ${#bench_refs[@]} bench binaries, ${#script_refs[@]} scripts," \
     "${#src_refs[@]} example/tool sources, schema $schema, all src/ subdirs covered," \
     "${#test_refs[@]} cited tests defined, ${#file_refs[@]} named source files present"
