#!/usr/bin/env python3
"""Self-checks of the host-time benchmark.  Run from the repository root:

    python3 perfbench/selftest.py [workload ...]

For each workload (all three by default), with short runs:

  * determinism: two runs at one seed report identical charged_q and
    q_per_op_p99 (trace off), identical per-layer counts (trace on: every
    metric with unit "count", and cache.hit_ratio), and the same inputs
    fingerprint;
  * seeds matter: another seed changes the inputs fingerprint;
  * every run is correct (each run also checks its own outputs, its layer
    replays against the recorded stream, and its spans).

Exits 1 on the first failed check.  Takes a few minutes.
"""

import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["sort_aem", "serve_zipf_read", "serve_hotset_write"]
SEED = 7


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().split("\n")
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        sys.exit("FAIL %s seed %d trace %d: exit code %d" % (workload, seed, trace, proc.returncode))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        sys.exit("FAIL %s seed %d trace %d: incorrect outputs" % (workload, seed, trace))
    digest = re.search(r"inputs=([0-9a-f]+)", proc.stdout).group(1)
    return digest, result["metrics"]


def expect_equal(workload, what, a, b):
    if a != b:
        sys.exit("FAIL %s: %s differs between two runs at seed %d: %r vs %r"
                 % (workload, what, SEED, a, b))
    print("ok   %s: %s repeats (%r)" % (workload, what, a))


def check(workload):
    d1, m1 = run(workload, SEED, 0)
    d2, m2 = run(workload, SEED, 0)
    expect_equal(workload, "inputs", d1, d2)
    for name in ("charged_q", "q_per_op_p99"):
        expect_equal(workload, name, m1[name]["value"], m2[name]["value"])

    t1 = run(workload, SEED, 1)[1]
    t2 = run(workload, SEED, 1)[1]
    # Every per-layer count (unit "count") and the cache hit ratio.
    for name in sorted(t1):
        if t1[name]["unit"] == "count" or name == "cache.hit_ratio":
            expect_equal(workload, name, t1[name]["value"], t2[name]["value"])

    d3 = run(workload, SEED + 1, 0)[0]
    if d3 == d1:
        sys.exit("FAIL %s: seed %d and seed %d give the same inputs" % (workload, SEED, SEED + 1))
    print("ok   %s: another seed changes the inputs" % workload)


def main():
    for workload in sys.argv[1:] or WORKLOADS:
        if workload not in WORKLOADS:
            sys.exit("unknown workload " + workload)
        check(workload)
    print("all self-checks passed")


if __name__ == "__main__":
    main()
