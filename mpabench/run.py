#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

    python3 mpabench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the benchmark (and the repository
libraries it links) optimized into .bench_build/, runs the benchmark's
arithmetic self-test, generates or verifies the workload's cached inputs
in a process of its own, then runs the measurement. Build and progress
output goes to stderr; the measurement's stdout, whose last line is the
JSON result, is passed through. Exits non-zero, printing no result, when
any step fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
# The first run of a checkout builds; later steps must stay well inside
# the per-run time limit.
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def step(cmd, timeout, capture_stdout=False):
    """Run one step; stdout goes to stderr unless captured."""
    out = None if capture_stdout else sys.stderr
    try:
        return subprocess.run(cmd, stdout=out, timeout=timeout, check=False).returncode
    except subprocess.TimeoutExpired:
        print("mpabench: step timed out: %s" % " ".join(cmd), file=sys.stderr)
        return 124


def main():
    args = sys.argv[1:]
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        if step(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                BUILD_TIMEOUT_S) != 0:
            return 1
    if step(["cmake", "--build", BUILD, "-j", "4"], BUILD_TIMEOUT_S) != 0:
        return 1
    if step([os.path.join(BUILD, "mpabench_selftest")], RUN_TIMEOUT_S) != 0:
        return 1
    binary = os.path.join(BUILD, "mpabench")
    if step([binary] + args + ["--prepare", "1"], RUN_TIMEOUT_S) != 0:
        return 1
    return step([binary] + args, RUN_TIMEOUT_S, capture_stdout=True)


if __name__ == "__main__":
    sys.exit(main())
