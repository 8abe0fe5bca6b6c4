#!/usr/bin/env python3
"""Build the perfbench binary from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload campus_mingle --seed 1 --seconds 10 --trace 0

The binary is configured and built under .bench_build/perfbench (an
incremental no-op after the first build), then run with the same
arguments. Build output goes to stderr, so the last line of stdout is the
binary's JSON result. The exit code is the binary's: non-zero when a
correctness gate fails, and non-zero without a result when the sources
are missing or do not build. `--workload all` runs every workload one
after another and exits non-zero if any gate failed.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ["campus_mingle", "blended_classroom"]


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no src/ next to perfbench/; nothing to build",
              file=sys.stderr)
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build failed: " + " ".join(step), file=sys.stderr)
            return False
    return True


def main():
    if not build():
        return 2
    binary = os.path.join(BUILD, "perfbench")
    args = sys.argv[1:]
    # "--workload all" runs every workload, each in its own process.
    runs = [args]
    if "--workload" in args and args[args.index("--workload") + 1:][:1] == ["all"]:
        at = args.index("--workload") + 1
        runs = [args[:at] + [w] + args[at + 1:] for w in WORKLOADS]
    status = 0
    for run in runs:
        sys.stdout.flush()
        status = max(status, subprocess.run([binary] + run, cwd=ROOT).returncode)
    return status


if __name__ == "__main__":
    sys.exit(main())
