#!/usr/bin/env python3
"""Build the DCatch benchmark program from source, then run it once.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The program is built with
CMake (Release) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset; a build that is
already up to date costs about a second.  Build output goes to
standard error, so the last line of standard output is the program's
JSON result.  Exits non-zero, printing no result, when the build or
the run fails.  perfbench/README.md describes the workloads and
metrics.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("batch-trigger", "explore-campaign", "offline-analyze",
             "serve-stream")


def build(build_dir):
    """Configure (once) and build the program; True on success."""
    steps = []
    # The Makefile appears only once a configure step has succeeded.
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target",
                  "dcatch_perfbench", "-j", str(os.cpu_count() or 1)])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(step),
                  file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(build_root, "perfbench")
    if not build(build_dir):
        return 1
    program = os.path.join(build_dir, "dcatch_perfbench")
    return subprocess.run([
        program, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out-dir", os.path.join(build_root, "perfbench-out"),
    ]).returncode


if __name__ == "__main__":
    sys.exit(main())
