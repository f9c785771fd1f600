#!/usr/bin/env python3
"""Tiny-size smoke run of every benchmark workload.

Runs the benchmark binary with --tiny on each workload named in
BENCHMARK.json, untraced and traced, and asserts that the result line
has the contract's shape and emits exactly the end-to-end metrics
(--trace 0) or the per-layer metrics (--trace 1) that BENCHMARK.json
names, that every output check passed, and that the traced run wrote
its Chrome trace.

    python3 smoke_test.py BINARY BENCHMARK.json
"""

import json
import os
import subprocess
import sys
import tempfile


def run(binary, workload, trace, out_dir):
    cmd = [binary, "--workload", workload, "--seed", "7", "--seconds",
           "0.5", "--trace", str(trace), "--tiny", "--out-dir", out_dir]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"{cmd} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    binary, spec_path = sys.argv[1], sys.argv[2]
    with open(spec_path) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []
    with tempfile.TemporaryDirectory() as out_dir:
        for workload in [w["name"] for w in spec["workloads"]]:
            for trace in (0, 1):
                label = f"{workload} --trace {trace}"
                try:
                    result = run(binary, workload, trace, out_dir)
                except Exception as e:  # report every workload
                    failures.append(f"{label}: {e}")
                    continue
                if sorted(result) != ["attempted", "correct", "failed",
                                      "metrics"]:
                    failures.append(f"{label}: keys {sorted(result)}")
                if not result["correct"] or result["failed"] != 0:
                    failures.append(f"{label}: output checks failed")
                if result["attempted"] < 1:
                    failures.append(f"{label}: nothing attempted")
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                if got != expected[trace]:
                    missing = sorted(set(expected[trace]) - set(got))
                    extra = sorted(set(got) - set(expected[trace]))
                    failures.append(f"{label}: metrics differ, missing "
                                    f"{missing}, extra {extra}, or units")
                if trace == 0:
                    zero = [k for k, v in result["metrics"].items()
                            if not v["value"] > 0]
                    if zero:
                        failures.append(f"{label}: zero metrics {zero}")
                else:
                    path = os.path.join(out_dir,
                                        f"{workload}-seed7.trace.json")
                    with open(path) as f:
                        events = json.load(f)
                    if not events or events[0]["ph"] != "X":
                        failures.append(f"{label}: empty Chrome trace")
    for failure in failures:
        print("FAIL", failure)
    print("smoke:", "ok" if not failures else f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
