#!/usr/bin/env python3
"""Smoke test of the performance ledger.

    python3 perfbench/smoke_test.py

Runs every workload at tiny size through perfbench/run.py, untraced and
traced, and asserts that each run is correct and emits exactly the metrics
BENCHMARK.json names. Then runs one workload with --perturb and asserts that
the checker rejects the corrupted answer: the run reports correct=false and
exits nonzero.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, trace, perturb=False):
    command = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
               "--workload", workload, "--seed", "7", "--seconds", "0.5",
               "--trace", str(trace), "--scale", "tiny"]
    if perturb:
        command.append("--perturb")
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=600)
    return proc.returncode, json.loads(proc.stdout.strip().split("\n")[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            code, result = run(workload, trace)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            label = f"{workload} trace={trace}"
            if code != 0 or not result["correct"] or result["failed"] != 0:
                failures.append(f"{label}: run failed ({result})")
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                failures.append(f"{label}: metrics differ; missing {missing}, "
                                f"extra {extra}, or units differ")
            print(f"ok {label}: {len(got)} metrics, "
                  f"{result['attempted']} operations checked")
    code, result = run("query_scan", 0, perturb=True)
    if code == 0 or result["correct"] or result["failed"] < 1:
        failures.append(f"perturbed answer was not rejected ({result})")
    else:
        print(f"ok perturbed answer rejected: {result['failed']} failed")
    for failure in failures:
        print(f"FAIL {failure}")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
