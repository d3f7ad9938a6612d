#!/usr/bin/env python3
"""Builds and runs libpie's end-to-end performance ledger.

    python3 perfbench/run.py --workload query_scan --seed 1 --seconds 20 --trace 0

Run from the repository root. The first run configures and builds
perfbench/ (which pulls the library in from the parent tree) into
.bench_build/perfbench; later runs only rebuild what changed. It then runs
pie_ledger, passes its output through, and checks that the last line is the
result object. Build output goes to stderr so stdout ends with the result.

Exit status: the ledger's (nonzero when any answer was wrong), 2 when the
library sources or the toolchain are missing, 3 when the build fails or the
run times out, 4 when the result line is malformed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("query_scan", "ingest_serve", "checkpoint_recover")
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(code, message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(root):
    bench_dir = os.path.join(root, "perfbench")
    for needed in ("CMakeLists.txt", os.path.join("src", "store", "sketch_store.h")):
        if not os.path.isfile(os.path.join(root, needed)):
            fail(2, f"libpie sources not found ({needed} missing under {root})")
    if shutil.which("cmake") is None:
        fail(2, "cmake not found")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(root, target, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        step = ["cmake", "-S", bench_dir, "-B", build_dir,
                "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(step, stdout=sys.stderr, cwd=root).returncode != 0:
            fail(3, "cmake configure failed")
    step = ["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1)]
    if subprocess.run(step, stdout=sys.stderr, cwd=root).returncode != 0:
        fail(3, "build failed")
    return os.path.join(build_dir, "pie_ledger")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: small inputs, for the smoke test")
    parser.add_argument("--perturb", action="store_true",
                        help="corrupt one answer; the run must then fail")
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    binary = build(root)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scale", args.scale,
               "--work-dir", os.path.join(root, ".bench_work")]
    if args.perturb:
        command.append("--perturb")
    try:
        proc = subprocess.run(command, cwd=root, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(3, f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stdout.write(proc.stdout)
        fail(4, f"malformed result line (exit {proc.returncode})")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(result))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
