#!/usr/bin/env python3
"""Builds pbc_perfbench from this checkout and runs one workload.

    python3 perfbench/run.py --workload point_open|sweep_mixed|cluster_event \
        --seed N --seconds S --trace 0|1

--workload all runs the three in turn and exits non-zero if any run does.

Run from the repository root. The first call configures and builds the
pbc libraries and the benchmark under .bench_build/perfbench (Release);
later calls rebuild incrementally. Build output goes to stderr; stdout is
the benchmark's report, whose last line is the JSON result. With
--trace 1 the traced replay's spans are written as Chrome trace-event JSON
to .bench_build/perfbench/trace_<workload>_<seed>.json. The exit code is
the benchmark's (0 ok, 1 a check failed, 2 bad arguments), or 3 when the
build fails or the run overruns its time limit.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["point_open", "sweep_mixed", "cluster_event"]
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(base, "perfbench")


def build(out_dir):
    """Configures (once) and builds the benchmark; returns the binary."""
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir])
    steps.append(["cmake", "--build", out_dir, "--target", "pbc_perfbench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            return None
    binary = os.path.join(out_dir, "pbc_perfbench")
    return binary if os.path.isfile(binary) else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    out_dir = build_dir()
    try:
        binary = build(out_dir)
    except subprocess.TimeoutExpired:
        binary = None
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 3

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    status = 0
    for workload in workloads:
        status = max(status, run(binary, out_dir, workload, args))
    return status


def run(binary, out_dir, workload, args):
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        cmd += ["--trace-out", os.path.join(
            out_dir, "trace_%s_%d.json" % (workload, args.seed))]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S,
                              check=False).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
