#!/usr/bin/env python3
"""Builds the dispatch benchmark harness from source and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload city_rank|storm_greedy|fig8_round \
        --seed N --seconds S --trace 0|1 [--scale full|tiny]

The harness is configured and built (incrementally) under .bench_build/ in
the repository root; build output goes to stderr. The harness's standard
output is passed through, so the last line is its result object
{"correct", "attempted", "failed", "metrics"}. Exits non-zero, without a
result line, when the library sources are missing, the build fails or the
harness fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench-out")
WORKLOADS = ("city_rank", "storm_greedy", "fig8_round")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Returns the harness binary path, or None when it cannot be built."""
    if not os.path.isfile(os.path.join(ROOT, "src", "engine", "engine.h")):
        log(f"no library sources under {os.path.join(ROOT, 'src')}")
        return None
    if shutil.which("cmake") is None:
        log("cmake not found")
        return None
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD_DIR, "--parallel", "4"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=max(1, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            log("build timed out")
            return None
        if done.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return None
    return os.path.join(BUILD_DIR, "dispatchbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--scale", default="full", choices=("full", "tiny"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    if binary is None:
        return 1
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--scale", args.scale, "--out-dir", OUT_DIR]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        log(f"harness exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        log(f"harness exited with code {done.returncode}")
        return 1
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, AssertionError):
        sys.stderr.write(done.stdout)
        log("harness printed no result line")
        return 1
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
