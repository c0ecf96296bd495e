#!/usr/bin/env python3
"""CI gate: observability must not change outcomes.

Compares the dispatch benchmark harness built twice from the same sources,
with `-DARIDE_OBS=ON` and with `-DARIDE_OBS=OFF` (the `OBS_*` and
`ARIDE_SP_COUNT_*` macros compiled out), each run on every workload with
the same seed and `--out-dir` pointed at its own directory. Fails unless,
for every workload, both runs report `correct: true`, each run's context
names the build it came from, and the two `digest` objects are equal.

Usage:
  check_obs_off_parity.py OBS_ON_DIR OBS_OFF_DIR [WORKLOAD ...]

Each directory holds the `RESULT_perfbench_<workload>_trace0.json` files
the harness writes. The workloads default to all three.
"""

import json
import os
import sys

WORKLOADS = ("city_rank", "storm_greedy", "fig8_round")


def fail(message):
    print(f"obs-off parity: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def load(directory, workload):
    path = os.path.join(directory,
                        f"RESULT_perfbench_{workload}_trace0.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def main(argv):
    if len(argv) < 3:
        fail(f"usage: {argv[0]} OBS_ON_DIR OBS_OFF_DIR [WORKLOAD ...]")
    workloads = argv[3:] or WORKLOADS
    for workload in workloads:
        on = load(argv[1], workload)
        off = load(argv[2], workload)
        for name, result, obs in (("ON", on, True), ("OFF", off, False)):
            if result.get("context", {}).get("aride_obs") is not obs:
                fail(f"{workload}: the {name} run's context reports "
                     f"aride_obs = {result.get('context', {}).get('aride_obs')}")
            if result.get("correct") is not True:
                fail(f"{workload}: the {name} run is not correct: "
                     f"{result.get('problems')}")
        if "digest" not in on or on["digest"] != off.get("digest"):
            fail(f"{workload}: digests differ\n  ON:  {on.get('digest')}\n"
                 f"  OFF: {off.get('digest')}")
        print(f"obs-off parity: {workload}: digest {on['digest']}")


if __name__ == "__main__":
    main(sys.argv)
