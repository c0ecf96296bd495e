#!/usr/bin/env python3
"""CI gate for the anytime dispatch quality curve (docs/ROBUSTNESS.md).

Checks two morning_peak runs of the same seed/scale:

  * Under the storm profile, whose synthetic round budget is armed, rounds
    must actually hit the budget (anytime.truncated_rounds > 0), keep
    finalized winners at the cut (anytime.partial_winners > 0), and hand the
    remainder to the FCFS tier (auction.fcfs.orders > 0), whose candidates
    are scored on the dispatch pool.
  * With faults (and therefore budgets) disabled, nothing may be cut: every
    auction.dispatch.anytime.* counter and auction.fcfs.orders must be 0.

Usage:
  check_anytime_dispatch.py BENCH_storm.json BENCH_none.json
"""

import json
import sys

PREFIX = "auction.dispatch.anytime."
TRUNCATED = PREFIX + "truncated_rounds"
PARTIAL = PREFIX + "partial_winners"
FCFS_ORDERS = "auction.fcfs.orders"


def fail(message):
    print(f"anytime dispatch gate: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def counters(path):
    with open(path) as f:
        return json.load(f)["metrics"]["counters"]


def main(argv):
    if len(argv) != 3:
        fail(f"usage: {argv[0]} STORM NONE")
    storm = counters(argv[1])
    none = counters(argv[2])

    truncated = storm.get(TRUNCATED, 0)
    partial = storm.get(PARTIAL, 0)
    if truncated <= 0:
        fail(f"storm run never hit the budget ({TRUNCATED} == 0); "
             "the gate exercised nothing")
    if partial <= 0:
        fail(f"storm run kept no winners at the cut ({PARTIAL} == 0)")
    fcfs = storm.get(FCFS_ORDERS, 0)
    if fcfs <= 0:
        fail(f"storm run never reached the FCFS tier ({FCFS_ORDERS} == 0)")
    print(f"anytime dispatch gate: storm truncated_rounds = {truncated}, "
          f"partial_winners = {partial}, fcfs orders = {fcfs}")

    cut = {k: v for k, v in none.items()
           if (k.startswith(PREFIX) or k == FCFS_ORDERS) and v != 0}
    if cut:
        fail(f"fault-free run cut rounds without a budget: {cut}")
    print("anytime dispatch gate: fault-free run has no anytime activity")
    print("anytime dispatch gate: PASS")


if __name__ == "__main__":
    main(sys.argv)
