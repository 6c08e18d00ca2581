#!/usr/bin/env python3
"""Checks one short perfbench run for correctness and an unchanged placement.

Usage: python3 perfbench/run.py --workload W --seconds 3 | perfbench_smoke.py W

Reads the run's standard output and checks its last line, the JSON result:
every operation passed its oracle check (`correct`), none failed, at least
one ran, and `quality_ratio` equals the pinned value exactly. The ratio is
measured on fixed inputs with greedy decoding, so it repeats bit for bit for
any seed and run length; it moves only when the program's placements change.
A change that moves it on purpose updates the pin here in the same commit.
Speed is not gated: runner machines differ from run to run.
"""

import json
import sys

# Release build, GCC 12.2, x86-64.
QUALITY_RATIO = {
    "serve": 0.9874004367537305,
    "train": 1.5627431646745626,
    "scale": 5.343122350512988,
    "stream": 2.374256020497355,
}


def check(workload, result):
    """Returns the list of failed checks for one JSON result."""
    errors = []
    if result.get("correct") is not True:
        errors.append("correct is %r, not true" % result.get("correct"))
    if result.get("failed") != 0:
        errors.append("failed is %r, not 0" % result.get("failed"))
    if not result.get("attempted", 0) > 0:
        errors.append("attempted is %r, not > 0" % result.get("attempted"))
    got = result.get("metrics", {}).get("quality_ratio", {}).get("value")
    if got != QUALITY_RATIO[workload]:
        errors.append("quality_ratio is %r, pinned %r" % (got, QUALITY_RATIO[workload]))
    return errors


def main():
    if len(sys.argv) != 2 or sys.argv[1] not in QUALITY_RATIO:
        sys.exit(__doc__.strip().splitlines()[2])
    workload = sys.argv[1]
    lines = sys.stdin.read().strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print("%s: no JSON result on the last line of the run's output" % workload)
        return 1
    errors = check(workload, result)
    for e in errors:
        print("%s: %s" % (workload, e))
    if not errors:
        print("%s: ok (attempted %d, quality_ratio %r)"
              % (workload, result["attempted"], QUALITY_RATIO[workload]))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
