#!/usr/bin/env python3
"""Compares two sets of benchmark results written by run.py.

    python3 perfbench/compare.py BASE.json [BASE2.json ...] -- NEW.json [NEW2.json ...]

For every workload and metric present on both sides, prints each side's
median and quartiles and the change of the median. Results recorded at a
different thread count, nproc or build profile are not comparable: the
comparison is reported as a mismatch and exits with code 1.
"""

import json
import statistics
import sys
from collections import defaultdict

CONTEXT_KEYS = ("threads", "nproc", "profile")


def load(paths):
    by_workload = defaultdict(list)
    for path in paths:
        with open(path) as f:
            result = json.load(f)
        by_workload[result["context"]["workload"]].append(result)
    return by_workload


def summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv):
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    split = argv.index("--")
    base, new = load(argv[:split]), load(argv[split + 1:])
    mismatch = False
    for workload in sorted(set(base) & set(new)):
        contexts = {(side, tuple(r["context"].get(k) for k in CONTEXT_KEYS))
                    for side, runs in (("base", base[workload]), ("new", new[workload]))
                    for r in runs}
        if len({c for _, c in contexts}) > 1:
            mismatch = True
            print(f"{workload}: MISMATCH, results differ in {CONTEXT_KEYS}: {sorted(contexts)}")
            continue
        print(f"{workload} ({len(base[workload])} base runs, {len(new[workload])} new runs)")
        metrics = set(base[workload][0]["metrics"]) & set(new[workload][0]["metrics"])
        for name in sorted(metrics):
            b = summary([r["metrics"][name]["value"] for r in base[workload]])
            n = summary([r["metrics"][name]["value"] for r in new[workload]])
            change = (n[1] - b[1]) / b[1] if b[1] else float("nan")
            unit = base[workload][0]["metrics"][name]["unit"]
            print(f"  {name:40s} base {b[1]:.6g} [{b[0]:.6g}, {b[2]:.6g}]  "
                  f"new {n[1]:.6g} [{n[0]:.6g}, {n[2]:.6g}] {unit}  {change:+.2%}")
    return 1 if mismatch else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
