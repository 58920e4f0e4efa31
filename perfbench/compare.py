#!/usr/bin/env python3
"""Compare two sets of benchmark results, metric by metric.

    python3 perfbench/compare.py BASE.json [BASE.json ...] -- NEW.json [NEW.json ...]

Each file is a result written by run.py to .bench_out/.  For every
workload and metric it prints the median of each side, the change as a
share of the base median, and the base's own spread (distance between its
quartiles as a share of its median).  It refuses (exit 2) to compare
results from different kernel backends, Python versions or sizes, or
traced with untraced runs: those differ for reasons no code change explains.
"""
from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict

MUST_MATCH = ("kernel_backend", "python")


def load(paths):
    by_key = defaultdict(list)
    envs = set()
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)["report"]
        env = report["environment"]
        envs.add(tuple(env[k] for k in MUST_MATCH) + (report["size"], report["trace"]))
        for name, m in report["metrics"].items():
            by_key[(report["workload"], name)].append(m["value"])
    return by_key, envs


def spread(values):
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("nan")


def main(argv) -> int:
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    cut = argv.index("--")
    base, base_env = load(argv[:cut])
    new, new_env = load(argv[cut + 1:])
    envs = base_env | new_env
    if len(envs) != 1:
        print("error: refusing to compare results from different set-ups "
              f"(backend, python, size, trace): {sorted(envs)}", file=sys.stderr)
        return 2
    print(f"{'workload':10} {'metric':40} {'base':>14} {'new':>14} {'change':>8} {'base spread':>11}")
    for key in sorted(base.keys() & new.keys()):
        b, n = statistics.median(base[key]), statistics.median(new[key])
        change = (n - b) / b if b else float("nan")
        print(f"{key[0]:10} {key[1]:40} {b:14.6g} {n:14.6g} {change:+8.1%} "
              f"{spread(base[key]):11.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
