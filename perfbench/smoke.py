#!/usr/bin/env python3
"""Smoke check of the benchmark itself, at tiny size (under a minute).

    python3 perfbench/smoke.py

Runs every workload untraced and traced on tiny inputs, one run after
another, and fails unless

* every operation's verdict matched its oracle (tiny `deep` depths stay
  below the recursion limit, so its oracle is exercised too);
* the last line carries exactly the metrics BENCHMARK.json names: its
  end-to-end metrics untraced, its per-layer metrics traced;
* the report line before it carries all seven end-to-end metrics.
"""
from __future__ import annotations

import json
import subprocess
import sys

from run import END_TO_END, HERE, ROOT, WORKLOADS


def run_tiny(workload: str, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    report, result = proc.stdout.strip().splitlines()[-2:]
    return json.loads(report), json.loads(result)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    gated_workloads = {w["name"] for w in spec["workloads"]}
    want = {0: {m["name"] for m in spec["end_to_end"]},
            1: {m["name"] for m in spec["per_layer"]}}
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            report, result = run_tiny(workload, trace)
            tag = f"{workload} --trace {trace}"
            if not result["correct"] or result["failed"]:
                problems.append(f"{tag}: failures {report['failures']}")
            got = set(result["metrics"])
            if workload in gated_workloads and got != want[trace]:
                problems.append(f"{tag}: missing {sorted(want[trace] - got)}, "
                                f"extra {sorted(got - want[trace])}")
            missing = set(END_TO_END) - set(report["metrics"])
            if trace == 0 and missing:
                problems.append(f"{tag}: report lacks {sorted(missing)}")
            print(f"{tag}: {result['attempted']} operations, {result['failed']} failed",
                  flush=True)
    for p in problems:
        print("FAIL", p)
    print("smoke: ok" if not problems else "smoke: FAILED")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
