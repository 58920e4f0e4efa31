#!/usr/bin/env python3
"""coeq benchmark: run one seeded workload, check every verdict, print metrics.

    python3 perfbench/run.py --workload observe --seed 1 --seconds 10 --trace 0

Workloads: observe, roundtrip, prove, deep (see workloads.py), or `all`
for the four in turn in this one process.  Everything runs in one thread.
The program under test is the coeq source in ``src/`` next to this
directory; the run stops with exit code 2 if it is not there.

A run makes as many whole passes over the workload's operations as take
about ``--seconds`` at the workload's nominal pass time (see workloads.py),
and each operation's time is its best run.
The last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics for ``--trace 0`` and the per-layer metrics
for ``--trace 1``.  The line before it is a fuller report: environment
(kernel backend, Python, nproc, seed, git commit), every end-to-end metric
including ``failed_ratio``, the tail percentile and its sample count, and
the first mismatch of each failing operation kind.  Both are also written
to ``.bench_out/`` with, in a traced run, every span.

``--trace 1`` makes half the passes untraced and half traced (the
ratio of the two rates is the tracing overhead), then measures kernel
steps against observation depth for every stock entry.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("observe", "roundtrip", "prove", "deep")
SETUP_REPEATS = 6

# name -> unit; BENCHMARK.json lists the gated ones with their direction
END_TO_END = {
    "setup_s": "s",
    "verdicts_per_s": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_tail": "ms",
    "rewrite_steps": "count",
    "peak_rss_mb": "MB",
    "failed_ratio": "ratio",
}
# Printed in the report line, not gated by BENCHMARK.json.  failed_ratio
# is 0 on every gated workload, so it cannot be a bounded share of its own
# median; the last line carries it as `failed` instead.  The wall-time
# rates and latencies follow the host's CPU speed, which on a shared
# 2-vCPU VM drifts by up to a third over tens of seconds: over 10 seeds
# their IQR/median reached 0.20-0.34 on prove and roundtrip, and the
# medians of two such sets differed by up to 0.33, beyond the largest
# bound the gate allows.  Compare them across many runs (compare.py).
UNGATED = ("verdicts_per_s", "latency_ms_p50", "latency_ms_tail", "failed_ratio")


class MissingSource(Exception):
    pass


def load_coeq():
    src = ROOT / "src"
    if not (src / "coeq" / "__init__.py").is_file():
        raise MissingSource(f"no coeq source under {src}")
    sys.path.insert(0, str(src))
    import coeq
    if Path(coeq.__file__).resolve().parent != (src / "coeq").resolve():
        raise MissingSource(f"imported coeq from {coeq.__file__}, not from {src}")
    return coeq


def git_commit() -> str:
    """The checkout's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(coeq, seed: int) -> dict:
    return {
        "kernel_backend": coeq.KERNEL_BACKEND,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
        "git_commit": git_commit(),
    }


def measure_setup(workload: str, seed: int, size: str, repeats: int) -> list[float]:
    """Wall time of fresh interpreters that import coeq and build the
    workload's inputs, one after another."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload, "--seed", str(seed), "--size", size]
    samples = []
    for _ in range(repeats):
        t0 = perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        samples.append(perf_counter() - t0)
    return samples


class Runs:
    """Every run of every operation of a workload: wall times, verdicts,
    and kernel steps per full pass."""

    def __init__(self, n_ops: int):
        self.times: list[list[float]] = [[] for _ in range(n_ops)]
        self.ok: list[list[bool]] = [[] for _ in range(n_ops)]
        self.pass_steps: list[int] = []

    @property
    def attempted(self) -> int:
        return sum(len(oks) for oks in self.ok)

    @property
    def failed(self) -> int:
        return sum(oks.count(False) for oks in self.ok)

    def best(self) -> tuple[list[float], list[bool]]:
        """An operation's time is its best run (on a shared host the CPU's
        speed can drift by a third within a minute, and the best time
        drifts least); it has failed if any of its runs failed."""
        return [min(ts) for ts in self.times], [all(oks) for oks in self.ok]

    def verdict_rate(self) -> float:
        best, ok = self.best()
        return sum(ok) / sum(best)


def run_op(op, counters, failures: dict) -> tuple[float, bool]:
    t0 = perf_counter()
    try:
        out = op.run()
        problem = None
    except Exception as e:  # an operation that raises has failed
        problem = f"{type(e).__name__}: {str(e)[:300]}"
    dt = perf_counter() - t0
    counters.flush()
    if problem is None:
        try:
            problem = op.check(out)
        except Exception as e:  # a malformed result fails its check
            problem = f"check raised {type(e).__name__}: {e}"
    if problem is not None:
        failures.setdefault(op.label, problem)
    return dt, problem is None


def passes_for(workload, seconds: float) -> int:
    """Passes that take about `seconds` at the workload's nominal pass
    time.  Every run of a workload makes the same number of passes, so a
    best-of-N time means the same N however fast the host is running."""
    return max(1, math.floor(seconds / workload.pass_seconds + 0.5))


def measure(workload, passes: int, counters, failures: dict, tracer=None) -> Runs:
    ops = workload.ops
    runs = Runs(len(ops))
    op_id = 0
    for _ in range(passes):
        gc.collect()
        steps_before = counters.totals["steps"]
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = op_id
            op_id += 1
            dt, ok = run_op(op, counters, failures)
            runs.times[i].append(dt)
            runs.ok[i].append(ok)
        runs.pass_steps.append(counters.totals["steps"] - steps_before)
    return runs


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with at least 10 samples
    beyond it.  With 10 samples or fewer no percentile qualifies, and the
    maximum (p100) is reported."""
    xs = sorted(times)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def end_to_end(runs: Runs, setup_samples: list[float]) -> tuple[dict, dict]:
    """End-to-end metrics over best-run times; a failed operation counts
    as +inf in the tail."""
    best, ok = runs.best()
    tail_ms, pct = tail([t if good else float("inf") for t, good in zip(best, ok)])
    values = {
        "setup_s": statistics.median(setup_samples),
        "verdicts_per_s": sum(ok) / sum(best),
        "latency_ms_p50": 1000 * statistics.median(best),
        "latency_ms_tail": 1000 * tail_ms,
        "rewrite_steps": statistics.median(runs.pass_steps),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "failed_ratio": runs.failed / runs.attempted,
    }
    info = {
        "latency_tail_percentile": pct,
        "latency_tail_samples": len(best),
        "passes": len(runs.pass_steps),
        "setup_samples_s": setup_samples,
    }
    return values, info


def as_json(metrics: dict) -> dict:
    """JSON has no infinity: a tail made of failed operations reads null."""
    return {k: {"value": v if math.isfinite(v) else None, "unit": u}
            for k, (v, u) in metrics.items()}


def run_workload(name: str, args, coeq) -> tuple[dict, dict]:
    import tracing
    import workloads

    layers = tracing.Layers()
    # half the set-up samples before the timed passes and half after, so
    # their median does not rest on one moment of the host's speed
    half_setup = 0 if args.trace else SETUP_REPEATS // 2
    setup = measure_setup(name, args.seed, args.size, half_setup)
    workload = workloads.build(name, args.seed, args.size, layers, OUT_DIR)
    counters = tracing.KernelCounters()
    failures: dict = {}
    counting = tracing.install_counters(counters)
    try:
        if not args.trace:
            runs = measure(workload, passes_for(workload, args.seconds), counters, failures)
            setup += measure_setup(name, args.seed, args.size, half_setup)
            values, info = end_to_end(runs, setup)
            counts = (runs.attempted, runs.failed)
            info["operations_best_s"] = [
                (op.label, t, good) for op, t, good in zip(workload.ops, *runs.best())]
            metrics = {k: (v, END_TO_END[k]) for k, v in values.items()}
            gated = {k: metrics[k] for k in END_TO_END if k not in UNGATED}
            trace_dump = None
        else:
            counts, metrics, info, trace_dump = traced_run(
                workload, args, counters, failures, layers, tracing, workloads)
            gated = metrics
    finally:
        counting.close()
    attempted, failed = counts
    report = {
        "workload": name, "trace": args.trace, "size": args.size,
        "environment": environment(coeq, args.seed),
        "metrics": as_json(metrics),
        **info,
        "failures": failures,
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": as_json(gated)}
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{name}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"result-{stem}.json").write_text(
        json.dumps({"report": report, "result": result}, indent=1))
    if trace_dump is not None:
        (OUT_DIR / f"trace-{stem}.json").write_text(json.dumps(trace_dump))
    return report, result


def traced_run(workload, args, counters, failures, layers, tracing, workloads):
    passes = passes_for(workload, args.seconds / 2)
    untraced = measure(workload, passes, counters, failures)
    tracer = tracing.Tracer()
    before = counters.snapshot()
    inst = tracing.install_tracer(tracer, layers)
    try:
        traced = measure(workload, passes, counters, failures, tracer)
    finally:
        inst.close()
    delta = {k: v - before[k] for k, v in counters.snapshot().items()}
    metrics = tracing.layer_metrics(tracer, delta, len(traced.pass_steps))

    rate_untraced, rate_traced = untraced.verdict_rate(), traced.verdict_rate()
    metrics["trace.verdicts_per_s_untraced"] = (rate_untraced, "1/s")
    metrics["trace.verdicts_per_s_traced"] = (rate_traced, "1/s")
    metrics["trace.overhead_ratio"] = (
        rate_untraced / rate_traced if rate_traced else float("inf"), "ratio")

    depths = workloads.SIZES[args.size]["curve_depths"]
    curve = workloads.steps_curve(layers, depths)
    hi, lo = depths[-1], depths[-2]
    ratios = {key: steps[hi] / steps[lo] for key, steps in curve.items()}
    metrics["kernel.steps_ratio_64_32"] = (max(ratios.values()), "ratio")
    for key, r in ratios.items():
        metrics[f"kernel.steps_ratio_64_32.{key}"] = (r, "ratio")
    info = {"passes_untraced": len(untraced.pass_steps),
            "passes_traced": len(traced.pass_steps),
            "steps_curve": {k: {str(d): s for d, s in v.items()} for k, v in curve.items()},
            "spans": len(tracer.spans)}
    counts = (untraced.attempted + traced.attempted, untraced.failed + traced.failed)
    return counts, metrics, info, tracer.dump()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: the smoke check's inputs")
    ap.add_argument("--setup-only", action="store_true",
                    help="import coeq, build the inputs, exit (times setup_s)")
    args = ap.parse_args(argv)
    try:
        coeq = load_coeq()
    except MissingSource as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if args.setup_only:
        import tracing
        import workloads
        workloads.build(args.workload, args.seed, args.size, tracing.Layers(), OUT_DIR)
        return 0
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        report, result = run_workload(name, args, coeq)
        print(json.dumps(report))
        results.append(result)
    if len(results) == 1:
        print(json.dumps(results[0]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{n}.{k}": v for n, r in zip(names, results)
                        for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
