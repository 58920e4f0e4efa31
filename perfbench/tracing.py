"""Kernel counters and layer spans, installed from outside the package.

Nothing under ``src/`` knows about this module.  A run swaps names in the
coeq modules' namespaces for wrappers (the same move
``benchmarks/bench_kernel.py`` makes with ``coeq.kernel.KernelSession``)
and puts the originals back when it is done:

* ``coeq.kernel.KernelSession`` becomes a subclass that reports its
  counters (steps, interned terms, memo and no-match entries) when the
  session ends.  The untraced run installs only this, since
  ``rewrite_steps`` is an end-to-end metric.
* In a traced run the subclass also times every ``head_normalize`` call,
  and the public functions each layer exposes are wrapped in spans.

Spans nest, because everything runs in one thread.  A span's self time is
its duration minus the time its child spans cover.  ``head_normalize`` runs
millions of times in a roundtrip pass, so its calls are not stored one by
one: they are summed into their parent span (count and seconds) instead.
"""
from __future__ import annotations

import functools
import weakref
from collections import Counter, defaultdict
from time import perf_counter

from importlib import import_module

# by module path: the package re-exports a function named `extract`, which
# hides the submodule of that name as an attribute of `coeq`
cli = import_module("coeq.cli")
corec = import_module("coeq.corec")
evaluation = import_module("coeq.evaluation")
extract_mod = import_module("coeq.extract")
kernel = import_module("coeq.kernel")
logic = import_module("coeq.logic")
realize = import_module("coeq.realize")


class KernelCounters:
    """Sums the counters of every kernel session created while installed.

    A session is read when it is freed, or at the next `flush` if it is
    still alive then (sessions held by reference cycles die late), so its
    memory lives exactly as long as it would without the benchmark.
    """

    FIELDS = ("sessions", "steps", "interned_terms", "memo_entries",
              "nomatch_entries")

    def __init__(self):
        self.totals = dict.fromkeys(self.FIELDS, 0)
        self._live: list[weakref.finalize] = []

    def register(self, session) -> None:
        self._live.append(weakref.finalize(session, self._absorb, session.__dict__))

    def _absorb(self, state: dict) -> None:
        t = self.totals
        t["sessions"] += 1
        t["steps"] += state["steps_total"]
        t["interned_terms"] += len(state["t_kind"])
        t["memo_entries"] += len(state["memo"])
        t["nomatch_entries"] += len(state["nomatch"])

    def flush(self) -> None:
        for fin in self._live:
            detached = fin.detach()
            if detached is not None:
                self._absorb(detached[2][0])
        self._live.clear()

    def snapshot(self) -> dict:
        return dict(self.totals)


class Tracer:
    """In-memory spans: (operation id, name, start, end, parent index)."""

    def __init__(self):
        self.op = -1
        self.spans: list = []
        self._stack: list[list] = []     # [span index, seconds covered by children]
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.kernel_by_parent: dict = defaultdict(lambda: [0, 0.0])

    def call(self, name, fn, args, kwargs):
        stack = self._stack
        parent = stack[-1][0] if stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        frame = [idx, 0.0]
        stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            stack.pop()
            self.spans[idx] = (self.op, name, t0, t1, parent)
            self.self_s[name] += (t1 - t0) - frame[1]
            self.calls[name] += 1
            if stack:
                stack[-1][1] += t1 - t0

    def head_normalize(self, seconds: float, steps: int) -> None:
        c = self.counts
        c["kernel.head_normalize_calls"] += 1
        c["kernel.zero_step_calls"] += steps == 0
        self.self_s["kernel.head_normalize"] += seconds
        if self._stack:
            frame = self._stack[-1]
            frame[1] += seconds
            agg = self.kernel_by_parent[frame[0]]
            agg[0] += 1
            agg[1] += seconds

    def bookkeeping(self, seconds: float) -> None:
        """Time the wrappers spend counting results; kept out of the
        enclosing span's self time."""
        self.self_s["trace.bookkeeping"] += seconds
        if self._stack:
            self._stack[-1][1] += seconds

    def span(self, name, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = tracer.call(name, fn, args, kwargs)
            if after is not None:
                t0 = perf_counter()
                after(tracer.counts, args, result)
                tracer.bookkeeping(perf_counter() - t0)
            return result
        return traced

    def dump(self) -> dict:
        return {
            "span_fields": ["op", "name", "start_s", "end_s", "parent"],
            "spans": self.spans,
            "head_normalize_by_parent": {str(k): v for k, v in self.kernel_by_parent.items()},
        }


# -- result counters attached to spans ------------------------------------------

_DETOUR_PAIRS = {"and-elim": "and-intro", "imp-elim": "imp-intro",
                 "or-elim": "or-intro", "ex-elim": "ex-intro",
                 "all-elim": "all-intro"}


def count_nodes(d) -> int:
    return sum(1 for _ in d.nodes())


def count_detours(d) -> int:
    return sum(1 for _p, n in d.nodes()
               if n.premises and n.premises[0].rule == _DETOUR_PAIRS.get(n.rule))


def _after_recognize(counts, _args, verdict):
    counts["corec.rejected"] += not verdict.accepted


def _after_prove(counts, _args, proof):
    counts["logic.proof_nodes"] += count_nodes(proof)


def _after_normalize(counts, args, normal):
    counts["logic.detours_removed"] += count_detours(args[0]) - count_detours(normal)


def _after_extract(counts, _args, result):
    counts["extract.extracted_equations"] += len(result.program.body)


# -- the entry points workloads call -------------------------------------------------

class Layers:
    """Public functions of each coeq module, as the workloads call them.

    Workloads call through this object, never through names bound at
    import time, so that a traced run can hand them wrapped versions.
    """

    def __init__(self):
        self.parse_workspace = cli.parse_workspace
        self.cli_main = cli.main
        self.recognize = corec.check_primitive_corecursive
        self.compile_schema = corec.compile_schema
        self.prove_corec = extract_mod.prove_corec
        self.check_proof = logic.check_proof
        self.normalize = logic.normalize
        self.assert_sp_proof = logic.assert_sp_proof
        self.extract = extract_mod.extract
        self.realizes = realize.realizes
        self.roundtrip_report = extract_mod.roundtrip_report
        self.Session = evaluation.Session
        self.derives_omega = evaluation.derives_omega


class Installation:
    """Swaps module attributes and restores them on `close`."""

    def __init__(self):
        self._saved: list = []

    def swap(self, owner, name, value) -> None:
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def close(self) -> None:
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)


def install_counters(counters: KernelCounters) -> Installation:
    base = kernel.KernelSession

    class CountingKernelSession(base):
        def __init__(self):
            super().__init__()
            counters.register(self)

    inst = Installation()
    inst.swap(kernel, "KernelSession", CountingKernelSession)
    return inst


def install_tracer(tracer: Tracer, layers: Layers) -> Installation:
    """Wrap every layer in spans.  Installed over `install_counters`, whose
    kernel class the traced one extends (so sessions are still counted)."""
    kbase = kernel.KernelSession
    base_hn = kbase.head_normalize

    class TracedKernelSession(kbase):
        def head_normalize(self, tid, budget):
            t0 = perf_counter()
            result = base_hn(self, tid, budget)
            tracer.head_normalize(perf_counter() - t0, result[2])
            return result

    sbase = evaluation.Session

    class TracedSession(sbase):
        def __init__(self, *args, **kwargs):
            tracer.call("evaluation.session_init", super().__init__, args, kwargs)

        def observe(self, *args, **kwargs):
            return tracer.call("evaluation.observe", super().observe, args, kwargs)

    span = tracer.span
    recognize = span("corec.recognize", corec.check_primitive_corecursive,
                     _after_recognize)
    compile_schema = span("corec.compile", corec.compile_schema)
    prove_corec = span("extract.prove_corec", extract_mod.prove_corec, _after_prove)
    check_proof = span("logic.check_proof", logic.check_proof)
    normalize = span("logic.normalize", logic.normalize, _after_normalize)
    sp_scan = span("logic.sp_scan", logic.assert_sp_proof)
    extract = span("extract.extract", extract_mod.extract, _after_extract)
    derives_omega = span("evaluation.derives_omega", evaluation.derives_omega)

    inst = Installation()
    inst.swap(kernel, "KernelSession", TracedKernelSession)
    inst.swap(evaluation, "Session", TracedSession)
    inst.swap(evaluation, "validate_program",
              span("program.validate", evaluation.validate_program))
    # every name roundtrip_report and its bisim stage resolve in coeq.extract
    for name, value in (("check_primitive_corecursive", recognize),
                        ("compile_schema", compile_schema),
                        ("prove_corec", prove_corec),
                        ("check_proof", check_proof),
                        ("normalize", normalize),
                        ("assert_sp_proof", sp_scan),
                        ("extract", extract),
                        ("derives_omega", derives_omega),
                        ("Session", TracedSession),
                        ("_bisim_stage", span("extract.bisim_stage",
                                              extract_mod._bisim_stage))):
        inst.swap(extract_mod, name, value)
    inst.swap(realize, "Session", TracedSession)
    inst.swap(realize, "derives_omega", derives_omega)
    inst.swap(cli, "parse_workspace",
              span("cli.parse_workspace", cli.parse_workspace))
    inst.swap(cli, "resolve_workspace",
              span("cli.resolve_workspace", cli.resolve_workspace))
    inst.swap(cli, "check_primitive_corecursive", recognize)
    inst.swap(cli, "Session", TracedSession)
    inst.swap(cli, "derives_omega", derives_omega)

    for name, value in (("parse_workspace", cli.parse_workspace),
                        ("cli_main", span("cli.main", cli.main)),
                        ("recognize", recognize),
                        ("compile_schema", compile_schema),
                        ("prove_corec", prove_corec),
                        ("check_proof", check_proof),
                        ("normalize", normalize),
                        ("assert_sp_proof", sp_scan),
                        ("extract", extract),
                        ("realizes", span("realize.realizes", realize.realizes)),
                        ("roundtrip_report", span("extract.roundtrip_report",
                                                  extract_mod.roundtrip_report)),
                        ("Session", TracedSession),
                        ("derives_omega", derives_omega)):
        inst.swap(layers, name, value)
    return inst


def layer_metrics(tracer: Tracer, counters_delta: dict, passes: int) -> dict:
    """Per-pass layer metrics from a traced run (name -> (value, unit))."""
    s, c, k = tracer.self_s, tracer.counts, counters_delta
    calls = c["kernel.head_normalize_calls"]
    out = {
        "kernel.head_normalize_s": (s["kernel.head_normalize"], "s"),
        "kernel.head_normalize_calls": (calls, "count"),
        "kernel.steps": (k["steps"], "count"),
        "kernel.zero_step_ratio": (c["kernel.zero_step_calls"] / calls if calls else 0.0,
                                   "ratio"),
        "kernel.interned_terms": (k["interned_terms"], "count"),
        "kernel.memo_entries": (k["memo_entries"], "count"),
        "kernel.nomatch_entries": (k["nomatch_entries"], "count"),
        "evaluation.sessions": (tracer.calls["evaluation.session_init"], "count"),
        "evaluation.session_init_s": (s["evaluation.session_init"], "s"),
        "program.validate_s": (s["program.validate"], "s"),
        "evaluation.observe_s": (s["evaluation.observe"], "s"),
        "evaluation.derives_omega_s": (s["evaluation.derives_omega"], "s"),
        "corec.recognize_s": (s["corec.recognize"], "s"),
        "corec.compile_s": (s["corec.compile"], "s"),
        "corec.rejected": (c["corec.rejected"], "count"),
        "extract.prove_corec_s": (s["extract.prove_corec"], "s"),
        "logic.check_proof_s": (s["logic.check_proof"], "s"),
        "logic.normalize_s": (s["logic.normalize"], "s"),
        "logic.detours_removed": (c["logic.detours_removed"], "count"),
        "logic.sp_scan_s": (s["logic.sp_scan"], "s"),
        "logic.proof_nodes": (c["logic.proof_nodes"], "count"),
        "extract.extract_s": (s["extract.extract"], "s"),
        "extract.extracted_equations": (c["extract.extracted_equations"], "count"),
        "realize.realizes_s": (s["realize.realizes"], "s"),
        "cli.parse_s": (s["cli.parse_workspace"] + s["cli.resolve_workspace"], "s"),
        "cli.command_s": (s["cli.main"], "s"),
    }
    return {name: (value if unit == "ratio" else value / passes, unit)
            for name, (value, unit) in out.items()}
