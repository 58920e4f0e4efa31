"""From coinduction proofs to corecursion, and the round trip.

`extract` walks a detour-free, all-strongly-positive derivation and emits
a primitive-corecursive program realizing its conclusion: logical rules
become realizer plumbing over the split algebra, data eliminations become
destructors, rewrites are free, and each coinduction becomes one mutual
schema of fresh corecursive functions, one per member state the invariant
realizer reaches, each producing head bits while stepping the
decomposition evidence, one parameter per evidence component.

`roundtrip_report` drives the full pipeline over the stock library, from
`prove.prove_corec` to `extract`, and checks the extracted programs
against the originals observationally.
"""
from __future__ import annotations

import itertools
import random
from types import GeneratorType

from .corec import (Component, CompositionDef, CorecBundle, CorecSchema,
                    PlainSlot, RecSlot, SchemaFun, Stratum, arg_vars,
                    bundle_equal, check_primitive_corecursive, compile_schema,
                    stock_library)
from .evaluation import DiagramEnv, Session, derives_omega
from .formulas import Derivation, Formula, Or, fv, show_path
from .logic import (CheckResult, _scopes, assert_sp_proof, check_proof, has_detour,
                    normalize)
from .program import Equation, Program, assemble_program, pi_name
from .prove import ExtractError, prove_corec
from .realize import (ALGEBRA, EVEN, ODD, ConsR, Pair, SortError, SymR, _alternatives,
                      _const_bit, _drop, _known, _or_path, _project, _skeleton, case,
                      check_algebra, even_r, head_term_of, mat, sigma1, tail_r, term_sort,
                      var_sorts, zeros_term)
from .system import DataSystem, boolean_stream_system, random_stream_coterm
from .terms import (Con, Fun, Record, Term, Var, _path, _run, substitute, subterms,
                    variables)


# here, not in prove.py, so that its calls resolve in this module's names,
# which the benchmark's tracer wraps for `roundtrip_report` already
def prove_corec_program(program: Program, ds: DataSystem) -> tuple[Derivation, Program]:
    """Recognize, compile, prove: the derivation plus the compiled program
    it is checked against."""
    verdict = check_primitive_corecursive(program, ds)
    if not verdict.accepted:
        raise ExtractError(f"not primitive corecursive: {verdict.reason}")
    compiled = compile_schema(verdict.bundle, ds)
    return prove_corec(verdict.bundle, ds), compiled


class _State(Record, frozen=False):
    """One reachable member state of a coinduction, keyed by the or-path
    bits its invariant realizer carries as constants: the skeleton of the
    rest of that realizer, the state's parameters in order and, once
    stepped, its head bit, its successor and the value of each successor
    parameter."""
    __slots__ = ("skel", "params", "bit", "succ", "nxt")

    def __init__(self, skel: Term | SymR, params: list[str], bit: Term | None = None,
                 succ: tuple[str, ...] = (), nxt: dict[str, Term] | None = None):
        self.skel = skel
        self.params = params
        self.bit = bit
        self.succ = succ
        self.nxt = {} if nxt is None else nxt


def _live(states: dict[tuple[str, ...], _State]) -> dict[tuple[str, ...], list[str]]:
    """Per state, the parameters its output reads, directly or through the
    values passed to live parameters of its successor, in parameter order."""
    live: dict[tuple[str, ...], set[str]] = {p: set() for p in states}
    changed = True
    while changed:
        changed = False
        for p, st in states.items():
            need = set(variables(st.bit))
            for q in live[st.succ]:
                need |= variables(st.nxt[q])
            if need != live[p]:
                live[p] = need
                changed = True
    return {p: [q for q in st.params if q in live[p]] for p, st in states.items()}


def _split_chain(t: Term) -> int:
    """The longest run of nested split_even/split_odd applications in t."""
    best = 0
    stack = [(t, 0)]
    while stack:
        u, run = stack.pop()
        run = run + 1 if isinstance(u, Fun) and u.name in (EVEN, ODD) else 0
        best = max(best, run)
        stack += [(a, run) for a in u.args]
    return best


class ExtractionCertificate(Record, frozen=False):
    """What extraction emitted: one line per coinduction naming its
    runners, the number of coinductions, and the longest split chain in
    any emitted term."""
    __slots__ = ("lines", "split_chain", "coinductions")

    def __init__(self, lines: list[str] | None = None, split_chain: int = 0,
                 coinductions: int = 0):
        self.lines = [] if lines is None else lines
        self.split_chain = split_chain
        self.coinductions = coinductions

    def note(self, path: tuple[int, ...], rule: str, what: str) -> None:
        self.lines.append(f"{show_path(path)}\t{rule}\t{what}")

    def render(self) -> str:
        head = [f"coinductions\t{self.coinductions}",
                f"max-split-chain\t{self.split_chain}"]
        return "\n".join(head + self.lines)


class ExtractionResult(Record, frozen=False):
    __slots__ = ("bundle", "program", "value_params", "realizer_params", "certificate")

    def __init__(self, bundle: CorecBundle, program: Program, value_params: tuple[str, ...],
                 realizer_params: tuple[str, ...], certificate: ExtractionCertificate):
        self.bundle = bundle
        self.program = program
        self.value_params = value_params         # free variables, in parameter order
        self.realizer_params = realizer_params   # assumption labels, in parameter order
        self.certificate = certificate

    @property
    def principal(self) -> str:
        return self.bundle.principal


class Extractor:
    def __init__(self, ds: DataSystem, program: Program):
        self.ds = ds
        self.defs: list[Stratum] = []
        self.counter = itertools.count(1)
        self.cert = ExtractionCertificate()
        self.taken = set(program.functions())
        self.bound: dict[Formula, str | None] = {}   # quantifier -> its variable's sort

    def fresh_name(self, base: str) -> str:
        while True:
            n = f"{base}{next(self.counter)}"
            if n not in self.taken:
                self.taken.add(n)
                return n

    # -- values ---------------------------------------------------------------

    def bound_sort(self, q: Formula) -> str | None:
        """The sort of quantifier q's variable from its body, once per q."""
        if q not in self.bound:
            self.bound[q] = var_sorts(q.body, self.ds, None).get(q.var)
        return self.bound[q]

    def value_term(self, t: Term, ctx: dict) -> Term:
        values = ctx["values"]
        return substitute(t, {v: mat(values[v][1]) for v in variables(t) if v in values})

    # -- the walk ----------------------------------------------------------------

    def extract(self, d: Derivation, ctx: dict, path=()):   # run by _run
        """The realizer of d in ctx.  A handler with premises to walk yields
        a walk per premise; the others return the realizer.  `path` is the
        node's link (see terms._path)."""
        handler = getattr(self, "_x_" + d.rule.replace("-", "_"), None)
        if handler is None:
            raise ExtractError(f"rule '{d.rule}' outside the supported extraction set")
        out = handler(d, ctx, path)
        return (yield from out) if isinstance(out, GeneratorType) else out

    def _x_assume(self, d, ctx, path):
        # keyed by label if a binder made it, else by (label, formula) as
        # check_proof left it open; a miss is a KeyError, an internal error
        label, realizers = d.attr("label"), ctx["realizers"]
        return realizers[label] if label in realizers else realizers[label, d.conclusion]

    def _x_and_intro(self, d, ctx, path):
        a = yield self.extract(d.premises[0], ctx, (path, 0))
        b = yield self.extract(d.premises[1], ctx, (path, 1))
        return Pair(a, Pair(b, zeros_term()))

    def _x_and_elim(self, d, ctx, path):
        w = yield self.extract(d.premises[0], ctx, (path, 0))
        return even_r(w) if d.attr("i") == 1 else sigma1(w)

    def _x_or_intro(self, d, ctx, path):
        r = yield self.extract(d.premises[0], ctx, (path, 0))
        bit = "0" if d.attr("i") == 1 else "1"
        return ConsR(Con(bit), r)

    def _x_or_elim(self, d, ctx, path):
        w = yield self.extract(d.premises[0], ctx, (path, 0))
        bit = head_term_of(w)
        tail = tail_r(w)
        static = _const_bit(bit)
        if static is not None:
            pick = 1 if static == "0" else 2
            ctx2 = _extend(ctx, realizers={d.attr(f"label{pick}"): tail})
            return (yield self.extract(d.premises[pick], ctx2, (path, pick)))
        r1 = yield self.extract(d.premises[1], _extend(
            ctx, realizers={d.attr("label1"): _known(tail, bit, "0")}), (path, 1))
        r2 = yield self.extract(d.premises[2], _extend(
            ctx, realizers={d.attr("label2"): _known(tail, bit, "1")}), (path, 2))
        return case(bit, r1, r2)

    def _x_ex_intro(self, d, ctx, path):
        body_r = yield self.extract(d.premises[0], ctx, (path, 0))
        wt = self.value_term(d.attr("witness"), ctx)
        wit_r = ConsR(wt, zeros_term()) if self.bound_sort(d.conclusion) == "B" else wt
        return Pair(wit_r, Pair(body_r, zeros_term()))

    def _x_ex_elim(self, d, ctx, path):
        w = yield self.extract(d.premises[0], ctx, (path, 0))
        eigen = d.attr("eigen")
        v0 = even_r(w)
        if self.bound_sort(d.premises[0].conclusion) == "B":
            value = ("B", head_term_of(v0))
        else:
            value = ("S", v0)
        ctx2 = _extend(ctx, values={eigen: value},
                       realizers={d.attr("label"): sigma1(w)})
        return (yield self.extract(d.premises[1], ctx2, (path, 1)))

    def _x_refl(self, d, ctx, path):
        t = d.conclusion.left
        vt = self.value_term(t, ctx)
        sorts = {v: sort for v, (sort, _val) in ctx["values"].items()}
        return ConsR(vt, zeros_term()) if term_sort(t, sorts, self.ds, None) == "B" else vt

    def _x_rewrite(self, d, ctx, path):
        return (yield self.extract(d.premises[0], ctx, (path, 0)))

    def _x_data_intro(self, d, ctx, path):
        # over Sm the checker admits only 0 : B and 1 : B here
        return ConsR(d.conclusion.term, zeros_term())

    def _x_data_elim(self, d, ctx, path):
        # over Sm the one coinductive type is cons : B * S -> S
        w = yield self.extract(d.premises[0], ctx, (path, 0))
        return ConsR(head_term_of(w), zeros_term()) if d.attr("i") == 1 else tail_r(w)

    def _x_induction(self, d, ctx, path):
        # over Sm the one inductive predicate is B, its cases 0 then 1
        major = yield self.extract(d.premises[0], ctx, (path, 0))
        cases = []
        for i, p in enumerate(d.premises[1:]):
            cases.append((yield self.extract(p, ctx, (path, 1 + i))))
        return case(head_term_of(major), cases[0], cases[1])

    def _x_coinduction(self, d, ctx, path):
        """One runner per reachable member state, emitted as one mutual
        schema.  A state is the path of constant bits by which the
        invariant realizer selects a disjunct of the invariant; its runner
        emits the head bit of each decomposition step and calls the
        successor state's runner on the next subject and the next invariant
        realizer, that realizer split into one parameter per component of
        the successor's skeleton, so no evidence is merged and split again
        at run time.  A position of the disjunction tree whose bit is not
        constant on every reachable realizer is read at run time instead,
        by the one runner of the state that stops there."""
        hole, label, phi = d.attr("var"), d.attr("label"), d.attr("formula")
        g = yield self.extract(d.premises[0], ctx, (path, 0))
        items_v = sorted(ctx["values"].items())
        items_r = sorted(ctx["realizers"].items(), key=lambda kv: (
            (kv[0], "") if isinstance(kv[0], str) else (kv[0][0], str(kv[0][1]))))
        n_ctx = len(items_v) + len(items_r)
        xs = arg_vars(n_ctx + 1)
        u_param = xs[n_ctx]
        hctx = {"values": {name: (sort, x) for x, (name, (sort, _v)) in zip(xs, items_v)},
                "realizers": {lab: x for x, (lab, _r) in zip(xs[len(items_v):], items_r)}}
        hctx["values"][hole] = ("S", u_param)
        fixed = [x.name for x in xs]

        def step(v: Term | SymR):   # run by _run
            """Head bit, next subject and next realizer of one step."""
            h = yield self.extract(d.premises[1], _extend(hctx, realizers={label: v}),
                                 (path, 1))
            return (head_term_of(even_r(h)), mat(even_r(sigma1(h))),
                    even_r(sigma1(sigma1(sigma1(h)))))

        # probe the step with an opaque realizer: each alternative of the
        # next realizer is a shape a state's evidence can take.  Runners
        # nested in the step are emitted by the state steps only
        emitted = len(self.defs), len(self.cert.lines)
        probe = _alternatives([(yield step(Var(f"x{n_ctx + 2}")))[2]])
        del self.defs[emitted[0]:], self.cert.lines[emitted[1]:]
        probe_paths = [_or_path(a, phi, ())[0] for a in probe]

        # walk from the initial realizer, following the unique successor,
        # until a state repeats.  The states are positions in phi's
        # disjunction tree, so the walk ends within that tree's size; a
        # position whose bit is not constant on some reachable realizer
        # joins the runtime dispatches, and the walk starts again
        dynamic: set[tuple[str, ...]] = set()
        while True:
            states: dict[tuple[str, ...], _State] = {}

            def enter(r: Term | SymR) -> tuple[tuple[str, ...], dict[str, Term]]:
                """The state r realizes and its parameters' values."""
                key, rest, left = _or_path(r, phi, dynamic)
                if isinstance(left, Or) and key not in dynamic:
                    dynamic.add(key)
                if key not in states:
                    fits = [_drop(a, len(key)) for a, ap in zip(probe, probe_paths)
                            if ap[:len(key)] == key[:len(ap)]]
                    skel = _run(_skeleton(fits or [rest], itertools.count(n_ctx + 2)))
                    states[key] = _State(skel, fixed + list(_project(rest, skel, {})))
                return key, _project(rest, states[key].skel, {})

            demoted = len(dynamic)
            start, first = enter(g)
            key = start
            while states[key].bit is None and len(dynamic) == demoted:
                st = states[key]
                skel = st.skel
                for b in reversed(key):
                    skel = ConsR(Con(b), skel)
                st.bit, unext, vnext = yield step(skel)
                st.succ, st.nxt = enter(vnext)
                st.nxt.update({x: Var(x) for x in fixed[:n_ctx]})
                st.nxt[u_param.name] = unext
                key = st.succ
            if len(dynamic) == demoted:
                break
            del self.defs[emitted[0]:], self.cert.lines[emitted[1]:]

        given = [val for _n, (_s, val) in items_v] + [r for _l, r in items_r]
        first.update({x.name: mat(r) for x, r in zip(xs, given)})
        first[u_param.name] = self.value_term(d.conclusion.term, ctx)
        live = _live(states)
        order = list(states)
        # a state the walk leaves for good calls only later ones, so it is
        # declared after them: the cycle first, then the lead-in backwards
        loop = order.index(states[order[-1]].succ)
        order = order[loop:] + order[loop - 1::-1] if loop else order
        names = {p: self.fresh_name("run") for p in states}
        funs = []
        for p in order:
            st, ps = states[p], live[p]
            k = len(ps)
            rename = {q: Var(f"x{i + 1}") for i, q in enumerate(ps)}
            funs.append(SchemaFun(
                names[p], k,
                (PlainSlot(Component(k, substitute(st.bit, rename))),
                 RecSlot(order.index(st.succ) + 1,
                         tuple(Component(k, substitute(st.nxt[q], rename))
                               for q in live[st.succ]))),
                produced="cons"))
        self.defs.append(CorecSchema(tuple(funs)))
        evidence = sum(q not in fixed for p in states for q in live[p])
        runners = ", ".join(f"{names[p]}/{len(live[p])}" for p in states)
        self.cert.note(_path(path), d.rule, f"runner{'s' if len(states) > 1 else ''} "
                                     f"{runners} with {evidence} evidence parameters")
        return Fun(names[start], tuple(first[q] for q in live[start]))


def _extend(ctx: dict, values: dict | None = None,
            realizers: dict | None = None) -> dict:
    out = {"values": dict(ctx["values"]), "realizers": dict(ctx["realizers"])}
    if values:
        out["values"].update(values)
    if realizers:
        out["realizers"].update(realizers)
    return out


def _proof_only_sorts(d: Derivation, free: set[str], ds: DataSystem) -> dict[str, str]:
    """The variables, in no binder above and not in `free`, of the values the
    extractor reads (an ex-intro's witness, a refl's or a coinduction's
    term), each with the sort its positions in that node's formula give."""
    sorts: dict[str, str] = {}
    todo = [(d, frozenset(free))]   # a node, and the names free or bound above it
    while todo:
        node, known = todo.pop()
        if node.rule in ("ex-intro", "refl", "coinduction"):
            f = node.premises[0].conclusion if node.rule == "ex-intro" else node.conclusion
            t = node.attr("witness") if node.rule == "ex-intro" \
                else f.left if node.rule == "refl" else f.term
            names = variables(t) - known - sorts.keys()
            if names:
                at = var_sorts(f, ds, None)
                sorts.update((n, at.get(n, "S")) for n in names)
        scopes = _scopes(node)
        todo += [(p, known.union(scopes.get(i, ((), ()))[1]))
                 for i, p in enumerate(node.premises)]
    return sorts


def require_check(ds: DataSystem, program: Program, d: Derivation) -> CheckResult:
    """`check_proof`'s result on a derivation that checks; else an
    ExtractError naming its first violation."""
    res = check_proof(ds, program, d)
    if not res.ok:
        raise ExtractError(f"derivation does not check: {res.violations[0]}", "check")
    return res


def extract(d: Derivation, program: Program, ds: DataSystem) -> ExtractionResult:
    """Lemma-2 extraction from a detour-free, all-strongly-positive
    derivation: a primitive-corecursive program whose principal maps values
    of the judgment's free variables plus realizers of its open assumptions
    to a realizer of the conclusion.  This is the one gate that decides a
    derivation can be extracted: its system is Sm, it checks, has no detour
    and is strongly positive, else an ExtractError names what fails."""
    if ds != boolean_stream_system():
        raise ExtractError("extraction expects a boolean-stream system")
    try:
        check_algebra(program)
    except ValueError as e:
        raise ExtractError(str(e)) from None
    res = require_check(ds, program, d)
    if has_detour(d):
        raise ExtractError("derivation has logical detours; normalize first", "detour")
    offending = assert_sp_proof(d)
    if offending is not None:
        raise ExtractError(f"non-strongly-positive node at {show_path(offending[0])}",
                           "strongly-positive")
    assumptions = sorted(res.assumptions.keys(), key=lambda kv: kv[0])
    free = sorted(fv(d.conclusion) | {v for _l, f in assumptions for v in fv(f)})
    ex = Extractor(ds, program)
    n_in = len(free) + len(assumptions)
    xs = arg_vars(n_in)
    ctx = {"values": {}, "realizers": dict(zip(assumptions, xs[len(free):]))}
    try:
        sorts = var_sorts((d.conclusion,) + tuple(f for _l, f in assumptions), ds, None)
        for x, v2 in zip(xs, free):
            ctx["values"][v2] = ("B", Fun(pi_name(1), (x,))) if sorts.get(v2) == "B" \
                else ("S", x)
        # a variable free only inside the proof takes a closed value of its
        # sort: the judgment holds for every value
        for v2, s in _proof_only_sorts(d, set(free), ds).items():
            ctx["values"][v2] = ("B", Con("0")) if s == "B" else ("S", zeros_term())
        out = _run(ex.extract(d, ctx))
    except SortError as e:
        raise ExtractError(str(e), "sort") from None
    f0 = ex.fresh_name("f0_") if "f0" in program.functions() else "f0"
    ex.defs.append(CompositionDef(f0, n_in, Component(n_in, mat(out))))
    bundle = CorecBundle(tuple(ex.defs), f0)
    own = set(program.functions())
    extra = [e for e in compile_schema(bundle, ds).body if e.function not in own]
    ex.cert.coinductions = sum(isinstance(s, CorecSchema) for s in ex.defs)
    ex.cert.split_chain = max(_split_chain(e.rhs) for e in extra)
    split = {e.function for e in ALGEBRA}
    if any(u.name in split for e in extra for u in subterms(e.rhs)):
        extra = [e for e in ALGEBRA if e.function not in own] + extra
    merged = assemble_program(ds, list(program.body) + extra, f0)
    return ExtractionResult(bundle, merged, tuple(free),
                            tuple(l for l, _f in assumptions), ex.cert)


# ---------------------------------------------------------------------------
# The Theorem-2 round trip
# ---------------------------------------------------------------------------

class StageResult(Record, frozen=False):
    __slots__ = ("stage", "ok", "detail")

    def __init__(self, stage: str, ok: bool, detail: str = ""):
        self.stage = stage
        self.ok = ok
        self.detail = detail


class RoundtripReport(Record, frozen=False):
    __slots__ = ("depth", "entries")

    def __init__(self, depth: int, entries: dict[str, list[StageResult]]):
        self.depth = depth
        self.entries = entries

    @property
    def ok(self) -> bool:
        return all(s.ok for ss in self.entries.values() for s in ss)

    def render(self) -> str:
        lines = []
        for name, stages in self.entries.items():
            status = "PASS" if all(s.ok for s in stages) else "FAIL"
            lines.append(f"{name}\t{status}")
            for s in stages:
                mark = "ok" if s.ok else "FAIL"
                detail = f"\t{s.detail}" if s.detail and not s.ok else ""
                lines.append(f"  {s.stage}\t{mark}{detail}")
        return "\n".join(lines)


def _rename_functions(program: Program, suffix: str, ds: DataSystem) -> Program:
    mapping = {f: f + suffix for f in program.functions()}
    eqs = [Equation(mapping[e.function], tuple(_rename_calls(p, mapping) for p in e.patterns),
                    _rename_calls(e.rhs, mapping))
           for e in program.body]
    return assemble_program(ds, eqs, mapping[program.principal])


def _rename_calls(t: Term, mapping: dict[str, str]) -> Term:
    """t with each call of a function in `mapping` renamed, on an explicit
    stack."""
    stack = [(t, [])]   # a term, and its arguments renamed so far
    while True:
        u, new = stack[-1]
        if len(new) < len(u.args):
            stack.append((u.args[len(new)], []))
            continue
        stack.pop()
        if isinstance(u, Fun):
            u = Fun(mapping.get(u.name, u.name), tuple(new))
        elif isinstance(u, Con):
            u = Con(u.name, tuple(new))
        if not stack:
            return u
        stack[-1][1].append(u)


ROUNDTRIP_BUDGET = 100_000   # steps for each case of the bisimulation stage

# the stage that each condition of `extract`'s gate decides for the normal
# form of a proof that checked
_GATE_STAGE = {"check": "normalize", "detour": "normalize",
               "strongly-positive": "sp-scan"}


def roundtrip_report(depth: int = 64, ds: DataSystem | None = None,
                     library: dict | None = None, seed: int = 20240817,
                     inputs_per_entry: int = 10) -> RoundtripReport:
    if depth < 1 or inputs_per_entry < 1:
        raise ValueError(f"roundtrip needs depth >= 1 and at least one input per "
                         f"entry (depth {depth}, inputs {inputs_per_entry})")
    ds = ds or boolean_stream_system()
    library = library or stock_library()
    report = RoundtripReport(depth, {})
    for name, entry in library.items():
        stages: list[StageResult] = []
        report.entries[name] = stages
        verdict = check_primitive_corecursive(entry.program, ds)
        stages.append(StageResult("recognize", verdict.accepted,
                                  verdict.reason or ""))
        if not verdict.accepted:
            continue
        compiled = compile_schema(verdict.bundle, ds)
        v2 = check_primitive_corecursive(compiled, ds)
        again = v2.accepted and bundle_equal(verdict.bundle, v2.bundle)
        stages.append(StageResult("compile", again,
                                  "" if again else "re-extraction differs"))
        if not again:
            continue
        try:
            proof = prove_corec(verdict.bundle, ds)
        except ExtractError as e:
            stages.append(StageResult("prove-corec", False, str(e)))
            continue
        chk = check_proof(ds, compiled, proof)
        stages.append(StageResult("prove-corec", chk.ok,
                                  "" if chk.ok else str(chk.violations[0])))
        if not chk.ok:
            continue
        try:
            extraction = extract(normalize(proof), compiled, ds)
        except ExtractError as e:
            failed = _GATE_STAGE.get(e.condition, "extract")
            passed = ("normalize", "sp-scan", "extract").index(failed)
            stages += [StageResult(s, True) for s in ("normalize", "sp-scan")[:passed]]
            stages.append(StageResult(failed, False, str(e)))
            continue
        stages += [StageResult("normalize", True), StageResult("sp-scan", True)]
        rec = check_primitive_corecursive(extraction.program, ds)
        stages.append(StageResult("extract", rec.accepted,
                                  rec.reason or ""))
        if not rec.accepted:
            continue
        ok_bisim, detail = _bisim_stage(entry, extraction, ds, depth, seed,
                                        inputs_per_entry)
        stages.append(StageResult("bisim", ok_bisim, detail))
    return report


def _bisim_stage(entry, extraction: ExtractionResult, ds: DataSystem,
                 depth: int, seed: int, inputs_per_entry: int) -> tuple[bool, str]:
    rng = random.Random(seed)
    orig = _rename_functions(entry.program, "_orig", ds)
    merged = assemble_program(ds, list(extraction.program.body + orig.body),
                              extraction.principal)
    k = entry.arity
    runs = inputs_per_entry if k > 0 else 1
    # every case's inputs under names of their own, so that one session
    # serves all cases
    cases = [[f"in{case}_{i}" for i in range(k)] for case in range(runs)]
    env = DiagramEnv.of({n: random_stream_coterm(rng) for ns in cases for n in ns})
    session = Session(merged, ds, env)
    for case, names in enumerate(cases):
        args = tuple(Fun(n) for n in names)
        # the prover names the entry's arguments x1 .. xk (`arg_vars`), and
        # its assumptions that they are streams h1 .. hk
        values = {x.name: a for x, a in zip(arg_vars(k), args)}
        values.update((f"h{i}", a) for i, a in enumerate(args, 1))
        f0_args = tuple(values[p] for p in extraction.value_params
                        + extraction.realizer_params)
        lhs = Fun(extraction.principal, f0_args)
        rhs = Fun(entry.program.principal + "_orig", args)
        r = derives_omega(merged, env, lhs, rhs, depth, ROUNDTRIP_BUDGET,
                          session=session)
        if not r.equal:
            return False, f"case {case}: {r}"
    return True, ""
