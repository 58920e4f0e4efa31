"""The four workloads: seeded inputs, operations, and their oracles.

An operation is one timed call into coeq plus a check of its verdict
against `oracles` (or, for `roundtrip` and `prove`, against the verdict
the inputs were built to have).  A pass is one list of operations; a run
repeats it a fixed number of times (see `PASS_SECONDS`).  Operations reach
coeq only through a `tracing.Layers` object, so the traced run sees every
call.

* observe   -- kernel and evaluation do almost all the work.
* roundtrip -- `roundtrip_report(depth=64)` one stock entry at a time.
* prove     -- parser, recognizer, prover, proof kernel, extraction.
* deep      -- the CLI at observation depths 10^3..10^4.
"""
from __future__ import annotations

import contextlib
import io
import random
from pathlib import Path

from coeq.corec import StockEntry, morse_thue_program, stock_library
from coeq.evaluation import ApproxNode, Cut, DiagramEnv, Stalled
from coeq.logic import Derivation, DataAtom, assume, imp_elim, imp_intro
from coeq.program import assemble_program
from coeq.realize import ZEROS, RealizabilityJudgment
from coeq.system import boolean_stream_system, random_stream_coterm, stream_coterm
from coeq.terms import Fun, Var

import oracles

HERE = Path(__file__).resolve().parent
STREAMS_CDS = HERE / "streams.cds"
SM = boolean_stream_system()

ROUNDTRIP_SEED = 20240817   # roundtrip_report's default: same inputs as `coeq roundtrip`
REALIZE_BUDGET = 200_000
ROUNDTRIP_BUDGET = 100_000  # roundtrip_report's default step budget

SIZES = {
    "full": {
        "depths": (16, 64, 256), "cycles": tuple(range(1, 13)), "law_cycles": 4,
        "roundtrip_depth": 64, "roundtrip_inputs": 10,
        "family_sizes": (2, 4, 8, 24), "realize_depth": 8,
        "deep_depths": (1_000, 10_000), "deep_per_template": 2,
        "curve_depths": (8, 16, 32, 64),
    },
    # the smoke check: every oracle runs, nothing is big
    "tiny": {
        "depths": (4, 8), "cycles": (1, 3), "law_cycles": 1,
        "roundtrip_depth": 8, "roundtrip_inputs": 2,
        "family_sizes": (2, 8), "realize_depth": 4,
        "deep_depths": (20, 60), "deep_per_template": 1,
        "curve_depths": (2, 4),
    },
}


class Op:
    """`run()` is timed; `check(output)` returns None when the verdict is
    the expected one, else a short description of the mismatch."""
    __slots__ = ("label", "run", "check")

    def __init__(self, label, run, check):
        self.label = label
        self.run = run
        self.check = check


# Nominal seconds of one pass on a 2-vCPU Xeon (2.1 GHz, CPython 3.11);
# a run makes --seconds / this many passes.
PASS_SECONDS = {"observe": 2.5, "roundtrip": 40.0, "prove": 5.0, "deep": 0.1}


class Workload:
    """A fixed list of operations, run as one pass, as many passes as the
    run asks for (so every operation's time is a best of N)."""

    def __init__(self, name: str, ops: list[Op]):
        self.name = name
        self.ops = ops
        self.pass_seconds = PASS_SECONDS[name]


def build(name: str, seed: int, size: str, layers, workdir: Path) -> Workload:
    cfg = SIZES[size]
    rng = random.Random(f"{name}/{seed}")
    if name == "observe":
        ops = _observe_pass(rng, cfg, layers)
    elif name == "roundtrip":
        ops = _roundtrip_pass(rng, cfg, layers)
    elif name == "prove":
        ops = _prove_pass(rng, cfg, layers, workdir / f"prove-{seed}")
    elif name == "deep":
        ops = _deep_pass(rng, cfg, layers)
    else:
        raise ValueError(f"unknown workload {name!r}")
    return Workload(name, ops)


# -- shared helpers ----------------------------------------------------------------

def random_stream(rng: random.Random, cycle: int):
    """(bits, loop_to): a prefix of 0..3 bits, then a cycle of `cycle` bits."""
    prefix = rng.randint(0, 3)
    return tuple(rng.randint(0, 1) for _ in range(prefix + cycle)), prefix


def stream_env(streams) -> DiagramEnv:
    return DiagramEnv.of({f"in{i}": stream_coterm(list(bits), loop_to)
                          for i, (bits, loop_to) in enumerate(streams)})


def expr_term(expr):
    """Oracle expression (name or (function, args...)) as a coeq term."""
    if isinstance(expr, str):
        return Fun(expr)
    fn, *args = expr
    return Fun(fn, tuple(expr_term(a) for a in args))


def flatten(a):
    """(bits, ending) of a stream approximation; the ending is
    ("cut", depth), ("stall", kind, depth) or ("other", repr)."""
    bits = []
    node = a
    while isinstance(node, ApproxNode) and node.constructor == "cons" \
            and len(node.children) == 2:
        head = node.children[0]
        if not (isinstance(head, ApproxNode) and head.constructor in ("0", "1")):
            return bits, ("other", repr(head))
        bits.append(int(head.constructor))
        node = node.children[1]
    if isinstance(node, Cut):
        return bits, ("cut", node.depth)
    if isinstance(node, Stalled):
        return bits, ("stall", node.reason.kind, node.depth)
    return bits, ("other", type(node).__name__)


def _expect_equal(expected):
    def check(got):
        return None if got == expected else f"expected {expected}, got {got}"
    return check


def _unroll_inputs(streams, depth):
    return {f"in{i}": oracles.unroll(s, 4 * depth + 8) for i, s in enumerate(streams)}


def run_cli(layers, argv):
    """In-process `coeq ARGV`: (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = layers.cli_main(argv)
    return code, out.getvalue()


# -- observe ---------------------------------------------------------------------

# Laws of the paper's stream algebra (merge/even/odd, flip, zipxor), plus
# three non-laws whose first difference depends on the input.
LAWS = (
    (("merge", ("even", "in0"), ("odd", "in0")), "in0"),
    (("even", ("merge", "in0", "in1")), "in0"),
    (("odd", ("merge", "in0", "in1")), "in1"),
    (("flip", ("flip", "in0")), "in0"),
    (("zipxor", "in0", "in0"), "zeros"),
    (("zipxor", ("zipxor", "in0", "in1"), "in1"), "in0"),
    (("flip", "in0"), "in0"),
    (("even", "in0"), ("odd", "in0")),
    (("merge", "in0", "in1"), ("merge", "in1", "in0")),
)


def _observe_pass(rng, cfg, layers) -> list[Op]:
    ops: list[Op] = []
    lib = stock_library()
    for name, entry in lib.items():
        for depth in cfg["depths"]:
            for cycle in cfg["cycles"]:
                streams = [random_stream(rng, cycle) for _ in range(entry.arity)]
                expr = (name, *[f"in{i}" for i in range(entry.arity)]) \
                    if entry.arity else name
                ops.append(_observe_op(f"observe:{name}", layers, entry.program,
                                       streams, expr_term(expr), depth,
                                       oracles.expected_observation(
                                           expr, _unroll_inputs(streams, depth), depth)))
    ws = layers.parse_workspace(STREAMS_CDS.read_text(encoding="utf-8"))
    flip, b = ws.pick_program("flip"), ws.pick_program("b")
    for depth in cfg["depths"]:
        for cycle in cfg["cycles"]:
            x = random_stream(rng, cycle)
            xs = oracles.unroll(x, depth)
            ops.append(_observe_op("observe:ws-flip", layers, flip, [x],
                                   expr_term(("flip", "in0")), depth,
                                   oracles.expected_observation(
                                       ("flip", "in0"), _unroll_inputs([x], depth), depth)))
            ops.append(_observe_op("observe:ws-b-equal", layers, b, [x, x],
                                   expr_term(("b", "in0", "in1")), depth,
                                   oracles.expected_b(xs, xs, depth)))
            y = _differing_stream(x, rng.randint(x[1], depth - 1))
            ops.append(_observe_op("observe:ws-b-unequal", layers, b, [x, y],
                                   expr_term(("b", "in0", "in1")), depth,
                                   oracles.expected_b(xs, oracles.unroll(y, depth), depth)))
    laws_program = _union_program(lib)
    for li, (lhs, rhs) in enumerate(LAWS):
        for di, depth in enumerate(cfg["depths"]):
            for j in range(cfg["law_cycles"]):
                cycle = cfg["cycles"][(li + di + 3 * j) % len(cfg["cycles"])]
                streams = [random_stream(rng, cycle) for _ in range(2)]
                expected = oracles.expected_omega(lhs, rhs, _unroll_inputs(streams, depth),
                                                  depth)
                ops.append(_omega_op(f"observe:law{li}", layers, laws_program,
                                     streams, lhs, rhs, depth, expected))
    return ops


def _differing_stream(x, p):
    """A stream equal to x except at position p (p >= x's loop start)."""
    bits, loop_to = x
    period = len(bits) - loop_to
    head = oracles.unroll(x, p + 1 + period)
    head[p] = 1 - head[p]
    return tuple(head), p + 1


def _union_program(lib):
    seen, eqs = set(), []
    for entry in lib.values():
        for e in entry.program.body:
            if str(e) not in seen:
                seen.add(str(e))
                eqs.append(e)
    return assemble_program(SM, eqs, "ident")


def _observe_op(label, layers, program, streams, term, depth, expected) -> Op:
    env = stream_env(streams)

    def run():
        return layers.Session(program, SM, env).observe(term, depth)
    return Op(label, run, lambda a: _expect_equal(expected)(flatten(a)))


def _omega_op(label, layers, program, streams, lhs, rhs, depth, expected) -> Op:
    env = stream_env(streams)
    lt, rt = expr_term(lhs), expr_term(rhs)

    def run():
        return layers.derives_omega(program, env, lt, rt, depth, ds=SM)
    return Op(label, run, lambda r: _expect_equal(expected)((r.status, tuple(r.path))))


# -- roundtrip ---------------------------------------------------------------------

STAGES = ("recognize", "compile", "prove-corec", "normalize", "sp-scan",
          "extract", "bisim")


def roundtrip_library() -> dict[str, StockEntry]:
    lib = dict(stock_library())
    lib["morse_thue"] = StockEntry("morse_thue", morse_thue_program(), 0,
                                   "cumulative corecursion (not accepted)")
    return lib


def _roundtrip_pass(rng, cfg, layers) -> list[Op]:
    lib = roundtrip_library()
    order = list(lib)
    rng.shuffle(order)          # the seed only orders the entries
    return [_roundtrip_op(name, lib[name], cfg, layers) for name in order]


def _roundtrip_op(name, entry, cfg, layers) -> Op:
    library = {name: entry}
    if name == "morse_thue":
        # x = 1 : merge(x, not x) is cumulative: rejected at recognize,
        # naming the recursive occurrence and its context
        expected = [("recognize", False, "'mt' in 'merge(mt, notf(mt))'")]
    else:
        expected = [(s, True, "") for s in STAGES]

    def run():
        return layers.roundtrip_report(depth=cfg["roundtrip_depth"], library=library,
                                       inputs_per_entry=cfg["roundtrip_inputs"])

    def check(report):
        got = report.entries.get(name, [])
        if [(s.stage, s.ok) for s in got] != [(s, ok) for s, ok, _ in expected]:
            return f"stages {[(s.stage, s.ok, s.detail) for s in got]}"
        for s, (_, _, needle) in zip(got, expected):
            if needle not in s.detail:
                return f"stage {s.stage}: detail {s.detail!r} lacks {needle!r}"
        return None
    return Op(f"roundtrip:{name}", run, check)


# -- prove -------------------------------------------------------------------------

SYSTEM_CDS = """system Sm {
  inductive B;
  coinductive S;
  constructor 0 : B;
  constructor 1 : B;
  constructor cons : B * S -> S;
}
"""

# The stock corpus written out by hand: (principal, arity, equations).
STOCK_CDS = (
    ("ident", 1, "ident(x) = cons(pi1(x), ident(pi2(x)));"),
    ("even", 1, "even(x) = cons(pi1(x), even(pi2(pi2(x))));"),
    ("odd", 1, "even(x) = cons(pi1(x), even(pi2(pi2(x))));\n  odd(x) = even(pi2(x));"),
    ("flip", 1, "flip(cons(0, w)) = cons(1, flip(w));\n  flip(cons(1, w)) = cons(0, flip(w));"),
    ("merge", 2, "merge(x, y) = cons(pi1(x), merge(y, pi2(x)));"),
    ("zeros", 0, "zeros = cons(0, zeros);"),
    ("ones", 0, "ones = cons(1, ones);"),
    ("zipxor", 2, "notf(x) = delta(x, 1, 0, 0);\n"
                  "  zipxor(x, y) = cons(delta(pi1(x), pi1(y), notf(pi1(y)), 0), "
                  "zipxor(pi2(x), pi2(y)));"),
    ("alt", 0, "alt = cons(0, altb);\n  altb = cons(1, alt);"),
)

DETOUR_EVERY = 4   # inject an imp-intro/imp-elim detour at every 4th proof node
# A realizability check at depth 8 sees one output per function or argument
# of a family member only up to N = 8; from there on it costs the same
# fixed kernel work (0.5-1 s) whatever N is, so it runs only below that.
REALIZE_BELOW_N = 8


def program_cds(principal: str, equations: str) -> str:
    return f"{SYSTEM_CDS}\nprogram {principal} {{\n  {equations}\n}}\n"


def mutual_family(rng, n):
    """n mutually corecursive unary functions f1 -> f2 -> ... -> f1; every
    second head is negated and every third tail skips two elements.  The
    shape is fixed, since the prover's and extractor's cost depends on it;
    the seed picks the names."""
    f = rng.choice("fghkmpq")
    eqs = []
    for i in range(1, n + 1):
        head = "delta(pi1(x), 1, 0, 0)" if i % 2 == 0 else "pi1(x)"
        tail = "pi2(pi2(x))" if i % 3 == 0 else "pi2(x)"
        eqs.append(f"{f}{i}(x) = cons({head}, {f}{i % n + 1}({tail}));")
    return f"{f}1", 1, "\n  ".join(eqs)


def cycle_family(rng, n):
    """An n-cycle of nullary streams c1 = b1 : c2, ..., cn = bn : c1, with
    as many 1s as 0s (give or take one) in seeded order."""
    c = rng.choice("cdstuvw")
    bits = [i % 2 for i in range(n)]
    rng.shuffle(bits)
    eqs = [f"{c}{i} = cons({bits[i - 1]}, {c}{i % n + 1});" for i in range(1, n + 1)]
    return f"{c}1", 0, "\n  ".join(eqs)


def rotate_family(rng, n):
    """n-ary rotate/merge, merge generalized to n streams: emit the negated
    head of x1, then rotate x1's tail to the back.  The seed picks the name."""
    r = rng.choice(("rot", "spin", "turn", "wheel"))
    xs = [f"x{i}" for i in range(1, n + 1)]
    rest = ", ".join(xs[1:] + ["pi2(x1)"])
    return r, n, f"{r}({', '.join(xs)}) = cons(delta(pi1(x1), 1, 0, 0), {r}({rest}));"


def _fresh_names(rng, k):
    names = set()
    while len(names) < k:
        names.add(rng.choice("fghkmpq") + str(rng.randint(1, 99)))
    return sorted(names)


def rejected_programs(rng):
    """Programs the recognizer must reject, with a substring of the reason
    that names the offending position."""
    f, g = _fresh_names(rng, 2)
    bit = rng.randint(0, 1)
    return (
        ("nonexhaustive", f,
         f"{f}(cons({bit}, w)) = cons({1 - bit}, {f}(w));",
         f"non-exhaustive patterns: cases {{{bit}}} at 'pi1(x1)'"),
        ("unguarded", f, f"{f}(x) = {f}(pi2(x));",
         f"unguarded recursion: right-hand side '{f}(pi2(x))'"),
        ("noncomponent", f,
         f"{g}(x) = cons(pi1(x), pi2(x));\n  {f}(x) = cons(pi1(x), {g}({f}(pi2(x))));",
         f"non-component context: '{f}(pi2(x))' in '{g}({f}(pi2(x)))'"),
        ("cumulative", f,
         f"notf(x) = delta(x, 1, 0, 0);\n  {g}(x, y) = cons(pi1(x), {g}(y, pi2(x)));\n"
         f"  {f} = 1 : {g}({f}, notf({f}));",
         f"non-component context: '{f}' in '{g}({f}, notf({f}))'"),
    )


def inject_detours(d: Derivation, every: int) -> Derivation:
    """Wrap every `every`-th node (preorder) D : A as
    imp-elim(imp-intro_l(assume_l A), D), a detour normalize must remove."""
    count = 0

    def go(node: Derivation) -> Derivation:
        nonlocal count
        i = count
        count += 1
        prems = tuple(go(p) for p in node.premises)
        if prems != node.premises:
            node = Derivation(node.rule, node.conclusion, prems, node.attrs)
        if i % every == every - 1:
            label = f"_detour{i}"
            node = imp_elim(imp_intro(label, node.conclusion,
                                      assume(label, node.conclusion)), node)
        return node
    return go(d)


def _prove_pass(rng, cfg, layers, workdir: Path) -> list[Op]:
    workdir.mkdir(parents=True, exist_ok=True)
    depth = cfg["realize_depth"]
    programs = []   # (label, principal, arity, equations, reason, realize depth)
    for family in (mutual_family, cycle_family, rotate_family):
        for n in cfg["family_sizes"]:
            principal, arity, eqs = family(rng, n)
            programs.append((f"{family.__name__}{n}", principal, arity, eqs, None,
                             depth if n < REALIZE_BELOW_N else None))
    for principal, arity, eqs in STOCK_CDS:
        programs.append((f"stock-{principal}", principal, arity, eqs, None, depth))
    for kind, principal, eqs, reason in rejected_programs(rng):
        programs.append((f"rejected-{kind}", principal, 0, eqs, reason, None))
    ops = []
    for label, principal, arity, eqs, reason, realize_depth in programs:
        text = program_cds(principal, eqs)
        path = workdir / f"{label}.cds"
        path.write_text(text, encoding="utf-8")
        streams = [random_stream(rng, rng.randint(1, 12)) for _ in range(arity)]
        ops.append(_prove_op(f"prove:{label}", layers, text, str(path), principal,
                             arity, streams, reason, realize_depth))
    return ops


def _prove_op(label, layers, text, path, principal, arity, streams, reason,
              realize_depth) -> Op:
    argv = ["--format=tagged", "productive", path, principal]
    env = stream_env(streams)
    args = tuple(Fun(f"in{i}") for i in range(arity))
    eta = {f"x{i + 1}": args[i] for i in range(arity)}
    formula = DataAtom("S", Fun(principal, tuple(Var(f"x{i + 1}") for i in range(arity))))

    def run():
        code, out = run_cli(layers, argv)
        if reason is not None:
            return {"cli": (code, out)}
        ws = layers.parse_workspace(text)
        ds = ws.system
        verdict = layers.recognize(ws.pick_program(principal), ds)
        compiled = layers.compile_schema(verdict.bundle, ds)
        proof = layers.prove_corec(verdict.bundle, ds)
        checked = layers.check_proof(ds, compiled, proof)
        normal = layers.normalize(inject_detours(proof, DETOUR_EVERY))
        rechecked = layers.check_proof(ds, compiled, normal)
        offender = layers.assert_sp_proof(normal)
        extraction = layers.extract(normal, compiled, ds)
        again = layers.recognize(extraction.program, ds)
        result = {"cli": (code, out), "checked": checked.ok,
                  "normal_is_original": normal == proof, "rechecked": rechecked.ok,
                  "sp_offender": offender, "extracted_accepted": again.accepted}
        if realize_depth is not None:
            # value parameters x_i and realizer parameters h_i both take input i
            f0_args = tuple(args[int(p[1:]) - 1] for p in
                            extraction.value_params + extraction.realizer_params)
            result["realizes"] = str(layers.realizes(RealizabilityJudgment.of(
                extraction.program, ds, env, eta, Fun(extraction.principal, f0_args),
                formula, realize_depth, budget=REALIZE_BUDGET)))
        return result

    def check(r):
        code, out = r["cli"]
        if reason is not None:
            if code != 1 or "VERDICT\trejected" not in out:
                return f"cli exit {code}: {out!r}"
            return None if reason in out else f"reason lacks {reason!r}: {out!r}"
        if code != 0 or "VERDICT\tprimitive-corecursive" not in out:
            return f"cli exit {code}: {out!r}"
        want = {"checked": True, "normal_is_original": True, "rechecked": True,
                "sp_offender": None, "extracted_accepted": True}
        if realize_depth is not None:
            want["realizes"] = "holds-up-to-depth"
        bad = {k: r[k] for k, v in want.items() if r[k] != v}
        return f"mismatch {bad}" if bad else None
    return Op(label, run, check)


# -- deep --------------------------------------------------------------------------

# Terms over streams.cds's env E, where v_a = 0 : v_b, v_b = 1 : v_a and
# v_r = rec a. 0 : 1 : a, so every verdict follows from the cycles.
DEEP_TEMPLATES = (
    ("eval", ("flip(v_a)",), [1, 0]),
    ("eval", ("even(v_r)",), [0]),
    ("bisim", ("flip(v_a)", "v_b"), None),
    ("bisim", ("v_a", "v_r"), None),
)


def _deep_pass(rng, cfg, layers) -> list[Op]:
    lo, hi = cfg["deep_depths"]
    ops = []
    for command, terms, period in DEEP_TEMPLATES:
        for _ in range(cfg["deep_per_template"]):
            depth = rng.randint(lo, hi)
            argv = ["--format=tagged", command, str(STREAMS_CDS), *terms,
                    "--depth", str(depth), "--env", "E"]
            if command == "eval":
                bits = [period[i % len(period)] for i in range(depth)]
                expected = (0, f"APPROXIMATION\t{oracles.render_stream(bits, depth)}\n"
                               "STALL\tnone\n")
            else:
                expected = (0, "VERDICT\tequal-up-to-depth\n")
            ops.append(Op(f"deep:{command}", lambda argv=argv: run_cli(layers, argv),
                          _expect_equal(expected)))
    return ops


# -- steps against depth (traced run) ------------------------------------------------

def steps_curve(layers, depths) -> dict:
    """Kernel steps to observe each stock entry's extracted program and its
    original to each depth, on the first input `roundtrip_report` uses."""
    curve = {}
    for name, entry in stock_library().items():
        verdict = layers.recognize(entry.program, SM)
        compiled = layers.compile_schema(verdict.bundle, SM)
        normal = layers.normalize(layers.prove_corec(verdict.bundle, SM))
        ex = layers.extract(normal, compiled, SM)
        rng = random.Random(ROUNDTRIP_SEED)
        names = [f"in{i}" for i in range(entry.arity)]
        env = DiagramEnv.of({n: random_stream_coterm(rng) for n in names})
        args = tuple(Fun(n) for n in names)
        # the argument wiring of roundtrip_report's bisim stage: assumption
        # h<i> is realized by the input bound to value parameter x<i>
        values = {v: args[i] for i, v in enumerate(ex.value_params)}
        f0_args = tuple(values[v] for v in ex.value_params) + tuple(
            values.get(f"x{h[1:]}", args[0] if args else Fun(ZEROS))
            for h in ex.realizer_params)
        terms = {"extracted": (ex.program, Fun(ex.principal, f0_args)),
                 "original": (entry.program, Fun(entry.program.principal, args))}
        for kind, (program, term) in terms.items():
            steps = {}
            for depth in depths:
                session = layers.Session(program, SM, env)
                end = flatten(session.observe(term, depth, ROUNDTRIP_BUDGET))[1]
                if end != ("cut", depth):
                    raise RuntimeError(f"{name}/{kind} at depth {depth} ended {end}")
                steps[depth] = session.k.steps_total
            curve[f"{name}.{kind}"] = steps
    return curve
