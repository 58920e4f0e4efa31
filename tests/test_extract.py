import dataclasses
import gc
import random

import pytest

from helpers import (SM, ZERO, ONE, alternating_stream, approx_bits, cons, fn,
                     random_stream, stream_prefix, v)

from coeq.cli import parse_workspace
from coeq.corec import (Component, CorecBundle, CorecSchema, PlainSlot, RecSlot,
                        SchemaFun, check_primitive_corecursive, compile_schema,
                        stock_library)
from coeq.evaluation import DiagramEnv, Session, derives_omega, first_stall
from coeq.extract import (ExtractError, Extractor, Prover, extract, prove_corec,
                          prove_corec_program, roundtrip_report)
from coeq.logic import (And, Derivation, PolarityClass, assert_sp_proof, assume,
                        check_proof, classify_formula, has_detour, normalize)
from coeq.program import assemble_program
from coeq.realize import (RealizabilityJudgment, even_term, merge_term,
                          odd_term, realizes, split_term, with_algebra)
from coeq.system import random_stream_coterm, stream_coterm
from coeq.terms import Con, Fun, Var, subterms


# -- split/merge algebra -------------------------------------------------------

def _alg(env=None):
    lib = stock_library()
    return Session(with_algebra(lib["ident"].program, SM), SM, env)


def test_split_even_positions():
    env = DiagramEnv.of({"a": alternating_stream()})
    alg = _alg(env)
    out = alg.observe(split_term(fn("a"), 0), 16)
    assert approx_bits(out) == [0] * 16


def test_split_head_positions():
    rng = random.Random(88)
    for _ in range(10):
        ct = random_stream(rng)
        bits = stream_prefix(ct, 64)
        env = DiagramEnv.of({"u": ct})
        alg = _alg(env)
        for i in range(4):
            out = alg.observe(split_term(fn("u"), i), 1)
            assert approx_bits(out)[:1] == [bits[2 ** i - 1]], i


def test_merge_inverts_split():
    rng = random.Random(13)
    for _ in range(20):
        ct = random_stream(rng)
        env = DiagramEnv.of({"u": ct})
        alg = _alg(env)
        t = merge_term(even_term(fn("u")), odd_term(fn("u")))
        r = derives_omega(alg.program, None, t, fn("u"), 32, session=alg)
        assert r.equal


def test_split_of_merge_projects():
    rng = random.Random(14)
    for _ in range(20):
        a, b = random_stream(rng), random_stream(rng)
        env = DiagramEnv.of({"a": a, "b": b})
        alg = _alg(env)
        assert derives_omega(alg.program, None, even_term(merge_term(fn("a"), fn("b"))),
                             fn("a"), 32, session=alg).equal
        assert derives_omega(alg.program, None, odd_term(merge_term(fn("a"), fn("b"))),
                             fn("b"), 32, session=alg).equal


def test_merge_constant_streams():
    lib = stock_library()
    eqs = [e for e in lib["zeros"].program.body if e.function == "zeros"]
    eqs += [e for e in lib["ones"].program.body if e.function == "ones"]
    prog = assemble_program(SM, eqs, "zeros")
    alg = Session(with_algebra(prog, SM), SM)
    out = alg.observe(merge_term(fn("zeros"), fn("ones")), 16)
    assert approx_bits(out) == [0, 1] * 8


def test_split_algebra_has_one_definition():
    """The split equations a realizer session evaluates are, as text, the
    ones extraction emits."""
    def split_eqs(program):
        return [str(e) for e in program.body if e.function.startswith("split_")]

    ident = stock_library()["ident"].program
    emitted = _extract_program(ident, SM).program
    assert split_eqs(with_algebra(ident, SM)) == split_eqs(emitted)
    assert len(split_eqs(emitted)) == 4


# -- realizes -------------------------------------------------------------------

def test_realizes_stream_atom():
    from coeq.logic import DataAtom
    lib = stock_library()
    env = DiagramEnv.of({"a": alternating_stream()})
    prog = lib["flip"].program
    j = RealizabilityJudgment.of(prog, SM, env, {},
                                 fn("flip", fn("a")),
                                 DataAtom("S", Fun("flip", (Fun("a"),))), 8)
    assert realizes(j).holds
    j2 = RealizabilityJudgment.of(prog, SM, env, {}, fn("a"),
                                  DataAtom("S", Fun("flip", (Fun("a"),))), 8)
    r2 = realizes(j2)
    assert r2.status == "fails"


def test_realizes_disjunction_selects_by_head():
    from coeq.logic import EqAtom, Or, DataAtom
    lib = stock_library()
    env = DiagramEnv.of({"a": alternating_stream()})
    prog = lib["zeros"].program
    phi = Or(EqAtom(Con("0"), Con("0")), DataAtom("S", Var("nope")))
    # head 0 selects the left disjunct; tail must realize 0 = 0
    realizer = cons(ZERO, fn("zeros"))
    j = RealizabilityJudgment.of(prog, SM, env, {"nope": fn("a")}, realizer, phi, 4)
    assert realizes(j).holds
    bad = cons(ONE, fn("zeros"))
    j2 = RealizabilityJudgment.of(prog, SM, env, {"nope": fn("a")}, bad, phi, 4)
    assert not realizes(j2).holds


def test_realizes_exists_conjunction():
    from coeq.logic import And, DataAtom, EqAtom, Exists
    lib = stock_library()
    env = DiagramEnv.of({"a": alternating_stream()})
    prog = lib["ident"].program
    # ex y. S(y) & ident(y) = z   realized by merge(a, merge(value, zeros))
    phi = Exists("y", And(DataAtom("S", Var("y")),
                          EqAtom(Fun("ident", (Var("y"),)), Var("z"))))
    zeros = Fun("split_zeros")
    body_realizer = merge_term(fn("a"), merge_term(fn("ident", fn("a")), zeros))
    realizer = merge_term(fn("a"), merge_term(body_realizer, zeros))
    j = RealizabilityJudgment.of(prog, SM, env, {"z": fn("ident", fn("a"))},
                                 realizer, phi, 4)
    assert realizes(j).holds


def test_realizes_rejects_non_sp():
    from coeq.logic import DataAtom, Imp
    import pytest
    lib = stock_library()
    phi = Imp(DataAtom("S", Var("x")), DataAtom("S", Var("x")))
    j = RealizabilityJudgment.of(lib["ident"].program, SM, None, {},
                                 fn("split_zeros"), phi, 4)
    with pytest.raises(ValueError):
        realizes(j)


# -- prove_corec ----------------------------------------------------------------

def _prove(name):
    entry = stock_library()[name]
    verdict = check_primitive_corecursive(entry.program, SM)
    assert verdict.accepted, verdict.reason
    compiled = compile_schema(verdict.bundle, SM)
    d = prove_corec(verdict.bundle, SM)
    return d, compiled, verdict


def test_prove_corec_even_checks():
    d, compiled, _ = _prove("even")
    res = check_proof(SM, compiled, d)
    assert res.ok, res.violations[:3]
    from coeq.logic import DataAtom
    assert res.conclusion == DataAtom("S", Fun("even", (Var("x1"),)))
    assert set(res.assumptions) == {("h1", DataAtom("S", Var("x1")))}


def test_prove_corec_identity_and_flip():
    for name in ("ident", "flip"):
        d, compiled, _ = _prove(name)
        res = check_proof(SM, compiled, d)
        assert res.ok, (name, res.violations[:3])


def test_prove_corec_all_library_normal_and_sp():
    for name in stock_library():
        d, compiled, _ = _prove(name)
        res = check_proof(SM, compiled, d)
        assert res.ok, (name, res.violations[:3])
        n = normalize(d)
        assert not has_detour(n)
        res2 = check_proof(SM, compiled, n)
        assert res2.ok, (name, res2.violations[:3])
        assert res2.conclusion == res.conclusion
        assert assert_sp_proof(n) is None, name


def _mutate(d: Derivation, path, **changes) -> Derivation:
    """d with the node at `path` replaced by a copy with `changes`."""
    if not path:
        return dataclasses.replace(d, **changes)
    i = path[0]
    prems = d.premises[:i] + (_mutate(d.premises[i], path[1:], **changes),) \
        + d.premises[i + 1:]
    return dataclasses.replace(d, premises=prems)


def _with_attr(node: Derivation, key: str, value) -> tuple:
    return tuple((k, value if k == key else v) for k, v in node.attrs)


def _break(node: Derivation, program) -> dict | None:
    """A change to one node of a checked proof (a premise, label, equation
    index, eigenvariable, witness, case variable, rule argument or
    conclusion) that the node's own rule rejects; None when the node has
    no such change here (say, both conjuncts are the same formula)."""
    from coeq.logic import EqAtom, alpha_eq, fv
    rule, c = node.rule, node.conclusion
    if rule == "assume":
        return {"attrs": _with_attr(node, "label", "")}
    if rule == "and-intro" and not alpha_eq(c.left, c.right):
        return {"premises": node.premises[::-1]}
    if rule == "and-elim":
        major = node.premises[0].conclusion
        if not alpha_eq(major.left, major.right):
            return {"attrs": _with_attr(node, "i", 3 - node.attr("i"))}
    if rule == "or-intro" and not alpha_eq(c.left, c.right):
        return {"attrs": _with_attr(node, "i", 3 - node.attr("i"))}
    if rule in ("or-elim", "refl"):
        return {"conclusion": EqAtom(Var("z_new"), Var("z_new2"))}
    if rule == "ex-intro" and c.var in fv(c.body):
        return {"attrs": _with_attr(node, "witness", Var("w_new"))}
    if rule == "ex-elim":
        return {"attrs": _with_attr(node, "eigen", "e_new")}
    if rule == "coinduction":
        return {"attrs": _with_attr(node, "label", "w2")}
    if rule == "rewrite":
        n = len(program.equations_of(node.attr("fn")))
        if n > 1:
            return {"attrs": _with_attr(node, "idx", (node.attr("idx") + 1) % n)}
    if rule == "data-elim":
        return {"attrs": _with_attr(node, "i", 3 - node.attr("i"))}
    if rule == "data-intro":
        zero_t, one_t = SM.types[:2]
        other = one_t if node.attr("type") == zero_t else zero_t
        return {"attrs": _with_attr(node, "type", other)}
    if rule == "induction":
        vs = node.attr("case_vars")
        return {"attrs": _with_attr(node, "case_vars", ((vs[0] + ("k_new",)),) + vs[1:])}
    return None


def test_checker_names_the_mutated_node_of_a_prove_corec_proof():
    """In every stock entry's proof, the first node of each rule, both
    outside the decomposition (DCM) premise of the coinduction and inside
    it, is broken in turn (see `_break`); the checker rejects each mutant
    and names the broken node first."""
    kinds, broken = set(), set()
    for name in stock_library():
        d, compiled, _ = _prove(name)
        assert check_proof(SM, compiled, d).ok
        dcm = [path + (1,) for path, node in d.nodes() if node.rule == "coinduction"]
        first = {}
        for path, node in d.nodes():
            in_dcm = any(path[:len(p)] == p for p in dcm)
            first.setdefault((node.rule, in_dcm), (path, node))
        kinds |= set(first)
        for (rule, in_dcm), (path, node) in sorted(first.items()):
            changes = _break(node, compiled)
            if changes is None:
                continue
            res = check_proof(SM, compiled, _mutate(d, path, **changes))
            assert not res.ok, (name, rule, path)
            assert res.violations[0].path == path, (name, rule, path, res.violations[0])
            broken.add((rule, in_dcm))
    # the one rewrite outside a DCM premise (in odd) uses odd's only
    # equation, so no other index names an equation of odd
    assert broken == kinds - {("rewrite", False)}
    assert len(broken) == 19


def test_prove_corec_uses_strongly_positive_invariant():
    d, compiled, verdict = _prove("merge")
    coind = [node for _p, node in d.nodes() if node.rule == "coinduction"]
    assert coind
    for node in coind:
        phi = node.attr("formula")
        assert classify_formula(phi) is PolarityClass.STRONGLY_POSITIVE


def _mutual_equations(n):
    """f1 -> f2 -> ... -> fn -> f1 over one stream, shaped like FAMILIES'
    mutual4: every second head negated, every third tail skips two."""
    eqs = []
    for i in range(1, n + 1):
        head = "delta(pi1(x), 1, 0, 0)" if i % 2 == 0 else "pi1(x)"
        tail = "pi2(pi2(x))" if i % 3 == 0 else "pi2(x)"
        eqs.append(f"f{i}(x) = cons({head}, f{i % n + 1}({tail}));")
    return "\n  ".join(eqs)


def _mutual_family(n):
    program, ds = _parse_program("f1", _mutual_equations(n))
    verdict = check_primitive_corecursive(program, ds)
    assert verdict.accepted, verdict.reason
    return verdict.bundle, ds


def test_schema_builds_one_decomposition_case_per_member(monkeypatch):
    """All members of a schema share one invariant, so prove_corec builds
    the decomposition premise once: one case per member, not N per member."""
    bundle, ds = _mutual_family(12)
    calls = []
    original = Prover._dcm_case

    def counting(self, *args):
        calls.append(args[3])  # the disjunct j
        return original(self, *args)

    monkeypatch.setattr(Prover, "_dcm_case", counting)
    prove_corec(bundle, ds)
    assert sorted(calls) == list(range(12))


def test_every_member_of_a_schema_checks():
    bundle, ds = _mutual_family(12)
    compiled = compile_schema(bundle, ds)
    from coeq.logic import DataAtom
    for m in ("f1", "f6", "f12"):
        proof = prove_corec(dataclasses.replace(bundle, principal=m), ds)
        res = check_proof(ds, compiled, proof)
        assert res.ok, (m, res.violations[:3])
        assert res.conclusion == DataAtom("S", Fun(m, (Var("x1"),)))


def test_prove_corec_leaves_no_prover_alive():
    """The prover holds no reference cycle, so it is freed as soon as
    prove_corec returns, without waiting for the cycle collector."""
    for name, entry in stock_library().items():
        bundle = check_primitive_corecursive(entry.program, SM).bundle
        gc.collect()
        gc.disable()
        try:
            prove_corec(bundle, SM)
            alive = sum(isinstance(o, Prover) for o in gc.get_objects())
        finally:
            gc.enable()
        assert alive == 0, name


# -- extraction -------------------------------------------------------------------

def _extract_program(program, ds):
    verdict = check_primitive_corecursive(program, ds)
    assert verdict.accepted, verdict.reason
    compiled = compile_schema(verdict.bundle, ds)
    d = normalize(prove_corec(verdict.bundle, ds))
    return extract(d, compiled, ds)


def _extract(name):
    entry = stock_library()[name]
    return _extract_program(entry.program, SM), entry


def test_extract_leaves_no_extractor_alive():
    """The extractor holds no reference cycle, so it is freed as soon as
    extract returns, without waiting for the cycle collector."""
    for name, entry in stock_library().items():
        verdict = check_primitive_corecursive(entry.program, SM)
        compiled = compile_schema(verdict.bundle, SM)
        d = normalize(prove_corec(verdict.bundle, SM))
        gc.collect()
        gc.disable()
        try:
            extract(d, compiled, SM)
            alive = sum(isinstance(o, Extractor) for o in gc.get_objects())
        finally:
            gc.enable()
        assert alive == 0, name


def test_extract_identity_bisimilar():
    result, entry = _extract("ident")
    rng = random.Random(7)
    for _ in range(5):
        ct = random_stream(rng)
        env = DiagramEnv.of({"u": ct})
        sess = Session(result.program, SM, env)
        lhs = Fun(result.principal, (fn("u"), fn("u")))
        r = derives_omega(result.program, env, lhs, fn("u"), 32,
                          100_000, session=sess)
        assert r.equal, r


def test_extract_even_bisimilar():
    result, entry = _extract("even")
    rng = random.Random(9)
    for _ in range(5):
        ct = random_stream(rng)
        bits = stream_prefix(ct, 130)
        env = DiagramEnv.of({"u": ct})
        sess = Session(result.program, SM, env)
        lhs = Fun(result.principal, (fn("u"), fn("u")))
        out = sess.observe(lhs, 32, budget=100_000)
        got = approx_bits(out)
        assert got == [bits[2 * i] for i in range(len(got))] and len(got) == 32


def test_extract_passes_recognizer():
    result, _ = _extract("even")
    verdict = check_primitive_corecursive(result.program, SM)
    assert verdict.accepted, verdict.reason


def test_extract_rejects_detours_and_non_sp():
    import pytest
    from coeq.logic import and_elim, and_intro, assume, DataAtom, refl
    entry = stock_library()["ident"]
    verdict = check_primitive_corecursive(entry.program, SM)
    compiled = compile_schema(verdict.bundle, SM)
    detour = and_elim(1, and_intro(assume("h1", DataAtom("S", Var("x1"))),
                                   refl(Var("t"))))
    with pytest.raises(ExtractError):
        extract(detour, compiled, SM)


def test_extraction_certificate_renders():
    result, _ = _extract("even")
    text = result.certificate.render()
    assert "coinductions\t1" in text
    assert "max-split-chain\t" in text
    assert "runner run1/1 with 1 evidence parameters" in text


def test_a_bound_name_reused_at_two_sorts_extracts():
    """`y` is bound at sort B in one conjunct and at sort S in the other:
    each quantifier's variable is sorted from its own body, so the proof
    extracts, the extraction is primitive corecursive, and it realizes the
    conclusion."""
    from coeq.logic import DataAtom, and_intro, data_intro, ex_intro
    d = and_intro(ex_intro("y", DataAtom("B", Var("y")), ZERO, data_intro(SM.types[0], ())),
                  ex_intro("y", DataAtom("S", Var("y")), Var("x"),
                           assume("h", DataAtom("S", Var("x")))))
    program = stock_library()["ident"].program
    assert check_proof(SM, program, d).judgment() == \
        "{h: S(x)} |- ((ex y. B(y)) & (ex y. S(y)))"
    result = extract(d, program, SM)
    assert check_primitive_corecursive(result.program, SM).accepted
    env = DiagramEnv.of({"u": alternating_stream()})
    j = RealizabilityJudgment.of(result.program, SM, env, {"x": fn("u")},
                                 Fun(result.principal, (fn("u"), fn("u"))), d.conclusion, 8)
    assert realizes(j).holds


def test_var_sorts_scopes_bound_variables():
    from coeq.logic import And, DataAtom, Exists, Forall
    from coeq.realize import SortError, var_sorts
    B = lambda name: DataAtom("B", Var(name))
    S = lambda name: DataAtom("S", Var(name))
    assert var_sorts(And(Exists("y", B("y")), Exists("y", S("y"))), SM, None) == {}
    assert var_sorts(And(S("y"), Forall("y", B("y"))), SM, None) == {"y": "S"}
    assert var_sorts(Exists("y", And(B("y"), Exists("y", S("y")))), SM, None) == {}
    assert var_sorts(Exists("y", And(B("y"), S("x"))).body, SM, None) == {"y": "B", "x": "S"}
    with pytest.raises(SortError, match="variable 'y' used at both sorts"):
        var_sorts(And(S("x"), Exists("y", And(B("y"), S("y")))), SM, None)


def test_extract_realizes_conclusion():
    """Extraction soundness at desk scale: for every library entry, the
    extracted function applied to input realizers (the argument streams
    themselves) realizes the conclusion at half the input depth."""
    from coeq.logic import DataAtom
    for name in stock_library():
        result, entry = _extract(name)
        rng = random.Random(101)
        k = entry.arity
        names = [f"u{i}" for i in range(k)]
        env = DiagramEnv.of({n: random_stream(rng) for n in names})
        args = tuple(fn(n) for n in names)
        lhs = Fun(result.principal, args + args)
        eta = {f"x{i + 1}": args[i] for i in range(k)}
        j = RealizabilityJudgment.of(
            result.program, SM, env, eta, lhs,
            DataAtom("S", Fun(entry.program.principal,
                              tuple(Var(f"x{i + 1}") for i in range(k)))), 32,
            budget=200_000)
        assert realizes(j).holds, name


# Kernel steps of `realizes` at depth 8 on each stock entry's extraction: the
# stream tails at the bound are not forced, since they cannot end nullary,
# and a tail's projections of input nodes are reduced when it is forced, so
# the tails of ident, even, odd, merge and zipxor recur with the input's
# period.
REALIZE_STEPS_DEPTH_8 = {"ident": 17, "even": 15, "odd": 12, "flip": 51, "merge": 34,
                         "zeros": 3, "ones": 3, "zipxor": 34, "alt": 5}


def test_realizability_at_depth_8_steps_are_pinned(monkeypatch):
    from importlib import import_module
    from coeq.logic import DataAtom
    sessions = []

    class RecordingSession(Session):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            sessions.append(self)

    monkeypatch.setattr(import_module("coeq.realize"), "Session", RecordingSession)
    steps = {}
    for name in stock_library():
        result, entry = _extract(name)
        k = entry.arity
        names = [f"u{i}" for i in range(k)]
        env = DiagramEnv.of({n: stream_coterm([1, 0, 0][: i + 1] + [1], i)
                             for i, n in enumerate(names)})
        args = tuple(fn(n) for n in names)
        # value parameters x_i and realizer parameters h_i both take input i
        f0_args = tuple(args[int(p[1:]) - 1]
                        for p in result.value_params + result.realizer_params)
        j = RealizabilityJudgment.of(
            result.program, SM, env, {f"x{i + 1}": args[i] for i in range(k)},
            Fun(result.principal, f0_args),
            DataAtom("S", Fun(entry.program.principal,
                              tuple(Var(f"x{i + 1}") for i in range(k)))), 8)
        sessions.clear()
        assert realizes(j).holds, name
        steps[name] = sum(s.k.steps_total for s in sessions)
    assert steps == REALIZE_STEPS_DEPTH_8


@pytest.mark.parametrize("name", ["ident", "even", "odd", "merge", "zipxor"])
def test_observing_deeper_costs_no_more_steps_once_the_input_recurs(name):
    """The stream tails of these programs and of their extractions name
    input nodes once their projections are reduced, so every level after
    the input's period is a memo hit: depth 256 costs what depth 64 does."""
    result, entry = _extract(name)
    names = [f"u{i}" for i in range(entry.arity)]
    env = DiagramEnv.of({n: stream_coterm([1, 0, 0][: i + 1] + [1], i)
                         for i, n in enumerate(names)})
    args = tuple(fn(n) for n in names)
    f0_args = tuple(args[int(p[1:]) - 1]
                    for p in result.value_params + result.realizer_params)
    for program, term in ((entry.program, Fun(name, args)),
                          (result.program, Fun(result.principal, f0_args))):
        steps = []
        for depth in (64, 256):
            sess = Session(program, SM, env)
            assert first_stall(sess.observe(term, depth)) is None
            steps.append(sess.k.steps_total)
        assert steps[0] == steps[1], program.principal


# -- linear runners ---------------------------------------------------------------

SYSTEM_CDS = """system Sm {
  inductive B;
  coinductive S;
  constructor 0 : B;
  constructor 1 : B;
  constructor cons : B * S -> S;
}
"""

# Four-member families, written as the benchmark's prove workload writes
# them: (principal, arity, equations).
FAMILIES = {
    # f1 -> f2 -> f3 -> f4 -> f1; every second head negated, every third
    # tail skips two elements
    "mutual4": ("f1", 1, "f1(x) = cons(pi1(x), f2(pi2(x)));\n"
                         "  f2(x) = cons(delta(pi1(x), 1, 0, 0), f3(pi2(x)));\n"
                         "  f3(x) = cons(pi1(x), f4(pi2(pi2(x))));\n"
                         "  f4(x) = cons(delta(pi1(x), 1, 0, 0), f1(pi2(x)));"),
    "cycle4": ("c1", 0, "c1 = cons(0, c2);\n  c2 = cons(1, c3);\n"
                        "  c3 = cons(1, c4);\n  c4 = cons(0, c1);"),
    "rotate4": ("rot", 4, "rot(x1, x2, x3, x4) = "
                          "cons(delta(pi1(x1), 1, 0, 0), rot(x2, x3, x4, pi2(x1)));"),
}


def _parse_program(principal, equations):
    ws = parse_workspace(f"{SYSTEM_CDS}\nprogram {principal} {{\n  {equations}\n}}\n")
    return ws.pick_program(principal), ws.system


def _f0_args(result, args):
    # value parameter x<i> and realizer parameter h<i> both take input i
    return tuple(args[int(p[1:]) - 1]
                 for p in result.value_params + result.realizer_params)


def _steps_to_depth(result, ds, arity, depth):
    """Kernel steps to observe the extracted program to `depth` on the
    inputs the roundtrip's bisim stage uses first."""
    rng = random.Random(20240817)
    names = [f"in{i}" for i in range(arity)]
    env = DiagramEnv.of({n: random_stream_coterm(rng) for n in names})
    lhs = Fun(result.principal, _f0_args(result, tuple(fn(n) for n in names)))
    sess = Session(result.program, ds, env)
    out = sess.observe(lhs, depth, budget=1_000_000)
    assert len(approx_bits(out)) == depth
    return sess.k.steps_total


def test_extracted_programs_cost_linear_steps():
    """Doubling the observation depth of an extracted program at most
    doubles its kernel steps (within 2.2x), and the program is still
    primitive corecursive."""
    cases = [(name, _extract(name)[0], SM, entry.arity)
             for name, entry in stock_library().items()]
    for name, (principal, arity, eqs) in FAMILIES.items():
        program, ds = _parse_program(principal, eqs)
        cases.append((name, _extract_program(program, ds), ds, arity))
    for name, result, ds, arity in cases:
        verdict = check_primitive_corecursive(result.program, ds)
        assert verdict.accepted, (name, verdict.reason)
        s32 = _steps_to_depth(result, ds, arity, 32)
        s64 = _steps_to_depth(result, ds, arity, 64)
        assert s64 <= 2.2 * s32, (name, s32, s64)


def test_rotate_by_two_realizes_within_budget():
    """rot(x1..x12) = cons(pi1(x1), rot(x3, ..., x12, pi2(x1), pi2(x2))):
    its extracted program realizes S(rot(x)) at depth 8 within a
    200,000-step budget."""
    from coeq.logic import DataAtom
    n = 12
    xs = [f"x{i + 1}" for i in range(n)]
    rest = ", ".join(xs[2:] + ["pi2(x1)", "pi2(x2)"])
    program, ds = _parse_program(
        "rot", f"rot({', '.join(xs)}) = cons(pi1(x1), rot({rest}));")
    result = _extract_program(program, ds)
    rng = random.Random(12)
    names = [f"u{i}" for i in range(n)]
    env = DiagramEnv.of({u: random_stream(rng) for u in names})
    args = tuple(fn(u) for u in names)
    j = RealizabilityJudgment.of(
        result.program, ds, env, dict(zip(xs, args)),
        Fun(result.principal, _f0_args(result, args)),
        DataAtom("S", Fun("rot", tuple(Var(x) for x in xs))), 8,
        budget=200_000)
    assert realizes(j).holds


# -- member-specialised runners ----------------------------------------------------

def _cycle_equations(n):
    """c1 -> c2 -> ... -> cn -> c1, nullary, heads i % 3 % 2."""
    return "\n  ".join(f"c{i} = cons({i % 3 % 2}, c{i % n + 1});" for i in range(1, n + 1))


def _schema_names(bundle):
    return {f.name for s in bundle.strata if isinstance(s, CorecSchema)
            for f in s.functions if not f.name.startswith("split_")}


def _canonical_runners(program, schema_names):
    """The equations of the schema functions reachable from the principal,
    each function renamed to its index in order of discovery (callees in
    order of occurrence).  compile_schema names every parameter x1..xk, so
    variables are canonical already."""
    order, todo, seen = [], [program.principal], set()
    while todo:
        f = todo.pop(0)
        if f in seen:
            continue
        seen.add(f)
        if f in schema_names:
            order.append(f)
        for e in program.equations_of(f):
            todo += [u.name for u in subterms(e.rhs) if isinstance(u, Fun)
                     and u.name in program.user_functions()]
    index = {f: f"F{i}" for i, f in enumerate(order)}

    def ren(t):
        if isinstance(t, Var):
            return t
        return type(t)(index.get(t.name, t.name), tuple(ren(a) for a in t.args))

    return [(index[f], e.patterns, ren(e.rhs)) for f in order
            for e in program.equations_of(f)]


def _member_cases():
    cases = [(name, entry.program, SM) for name, entry in stock_library().items()]
    for n in (2, 4, 8):
        cases.append((f"mutual{n}",) + _parse_program("f1", _mutual_equations(n)))
        cases.append((f"cycle{n}",) + _parse_program("c1", _cycle_equations(n)))
    return cases


def test_extracted_runners_are_the_compiled_original():
    """extract . prove is the identity up to renaming on primitive-corecursive
    programs: the extracted runners are the compiled original's schema
    functions, one runner per member, with functions renamed."""
    for name, program, ds in _member_cases():
        verdict = check_primitive_corecursive(program, ds)
        compiled = compile_schema(verdict.bundle, ds)
        result = _extract_program(program, ds)
        want = _canonical_runners(compiled, _schema_names(verdict.bundle))
        got = _canonical_runners(result.program, _schema_names(result.bundle))
        assert got == want, name
        assert check_primitive_corecursive(result.program, ds).accepted, name


def _original_steps(program, ds, arity, depth):
    rng = random.Random(20240817)
    names = [f"in{i}" for i in range(arity)]
    env = DiagramEnv.of({n: random_stream_coterm(rng) for n in names})
    sess = Session(program, ds, env)
    out = sess.observe(Fun(program.principal, tuple(fn(n) for n in names)), depth,
                       budget=1_000_000)
    assert len(approx_bits(out)) == depth
    return sess.k.steps_total


def test_many_member_runners_cost_the_original_steps():
    """To depth 64, the extracted programs of 24-member schemas take at most
    1.1x the original's kernel steps: no member tag is read per element."""
    for principal, arity, eqs in (("f1", 1, _mutual_equations(24)),
                                  ("c1", 0, _cycle_equations(24))):
        program, ds = _parse_program(principal, eqs)
        result = _extract_program(program, ds)
        extracted = _steps_to_depth(result, ds, arity, 64)
        original = _original_steps(program, ds, arity, 64)
        assert extracted <= 1.1 * original, (principal, extracted, original)


def test_runner_without_a_static_member_dispatches_at_run_time():
    """When the invariant's realizer comes from an assumption, no member is
    known statically: one runner reads the member bits at run time, and it
    still computes alt."""
    bundle = check_primitive_corecursive(stock_library()["alt"].program, SM).bundle
    compiled = compile_schema(bundle, SM)
    d = normalize(prove_corec(bundle, SM))
    init = d.premises[0].conclusion
    d = Derivation(d.rule, d.conclusion, (assume("a", init), d.premises[1]), d.attrs)
    result = extract(d, compiled, SM)
    assert result.realizer_params == ("a",)
    assert "runner run1/" in result.certificate.render()
    assert len(_schema_names(result.bundle)) == 1
    sess = Session(result.program, SM)
    out = sess.observe(Fun(result.principal, (cons(ZERO, fn("split_zeros")),)), 16)
    assert approx_bits(out) == [0, 1] * 8


def test_state_off_the_cycle_is_declared_after_it():
    """A schema whose principal is not on its own cycle (s1 -> s2 -> s2)
    extracts into a lead-in runner declared after the cycle it calls, so
    the extracted program is still recognized."""
    def member(name, bit):
        return SchemaFun(name, 0, (PlainSlot(Component(0, Con(bit))), RecSlot(1, ())),
                         produced="cons")

    # s2 first, so that the compiled original is itself recognized
    schema = CorecSchema((member("s2", "1"), member("s1", "0")))
    bundle = CorecBundle((schema,), "s1")
    compiled = compile_schema(bundle, SM)
    proof = prove_corec(bundle, SM)
    result = extract(normalize(proof), compiled, SM)
    assert "runners run1/0, run2/0" in result.certificate.render()
    assert check_primitive_corecursive(result.program, SM).accepted
    out = Session(result.program, SM).observe(Fun(result.principal), 8)
    assert approx_bits(out) == [0] + [1] * 7


# -- the roundtrip -----------------------------------------------------------------

def test_roundtrip_small_depth():
    report = roundtrip_report(depth=16, inputs_per_entry=3)
    assert report.ok, report.render()


def test_bisim_stage_builds_one_session_per_entry(monkeypatch):
    """The bisim stage binds all ten inputs of a unary entry in one session."""
    from importlib import import_module
    made = []

    class CountingSession(Session):
        def __init__(self, *args, **kwargs):
            made.append(1)
            super().__init__(*args, **kwargs)

    # by module path: the package's `extract` attribute is the function
    monkeypatch.setattr(import_module("coeq.extract"), "Session", CountingSession)
    report = roundtrip_report(depth=16, library={"ident": stock_library()["ident"]})
    assert report.ok, report.render()
    assert len(made) == 1


@pytest.mark.parametrize("kwargs", [{"inputs_per_entry": 0}, {"depth": -3}])
def test_roundtrip_rejects_a_vacuous_run(kwargs):
    """With no inputs, no case of an entry of positive arity is compared."""
    with pytest.raises(ValueError, match="roundtrip needs depth >= 0 and at least one"):
        roundtrip_report(**kwargs)


def test_roundtrip_includes_rejection_of_morse_thue():
    from coeq.corec import morse_thue_program, StockEntry
    lib = stock_library()
    lib = dict(lib)
    lib["morse_thue"] = StockEntry("morse_thue", morse_thue_program(), 0,
                                   "cumulative corecursion (not accepted)")
    report = roundtrip_report(depth=8, library=lib, inputs_per_entry=2)
    stages = report.entries["morse_thue"]
    assert len(stages) == 1 and stages[0].stage == "recognize" and not stages[0].ok
    assert all(all(s.ok for s in ss) for n, ss in report.entries.items()
               if n != "morse_thue")


# -- pinned outputs ----------------------------------------------------------------

def _pinned_families():
    """Mutual, cycle and rotate families with fixed names, shaped like the
    benchmark's prove workload: (principal, equations) for N = 2, 4, 8, 12."""
    out = []
    for n in (2, 4, 8, 12):
        out.append(("f1", _mutual_equations(n)))
        out.append(("c1", _cycle_equations(n)))
        xs = [f"x{i}" for i in range(1, n + 1)]
        rest = ", ".join(xs[1:] + ["pi2(x1)"])
        out.append(("rot", f"rot({', '.join(xs)}) = "
                           f"cons(delta(pi1(x1), 1, 0, 0), rot({rest}));"))
    return out


def _pinned_cases():
    cases = [(entry.program, SM) for entry in stock_library().values()]
    cases += [_parse_program(p, eqs) for p, eqs in _pinned_families()]
    return cases


def _proofs_digest():
    """SHA-256 over every member's proof of the stock entries and the
    families above."""
    import hashlib
    h = hashlib.sha256()
    for program, ds in _pinned_cases():
        verdict = check_primitive_corecursive(program, ds)
        assert verdict.accepted, verdict.reason
        bundle = verdict.bundle
        for stratum in bundle.strata:
            members = stratum.functions if isinstance(stratum, CorecSchema) else (stratum,)
            for m in members:
                member = dataclasses.replace(bundle, principal=m.name)
                h.update(repr(prove_corec(member, ds)).encode())
    return h.hexdigest()


def _extractions_digest():
    """SHA-256 over every extracted program and certificate of the stock
    entries and the families above."""
    import hashlib
    h = hashlib.sha256()
    for program, ds in _pinned_cases():
        result = _extract_program(program, ds)
        h.update(repr(result.program).encode())
        h.update(result.certificate.render().encode())
    return h.hexdigest()


def test_proofs_are_pinned():
    assert _proofs_digest() == (
        "2829e94b4f1bb9c1a40efa8b370cd2e6e1e552aa2408ccf626eb2a6d3341e24c")


def test_extractions_are_pinned():
    assert _extractions_digest() == (
        "5e8c4a4bffa9e999f64cf3442aaa231d312f4a66a88c0a8790cdf88eee8c6826")
