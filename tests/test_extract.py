import gc
import itertools
import random
from importlib import import_module
from types import SimpleNamespace

import pytest

from helpers import (SM, ZERO, ONE, alternating_stream, approx_bits, cons, fn,
                     flip_env, nested_intros, pi1, pi2, random_stream, stream_family,
                     stream_prefix, v)

from coeq.cli import parse_workspace
from coeq.corec import (Component, CorecBundle, CorecSchema, PlainSlot, RecSlot,
                        SchemaFun, StockEntry, check_primitive_corecursive,
                        compile_schema, morse_thue_program, stock_library)
from coeq.evaluation import DiagramEnv, Session, derives_omega, first_stall
from coeq.extract import Extractor, extract, prove_corec_program, roundtrip_report
from coeq.formulas import (And, DataAtom, Derivation, EqAtom, Or, PolarityClass,
                           and_elim, and_intro, assume, classify_formula, imp_intro,
                           refl)
from coeq.logic import assert_sp_proof, check_proof, has_detour, normalize
from coeq.program import Equation, assemble_program, standard_functions
from coeq.prove import ExtractError, Prover, prove_corec
from coeq.realize import (HOLDS, RealizabilityJudgment, even_term, merge_term,
                          odd_term, realizes, split_term, with_algebra)
from coeq import formulas, substitution
from coeq.system import (Constructor, ConstructorType, DataSystem,
                         random_stream_coterm, stream_coterm)
from coeq.terms import Con, Fun, Var, _interned, subterms


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
    ones an extraction that calls the algebra carries; an extraction that
    calls none carries none."""
    def split_eqs(program):
        return [str(e) for e in program.body if e.function.startswith("split_")]

    ident = stock_library()["ident"].program
    d = and_intro(assume("h", DataAtom("S", _x)), assume("h", DataAtom("S", _y)))
    emitted = extract(d, ident, SM).program
    assert split_eqs(with_algebra(ident, SM)) == split_eqs(emitted)
    assert len(split_eqs(emitted)) == 4
    for name, entry in stock_library().items():
        assert split_eqs(_extract_program(entry.program, SM).program) == [], name


# -- realizes -------------------------------------------------------------------

def test_realizes_stream_atom():
    from coeq.formulas import DataAtom
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
    from coeq.formulas import DataAtom, EqAtom, Or
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
    from coeq.formulas import And, DataAtom, EqAtom, Exists
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
    from coeq.formulas import DataAtom, Imp
    import pytest
    lib = stock_library()
    phi = Imp(DataAtom("S", Var("x")), DataAtom("S", Var("x")))
    j = RealizabilityJudgment.of(lib["ident"].program, SM, None, {},
                                 fn("split_zeros"), phi, 4)
    with pytest.raises(ValueError):
        realizes(j)


def _three_booleans() -> DataSystem:
    """SM with a third boolean constant 2, which no selector bit may be."""
    two = Constructor("2", 0)
    return DataSystem(SM.vocabulary + (two,), SM.predicates,
                      SM.types + (ConstructorType(two, (), SM.predicates[0]),))


_x, _y = Var("x"), Var("y")
_ZEROS = fn("split_zeros")
_STALLS = v("q")   # a free variable: observing it stalls at once

# (case, eta, realizer, formula, str of the result); unlisted names of eta
# are free, so they stall.  v_a = 0 : v_b and v_b = 1 : v_a.
REALIZE_FAILURES = [
    ("stream atom fails", {"x": fn("v_b")}, _ZEROS, DataAtom("S", _x),
     "fails at root: S(x): differs(path [1])"),
    ("stream atom stalls", {"x": fn("v_b")}, _STALLS, DataAtom("S", _x),
     "stalled at root: S(x): stalled(path [], no-matching-equation)"),
    ("boolean atom stalls", {}, _ZEROS, DataAtom("B", _x),
     "stalled at root: observing B(x)"),
    ("boolean atom fails", {"x": ONE}, _ZEROS, DataAtom("B", _x),
     "fails at root: head encodes 0, value is 1"),
    ("equation head stalls", {}, _ZEROS, EqAtom(_y, ZERO),
     "stalled at root: observing y"),
    ("boolean equation stalls", {"x": ZERO}, _ZEROS, EqAtom(_x, _y),
     "stalled at root: observing x = y"),
    ("boolean equation fails", {"x": ZERO}, _ZEROS, EqAtom(_x, ONE),
     "fails at root: x = 1: values 0, 1, head 0"),
    ("stream equation fails", {"x": fn("v_a"), "y": fn("v_b")}, _ZEROS, EqAtom(_x, _y),
     "fails at root: x = y: differs(path [1])"),
    ("stream equation stalls", {"x": fn("v_a")}, _ZEROS, EqAtom(_x, _y),
     "stalled at root: x = y: stalled(path [], no-matching-equation)"),
    ("equation realizer fails", {"x": fn("v_b")}, _ZEROS,
     EqAtom(_x, fn("ident", _x)),
     "fails at root: realizer != value: differs(path [1])"),
    ("equation realizer stalls", {"x": fn("v_b")}, _STALLS,
     EqAtom(_x, fn("ident", _x)),
     "stalled at root: realizer != value: stalled(path [], no-matching-equation)"),
    ("left conjunct fails", {"x": ONE}, _ZEROS, And(DataAtom("B", _x), EqAtom(_x, _x)),
     "fails at and-left: head encodes 0, value is 1"),
    ("right conjunct fails", {"x": ZERO, "y": pi2(fn("v_a"))}, _ZEROS,
     And(DataAtom("B", _x), EqAtom(_y, _y)),
     "fails at and-right: realizer != value: differs(path [1])"),
    ("selector stalls", {"x": ONE}, _STALLS, Or(DataAtom("B", _x), EqAtom(_x, _x)),
     "stalled at root: selector head"),
    ("chosen disjunct fails", {"x": ONE}, _ZEROS, Or(DataAtom("B", _x), EqAtom(_x, _x)),
     "fails at or-left: head encodes 0, value is 1"),
]


@pytest.mark.parametrize("case, eta, realizer, formula, expected", REALIZE_FAILURES,
                         ids=[row[0] for row in REALIZE_FAILURES])
def test_realizes_names_the_clause_that_fails_or_stalls(case, eta, realizer, formula,
                                                         expected):
    j = RealizabilityJudgment.of(stock_library()["ident"].program, SM, flip_env(),
                                 eta, realizer, formula, 4)
    result = realizes(j)
    assert not result.holds
    assert str(result) == expected


def test_a_selector_bit_that_is_no_boolean_fails():
    ds = _three_booleans()
    zeros = assemble_program(ds, [Equation("zeros", (), cons(ZERO, fn("zeros")))], "zeros")
    j = RealizabilityJudgment.of(zeros, ds, None, {"x": ONE}, cons(Con("2"), fn("zeros")),
                                 Or(DataAtom("B", _x), EqAtom(_x, _x)), 4)
    result = realizes(j)
    assert (result.status, result.path) == ("fails", ())
    assert str(result) == "fails at root: selector head is '2'"
    assert str(HOLDS) == "holds-up-to-depth"


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
    from coeq.formulas import DataAtom
    assert res.conclusion == DataAtom("S", Fun("even", (Var("x1"),)))
    assert set(res.assumptions) == {("h1", DataAtom("S", Var("x1")))}


def test_prove_corec_identity_and_flip():
    for name in ("ident", "flip"):
        d, compiled, _ = _prove(name)
        res = check_proof(SM, compiled, d)
        assert res.ok, (name, res.violations[:3])


def test_flip_proves_and_extracts_its_tail_without_a_dispatch():
    """Both of flip's cases recur on the tail, so its compiled tail is
    pi2(x1): the proof types it by one destructor elimination, and the
    extracted runner is the compiled equation renamed."""
    d, compiled, _ = _prove("flip")
    assert [str(e) for e in compiled.equations_of("flip")] == [
        "flip(x1) = cons(delta(pi1(x1), 1, 0, pi1(x1)), flip(pi2(x1)))"]
    res = check_proof(SM, compiled, d)
    assert res.ok, res.violations[:3]
    assert sum(1 for _ in d.preorder()) == 31   # the decomposition's [head, u]: one ex-intro
    result, _ = _extract("flip")
    assert [str(e) for e in result.program.equations_of("run1")] == [
        "run1(x1) = cons(delta(pi1(x1), 1, 0, pi1(x1)), run1(pi2(x1)))"]


def test_an_intro_of_k_witnesses_extracts_as_its_k_nested_intros():
    """Beside flip's proof, an intro of ex y. ex b. S(y) & B(b) at x1 and
    the bit pi1(x1), and one of ex y. ex y. B(y), whose outer y the inner
    shadows, at a variable q free only in the proof and at pi1(x1).  The
    proof and its twin of one-witness intros (flip's decomposition has a
    two-witness intro too) extract to the same program and certificate,
    which realizes the conclusion."""
    from coeq.formulas import Exists, data_elim, ex_intro
    d_flip, compiled, _ = _prove("flip")
    cons_t, x1 = SM.types[2], Var("x1")
    h1 = assume("h1", DataAtom("S", x1))
    y, b = Var("y"), Var("b")
    with_bit = ex_intro("y", Exists("b", And(DataAtom("S", y), DataAtom("B", b))),
                        (x1, pi1(x1)), and_intro(h1, data_elim(cons_t, 1, h1)))
    shadowed = ex_intro("y", Exists("y", DataAtom("B", y)), (Var("q"), pi1(x1)),
                        data_elim(cons_t, 1, h1))
    d = and_intro(d_flip, and_intro(with_bit, shadowed))
    twin = nested_intros(d)
    assert max(len(n.witnesses()) for n in twin.preorder()) == 1
    result, again = extract(d, compiled, SM), extract(twin, compiled, SM)
    assert repr(result.program) == repr(again.program)
    # the witness pi1(x1) at a B is a bit, cons(pi1(x1), split_zeros), and
    # q at the shadowed binder the bare stream split_zeros; B(pi1(x1)) is
    # realized from h1's realizer x2
    pair = lambda a, b: f"split_merge({a}, split_merge({b}, split_zeros))"
    bit, evidence = "cons(pi1(x1), split_zeros)", "cons(pi1(x2), split_zeros)"
    assert [str(e) for e in result.program.equations_of("f0")] == [
        "f0(x1, x2) = " + pair("run1(x1)", pair(
            pair("x1", pair(bit, pair("x2", evidence))),
            pair("split_zeros", pair(bit, evidence))))]
    assert result.certificate.render() == again.certificate.render()
    assert (result.value_params, result.realizer_params) == (("x1",), ("h1",))
    env = DiagramEnv.of({"u": alternating_stream()})
    j = RealizabilityJudgment.of(result.program, SM, env, {"x1": fn("u")},
                                 Fun(result.principal, (fn("u"), fn("u"))), d.conclusion, 8)
    assert realizes(j).holds


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
        fields = dict(rule=d.rule, conclusion=d.conclusion, premises=d.premises,
                      attrs=d.attrs)
        return Derivation(**{**fields, **changes})
    i = path[0]
    prems = d.premises[:i] + (_mutate(d.premises[i], path[1:], **changes),) \
        + d.premises[i + 1:]
    return Derivation(d.rule, d.conclusion, prems, d.attrs)


def _with_attr(node: Derivation, key: str, value) -> tuple:
    return tuple((k, value if k == key else v) for k, v in node.attrs)


def _break(node: Derivation, program) -> dict | None:
    """A change to one node of a checked proof (a premise, label, equation
    index, eigenvariable, witness, case variable, rule argument or
    conclusion) that the node's own rule rejects; None when the node has
    no such change here (say, both conjuncts are the same formula)."""
    from coeq.formulas import EqAtom, Exists, alpha_eq, fv
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
    if rule == "ex-refl":
        return {"conclusion": Exists(c.var, EqAtom(Var(c.var), Var(c.var)))}
    if rule == "replace":
        return {"attrs": _with_attr(node, "pos", (3,))}
    if rule == "coinduction":
        return {"attrs": _with_attr(node, "label", "w2")}
    if rule == "rewrite":
        n = sum(e.function == node.attr("fn")
                for e in program.body + standard_functions(SM))
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
    assert {("ex-refl", True), ("replace", True)} <= broken
    assert len(broken) == 20


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


def _counting_member_proofs(monkeypatch) -> list:
    calls = []
    original = Prover._member_call

    def counting(self, t, *args):
        calls.append(t.name)
        return original(self, t, *args)

    monkeypatch.setattr(Prover, "_member_call", counting)
    return calls


def test_prove_corec_builds_only_the_principals_member_proof(monkeypatch):
    """A member's coinduction is built at each call of it: for a schema
    that is the last stratum, only the principal's."""
    bundle, ds = _mutual_family(12)
    calls = _counting_member_proofs(monkeypatch)
    prove_corec(bundle, ds)
    assert calls == ["f1"]


def test_a_later_stratum_calling_another_member_builds_its_proof_once(monkeypatch):
    """g calls f2 twice, so f2's coinduction is built at each call, and
    f1's is never built."""
    program, ds = _parse_program(
        "g", "f1(x) = cons(pi1(x), f2(pi2(x))); f2(x) = cons(delta(pi1(x), 1, 0, 0), "
             "f1(pi2(x))); g(x) = f2(f2(pi2(x)));")
    verdict = check_primitive_corecursive(program, ds)
    assert verdict.accepted, verdict.reason
    calls = _counting_member_proofs(monkeypatch)
    proof = prove_corec(verdict.bundle, ds)
    assert calls == ["f2", "f2"]
    res = check_proof(ds, compile_schema(verdict.bundle, ds), proof)
    assert res.ok, res.violations[:3]
    assert res.conclusion == DataAtom("S", Fun("g", (Var("x1"),)))
    assert [d.rule for d in proof.preorder()].count("coinduction") == 2


def _neg_chain(levels: int) -> str:
    """f(x) = cons(0, f(neg(...neg(pi2(x))...))), with `levels` calls of the
    corecursive negation neg."""
    return ("neg(x) = cons(delta(pi1(x), 1, 0, 0), neg(pi2(x)));\n  f(x) = cons(0, f("
            + "neg(" * levels + "pi2(x)" + ")" * levels + "));")


def test_nested_coinductions_are_built_in_place_each_binding_zz(monkeypatch):
    """The typing of f's tail nests a coinduction per neg, each built at
    its call from the typings of the call's argument, so no proof is
    substituted into.  Every nested hole keeps the name zz.  When each
    call's proof was grafted, the walks were 40 at 4 levels and 72 at 8."""
    walks = []
    original = substitution._subst

    def counting(*args):
        walks[-1] += 1
        return original(*args)

    monkeypatch.setattr(substitution, "_subst", counting)
    for levels in (4, 8):
        walks.append(0)
        program, ds = _parse_program("f", _neg_chain(levels))
        d, compiled = prove_corec_program(program, ds)
        assert check_proof(ds, compiled, d).ok
    assert walks == [0, 0], walks
    holes = [node.attr("var") for node in d.preorder() if node.rule == "coinduction"]
    assert len(holes) == 9 and set(holes) == {"zz"}, holes


def test_prove_corec_substitutes_into_no_proof(monkeypatch):
    """Each call's lemma is proved where it stands, so the prover makes no
    proof substitution.  When it grafted a lemma proved at placeholder
    arguments into each call, its `_subst` walks were 116, 28, 200 and 254
    for these four programs."""
    programs = [stream_family(kind, 24) for kind in ("mutual", "rotate")]
    programs.append(_parse_program("f", _neg_chain(24))[0])
    programs.append(_parse_program("f", "g(x) = cons(pi1(x), g(pi2(x)));\n  f(x) = "
                                   + "g(" * 50 + "x" + ")" * 50 + ";")[0])
    bundles = [check_primitive_corecursive(program, SM).bundle for program in programs]
    walks = []
    original = substitution._subst

    def counting(*args):
        walks[-1] += 1
        return original(*args)

    monkeypatch.setattr(substitution, "_subst", counting)
    for bundle in bundles:
        walks.append(0)
        prove_corec(bundle, SM)
    assert walks == [0, 0, 0, 0], walks


def _variables_calls_proving_rotate(monkeypatch, k: int) -> int:
    bundle = check_primitive_corecursive(stream_family("rotate", k), SM).bundle
    calls = [0]
    original = formulas.variables

    def counting(t):
        calls[0] += 1
        return original(t)

    monkeypatch.setattr(formulas, "variables", counting)
    prove_corec(bundle, SM)
    monkeypatch.undo()
    return calls[0]


def test_the_proof_of_a_k_argument_rotation_is_not_cubic_in_k(monkeypatch):
    """Each existential level of the rotation's invariant is the level
    above at one witness, so the capture checks of its instances grow about
    quadratically in k: 6,528 `variables` calls at k = 50 and 25,553 at
    k = 100.  When each level was rebuilt by a substitution of all the
    witnesses above it, they were 48,041 and 358,566, 7.5 times as many."""
    at50 = _variables_calls_proving_rotate(monkeypatch, 50)
    at100 = _variables_calls_proving_rotate(monkeypatch, 100)
    assert at100 <= 4.5 * at50, (at50, at100)


def test_every_member_of_a_schema_checks():
    bundle, ds = _mutual_family(12)
    compiled = compile_schema(bundle, ds)
    from coeq.formulas import DataAtom
    for m in ("f1", "f6", "f12"):
        proof = prove_corec(CorecBundle(bundle.strata, m), ds)
        res = check_proof(ds, compiled, proof)
        assert res.ok, (m, res.violations[:3])
        assert res.conclusion == DataAtom("S", Fun(m, (Var("x1"),)))


def test_member_proof_of_a_hundred_member_schema_is_n_log_n():
    """The invariant is a balanced disjunction, so selecting a member takes
    one or-introduction per level: at most ceil(log2 100) = 7 on any
    root-to-leaf path, and at most 3,400 nodes in one member's proof (3,264:
    each decomposition case proves its tail through the witness of an
    ex-refl and introduces its head and tail by one ex-intro, three nodes
    more than the 2,964 of a proof that copies the invariant into every
    case)."""
    bundle = check_primitive_corecursive(stream_family("mutual", 100), SM).bundle
    d = prove_corec(bundle, SM)
    depth: dict[tuple, int] = {}
    for path, node in d.nodes():
        depth[path] = depth.get(path[:-1], 0) + (node.rule == "or-intro")
    assert len(depth) <= 3400
    assert max(depth.values()) <= 7


def _records_one_member_adds(n: int, kind: str = "mutual") -> int:
    """The interned records that one member's proof of the n-member family
    of `kind` adds, counted after a collection while the proof is alive."""
    bundle = check_primitive_corecursive(stream_family(kind, n), SM).bundle
    gc.collect()
    before = len(_interned)
    d = prove_corec(bundle, SM)
    gc.collect()
    assert d.rule == "coinduction"
    return len(_interned) - before


def test_every_decomposition_case_concludes_one_copy_of_the_invariant():
    """Each case proves its tail through the same witness variable u, so
    the N cases conclude one interned phi(u), and opens phi's existentials
    under phi's own names: one member adds O(N) records (2,338 at N = 100
    and 4,638 at N = 200), where a copy of phi per case made them O(N^2)
    (43,488 and 166,954)."""
    at100, at200 = _records_one_member_adds(100), _records_one_member_adds(200)
    assert at100 <= 5000, at100
    assert at200 <= 2.1 * at100, (at100, at200)


def test_the_proof_of_a_k_argument_rotation_holds_o_of_k_records():
    """Each call of the rotation introduces its invariant's k existentials
    by one ex-intro of all k witnesses, so no partial formula of the
    existential prefix is built: the proof adds 691 records at k = 50 and
    1,341 at k = 100.  One intro per witness built k partial formulas per
    call, 8,340 and 31,640 records."""
    at50 = _records_one_member_adds(50, "rotate")
    at100 = _records_one_member_adds(100, "rotate")
    assert at100 <= 2.2 * at50, (at50, at100)


def test_prove_corec_proofs_are_normal():
    """An ex-refl opened by ex-elim is no detour, so normalize leaves the
    prover's proofs as they are.  An ex-intro of refl in its place would be
    one, and its contraction would copy the invariant into every case
    again."""
    programs = [entry.program for entry in stock_library().values()]
    programs += [stream_family(kind, n) for kind in ("mutual", "cycle", "rotate")
                 for n in range(1, 9)]
    for program in programs:
        d = prove_corec(check_primitive_corecursive(program, SM).bundle, SM)
        assert not has_detour(d) and normalize(d) == d, program


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


_COCASE2 = ("cocase2(0, v1, v2) = 0; cocase2(1, v1, v2) = 1; "
            "cocase2(cons(y1, y2), v1, v2) = cons(v1, v2); ")


@pytest.mark.parametrize("principal, equations, message", [
    ("g", "g(x) = cons(0, x);", "cannot type constructor term 'cons(0, x1)'"),
    ("g", _COCASE2 + "g(x) = cocase2(cons(0, x), pi1(x), x);",
     "no typing available for 'cocase2'"),
    ("f", _COCASE2 + "f(x) = cocase2(cons(pi1(x), x), pi1(x), f(pi2(x)));",
     "'f': only stream-form schemas generate proofs"),
    ("f", "f(x) = cons(g(x), x); g(x) = cons(0, f(x));",
     "'f': expected one head component and one corecursive call"),
])
def test_prover_refuses_an_accepted_program_it_has_no_proof_for(principal, equations,
                                                                 message):
    """The recognizer accepts these over Sm; the prover names what it
    cannot type or which schema shape it does not prove."""
    program, ds = _parse_program(principal, equations)
    assert check_primitive_corecursive(program, ds).accepted
    with pytest.raises(ExtractError) as e:
        prove_corec_program(program, ds)
    assert str(e.value) == message


def test_prove_corec_refuses_a_bundle_without_its_principal():
    bundle = check_primitive_corecursive(stock_library()["flip"].program, SM).bundle
    with pytest.raises(ExtractError, match="^principal 'nope' not defined by the bundle$"):
        prove_corec(CorecBundle(bundle.strata, "nope"), SM)


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


_S_X1 = DataAtom("S", Var("x1"))

# a derivation that fails each condition of `extract`'s gate, and the
# message naming it
GATE_FAILURES = {
    "check": (Derivation("refl", EqAtom(Var("x"), Var("y")), (), ()),
              "derivation does not check: at root: reflexivity concludes t = t only"),
    "detour": (and_elim(1, and_intro(assume("h1", _S_X1), refl(Var("t")))),
               "derivation has logical detours; normalize first"),
    "strongly-positive": (imp_intro("h1", _S_X1, assume("h1", _S_X1)),
                          "non-strongly-positive node at root"),
}


def test_extract_rejects_detours_and_non_sp():
    """`extract` alone decides extractability, and names the condition
    that fails."""
    entry = stock_library()["ident"]
    verdict = check_primitive_corecursive(entry.program, SM)
    compiled = compile_schema(verdict.bundle, SM)
    for condition, (d, message) in GATE_FAILURES.items():
        with pytest.raises(ExtractError) as e:
            extract(d, compiled, SM)
        assert (e.value.condition, str(e.value)) == (condition, message)


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
    from coeq.formulas import DataAtom, and_intro, data_intro, ex_intro
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


def test_one_label_on_two_open_assumptions_extracts_one_realizer_each():
    """`h` names two open assumptions of different formulas: each gets its
    own realizer parameter, in the judgment's order, and the extraction
    realizes the conclusion."""
    from coeq.formulas import DataAtom, and_intro
    d = and_intro(assume("h", DataAtom("S", _x)), assume("h", DataAtom("S", _y)))
    program = stock_library()["ident"].program
    assert check_proof(SM, program, d).judgment() == "{h: S(x), h: S(y)} |- (S(x) & S(y))"
    result = extract(d, program, SM)
    assert (result.value_params, result.realizer_params) == (("x", "y"), ("h", "h"))
    assert check_primitive_corecursive(result.program, SM).accepted
    env = DiagramEnv.of({"a": alternating_stream(), "b": stream_coterm([1, 1, 0], 1)})
    j = RealizabilityJudgment.of(result.program, SM, env, {"x": fn("a"), "y": fn("b")},
                                 Fun(result.principal, (fn("a"), fn("b"), fn("a"), fn("b"))),
                                 d.conclusion, 8)
    assert realizes(j).holds


@pytest.mark.parametrize("witness_sort", ["S", "B"])
def test_a_variable_free_only_inside_the_proof_takes_a_closed_value(witness_sort):
    """`y` is free in the proof but not in its judgment: the extraction gives
    it a closed value of its sort (split_zeros, or 0 where it is a head), so
    f0's parameters are the judgment's free variables, the recognizer
    accepts it and it realizes the conclusion."""
    from coeq.formulas import EqAtom, ex_intro, refl
    p = Var("p")
    if witness_sort == "S":
        d = ex_intro("p", EqAtom(p, p), _y, refl(_y))
        f0 = "f0 = split_merge(split_zeros, split_merge(split_zeros, split_zeros))"
    else:
        q = Var("q")
        d = ex_intro("p", EqAtom(cons(p, q), cons(p, q)), _y, refl(cons(_y, q)))
        f0 = "f0(x1) = split_merge(cons(0, split_zeros), split_merge(cons(0, x1), split_zeros))"
    program = stock_library()["ident"].program
    assert check_proof(SM, program, d).ok
    result = extract(d, program, SM)
    assert [str(e) for e in result.program.equations_of(result.principal)] == [f0]
    free = () if witness_sort == "S" else ("q",)
    assert (result.value_params, result.realizer_params) == (free, ())
    assert check_primitive_corecursive(result.program, SM).accepted
    env = DiagramEnv.of({"a": alternating_stream()})
    j = RealizabilityJudgment.of(result.program, SM, env, {x: fn("a") for x in free},
                                 Fun(result.principal, tuple(fn("a") for _ in free)),
                                 d.conclusion, 8)
    assert realizes(j).holds


def test_a_dispatch_nested_on_the_same_bit_is_resolved_in_its_branch():
    """Two nested or-eliminations of one open h: S(a) | S(b), the inner
    branches or-introductions of opposite sides: inside each outer branch
    h's head bit is known, so the inner dispatch takes that branch and the
    extraction dispatches once.  It realizes the conclusion with h as 0:a
    and as 1:b."""
    from coeq.formulas import or_elim, or_intro
    sa, sb = DataAtom("S", Var("a")), DataAtom("S", Var("b"))

    def inner():
        return or_elim(assume("h", Or(sa, sb)), "k1", or_intro(1, assume("k1", sa), sb),
                       "k2", or_intro(2, assume("k2", sb), sa))
    d = or_elim(assume("h", Or(sa, sb)), "l1", inner(), "l2", inner())
    program = stock_library()["ident"].program
    assert check_proof(SM, program, d).judgment() == "{h: (S(a) | S(b))} |- (S(a) | S(b))"
    result = extract(d, program, SM)
    assert [str(e) for e in result.program.equations_of(result.principal)] == [
        "f0(x1, x2, x3) = delta(pi1(x3), cons(0, pi2(x3)), cons(1, pi2(x3)), "
        "cons(0, pi2(x3)))"]
    assert check_primitive_corecursive(result.program, SM).accepted
    env = DiagramEnv.of({"a": alternating_stream(), "b": stream_coterm([1, 1, 0], 1)})
    for h in (cons(ZERO, fn("a")), cons(ONE, fn("b"))):
        j = RealizabilityJudgment.of(result.program, SM, env, {"a": fn("a"), "b": fn("b")},
                                     Fun(result.principal, (fn("a"), fn("b"), h)),
                                     d.conclusion, 8)
        assert realizes(j).holds, h


@pytest.mark.parametrize("bit, f0", [(0, "f0(x1, x2, x3, x4) = x3"),
                                     (1, "f0(x1, x2, x3, x4) = x4")])
def test_induction_on_a_constant_bit_takes_its_case(bit, f0):
    """Induction over B whose major premise is `data-intro` of a constant:
    the case of that constant is the realizer, with no dispatch.  The cases
    are delta rewrites of h: S(x) and k: S(y)."""
    from coeq.formulas import data_intro, induction, rewrite
    delta = lambda sel: Fun("delta", (sel, _x, _y, _x))
    cases = tuple(rewrite("delta", i, "rl", (1,), assume(lab, DataAtom("S", var)),
                          DataAtom("S", delta(c)))
                  for i, (c, lab, var) in enumerate([(ZERO, "h", _x), (ONE, "k", _y)]))
    d = induction("B", "q", DataAtom("S", delta(Var("q"))), data_intro(SM.types[bit], ()),
                  cases, ((), ()), ((), ()))
    program = stock_library()["ident"].program
    assert check_proof(SM, program, d).judgment() == \
        f"{{h: S(x), k: S(y)}} |- S(delta({bit}, x, y, x))"
    result = extract(d, program, SM)
    assert [str(e) for e in result.program.equations_of(result.principal)] == [f0]
    env = DiagramEnv.of({"a": alternating_stream(), "b": stream_coterm([1, 1, 0], 1)})
    j = RealizabilityJudgment.of(result.program, SM, env, {"x": fn("a"), "y": fn("b")},
                                 Fun(result.principal, (fn("a"), fn("b"), fn("a"), fn("b"))),
                                 d.conclusion, 8)
    assert realizes(j).holds


def test_an_open_assumption_without_a_realizer_is_an_internal_error():
    """Every assumption a checked proof leaves open gets a realizer, so a
    miss is the extractor's fault: a KeyError, not an ExtractError that
    would read as a refusal."""
    from coeq.terms import _run
    ex = Extractor(SM, stock_library()["ident"].program)
    with pytest.raises(KeyError):
        _run(ex.extract(assume("h", DataAtom("S", _x)), {"values": {}, "realizers": {}}))


def test_extract_sorts_each_quantifier_once(monkeypatch):
    """Every ex-intro and ex-elim of one quantifier shares one sort lookup,
    so within one extraction `var_sorts` runs once per distinct formula."""
    mod = import_module("coeq.extract")
    verdict = check_primitive_corecursive(stream_family("mutual", 8), SM)
    compiled = compile_schema(verdict.bundle, SM)
    d = normalize(prove_corec(verdict.bundle, SM))
    calls, sort = [], mod.var_sorts
    monkeypatch.setattr(mod, "var_sorts", lambda x, *rest: calls.append(x) or sort(x, *rest))
    extract(d, compiled, SM)
    assert len(calls) == len(set(calls)) > 8


def test_realizes_a_conjunction_two_thousand_levels_deep():
    """The walk keeps its own stack, and a session encodes a term that
    shares an encoded subterm by its new part only."""
    from coeq.formulas import And, DataAtom
    f = DataAtom("S", _ZEROS)
    for _ in range(2000):
        f = And(DataAtom("S", _ZEROS), f)
    j = RealizabilityJudgment.of(stock_library()["ident"].program, SM, None, {},
                                 _ZEROS, f, 8)
    assert realizes(j) == HOLDS


def test_var_sorts_scopes_bound_variables():
    from coeq.formulas import And, DataAtom, Exists, Forall
    from coeq.realize import SortError, var_sorts
    B = lambda name: DataAtom("B", Var(name))
    S = lambda name: DataAtom("S", Var(name))
    assert var_sorts(And(Exists("y", B("y")), Exists("y", S("y"))), SM, None) == {}
    assert var_sorts(And(S("y"), Forall("y", B("y"))), SM, None) == {"y": "S"}
    assert var_sorts(Exists("y", And(B("y"), Exists("y", S("y")))), SM, None) == {}
    assert var_sorts(Exists("y", And(B("y"), S("x"))).body, SM, None) == {"y": "B", "x": "S"}
    with pytest.raises(SortError, match="variable 'y' used at both sorts"):
        var_sorts(And(S("x"), Exists("y", And(B("y"), S("y")))), SM, None)


def test_a_variable_at_two_sorts_across_the_judgment_is_a_sort_error():
    """A tuple of formulas is sorted together: x a bit in one formula and a
    stream in another is the conflict it is within one formula, named with
    the formula where it conflicts.  `extract` sorts its judgment so, and
    gives the conflict the condition "sort"."""
    from coeq.formulas import Exists, ex_intro
    from coeq.realize import SortError, var_sorts
    bx, sx = DataAtom("B", Var("x")), DataAtom("S", Var("x"))
    assert var_sorts((bx, DataAtom("S", Var("y"))), SM, None) == {"x": "B", "y": "S"}
    message = "variable 'x' used at both sorts in 'S(x)'"
    with pytest.raises(SortError) as e:
        var_sorts((bx, sx), SM, None)
    assert str(e.value) == message
    d = and_intro(assume("h", bx), ex_intro("p", DataAtom("S", Var("p")), Var("x"),
                                            assume("a", sx)))
    assert d.conclusion == And(bx, Exists("p", DataAtom("S", Var("p"))))
    with pytest.raises(ExtractError) as e:
        extract(d, stock_library()["flip"].program, SM)
    assert (e.value.condition, str(e.value)) == ("sort", message)


def test_a_refl_of_a_delta_with_mixed_branch_sorts_is_a_sort_error():
    """`extract` sorts the term of a refl it realizes: a delta whose boolean
    branches are a bit and a stream is a sort error, condition "sort"."""
    t = Fun("delta", (Var("x"), ZERO, Var("y"), Var("y")))
    with pytest.raises(ExtractError) as e:
        extract(refl(t), stock_library()["flip"].program, SM)
    assert (e.value.condition, str(e.value)) == (
        "sort", "mixed branch sorts in 'delta(x, 0, y, y)'")


def test_a_program_that_defines_a_split_function_otherwise_is_refused():
    """The split algebra is not the program's to replace: `with_algebra`,
    so `realizes`, raises a ValueError and `extract` an ExtractError.  A
    program that carries exactly the algebra is unaffected."""
    ident = stock_library()["ident"].program
    own = Equation("split_even", (Var("x1"),), Var("x1"))
    program = assemble_program(SM, list(ident.body) + [own], "ident")
    h = assume("h", And(DataAtom("S", Var("x")), DataAtom("S", Var("y"))))
    d = and_elim(1, h)
    with pytest.raises(ValueError, match="'split_even'"):
        with_algebra(program, SM)
    with pytest.raises(ValueError, match="'split_even'"):
        realizes(RealizabilityJudgment.of(program, SM, None, {"x": _ZEROS},
                                          _ZEROS, d.conclusion, 8))
    with pytest.raises(ExtractError, match="'split_even'"):
        extract(d, program, SM)
    full = with_algebra(ident, SM)
    assert with_algebra(full, SM) is full
    result = extract(d, full, SM)
    assert check_primitive_corecursive(result.program, SM).accepted


def test_rename_functions_of_a_right_hand_side_three_thousand_calls_deep():
    from coeq.extract import _rename_functions
    rhs, renamed = Var("x"), Var("x")
    for _ in range(3000):
        rhs, renamed = Fun("g", (rhs,)), Fun("g_orig", (renamed,))
    program = assemble_program(SM, [Equation("g", (Var("x"),), rhs)], "g")
    out = _rename_functions(program, "_orig", SM)
    assert out.principal == "g_orig"
    assert list(out.body) == [Equation("g_orig", (Var("x"),), renamed)]



def test_symbolic_realizers_are_hash_consed():
    """A realizer is a term, or a Pair, ConsR or Case over realizers, and
    each is interned: realizers built alike are one object, and `==` and
    `hash` are by identity, in constant time at any depth."""
    from coeq.realize import Case, ConsR, Pair
    x, bit = Var("x"), Fun("pi1", (Var("y"),))
    assert x is Var("x") and x is not Var("y")
    assert Pair(x, x) is Pair(x, x)
    assert Case(bit, x, ConsR(ZERO, x)) is Case(bit, x, ConsR(ZERO, x))

    def chain():
        r = x
        for i in range(3_000):
            r = ConsR(ONE if i % 2 else ZERO, r)
        return r

    a, b = chain(), chain()
    assert a is b and a == b and hash(a) == hash(b) and {a, b} == {a}


def test_a_dispatch_is_resolved_in_a_realizer_three_thousand_levels_deep():
    """`case` resolves the dispatches on its bit inside each branch on a
    stack of its own, so a branch of any depth resolves."""
    from coeq.realize import Case, ConsR, case
    bit, y = Fun("pi1", (Var("b"),)), Var("y")

    def chain(last):
        for i in range(3_000):
            last = ConsR(ONE if i % 2 else ZERO, last)
        return last

    r = chain(Case(bit, Var("u"), Var("w")))
    assert case(bit, r, y) is Case(bit, chain(Var("u")), y)
    assert case(bit, y, r) is Case(bit, y, chain(Var("w")))


def test_the_projections_reach_below_three_thousand_nested_dispatches():
    """`even_r`, `tail_r` and `head_term_of` apply below every dispatch and
    rebuild the dispatches on `_run`'s stack, so a nest of any depth
    projects."""
    from coeq.realize import Case, ConsR, Pair, even_r, head_term_of, tail_r

    def nest(below, join=Case):
        r = below(3_000)
        for i in range(3_000):
            r = join(Fun("pi1", (Var(f"b{i}"),)), below(i), r)
        return r

    u = lambda i: Var(f"u{i}")
    assert even_r(nest(lambda i: Pair(u(i), ZERO))) is nest(u)
    assert tail_r(nest(lambda i: ConsR(ZERO, u(i)))) is nest(u)
    delta = lambda bit, left, right: Fun("delta", (bit, left, right, left))
    assert head_term_of(nest(lambda i: ConsR(u(i), ZERO))) is nest(u, delta)


def test_the_skeleton_of_a_realizer_six_thousand_levels_deep():
    """`_skeleton` runs on `_run`'s stack and `_project` on a loop: the
    skeleton of a realizer of any depth numbers its parameters in preorder,
    and projecting the realizer onto it gives each parameter's value."""
    from coeq.realize import ConsR, Pair, _project, _skeleton
    from coeq.terms import _run
    n = 3_000
    r, skel = Var("z"), Var(f"x{2 * n + 1}")
    for j in reversed(range(n)):
        r = Pair(Var(f"e{j}"), ConsR(Var(f"h{j}"), r))
        skel = Pair(Var(f"x{2 * j + 1}"), ConsR(Var(f"x{2 * j + 2}"), skel))
    assert _run(_skeleton([r], itertools.count(1))) is skel
    values = [(f"x{2 * j + 1 + k}", Var(f"{'eh'[k]}{j}")) for j in range(n) for k in (0, 1)]
    assert list(_project(r, skel, {}).items()) == values + [(f"x{2 * n + 1}", Var("z"))]


def test_a_realizer_nothing_holds_leaves_the_intern_table():
    from coeq.realize import Pair
    from coeq.terms import _interned
    r = Pair(Var("dropped"), Var("x"))
    key = (Pair, r.head, r.rest)
    assert _interned[key] is r
    del r
    gc.collect()
    assert key not in _interned

def test_extract_realizes_conclusion():
    """Extraction soundness at desk scale: for every library entry, the
    extracted function applied to input realizers (the argument streams
    themselves) realizes the conclusion at half the input depth."""
    from coeq.formulas import DataAtom
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
# the tails of ident, even, odd, flip, merge and zipxor recur with the
# input's period.
REALIZE_STEPS_DEPTH_8 = {"ident": 11, "even": 8, "odd": 10, "flip": 12, "merge": 28,
                         "zeros": 3, "ones": 3, "zipxor": 28, "alt": 5}


def test_realizability_at_depth_8_steps_are_pinned(monkeypatch):
    from importlib import import_module
    from coeq.formulas import DataAtom
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


@pytest.mark.parametrize("name", list(stock_library()))
def test_a_stock_program_and_its_extraction_cost_as_much_at_depth_256_as_at_64(name):
    """On the first input the roundtrip draws, every stock program and its
    extraction recur with the input's period before depth 64."""
    result, entry = _extract(name)
    extracted = [_steps_to_depth(result, SM, entry.arity, d) for d in (64, 256)]
    original = [_original_steps(entry.program, SM, entry.arity, d) for d in (64, 256)]
    assert extracted[0] == extracted[1] and original[0] == original[1], (extracted, original)


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
    from coeq.formulas import DataAtom
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
                     and u.name in program.functions()]
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


def _raises(e):
    def f(*_args):
        raise e
    return f


def _returns(make):
    return lambda *_args: make()


# a name of coeq.extract, what stands in for it, and the stage that then
# fails with the detail it prints; the stages before it pass
_GATE_STAGE = {"check": "normalize", "detour": "normalize", "strongly-positive": "sp-scan"}
_SORTS = and_intro(assume("a", DataAtom("B", Var("y"))),
                   assume("b", DataAtom("S", Var("y"))))
ROUNDTRIP_FAILURES = [
    ("compile_schema", _returns(lambda: stock_library()["flip"].program),
     "compile", "re-extraction differs"),
    ("prove_corec", _raises(ExtractError("no typing available for 'g'")),
     "prove-corec", "no typing available for 'g'"),
    ("prove_corec", _returns(lambda: GATE_FAILURES["check"][0]),
     "prove-corec", "at root: reflexivity concludes t = t only"),
] + [("normalize", _returns(lambda d=d: d), _GATE_STAGE[c], message)
     for c, (d, message) in GATE_FAILURES.items()] + [
    ("normalize", _returns(lambda: _SORTS),
     "extract", "variable 'y' used at both sorts in '(B(y) & S(y))'"),
    ("extract", _returns(lambda: SimpleNamespace(program=morse_thue_program())),
     "extract", "recursive occurrence under non-component context: 'mt' in "
                "'merge(mt, notf(mt))'"),
    ("extract", _returns(lambda: _extract("flip")[0]),
     "bisim", "case 0: differs(path [1])"),
]


@pytest.mark.parametrize("name, stand_in, stage, detail", ROUNDTRIP_FAILURES,
                         ids=["compile", "prover-raises", "prover-does-not-check",
                              "check", "detour", "strongly-positive", "past-the-gate",
                              "extraction-rejected", "not-bisimilar"])
def test_roundtrip_reports_each_failing_stage(monkeypatch, name, stand_in, stage,
                                              detail):
    """The normalize and sp-scan verdicts are read from `extract`'s gate;
    past the gate, the recognizer must accept the extraction, and it must
    be the original observationally (flip's extraction is not ident)."""
    monkeypatch.setattr(import_module("coeq.extract"), name, stand_in)
    report = roundtrip_report(depth=8, library={"ident": stock_library()["ident"]})
    stages = ["recognize", "compile", "prove-corec", "normalize", "sp-scan",
              "extract", "bisim"]
    lines = [f"  {s}\tok" for s in stages[:stages.index(stage)]]
    assert report.render().splitlines() == ["ident\tFAIL"] + lines + [
        f"  {stage}\tFAIL\t{detail}"]


def test_roundtrip_walks_each_proof_as_often_as_the_gate_needs(monkeypatch):
    """Per passing entry: the prover's proof is checked once, and its
    normal form is checked, scanned for detours and scanned for strong
    positivity once each, all inside `extract`."""
    mod = import_module("coeq.extract")
    calls = {"check_proof": 0, "has_detour": 0, "assert_sp_proof": 0}

    def counting(name):
        walk = getattr(mod, name)

        def counted(*args):
            calls[name] += 1
            return walk(*args)
        return counted

    for name in calls:
        monkeypatch.setattr(mod, name, counting(name))
    library = stock_library()
    report = roundtrip_report(depth=8, library=library, inputs_per_entry=1)
    assert report.ok, report.render()
    n = len(library)
    assert calls == {"check_proof": 2 * n, "has_detour": n, "assert_sp_proof": n}


@pytest.mark.parametrize("kwargs", [{"inputs_per_entry": 0}, {"depth": -3}])
def test_roundtrip_rejects_a_vacuous_run(kwargs):
    """With no inputs, no case of an entry of positive arity is compared."""
    with pytest.raises(ValueError, match="roundtrip needs depth >= 1 and at least one"):
        roundtrip_report(**kwargs)


@pytest.mark.parametrize("n", [10, 12])
def test_roundtrip_passes_on_a_rotate_family_of_ten_or_more_arguments(n):
    """The extraction's value parameters sort as strings (x1, x10, x2, ...);
    each is fed the input the prover named it after, not the input at its
    position in that order."""
    library = {"rot": StockEntry("rot", stream_family("rotate", n), n, "")}
    report = roundtrip_report(depth=16, library=library, inputs_per_entry=3)
    assert report.ok, report.render()


def test_roundtrip_includes_rejection_of_morse_thue():
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
                member = CorecBundle(bundle.strata, m.name)
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
        "704bdcfbe0ea0d83f6da5123646dab60acfdb7ad4406b6c4e65c89c920331417")


def test_extractions_are_pinned():
    assert _extractions_digest() == (
        "a62229baf7ada53f86d32c9f86f143f71d7285fe528c8b26f6a1bdfb8e895b41")
