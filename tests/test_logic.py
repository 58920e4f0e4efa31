import random
import time

import pytest
from helpers import (MIXED, SM, ZERO, ONE, cons, fn, flip_program, inject_detours,
                     stream_family, v)

from coeq import logic
from coeq.corec import check_primitive_corecursive, stock_library
from coeq.extract import prove_corec

from coeq.logic import (And, DataAtom, Derivation, EqAtom, Exists, Forall,
                        Imp, Or, PolarityClass, alpha_eq, and_elim, and_intro,
                        assert_sp_proof, assume, build_dcm, check_proof,
                        classify_formula, coinduction, data_elim, data_intro,
                        ex_elim, ex_intro, fv, has_detour, imp_elim,
                        imp_intro, induction, inj, normalize, or_elim,
                        or_intro, refl, rewrite, sep, subst_formula,
                        subst_derivation, all_intro, all_elim)
from coeq.program import Equation, assemble_program
from coeq.system import ConstructorType
from coeq.terms import Con, Fun, Term, Var

CONS_T = SM.types[2]   # cons : B * S -> S
ZERO_T = SM.types[0]   # 0 : B
ONE_T = SM.types[1]    # 1 : B

S = lambda t: DataAtom("S", t)
B = lambda t: DataAtom("B", t)


def test_classify_examples():
    sp = Exists("y", And(S(v("y")), EqAtom(fn("f", v("y")), v("z"))))
    assert classify_formula(sp) is PolarityClass.STRONGLY_POSITIVE
    gen = Imp(S(v("x")), S(fn("f", v("x"))))
    assert classify_formula(gen) is PolarityClass.GENERAL
    pos = Forall("x", S(v("x")))
    assert classify_formula(pos) is PolarityClass.POSITIVE


def test_classify_unipolar():
    # S only negatively, B only positively: unipolar but not positive
    f = Imp(S(v("x")), B(v("y")))
    assert classify_formula(f) is PolarityClass.UNIPOLAR
    # equality atoms carry no polarity: an implication between equations
    # has no data atoms at all, hence counts positive
    f2 = Imp(EqAtom(v("x"), v("y")), EqAtom(v("y"), v("x")))
    assert classify_formula(f2) is PolarityClass.POSITIVE


def _random_formula(rng, size):
    if size <= 1:
        k = rng.randrange(3)
        if k == 0:
            return S(Var(rng.choice("xyz")))
        if k == 1:
            return B(Var(rng.choice("xyz")))
        return EqAtom(Var(rng.choice("xyz")), Con("0"))
    left = rng.randint(1, size - 1)
    k = rng.randrange(6)
    if k == 0:
        return And(_random_formula(rng, left), _random_formula(rng, size - left))
    if k == 1:
        return Or(_random_formula(rng, left), _random_formula(rng, size - left))
    if k == 2:
        return Imp(_random_formula(rng, left), _random_formula(rng, size - left))
    if k == 3:
        return Exists(rng.choice("xyz"), _random_formula(rng, size - 1))
    if k == 4:
        return Forall(rng.choice("xyz"), _random_formula(rng, size - 1))
    return And(_random_formula(rng, left), _random_formula(rng, size - left))


def _oracle_classify(f):
    """Path-enumerating polarity computation, independent of the recursive
    sign-threading implementation."""
    paths = []  # (node, number of implication-left crossings)
    stack = [(f, 0)]
    ops = set()
    while stack:
        g, lefts = stack.pop()
        ops.add(type(g).__name__)
        if isinstance(g, DataAtom):
            paths.append((g.predicate, lefts))
        elif isinstance(g, (And, Or)):
            stack.append((g.left, lefts))
            stack.append((g.right, lefts))
        elif isinstance(g, Imp):
            stack.append((g.left, lefts + 1))
            stack.append((g.right, lefts))
        elif isinstance(g, (Exists, Forall)):
            stack.append((g.body, lefts))
    if "Imp" not in ops and "Forall" not in ops:
        return PolarityClass.STRONGLY_POSITIVE
    if all(l % 2 == 0 for _, l in paths):
        return PolarityClass.POSITIVE
    pos = {p for p, l in paths if l % 2 == 0}
    neg = {p for p, l in paths if l % 2 == 1}
    if not (pos & neg):
        return PolarityClass.UNIPOLAR
    return PolarityClass.GENERAL


def test_classify_agrees_with_oracle_on_1000_random_formulas():
    rng = random.Random(424242)
    for _ in range(1000):
        f = _random_formula(rng, rng.randint(1, 12))
        assert classify_formula(f) is _oracle_classify(f)


# -- build_dcm ----------------------------------------------------------------

def test_build_dcm_stream_shape():
    phi = Exists("y", And(S(v("y")), EqAtom(v("z"), fn("f", v("y")))))
    dcm = build_dcm(SM, "S", phi, "z", "x")
    want = Exists("z0", Exists("z1", And(
        B(v("z0")),
        And(subst_formula(phi, {"z": v("z1")}),
            EqAtom(v("x"), cons(v("z0"), v("z1")))))))
    assert alpha_eq(dcm, want)


def test_build_dcm_nullary_coinductive():
    from coeq.system import (Constructor, ConstructorType, DataPredicate,
                             DataSystem, Kind)
    stop = Constructor("stop", 0)
    p = DataPredicate("P", Kind.COINDUCTIVE, 0)
    ds = DataSystem((stop,), (p,), (ConstructorType(stop, (), p),))
    dcm = build_dcm(ds, "P", EqAtom(v("q"), v("q")), "q", "x")
    assert dcm == EqAtom(v("x"), Con("stop"))


def test_build_dcm_two_unary_successors():
    # J from the mixed system: s, t : J -> J
    phi = S(v("q"))  # any formula with hole q
    dcm = build_dcm(MIXED, "J", phi, "q", "x")
    want = Or(
        Exists("z0", And(S(v("z0")), EqAtom(v("x"), Con("s", (v("z0"),))))),
        Exists("z0", And(S(v("z0")), EqAtom(v("x"), Con("t", (v("z0"),))))))
    assert alpha_eq(dcm, want)


def test_build_dcm_rejects_an_unknown_or_uninhabited_predicate():
    from coeq.system import Constructor, DataPredicate, DataSystem, Kind
    stop = Constructor("stop", 0)
    p = DataPredicate("P", Kind.COINDUCTIVE, 0)
    q = DataPredicate("Q", Kind.COINDUCTIVE, 1)
    ds = DataSystem((stop,), (p, q), (ConstructorType(stop, (), p),))
    phi = EqAtom(v("q"), v("q"))
    with pytest.raises(ValueError, match="^unknown predicate 'R'$"):
        build_dcm(ds, "R", phi, "q", "x")
    with pytest.raises(ValueError, match="^predicate 'Q' has an empty constructor set$"):
        build_dcm(ds, "Q", phi, "q", "x")


# -- check_proof --------------------------------------------------------------

def _check(d, program=None):
    return check_proof(SM, program or flip_program(), d)


def test_assumption_judgment():
    d = assume("u", S(v("x")))
    res = _check(d)
    assert res.ok
    assert list(res.assumptions) == [("u", S(v("x")))]
    assert res.conclusion == S(v("x"))


def test_data_elim_constructor_form():
    d = data_elim(CONS_T, 2, assume("u", S(cons(v("x"), v("y")))))
    res = _check(d)
    assert res.ok
    assert res.conclusion == S(v("y"))


def test_data_elim_destructor_form():
    d = data_elim(CONS_T, 1, assume("u", S(v("x"))))
    res = _check(d)
    assert res.ok
    assert res.conclusion == B(Fun("pi1", (v("x"),)))


def test_data_intro_inductive_only():
    d = data_intro(ZERO_T, ())
    res = _check(d)
    assert res.ok and res.conclusion == B(ZERO)
    bad = Derivation("data-intro", S(cons(ZERO, v("y"))),
                     (assume("u", B(ZERO)), assume("w", S(v("y")))),
                     (("type", CONS_T),))
    res2 = _check(bad)
    assert not res2.ok
    assert any("inductive result" in str(x) for x in res2.violations)


def test_imp_intro_discharges():
    d = imp_intro("u", S(v("x")), assume("u", S(v("x"))))
    res = _check(d)
    assert res.ok
    assert not res.assumptions
    assert res.conclusion == Imp(S(v("x")), S(v("x")))


def test_coinduction_missing_dcm_rejected():
    phi = EqAtom(v("x"), v("x"))
    bad = Derivation("coinduction", S(v("t")),
                     (refl(v("t")),),
                     (("pred", "S"), ("var", "x"), ("formula", phi),
                      ("label", "w")))
    res = _check(bad)
    assert not res.ok


def test_coinduction_fabricated_dcm_rejected():
    """The decomposition premise for the degenerate invariant x = x is
    fabricated with a reflexivity node concluding a non-reflexive equation;
    the kernel refuses it."""
    phi = EqAtom(v("x"), v("x"))
    dcm_formula = build_dcm(SM, "S", phi, "x", "x")
    # ex z0. ex z1. B(z0) & (z1 = z1 & x = cons(z0, z1))
    fake_eq = Derivation("refl", EqAtom(v("x"), cons(ZERO, v("w"))))
    body = and_intro(data_intro(ZERO_T, ()),
                     and_intro(refl(v("w")), fake_eq))
    assert isinstance(dcm_formula, Exists)
    inner = dcm_formula.body            # ex z1. B(z0) & (...)
    step1 = ex_intro("z1", subst_formula(inner, {"z0": ZERO}).body, v("w"), body)
    fake_dcm = ex_intro("z0", inner, ZERO, step1)
    assert fake_dcm.conclusion == dcm_formula
    bad = coinduction("S", "x", phi, v("t"), "w", refl(v("t")), fake_dcm)
    res = _check(bad)
    assert not res.ok
    assert any("reflexivity" in str(viol) for viol in res.violations)


def test_rewrite_both_directions():
    prog = flip_program()
    # flip's first equation: flip(cons(0,w)) = cons(1, flip(w))
    idx = [i for i, e in enumerate(prog.equations_of("flip"))][0]
    start = assume("u", S(fn("flip", cons(ZERO, v("w")))))
    stepped = rewrite("flip", idx, "lr", (1,), start,
                      S(cons(ONE, fn("flip", v("w")))))
    res = _check(stepped)
    assert res.ok
    back = rewrite("flip", idx, "rl", (1,),
                   assume("u", S(cons(ONE, fn("flip", v("w"))))),
                   S(fn("flip", cons(ZERO, v("w")))))
    assert _check(back).ok


def test_rewrite_must_match_position():
    prog = flip_program()
    start = assume("u", S(fn("flip", cons(ZERO, v("w")))))
    bogus = rewrite("flip", 0, "lr", (1,), start, S(cons(ZERO, fn("flip", v("w")))))
    assert not _check(bogus).ok


def test_rewrite_inside_equality_atom():
    prog = flip_program()
    start = assume("u", EqAtom(v("q"), fn("flip", cons(ZERO, v("w")))))
    stepped = rewrite("flip", 0, "lr", (2,), start,
                      EqAtom(v("q"), cons(ONE, fn("flip", v("w")))))
    assert _check(stepped).ok


# -- malformed nodes -------------------------------------------------------------

EXTRA = assume("w", S(v("y")))

ONE_PREMISE_NODES = {
    "and-elim": and_elim(1, and_intro(assume("u", S(v("x"))), assume("v", S(v("y"))))),
    "all-elim": all_elim(assume("f", Forall("q", S(v("q")))), v("x")),
    "inj": inj(1, assume("u", EqAtom(cons(v("a"), v("b")), cons(v("c"), v("d"))))),
    "sep": sep(assume("u", EqAtom(ZERO, ONE)), S(v("z"))),
    "data-elim": data_elim(CONS_T, 2, assume("u", S(cons(v("x"), v("y"))))),
}


@pytest.mark.parametrize("rule", sorted(ONE_PREMISE_NODES))
def test_a_second_premise_is_rejected(rule):
    """A one-premise rule with a second premise is rejected at the node,
    rather than checking and dropping that premise's open assumptions."""
    good = ONE_PREMISE_NODES[rule]
    assert _check(good).ok
    bad = Derivation(rule, good.conclusion, good.premises + (EXTRA,), good.attrs)
    res = _check(bad)
    assert not res.ok
    assert res.violations[0].path == ()
    assert "one premise" in res.violations[0].message or "malformed" in res.violations[0].message


def test_an_assumption_with_a_premise_is_rejected():
    bad = Derivation("assume", S(v("x")), (EXTRA,), (("label", "u"),))
    res = _check(bad)
    assert [(x.path, x.message) for x in res.violations] == [
        ((), "assumption takes no premises")]


def test_rewrite_position_zero_is_outside_the_atom():
    """Positions count from 1: a 0 at any level names no subterm, where a
    Python index would read it as the last one."""
    start = assume("u", EqAtom(v("q"), fn("flip", cons(ZERO, v("w")))))
    after = EqAtom(v("q"), cons(ONE, fn("flip", v("w"))))
    assert _check(rewrite("flip", 0, "lr", (2,), start, after)).ok
    for pos in ((0,), (0, 2)):
        res = _check(rewrite("flip", 0, "lr", pos, start, after))
        assert [(x.path, x.message) for x in res.violations] == [
            ((), "rewrite position outside the atom")], pos
    inner = assume("u", S(cons(ZERO, fn("flip", cons(ZERO, v("w"))))))
    res = _check(rewrite("flip", 0, "lr", (1, 0), inner,
                         S(cons(ZERO, cons(ONE, fn("flip", v("w")))))))
    assert [x.message for x in res.violations] == ["rewrite position outside the atom"]



def test_rewrite_by_an_equation_three_thousand_levels_deep():
    """The rewrite rule matches an equation's sides against the atom on an
    explicit stack: no equation depth reaches the recursion limit."""
    body = v("x")
    for _ in range(3_000):
        body = cons(ZERO, body)
    prog = assemble_program(SM, [Equation("deep", (v("x"),), body)], "deep")
    d = rewrite("deep", 0, "lr", (1,), assume("h", S(fn("deep", v("x")))), S(body))
    res = _check(d, prog)
    assert res.ok and res.conclusion is S(body)
    wrong = rewrite("deep", 0, "lr", (1,), assume("h", S(fn("deep", v("x")))),
                    S(cons(ZERO, cons(ONE, body.args[1].args[1]))))
    assert [x.message for x in _check(wrong, prog).violations] == [
        f"no instance of '{prog.body[0]}' rewrites 'deep(x)' to "
        f"'{wrong.conclusion.term}'"]

def _rejections():
    """(system, malformed node, the one violation it gets, at the root):
    one case for each way a rule rejects a node."""
    x, y, e, q, t = v("x"), v("y"), v("e"), v("q"), v("t")
    u = assume("u", S(x))
    f_imp = assume("f", Imp(S(x), S(y)))
    pair = assume("p", EqAtom(cons(v("a"), v("b")), cons(v("c"), v("d"))))
    flip_redex = fn("flip", cons(ZERO, v("w")))

    def node(rule, concl, premises=(), **attrs):
        return Derivation(rule, concl, tuple(premises), tuple(attrs.items()))

    def rw(idx, direction, pos, d, concl):
        return rewrite("flip", idx, direction, pos, d, concl)

    n_zero, n_s = MIXED.types[1], MIXED.types[4]   # 0 : N, s : N -> N
    c_s = MIXED.types[7]                             # c : N * S -> S
    ind = dict(pred="N", var="n", formula=EqAtom(v("n"), v("n")),
               case_vars=((), ("m",)), case_labels=((), ("ih",)))
    n_x = assume("b", DataAtom("N", x))
    m = v("m")
    # cons : B * S -> S next to pair : S * S -> S, so that destructor-shape
    # elimination of the first argument cannot tell B from S
    from coeq.system import Constructor, DataSystem
    pair_c = Constructor("pair", 2)
    b_p, s_p = SM.predicates
    two = DataSystem(SM.vocabulary + (pair_c,), SM.predicates,
                     SM.types + (ConstructorType(pair_c, (s_p, s_p), s_p),))
    phi = EqAtom(v("z"), v("z"))
    sm, mixed = SM, MIXED
    return [
        (sm, node("cut", S(x)), "unknown rule 'cut'"),
        (sm, node("assume", S(x)), "assumption without a label"),
        (sm, node("imp-intro", S(x), [u], label="u"), "implication introduction malformed"),
        (sm, node("imp-intro", Imp(S(x), S(y)), [u], label="u"),
         "premise does not match implication conclusion"),
        (sm, node("imp-elim", S(y), [u]), "implication elimination needs two premises"),
        (sm, node("imp-elim", S(y), [u, u]), "major premise is not an implication"),
        (sm, node("imp-elim", S(y), [f_imp, assume("k", S(y))]),
         "minor premise does not match antecedent"),
        (sm, node("imp-elim", S(x), [f_imp, u]), "conclusion does not match consequent"),
        (sm, node("and-elim", S(y), [assume("p", And(S(x), S(y)))], i=1),
         "conclusion is not the selected conjunct"),
        (sm, node("or-intro", S(x), [u], i=1), "disjunction introduction malformed"),
        (sm, node("or-intro", Or(S(y), S(x)), [u], i=1),
         "premise does not match selected disjunct"),
        (sm, node("or-elim", S(x), [u]), "disjunction elimination needs three premises"),
        (sm, node("or-elim", S(x), [u, u, u], label1="a", label2="b"),
         "major premise is not a disjunction"),
        (sm, node("or-elim", S(y), [assume("o", Or(S(x), S(x))), u, u], label1="a",
                  label2="b"), "minor premises must both conclude the conclusion"),
        (sm, node("ex-intro", S(x), [u], witness=x), "existential introduction malformed"),
        (sm, node("ex-intro", Exists("z", S(v("z"))), [u], witness=y),
         "premise is not the body at the witness"),
        (sm, node("ex-elim", S(x), [u], eigen="e"), "existential elimination malformed"),
        (sm, node("ex-elim", S(x), [u, u], eigen="e", label="h"),
         "major premise is not existential"),
        (sm, node("ex-elim", S(y), [assume("o", Exists("z", S(v("z")))), u], eigen="e",
                  label="h"), "conclusion does not match the minor premise"),
        (sm, ex_elim(assume("o", Exists("z", S(v("z")))), "e", "h", assume("h", S(e))),
         "eigenvariable 'e' escapes"),
        (sm, ex_elim(assume("o", Exists("z", S(v("z")))), "e", "h",
                     and_elim(1, and_intro(u, assume("k", S(e))))),
         "eigenvariable 'e' free in open assumption 'k'"),
        (sm, node("all-intro", S(x), [u], eigen="e"), "universal introduction malformed"),
        (sm, all_intro("q", S(q), "e", u), "premise is not the body at the eigenvariable"),
        (sm, all_intro("q", EqAtom(q, e), "e", refl(e)),
         "eigenvariable 'e' free in conclusion"),
        (sm, all_intro("q", S(q), "x", u), "eigenvariable 'x' free in open assumption 'u'"),
        (sm, node("all-elim", S(y), [assume("f", Forall("q", S(q)))], witness=x),
         "conclusion is not the body at the witness"),
        (sm, node("refl", EqAtom(x, y)), "reflexivity concludes t = t only"),
        (sm, node("inj", EqAtom(x, x), [u], i=1), "injectivity needs c(...) = c(...)"),
        (sm, node("inj", EqAtom(x, x), [pair], i=3), "injectivity index out of range"),
        (sm, node("inj", EqAtom(v("b"), v("d")), [pair], i=1),
         "conclusion is not the selected argument equality"),
        (sm, node("sep", S(x), [pair]), "separation needs c(...) = d(...) with c distinct from d"),
        (sm, node("rewrite", S(x), fn="flip", idx=0, dir="lr", pos=(1,)),
         "rewrite needs one premise"),
        (sm, rw(0, "lr", (1,), assume("p", And(S(x), S(x))), S(x)),
         "rewrite acts on atomic formulas"),
        (sm, rw(7, "lr", (1,), u, S(x)), "no equation flip#7 in the program"),
        (sm, rw(0, "up", (1,), u, S(x)), "rewrite direction must be lr or rl"),
        (sm, node("rewrite", S(x), [u], fn="flip", idx=0, dir="lr"), "rewrite position missing"),
        (sm, rw(0, "lr", (1,), assume("k", EqAtom(flip_redex, y)),
                EqAtom(cons(ONE, fn("flip", v("w"))), v("z"))),
         "rewrite changes more than the stated position"),
        (sm, node("data-intro", B(ZERO), type="0"),
         "data introduction needs a declared constructor type"),
        (sm, node("data-intro", S(ZERO), type=ZERO_T), "data introduction malformed"),
        (sm, node("data-intro", B(ONE), type=ZERO_T),
         "conclusion term is not the constructor applied"),
        (mixed, node("data-intro", DataAtom("N", Con("s", (ZERO,))), [n_x], type=n_s),
         "argument premise 1 is not N(0)"),
        (sm, node("data-elim", S(x), [u], type="cons", i=1),
         "data elimination needs a declared constructor type"),
        (sm, node("data-elim", B(x), [u], type=ZERO_T, i=1),
         "data elimination requires a coinductive result"),
        (sm, node("data-elim", B(x), [u], type=CONS_T, i=3), "data elimination index out of range"),
        (sm, node("data-elim", B(x), [assume("b", B(x))], type=CONS_T, i=1),
         "major premise is not the coinductive atom"),
        (two, node("data-elim", B(fn("pi1", x)), [u], type=CONS_T, i=1),
         "destructor-shape elimination ambiguous at position 1"),
        (sm, node("data-elim", S(x), [assume("u", S(cons(x, y)))], type=CONS_T, i=2),
         "conclusion is not S(y)"),
        (mixed, node("induction", EqAtom(x, x), [n_x], **dict(ind, pred="S")),
         "induction needs an inductive predicate and a formula"),
        (mixed, node("induction", EqAtom(x, x), [n_x], **ind),
         "induction needs the major premise plus 2 case premises"),
        (mixed, node("induction", EqAtom(x, x), [u, refl(ZERO), refl(m)], **ind),
         "major premise is not the inductive atom"),
        (mixed, node("induction", EqAtom(y, y), [n_x, refl(ZERO), refl(m)], **ind),
         "conclusion is not the formula at the major term"),
        (mixed, node("induction", EqAtom(x, x), [n_x, refl(ZERO), refl(m)],
                     **dict(ind, case_vars=())),
         "case variable/label vectors malformed"),
        (mixed, node("induction", EqAtom(x, x), [n_x, refl(ZERO), refl(m)],
                     **dict(ind, case_vars=(("k",), ("m",)), case_labels=(("h",), ("ih",)))),
         "case 1: expected 0 eigenvariables/labels"),
        (mixed, node("induction", EqAtom(x, x), [n_x, refl(ONE), refl(m)], **ind),
         "case 1 concludes 1 = 1, wants 0 = 0"),
        (mixed, node("induction", EqAtom(x, m), [n_x, assume("c", EqAtom(ZERO, m)),
                                                 assume("d", EqAtom(Con("s", (m,)), m))],
                     **dict(ind, formula=EqAtom(v("n"), m))),
         "case 2: eigenvariables ['m'] occur in the invariant"),
        (mixed, node("induction", EqAtom(x, x),
                     [n_x, refl(ZERO), assume("k", EqAtom(Con("s", (m,)), Con("s", (m,))))],
                     **ind),
         "case 2: eigenvariable escapes into open assumption 'k'"),
        (sm, coinduction("B", "z", phi, t, "w", refl(t), refl(t)),
         "coinduction needs a coinductive predicate and a formula"),
        (sm, coinduction("S", "z", Imp(S(v("z")), S(v("z"))), t, "w", refl(t), refl(t)),
         "coinduction invariant must be strongly positive"),
        (sm, node("coinduction", B(t), [refl(t), refl(t)], pred="S", var="z", formula=phi,
                  label="w"), "conclusion is not the coinductive atom"),
        (sm, coinduction("S", "z", phi, t, "w", refl(y), refl(t)),
         "first premise is not the invariant at the subject term"),
        (sm, coinduction("S", "z", phi, t, "w", refl(t), refl(t)),
         f"decomposition premise concludes t = t, wants {build_dcm(SM, 'S', phi, 'z', 'z')}"),
    ]


def test_every_rejection_names_its_node():
    """Each rejection a rule can make, on a node whose premises check: the
    node gets exactly that one violation, at its own path."""
    for ds, d, message in _rejections():
        res = check_proof(ds, flip_program(), d)
        assert [(x.path, x.message) for x in res.violations] == [((), message)], d.rule
        assert res.judgment() == f"invalid: at root: {message}"


def test_judgment_of_a_disjunction_and_a_nested_rewrite():
    assert _check(or_intro(1, assume("u", S(v("x"))), S(v("y")))).judgment() == \
        "{u: S(x)} |- (S(x) | S(y))"
    start = assume("u", S(cons(ZERO, fn("flip", cons(ZERO, v("w"))))))
    stepped = rewrite("flip", 0, "lr", (1, 2), start,
                      S(cons(ZERO, cons(ONE, fn("flip", v("w"))))))
    assert _check(stepped).judgment() == "{u: S(cons(0, flip(cons(0, w))))} |- " \
        "S(cons(0, cons(1, flip(w))))"


def test_induction_boolean_case_analysis():
    """B(t) -> B(delta(t, 1, 0, 0)) by induction over booleans."""
    prog = flip_program()
    delta_eqs = prog.equations_of("delta")
    phi = B(Fun("delta", (v("q"), ONE, ZERO, ZERO)))
    case0 = rewrite("delta", 0, "rl", (1,), data_intro(ONE_T, ()),
                    B(Fun("delta", (ZERO, ONE, ZERO, ZERO))))
    case1 = rewrite("delta", 1, "rl", (1,), data_intro(ZERO_T, ()),
                    B(Fun("delta", (ONE, ONE, ZERO, ZERO))))
    d = induction("B", "q", phi, assume("u", B(v("t"))), (case0, case1),
                  ((), ()), ((), ()))
    res = _check(d)
    assert res.ok, res.violations
    assert res.conclusion == B(Fun("delta", (v("t"), ONE, ZERO, ZERO)))


def test_separation_and_injectivity():
    d = inj(1, assume("u", EqAtom(cons(v("a"), v("b")), cons(v("c"), v("d")))))
    res = _check(d)
    assert res.ok and res.conclusion == EqAtom(v("a"), v("c"))
    s = sep(assume("u", EqAtom(ZERO, ONE)), S(v("anything")))
    assert _check(s).ok
    bad = sep(assume("u", EqAtom(ZERO, ZERO)), S(v("x")))
    assert not _check(bad).ok


# -- normalization ------------------------------------------------------------

def test_and_detour_collapses():
    a = assume("u", S(v("x")))
    b = assume("w", B(v("y")))
    d = and_elim(1, and_intro(a, b))
    n = normalize(d)
    assert n == a
    assert not has_detour(n)


def test_imp_detour_substitutes():
    a = assume("u", S(v("x")))
    d = imp_elim(imp_intro("u", S(v("x")), and_intro(assume("u", S(v("x"))),
                                                     refl(v("t")))),
                 a)
    n = normalize(d)
    assert n == and_intro(a, refl(v("t")))
    res = _check(n)
    assert res.ok


def test_or_detour():
    a = assume("u", S(v("x")))
    taken = or_elim(or_intro(1, a, B(v("y"))),
                    "h1", and_intro(assume("h1", S(v("x"))), refl(v("q"))),
                    "h2", and_intro(assume("h0", S(v("x"))), refl(v("q"))))
    n = normalize(taken)
    assert n == and_intro(a, refl(v("q")))


def test_exists_detour():
    body = and_intro(assume("h", S(v("y"))), refl(v("y")))
    d = ex_elim(ex_intro("q", S(v("q")), v("z"), assume("u", S(v("z")))),
                "y", "h", body)
    # conclusion of the minor premise mentions the eigenvariable, so this
    # elim is ill-scoped as a proof; the reduction machinery still works.
    n = normalize(d)
    assert n == and_intro(assume("u", S(v("z"))), refl(v("z")))


def test_forall_detour():
    d = all_elim(all_intro("q", S(v("q")), "y", assume("u", S(v("y")))),
                 cons(v("a"), v("b")))
    n = normalize(d)
    assert n == assume("u", S(cons(v("a"), v("b"))))


def test_normalize_renames_labels_without_capturing_open_assumptions():
    """Grafting assume(a, A) under a binder labeled a renames the binder,
    and the new label must not capture the open assumption _l1: B."""
    a_, b_ = S(v("x")), B(v("y"))
    d = imp_elim(imp_intro("h", a_, imp_intro("a", b_, and_intro(
        assume("h", a_), assume("_l1", b_)))), assume("a", a_))
    n = normalize(d)
    assert not has_detour(n)
    assert _check(n).judgment() == _check(d).judgment()


def test_normalize_is_deterministic():
    a_, b_ = S(v("x")), B(v("y"))
    d = imp_elim(imp_intro("h", a_, imp_intro("a", b_, assume("h", a_))),
                 assume("a", a_))
    assert normalize(d) == normalize(d)


def test_normalize_idempotent():
    a = assume("u", S(v("x")))
    d = imp_elim(imp_intro("u", S(v("x")),
                           and_elim(2, and_intro(refl(v("t")),
                                                 assume("u", S(v("x")))))),
                 a)
    n1 = normalize(d)
    n2 = normalize(n1)
    assert n1 == n2
    assert not has_detour(n1)


def test_subject_reduction_on_random_detours():
    """check_proof passes on normalize(D) whenever it passes on D."""
    progs = flip_program()
    samples = []
    a = assume("u", S(v("x")))
    samples.append(imp_elim(imp_intro("h", S(v("x")),
                                      and_intro(assume("h", S(v("x"))), refl(v("t")))), a))
    samples.append(and_elim(2, and_intro(a, refl(v("t")))))
    samples.append(or_elim(or_intro(2, refl(v("t")), S(v("x"))),
                           "h1", refl(v("t")), "h2", assume("h2", EqAtom(v("t"), v("t")))))
    for d in samples:
        before = _check(d)
        assert before.ok
        n = normalize(d)
        after = _check(n)
        assert after.ok
        assert alpha_eq(n.conclusion, d.conclusion)
        assert set(after.assumptions) <= set(before.assumptions)


def test_assert_sp_proof():
    good = and_intro(assume("u", S(v("x"))), refl(v("t")))
    assert assert_sp_proof(good) is None
    bad = imp_intro("u", S(v("x")), assume("w", S(fn("f", v("x")))))
    hit = assert_sp_proof(bad)
    assert hit is not None
    path, formula = hit
    assert isinstance(formula, Imp)


def test_graft_avoids_label_capture():
    inner = imp_intro("h", S(v("x")), and_intro(assume("h", S(v("x"))),
                                                assume("g", B(v("y")))))
    replacement = assume("h", B(v("y")))  # open label 'h' must not be captured
    out = subst_derivation(inner, {}, {"g": replacement})
    res = _check(out)
    assert res.ok
    # the grafted 'h' stays open; the discharging 'h' was renamed
    assert ("h", B(v("y"))) in res.assumptions
    assert res.conclusion == Imp(S(v("x")), And(S(v("x")), B(v("y"))))


def test_normalize_grafts_into_the_major_premise_of_a_binder():
    """or-elim binds its labels in the minor premises only: an assumption
    h in its major premise belongs to the enclosing imp-intro."""
    p = S(v("x"))
    a_ = Or(p, p)
    d = imp_elim(imp_intro("h", a_, or_elim(assume("h", a_), "h", assume("h", p),
                                            "k", assume("k", p))),
                 or_intro(1, assume("a", p), p))
    assert _check(d).judgment() == "{a: S(x)} |- S(x)"
    assert _check(normalize(d)).judgment() == _check(d).judgment()


def test_normalize_substitutes_into_the_major_premise_of_a_binder():
    """ex-elim binds its eigenvariable in the minor premise only: e in the
    major premise is the outer eigenvariable, instantiated by reduction."""
    x, y, z, e = v("x"), v("y"), v("z"), v("e")
    inner = ex_elim(ex_intro("z", S(z), e, assume("h", S(e))), "e", "g",
                    ex_intro("z", S(z), e, assume("g", S(e))))
    d = ex_elim(ex_intro("y", S(y), x, assume("a", S(x))), "e", "h", inner)
    assert _check(d).judgment() == "{a: S(x)} |- (ex z. S(z))"
    assert _check(normalize(d)).judgment() == _check(d).judgment()


def test_normalize_renames_a_capturing_eigenvariable_only_in_its_scope():
    """Instantiating w by y under an ex-elim with eigenvariable y renames
    that eigenvariable in the minor premise, not the free y of the major."""
    y = v("y")
    ex = Exists("z", S(v("z")))
    major = imp_elim(assume("u", Imp(S(y), ex)), assume("k", S(y)))
    body = ex_elim(major, "y", "h", refl(v("w")))
    d = all_elim(all_intro("q", EqAtom(v("q"), v("q")), "w", body), y)
    assert _check(d).judgment() == "{k: S(y), u: (S(y) -> (ex z. S(z)))} |- y = y"
    assert _check(normalize(d)).judgment() == _check(d).judgment()


def test_normalize_renames_an_eigenvariable_free_in_the_grafted_proof():
    """Grafting a proof whose open assumption k mentions y under an ex-elim
    with eigenvariable y renames that eigenvariable, so the normal form
    checks with the same judgment."""
    x, y = v("x"), v("y")
    body = ex_elim(assume("e", Exists("z", S(v("z")))), "y", "g", assume("h", S(x)))
    d = imp_elim(imp_intro("h", S(x), body),
                 imp_elim(assume("k", Imp(S(y), S(x))), assume("m", S(y))))
    assert _check(d).judgment() == \
        "{e: (ex z. S(z)), k: (S(y) -> S(x)), m: S(y)} |- S(x)"
    n = normalize(d)
    assert not has_detour(n)
    assert _check(n).judgment() == _check(d).judgment()


def test_subst_derivation_leaves_an_invariants_hole_alone():
    d = induction("B", "n", EqAtom(v("n"), v("n")), assume("u", B(v("x"))),
                  (refl(ZERO), refl(ONE)), ((), ()), ((), ()))
    assert _check(d).ok
    assert subst_derivation(d, {"n": v("x")}, {}) == d


def test_normalize_keeps_a_users_assumption_named_graft_hole():
    """Labels may contain '_': an open assumption named _graft_hole is the
    user's own and survives the ex-elim reduction."""
    sv = S(v("v"))
    d = ex_elim(ex_intro("x", S(v("x")), v("v"), assume("p", sv)), "y", "a",
                and_intro(assume("_graft_hole", sv), assume("k", sv)))
    assert _check(d).judgment() == \
        "{_graft_hole: S(v), k: S(v), p: S(v)} |- (S(v) & S(v))"
    assert _check(normalize(d)).judgment() == \
        "{_graft_hole: S(v), k: S(v)} |- (S(v) & S(v))"


# -- formulas up to bound names ---------------------------------------------

def test_checker_compares_formulas_up_to_bound_names():
    exu, exz = Exists("u", S(v("u"))), Exists("z", S(v("z")))
    d = imp_elim(assume("f", Imp(exz, S(v("x")))), assume("e", exu))
    assert _check(d).judgment() == \
        "{e: (ex u. S(u)), f: ((ex z. S(z)) -> S(x))} |- S(x)"


def test_alpha_eq_walks_bound_names():
    body = lambda x: And(S(v(x)), EqAtom(v(x), cons(v(x), v("w"))))
    assert alpha_eq(Exists("u", body("u")), Exists("z", body("z")))
    assert alpha_eq(Forall("u", Or(B(v("u")), Imp(B(v("u")), B(v("w"))))),
                    Forall("z", Or(B(v("z")), Imp(B(v("z")), B(v("w"))))))
    assert not alpha_eq(Exists("u", S(v("u"))), Forall("u", S(v("u"))))
    assert not alpha_eq(Exists("u", S(v("u"))), Exists("z", S(v("u"))))
    assert not alpha_eq(Exists("u", S(v("u"))), Exists("z", B(v("z"))))
    assert not alpha_eq(Exists("u", EqAtom(v("u"), ZERO)),
                        Exists("z", EqAtom(ZERO, v("z"))))
    assert not alpha_eq(Exists("u", S(fn("f", v("u")))), Exists("z", S(fn("g", v("z")))))
    # the inner binder shadows the outer one on both sides
    assert alpha_eq(Exists("u", Exists("u", S(v("u")))), Exists("z", Exists("y", S(v("y")))))
    assert not alpha_eq(Exists("u", Exists("u", S(v("u")))),
                        Exists("z", Exists("y", S(v("z")))))


def test_alpha_eq_of_two_thousand_quantifiers():
    """The walk keeps its own stack: formulas of any quantifier depth
    compare."""
    def quantified(names, free="w"):
        # the innermost and the outermost binder, and a free variable
        f = EqAtom(v(names[-1]), fn("f", v(names[0]), v(free)))
        for i, name in enumerate(reversed(names)):
            f = (Exists if i % 2 else Forall)(name, f)
        return f

    a = quantified([f"a{i}" for i in range(2000)])
    b = quantified([f"b{i}" for i in range(2000)])
    assert alpha_eq(a, b)
    assert alpha_eq(a, quantified([f"b{i}" for i in range(1999)] + ["a0"]))
    assert not alpha_eq(a, quantified([f"b{i}" for i in range(2000)], free="u"))
    assert not alpha_eq(a, quantified(["b0"] * 2000))
    # a part that is the same record on both sides, outside every binder
    assert alpha_eq(And(a, S(v("x"))), And(b, S(v("x"))))
    assert not alpha_eq(And(S(v("x")), a), And(S(v("y")), a))


def test_all_elim_instantiates_without_capture():
    f = Forall("x", Exists("y", EqAtom(v("x"), v("y"))))
    d = all_elim(assume("f", f), v("y"))
    assert d.conclusion == Exists("y'", EqAtom(v("y"), v("y'")))
    assert _check(d).ok


# -- normalize through every binder ------------------------------------------

def _check_mixed(d):
    return check_proof(MIXED, flip_program(), d)


def test_normalize_renames_induction_case_variables_and_hole():
    """Instantiating w by c(n, m) under an induction with hole n and case
    variable m renames both, within their scopes."""
    n_t = MIXED.types_for_result(MIXED.predicate("N"))
    assert [t.constructor.name for t in n_t] == ["0", "s"]
    w = v("w")
    ind = induction("N", "n", EqAtom(w, w), assume("u", DataAtom("N", v("x"))),
                    (refl(w), assume("ih", EqAtom(w, w))), ((), ("m",)), ((), ("ih",)))
    d = all_elim(all_intro("q", EqAtom(v("q"), v("q")), "w", ind),
                 Con("c", (v("n"), v("m"))))
    assert _check_mixed(d).judgment() == "{u: N(x)} |- c(n, m) = c(n, m)"
    out = normalize(d)
    assert out.attr("var") != "n" and out.attr("case_vars") != ((), ("m",))
    assert _check_mixed(out).judgment() == _check_mixed(d).judgment()


def test_normalize_renames_an_induction_case_label():
    """Grafting a proof with open label ih into an induction case that
    binds ih renames the case label, and its uses under an inner binder."""
    by, bx = B(v("y")), B(v("x"))
    phi = Imp(by, And(by, bx))
    case0 = imp_intro("z", by, and_intro(assume("z", by), assume("a", bx)))
    case1 = imp_intro("z", by, and_intro(
        and_elim(1, imp_elim(assume("ih", phi), assume("z", by))), assume("a", bx)))
    ind = induction("N", "n", phi, assume("u", DataAtom("N", v("x"))),
                    (case0, case1), ((), ("m",)), ((), ("ih",)))
    d = imp_elim(imp_intro("a", bx, ind), assume("ih", bx))
    assert _check_mixed(d).judgment() == \
        "{ih: B(x), u: N(x)} |- (B(y) -> (B(y) & B(x)))"
    out = normalize(d)
    assert out.attr("case_labels") == ((), ("ih'",))
    assert _check_mixed(out).judgment() == _check_mixed(d).judgment()


def _ones_program():
    return assemble_program(SM, [Equation("ones", (), cons(ONE, fn("ones")))], "ones")


def test_normalize_renames_a_coinduction_label_and_hole():
    """S(ones) by coinduction on x = ones, whose decomposition premise uses
    a: B(1).  Grafting a proof of B(1) with open label w and x free renames
    the coinduction's label w and its hole x."""
    x, ones = v("x"), fn("ones")
    phi = EqAtom(x, ones)
    dcm = build_dcm(SM, "S", phi, "x", "x")
    step = rewrite("ones", 0, "lr", (2,), assume("w", phi), EqAtom(x, cons(ONE, ones)))
    body = and_intro(assume("a", B(ONE)), and_intro(refl(ones), step))
    inner = subst_formula(dcm.body, {"z0": ONE})
    d_dcm = ex_intro("z0", dcm.body, ONE, ex_intro("z1", inner.body, ones, body))
    co = coinduction("S", "x", phi, ones, "w", refl(ones), d_dcm)
    rep = imp_elim(assume("w", Imp(S(x), B(ONE))), assume("k", S(x)))
    d = imp_elim(imp_intro("a", B(ONE), co), rep)
    res = check_proof(SM, _ones_program(), d)
    assert res.judgment() == "{k: S(x), w: (S(x) -> B(1))} |- S(ones)"
    out = normalize(d)
    assert out.attr("label") != "w" and out.attr("var") != "x"
    assert check_proof(SM, _ones_program(), out).judgment() == res.judgment()


def test_normalize_renames_an_all_intro_eigenvariable():
    x, y = v("x"), v("y")
    gen = all_intro("q", And(B(x), EqAtom(v("q"), v("q"))), "y",
                    and_intro(assume("a", B(x)), refl(y)))
    d = imp_elim(imp_intro("a", B(x), gen),
                 imp_elim(assume("k", Imp(S(y), B(x))), assume("m", S(y))))
    assert _check(d).judgment() == \
        "{k: (S(y) -> B(x)), m: S(y)} |- (all q. (B(x) & q = q))"
    out = normalize(d)
    assert out.attr("eigen") == "y'"
    assert _check(out).judgment() == _check(d).judgment()


def test_normalize_reduces_a_detour_below_the_root():
    a = assume("u", S(v("x")))
    d = and_intro(refl(v("t")), and_elim(1, and_intro(a, refl(v("t")))))
    assert normalize(d) == and_intro(refl(v("t")), a)


def test_subst_derivation_renames_an_eigenvariable_it_would_make_free_in_the_major():
    """The eigenvariable y of an ex-elim scopes only the minor premise, but
    must not occur free in the major one either: substituting y for w
    there renames it."""
    d = ex_elim(assume("u", Exists("z", EqAtom(v("z"), v("w")))), "y", "h", refl(ZERO))
    out = subst_derivation(d, {"w": v("y")}, {})
    assert out.attr("eigen") == "y'"
    assert _check(out).judgment() == "{u: (ex z. z = y)} |- 0 = 0"


# -- normalize in one bottom-up pass ---------------------------------------------

def test_a_proof_ten_thousand_levels_deep_normalizes():
    """One and-detour under 10,000 nested and-intros.  The result is walked
    with a loop, which checks every node, so it is detour-free: dataclass
    equality and repr recurse, and a scan by `nodes()` builds a path per
    node, which costs time quadratic in the depth."""
    x = v("x")
    d = and_elim(1, and_intro(assume("h", S(x)), refl(x)))
    for _ in range(10_000):
        d = and_intro(d, refl(x))
    n = normalize(d)
    for _ in range(10_000):
        assert n.rule == "and-intro" and n.premises[1].rule == "refl"
        n = n.premises[0]
    assert n.rule == "assume" and n.attr("label") == "h"


def test_has_detour_scans_a_proof_ten_thousand_levels_deep_in_linear_time():
    """`has_detour` walks the premises without building each node's path."""
    x = v("x")
    d = and_elim(1, and_intro(assume("h", S(x)), refl(x)))
    for _ in range(10_000):
        d = and_intro(d, refl(x))
    n = normalize(d)
    start = time.perf_counter()
    assert has_detour(d) and not has_detour(n)
    assert time.perf_counter() - start < 0.5


def test_a_detour_over_a_body_ten_thousand_levels_deep_normalizes():
    """Contracting imp-elim(imp-intro_h(B), a) substitutes a for h through
    a body B of 10,000 nested imp-elims."""
    x = v("x")
    body = assume("h", S(x))
    for _ in range(10_000):
        body = imp_elim(assume("k", Imp(S(x), S(x))), body)
    n = normalize(imp_elim(imp_intro("h", S(x), body), assume("a", S(x))))
    for _ in range(10_000):
        assert n.rule == "imp-elim" and n.premises[0].attr("label") == "k"
        n = n.premises[1]
    assert n.rule == "assume" and n.attr("label") == "a"


def test_assert_sp_proof_scans_a_proof_ten_thousand_levels_deep_in_linear_time():
    """The scan is breadth first with a parent link per node, and builds only
    the offender's path.  In a chain of 10,000 nested imp-elims every major
    premise concludes an implication, and the shallowest is reported; under
    10,000 single-premise nodes, the one offending leaf is."""
    x = v("x")
    chain = assume("h", S(x))
    for _ in range(10_000):
        chain = imp_elim(assume("k", Imp(S(x), S(x))), chain)
    deep, clean = assume("k", Imp(S(x), S(x))), assume("h", S(x))
    for _ in range(10_000):
        deep, clean = sep(deep, S(x)), sep(clean, S(x))
    start = time.perf_counter()
    assert assert_sp_proof(chain) == ((0,), Imp(S(x), S(x)))
    assert assert_sp_proof(deep) == ((0,) * 10_000, Imp(S(x), S(x)))
    assert assert_sp_proof(clean) is None
    assert time.perf_counter() - start < 0.5


def test_assert_sp_proof_classifies_a_conclusion_two_thousand_levels_deep():
    """classify_formula keeps its own stack: a 2,000-deep conjunction of
    data atoms is strongly positive, and one over an implication is not."""
    x = v("x")
    sp, general = S(x), Imp(S(x), S(x))
    for _ in range(2_000):
        sp, general = And(S(x), sp), And(S(x), general)
    assert assert_sp_proof(assume("h", sp)) is None
    path, offender = assert_sp_proof(assume("h", general))
    assert path == () and offender is general
    assert classify_formula(general) is PolarityClass.GENERAL


def test_assert_sp_proof_reports_the_shallowest_then_leftmost_offender():
    x = v("x")
    node = lambda *premises: Derivation("sep", S(x), premises)
    bad = lambda label: assume(label, Imp(S(x), B(x)))
    d = node(node(refl(x), bad("a")), node(bad("b"), refl(x)))
    assert assert_sp_proof(d) == ((0, 1), Imp(S(x), B(x)))
    d = node(node(refl(x), node(bad("a"))), node(refl(x), bad("b")))
    assert assert_sp_proof(d) == ((1, 1), Imp(S(x), B(x)))


def test_assert_sp_proof_reports_the_first_offender_past_shared_strongly_positive_parts():
    """The scan walks each strongly-positive formula once per call.  A part
    it has found so, shared by the early nodes, hides no `Imp` or `Forall`
    in a deeper node that holds it: the offender is still the shallowest,
    then leftmost one, as a scan that classifies every node afresh finds."""
    x, y = v("x"), v("y")
    shared = And(S(x), Exists("y", And(B(y), EqAtom(y, x))))
    node = lambda f, *premises: Derivation("sep", f, premises)

    def afresh(d):
        bad = [(len(p), p, n.conclusion) for p, n in d.nodes()
               if classify_formula(n.conclusion) is not PolarityClass.STRONGLY_POSITIVE]
        return min(bad)[1:] if bad else None

    late = (node(And(shared, Imp(S(x), B(x)))), node(Forall("y", shared)))
    for first, second in (late, late[::-1]):
        d = node(And(shared, S(x)),
                 node(Or(shared, B(x)), node(shared), first),
                 node(shared, second, node(And(shared, Imp(B(x), S(x))))))
        assert assert_sp_proof(d) == afresh(d) == ((0, 1), first.conclusion)
    assert assert_sp_proof(node(And(shared, S(x)), node(shared), node(shared))) is None


def test_normalize_raises_past_its_contraction_bound(monkeypatch):
    x = v("x")
    d = inject_detours(and_intro(assume("h", S(x)), refl(x)), 1)
    assert sum(1 for _p, node in d.nodes() if node.rule == "imp-elim") == 3
    monkeypatch.setattr(logic, "NORMALIZE_MAX_STEPS", 2)
    with pytest.raises(logic.NormalizationLimit):
        normalize(d)
    monkeypatch.setattr(logic, "NORMALIZE_MAX_STEPS", 3)
    assert normalize(d) == and_intro(assume("h", S(x)), refl(x))


def _member_proof(program):
    verdict = check_primitive_corecursive(program, SM)
    assert verdict.accepted, verdict.reason
    return prove_corec(verdict.bundle, SM)


def test_injected_detours_normalize_back_to_the_original_proof():
    """prove_corec proofs of the stock programs and of three families, with
    a detour injected at every 1st to 4th node, normalize to themselves."""
    programs = [entry.program for entry in stock_library().values()]
    programs += [stream_family(kind, n) for kind in ("mutual", "cycle", "rotate")
                 for n in (1, 2, 3, 8, 16)]
    for program in programs:
        proof = _member_proof(program)
        for every in (1, 2, 3, 4):
            assert normalize(inject_detours(proof, every)) == proof, \
                (program.principal, every)


def test_a_128_member_family_proof_normalizes_within_two_seconds():
    """One member's proof of a 128-member mutual family, with a detour at
    every 4th node (about 2,800), normalizes well within 2 s."""
    d = inject_detours(_member_proof(stream_family("mutual", 128)), 4)
    start = time.perf_counter()
    n = normalize(d)
    assert time.perf_counter() - start < 2.0
    assert not has_detour(n)
