"""Property: normalize turns any well-formed proof with detours into a
detour-free proof of the same conclusion from no new assumptions, and
reusing a bound name changes nothing but bound names.

Each drawn proof is built twice: once with its binders named from two
labels and two variables, so names are reused and the proofs that a
reduction inserts often carry names bound above their occurrences; and
once with every binder named apart.  No capture can happen in the second,
so both must normalize to the same judgment."""
import itertools

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from helpers import SM, cons, flip_program, v

from coeq.logic import (DataAtom, Exists, Imp, alpha_eq, all_elim, all_intro,
                        and_elim, and_intro, assume, check_proof, ex_elim,
                        ex_intro, fv, has_detour, imp_elim, imp_intro, normalize,
                        or_elim, or_intro, refl, subst_derivation,
                        subst_formula)

LABELS = st.sampled_from(("a", "h"))
VARS = st.sampled_from(("x", "y"))
PREDS = st.sampled_from(("S", "B"))
SIDES = st.sampled_from((1, 2))


@st.composite
def specs(draw, depth=3):
    """A proof's shape, with the names its nodes use."""
    kinds = ["assume", "refl"]
    if depth > 0:
        kinds += ["and", "and-detour", "imp-detour", "or-detour", "ex-detour",
                  "all-detour", "ex-elim"]
    kind = draw(st.sampled_from(kinds))
    sub = lambda: draw(specs(depth - 1))
    if kind == "assume":
        return kind, draw(LABELS), draw(PREDS), draw(VARS)
    if kind == "refl":
        return kind, draw(VARS)
    if kind == "and":
        return kind, sub(), sub()
    if kind == "and-detour":
        return kind, draw(SIDES), sub(), sub()
    if kind == "imp-detour":
        return kind, draw(LABELS), sub(), sub()
    if kind == "or-detour":
        return kind, draw(SIDES), draw(LABELS), sub(), sub()
    if kind == "ex-detour":
        return kind, draw(VARS), draw(VARS), draw(LABELS), sub(), sub()
    if kind == "all-detour":
        return kind, draw(VARS), draw(st.sampled_from((0, 1, 2))), sub()
    return kind, draw(VARS), draw(LABELS), sub()


def build(spec, apart: bool):
    """The proof of `spec`; with `apart`, every binder gets a name of its own."""
    fresh = itertools.count(1)

    def name(n: str) -> str:
        return f"{n}{next(fresh)}" if apart else n

    def go(spec, labels: dict, names: dict):
        kind, *a = spec
        var = lambda x: v(names.get(x, x))
        if kind == "assume":
            label, pred, x = a
            if label in labels:
                return assume(*labels[label])
            return assume(label, DataAtom(pred, var(x)))
        if kind == "refl":
            return refl(var(a[0]))
        if kind == "and":
            return and_intro(go(a[0], labels, names), go(a[1], labels, names))
        if kind == "and-detour":
            i, left, right = a
            return and_elim(i, and_intro(go(left, labels, names), go(right, labels, names)))
        if kind == "imp-detour":
            label, arg_spec, body_spec = a
            arg, lab = go(arg_spec, labels, names), name(label)
            body = go(body_spec, {**labels, label: (lab, arg.conclusion)}, names)
            return imp_elim(imp_intro(lab, arg.conclusion, body), arg)
        if kind == "or-detour":
            i, label, p_spec, minor_spec = a
            p, lab = go(p_spec, labels, names), name(label)
            minor = go(minor_spec, {**labels, label: (lab, p.conclusion)}, names)
            return or_elim(or_intro(i, p, p.conclusion), lab, minor, lab, minor)
        if kind == "ex-detour":
            w, eigen, label, p_spec, minor_spec = a
            p, e, lab = go(p_spec, labels, names), name(eigen), name(label)
            body = subst_formula(p.conclusion, {names.get(w, w): v("q")})
            hyp = subst_formula(body, {"q": v(e)})
            minor = go(minor_spec, {**labels, label: (lab, hyp)}, {**names, eigen: e})
            return ex_elim(ex_intro("q", body, var(w), p), e, lab, hide(e, minor))
        if kind == "all-detour":
            eigen, witness, p_spec = a
            e = name(eigen)
            p = go(p_spec, labels, {**names, eigen: e})
            gen = all_intro("q", subst_formula(p.conclusion, {e: v("q")}), e, p)
            return all_elim(gen, (var("x"), var("y"), cons(var("x"), var("y")))[witness])
        eigen, label, minor_spec = a
        e, lab = name(eigen), name(label)
        minor = go(minor_spec, {**labels, label: (lab, DataAtom("S", v(e)))},
                   {**names, eigen: e})
        return ex_elim(assume("m", Exists("q", DataAtom("S", v("q")))), e, lab,
                       hide(e, minor))

    return go(spec, {}, {})


def hide(e: str, d):
    """d, its conclusion closed over the variable e if e occurs free there."""
    if e not in fv(d.conclusion):
        return d
    return ex_intro("p", subst_formula(d.conclusion, {e: v("p")}), v(e), d)


def _check(d):
    return check_proof(SM, flip_program(), d)


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
@hypothesis.given(specs())
def test_normalize_leaves_a_checked_detour_free_proof(spec):
    d, apart = build(spec, False), build(spec, True)
    before = _check(d)
    hypothesis.assume(before.ok)
    assert _check(apart).judgment() == before.judgment()
    n = normalize(d)
    after = _check(n)
    assert not has_detour(n)
    assert after.ok, after.violations
    assert alpha_eq(n.conclusion, d.conclusion)
    assert set(after.assumptions) <= set(before.assumptions)
    assert after.judgment() == _check(normalize(apart)).judgment()


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
@hypothesis.given(specs(), LABELS, VARS)
def test_substitution_renames_only_bound_names(spec, label, x):
    """Substituting for x and for the assumptions labelled `label` a term
    and a proof whose free names the proof's binders reuse gives the
    judgment of the same substitution into the proof named apart."""
    d, apart = build(spec, False), build(spec, True)
    before = _check(d)
    hyps = {f for lab, f in before.assumptions if lab == label}
    hypothesis.assume(before.ok and len(hyps) == 1)
    y = "y" if x == "x" else "x"
    terms = {x: cons(v(y), v(x))}
    hyp = subst_formula(hyps.pop(), terms)
    inserted = imp_elim(assume("a", Imp(DataAtom("S", v(y)), hyp)),
                        assume("h", DataAtom("S", v(y))))
    after = _check(subst_derivation(d, terms, {label: inserted}))
    assert after.ok, after.violations
    assert after.judgment() == \
        _check(subst_derivation(apart, terms, {label: inserted})).judgment()
