"""Formulas and derivations of the intrinsic theory, as records.

Formulas are first-order over data atoms and equations; the logic is
minimal (no falsum, no negation, no excluded middle).  Formulas are
hash-consed, and the walks over them (printing, free variables,
capture-avoiding substitution, alpha-equivalence, polarity) keep their
own stacks.  A derivation is a rule-labeled tree with one builder per
rule; `logic` checks and normalizes derivations.
"""
from __future__ import annotations

import enum

from .program import pi_name
from .system import ConstructorType, DataSystem
from .terms import (Con, Fun, Interned, Term, Tree, Var, _intern, _set, fresh_name,
                    substitute, variables)

# ---------------------------------------------------------------------------
# Formulas
# ---------------------------------------------------------------------------

class Formula(Interned):
    __slots__ = ()

    def __str__(self) -> str:
        """Infix text, written on an explicit stack: any depth."""
        out, stack = [], [self]   # formulas to print, and text to emit
        while stack:
            g = stack.pop()
            if isinstance(g, str):
                out.append(g)
            elif isinstance(g, DataAtom):
                out.append(f"{g.predicate}({g.term})")
            elif isinstance(g, EqAtom):
                out.append(f"{g.left} = {g.right}")
            elif isinstance(g, _Quantified):
                stack += [")", g.body, f"({g.sign} {g.var}. "]
            else:
                stack += [")", g.right, f" {g.sign} ", g.left, "("]
        return "".join(out)


class DataAtom(Formula):
    __slots__ = ("predicate", "term")

    def __new__(cls, predicate: str, term: Term):
        return _intern((cls, predicate, term))


class _Binary(Formula):
    """The fields of an equation and of a binary connective (printed infix)."""
    __slots__ = ("left", "right")

    def __new__(cls, left, right):
        return _intern((cls, left, right))


class EqAtom(_Binary):
    __slots__ = ()


class And(_Binary):
    __slots__ = ()
    sign = "&"


class Or(_Binary):
    __slots__ = ()
    sign = "|"


class Imp(_Binary):
    __slots__ = ()
    sign = "->"


class _Quantified(Formula):
    __slots__ = ("var", "body")

    def __new__(cls, var: str, body: Formula):
        return _intern((cls, var, body))


class Exists(_Quantified):
    __slots__ = ()
    sign = "ex"


class Forall(_Quantified):
    __slots__ = ()
    sign = "all"


def fv(f: Formula) -> set[str]:
    """The free variables of f, on an explicit stack: any depth."""
    out: set[str] = set()
    bound: dict[str, int] = {}   # the binders of each name around the walk
    stack: list = [f]   # formulas to visit; a name leaves one of its binders
    while stack:
        g = stack.pop()
        if isinstance(g, str):
            bound[g] -= 1
        elif isinstance(g, (DataAtom, EqAtom)):
            out.update(v for t in _atom_slots(g) for v in variables(t) if not bound.get(v))
        elif isinstance(g, (Exists, Forall)):
            bound[g.var] = bound.get(g.var, 0) + 1
            stack += [g.var, g.body]
        else:
            stack += [g.left, g.right]
    return out


def subst_formula(f: Formula, s: dict[str, Term]) -> Formula:
    """Simultaneous capture-avoiding substitution of s[x] for the free
    occurrences of each variable x in s.  Unchanged subformulas are shared.
    The walk keeps its own stack: any depth."""
    done: list[Formula] = []   # the substituted subformulas, in postorder
    # (formula, substitution) to visit, or a node to rebuild from its
    # results: (connective, None) or (quantifier, its binder's name)
    todo: list = [(f, s)]
    while todo:
        g, s = todo.pop()
        if s is None:
            right, left = done.pop(), done.pop()
            done.append(g if left is g.left and right is g.right else type(g)(left, right))
        elif type(s) is str:
            body = done.pop()
            done.append(g if body is g.body and s == g.var else type(g)(s, body))
        elif not s:
            done.append(g)
        elif isinstance(g, DataAtom):
            t = substitute(g.term, s)
            done.append(g if t is g.term else DataAtom(g.predicate, t))
        elif isinstance(g, EqAtom):
            left, right = substitute(g.left, s), substitute(g.right, s)
            done.append(g if left is g.left and right is g.right else EqAtom(left, right))
        elif isinstance(g, _Quantified):
            var = g.var
            if var in s:
                s = {x: t for x, t in s.items() if x != var}
            if any(var in variables(t) for t in s.values()):
                body_fv = fv(g.body)
                s = {x: t for x, t in s.items() if x in body_fv}
                if any(var in variables(t) for t in s.values()):
                    tvars = set().union(*(variables(t) for t in s.values()))
                    var = fresh_name(var, tvars | body_fv | set(s))
                    s = {**s, g.var: Var(var)}
            todo += [(g, var), (g.body, s)]
        else:
            todo += [(g, None), (g.right, s), (g.left, s)]
    return done[0]


def alpha_eq(a: Formula, b: Formula) -> bool:
    """Whether two formulas are equal up to the names of bound variables.
    The walk keeps its own stack; a binder pairs its two names in an env
    link `(name in a, name in b, enclosing link)`, None outside binders."""
    if a is b:
        return True
    stack = [(a, b, None)]
    while stack:
        x, y, env = stack.pop()
        if type(x) is not type(y):
            return False
        if x is y and env is None:
            continue
        if isinstance(x, Var):
            while env is not None and x.name != env[0] and y.name != env[1]:
                env = env[2]
            if (x.name, y.name) != (env[:2] if env else (x.name, x.name)):
                return False   # bound to another name, or free and renamed
        elif isinstance(x, (Con, Fun)):
            if x.name != y.name or len(x.args) != len(y.args):
                return False
            stack += zip(x.args, y.args, (env,) * len(x.args))
        elif isinstance(x, DataAtom):
            if x.predicate != y.predicate:
                return False
            stack.append((x.term, y.term, env))
        elif isinstance(x, _Quantified):
            stack.append((x.body, y.body, (x.var, y.var, env)))
        else:
            stack += ((x.left, y.left, env), (x.right, y.right, env))
    return True


def _atom_slots(f: DataAtom | EqAtom) -> list[Term]:
    return [f.term] if isinstance(f, DataAtom) else [f.left, f.right]


def _atom_get(f: DataAtom | EqAtom, pos: tuple[int, ...]) -> Term | None:
    """The subterm of an atom at a position: the first index picks the
    atom's term (or an equation's side), each further one an argument, all
    counted from 1.  None when the position is empty or leaves the atom."""
    t, args = None, _atom_slots(f)
    for i in pos:
        if not isinstance(i, int) or not 1 <= i <= len(args):
            return None
        t = args[i - 1]
        args = t.args
    return t


def _atom_put(f: DataAtom | EqAtom, pos: tuple[int, ...], new: Term) -> Formula:
    """The atom with its subterm at `pos`, a position `_atom_get` found in
    it, replaced by `new`."""
    slots = _atom_slots(f)
    for n in range(len(pos) - 1, 0, -1):   # up the path, from new's parent
        t, i = _atom_get(f, pos[:n]), pos[n]
        new = type(t)(t.name, t.args[:i - 1] + (new,) + t.args[i:])
    slots[pos[0] - 1] = new
    if isinstance(f, DataAtom):
        return DataAtom(f.predicate, slots[0])
    return EqAtom(slots[0], slots[1])


# ---------------------------------------------------------------------------
# Polarity
# ---------------------------------------------------------------------------

class PolarityClass(enum.Enum):
    STRONGLY_POSITIVE = "strongly-positive"
    POSITIVE = "positive"
    UNIPOLAR = "unipolar"
    GENERAL = "general"


def classify_formula(f: Formula) -> PolarityClass:
    """Tightest of strongly-positive < positive < unipolar < general.

    Negative occurrences are those under an odd number of left sides of
    implications; only data atoms carry polarity.  The walks keep their
    own stacks, so no formula depth reaches the recursion limit.
    """
    if _strongly_positive(f, set()):
        return PolarityClass.STRONGLY_POSITIVE
    signed: tuple[set[str], set[str]] = (set(), set())   # predicates at + and at -
    stack = [(f, 0)]
    while stack:
        g, neg = stack.pop()
        if isinstance(g, DataAtom):
            signed[neg].add(g.predicate)
        elif isinstance(g, (And, Or)):
            stack += ((g.left, neg), (g.right, neg))
        elif isinstance(g, Imp):
            stack += ((g.left, 1 - neg), (g.right, neg))
        elif isinstance(g, (Exists, Forall)):
            stack.append((g.body, neg))
        else:
            assert isinstance(g, EqAtom)
    if not signed[1]:
        return PolarityClass.POSITIVE
    if not signed[0] & signed[1]:
        return PolarityClass.UNIPOLAR
    return PolarityClass.GENERAL


def _strongly_positive(f: Formula, known: set[Formula]) -> bool:
    """Whether f is strongly positive: no `Imp` and no `Forall` in it.
    `known` holds formulas already found so, and the walk skips them; when
    f is strongly positive, every subformula it walked joins `known`."""
    walked, stack = set(), [f]
    while stack:
        g = stack.pop()
        if g in known or g in walked:
            continue
        if isinstance(g, (Imp, Forall)):
            return False
        walked.add(g)
        if isinstance(g, (And, Or)):
            stack += (g.left, g.right)
        elif isinstance(g, Exists):
            stack.append(g.body)
    known |= walked
    return True


# ---------------------------------------------------------------------------
# The decomposition disjunction Dcm
# ---------------------------------------------------------------------------

def build_dcm(ds: DataSystem, pred_name: str, phi: Formula, hole: str,
              x: str) -> Formula:
    """The disjunction over constructor decompositions of a coinductive
    predicate, with phi substituted at recursive argument positions.

    For boolean streams this is  ex z0. ex z1. B(z0) & (phi[z1] & x = z0:z1).
    """
    pred = ds.predicate(pred_name)
    if pred is None:
        raise ValueError(f"unknown predicate '{pred_name}'")
    types = ds.types_for_result(pred)
    if not types:
        raise ValueError(f"predicate '{pred_name}' has an empty constructor set")
    avoid = fv(phi) | {x, hole}
    disjuncts: list[Formula] = []
    for ct in types:
        r = ct.constructor.arity
        zs: list[str] = []
        for i in range(r):
            z = fresh_name(f"z{i}", avoid | set(zs))
            zs.append(z)
        eq = EqAtom(Var(x), Con(ct.constructor.name, tuple(Var(z) for z in zs)))
        body: Formula = eq
        for i in range(r - 1, -1, -1):
            ei = ct.argument_predicates[i]
            if ei.name == pred_name:
                conj: Formula = subst_formula(phi, {hole: Var(zs[i])})
            else:
                conj = DataAtom(ei.name, Var(zs[i]))
            body = And(conj, body)
        for z in reversed(zs):
            body = Exists(z, body)
        disjuncts.append(body)
    out = disjuncts[-1]
    for d in reversed(disjuncts[:-1]):
        out = Or(d, out)
    return out


# ---------------------------------------------------------------------------
# Derivations
# ---------------------------------------------------------------------------

Attrs = tuple[tuple[str, object], ...]


class Derivation(Tree):
    __slots__ = ("rule", "conclusion", "premises", "attrs")
    _branches = "premises"

    def __init__(self, rule: str, conclusion: Formula,
                 premises: tuple[Derivation, ...] = (), attrs: Attrs = ()):
        _set(self, "rule", rule)
        _set(self, "conclusion", conclusion)
        _set(self, "premises", premises)
        _set(self, "attrs", attrs)

    def attr(self, key: str):
        for k, v in self.attrs:
            if k == key:
                return v
        return None

    def nodes(self):
        """All nodes with their paths, preorder."""
        stack = [((), self)]
        while stack:
            path, d = stack.pop()
            yield path, d
            for i in range(len(d.premises) - 1, -1, -1):
                stack.append((path + (i,), d.premises[i]))


def show_path(path: tuple) -> str:
    """A position as violations print it: `root`, or its steps (premise
    indices, or a realizer's) joined by `/`."""
    return "/".join(str(i) for i in path) or "root"


def assume(label: str, f: Formula) -> Derivation:
    return Derivation("assume", f, (), (("label", label),))


def imp_intro(label: str, hyp: Formula, body: Derivation) -> Derivation:
    return Derivation("imp-intro", Imp(hyp, body.conclusion), (body,),
                      (("label", label),))


def imp_elim(d_imp: Derivation, d_arg: Derivation) -> Derivation:
    assert isinstance(d_imp.conclusion, Imp)
    return Derivation("imp-elim", d_imp.conclusion.right, (d_imp, d_arg))


def and_intro(a: Derivation, b: Derivation) -> Derivation:
    return Derivation("and-intro", And(a.conclusion, b.conclusion), (a, b))


def and_elim(i: int, d: Derivation) -> Derivation:
    assert isinstance(d.conclusion, And)
    side = d.conclusion.left if i == 1 else d.conclusion.right
    return Derivation("and-elim", side, (d,), (("i", i),))


def or_intro(i: int, d: Derivation, other: Formula) -> Derivation:
    f = Or(d.conclusion, other) if i == 1 else Or(other, d.conclusion)
    return Derivation("or-intro", f, (d,), (("i", i),))


def or_elim(d_or: Derivation, label1: str, d1: Derivation,
            label2: str, d2: Derivation) -> Derivation:
    return Derivation("or-elim", d1.conclusion, (d_or, d1, d2),
                      (("label1", label1), ("label2", label2)))


def ex_intro(var: str, body: Formula, witness: Term, d: Derivation) -> Derivation:
    return Derivation("ex-intro", Exists(var, body), (d,),
                      (("witness", witness),))


def ex_elim(d_ex: Derivation, eigen: str, label: str, d_body: Derivation) -> Derivation:
    return Derivation("ex-elim", d_body.conclusion, (d_ex, d_body),
                      (("eigen", eigen), ("label", label)))


# One builder per checker rule; only tests call the next four.

def all_intro(var: str, body: Formula, eigen: str, d: Derivation) -> Derivation:
    """Checked by tests/test_logic.py::test_forall_detour."""
    return Derivation("all-intro", Forall(var, body), (d,), (("eigen", eigen),))


def all_elim(d: Derivation, witness: Term) -> Derivation:
    """Checked by tests/test_logic.py::test_all_elim_instantiates_without_capture."""
    assert isinstance(d.conclusion, Forall)
    return Derivation("all-elim",
                      subst_formula(d.conclusion.body, {d.conclusion.var: witness}),
                      (d,), (("witness", witness),))


def refl(t: Term) -> Derivation:
    return Derivation("refl", EqAtom(t, t))


def inj(i: int, d: Derivation) -> Derivation:
    """Checked by tests/test_logic.py::test_separation_and_injectivity."""
    eq = d.conclusion
    assert isinstance(eq, EqAtom)
    return Derivation("inj", EqAtom(eq.left.args[i - 1], eq.right.args[i - 1]),
                      (d,), (("i", i),))


def sep(d: Derivation, concl: Formula) -> Derivation:
    """Checked by tests/test_logic.py::test_separation_and_injectivity."""
    return Derivation("sep", concl, (d,))


def rewrite(eq_function: str, eq_index: int, direction: str,
            position: tuple[int, ...], d: Derivation, concl: Formula) -> Derivation:
    return Derivation("rewrite", concl, (d,),
                      (("fn", eq_function), ("idx", eq_index),
                       ("dir", direction), ("pos", tuple(position))))


def data_intro(ct: ConstructorType, args: tuple[Derivation, ...]) -> Derivation:
    term = Con(ct.constructor.name,
               tuple(_atom_term(p.conclusion) for p in args))
    return Derivation("data-intro", DataAtom(ct.result_predicate.name, term),
                      args, (("type", ct),))


def _atom_term(f: Formula) -> Term:
    assert isinstance(f, DataAtom)
    return f.term


def data_elim(ct: ConstructorType, i: int, d: Derivation) -> Derivation:
    src = d.conclusion
    assert isinstance(src, DataAtom)
    t = src.term
    if isinstance(t, Con) and t.name == ct.constructor.name:
        out = t.args[i - 1]
    else:
        out = Fun(pi_name(i), (t,))
    return Derivation("data-elim", DataAtom(ct.argument_predicates[i - 1].name, out),
                      (d,), (("type", ct), ("i", i)))


def induction(pred: str, hole: str, phi: Formula, d_major: Derivation,
              cases: tuple[Derivation, ...],
              case_vars: tuple[tuple[str, ...], ...],
              case_labels: tuple[tuple[str, ...], ...]) -> Derivation:
    t = _atom_term(d_major.conclusion)
    return Derivation("induction", subst_formula(phi, {hole: t}),
                      (d_major,) + cases,
                      (("pred", pred), ("var", hole), ("formula", phi),
                       ("case_vars", case_vars), ("case_labels", case_labels)))


def coinduction(pred: str, hole: str, phi: Formula, t: Term, label: str,
                d_init: Derivation, d_dcm: Derivation) -> Derivation:
    return Derivation("coinduction", DataAtom(pred, t), (d_init, d_dcm),
                      (("pred", pred), ("var", hole), ("formula", phi),
                       ("label", label)))
