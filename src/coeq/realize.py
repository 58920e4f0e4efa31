"""Realizer streams: the even/odd split algebra and finite-depth
realizability checking for strongly-positive formulas.

A realizer is a stream value; evidence for a compound formula is packed
into one stream by interleaving.  With sigma_0 = even(sigma) and
sigma_1 = even(odd(sigma)): a conjunction's conjuncts are realized by
sigma_0 and sigma_1; a disjunction is realized by head-bit selection with
the tail realizing the chosen disjunct; an existential realizer carries
the witness value in sigma_0 and body evidence in sigma_1.  Boolean
values ride in stream heads.
"""
from __future__ import annotations

from .evaluation import (DEFAULT_BUDGET, ApproxNode, DiagramEnv,
                         OmegaResult, Session, derives_omega)
from .logic import (And, DataAtom, EqAtom, Exists, Forall, Formula, Imp, Or,
                    PolarityClass, classify_formula, show_path)
from .program import DELTA, Equation, Program, assemble_program, pi_name
from .system import DataPredicate, DataSystem
from .terms import Con, Fun, Record, Term, Var, _set, substitute

EVEN = "split_even"
ODD = "split_odd"
MERGE = "split_merge"
ZEROS = "split_zeros"


def even_term(t: Term) -> Term:
    return Fun(EVEN, (t,))


def odd_term(t: Term) -> Term:
    return Fun(ODD, (t,))


def merge_term(a: Term, b: Term) -> Term:
    return Fun(MERGE, (a, b))


def zeros_term() -> Term:
    return Fun(ZEROS)


def split_term(sigma: Term, i: int) -> Term:
    """sigma_i = even(odd^i(sigma)): positionally, source indices congruent
    to 2^i - 1 modulo 2^{i+1}."""
    t = sigma
    for _ in range(i):
        t = odd_term(t)
    return even_term(t)


def _pi(i: int, t: Term) -> Term:
    return Fun(pi_name(i), (t,))


_X1, _X2 = Var("x1"), Var("x2")

# The split algebra: split_even takes every second element, split_odd =
# split_even . pi2, split_merge interleaves two streams and split_zeros is
# 0:0:0:...
ALGEBRA = (
    Equation(EVEN, (_X1,), Con("cons", (_pi(1, _X1), even_term(_pi(2, _pi(2, _X1)))))),
    Equation(ODD, (_X1,), even_term(_pi(2, _X1))),
    Equation(MERGE, (_X1, _X2), Con("cons", (_pi(1, _X1), merge_term(_X2, _pi(2, _X1))))),
    Equation(ZEROS, (), Con("cons", (Con("0"), zeros_term()))),
)


def with_algebra(program: Program, ds: DataSystem) -> Program:
    """Extend a program with the split algebra's equations for the
    functions it does not define (idempotent)."""
    extra = [e for e in ALGEBRA if e.function not in program.functions()]
    if not extra:
        return program
    return assemble_program(ds, list(program.body) + extra, program.principal)


# ---------------------------------------------------------------------------
# Sorts: an inductive value ('B') rides in a realizer's head, a coinductive
# one ('S') is its own realizer
# ---------------------------------------------------------------------------

class SortError(ValueError):
    """A variable, or the boolean branches of a delta, used at both sorts."""


def _sort(pred: DataPredicate | None) -> str:
    return "B" if pred is not None and pred.inductive else "S"


def _parts(u: Term | Formula, ds: DataSystem, signature: dict | None) -> list:
    """The immediate parts of a formula or term, each with the sort its
    position demands (None where it demands none)."""
    if isinstance(u, DataAtom):
        return [(u.term, _sort(ds.predicate(u.predicate)))]
    if isinstance(u, (EqAtom, And, Or, Imp)):
        return [(u.left, None), (u.right, None)]
    if isinstance(u, (Exists, Forall)):
        return [(u.body, None)]
    if isinstance(u, Con):
        types = ds.types_of(u.name)
        if len(types) == 1:
            return [(a, _sort(p)) for a, p in zip(u.args, types[0].argument_predicates)]
    elif u.name in (pi_name(1), pi_name(2)):
        return [(a, "S") for a in u.args]
    elif u.name == DELTA:
        return [(u.args[0], "B")] + [(a, None) for a in u.args[1:]]
    elif signature and u.name in signature:
        return list(zip(u.args, signature[u.name].arg_sorts))
    return [(a, None) for a in u.args]


def var_sorts(x: Term | Formula, ds: DataSystem,
              signature: dict | None) -> dict[str, str]:
    """The sorts of the free variables of a term or formula, from the
    positions they occur at: arguments of a constructor with one declared
    type, the stream a projection reads, a delta's selector, the arguments
    of a function `signature` types (it maps a name to a record with
    `arg_sorts` and `result_sort`, or is None) and data atoms.  A variable
    at no such position is left out; callers take it to be 'S'.  A
    quantifier's variable is sorted from its own body, apart from any other
    variable of that name: it is left out too, and `var_sorts(q.body, ...)`
    gives its sort.  The walk is preorder, left to right, so the first
    conflicting variable is the one reported."""
    sorts: dict[str, str] = {}
    # a bound name -> the sorts of its enclosing binders, innermost last
    scopes: dict[str, list[dict[str, str]]] = {}
    stack: list = [(x, None)]
    while stack:
        u, s = stack.pop()
        if isinstance(u, str):
            scopes[u].pop()  # the end of a binder's scope
        elif isinstance(u, Var):
            table = scopes[u.name][-1] if scopes.get(u.name) else sorts
            if s and table.setdefault(u.name, s) != s:
                raise SortError(f"variable '{u.name}' used at both sorts in '{x}'")
        else:
            if isinstance(u, (Exists, Forall)):
                scopes.setdefault(u.var, []).append({})
                stack.append((u.var, None))
            stack.extend(reversed(_parts(u, ds, signature)))
    return sorts


def term_sort(t: Term, var_sorts: dict[str, str], ds: DataSystem,
              signature: dict | None) -> str:
    """The sort of a term: a variable's from `var_sorts` ('S' if absent), a
    constructor's from its first declared type, 'B' for a stream's head and
    'S' for its tail, a delta's from its boolean branches, which must agree,
    and a function's from `signature` ('S' if it does not type it)."""
    if isinstance(t, Var):
        return var_sorts.get(t.name, "S")
    if isinstance(t, Con):
        types = ds.types_of(t.name)
        return _sort(types[0].result_predicate if types else None)
    if t.name == DELTA:
        sorts = {term_sort(t.args[1 + i], var_sorts, ds, signature)
                 for i, c in enumerate(ds.vocabulary)
                 if any(ty.result_predicate.inductive for ty in ds.types_of(c.name))}
        if len(sorts) != 1:
            raise SortError(f"mixed branch sorts in '{t}'")
        return sorts.pop()
    if t.name == pi_name(1):
        return "B"
    if signature and t.name in signature:
        return signature[t.name].result_sort
    return "S"


# ---------------------------------------------------------------------------
# realizes
# ---------------------------------------------------------------------------

class RealizabilityJudgment(Record):
    __slots__ = ("program", "ds", "env", "eta", "realizer", "formula", "depth", "budget")

    def __init__(self, program: Program, ds: DataSystem, env: DiagramEnv | None,
                 eta: tuple[tuple[str, Term], ...], realizer: Term, formula: Formula,
                 depth: int, budget: int = DEFAULT_BUDGET):
        _set(self, "program", program)
        _set(self, "ds", ds)
        _set(self, "env", env)
        _set(self, "eta", eta)   # variable -> value term
        _set(self, "realizer", realizer)
        _set(self, "formula", formula)
        _set(self, "depth", depth)
        _set(self, "budget", budget)

    @staticmethod
    def of(program, ds, env, eta: dict[str, Term], realizer, formula, depth,
           budget=DEFAULT_BUDGET) -> "RealizabilityJudgment":
        return RealizabilityJudgment(program, ds, env, tuple(eta.items()),
                                     realizer, formula, depth, budget)


class RealizeResult(Record):
    __slots__ = ("status", "path", "detail")

    def __init__(self, status: str, path: tuple[str, ...] = (), detail: str = ""):
        _set(self, "status", status)   # holds-up-to-depth | fails | stalled
        _set(self, "path", path)
        _set(self, "detail", detail)

    @property
    def holds(self) -> bool:
        return self.status == "holds-up-to-depth"

    def __str__(self) -> str:
        if self.holds:
            return self.status
        return f"{self.status} at {show_path(self.path)}: {self.detail}"


HOLDS = RealizeResult("holds-up-to-depth")


def realizes(j: RealizabilityJudgment) -> RealizeResult:
    """Finite-depth realizability per the clause set: atoms compare values
    observationally, conjunction and existentials split the realizer,
    disjunction selects by the head bit.  One loop over a stack of
    (formula, realizer, eta, path) visits the atoms left to right and
    returns at the first that fails or stalls."""
    if classify_formula(j.formula) is not PolarityClass.STRONGLY_POSITIVE:
        raise ValueError("realizability is defined for strongly-positive formulas only")
    program = with_algebra(j.program, j.ds)
    session = Session(program, j.ds, j.env)
    var_sorts(j.formula, j.ds, None)  # raises on a variable used at both sorts
    stack = [(j.formula, j.realizer, dict(j.eta), ())]
    while stack:
        f, sigma, eta, path = stack.pop()
        head = Fun(pi_name(1), (sigma,))
        if isinstance(f, And):
            stack.append((f.right, split_term(sigma, 1), eta, path + ("and-right",)))
            stack.append((f.left, split_term(sigma, 0), eta, path + ("and-left",)))
        elif isinstance(f, Or):
            bit, constant = _head(session, head, j.budget)
            if not constant:
                return RealizeResult("stalled", path, "selector head")
            if bit not in ("0", "1"):
                return RealizeResult("fails", path, f"selector head is '{bit}'")
            side, tag = (f.left, "or-left") if bit == "0" else (f.right, "or-right")
            stack.append((side, Fun(pi_name(2), (sigma,)), eta, path + (tag,)))
        elif isinstance(f, Exists):
            witness_value = split_term(sigma, 0)
            if var_sorts(f.body, j.ds, None).get(f.var) == "B":
                witness_value = Fun(pi_name(1), (witness_value,))
            stack.append((f.body, split_term(sigma, 1), {**eta, f.var: witness_value},
                          path + ("exists",)))
        elif isinstance(f, DataAtom):
            pred = j.ds.predicate(f.predicate)
            tv = substitute(f.term, eta)
            if pred is not None and pred.inductive:
                (b, bc), (h, hc) = _head(session, tv, j.budget), _head(session, head, j.budget)
                if not (bc and hc):
                    return RealizeResult("stalled", path, f"observing {f}")
                if b != h:
                    return RealizeResult("fails", path, f"head encodes {h}, value is {b}")
            else:
                r = derives_omega(program, None, sigma, tv, j.depth, j.budget, session=session)
                if not r.equal:
                    return _unequal(r, path, f"{f}: {r}")
        else:
            lv, rv = substitute(f.left, eta), substitute(f.right, eta)
            bl, lc = _head(session, lv, j.budget)
            if bl is None:
                return RealizeResult("stalled", path, f"observing {f.left}")
            if bl in ("0", "1"):
                br, rc = _head(session, rv, j.budget)
                hs, hc = _head(session, head, j.budget)
                if not (lc and rc and hc):
                    return RealizeResult("stalled", path, f"observing {f}")
                if not (bl == br == hs):
                    return RealizeResult("fails", path, f"{f}: values {bl}, {br}, head {hs}")
                continue
            r = derives_omega(program, None, lv, rv, j.depth, j.budget, session=session)
            if not r.equal:
                return _unequal(r, path, f"{f}: {r}")
            r = derives_omega(program, None, sigma, lv, j.depth, j.budget, session=session)
            if not r.equal:
                return _unequal(r, path, f"realizer != value: {r}")
    return HOLDS


def _head(session: Session, t: Term, budget: int) -> tuple[str | None, bool]:
    """A value's head constructor and whether it is a constant (a boolean
    value); (None, False) on stall."""
    a = session.observe(t, 1, budget)
    return (a.constructor, not a.children) if isinstance(a, ApproxNode) else (None, False)


def _unequal(r: OmegaResult, path: tuple[str, ...], detail: str) -> RealizeResult:
    return RealizeResult("stalled" if r.status == "stalled" else "fails", path, detail)
