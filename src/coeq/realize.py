"""Realizer streams: the even/odd split algebra, finite-depth
realizability checking for strongly-positive formulas, and the symbolic
realizers `extract` builds before it writes them as terms.

A realizer is a stream value; evidence for a compound formula is packed
into one stream by interleaving.  With sigma_0 = even(sigma) and
sigma_1 = even(odd(sigma)): a conjunction's conjuncts are realized by
sigma_0 and sigma_1; a disjunction is realized by head-bit selection with
the tail realizing the chosen disjunct; an existential realizer carries
the witness value in sigma_0 and body evidence in sigma_1.  Boolean
values ride in stream heads.
"""
from __future__ import annotations

import itertools

from .evaluation import (DEFAULT_BUDGET, ApproxNode, DiagramEnv,
                         OmegaResult, Session, derives_omega)
from .formulas import (And, DataAtom, Derivation, EqAtom, Exists, Forall, Formula, Imp,
                       Or, PolarityClass, classify_formula, show_path)
from .program import DELTA, Equation, Program, assemble_program, pi_name
from .substitution import _scopes
from .system import DataPredicate, DataSystem
from .terms import (Con, Error, Fun, Interned, Record, Term, Var, _intern, _run, _set,
                    substitute, variables)

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


def check_algebra(program: Program) -> None:
    """A ValueError if the program defines a function of the split algebra
    by other equations than the algebra's."""
    for a in ALGEBRA:
        own = [e for e in program.body if e.function == a.function]
        if own and own != [a]:
            raise ValueError(f"the program defines '{a.function}' other than "
                             f"the split algebra does")


def with_algebra(program: Program, ds: DataSystem) -> Program:
    """Extend a program with the split algebra's equations for the
    functions it does not define (idempotent).  A ValueError if it defines
    one of them otherwise (`check_algebra`)."""
    check_algebra(program)
    extra = [e for e in ALGEBRA if e.function not in program.functions()]
    if not extra:
        return program
    return assemble_program(ds, list(program.body) + extra, program.principal)


# ---------------------------------------------------------------------------
# Sorts: an inductive value ('B') rides in a realizer's head, a coinductive
# one ('S') is its own realizer
# ---------------------------------------------------------------------------

class SortError(Error):
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
        return list(zip(u.args, signature[u.name]))
    return [(a, None) for a in u.args]


def var_sorts(x: Term | Formula | tuple[Formula, ...], ds: DataSystem,
              signature: dict | None) -> dict[str, str]:
    """The sorts of the free variables of a term or formula, or of a tuple
    of formulas sorted together (a judgment: one sort per variable across
    all of them), from the positions they occur at: arguments of a
    constructor with one declared type, the stream a projection reads, a
    delta's selector, the arguments of a function `signature` types (it
    maps a name to its argument sorts, or is None) and data atoms.  A
    variable at no such position is left out; callers take it to be 'S'.
    A quantifier's variable is sorted from its own body, apart from any
    other variable of that name: it is left out too, and
    `var_sorts(q.body, ...)` gives its sort.  The walk is preorder, left
    to right, so the first conflicting variable is the one reported, with
    the term or formula of the walk where it conflicts."""
    sorts: dict[str, str] = {}
    # a bound name -> the sorts of its enclosing binders, innermost last
    scopes: dict[str, list[dict[str, str]]] = {}
    for root in x if isinstance(x, tuple) else (x,):
        stack: list = [(root, None)]
        while stack:
            u, s = stack.pop()
            if isinstance(u, str):
                scopes[u].pop()  # the end of a binder's scope
            elif isinstance(u, Var):
                table = scopes[u.name][-1] if scopes.get(u.name) else sorts
                if s and table.setdefault(u.name, s) != s:
                    raise SortError(f"variable '{u.name}' used at both sorts in '{root}'")
            else:
                if isinstance(u, (Exists, Forall)):
                    scopes.setdefault(u.var, []).append({})
                    stack.append((u.var, None))
                stack.extend(reversed(_parts(u, ds, signature)))
    return sorts


def term_sort(t: Term, var_sorts: dict[str, str], ds: DataSystem) -> str:
    """The sort of a term: a variable's from `var_sorts` ('S' if absent), a
    constructor's from its first declared type, 'B' for a stream's head, a
    delta's from its boolean branches, which must agree (a loop sorts them
    before their delta: any depth), and 'S' for any other function."""
    sorts: list[str] = []   # the sorts found, in postorder
    stack: list = [(t, None)]   # a term to sort, or a delta and its number of branches
    while stack:
        u, n = stack.pop()
        if n is not None:
            found = set(sorts[len(sorts) - n:])
            if len(found) != 1:
                raise SortError(f"mixed branch sorts in '{u}'")
            sorts[len(sorts) - n:] = found
        elif isinstance(u, Var):
            sorts.append(var_sorts.get(u.name, "S"))
        elif isinstance(u, Con):
            types = ds.types_of(u.name)
            sorts.append(_sort(types[0].result_predicate if types else None))
        elif u.name == DELTA:
            own = [u.args[1 + i] for i, c in enumerate(ds.vocabulary)
                   if any(ty.result_predicate.inductive for ty in ds.types_of(c.name))]
            stack += [(u, len(own))] + [(b, None) for b in reversed(own)]
        else:
            sorts.append("B" if u.name == pi_name(1) else "S")
    return sorts[0]


def _proof_only_sorts(d: Derivation, free: set[str], ds: DataSystem) -> dict[str, str]:
    """The variables, in no binder above and not in `free`, of the values the
    extractor reads (an ex-intro's witnesses, sorted in its premise; a refl's,
    an ex-refl's or a coinduction's term), each with the sort its positions give."""
    sorts: dict[str, str] = {}
    todo = [(d, frozenset(free))]   # a node, and the names free or bound above it
    while todo:
        node, known = todo.pop()
        if node.rule in ("ex-intro", "refl", "coinduction", "ex-refl"):
            f = node.premises[0].conclusion if node.rule == "ex-intro" else node.conclusion
            ts = node.witnesses() if node.rule == "ex-intro" \
                else (f.left,) if node.rule == "refl" \
                else (f.body.right,) if node.rule == "ex-refl" else (f.term,)
            names = set().union(*map(variables, ts)) - known - sorts.keys()
            if names:
                at = var_sorts(f, ds, None)
                sorts.update((n, at.get(n, "S")) for n in names)
        scopes = _scopes(node)
        for i, p in enumerate(node.premises):   # a scope that binds no new name keeps `known`
            xs = scopes.get(i, ((), ()))[1]
            todo.append((p, known if known.issuperset(xs) else known.union(xs)))
    return sorts


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


# ---------------------------------------------------------------------------
# Symbolic realizers, as the extractor builds them: a realizer is a term, or
# a Pair, ConsR or Case over realizers
# ---------------------------------------------------------------------------

class SymR(Interned):
    __slots__ = ()


class Pair(SymR):
    __slots__ = ("head", "rest")

    def __new__(cls, head: Term | SymR, rest: Term | SymR):
        return _intern((cls, head, rest))


class ConsR(SymR):
    __slots__ = ("head_term", "tail")

    def __new__(cls, head_term: Term, tail: Term | SymR):
        return _intern((cls, head_term, tail))


class Case(SymR):
    """Discriminator dispatch on a boolean term: `left` where it is 0,
    `right` where it is 1."""
    __slots__ = ("bit", "left", "right")

    def __new__(cls, bit: Term, left: Term | SymR, right: Term | SymR):
        return _intern((cls, bit, left, right))


def _const_bit(t: Term) -> str | None:
    if isinstance(t, Con) and not t.args and t.name in ("0", "1"):
        return t.name
    return None


def _known(r: Term | SymR, bit: Term, value: str) -> Term | SymR:
    """r on the runs where `bit` is `value`: dispatches on it are resolved,
    each shared node once, on `_run`'s stack: any depth."""
    return _run(_resolve(r, bit, value, {}))


def _resolve(r: Term | SymR, bit: Term, value: str, memo: dict):   # run by _run
    if isinstance(r, Term) or r in memo:
        return memo.get(r, r)
    if isinstance(r, Case) and r.bit == bit:
        out = yield _resolve(r.left if value == "0" else r.right, bit, value, memo)
    elif isinstance(r, Case):
        out = Case(r.bit, (yield _resolve(r.left, bit, value, memo)),
                   (yield _resolve(r.right, bit, value, memo)))
    elif isinstance(r, Pair):
        out = Pair((yield _resolve(r.head, bit, value, memo)),
                   (yield _resolve(r.rest, bit, value, memo)))
    else:
        out = ConsR(r.head_term, (yield _resolve(r.tail, bit, value, memo)))
    memo[r] = out
    return out


def case(bit: Term, left: Term | SymR, right: Term | SymR) -> Term | SymR:
    const = _const_bit(bit)
    if const is not None:
        return left if const == "0" else right
    left, right = _known(left, bit, "0"), _known(right, bit, "1")
    return left if left == right else Case(bit, left, right)


def _delta(bit: Term, left: Term, right: Term) -> Term:
    return Fun(DELTA, (bit, left, right, left))


def mat(r: Term | SymR) -> Term:
    return r if isinstance(r, Term) else _run(_mat(r))


def _mat(r: Term | SymR):   # run by _run, so a realizer of any depth materializes
    if isinstance(r, Term):
        return r
    if isinstance(r, ConsR):
        return Con("cons", (r.head_term, (yield _mat(r.tail))))
    if isinstance(r, Pair):
        return merge_term((yield _mat(r.head)), (yield _mat(r.rest)))
    return _delta(r.bit, (yield _mat(r.left)), (yield _mat(r.right)))


def _below(r: Term | SymR, part, join=Case):
    """part(x) for each realizer x below r's dispatches, with each dispatch
    rebuilt over its branches' parts by join(bit, left, right), or left
    alone where both parts are one."""
    return _run(_walk(r, part, join, {})) if isinstance(r, Case) else part(r)


def _walk(r: Term | SymR, part, join, memo: dict):   # run by _run; a shared dispatch once
    if not isinstance(r, Case):
        return part(r)
    if r not in memo:
        left = yield _walk(r.left, part, join, memo)
        right = yield _walk(r.right, part, join, memo)
        memo[r] = left if left == right else join(r.bit, left, right)
    return memo[r]


def even_r(r: Term | SymR) -> Term | SymR:
    return _below(r, lambda x: x.head if isinstance(x, Pair) else even_term(mat(x)))


def odd_r(r: Term | SymR) -> Term | SymR:
    return _below(r, lambda x: x.rest if isinstance(x, Pair) else odd_term(mat(x)))


def sigma1(r: Term | SymR) -> Term | SymR:
    return even_r(odd_r(r))


def head_term_of(r: Term | SymR) -> Term:
    return _below(r, lambda x: x.head_term if isinstance(x, ConsR) else _pi(1, mat(x)),
                  _delta)


def tail_r(r: Term | SymR) -> Term | SymR:
    return _below(r, lambda x: x.tail if isinstance(x, ConsR) else _pi(2, mat(x)))


# -- runner parameters: the skeleton of a realizer -------------------------------

def _alternatives(rs: list[Term | SymR]) -> list[Term | SymR]:
    """The realizers below the dispatches of `rs`, left to right."""
    out, stack = [], rs[::-1]
    while stack:
        r = stack.pop()
        if isinstance(r, Case):
            stack += (r.right, r.left)
        else:
            out.append(r)
    return out


def _skeleton(rs: list[Term | SymR], names: itertools.count):   # run by _run
    """The Pair/ConsR structure that every alternative of `rs` has, with a
    parameter x<n> at each ConsR head and where they disagree, n drawn from
    `names` in preorder."""
    rs = _alternatives(rs)
    if all(isinstance(r, Pair) for r in rs):
        return Pair((yield _skeleton([r.head for r in rs], names)),
                    (yield _skeleton([r.rest for r in rs], names)))
    q = Var(f"x{next(names)}")
    if all(isinstance(r, ConsR) for r in rs):
        return ConsR(q, (yield _skeleton([r.tail for r in rs], names)))
    return q


def _project(r: Term | SymR, skel: Term | SymR, out: dict[str, Term]) -> dict[str, Term]:
    """The value of each parameter of `skel`, in preorder, when the
    realizer is r.  By the merge/even/odd laws the skeleton over these
    values is r again."""
    stack = [(r, skel)]
    while stack:
        r, skel = stack.pop()
        if isinstance(skel, Pair):
            stack += [(odd_r(r), skel.rest), (even_r(r), skel.head)]
        elif isinstance(skel, ConsR):
            out[skel.head_term.name] = head_term_of(r)
            stack.append((tail_r(r), skel.tail))
        else:
            out[skel.name] = mat(r)
    return out


def _drop(r: Term | SymR, n: int) -> Term | SymR:
    for _ in range(n):
        r = tail_r(r)
    return r


def _or_path(r: Term | SymR, phi: Formula,
             dynamic) -> tuple[tuple[str, ...], Term | SymR, Formula]:
    """The constant head bits by which r selects a disjunct of the
    disjunction tree phi, the rest of r, and the formula that rest
    realizes.  The path ends at a disjunct, at a position in `dynamic`, or
    at a head that is not a constant bit."""
    path: tuple[str, ...] = ()
    while isinstance(phi, Or) and path not in dynamic:
        bit = _const_bit(head_term_of(r))
        if bit is None:
            break
        path += (bit,)
        phi = phi.left if bit == "0" else phi.right
        r = tail_r(r)
    return path, r, phi
