"""Equational programs: pattern equations, definiendum compatibility via
unification, and the standard destructor/discriminator equations that the
data system supplies to every program.  A program's body holds only its own
equations; validation, evaluation and proof checking add the standard ones.
"""
from __future__ import annotations

from itertools import chain, combinations

from .system import DataSystem, ValidationReport, Violation
from .terms import (Con, Fun, Record, Subst, Term, Var, _set, compose, has_fun,
                    rename_apart, substitute, subterms, variables)

DELTA = "delta"


def pi_name(i: int) -> str:
    return f"pi{i}"


def is_pi(name: str) -> bool:
    return name.startswith("pi") and name[2:].isdigit()


def reserved_function(name: str) -> bool:
    return name == DELTA or is_pi(name)


class Equation(Record):
    __slots__ = ("function", "patterns", "rhs")

    def __init__(self, function: str, patterns: tuple[Term, ...], rhs: Term):
        _set(self, "function", function)
        _set(self, "patterns", patterns)
        _set(self, "rhs", rhs)

    @property
    def definiendum(self) -> Term:
        return Fun(self.function, self.patterns)

    def __str__(self) -> str:
        return f"{self.definiendum} = {self.rhs}"


class Program(Record):
    # validate_program caches its reports in the instance's __dict__
    __slots__ = ("body", "principal", "arity", "__dict__")

    def __init__(self, body: tuple[Equation, ...], principal: str, arity: int):
        _set(self, "body", body)
        _set(self, "principal", principal)
        _set(self, "arity", arity)

    def equations_of(self, fn: str) -> list[Equation]:
        return [e for e in self.body if e.function == fn]

    def functions(self) -> list[str]:
        return list(dict.fromkeys(e.function for e in self.body))


def unify(t1: Term, t2: Term) -> Subst | None:
    """Most general unifier of two base-terms, with occurs-check.

    Callers unifying definiendums must rename the terms apart first.
    Returns an idempotent substitution, or None if no unifier exists.
    """
    subst: Subst = {}
    work = [(t1, t2)]
    while work:
        a, b = work.pop()
        a = substitute(a, subst)
        b = substitute(b, subst)
        if a == b:
            continue
        if isinstance(a, Var):
            if a.name in variables(b):
                return None  # occurs-check
            subst = compose({a.name: b}, subst)
            subst[a.name] = b
        elif isinstance(b, Var):
            work.append((b, a))
        else:
            if type(a) is not type(b) or a.name != b.name or len(a.args) != len(b.args):
                return None
            work.extend(zip(a.args, b.args))
    return subst


class Compatibility(Record):
    __slots__ = ("compatible", "witness")

    def __init__(self, compatible: bool, witness: Subst | None = None):
        _set(self, "compatible", compatible)
        _set(self, "witness", witness)


def check_compatibility(e1: Equation, e2: Equation) -> Compatibility:
    """Two equations are compatible when their definiendums cannot be
    unified.  Equations of distinct functions are always compatible."""
    if e1.function != e2.function:
        return Compatibility(True)
    taken = set(variables(e1.definiendum))
    d2, _ = rename_apart(e2.definiendum, taken)
    w = unify(e1.definiendum, d2)
    if w is None:
        return Compatibility(True)
    return Compatibility(False, w)


def standard_functions(ds: DataSystem) -> tuple[Equation, ...]:
    """Destructor and discriminator equations for the vocabulary.  A data
    system is immutable, so they are built once and kept on it.

    With m the maximal arity and constructors c_1..c_k (declaration order):
      pi_i(c(x_1..x_r)) = x_i            for i <= r
      pi_i(c(x_1..x_r)) = c(x_1..x_r)    for r < i <= m
      delta(c_i(y_1..y_r), x_1..x_k) = x_i
    """
    hit = ds.__dict__.get("_standard")
    if hit is not None:
        return hit
    m = ds.max_arity
    k = len(ds.vocabulary)
    eqs: list[Equation] = []
    for c in ds.vocabulary:
        xs = tuple(Var(f"x{j + 1}") for j in range(c.arity))
        pat = Con(c.name, xs)
        for i in range(1, m + 1):
            rhs = xs[i - 1] if i <= c.arity else pat
            eqs.append(Equation(pi_name(i), (pat,), rhs))
    sel = tuple(Var(f"x{j + 1}") for j in range(k))
    for i, c in enumerate(ds.vocabulary):
        ys = tuple(Var(f"y{j + 1}") for j in range(c.arity))
        eqs.append(Equation(DELTA, (Con(c.name, ys),) + sel, sel[i]))
    hit = ds.__dict__["_standard"] = tuple(eqs)
    return hit


class DeepDestructor(Record):
    """A composition of destructors; the empty path is the identity."""
    __slots__ = ("path",)

    def __init__(self, path: tuple[int, ...]):
        _set(self, "path", path)

    def apply(self, t: Term) -> Term:
        for i in reversed(self.path):
            t = Fun(pi_name(i), (t,))
        return t

    def __str__(self) -> str:
        return "id" if not self.path else "∘".join(pi_name(i) for i in self.path)


def deep_destructor(path: list[int] | tuple[int, ...], ds: DataSystem | None = None) -> DeepDestructor:
    """The destructor context pi_{i1}(...pi_{ik}(x)) of a path i1..ik, each
    index within the system's arities; checked by
    tests/test_spec_examples.py::test_deep_destructor_two_steps_reaches_tail."""
    if ds is not None:
        m = ds.max_arity
        for i in path:
            if not (1 <= i <= m):
                raise ValueError(f"destructor index {i} outside 1..{m}")
    return DeepDestructor(tuple(path))


def assemble_program(ds: DataSystem, equations: list[Equation], principal: str) -> Program:
    """Build a program of its own equations.  The data system supplies the
    standard ones, so each that `equations` spells is dropped once (a
    second copy stays, and overlaps the supplied one)."""
    body = list(equations)
    for e in standard_functions(ds):
        if e in body:
            body.remove(e)
    own = [e for e in body if e.function == principal]
    return Program(tuple(body), principal, len(own[0].patterns) if own else 0)


def validate_program(p: Program, ds: DataSystem) -> ValidationReport:
    """The program's violations over `ds`.  A program is immutable, so its
    report is computed once per data system and kept on the program
    (keyed by the system's identity, which the entry keeps alive)."""
    reports = p.__dict__.setdefault("_reports", {})
    hit = reports.get(id(ds))
    if hit is None:
        hit = reports[id(ds)] = (ds, _validate(p, ds))
    return hit[1]


def _validate(p: Program, ds: DataSystem) -> ValidationReport:
    out: list[Violation] = []

    def bad(code: str, e: Equation, message: str) -> None:
        # The equation is printed only here: most programs have no violation.
        out.append(Violation(code, f"equation '{e}': {message}"))

    every = p.body + standard_functions(ds)
    arities: dict[str, int] = {}
    for e in every:
        if ds.constructor(e.function) is not None:
            bad("constructor-as-function", e, f"'{e.function}' is a constructor, not a function")
        known = arities.setdefault(e.function, len(e.patterns))
        if known != len(e.patterns):
            bad("arity-mismatch", e, f"'{e.function}' used with {len(e.patterns)} and {known} arguments")
        seen_vars: list[str] = []
        for pat in e.patterns:
            if has_fun(pat):
                bad("non-base-pattern", e, f"pattern '{pat}' contains a function symbol")
            for u in subterms(pat):
                if isinstance(u, Var):
                    if u.name in seen_vars:
                        bad("non-linear", e, f"variable '{u.name}' repeated in definiendum")
                    seen_vars.append(u.name)
        for v in sorted(variables(e.rhs)):
            if v not in seen_vars:
                bad("unbound-variable", e, f"rhs variable '{v}' not bound by the patterns")
        for u in chain(subterms(e.definiendum), subterms(e.rhs)):
            if isinstance(u, Con):
                c = ds.constructor(u.name)
                if c is None:
                    bad("unknown-constructor", e, f"unknown constructor '{u.name}'")
                elif c.arity != len(u.args):
                    bad("constructor-arity", e, f"'{u.name}' has arity {c.arity}, used with {len(u.args)}")
    for e in every:
        for u in subterms(e.rhs):
            if isinstance(u, Fun) and u.name not in arities:
                bad("unknown-function", e, f"unknown function '{u.name}'")
            if isinstance(u, Fun) and u.name in arities and arities[u.name] != len(u.args):
                bad("arity-mismatch", e, f"'{u.name}' used with {len(u.args)} arguments, defined with {arities[u.name]}")
    # Pairwise compatibility within each function symbol; two distinct
    # standard equations are compatible by construction.
    by_fn: dict[str, list[Equation]] = {}
    for e in every:
        by_fn.setdefault(e.function, []).append(e)
    standard = set(standard_functions(ds))
    for eqs in by_fn.values():
        for e1, e2 in combinations(eqs, 2):
            if e1 != e2 and e1 in standard and e2 in standard:
                continue
            comp = check_compatibility(e1, e2)
            if not comp.compatible:
                w = ", ".join(f"{v} -> {t}" for v, t in sorted(comp.witness.items()))
                out.append(Violation(
                    "overlap", f"equations '{e1}' and '{e2}' overlap; unifier {{{w}}}"))
    if p.principal not in arities:
        out.append(Violation("no-principal", f"principal function '{p.principal}' has no equations"))
    elif arities.get(p.principal) != p.arity:
        out.append(Violation("principal-arity", f"principal '{p.principal}' arity {arities.get(p.principal)} != declared {p.arity}"))
    return ValidationReport(tuple(out))
