"""Equational programs: pattern equations, definiendum compatibility via
unification, and the standard destructor/discriminator equations every
program carries.
"""
from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from itertools import chain, combinations

from .system import DataSystem, ValidationReport, Violation
from .terms import (Con, Fun, Subst, Term, Var, compose, has_fun, rename_apart,
                    substitute, subterms, variables)

DELTA = "delta"


def pi_name(i: int) -> str:
    return f"pi{i}"


def is_pi(name: str) -> bool:
    return name.startswith("pi") and name[2:].isdigit()


def reserved_function(name: str) -> bool:
    return name == DELTA or is_pi(name)


@dataclass(frozen=True)
class Equation:
    function: str
    patterns: tuple[Term, ...]
    rhs: Term

    @property
    def definiendum(self) -> Term:
        return Fun(self.function, self.patterns)

    def __str__(self) -> str:
        return f"{self.definiendum} = {self.rhs}"


@dataclass(frozen=True)
class Program:
    body: tuple[Equation, ...]
    principal: str
    arity: int

    def equations_of(self, fn: str) -> list[Equation]:
        return [e for e in self.body if e.function == fn]

    def functions(self) -> list[str]:
        out: list[str] = []
        for e in self.body:
            if e.function not in out:
                out.append(e.function)
        return out

    def user_functions(self) -> list[str]:
        return [f for f in self.functions() if not reserved_function(f)]


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


@dataclass(frozen=True)
class Compatibility:
    compatible: bool
    witness: Subst | None = None


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


def standard_functions(ds: DataSystem) -> list[Equation]:
    """Destructor and discriminator equations for the vocabulary.

    With m the maximal arity and constructors c_1..c_k (declaration order):
      pi_i(c(x_1..x_r)) = x_i            for i <= r
      pi_i(c(x_1..x_r)) = c(x_1..x_r)    for r < i <= m
      delta(c_i(y_1..y_r), x_1..x_k) = x_i
    """
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
    return eqs


@dataclass(frozen=True)
class DeepDestructor:
    """A composition of destructors; the empty path is the identity."""
    path: tuple[int, ...]

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


def _missing_standard(ds: DataSystem, body: Iterable[Equation]) -> list[Equation]:
    present = set(body)
    return [e for e in standard_functions(ds) if e not in present]


def assemble_program(ds: DataSystem, equations: list[Equation], principal: str,
                     arity: int | None = None) -> Program:
    """Build a program, adding the standard equations if absent."""
    body = list(equations) + _missing_standard(ds, equations)
    if arity is None:
        own = [e for e in body if e.function == principal]
        arity = len(own[0].patterns) if own else 0
    return Program(tuple(body), principal, arity)


def _is_base_term(t: Term) -> bool:
    return not has_fun(t)


def validate_program(p: Program, ds: DataSystem) -> ValidationReport:
    out: list[Violation] = []
    arities: dict[str, int] = {}
    for e in p.body:
        where = f"equation '{e}'"
        known = arities.setdefault(e.function, len(e.patterns))
        if known != len(e.patterns):
            out.append(Violation("arity-mismatch", f"{where}: '{e.function}' used with {len(e.patterns)} and {known} arguments"))
        seen_vars: list[str] = []
        for pat in e.patterns:
            if not _is_base_term(pat):
                out.append(Violation("non-base-pattern", f"{where}: pattern '{pat}' contains a function symbol"))
            for u in subterms(pat):
                if isinstance(u, Var):
                    if u.name in seen_vars:
                        out.append(Violation("non-linear", f"{where}: variable '{u.name}' repeated in definiendum"))
                    seen_vars.append(u.name)
        for v in sorted(variables(e.rhs)):
            if v not in seen_vars:
                out.append(Violation("unbound-variable", f"{where}: rhs variable '{v}' not bound by the patterns"))
        for u in chain(subterms(e.definiendum), subterms(e.rhs)):
            if isinstance(u, Con):
                c = ds.constructor(u.name)
                if c is None:
                    out.append(Violation("unknown-constructor", f"{where}: unknown constructor '{u.name}'"))
                elif c.arity != len(u.args):
                    out.append(Violation("constructor-arity", f"{where}: '{u.name}' has arity {c.arity}, used with {len(u.args)}"))
    for e in p.body:
        for u in subterms(e.rhs):
            if isinstance(u, Fun) and u.name not in arities:
                out.append(Violation("unknown-function", f"equation '{e}': unknown function '{u.name}'"))
            if isinstance(u, Fun) and u.name in arities and arities[u.name] != len(u.args):
                out.append(Violation("arity-mismatch", f"equation '{e}': '{u.name}' used with {len(u.args)} arguments, defined with {arities[u.name]}"))
    # Pairwise compatibility within each function symbol; two distinct
    # standard equations are compatible by construction.
    by_fn: dict[str, list[Equation]] = {}
    for e in p.body:
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
    # Standard functions must be present verbatim.
    for e in _missing_standard(ds, p.body):
        out.append(Violation("missing-standard", f"standard equation '{e}' missing"))
    if p.principal not in arities:
        out.append(Violation("no-principal", f"principal function '{p.principal}' has no equations"))
    elif arities.get(p.principal) != p.arity:
        out.append(Violation("principal-arity", f"principal '{p.principal}' arity {arities.get(p.principal)} != declared {p.arity}"))
    return ValidationReport(tuple(out))
