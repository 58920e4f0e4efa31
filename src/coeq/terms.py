"""First-order terms: variables, constructor applications, function applications.

Terms are immutable trees.  The three syntactic classes (data / base /
program) are decided structurally: data-terms contain only constructors,
base-terms add variables, program-terms add defined function symbols.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator


class Term:
    __slots__ = ()

    @property
    def args(self) -> tuple["Term", ...]:
        return ()


@dataclass(frozen=True, slots=True)
class Var(Term):
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class Con(Term):
    name: str
    args: tuple[Term, ...] = ()

    def __str__(self) -> str:
        if not self.args:
            return self.name
        return "%s(%s)" % (self.name, ", ".join(str(a) for a in self.args))


@dataclass(frozen=True, slots=True)
class Fun(Term):
    name: str
    args: tuple[Term, ...] = ()

    def __str__(self) -> str:
        if not self.args:
            return self.name
        return "%s(%s)" % (self.name, ", ".join(str(a) for a in self.args))


Subst = dict[str, Term]


def subterms(t: Term) -> Iterator[Term]:
    """All subterms of t, prefix order, t itself first."""
    stack = [t]
    while stack:
        u = stack.pop()
        yield u
        stack.extend(reversed(u.args))


def variables(t: Term) -> set[str]:
    return {u.name for u in subterms(t) if isinstance(u, Var)}


def has_fun(t: Term) -> bool:
    return any(isinstance(u, Fun) for u in subterms(t))


def substitute(t: Term, s: Subst) -> Term:
    """Apply a substitution.  Variables not in s are left alone."""
    if isinstance(t, Var):
        return s.get(t.name, t)
    if not t.args:
        return t
    new_args = tuple(substitute(a, s) for a in t.args)
    if new_args == t.args:
        return t
    return type(t)(t.name, new_args)


def compose(outer: Subst, inner: Subst) -> Subst:
    """Substitution composition: apply inner first, then outer."""
    out = {v: substitute(t, outer) for v, t in inner.items()}
    for v, t in outer.items():
        out.setdefault(v, t)
    return out


def fresh_name(base: str, avoid: set[str]) -> str:
    """`base`, primed as often as it takes to avoid `avoid`."""
    cand = base
    while cand in avoid:
        cand += "'"
    return cand


def rename_apart(t: Term, taken: set[str]) -> tuple[Term, Subst]:
    """Rename t's variables away from `taken`; returns (renamed, renaming)."""
    ren: Subst = {}
    for v in sorted(variables(t)):
        if v in taken:
            fresh = fresh_name(v, taken)
            ren[v] = Var(fresh)
            taken.add(fresh)
    return substitute(t, ren), ren

