"""Observation-driven evaluation.

A session joins a validated program, a data system, and a diagram
environment binding fresh nullary identifiers to regular coterms or to
generator programs.  `observe` unfolds a term to a depth-bounded
constructor tree; stalls (no matching equation, or a spent step budget)
are recorded as leaves, never raised.  `derives_omega` compares the head
constructors of two terms under every destructor path up to a depth,
which is the finite-depth reading of observational equivalence.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from . import kernel
from .kernel import CON, FUN, STALL_NOMATCH, VAR, WHNF
from .program import Program, validate_program
from .system import DataSystem, RegularCoterm
from .terms import Con, Fun, Term, Var

DEFAULT_BUDGET = 10_000
NO_MATCH = "no-matching-equation"
BUDGET_EXHAUSTED = "budget-exhausted"


@dataclass(frozen=True)
class GeneratorBinding:
    """v = f(w_1 ... w_k): the binding unfolds to a call of a program's
    principal function on other environment identifiers."""
    program: Program
    principal: str
    args: tuple[str, ...] = ()


@dataclass(frozen=True)
class DiagramEnv:
    bindings: tuple[tuple[str, RegularCoterm | GeneratorBinding], ...] = ()

    @staticmethod
    def of(mapping: dict[str, RegularCoterm | GeneratorBinding]) -> "DiagramEnv":
        return DiagramEnv(tuple(mapping.items()))

    def names(self) -> list[str]:
        return [n for n, _ in self.bindings]


@dataclass(frozen=True)
class StallReason:
    kind: str                 # NO_MATCH or BUDGET_EXHAUSTED
    steps: int | None = None  # budget that was exhausted

    def __str__(self) -> str:
        if self.kind == BUDGET_EXHAUSTED:
            return f"{self.kind}({self.steps})"
        return self.kind


class Approximation:
    __slots__ = ()


@dataclass(frozen=True)
class ApproxNode(Approximation):
    constructor: str
    children: tuple[Approximation, ...]
    depth: int


@dataclass(frozen=True)
class Cut(Approximation):
    depth: int


@dataclass(frozen=True)
class Stalled(Approximation):
    term: Term
    reason: StallReason
    depth: int


def restrict(a: Approximation, depth: int, at: int = 0) -> Approximation:
    """Truncate an approximation to a smaller depth.

    Mirrors the observation rule: nodes survive below the boundary, and a
    nullary constructor survives *at* the boundary (it costs no depth).
    """
    if depth <= 0:
        return Cut(0)
    if isinstance(a, ApproxNode):
        if at < depth or not a.children:
            return ApproxNode(a.constructor,
                              tuple(restrict(c, depth, at + 1) for c in a.children),
                              a.depth)
        return Cut(at)
    if at >= depth:
        return Cut(at)
    return a


def first_stall(a: Approximation, path: tuple[int, ...] = ()) -> tuple[tuple[int, ...], Stalled] | None:
    """Shallowest, leftmost stalled leaf, with its destructor path."""
    queue: deque[tuple[tuple[int, ...], Approximation]] = deque([(path, a)])
    while queue:
        p, node = queue.popleft()
        if isinstance(node, Stalled):
            return p, node
        if isinstance(node, ApproxNode):
            for i, c in enumerate(node.children):
                queue.append((p + (i + 1,), c))
    return None


class EvalError(Exception):
    pass


class Session:
    """Program + environment + memo table.  Single-threaded; programs,
    environments and systems themselves are immutable and shareable."""

    def __init__(self, program: Program, ds: DataSystem,
                 env: DiagramEnv | None = None):
        rep = validate_program(program, ds)
        if not rep.ok:
            raise EvalError(f"invalid program: {rep}")
        self.program = program
        self.ds = ds
        self.env = env or DiagramEnv()
        self.k = kernel.KernelSession()
        self._con_sids: dict[str, int] = {}
        self._fun_names: set[str] = set()
        self._env_names: set[str] = set()
        for c in ds.vocabulary:
            self._con_sids[c.name] = self.k.sym(c.name, CON, c.arity)
        self._equation_strings: set[str] = set()
        self._load_program(program)
        self._load_env(self.env)

    # -- loading -----------------------------------------------------------

    def _load_program(self, program: Program) -> None:
        arities: dict[str, int] = {}
        for e in program.body:
            arities.setdefault(e.function, len(e.patterns))
        for fn, ar in arities.items():
            if fn in self._env_names:
                raise EvalError(f"name '{fn}' is both a binding and a function")
            self.k.sym(fn, FUN, ar)
            self._fun_names.add(fn)
        for e in program.body:
            key = str(e)
            if key in self._equation_strings:
                continue
            self._equation_strings.add(key)
            fn_sid = self.k.sym(e.function, FUN, len(e.patterns))
            pats = tuple(self.encode(p) for p in e.patterns)
            rhs = self.encode(e.rhs)
            self.k.add_rule(fn_sid, pats, rhs)

    def _node_name(self, binding: str, index: int) -> str:
        return f"{binding}@{index}"

    def _load_env(self, env: DiagramEnv) -> None:
        names = env.names()
        if len(set(names)) != len(names):
            raise EvalError("duplicate environment binding")
        for name, _ in env.bindings:
            if name in self._fun_names or name in self._con_sids:
                raise EvalError(
                    f"binding '{name}' collides with a function or constructor")
        for name, value in env.bindings:
            if isinstance(value, GeneratorBinding):
                self._load_program(value.program)
        for name, value in env.bindings:
            sid = self.k.sym(name, FUN, 0)
            self._env_names.add(name)
            if isinstance(value, RegularCoterm):
                rep = value.validate(self.ds)
                if not rep.ok:
                    raise EvalError(f"binding '{name}': {rep}")
                for i, node in enumerate(value.nodes):
                    kids = []
                    for ch in node.children:
                        if isinstance(ch, int):
                            kid = self.k.sym(self._node_name(name, ch), FUN, 0)
                        elif ch in names:
                            kid = self.k.sym(ch, FUN, 0)
                        else:
                            raise EvalError(f"coterm '{name}' uses unknown binding '{ch}'")
                        kids.append(self.k.mk(FUN, kid, ()))
                    layer = self.k.mk(CON, self._con_sids[node.constructor], tuple(kids))
                    node_sid = self.k.sym(self._node_name(name, i), FUN, 0)
                    self.k.set_env(node_sid, layer)
                    if i == value.entry:
                        self.k.set_env(sid, layer)
            else:
                call = self.k.mk(
                    FUN, self.k.sym(value.principal, FUN, len(value.args)),
                    tuple(self.k.mk(FUN, self.k.sym(a, FUN, 0), ()) for a in value.args))
                self.k.set_env(sid, call)
        for name, value in env.bindings:
            if isinstance(value, GeneratorBinding):
                for a in value.args:
                    if a not in self._env_names:
                        raise EvalError(f"generator '{name}' uses unknown binding '{a}'")

    # -- term translation ---------------------------------------------------

    def encode(self, t: Term) -> int:
        if isinstance(t, Var):
            return self.k.var(t.name)
        args = tuple(self.encode(a) for a in t.args)
        if isinstance(t, Con):
            if t.name not in self._con_sids:
                raise EvalError(f"unknown constructor '{t.name}'")
            return self.k.mk(CON, self._con_sids[t.name], args)
        return self.k.mk(FUN, self.k.sym(t.name, FUN, len(t.args)), args)

    def decode(self, tid: int) -> Term:
        """Interned term back to a tree, iteratively; subterms deeper than
        64 print as the variable '...' (stalled terms can be huge)."""
        k = self.k

        def build(t: int, d: int) -> Term:
            stack: list[tuple[int, int, list[Term], int]] = []
            kind = k.t_kind[t]
            if d <= 0 and k.t_args[t]:
                return Var("...")
            stack.append((t, d, [], 0))
            result: Term | None = None
            while stack:
                cur, dd, acc, idx = stack.pop()
                if result is not None:
                    acc.append(result)
                    result = None
                args = k.t_args[cur]
                if idx < len(args):
                    stack.append((cur, dd, acc, idx + 1))
                    child = args[idx]
                    if dd <= 1 and k.t_args[child]:
                        result = Var("...")
                    else:
                        stack.append((child, dd - 1, [], 0))
                    continue
                kind = k.t_kind[cur]
                name = k.sym_names[k.t_sym[cur]]
                if kind == VAR:
                    result = Var(name)
                elif kind == CON:
                    result = Con(name, tuple(acc))
                else:
                    result = Fun(name, tuple(acc))
            assert result is not None
            return result

        return build(tid, 64)

    # -- observation ---------------------------------------------------------

    def _obs(self, tid: int, depth: int, budget: int, at: int) -> Approximation:
        status, out, _steps = self.k.head_normalize(tid, budget)
        if status != WHNF:
            if at >= depth:
                return Cut(at)
            if status == STALL_NOMATCH:
                return Stalled(self.decode(out), StallReason(NO_MATCH), at)
            return Stalled(self.decode(out), StallReason(BUDGET_EXHAUSTED, budget), at)
        args = self.k.t_args[out]
        name = self.k.sym_names[self.k.t_sym[out]]
        if not args:
            return ApproxNode(name, (), at)
        if at >= depth:
            return Cut(at)
        children = tuple(self._obs(a, depth, budget, at + 1) for a in args)
        return ApproxNode(name, children, at)

    def observe(self, t: Term, depth: int, budget: int = DEFAULT_BUDGET) -> Approximation:
        """Depth accounting: a constructor node of arity >= 1 costs one
        unit of depth, a nullary constructor costs none, so a stream
        observed to depth d shows d elements.  Depth 0 evaluates nothing."""
        if depth <= 0:
            return Cut(0)
        return self._obs(self.encode(t), depth, budget, 0)


# -- the three public operations ---------------------------------------------

def observe(program: Program, env: DiagramEnv | None, t: Term, depth: int,
            budget: int = DEFAULT_BUDGET, session: Session | None = None,
            ds: DataSystem | None = None) -> Approximation:
    """Depth-bounded unfolding of t under the program and environment."""
    if session is None:
        if ds is None:
            raise ValueError("observe needs either a session or a data system")
        session = Session(program, ds, env)
    return session.observe(t, depth, budget)


@dataclass(frozen=True)
class OmegaResult:
    status: str                    # "equal-up-to-depth" | "differs" | "stalled"
    path: tuple[int, ...] = ()
    reason: StallReason | None = None

    @property
    def equal(self) -> bool:
        return self.status == "equal-up-to-depth"

    def __str__(self) -> str:
        if self.status == "equal-up-to-depth":
            return self.status
        detail = list(self.path)
        if self.status == "differs":
            return f"differs(path {detail})"
        return f"stalled(path {detail}, {self.reason})"


EQUAL = OmegaResult("equal-up-to-depth")


def _diff(a: Approximation, b: Approximation) -> OmegaResult:
    queue: deque[tuple[tuple[int, ...], Approximation, Approximation]] = deque([((), a, b)])
    while queue:
        path, x, y = queue.popleft()
        if isinstance(x, Stalled) or isinstance(y, Stalled):
            reason = x.reason if isinstance(x, Stalled) else y.reason
            return OmegaResult("stalled", path, reason)
        if isinstance(x, Cut) or isinstance(y, Cut):
            continue
        assert isinstance(x, ApproxNode) and isinstance(y, ApproxNode)
        if x.constructor != y.constructor:
            return OmegaResult("differs", path)
        for i, (cx, cy) in enumerate(zip(x.children, y.children)):
            queue.append((path + (i + 1,), cx, cy))
    return EQUAL


def derives_omega(program: Program, env: DiagramEnv | None, t: Term, t2: Term,
                  depth: int, budget: int = DEFAULT_BUDGET,
                  session: Session | None = None,
                  ds: DataSystem | None = None) -> OmegaResult:
    """Discriminator agreement of all deep destructions of t and t2 down to
    `depth`: equal-up-to-depth, or the first differing/stalled path."""
    if session is None:
        if ds is None:
            raise ValueError("derives_omega needs either a session or a data system")
        session = Session(program, ds, env)
    a = session.observe(t, depth, budget)
    b = session.observe(t2, depth, budget)
    return _diff(a, b)
