"""Observation-driven evaluation.

A session joins a validated program, a data system, and a diagram
environment binding fresh nullary identifiers to regular coterms or to
generator programs.  `observe` unfolds a term to a depth-bounded
constructor tree, forcing nodes in left-to-right preorder with an explicit
stack; stalls (no matching equation, or a spent step budget) are recorded
as leaves, never raised.  `derives_omega` is the finite-depth reading of
observational equivalence: one breadth-first walk over pairs of kernel
terms that forces both sides in lockstep, stops at the first differing
head or stall, and skips a pair of term ids it has already compared.

At the depth bound only a nullary constructor survives, so `observe` and
`derives_omega` force a term there only if it can end in one.  A term
that `KernelSession.never_nullary` rules out (a constructor with
arguments, or a call whose every unfolding is one or stalls, such as a
stream function's tail) is a cut, unforced.
"""
from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass

from . import kernel
from .kernel import CON, FUN, STALL_NOMATCH, VAR, WHNF
from .program import Program, pi_name, validate_program
from .system import DataSystem, RegularCoterm, ValidationReport, Violation
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

    def validate(self, ds: DataSystem) -> ValidationReport:
        """Each name bound once, each coterm well formed, and every coterm
        child and generator argument a bound name."""
        names = self.names()
        out = [Violation("duplicate-binding", f"binding '{n}': bound more than once")
               for n, c in Counter(names).items() if c > 1]
        bound = set(names)
        for name, value in self.bindings:
            if isinstance(value, GeneratorBinding):
                refs = value.args
            else:
                rep = value.validate(ds)
                if not rep.ok:
                    out.append(Violation("bad-coterm", f"binding '{name}': {rep}"))
                refs = tuple(ch for node in value.nodes for ch in node.children
                             if isinstance(ch, str))
            out.extend(Violation("unknown-binding", f"binding '{name}': unknown binding '{r}'")
                       for r in refs if r not in bound)
        return ValidationReport(tuple(out))

    def collision(self, ds: DataSystem, programs) -> str | None:
        """The error for the first binding named like a constructor, or like
        a function of one of `programs` or of a generator program; None if
        there is none.  Sessions and workspace resolution both ask this."""
        taken = {c.name for c in ds.vocabulary}
        for prog in list(programs) + [v.program for _, v in self.bindings
                                      if isinstance(v, GeneratorBinding)]:
            taken.update(prog.functions())
        for name in self.names():
            if name in taken:
                return f"binding '{name}' collides with a function or constructor"
        return None


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
    Criterion 10 (tests/test_acceptance.py::
    test_criterion_10_approximation_consistency) checks that restricting a
    depth d+1 observation to d gives the depth d observation.
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


def first_stall(a: Approximation) -> tuple[tuple[int, ...], Stalled] | None:
    """Shallowest, leftmost stalled leaf, with its destructor path."""
    queue: deque[tuple[tuple[int, ...], Approximation]] = deque([((), a)])
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
    environments and systems themselves are immutable and shareable.

    The kernel's symbol table is the one record of what a name means: the
    constructors, then the functions of the main program and of every
    generator program (a function already defined keeps its equations),
    then the bindings, none of which may reuse a name declared before.
    Node i of a coterm binding `a` is a nullary function in a namespace of
    its own (`KernelSession.node`), printed `a@i`: no surface name reaches it."""

    def __init__(self, program: Program, ds: DataSystem,
                 env: DiagramEnv | None = None):
        rep = validate_program(program, ds)
        if not rep.ok:
            raise EvalError(f"invalid program: {rep}")
        self.program = program
        self.ds = ds
        self.env = env or DiagramEnv()
        rep = self.env.validate(ds)
        if not rep.ok:
            raise EvalError(f"invalid environment: {rep}")
        clash = self.env.collision(ds, [program])
        if clash:
            raise EvalError(clash)
        k = self.k = kernel.KernelSession()
        for c in ds.vocabulary:
            k.sym(c.name, CON, c.arity)
        for prog in [program] + [v.program for _, v in self.env.bindings
                                 if isinstance(v, GeneratorBinding)]:
            eqs = [e for e in prog.body if k.sym_ids.get(e.function) not in k.rules]
            for e in eqs:
                k.sym(e.function, FUN, len(e.patterns))
            for e in eqs:
                k.add_rule(k.sym_ids[e.function],
                           tuple(self.encode(p) for p in e.patterns), self.encode(e.rhs))
        for i in range(1, ds.max_arity + 1):   # validation made their rules the standard ones
            k.projections.add(k.sym_ids[pi_name(i)])
        for name, value in self.env.bindings:
            sid = k.sym(name, FUN, 0)
            if isinstance(value, GeneratorBinding):
                k.set_env(sid, self.encode(
                    Fun(value.principal, tuple(Fun(a) for a in value.args))))
                continue
            for i, node in enumerate(value.nodes):
                kids = tuple(k.mk(FUN, k.node(name, ch) if isinstance(ch, int)
                                  else k.sym(ch, FUN, 0), ())
                             for ch in node.children)
                layer = k.mk(CON, k.sym_ids[node.constructor], kids)
                k.set_env(k.node(name, i), layer)
                if i == value.entry:
                    k.set_env(sid, layer)

    # -- term translation ---------------------------------------------------

    def encode(self, t: Term) -> int:
        """The tid of t, interned bottom-up and left to right; an explicit
        stack keeps any nesting depth clear of the recursion limit."""
        k = self.k
        done: list[int] = []   # tids of the finished subterms, in order
        stack: list[tuple[Term, bool]] = [(t, False)]
        while stack:
            u, args_done = stack.pop()
            if isinstance(u, Var):
                done.append(k.var(u.name))
                continue
            if not args_done:
                stack.append((u, True))
                stack.extend((a, False) for a in reversed(u.args))
                continue
            cut = len(done) - len(u.args)
            args = tuple(done[cut:])
            del done[cut:]
            sid = k.sym_ids.get(u.name, -1)
            if isinstance(u, Con):
                if sid < 0 or k.sym_kinds[sid] != CON:
                    raise EvalError(f"unknown constructor '{u.name}'")
                done.append(k.mk(CON, sid, args))
                continue
            if sid < 0:
                sid = k.sym(u.name, FUN, len(args))
            elif k.sym_kinds[sid] == CON:
                raise EvalError(f"'{u.name}' is a constructor, not a function")
            elif k.sym_arities[sid] != len(args):
                raise EvalError(f"function '{u.name}' has arity {k.sym_arities[sid]}, "
                                f"applied to {len(args)} arguments")
            done.append(k.mk(FUN, sid, args))
        return done[0]

    def decode(self, tid: int) -> Term:
        """Interned term back to a tree, iteratively; subterms deeper than
        64 print as the variable '...' (stalled terms can be huge)."""
        k = self.k
        stack: list[tuple[int, int, list[Term], int]] = [(tid, 64, [], 0)]
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

    # -- observation ---------------------------------------------------------

    def force(self, tid: int, budget: int) -> tuple[int, StallReason | None]:
        """Head-normalize tid: (WHNF tid, None), or (the form it stalled
        at, why)."""
        status, out, _steps = self.k.head_normalize(tid, budget)
        if status == WHNF:
            return out, None
        if status == STALL_NOMATCH:
            return out, StallReason(NO_MATCH)
        return out, StallReason(BUDGET_EXHAUSTED, budget)

    def observe(self, t: Term, depth: int, budget: int = DEFAULT_BUDGET) -> Approximation:
        """Depth accounting: a constructor node of arity >= 1 costs one
        unit of depth, a nullary constructor costs none, so a stream
        observed to depth d shows d elements.  Depth 0 evaluates nothing.
        A node at the bound is forced only if it can end in a nullary
        constructor (`KernelSession.never_nullary`); else it is a cut.

        Nodes are forced in left-to-right preorder; an explicit stack of
        open nodes (constructor, arguments, depth, children so far) keeps
        any depth clear of the interpreter's recursion limit."""
        if depth <= 0:
            return Cut(0)
        k = self.k
        open_nodes: list[tuple[str, tuple[int, ...], int, list[Approximation]]] = []
        tid, at = self.encode(t), 0
        while True:
            node: Approximation
            if at >= depth and k.never_nullary(tid):
                node = Cut(at)
            else:
                out, reason = self.force(tid, budget)
                args, name = k.t_args[out], k.sym_names[k.t_sym[out]]
                if reason is not None:
                    node = Cut(at) if at >= depth else Stalled(self.decode(out), reason, at)
                elif not args:
                    node = ApproxNode(name, (), at)
                elif at >= depth:
                    node = Cut(at)
                else:
                    open_nodes.append((name, args, at, []))
                    tid, at = args[0], at + 1
                    continue
            # close every node whose last child this was, then go right
            while open_nodes:
                name, args, at, children = open_nodes[-1]
                children.append(node)
                if len(children) < len(args):
                    tid, at = args[len(children)], at + 1
                    break
                open_nodes.pop()
                node = ApproxNode(name, tuple(children), at)
            else:
                return node


# -- finite-depth bisimulation ---------------------------------------------------

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


def derives_omega(program: Program, env: DiagramEnv | None, t: Term, t2: Term,
                  depth: int, budget: int = DEFAULT_BUDGET,
                  session: Session | None = None,
                  ds: DataSystem | None = None) -> OmegaResult:
    """Discriminator agreement of all deep destructions of t and t2 down to
    `depth`: equal-up-to-depth, or the first differing/stalled path.

    One breadth-first walk over pairs of kernel terms under the same
    destructor path, forcing both sides of a pair when it reaches it.  It
    stops at the first pair where a side stalls below `depth` (t's side
    checked first) or whose heads differ.  At the depth bound only two
    nullary heads are compared; any other pair there is a cut.  So a pair
    there is forced only if neither side is `never_nullary`, and its right
    side only if the left one ended nullary.  A pair of
    term ids met before is skipped: BFS first met it no deeper, so its
    subtree was already compared at least as far.  Depth 0 forces nothing.

    Where no forcing runs out of budget, the verdict is that of observing
    both terms to `depth` and comparing the trees breadth first, for no
    more rewrite steps.  A forcing that runs out of budget depends on what
    the memo already holds, so there the verdict can differ from that
    comparison, as it can already between (t, t2) and (t2, t)."""
    if session is None:
        if ds is None:
            raise ValueError("derives_omega needs either a session or a data system")
        session = Session(program, ds, env)
    if depth <= 0:
        return EQUAL
    k = session.k
    queue = deque([((), session.encode(t), session.encode(t2), 0)])
    seen: set[tuple[int, int]] = set()
    while queue:
        path, x, y, at = queue.popleft()
        if (x, y) in seen:
            continue
        seen.add((x, y))
        if at >= depth:   # a cut unless both sides end in nullary heads
            if k.never_nullary(x) or k.never_nullary(y):
                continue
            hx, rx = session.force(x, budget)
            if rx is not None or k.t_args[hx]:
                continue
            hy, ry = session.force(y, budget)
            if ry is not None or k.t_args[hy]:
                continue
        else:
            hx, rx = session.force(x, budget)
            if rx is not None:
                return OmegaResult("stalled", path, rx)
            hy, ry = session.force(y, budget)
            if ry is not None:
                return OmegaResult("stalled", path, ry)
        if k.t_sym[hx] != k.t_sym[hy]:
            return OmegaResult("differs", path)
        queue.extend((path + (i + 1,), cx, cy, at + 1)
                     for i, (cx, cy) in enumerate(zip(k.t_args[hx], k.t_args[hy])))
    return EQUAL
