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

from . import kernel
from .kernel import CON, FUN, STALL_NOMATCH, VAR, WHNF
from .program import Equation, Program, pi_name, standard_functions, validate_program
from .system import DataSystem, RegularCoterm, ValidationReport, Violation
from .terms import Con, Error, Fun, Record, Term, Tree, Var, _path, _set

DEFAULT_BUDGET = 10_000
NO_MATCH = "no-matching-equation"
BUDGET_EXHAUSTED = "budget-exhausted"


class GeneratorBinding(Record):
    """v = f(w_1 ... w_k): the binding unfolds to a call of a program's
    principal function on other environment identifiers."""
    __slots__ = ("program", "args")

    def __init__(self, program: Program, args: tuple[str, ...] = ()):
        _set(self, "program", program)
        _set(self, "args", args)


class DiagramEnv(Record):
    __slots__ = ("bindings",)

    def __init__(self, bindings: tuple[tuple[str, RegularCoterm | GeneratorBinding], ...] = ()):
        _set(self, "bindings", bindings)

    @staticmethod
    def of(mapping: dict[str, RegularCoterm | GeneratorBinding]) -> "DiagramEnv":
        return DiagramEnv(tuple(mapping.items()))

    def names(self) -> list[str]:
        return [n for n, _ in self.bindings]

    def validate(self, ds: DataSystem) -> ValidationReport:
        """Each name bound once, each coterm and generator program well
        formed, and every coterm child and generator argument a bound name."""
        names = self.names()
        out = [Violation("duplicate-binding", f"binding '{n}': bound more than once")
               for n, c in Counter(names).items() if c > 1]
        bound = set(names)
        for name, value in self.bindings:
            if isinstance(value, GeneratorBinding):
                code, rep = "bad-program", validate_program(value.program, ds)
                refs = value.args
            else:
                code, rep = "bad-coterm", value.validate(ds)
                refs = tuple(ch for node in value.nodes for ch in node.children
                             if isinstance(ch, str))
            if not rep.ok:
                out.append(Violation(code, f"binding '{name}': {rep}"))
            out.extend(Violation("unknown-binding", f"binding '{name}': unknown binding '{r}'")
                       for r in refs if r not in bound)
        return ValidationReport(tuple(out))

    def collision(self, ds: DataSystem, programs) -> str | None:
        """The error for the first binding named like a constructor, a
        standard function, or a function of one of `programs` or of a
        generator program; None if there is none.  Sessions and workspace
        resolution both ask this."""
        taken = {c.name for c in ds.vocabulary} | {e.function for e in standard_functions(ds)}
        for prog in list(programs) + [v.program for _, v in self.bindings
                                      if isinstance(v, GeneratorBinding)]:
            taken.update(prog.functions())
        for name in self.names():
            if name in taken:
                return f"binding '{name}' collides with a function or constructor"
        return None


class StallReason(Record):
    __slots__ = ("kind", "steps")

    def __init__(self, kind: str, steps: int | None = None):
        _set(self, "kind", kind)     # NO_MATCH or BUDGET_EXHAUSTED
        _set(self, "steps", steps)   # budget that was exhausted

    def __str__(self) -> str:
        if self.kind == BUDGET_EXHAUSTED:
            return f"{self.kind}({self.steps})"
        return self.kind


class Approximation(Tree):
    """An observation: an `ApproxNode` tree with `Cut` and `Stalled`
    leaves.  A tree is as deep as its observation, so `Tree` compares,
    walks and searches it, and Record's repr prints it, on explicit
    stacks."""
    __slots__ = ()


class ApproxNode(Approximation):
    __slots__ = ("constructor", "children", "depth")
    _branches = "children"

    def __init__(self, constructor: str, children: tuple[Approximation, ...], depth: int):
        _set(self, "constructor", constructor)
        _set(self, "children", children)
        _set(self, "depth", depth)


class Cut(Approximation):
    __slots__ = ("depth",)

    def __init__(self, depth: int):
        _set(self, "depth", depth)


class Stalled(Approximation):
    __slots__ = ("term", "reason", "depth")

    def __init__(self, term: Term, reason: StallReason, depth: int):
        _set(self, "term", term)
        _set(self, "reason", reason)
        _set(self, "depth", depth)


def restrict(a: Approximation, depth: int) -> Approximation:
    """Truncate an approximation to a smaller depth.

    Mirrors the observation rule: nodes survive below the boundary, and a
    nullary constructor survives *at* the boundary (it costs no depth).
    Criterion 10 (tests/test_acceptance.py::
    test_criterion_10_approximation_consistency) checks that restricting a
    depth d+1 observation to d gives the depth d observation.  An explicit
    stack of open nodes (node, depth, children restricted so far) keeps
    any depth clear of the recursion limit.
    """
    if depth <= 0:
        return Cut(0)
    at = 0
    open_nodes: list[tuple[ApproxNode, int, list[Approximation]]] = []
    while True:
        if isinstance(a, ApproxNode) and a.children and at < depth:
            open_nodes.append((a, at, []))
            a, at = a.children[0], at + 1
            continue
        nullary = isinstance(a, ApproxNode) and not a.children   # it costs no depth
        node = a if at < depth or nullary else Cut(at)
        # close every node whose last child this was, then go right
        while open_nodes:
            parent, at, children = open_nodes[-1]
            children.append(node)
            if len(children) < len(parent.children):
                a, at = parent.children[len(children)], at + 1
                break
            open_nodes.pop()
            node = ApproxNode(parent.constructor, tuple(children), parent.depth)
        else:
            return node


def first_stall(a: Approximation) -> tuple[tuple[int, ...], Stalled] | None:
    """Shallowest, leftmost stalled leaf, with its destructor path."""
    found = a.first(lambda node: isinstance(node, Stalled))
    return found and (tuple(i + 1 for i in found[0]), found[1])


class EvalError(Error):
    pass


class Session:
    """Program + environment + memo table.  Single-threaded; programs,
    environments and systems themselves are immutable and shareable.

    The kernel's symbol table is the one record of what a name means: the
    constructors, then the functions of the main program, the data
    system's standard ones, and those of every generator program (which
    may repeat, not change, the equations of a function defined before
    it), then the bindings, none of which may reuse a name declared before.
    A coterm binding `a` is its entry node: `a` unfolds to the entry's
    constructor layer, and a child that is the entry is `a` itself.  A leaf
    node (a nullary constructor) is that constant wherever it is a child,
    so it costs no unfold; it keeps an unfold only as the entry, as in
    `a = 0`.  Any other node i with children is a nullary function in a
    namespace of its own (`KernelSession.node`), printed `a@i`: no surface
    name reaches it."""

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
        self.tids: dict[Term, int] = {}   # the tid of each term encoded
        for c in ds.vocabulary:
            k.sym(c.name, CON, c.arity)
        # before any rule is encoded, so that `mk` flags every term calling one;
        # validation made their rules the standard ones
        for i in range(1, ds.max_arity + 1):
            k.projections.add(k.sym(pi_name(i), FUN, 1))
        # the data system's standard equations follow the main program's own
        have: dict[str, set[Equation]] = {}   # the equations of each function
        for name, body in [(None, program.body + standard_functions(ds))] + [
                (n, v.program.body) for n, v in self.env.bindings if isinstance(v, GeneratorBinding)]:
            for e in body:
                if e.function in have and e not in have[e.function]:
                    raise EvalError(f"binding '{name}': its program redefines '{e.function}'")
            eqs = [e for e in body if e.function not in have]
            for e in eqs:
                have.setdefault(e.function, set()).add(e)
                k.sym(e.function, FUN, len(e.patterns))
            for e in eqs:
                k.add_rule(k.sym_ids[e.function],
                           tuple(self.encode(p) for p in e.patterns), self.encode(e.rhs))
        for name, value in self.env.bindings:
            sid = k.sym(name, FUN, 0)
            if isinstance(value, GeneratorBinding):
                k.set_env(sid, self.encode(
                    Fun(value.program.principal, tuple(Fun(a) for a in value.args))))
                continue
            nodes, entry = value.nodes, value.entry
            # each node as a child: a leaf is its constant, the entry node is
            # the binding, any other node a symbol of its own
            refs = [k.mk(CON, k.sym_ids[n.constructor], ()) if not n.children
                    else k.mk(FUN, sid if i == entry else k.node(name, i), ())
                    for i, n in enumerate(nodes)]
            for i, node in enumerate(nodes):
                if node.children or i == entry:
                    kids = tuple(refs[ch] if isinstance(ch, int)
                                 else k.mk(FUN, k.sym(ch, FUN, 0), ())
                                 for ch in node.children)
                    k.set_env(sid if i == entry else k.node(name, i),
                              k.mk(CON, k.sym_ids[node.constructor], kids))

    # -- term translation ---------------------------------------------------

    def encode(self, t: Term) -> int:
        """The tid of t, interned bottom-up and left to right on an explicit
        stack, so any nesting depth encodes.  Terms are hash-consed: the
        session keeps each encoded term's tid, and walks only what is new."""
        k, tids = self.k, self.tids
        done: list[int] = []   # tids of the finished subterms, in order
        stack: list = [t]   # terms to encode, and (term,) once its arguments are done
        while stack:
            u = stack.pop()
            if isinstance(u, tuple):
                u, = u
                cut = len(done) - len(u.args)
                args = tuple(done[cut:])
                del done[cut:]
                sid = k.sym_ids.get(u.name, -1)
                if isinstance(u, Con):
                    if sid < 0 or k.sym_kinds[sid] != CON:
                        raise EvalError(f"unknown constructor '{u.name}'")
                elif sid < 0:
                    sid = k.sym(u.name, FUN, len(args))
                elif k.sym_kinds[sid] == CON:
                    raise EvalError(f"'{u.name}' is a constructor, not a function")
                elif k.sym_arities[sid] != len(args):
                    raise EvalError(f"function '{u.name}' has arity {k.sym_arities[sid]}, "
                                    f"applied to {len(args)} arguments")
                tids[u] = k.mk(CON if isinstance(u, Con) else FUN, sid, args)
            elif u not in tids:
                if not isinstance(u, Var):
                    stack.append((u,))
                    stack.extend(reversed(u.args))
                    continue
                tids[u] = k.var(u.name)
            done.append(tids[u])
        return done[0]

    def decode(self, tid: int) -> Term:
        """Interned term back to a tree, iteratively; subterms deeper than
        64 print as the variable '...' (stalled terms can be huge)."""
        k, done = self.k, []   # the decoded subterms, in order
        stack: list = [(tid, 64)]   # (tid, depth left); (tid, None) once its arguments are
        while stack:
            cur, left = stack.pop()
            args = k.t_args[cur]
            if left is not None and args:
                if left <= 0:
                    done.append(Var("..."))
                else:
                    stack.append((cur, None))
                    stack += [(a, left - 1) for a in reversed(args)]
                continue
            cut, kind, name = len(done) - len(args), k.t_kind[cur], k.sym_names[k.t_sym[cur]]
            done[cut:] = [Var(name) if kind == VAR
                          else (Con if kind == CON else Fun)(name, tuple(done[cut:]))]
        return done[0]

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

class OmegaResult(Record):
    __slots__ = ("status", "path", "reason")

    def __init__(self, status: str, path: tuple[int, ...] = (),
                 reason: StallReason | None = None):
        _set(self, "status", status)   # "equal-up-to-depth" | "differs" | "stalled"
        _set(self, "path", path)
        _set(self, "reason", reason)

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
    subtree was already compared at least as far.  A pair keeps a link to
    its path (see `_path`), so only the answer's path is built.  Depth 0
    forces nothing.

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
        link, x, y, at = queue.popleft()
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
                return OmegaResult("stalled", _path(link), rx)
            hy, ry = session.force(y, budget)
            if ry is not None:
                return OmegaResult("stalled", _path(link), ry)
        if k.t_sym[hx] != k.t_sym[hy]:
            return OmegaResult("differs", _path(link))
        queue.extend(((link, i + 1), cx, cy, at + 1)
                     for i, (cx, cy) in enumerate(zip(k.t_args[hx], k.t_args[hy])))
    return EQUAL
