"""Shared builders and oracles for tests: the boolean-stream, word, colist
and mixed example systems, common programs, small term constructors,
seeded random stream, coterm and program generators, and term and
substitution measures."""
from __future__ import annotations

import random

from coeq.corec import check_primitive_corecursive, cocase_equations, compile_schema
from coeq.evaluation import DiagramEnv
from coeq.program import DELTA, Equation, Program, assemble_program, pi_name
from coeq.system import (Constructor, ConstructorType, CotermNode,
                         DataPredicate, DataSystem, Kind, RegularCoterm,
                         boolean_stream_system, stream_coterm)
from coeq.terms import Con, Fun, Subst, Term, Var, substitute, subterms


def mixed_example_system() -> DataSystem:
    """Booleans, naturals, infinite s/t-words, streams of naturals, and
    lists of such streams (constructors reused across predicates)."""
    zero = Constructor("0", 0)
    one = Constructor("1", 0)
    nil = Constructor("[]", 0)
    s = Constructor("s", 1)
    t = Constructor("t", 1)
    c = Constructor("c", 2)
    b = DataPredicate("B", Kind.INDUCTIVE, 0)
    n = DataPredicate("N", Kind.INDUCTIVE, 1)
    j = DataPredicate("J", Kind.COINDUCTIVE, 2)
    st = DataPredicate("S", Kind.COINDUCTIVE, 3)
    li = DataPredicate("L", Kind.INDUCTIVE, 4)
    return DataSystem(
        vocabulary=(zero, one, nil, s, t, c),
        predicates=(b, n, j, st, li),
        types=(
            ConstructorType(zero, (), b),
            ConstructorType(zero, (), n),
            ConstructorType(one, (), b),
            ConstructorType(nil, (), li),
            ConstructorType(s, (n,), n),
            ConstructorType(s, (j,), j),
            ConstructorType(t, (j,), j),
            ConstructorType(c, (n, st), st),
            ConstructorType(c, (st, li), li),
        ),
    )


def word_system() -> DataSystem:
    """Infinite words of two letters that each carry a bit:
    0, 1 : B; s, t : B * W -> W."""
    zero, one = Constructor("0", 0), Constructor("1", 0)
    s, t = Constructor("s", 2), Constructor("t", 2)
    b = DataPredicate("B", Kind.INDUCTIVE, 0)
    w = DataPredicate("W", Kind.COINDUCTIVE, 1)
    return DataSystem((zero, one, s, t), (b, w), (
        ConstructorType(zero, (), b), ConstructorType(one, (), b),
        ConstructorType(s, (b, w), w), ConstructorType(t, (b, w), w)))


def colist_system() -> DataSystem:
    """Finite or infinite words of two letters: nil : L; s, t : L -> L."""
    nil, s, t = Constructor("nil", 0), Constructor("s", 1), Constructor("t", 1)
    li = DataPredicate("L", Kind.COINDUCTIVE, 0)
    return DataSystem((nil, s, t), (li,), (
        ConstructorType(nil, (), li), ConstructorType(s, (li,), li),
        ConstructorType(t, (li,), li)))


SM = boolean_stream_system()
MIXED = mixed_example_system()
WORD = word_system()
COLIST = colist_system()

ZERO = Con("0")
ONE = Con("1")


def cons(h: Term, t: Term) -> Term:
    return Con("cons", (h, t))


def v(name: str) -> Term:
    return Var(name)


def fn(name: str, *args: Term) -> Term:
    return Fun(name, tuple(args))


def pi1(t: Term) -> Term:
    return Fun("pi1", (t,))


def pi2(t: Term) -> Term:
    return Fun("pi2", (t,))


def flip_program() -> Program:
    eqs = [
        Equation("flip", (cons(ZERO, v("w")),), cons(ONE, fn("flip", v("w")))),
        Equation("flip", (cons(ONE, v("w")),), cons(ZERO, fn("flip", v("w")))),
    ]
    return assemble_program(SM, eqs, "flip")


def bisim_b_program() -> Program:
    eqs = [
        Equation("b", (cons(ZERO, v("x")), cons(ZERO, v("y"))),
                 cons(ZERO, fn("b", v("x"), v("y")))),
        Equation("b", (cons(ONE, v("x")), cons(ONE, v("y"))),
                 cons(ONE, fn("b", v("x"), v("y")))),
    ]
    return assemble_program(SM, eqs, "b")


def flip_env() -> DiagramEnv:
    # v_a = 0 : v_b,  v_b = 1 : v_a
    a = coterm_layer(0, "v_b")
    b = coterm_layer(1, "v_a")
    return DiagramEnv.of({"v_a": a, "v_b": b})


def coterm_layer(bit: int, tail_ref: str) -> RegularCoterm:
    """One cons layer whose tail is a cross-binding reference."""
    nodes = (CotermNode("0"), CotermNode("1"), CotermNode("cons", (bit, tail_ref)))
    return RegularCoterm(nodes, entry=2)


def alternating_stream() -> RegularCoterm:
    """(01)^omega as a self-contained cyclic coterm."""
    return stream_coterm([0, 1], loop_to=0)


def random_stream(rng: random.Random, max_nodes: int = 6) -> RegularCoterm:
    """A random regular boolean stream (cyclic list of cons nodes)."""
    n = rng.randint(1, max_nodes)
    bits = [rng.randint(0, 1) for _ in range(n)]
    loop_to = rng.randrange(n)
    return stream_coterm(bits, loop_to)


def stream_prefix(ct: RegularCoterm, n: int) -> list[int]:
    """First n head-bits of a self-contained boolean-stream coterm
    (positional oracle); raises on cross-binding references."""
    out: list[int] = []
    i = ct.entry
    for _ in range(n):
        head, tail = ct.nodes[i].children
        if isinstance(head, str) or isinstance(tail, str):
            raise ValueError("stream_prefix needs a self-contained stream coterm")
        out.append(0 if ct.nodes[head].constructor == "0" else 1)
        i = tail
    return out


def nat_program() -> Program:
    """The divergence example over 0/s: f(0)=0, f(s(s x)) = f(s(s(s x)))."""
    zero = Constructor("0", 0)
    s = Constructor("s", 1)
    n = DataPredicate("N", Kind.INDUCTIVE, 0)
    ds = DataSystem((zero, s), (n,), (
        ConstructorType(zero, (), n),
        ConstructorType(s, (n,), n),
    ))
    eqs = [
        Equation("f", (Con("0"),), Con("0")),
        Equation("f", (Con("s", (Con("s", (v("x"),)),)),),
                 fn("f", Con("s", (Con("s", (Con("s", (v("x"),)),)),)))),
    ]
    return assemble_program(ds, eqs, "f"), ds


def approx_bits(approx) -> list[int]:
    """Flatten a boolean-stream approximation into its visible bits."""
    from coeq.evaluation import ApproxNode
    out: list[int] = []
    node = approx
    while isinstance(node, ApproxNode) and node.constructor == "cons":
        head = node.children[0]
        if not isinstance(head, ApproxNode):
            break
        out.append(0 if head.constructor == "0" else 1)
        node = node.children[1]
    return out


def term_size(t: Term) -> int:
    return sum(1 for _ in subterms(t))


def is_idempotent(s: Subst) -> bool:
    return all(substitute(t, s) == t for t in s.values())


def compile_roundtrip(program: Program, ds: DataSystem):
    """recognize(p), compile(p), recognize(compile(p)) and the compiled
    program of that; the second recognition must accept."""
    v1 = check_primitive_corecursive(program, ds)
    compiled = compile_schema(v1.bundle, ds)
    v2 = check_primitive_corecursive(compiled, ds)
    assert v2.accepted, v2.reason
    return v1, compiled, v2, compile_schema(v2.bundle, ds)


def random_coterm(rng: random.Random, ds: DataSystem, pred: DataPredicate,
                  max_nodes: int = 6) -> RegularCoterm:
    """A random regular coterm of `pred`: coinductive positions point at a
    new node or, past `max_nodes` or by chance, back at a node of their
    predicate; inductive positions hold finite terms."""
    nodes: list[CotermNode | None] = []
    owners: list[tuple[int, DataPredicate]] = []

    def node(q: DataPredicate, depth: int) -> int:
        types = ds.types_for_result(q)
        if q.inductive and depth <= 0:
            types = [t for t in types if not t.argument_predicates]
        t = rng.choice(types)
        i = len(nodes)
        nodes.append(None)
        owners.append((i, q))
        kids = []
        for a in t.argument_predicates:
            back = [j for j, r in owners if r == a and not a.inductive]
            if back and (len(nodes) >= max_nodes or rng.random() < 0.3):
                kids.append(rng.choice(back))
            else:
                kids.append(node(a, depth - 1))
        nodes[i] = CotermNode(t.constructor.name, tuple(kids))
        return i

    entry = node(pred, 3)
    return RegularCoterm(tuple(nodes), entry)


SHAPES = ("stream", "selector", "dispatch")


class ProgramGenerator:
    """Random well-sorted programs over one coinductive predicate P, most of
    them primitive corecursive.  Every function takes arguments in P.  Up to
    two compositions come first, then a vector of one or two functions of
    one shape:

    - "stream": every equation produces one constructor of P;
    - "selector": by cases on the first argument, the equations produce
      at least two constructors of P of one arity;
    - "dispatch": the program declares the cocaseM helper (its variables
      renamed, its equations shuffled) and every equation is
      f(...) = cocaseM(h, e1 .. eM); compositions may call it too.

    With or without cases on the first argument; recursive calls sit in
    the produced constructor's (or the dispatch's) arguments in P, and a
    slot calls the same function in every case."""

    def __init__(self, rng: random.Random, ds: DataSystem, pred: DataPredicate):
        self.rng, self.ds, self.pred = rng, ds, pred
        self.calls: list[tuple[str, tuple[DataPredicate, ...], DataPredicate]] = []
        self.fresh = 0

    def _leaf(self, q: DataPredicate, ctx: dict[str, DataPredicate]) -> bool:
        return any(s == q for s in ctx.values()) or any(
            not t.argument_predicates for t in self.ds.types_for_result(q))

    def _dest_sort(self, q: DataPredicate, i: int) -> DataPredicate | None:
        """The predicate of pi_i(u) for u in q, if q's constructors agree."""
        sorts = {t.argument_predicates[i - 1] if i <= len(t.argument_predicates) else q
                 for t in self.ds.types_for_result(q)}
        return sorts.pop() if len(sorts) == 1 else None

    def term(self, q: DataPredicate, ctx: dict[str, DataPredicate], depth: int = 2) -> Term:
        """A term of `q` over the variables of `ctx` and the functions
        declared so far, with no recursive call."""
        rng, ds = self.rng, self.ds
        leaves = [Var(n) for n, s in ctx.items() if s == q] + [
            Con(t.constructor.name) for t in ds.types_for_result(q)
            if not t.argument_predicates]
        kind = rng.randrange(5) if depth > 0 else 0
        if kind == 1:
            t = rng.choice(ds.types_for_result(q))
            if all(self._leaf(a, ctx) for a in t.argument_predicates):
                return Con(t.constructor.name, tuple(
                    self.term(a, ctx, depth - 1) for a in t.argument_predicates))
        elif kind == 2:
            sources = [(r, i) for r in ds.predicates if self._leaf(r, ctx)
                       for i in range(1, ds.max_arity + 1) if self._dest_sort(r, i) == q]
            if sources:
                r, i = rng.choice(sources)
                return Fun(pi_name(i), (self.term(r, ctx, depth - 1),))
        elif kind == 3:
            r = rng.choice([r for r in ds.predicates if self._leaf(r, ctx)])
            return Fun(DELTA, (self.term(r, ctx, depth - 1),) + tuple(
                self.term(q, ctx, 0) for _ in ds.vocabulary))
        elif kind == 4:
            calls = [(g, args) for g, args, res in self.calls
                     if res == q and all(self._leaf(a, ctx) for a in args)]
            if calls:
                g, args = rng.choice(calls)
                return Fun(g, tuple(self.term(a, ctx, depth - 1) for a in args))
        return rng.choice(leaves)

    def _var(self) -> Var:
        self.fresh += 1
        return Var(f"w{self.fresh}")

    def _rows(self, k: int, cases: bool):
        """(patterns, context) per equation: variables, or cases on the
        first argument, and by chance on its first component too where
        that has only nullary constructors."""
        rng, ds, p = self.rng, self.ds, self.pred
        xs = {f"x{i + 1}": p for i in range(k)}
        if not cases:
            return [(tuple(Var(x) for x in xs), xs)]
        rest = tuple(Var(x) for x in list(xs)[1:])
        out = []
        for t in ds.types_for_result(p):
            ys = [self._var() for _ in t.argument_predicates]
            ctx = {y.name: a for y, a in zip(ys, t.argument_predicates)}
            ctx |= {x.name: p for x in rest}
            firsts = [(ys, ctx)]
            if ys and rng.random() < 0.3:
                inner = ds.types_for_result(t.argument_predicates[0])
                if all(not u.argument_predicates for u in inner):
                    del ctx[ys[0].name]
                    firsts = [([Con(u.constructor.name)] + ys[1:], ctx) for u in inner]
            out += [((Con(t.constructor.name, tuple(args)),) + rest, c) for args, c in firsts]
        return out

    def program(self, shape: str) -> Program:
        rng, ds, p = self.rng, self.ds, self.pred
        eqs: list[Equation] = []
        if shape == "dispatch":
            m = max(t.constructor.arity for t in ds.types_for_result(p))
            slot_sorts = tuple(self._dest_sort(p, i + 1) for i in range(m))
            own = cocase_equations(ds, m)
            rng.shuffle(own)
            ren = {f"{c}{i}": Var(f"{c}{i}'") for c in "yv" for i in range(1, m + 1)
                   if rng.random() < 0.5}
            eqs += [Equation(e.function, tuple(substitute(q, ren) for q in e.patterns),
                             substitute(e.rhs, ren)) for e in own]
            helper = own[0].function
            self.calls.append((helper, (p,) + slot_sorts, p))
        for j in range(rng.randint(0, 2)):
            g, k = f"g{j + 1}", rng.randint(1, 2)
            res = rng.choice([p] + [a for t in ds.types_for_result(p)
                                    for a in t.argument_predicates if a.inductive])
            xs = {f"x{i + 1}": p for i in range(k)}
            eqs.append(Equation(g, tuple(Var(x) for x in xs), self.term(res, xs)))
            self.calls.append((g, (p,) * k, res))
        members = [f"f{i + 1}" for i in range(rng.randint(1, 2))]
        k = rng.randint(0 if shape == "stream" else 1, 2)
        for f in members:
            if shape == "stream":
                made = [rng.choice([t for t in ds.types_for_result(p) if t.argument_predicates])]
            elif shape == "selector":
                by_arity: dict[int, list] = {}
                for t in ds.types_for_result(p):
                    by_arity.setdefault(len(t.argument_predicates), []).append(t)
                made = rng.choice([ts for ts in by_arity.values() if len(ts) > 1])
            if shape != "dispatch":
                slot_sorts = made[0].argument_predicates
            targets = [rng.choice(members) if s == p and (k == 0 or rng.random() < 0.6)
                       else None for s in slot_sorts]
            rows = self._rows(k, cases=shape == "selector" or (k > 0 and rng.random() < 0.5))
            heads = [rng.choice(made).constructor.name for _ in rows] \
                if shape != "dispatch" else []
            if shape == "selector" and len(set(heads)) == 1:
                heads[-1] = next(t.constructor.name for t in made
                                 if t.constructor.name != heads[0])
            for r, (pats, ctx) in enumerate(rows):
                slots = tuple(Fun(tg, tuple(self.term(p, ctx) for _ in range(k)))
                              if tg else self.term(s, ctx)
                              for s, tg in zip(slot_sorts, targets))
                rhs = Fun(helper, (self.term(p, ctx),) + slots) if shape == "dispatch" \
                    else Con(heads[r], slots)
                eqs.append(Equation(f, pats, rhs))
        return assemble_program(ds, eqs, members[-1])
