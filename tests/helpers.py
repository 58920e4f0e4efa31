"""Shared builders and oracles for tests: the boolean-stream and mixed
example systems, common programs, small term constructors, seeded random
stream generators, and term and substitution measures."""
from __future__ import annotations

import random

from coeq.evaluation import DiagramEnv
from coeq.program import Equation, Program, assemble_program
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


SM = boolean_stream_system()
MIXED = mixed_example_system()

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
