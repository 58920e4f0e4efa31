import itertools
import random

import pytest
from helpers import MIXED, SM, ZERO, cons, v

from coeq.system import (Constructor, ConstructorType, DataPredicate,
                         DataSystem, Kind, RegularCoterm, CotermNode,
                         canonical_member, stream_coterm, syntactic_class,
                         validate_system, UnknownIdentifierError)
from coeq.terms import Con, Fun, Var, substitute


def test_mixed_example_system_validates():
    assert validate_system(MIXED).ok


def test_boolean_stream_system_validates():
    assert validate_system(SM).ok


def test_argument_after_result_is_flagged():
    b = DataPredicate("B", Kind.INDUCTIVE, 0)
    s = DataPredicate("S", Kind.COINDUCTIVE, 1)
    c = Constructor("c", 2)
    zero = Constructor("0", 0)
    # c : B * S -> B puts the argument S after the result B
    ds = DataSystem((zero, c), (b, s), (
        ConstructorType(zero, (), b),
        ConstructorType(c, (b, s), b),
    ))
    rep = validate_system(ds)
    assert not rep.ok
    assert any(x.code == "argument-after-result" for x in rep.violations)


def test_duplicate_and_arity_violations():
    b = DataPredicate("B", Kind.INDUCTIVE, 0)
    zero = Constructor("0", 0)
    ds = DataSystem((zero, zero), (b,), (ConstructorType(zero, (b,), b),))
    rep = validate_system(ds)
    codes = {x.code for x in rep.violations}
    assert "dup-constructor" in codes
    assert "arity-mismatch" in codes


def test_syntactic_class():
    assert syntactic_class(Con("s", (Con("s", (Con("0"),)),)), MIXED) == "data"
    assert syntactic_class(Con("c", (Var("x"), Var("y"))), MIXED) == "base"
    assert syntactic_class(Fun("flip", (cons(ZERO, Var("w")),)), SM) == "program"


def test_syntactic_class_rejects_unknown():
    with pytest.raises(UnknownIdentifierError):
        syntactic_class(Con("nope"), SM)
    with pytest.raises(UnknownIdentifierError):
        syntactic_class(Con("cons", (ZERO,)), SM)


def test_class_monotone_under_substitution():
    base = Con("cons", (Var("x"), Con("cons", (Var("y"), Var("z")))))
    data = substitute(base, {"x": Con("0"), "y": Con("1"),
                             "z": Con("cons", (Con("0"), Var("q")))})
    # substituting data-terms for *all* variables of a base-term gives data
    full = substitute(base, {"x": Con("0"), "y": Con("1"), "z": Con("0")})
    assert syntactic_class(full, SM) == "data"
    assert syntactic_class(data, SM) == "base"


# -- canonical membership ----------------------------------------------------

B = SM.predicate("B")
S = SM.predicate("S")


def test_boolean_leaf_is_member():
    zero = RegularCoterm((CotermNode("0"),), 0)
    assert canonical_member(SM, B, zero, 0) == "yes"
    assert canonical_member(SM, B, zero, 7) == "yes"


def test_empty_constructor_set_predicate():
    b = DataPredicate("B", Kind.INDUCTIVE, 0)
    n = DataPredicate("N", Kind.INDUCTIVE, 1)
    zero = Constructor("0", 0)
    # N has no constructors at all: its canonical interpretation is empty
    ds = DataSystem((zero,), (b, n), (ConstructorType(zero, (), b),))
    assert validate_system(ds).ok
    val = RegularCoterm((CotermNode("0"),), 0)
    assert canonical_member(ds, n, val, 3) == "no"


def test_cyclic_stream_membership_up_to_depth():
    ct = stream_coterm([0, 1], loop_to=0)
    assert canonical_member(SM, S, ct, 5) == "yes-up-to-depth"
    assert canonical_member(SM, S, ct, 64) == "yes-up-to-depth"



def test_cyclic_stream_membership_two_thousand_deep():
    """canonical_member decides on `_run`'s stack: any depth."""
    ct = stream_coterm([0, 1], loop_to=0)
    assert canonical_member(SM, S, ct, 2_000) == "yes-up-to-depth"

def test_cyclic_value_not_inductive_member():
    ct = stream_coterm([0, 1], loop_to=0)
    assert canonical_member(SM, B, ct, 5) == "no"


def test_bad_head_bit_rejected():
    # cons(cons(...), ...) violates B at the head position
    nodes = (CotermNode("0"), CotermNode("1"), CotermNode("cons", (3, 2)),
             CotermNode("cons", (0, 2)))
    ct = RegularCoterm(nodes, entry=2)
    assert canonical_member(SM, S, ct, 4) == "no"


def test_failures_never_appear_shallower():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 4)
        nodes = [CotermNode("0"), CotermNode("1")]
        for i in range(n):
            a = rng.choice([0, 1, 2 + rng.randrange(n)])
            b = rng.choice([0, 1, 2 + rng.randrange(n)])
            nodes.append(CotermNode("cons", (a, b)))
        ct = RegularCoterm(tuple(nodes), entry=2)
        answers = [canonical_member(SM, S, ct, d) for d in range(8)]
        for d in range(7):
            if answers[d] == "no":
                assert answers[d + 1] == "no"


def _enumerate_data_terms(ds, max_size):
    """All finite constructor terms of the vocabulary up to a node count."""
    by_size = {1: [Con(c.name) for c in ds.vocabulary if c.arity == 0]}
    for size in range(2, max_size + 1):
        acc = []
        for c in ds.vocabulary:
            if c.arity == 0:
                continue
            for split in _splits(size - 1, c.arity):
                for combo in itertools.product(*[by_size.get(s, []) for s in split]):
                    acc.append(Con(c.name, tuple(combo)))
        by_size[size] = acc
    return [t for ts in by_size.values() for t in ts]


def _splits(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _splits(total - first, parts - 1):
            yield (first,) + rest


def _fixpoint_membership(ds, terms):
    """Least-fixpoint semantics of the inductive predicates over a finite
    term universe: the independent brute-force oracle."""
    member = {(p.name, t): False for p in ds.predicates for t in terms}
    changed = True
    while changed:
        changed = False
        for t in terms:
            for ct in ds.types_of(t.name):
                if len(ct.argument_predicates) != len(t.args):
                    continue
                if not ct.result_predicate.inductive:
                    continue
                if all(member.get((p.name, a), False)
                       for p, a in zip(ct.argument_predicates, t.args)):
                    key = (ct.result_predicate.name, t)
                    if not member[key]:
                        member[key] = True
                        changed = True
    return member


def _term_to_coterm(t):
    nodes = []

    def add(u):
        idx_children = tuple(add(a) for a in u.args)
        nodes.append(CotermNode(u.name, idx_children))
        return len(nodes) - 1

    entry = add(t)
    return RegularCoterm(tuple(nodes), entry)


def test_inductive_membership_agrees_with_enumeration():
    terms = _enumerate_data_terms(MIXED, 6)
    oracle = _fixpoint_membership(MIXED, terms)
    inductive = [p for p in MIXED.predicates if p.inductive]
    for t in terms:
        ct = _term_to_coterm(t)
        for p in inductive:
            got = canonical_member(MIXED, p, ct, 10)
            expect = "yes" if oracle[(p.name, t)] else "no"
            assert got == expect, f"{p.name}({t}): {got} != {expect}"


def test_coterm_validate():
    ct = stream_coterm([1, 0], loop_to=1)
    assert ct.validate(SM).ok


def test_every_structural_violation_of_a_system_is_named():
    b = DataPredicate("B", Kind.INDUCTIVE, 0)
    b2 = DataPredicate("B", Kind.INDUCTIVE, 2)
    ghost_p = DataPredicate("G", Kind.INDUCTIVE, 1)
    zero, ghost_c = Constructor("0", 0), Constructor("g", 0)
    ds = DataSystem((zero,), (b, b2), (ConstructorType(ghost_c, (), b),
                                      ConstructorType(zero, (), ghost_p)))
    rep = validate_system(ds)
    assert [x.code for x in rep.violations] == [
        "dup-predicate", "bad-indices", "unknown-constructor", "unknown-predicate"]
    assert str(rep).splitlines()[0] == "[dup-predicate] predicate 'B' declared more than once"
    assert str(validate_system(SM)) == "ok"


def test_coterm_validate_names_bad_constructors_children_and_entry():
    ct = RegularCoterm((CotermNode("nope"), CotermNode("cons", (0, 5))), entry=2)
    assert [x.code for x in ct.validate(SM).violations] == [
        "unknown-constructor", "dangling-child", "bad-entry"]
    with pytest.raises(ValueError):
        stream_coterm([0, 1], loop_to=2)


def test_membership_of_cycles_references_and_finite_coinductive_values():
    """An inductive predicate has no member with an infinite descent; a
    reference to another binding is a leaf verified only up to itself; a
    coinductive value is never certified outright, even a finite one."""
    n, j = MIXED.predicate("N"), MIXED.predicate("J")
    loop = RegularCoterm((CotermNode("s", (0,)),), 0)   # rec x. s(x)
    assert canonical_member(MIXED, n, loop, 5) == "no"
    assert canonical_member(MIXED, j, loop, 5) == "yes-up-to-depth"
    ref = RegularCoterm((CotermNode("0"), CotermNode("cons", (0, "w"))), 1)
    assert canonical_member(SM, S, ref, 5) == "yes-up-to-depth"
    from helpers import COLIST
    nil = RegularCoterm((CotermNode("nil"),), 0)
    assert canonical_member(COLIST, COLIST.predicate("L"), nil, 5) == "yes-up-to-depth"


def test_stream_coterms_are_hash_consed():
    """Building a stream twice gives one coterm, and two different streams
    share their equal nodes: the bit leaves and any equal cons node."""
    a, b = stream_coterm([0, 1, 1], 1), stream_coterm([0, 1, 1], 1)
    assert a is b and a == b and hash(a) == hash(b)
    c = stream_coterm([0, 1, 1, 1], 1)   # loops back from a fourth position
    assert c is not a and c != a
    assert all(x is y for x, y in zip(c.nodes[:4], a.nodes))   # 0, 1, 0:@3, 1:@4
    assert c.nodes[2] is CotermNode("cons", (0, 3)) and c.nodes[4] is not a.nodes[4]
    assert RegularCoterm(tuple(CotermNode(n.constructor, n.children) for n in a.nodes),
                         a.entry) is a


def test_a_coterm_read_from_an_env_stanza_is_interned():
    """The parser builds coterms through the same constructors, so an env
    read twice, or its coterm rebuilt node by node, is the same object."""
    from coeq.cli import parse_workspace
    source = ("system Sm { inductive B; coinductive S; constructor 0 : B; "
              "constructor 1 : B; constructor cons : B * S -> S; }\n"
              "env E { v = rec a. 0 : 1 : a; w = 1 : v; }\n")
    one, two = (dict(parse_workspace(source).envs["E"].bindings) for _ in range(2))
    for name in ("v", "w"):
        ct = one[name]
        assert ct is two[name]
        rebuilt = RegularCoterm(tuple(CotermNode(n.constructor, n.children)
                                      for n in ct.nodes), ct.entry)
        assert rebuilt is ct and all(x is y for x, y in zip(rebuilt.nodes, ct.nodes))


def test_a_coterm_nothing_holds_leaves_the_intern_table():
    """The intern table holds coterms and their nodes weakly."""
    import gc
    from coeq.terms import _interned
    node = CotermNode("cons", (0, "dropped"))
    ct = RegularCoterm((CotermNode("0"), node), 1)
    node_key, ct_key = (CotermNode, "cons", (0, "dropped")), (RegularCoterm, ct.nodes, 1)
    assert _interned[node_key] is node and _interned[ct_key] is ct
    del ct
    gc.collect()
    assert ct_key not in _interned and _interned[node_key] is node
    del node, ct_key
    gc.collect()
    assert node_key not in _interned
