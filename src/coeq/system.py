"""Data systems: constructor vocabularies, inductive/coinductive predicates,
typing of constructors, and depth-bounded membership in the canonical model.
"""
from __future__ import annotations

import enum
from .terms import Con, Fun, Interned, Record, Term, Var, _intern, _run, _set


class Kind(enum.Enum):
    INDUCTIVE = "inductive"
    COINDUCTIVE = "coinductive"


class Constructor(Record):
    __slots__ = ("name", "arity")

    def __init__(self, name: str, arity: int):
        _set(self, "name", name)
        _set(self, "arity", arity)


class DataPredicate(Record):
    __slots__ = ("name", "kind", "index")

    def __init__(self, name: str, kind: Kind, index: int):
        _set(self, "name", name)
        _set(self, "kind", kind)
        _set(self, "index", index)

    @property
    def inductive(self) -> bool:
        return self.kind is Kind.INDUCTIVE


class ConstructorType(Record):
    """A functional type c : E_1 x ... x E_r -> E_0 for a constructor."""
    __slots__ = ("constructor", "argument_predicates", "result_predicate")

    def __init__(self, constructor: Constructor,
                 argument_predicates: tuple[DataPredicate, ...],
                 result_predicate: DataPredicate):
        _set(self, "constructor", constructor)
        _set(self, "argument_predicates", argument_predicates)
        _set(self, "result_predicate", result_predicate)

    def __str__(self) -> str:
        if not self.argument_predicates:
            return f"{self.constructor.name} : {self.result_predicate.name}"
        args = " * ".join(p.name for p in self.argument_predicates)
        return f"{self.constructor.name} : {args} -> {self.result_predicate.name}"


class DataSystem(Record):
    # standard_functions keeps the system's equations in the instance's __dict__
    __slots__ = ("vocabulary", "predicates", "types", "__dict__")

    def __init__(self, vocabulary: tuple[Constructor, ...],
                 predicates: tuple[DataPredicate, ...],
                 types: tuple[ConstructorType, ...]):
        _set(self, "vocabulary", vocabulary)
        _set(self, "predicates", predicates)
        _set(self, "types", types)

    def constructor(self, name: str) -> Constructor | None:
        for c in self.vocabulary:
            if c.name == name:
                return c
        return None

    def predicate(self, name: str) -> DataPredicate | None:
        for p in self.predicates:
            if p.name == name:
                return p
        return None

    def types_of(self, constructor_name: str) -> list[ConstructorType]:
        return [t for t in self.types if t.constructor.name == constructor_name]

    def types_for_result(self, pred: DataPredicate) -> list[ConstructorType]:
        return [t for t in self.types if t.result_predicate == pred]

    def constructors_of(self, pred: DataPredicate) -> list[Constructor]:
        """The associated constructor set C_n of a predicate, from the types."""
        seen: list[Constructor] = []
        for t in self.types_for_result(pred):
            if t.constructor not in seen:
                seen.append(t.constructor)
        return seen

    @property
    def max_arity(self) -> int:
        return max((c.arity for c in self.vocabulary), default=0)


class Violation(Record):
    __slots__ = ("code", "message")

    def __init__(self, code: str, message: str):
        _set(self, "code", code)
        _set(self, "message", message)

    def __str__(self) -> str:
        return f"[{self.code}] {self.message}"


class ValidationReport(Record):
    __slots__ = ("violations",)

    def __init__(self, violations: tuple[Violation, ...] = ()):
        _set(self, "violations", violations)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok:
            return "ok"
        return "\n".join(str(v) for v in self.violations)


def validate_system(ds: DataSystem) -> ValidationReport:
    """Check all structural invariants of a data system.

    Violations are data, not exceptions: every offending type or predicate
    is named in the report.
    """
    out: list[Violation] = []
    names = [c.name for c in ds.vocabulary]
    for n in sorted({n for n in names if names.count(n) > 1}):
        out.append(Violation("dup-constructor", f"constructor '{n}' declared more than once"))
    pnames = [p.name for p in ds.predicates]
    for n in sorted({n for n in pnames if pnames.count(n) > 1}):
        out.append(Violation("dup-predicate", f"predicate '{n}' declared more than once"))
    indices = sorted(p.index for p in ds.predicates)
    if indices != list(range(len(ds.predicates))):
        out.append(Violation("bad-indices", f"predicate indices {indices} are not contiguous 0..{len(ds.predicates) - 1}"))
    for t in ds.types:
        if ds.constructor(t.constructor.name) != t.constructor:
            out.append(Violation("unknown-constructor", f"type '{t}' uses a constructor not in the vocabulary"))
        if len(t.argument_predicates) != t.constructor.arity:
            out.append(Violation(
                "arity-mismatch",
                f"type '{t}' has {len(t.argument_predicates)} argument predicates "
                f"but {t.constructor.name} has arity {t.constructor.arity}"))
        for p in t.argument_predicates + (t.result_predicate,):
            if ds.predicate(p.name) != p:
                out.append(Violation("unknown-predicate", f"type '{t}' mentions undeclared predicate '{p.name}'"))
        for p in t.argument_predicates:
            if p.index > t.result_predicate.index:
                out.append(Violation(
                    "argument-after-result",
                    f"type '{t}': argument predicate {p.name} comes after result {t.result_predicate.name}"))
    return ValidationReport(tuple(out))


class UnknownIdentifierError(Exception):
    pass


def syntactic_class(t: Term, ds: DataSystem) -> str:
    """Smallest of the classes 'data' < 'base' < 'program' containing t.
    Checked by tests/test_system.py::test_syntactic_class."""
    cls = "data"
    stack = [t]
    while stack:
        u = stack.pop()
        if isinstance(u, Con):
            c = ds.constructor(u.name)
            if c is None:
                raise UnknownIdentifierError(f"unknown constructor '{u.name}'")
            if c.arity != len(u.args):
                raise UnknownIdentifierError(
                    f"constructor '{u.name}' used with {len(u.args)} arguments, arity is {c.arity}")
        elif isinstance(u, Var):
            if cls == "data":
                cls = "base"
        elif isinstance(u, Fun):
            cls = "program"
        stack.extend(u.args)
    return cls


# ---------------------------------------------------------------------------
# Regular coterms: possibly-infinite constructor trees with finitely many
# distinct subtrees, as finite cyclic graphs.  A child may also be a named
# reference to another environment binding (resolved by the eval session).
# Nodes and coterms are hash-consed, as terms are: equal ones are one object.
# ---------------------------------------------------------------------------

class CotermNode(Interned):
    __slots__ = ("constructor", "children")

    def __new__(cls, constructor: str, children: tuple[object, ...] = ()):
        # each child: int (node index) or str (binding ref)
        return _intern((cls, constructor, children))


class RegularCoterm(Interned):
    __slots__ = ("nodes", "entry")

    def __new__(cls, nodes: tuple[CotermNode, ...], entry: int = 0):
        return _intern((cls, nodes, entry))

    def validate(self, ds: DataSystem) -> ValidationReport:
        out: list[Violation] = []
        for i, n in enumerate(self.nodes):
            c = ds.constructor(n.constructor)
            if c is None:
                out.append(Violation("unknown-constructor", f"node {i}: unknown constructor '{n.constructor}'"))
            elif c.arity != len(n.children):
                out.append(Violation(
                    "bad-out-degree",
                    f"node {i}: constructor '{n.constructor}' has arity {c.arity}, node has {len(n.children)} children"))
            for ch in n.children:
                if isinstance(ch, int) and not (0 <= ch < len(self.nodes)):
                    out.append(Violation("dangling-child", f"node {i}: child index {ch} out of range"))
        if not (0 <= self.entry < len(self.nodes)):
            out.append(Violation("bad-entry", f"entry {self.entry} out of range"))
        return ValidationReport(tuple(out))


def stream_coterm(bits: list[int], loop_to: int) -> RegularCoterm:
    """Regular boolean stream: emits `bits`, then loops back to position
    `loop_to`.  Node layout: leaf nodes for the bit constants first, then
    one cons node per position."""
    nodes: list[CotermNode] = [CotermNode("0"), CotermNode("1")]
    base = 2
    k = len(bits)
    if not (0 <= loop_to < k):
        raise ValueError("loop_to out of range")
    for i, b in enumerate(bits):
        nxt = base + (i + 1 if i + 1 < k else loop_to)
        nodes.append(CotermNode("cons", (b, nxt)))
    return RegularCoterm(tuple(nodes), entry=base)


def random_stream_coterm(rng) -> RegularCoterm:
    """Seeded random regular boolean stream: a cyclic list of one to six
    cons nodes."""
    n = rng.randint(1, 6)
    bits = [rng.randint(0, 1) for _ in range(n)]
    return stream_coterm(bits, rng.randrange(n))


_YES = "yes"
_NO = "no"
_YES_UPTO = "yes-up-to-depth"
_RANK = {_NO: 0, _YES_UPTO: 1, _YES: 2}


def canonical_member(ds: DataSystem, pred: DataPredicate, v: RegularCoterm,
                     depth: int) -> str:
    """Membership of a regular coterm in the canonical model of a predicate.

    Inductive predicates are decided exactly on well-founded spines (cycles
    through inductive positions mean 'no'); coinductive predicates check the
    constructor/typing discipline along every path down to `depth` and answer
    at best 'yes-up-to-depth'.  Checked against a least-fixpoint oracle by
    tests/test_system.py::test_inductive_membership_agrees_with_enumeration.
    """
    return _run(_member(ds, v, set(), v.entry, pred, depth))


def _member(ds: DataSystem, v: RegularCoterm, on_stack: set[tuple[int, str]],
            i: object, p: DataPredicate, d: int):   # run by _run, so any depth decides
    """Membership of node i of v in p to depth d; `on_stack` holds the (node,
    predicate) pairs being decided, for the least-fixpoint reading."""
    if isinstance(i, str):
        # Cross-binding reference: not resolvable here; treat as an
        # unverified leaf (membership only up to this point).
        return _YES_UPTO
    assert isinstance(i, int)
    key = (i, p.name)
    if p.inductive and key in on_stack:
        return _NO  # infinite descent through an inductive position
    if not p.inductive and d <= 0:
        return _YES_UPTO
    node, result = v.nodes[i], _NO
    if p.inductive:
        on_stack.add(key)
    for t in ds.types_of(node.constructor):
        if t.result_predicate != p:
            continue
        acc = _YES
        for child, ep in zip(node.children, t.argument_predicates):
            nd = d if p.inductive else d - 1
            acc = min(acc, (yield _member(ds, v, on_stack, child, ep, nd)), key=_RANK.get)
            if acc == _NO:
                break
        if not p.inductive and acc == _YES:
            # Coinductive membership is never certified outright.
            acc = _YES_UPTO
        result = max(result, acc, key=_RANK.get)
        if result == _YES:
            break
    on_stack.discard(key)
    return result


# ---------------------------------------------------------------------------
# The running example systems.
# ---------------------------------------------------------------------------

def boolean_stream_system() -> DataSystem:
    """Booleans (inductive, from 0 and 1) plus streams of booleans
    (coinductive, cons : B * S -> S)."""
    zero = Constructor("0", 0)
    one = Constructor("1", 0)
    cons = Constructor("cons", 2)
    b = DataPredicate("B", Kind.INDUCTIVE, 0)
    s = DataPredicate("S", Kind.COINDUCTIVE, 1)
    return DataSystem(
        vocabulary=(zero, one, cons),
        predicates=(b, s),
        types=(
            ConstructorType(zero, (), b),
            ConstructorType(one, (), b),
            ConstructorType(cons, (b, s), s),
        ),
    )
