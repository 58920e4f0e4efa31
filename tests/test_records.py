"""coeq's record classes against the dataclasses they replace.

Every record is a `coeq.terms.Record`: importing coeq generates no code,
so it loads neither `dataclasses` nor `inspect`.  The table below is each
record's constructor as the dataclass declared it (a default factory shows
as None).  For each, a reference dataclass with the same fields is built
here, and the record must match it in repr, equality, hash and
(im)mutability.  Terms, formulas, coterm nodes, coterms and the
extractor's symbolic realizers are hash-consed (`coeq.terms.Interned`), so
their hash is by identity: two of them built alike are one object."""
import ast
import dataclasses
import gc
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

from coeq.formulas import And, DataAtom, Or
from coeq.logic import ProofViolation
from coeq.terms import Con, Fun, Interned, Record, Tree, Var

SRC = Path(__file__).resolve().parent.parent / "src"

# (module, class, constructor parameters, frozen)
RECORDS = [
    ("terms", "Var", "name", True),
    ("terms", "Con", "name args=()", True),
    ("terms", "Fun", "name args=()", True),
    ("formulas", "DataAtom", "predicate term", True),
    ("formulas", "EqAtom", "left right", True),
    ("formulas", "And", "left right", True),
    ("formulas", "Or", "left right", True),
    ("formulas", "Imp", "left right", True),
    ("formulas", "Exists", "var body", True),
    ("formulas", "Forall", "var body", True),
    ("formulas", "Derivation", "rule conclusion premises=() attrs=()", True),
    ("logic", "ProofViolation", "path message", True),
    ("logic", "CheckResult", "ok conclusion assumptions violations", False),
    ("system", "Constructor", "name arity", True),
    ("system", "DataPredicate", "name kind index", True),
    ("system", "ConstructorType", "constructor argument_predicates result_predicate", True),
    ("system", "DataSystem", "vocabulary predicates types", True),
    ("system", "Violation", "code message", True),
    ("system", "ValidationReport", "violations=()", True),
    ("system", "CotermNode", "constructor children=()", True),
    ("system", "RegularCoterm", "nodes entry=0", True),
    ("evaluation", "GeneratorBinding", "program args=()", True),
    ("evaluation", "DiagramEnv", "bindings=()", True),
    ("evaluation", "StallReason", "kind steps=None", True),
    ("evaluation", "ApproxNode", "constructor children depth", True),
    ("evaluation", "Cut", "depth", True),
    ("evaluation", "Stalled", "term reason depth", True),
    ("evaluation", "OmegaResult", "status path=() reason=None", True),
    ("program", "Equation", "function patterns rhs", True),
    ("program", "Program", "body principal arity", True),
    ("program", "Compatibility", "compatible witness=None", True),
    ("program", "DeepDestructor", "path", True),
    ("corec", "Component", "arity term", True),
    ("corec", "PlainSlot", "component", True),
    ("corec", "RecSlot", "target args", True),
    ("corec", "SchemaFun", "name arity slots produced=None selector=None", True),
    ("corec", "CorecSchema", "functions", True),
    ("corec", "CompositionDef", "name arity component", True),
    ("corec", "CorecBundle", "strata principal", True),
    ("corec", "ProductivityVerdict", "accepted bundle=None reason=None offending=None", True),
    ("corec", "StockEntry", "name program arity description", True),
    ("realize", "RealizabilityJudgment",
     "program ds env eta realizer formula depth budget=10000", True),
    ("realize", "RealizeResult", "status path=() detail=''", True),
    ("realize", "Pair", "head rest", True),
    ("realize", "ConsR", "head_term tail", True),
    ("realize", "Case", "bit left right", True),
    ("prove", "ProofTemplate", "arg_sorts result_sort derivation", True),
    ("extract", "_State", "skel params bit=None succ=() nxt=None", False),
    ("extract", "ExtractionCertificate", "lines=None split_chain=0 coinductions=0", False),
    ("extract", "ExtractionResult",
     "bundle program value_params realizer_params certificate", False),
    ("extract", "StageResult", "stage ok detail=''", False),
    ("extract", "RoundtripReport", "depth entries", False),
    ("reader", "Workspace", "system=None system_name='' programs=None envs=None proofs=None",
     False),
]


def _params(spec: str) -> list[tuple[str, object]]:
    """(name, default or inspect.Parameter.empty) for each parameter."""
    out = []
    for p in spec.split():
        name, eq, default = p.partition("=")
        out.append((name, ast.literal_eval(default) if eq else inspect.Parameter.empty))
    return out


def _record_classes() -> set[type]:
    """Every Record subclass that nothing in coeq subclasses further."""
    for module in {m for m, *_ in RECORDS}:
        importlib.import_module(f"coeq.{module}")
    out, todo = set(), [Record]
    while todo:
        cls = todo.pop()
        subs = [c for c in cls.__subclasses__() if c.__module__.startswith("coeq.")]
        todo += subs
        if not subs and cls._fields:
            out.add(cls)
    return out


def test_importing_coeq_loads_neither_dataclasses_nor_inspect():
    code = ("import sys, coeq, coeq.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"


def test_the_table_covers_every_record_class():
    assert {(c.__module__, c.__name__) for c in _record_classes()} == \
        {(f"coeq.{m}", name) for m, name, *_ in RECORDS}


@pytest.mark.parametrize("module, name, spec, frozen", RECORDS,
                         ids=[name for _m, name, *_ in RECORDS])
def test_a_record_behaves_as_the_dataclass_it_replaces(module, name, spec, frozen):
    cls = getattr(importlib.import_module(f"coeq.{module}"), name)
    params = _params(spec)
    sig = inspect.signature(cls)
    assert [(p.name, p.default) for p in sig.parameters.values()] == params
    assert cls._fields == tuple(p for p, _ in params)

    ref = dataclasses.make_dataclass(name, [(p, object) for p, _ in params], frozen=frozen)
    values = [f"{p}-{i}" for i, (p, _) in enumerate(params)]
    other = values[:-1] + [("another", 1)]
    a, b, c = cls(*values), cls(*values), cls(*other)
    ra, rb, rc = ref(*values), ref(*values), ref(*other)

    assert repr(a) == repr(ra) and repr(c) == repr(rc)
    assert (a == b, a == c, a != c) == (ra == rb, ra == rc, ra != rc) == (True, False, True)
    assert a.__eq__(values[0]) is NotImplemented and a != values[0]
    twin = type("Twin", (cls,), {"__slots__": ()})(*values)   # same fields, another class
    rtwin = type("Twin", (ref,), {})(*values)
    assert (a == twin, twin == a) == (ra == rtwin, rtwin == ra) == (False, False)
    if frozen:
        if issubclass(cls, Interned):   # built alike, one object
            assert a is b and hash(a) == hash(b) and c is not a
        elif issubclass(cls, Tree):   # hashes the root's own fields, not its premises'
            assert hash(a) == hash(b)
        else:
            assert hash(a) == hash(b) == hash(ra) and hash(c) == hash(rc)
        for obj in (a, ra):
            with pytest.raises(AttributeError):
                setattr(obj, params[0][0], "changed")
            with pytest.raises(AttributeError):
                delattr(obj, params[0][0])
        assert getattr(a, params[0][0]) == values[0]
    else:
        assert type(a).__hash__ is None and type(ra).__hash__ is None
        with pytest.raises(TypeError):
            hash(a)
        setattr(a, params[0][0], "changed")
        setattr(ra, params[0][0], "changed")
        assert repr(a) == repr(ra)


@pytest.mark.parametrize("left, right", [
    (Con("0"), Fun("0")),
    (Fun("f", (Var("x"),)), Con("f", (Var("x"),))),
    (And(DataAtom("S", Var("x")), DataAtom("B", Var("y"))),
     Or(DataAtom("S", Var("x")), DataAtom("B", Var("y")))),
], ids=["con-fun", "fun-con", "and-or"])
def test_records_of_two_classes_with_equal_fields_differ(left, right):
    assert left != right and right != left


def test_records_of_every_two_classes_with_the_same_fields_differ():
    """Any two record classes, given the same values for the same fields,
    build unequal records."""
    by_fields: dict[tuple[str, ...], list[type]] = {}
    for cls in _record_classes():
        by_fields.setdefault(cls._fields, []).append(cls)
    pairs = 0
    for fields, classes in by_fields.items():
        values = [f"{f}-{i}" for i, f in enumerate(fields)]
        built = [cls(*values) for cls in classes]
        for i, x in enumerate(built):
            for y in built[i + 1:]:
                assert x != y and y != x
                pairs += 1
    assert pairs >= 8   # EqAtom, And, Or and Imp; Con and Fun; Exists and Forall


def test_a_program_keeps_its_validation_reports_on_the_instance():
    """Program is the one record with a __dict__: validate_program caches
    its reports there.  The cache is not a field."""
    from helpers import SM, flip_program
    from coeq.program import validate_program
    p = flip_program()
    assert validate_program(p, SM) is validate_program(p, SM)
    assert "_reports" in p.__dict__ and "_reports" not in repr(p)
    assert p == flip_program() and hash(p) == hash(flip_program())


def test_terms_and_formulas_are_hash_consed_at_any_depth():
    """A 10,000-deep term or formula built twice is one object, and it hashes
    and goes in a set without walking its depth.  The intern table holds
    its records weakly: a term nothing else holds leaves it."""
    def cons_chain():
        t = Var("x")
        for _ in range(10_000):
            t = Con("cons", (Con("0"), t))
        return t

    def or_chain():
        f = DataAtom("S", Var("x"))
        for _ in range(10_000):
            f = Or(DataAtom("B", Var("y")), f)
        return f

    for build in (cons_chain, or_chain):
        a, b = build(), build()
        assert hash(a) == hash(b) and {a, b} == {a} and a is b

    from coeq.terms import _interned
    key = (Fun, "dropped", (Var("x"),))
    t = Fun("dropped", (Var("x"),))
    assert _interned[key] is t
    del t
    gc.collect()
    assert key not in _interned


def test_a_term_and_a_formula_three_thousand_deep_print_as_records():
    """Record's repr walks nested records, tuples and lists on an explicit
    stack, in the dataclass text: any depth."""
    t, f = Var("x"), DataAtom("S", Var("x"))
    for _ in range(3_000):
        t, f = Con("s", (t,)), Or(DataAtom("B", Var("y")), f)
    assert repr(t) == "Con(name='s', args=(" * 3_000 + "Var(name='x')" + ",))" * 3_000
    assert repr(f) == ("Or(left=DataAtom(predicate='B', term=Var(name='y')), right=" * 3_000
                       + "DataAtom(predicate='S', term=Var(name='x'))" + ")" * 3_000)
    value = ([Con("0"), ()], (Var("x"),), [])
    ref = dataclasses.make_dataclass("ProofViolation", ["path", "message"])
    assert repr(ProofViolation((), value)) == repr(ref((), value))
