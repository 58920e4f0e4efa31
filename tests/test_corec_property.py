"""Property: compile ∘ recognize is a fixpoint on every data system.  On
random well-sorted programs over `Sm`, the word system, colists and the
mixed example system, in stream, selector and explicit-dispatch shape with
compositions, every accepted program p has recognize(compile(p)) equal to
recognize(p), compile idempotent, and p and compile(p) observationally
equal at depth 32 on random regular inputs."""
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from helpers import (COLIST, MIXED, SHAPES, SM, WORD, ProgramGenerator,
                     compile_roundtrip, random_coterm)

from coeq.corec import bundle_equal, check_primitive_corecursive
from coeq.evaluation import DiagramEnv, derives_omega
from coeq.extract import _rename_functions
from coeq.program import assemble_program, reserved_function
from coeq.terms import Fun

PROPERTY_SYSTEMS = [("Sm", SM, "S"), ("word", WORD, "W"), ("colist", COLIST, "L"),
                    ("mixed", MIXED, "J"), ("mixed", MIXED, "S")]
PROPERTY_CASES = [(name, ds, ds.predicate(p), shape)
                  for name, ds, p in PROPERTY_SYSTEMS for shape in SHAPES
                  if shape != "selector" or len(ds.constructors_of(ds.predicate(p))) > 1]


@pytest.mark.parametrize("name, ds, pred, shape", PROPERTY_CASES,
                         ids=[f"{c[0]}-{c[2].name}-{c[3]}" for c in PROPERTY_CASES])
@hypothesis.settings(max_examples=30, deadline=None, derandomize=True, database=None)
@hypothesis.given(rng=st.randoms(use_true_random=False))
def test_compile_of_recognize_is_a_fixpoint(name, ds, pred, shape, rng):
    """On every accepted random program p: recognize(compile(p)) equals
    recognize(p), compile is idempotent, and p and compile(p) agree to
    depth 32 on random regular inputs."""
    program = ProgramGenerator(rng, ds, pred).program(shape)
    if not check_primitive_corecursive(program, ds).accepted:
        hypothesis.event("rejected")
        return
    hypothesis.event("accepted")
    v1, compiled, v2, again = compile_roundtrip(program, ds)
    assert bundle_equal(v1.bundle, v2.bundle)
    assert again == compiled
    renamed = _rename_functions(compiled, "_c", ds)
    both = assemble_program(ds, [e for p in (program, renamed) for e in p.body
                                 if not reserved_function(e.function)],
                            program.principal)
    names = [f"in{i}" for i in range(program.arity)]
    for _ in range(2):
        env = DiagramEnv.of({n: random_coterm(rng, ds, pred) for n in names})
        args = tuple(Fun(n) for n in names)
        r = derives_omega(both, env, Fun(program.principal, args),
                          Fun(renamed.principal, args), 32, ds=ds)
        assert r.equal, (r, env)
