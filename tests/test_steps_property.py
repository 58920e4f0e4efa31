"""Property: observing a productive program costs at most linear steps in
depth.  On random programs the recognizer accepts, over `Sm` (stream and
dispatch shape), the word system (stream and selector) and the mixed
example system's `J` (stream and selector), and on the compile of each:
observation to depth 256 on random regular inputs never stalls, and costs
at most 4.2 times the steps of observation to depth 64 (linear cost gives
at most 4).  Each observation has a fresh session."""
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from helpers import MIXED, SM, WORD, ProgramGenerator, compile_roundtrip, random_coterm

from coeq.corec import check_primitive_corecursive
from coeq.evaluation import DiagramEnv, Session, first_stall
from coeq.terms import Fun

STEPS_CASES = [(name, ds, ds.predicate(p), shape)
               for name, ds, p, shapes in (("Sm", SM, "S", ("stream", "dispatch")),
                                           ("word", WORD, "W", ("stream", "selector")),
                                           ("mixed", MIXED, "J", ("stream", "selector")))
               for shape in shapes]


def _observation_steps(program, ds, env, depth):
    sess = Session(program, ds, env)
    args = tuple(Fun(n) for n in env.names())
    approx = sess.observe(Fun(program.principal, args), depth)
    assert first_stall(approx) is None, (depth, first_stall(approx))
    return sess.k.steps_total


@pytest.mark.parametrize("name, ds, pred, shape", STEPS_CASES,
                         ids=[f"{c[0]}-{c[2].name}-{c[3]}" for c in STEPS_CASES])
@hypothesis.settings(max_examples=10, deadline=None, derandomize=True, database=None)
@hypothesis.given(rng=st.randoms(use_true_random=False))
def test_observation_steps_grow_at_most_linearly_in_depth(name, ds, pred, shape, rng):
    program = ProgramGenerator(rng, ds, pred).program(shape)
    if not check_primitive_corecursive(program, ds).accepted:
        hypothesis.event("rejected")
        return
    _, compiled, _, _ = compile_roundtrip(program, ds)
    env = DiagramEnv.of({f"in{i}": random_coterm(rng, ds, pred)
                         for i in range(program.arity)})
    for p in (program, compiled):
        steps = [_observation_steps(p, ds, env, depth) for depth in (64, 256)]
        hypothesis.event("constant" if steps[0] == steps[1] else "linear")
        assert steps[1] <= 4.2 * steps[0], steps
