"""Properties of observing productive programs.  On random programs the
recognizer accepts, over `Sm` (stream and dispatch shape), the word system
(stream and selector) and the mixed example system's `J` (stream and
selector), and on the compile of each, with random regular inputs:

- observation to depth 256 never stalls, and costs at most 4.2 times the
  steps of observation to depth 64 (linear cost gives at most 4);
- restricting the observation to depth d+1 to depth d gives the
  observation to depth d, for d from 0 to 11 (criterion 10 on generated
  programs).

Each observation has a fresh session."""
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from helpers import MIXED, SM, WORD, ProgramGenerator, compile_roundtrip, random_coterm

from coeq.corec import check_primitive_corecursive
from coeq.evaluation import DiagramEnv, Session, first_stall, restrict
from coeq.terms import Fun

STEPS_CASES = [(name, ds, ds.predicate(p), shape)
               for name, ds, p, shapes in (("Sm", SM, "S", ("stream", "dispatch")),
                                           ("word", WORD, "W", ("stream", "selector")),
                                           ("mixed", MIXED, "J", ("stream", "selector")))
               for shape in shapes]


CASES = pytest.mark.parametrize("name, ds, pred, shape", STEPS_CASES,
                                ids=[f"{c[0]}-{c[2].name}-{c[3]}" for c in STEPS_CASES])
DRAWS = hypothesis.settings(max_examples=10, deadline=None, derandomize=True, database=None)


def _draw(rng, ds, pred, shape):
    """A drawn program the recognizer accepts, its compile and random
    regular inputs; None if it rejects the program."""
    program = ProgramGenerator(rng, ds, pred).program(shape)
    if not check_primitive_corecursive(program, ds).accepted:
        hypothesis.event("rejected")
        return None
    _, compiled, _, _ = compile_roundtrip(program, ds)
    env = DiagramEnv.of({f"in{i}": random_coterm(rng, ds, pred)
                         for i in range(program.arity)})
    return (program, compiled), env


def _observe(program, ds, env, depth):
    """The principal applied to the inputs, observed in a fresh session."""
    sess = Session(program, ds, env)
    return sess, sess.observe(Fun(program.principal, tuple(Fun(n) for n in env.names())), depth)


def _observation_steps(program, ds, env, depth):
    sess, approx = _observe(program, ds, env, depth)
    assert first_stall(approx) is None, (depth, first_stall(approx))
    return sess.k.steps_total


@CASES
@DRAWS
@hypothesis.given(rng=st.randoms(use_true_random=False))
def test_observation_steps_grow_at_most_linearly_in_depth(name, ds, pred, shape, rng):
    drawn = _draw(rng, ds, pred, shape)
    if drawn is None:
        return
    programs, env = drawn
    for p in programs:
        steps = [_observation_steps(p, ds, env, depth) for depth in (64, 256)]
        hypothesis.event("constant" if steps[0] == steps[1] else "linear")
        assert steps[1] <= 4.2 * steps[0], steps


@CASES
@DRAWS
@hypothesis.given(rng=st.randoms(use_true_random=False))
def test_restricting_an_observation_to_one_less_depth_gives_that_depth(name, ds, pred,
                                                                      shape, rng):
    drawn = _draw(rng, ds, pred, shape)
    if drawn is None:
        return
    programs, env = drawn
    for p in programs:
        for d in range(12):
            _, deep = _observe(p, ds, env, d + 1)
            _, shallow = _observe(p, ds, env, d)
            assert restrict(deep, d) == shallow, (p.principal, d)
