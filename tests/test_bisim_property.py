"""Property: wherever no forcing runs out of budget, the lockstep pair walk
of `derives_omega` reaches the verdict of observing both terms in full and
comparing the two trees breadth first, and spends no more rewrite steps.

The oracle `_diff` is that comparison, as `derives_omega` made it before it
walked pairs of kernel terms: it reports the first pair of approximations,
in breadth-first order, where either side stalled (the left side's reason
first) or the head constructors differ, and passes over cuts.  Terms are
expressions over the stock stream functions, the pointwise-equality
program `b` (which stalls where its inputs differ) and two random regular
inputs.  Small budgets make sides stall part way; the two strategies force
terms in different orders, so they find different things in the memo
table, and a budget that runs out can end them differently."""
from collections import deque

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from helpers import SM, bisim_b_program

from coeq.corec import stock_library
from coeq.kernel import STALL_BUDGET
from coeq.evaluation import (EQUAL, ApproxNode, Approximation, Cut, DiagramEnv,
                             OmegaResult, Session, Stalled, derives_omega)
from coeq.program import assemble_program
from coeq.system import stream_coterm
from coeq.terms import Fun


def _diff(a: Approximation, b: Approximation) -> OmegaResult:
    queue: deque[tuple[tuple[int, ...], Approximation, Approximation]] = deque([((), a, b)])
    while queue:
        path, x, y = queue.popleft()
        if isinstance(x, Stalled) or isinstance(y, Stalled):
            reason = x.reason if isinstance(x, Stalled) else y.reason
            return OmegaResult("stalled", path, reason)
        if isinstance(x, Cut) or isinstance(y, Cut):
            continue
        assert isinstance(x, ApproxNode) and isinstance(y, ApproxNode)
        if x.constructor != y.constructor:
            return OmegaResult("differs", path)
        for i, (cx, cy) in enumerate(zip(x.children, y.children)):
            queue.append((path + (i + 1,), cx, cy))
    return EQUAL


def _union_program():
    seen, eqs = set(), []
    programs = [e.program for e in stock_library().values()] + [bisim_b_program()]
    for prog in programs:
        for e in prog.body:
            if str(e) not in seen:
                seen.add(str(e))
                eqs.append(e)
    return assemble_program(SM, eqs, "ident")


PROGRAM = _union_program()
ARITY = {e.name: e.arity for e in stock_library().values()} | {"b": 2}
LEAVES = ("in0", "in1") + tuple(f for f, n in ARITY.items() if n == 0)
CALLS = tuple(f for f, n in ARITY.items() if n > 0)


def _e(f, *args):
    return Fun(f, tuple(Fun(a) if isinstance(a, str) else a for a in args))


# The stream laws and non-laws the benchmark checks.
LAWS = (
    (_e("merge", _e("even", "in0"), _e("odd", "in0")), Fun("in0")),
    (_e("even", _e("merge", "in0", "in1")), Fun("in0")),
    (_e("odd", _e("merge", "in0", "in1")), Fun("in1")),
    (_e("flip", _e("flip", "in0")), Fun("in0")),
    (_e("zipxor", "in0", "in0"), Fun("zeros")),
    (_e("zipxor", _e("zipxor", "in0", "in1"), "in1"), Fun("in0")),
    (_e("flip", "in0"), Fun("in0")),
    (_e("even", "in0"), _e("odd", "in0")),
    (_e("merge", "in0", "in1"), _e("merge", "in1", "in0")),
    (_e("b", "in0", "in1"), Fun("in0")),
)


@st.composite
def exprs(draw, depth=2):
    if depth == 0 or draw(st.booleans()):
        return Fun(draw(st.sampled_from(LEAVES)))
    f = draw(st.sampled_from(CALLS))
    return Fun(f, tuple(draw(exprs(depth - 1)) for _ in range(ARITY[f])))


@st.composite
def streams(draw):
    bits = draw(st.lists(st.integers(0, 1), min_size=1, max_size=6))
    return stream_coterm(bits, draw(st.integers(0, len(bits) - 1)))


PAIRS = st.one_of(st.sampled_from(LAWS), st.tuples(exprs(), exprs()))
BUDGETS = st.sampled_from((1, 2, 3, 5, 8, 10_000))


def _budget_stalls(session: Session) -> list[int]:
    """The terms whose forcing in `session` runs out of budget, from now on."""
    k, stalls = session.k, []
    head_normalize = k.head_normalize

    def recording(tid, budget):
        out = head_normalize(tid, budget)
        if out[0] == STALL_BUDGET:
            stalls.append(tid)
        return out
    k.head_normalize = recording
    return stalls


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
@hypothesis.given(PAIRS, streams(), streams(), st.integers(0, 64), BUDGETS)
def test_lockstep_walk_agrees_with_comparing_full_observations(pair, in0, in1, depth,
                                                               budget):
    """Same verdict, and no more steps, wherever no forcing runs out of
    budget.  Then every forcing ends in the same head whatever the memo
    holds, and the walk forces a subset of the terms the two observations
    force.  A forcing that runs out of budget leaves only the work of its
    finished subterms in the memo, so its outcome depends on what was
    forced before it, and forcing in another order may stall elsewhere or
    not at all (swapping t and t2 does that as well, with either method)."""
    t, t2 = pair
    env = DiagramEnv.of({"in0": in0, "in1": in1})
    old, new = Session(PROGRAM, SM, env), Session(PROGRAM, SM, env)
    old_stalls, new_stalls = _budget_stalls(old), _budget_stalls(new)
    expected = _diff(old.observe(t, depth, budget), old.observe(t2, depth, budget))
    got = derives_omega(PROGRAM, None, t, t2, depth, budget, session=new)
    hypothesis.event(f"verdict {got.status}")
    if old_stalls or new_stalls:
        hypothesis.event("budget ran out")
    else:
        assert (got.status, got.path, got.reason) == \
            (expected.status, expected.path, expected.reason)
        assert new.k.steps_total <= old.k.steps_total
