"""Odds and ends from the operation contracts that the larger suites do
not already pin down."""
import random

import pytest

from helpers import (SM, ZERO, ONE, alternating_stream, approx_bits, cons,
                     flip_env, flip_program, fn, random_stream, v)

from coeq.cli import main
from coeq.corec import check_primitive_corecursive, compile_schema, stock_library
from coeq.evaluation import DiagramEnv, Session, derives_omega, first_stall
from coeq.extract import extract, roundtrip_report
from coeq.formulas import DataAtom, assume
from coeq.logic import check_proof, normalize
from coeq.program import deep_destructor
from coeq.prove import prove_corec
from coeq.realize import RealizabilityJudgment, realizes
from coeq.system import random_stream_coterm
from coeq.terms import Fun, Var


def test_deep_destructor_two_steps_reaches_tail():
    sess = Session(flip_program(), SM, flip_env())
    ctx = deep_destructor([2, 2], SM)
    t = ctx.apply(cons(ZERO, cons(ONE, fn("v_a"))))
    r = derives_omega(flip_program(), None, t, fn("v_a"), 8, session=sess)
    assert r.equal


def test_extract_assumption_only_proof_is_identity():
    d = assume("h1", DataAtom("S", Var("x1")))
    prog = stock_library()["ident"].program
    result = extract(d, prog, SM)
    rng = random.Random(3)
    for _ in range(5):
        env = DiagramEnv.of({"u": random_stream_coterm(rng)})
        sess = Session(result.program, SM, env)
        lhs = Fun(result.principal, (fn("u"), fn("u")))
        r = derives_omega(result.program, env, lhs, fn("u"), 32, session=sess)
        assert r.equal


def test_verdict_report_names_slots():
    entry = stock_library()["even"]
    verdict = check_primitive_corecursive(entry.program, SM)
    text = verdict.report()
    assert "even/1: corecurrence producing 'cons'" in text
    assert "slot 1: g = pi1(x1)" in text
    assert "slot 2: call even (l = 1)" in text


def test_roundtrip_at_depth_zero_is_an_error(capsys):
    """At depth 0 the bisimulation stage compares nothing, so it cannot
    pass: the report is refused, and `coeq roundtrip` exits 2."""
    with pytest.raises(ValueError, match=r"roundtrip needs depth >= 1 .*\(depth 0,"):
        roundtrip_report(depth=0, inputs_per_entry=1)
    assert main(["roundtrip", "--depth", "0"]) == 2
    assert capsys.readouterr().err.startswith("error: roundtrip needs depth >= 1")


def test_soundness_spot_check_checked_derivations_are_productive():
    """Every generated, checked derivation of S(f(x...)) is matched by a
    stall-free observation of f on regular inputs to depth 32."""
    rng = random.Random(60)
    for name, entry in stock_library().items():
        verdict = check_primitive_corecursive(entry.program, SM)
        compiled = compile_schema(verdict.bundle, SM)
        d = prove_corec(verdict.bundle, SM)
        assert check_proof(SM, compiled, d).ok
        names = [f"u{i}" for i in range(entry.arity)]
        env = DiagramEnv.of({n: random_stream_coterm(rng) for n in names})
        sess = Session(compiled, SM, env)
        t = Fun(entry.name, tuple(Fun(n) for n in names))
        a = sess.observe(t, 32, budget=100_000)
        assert first_stall(a) is None, name


def test_realizability_adequacy_guard():
    """The stream-atom clause is definitional: when realizes holds for
    S(t), the realizer is observationally equal to t."""
    rng = random.Random(61)
    prog = stock_library()["flip"].program
    for _ in range(10):
        ct = random_stream(rng)
        env = DiagramEnv.of({"a": ct})
        sigma = fn("flip", fn("a"))
        j = RealizabilityJudgment.of(prog, SM, env, {}, sigma,
                                     DataAtom("S", Fun("flip", (Fun("a"),))), 8)
        if realizes(j).holds:
            r = derives_omega(prog, env, sigma, Fun("flip", (Fun("a"),)), 8,
                              ds=SM)
            assert r.equal
