"""Acceptance suite: the ten workbench-level criteria.

Each test prints one PASS line when its criterion holds at the stated
tolerance; run with `pytest -s tests/test_acceptance.py` to see them.
"""
import random
import time

from helpers import (SM, ONE, ZERO, alternating_stream, approx_bits,
                     bisim_b_program, cons, flip_env, flip_program, fn,
                     nat_program, random_stream, stream_coterm, stream_prefix,
                     v)

from coeq.corec import (check_primitive_corecursive, compile_schema,
                        morse_thue_program, stock_library)
from coeq.evaluation import (DiagramEnv, Session, Stalled, derives_omega,
                             first_stall, restrict)
from coeq.extract import roundtrip_report
from coeq.formulas import (Derivation, EqAtom, Exists, and_intro, assume, build_dcm,
                           coinduction, data_intro, ex_intro, refl, subst_formula)
from coeq.logic import assert_sp_proof, check_proof, has_detour, normalize
from coeq.program import assemble_program
from coeq.prove import prove_corec
from coeq.realize import (even_term, merge_term, odd_term, split_term,
                          with_algebra)
from coeq.system import random_stream_coterm
from coeq.terms import Con, Fun, Var

ZERO_T = SM.types[0]


def report(n: int, text: str) -> None:
    print(f"ACCEPTANCE {n}: PASS — {text}")


def test_criterion_1_flip_example():
    t0 = time.time()
    r = derives_omega(flip_program(), flip_env(), fn("flip", fn("v_a")),
                      fn("v_b"), 32, ds=SM)
    elapsed = time.time() - t0
    assert r.equal, r
    assert elapsed < 1.0, f"{elapsed:.3f}s"
    report(1, f"bisim flip(v_a) v_b --depth 32 equal-up-to-depth in {elapsed:.3f}s")


def test_criterion_2_divergence_example():
    t0 = time.time()
    prog, nat = nat_program()
    sess = Session(prog, nat)
    a1 = sess.observe(fn("f", Con("s", (Con("0"),))), 1, budget=10_000)
    assert isinstance(a1, Stalled) and a1.reason.kind == "no-matching-equation"
    a2 = Session(prog, nat).observe(
        fn("f", Con("s", (Con("s", (Con("0"),)),))), 1, budget=10_000)
    assert isinstance(a2, Stalled) and a2.reason.kind == "budget-exhausted"
    assert a2.reason.steps == 10_000
    elapsed = time.time() - t0
    assert elapsed < 1.0, f"{elapsed:.3f}s"
    report(2, f"f(s 0) no-matching-equation, f(s(s 0)) budget-exhausted@10^4 "
              f"in {elapsed:.3f}s")


def test_criterion_3_productivity_verdicts():
    lib = stock_library()
    accepted = {"flip", "even", "odd", "merge", "ident", "zeros", "ones"}
    for name in accepted:
        verdict = check_primitive_corecursive(lib[name].program, SM)
        assert verdict.accepted, f"{name}: {verdict.reason}"
    mt = check_primitive_corecursive(morse_thue_program(), SM)
    assert not mt.accepted
    assert "recursive occurrence under non-component context" in mt.reason
    assert "merge(mt, notf(mt))" in mt.reason
    report(3, "accepts flip/even/odd/merge/ident/constants; rejects the "
              "cumulative definition naming the illegal position")


def test_criterion_4_productivity_soundness_sweep():
    t0 = time.time()
    rng = random.Random(424242)
    lib = stock_library()
    checked = 0
    for name, entry in lib.items():
        verdict = check_primitive_corecursive(entry.program, SM)
        assert verdict.accepted, name
        for _ in range(100):
            names = [f"u{i}" for i in range(entry.arity)]
            env = DiagramEnv.of({n: random_stream_coterm(rng) for n in names})
            sess = Session(entry.program, SM, env)
            t = Fun(entry.name, tuple(Fun(n) for n in names))
            a = sess.observe(t, 64, budget=100_000)
            assert first_stall(a) is None, (name, first_stall(a))
            checked += 1
    elapsed = time.time() - t0
    assert elapsed < 60.0, f"{elapsed:.1f}s"
    report(4, f"{checked} observations to depth 64 (budget 10^5), no stalls, "
              f"{elapsed:.1f}s")


def test_criterion_5_bounding_condition_guard():
    phi = EqAtom(v("x"), v("x"))
    # missing decomposition premise
    missing = Derivation("coinduction", __import__("coeq.logic", fromlist=["DataAtom"]).DataAtom("S", v("t")),
                         (refl(v("t")),),
                         (("pred", "S"), ("var", "x"), ("formula", phi),
                          ("label", "w")))
    res1 = check_proof(SM, flip_program(), missing)
    assert not res1.ok
    # fabricated decomposition premise: the equation x = cons(0, w) is
    # presented by a reflexivity node, which the kernel refuses
    dcm_formula = build_dcm(SM, "S", phi, "x", "x")
    fake_eq = Derivation("refl", EqAtom(v("x"), cons(ZERO, v("w"))))
    body = and_intro(data_intro(ZERO_T, ()),
                     and_intro(refl(v("w")), fake_eq))
    inner = dcm_formula.body
    step1 = ex_intro("z1", subst_formula(inner, {"z0": ZERO}).body, v("w"), body)
    fake_dcm = ex_intro("z0", inner, ZERO, step1)
    assert fake_dcm.conclusion == dcm_formula
    fabricated = coinduction("S", "x", phi, v("t"), "w", refl(v("t")), fake_dcm)
    res2 = check_proof(SM, flip_program(), fabricated)
    assert not res2.ok
    assert any("reflexivity" in str(viol) for viol in res2.violations)
    report(5, "coinduction without the decomposition premise rejected; "
              "fabricated premise rejected at its bogus node")


def test_criterion_6_lemma_1_at_desk_scale():
    lib = stock_library()
    for name, entry in lib.items():
        verdict = check_primitive_corecursive(entry.program, SM)
        compiled = compile_schema(verdict.bundle, SM)
        d = prove_corec(verdict.bundle, SM)
        n = normalize(d)
        res = check_proof(SM, compiled, n)
        assert res.ok, (name, res.violations[:2])
        assert not has_detour(n), name
        assert assert_sp_proof(n) is None, name
    report(6, f"all {len(lib)} generated proofs normalize, re-check, and "
              f"scan strongly positive")


def test_criterion_7_theorem_2_roundtrip():
    t0 = time.time()
    rep = roundtrip_report(depth=64, inputs_per_entry=10, seed=20240817)
    elapsed = time.time() - t0
    assert len(rep.entries) >= 7
    assert rep.ok, rep.render()
    assert elapsed < 300.0, f"{elapsed:.1f}s"
    report(7, f"roundtrip over {len(rep.entries)} entries at depth 64 "
              f"(10 inputs each) in {elapsed:.1f}s")


def test_criterion_8_split_merge_algebra():
    rng = random.Random(11111)
    lib = stock_library()
    base = lib["ident"].program
    for _ in range(200):
        sigma, tau = random_stream(rng), random_stream(rng)
        env = DiagramEnv.of({"s": sigma, "t": tau})
        alg = Session(with_algebra(base, SM), SM, env)
        s, t = fn("s"), fn("t")
        assert derives_omega(alg.program, None, merge_term(even_term(s), odd_term(s)), s, 64,
                             session=alg).equal
        assert derives_omega(alg.program, None, even_term(merge_term(s, t)), s, 64,
                             session=alg).equal
        assert derives_omega(alg.program, None, odd_term(merge_term(s, t)), t, 64,
                             session=alg).equal
    rng2 = random.Random(2222)
    for _ in range(20):
        sigma = random_stream(rng2)
        bits = stream_prefix(sigma, 16)
        env = DiagramEnv.of({"s": sigma})
        alg = Session(with_algebra(base, SM), SM, env)
        for i in range(4):
            got = approx_bits(alg.observe(split_term(fn("s"), i), 1))
            assert got == [bits[2 ** i - 1]], i
    report(8, "merge/even/odd laws on 200 seeded streams to depth 64; "
              "split heads match positional brute force for i <= 3")


def test_criterion_9_bisimulation_program_b():
    a = alternating_stream()
    env = DiagramEnv.of({"a": a})
    sess = Session(bisim_b_program(), SM, env)
    out = sess.observe(fn("b", fn("a"), fn("a")), 32, budget=10_000)
    assert first_stall(out) is None
    assert approx_bits(out) == stream_prefix(a, 32)
    bits = stream_prefix(a, 4)
    bprime = stream_coterm(bits[:3] + [1 - bits[3]] + [0, 1], loop_to=4)
    env2 = DiagramEnv.of({"a": a, "bp": bprime})
    sess2 = Session(bisim_b_program(), SM, env2)
    out2 = sess2.observe(fn("b", fn("a"), fn("bp")), 32, budget=10_000)
    stall = first_stall(out2)
    assert stall is not None
    path, leaf = stall
    assert leaf.depth == 3
    assert leaf.reason.kind == "no-matching-equation"
    report(9, "b(a,a) productive to depth 32 and equal to a; "
              "b(a,b') stalls at observation depth 3")


def _consistency_corpus():
    lib = stock_library()
    rng = random.Random(5150)
    cases = []
    for name, entry in lib.items():
        names = [f"u{i}" for i in range(entry.arity)]
        env = DiagramEnv.of({n: random_stream_coterm(rng) for n in names})
        cases.append((entry.program, env,
                      Fun(entry.name, tuple(Fun(n) for n in names))))
    prog, nat = nat_program()
    cases.append((prog, None, fn("f", Con("s", (Con("0"),)))))
    cases.append((prog, None, fn("f", Con("0"))))
    a = alternating_stream()
    bits = stream_prefix(a, 4)
    bprime = stream_coterm(bits[:3] + [1 - bits[3]] + [0, 1], loop_to=4)
    env_b = DiagramEnv.of({"a": a, "bp": bprime})
    cases.append((bisim_b_program(), env_b, fn("b", fn("a"), fn("a"))))
    cases.append((bisim_b_program(), env_b, fn("b", fn("a"), fn("bp"))))
    cases.append((flip_program(), flip_env(), fn("flip", fn("v_a"))))
    return cases, [SM] * len(cases)


def test_criterion_10_approximation_consistency():
    cases, _ = _consistency_corpus()
    prog_nat, nat = nat_program()
    for prog, env, t in cases:
        ds = nat if prog.principal == "f" else SM
        for d in range(0, 32):
            deep = Session(prog, ds, env).observe(t, d + 1, budget=2_000)
            shallow = Session(prog, ds, env).observe(t, d, budget=2_000)
            assert restrict(deep, d) == shallow, (prog.principal, d)
    report(10, f"observe(d+1)|d == observe(d) for d in 0..31 across "
               f"{len(cases)} corpus cases")
