import itertools
import random

from helpers import (COLIST, MIXED, ONE, SM, WORD, ZERO, cons, fn, flip_program,
                     is_idempotent, term_size, v)

from coeq.program import (DELTA, Equation, Program, assemble_program,
                          check_compatibility, deep_destructor, pi_name,
                          standard_functions, unify, validate_program)
from coeq.terms import Con, Fun, Var, substitute, variables


def test_unify_binds_variable():
    s = unify(v("x"), cons(v("y"), v("z")))
    assert s == {"x": cons(v("y"), v("z"))}


def test_unify_occurs_check():
    assert unify(v("x"), Con("s", (v("x"),))) is None


def test_flip_definiendums_do_not_unify():
    f = flip_program()
    e1, e2 = f.equations_of("flip")
    comp = check_compatibility(e1, e2)
    assert comp.compatible


def test_incompatible_overlap_witness():
    e1 = Equation("f", (v("x"),), ZERO)
    e2 = Equation("f", (Con("s", (v("y"),)),), ONE)
    comp = check_compatibility(e1, e2)
    assert not comp.compatible
    assert comp.witness["x"] == Con("s", (v("y"),))


def test_distinct_functions_compatible():
    e1 = Equation("g", (v("x"),), ZERO)
    e2 = Equation("h", (v("x"),), ONE)
    assert check_compatibility(e1, e2).compatible


def _random_base_term(rng, vars_pool, depth=0):
    r = rng.random()
    if depth >= 3 or r < 0.35:
        if r < 0.18:
            return Con("0")
        return Var(rng.choice(vars_pool))
    if r < 0.7:
        return Con("s", (_random_base_term(rng, vars_pool, depth + 1),))
    return Con("c", (_random_base_term(rng, vars_pool, depth + 1),
                     _random_base_term(rng, vars_pool, depth + 1)))


def _ground_instances(term, carrier):
    vs = sorted(variables(term))
    for combo in itertools.product(carrier, repeat=len(vs)):
        yield substitute(term, dict(zip(vs, combo)))


def _factors_through(theta, mgu, vs):
    """theta = rho . mgu for some rho: solve rho by matching mgu images."""
    rho = {}

    def match(pattern, value):
        if isinstance(pattern, Var):
            if pattern.name in rho:
                return rho[pattern.name] == value
            rho[pattern.name] = value
            return True
        if type(pattern) is not type(value) or pattern.name != value.name:
            return False
        return all(match(p, a) for p, a in zip(pattern.args, value.args))

    for x in vs:
        img = substitute(mgu.get(x, Var(x)), {})
        if not match(img, theta[x]):
            return False
    # check the solved rho actually reproduces theta
    for x in vs:
        if substitute(substitute(Var(x), mgu), rho) != theta[x]:
            return False
    return True


def test_unify_most_general_500_random_pairs():
    rng = random.Random(20240817)
    carrier = [Con("0"), Con("s", (Con("0"),))]
    checked = 0
    for _ in range(500):
        t1 = _random_base_term(rng, ["x", "y"])
        t2 = _random_base_term(rng, ["u", "w"])
        if term_size(t1) > 8 or term_size(t2) > 8:
            continue
        mgu = unify(t1, t2)
        vs = sorted(variables(t1) | variables(t2))
        groundings = [dict(zip(vs, combo))
                      for combo in itertools.product(carrier, repeat=len(vs))]
        unifiers = [th for th in groundings
                    if substitute(t1, th) == substitute(t2, th)]
        if mgu is None:
            assert not unifiers, f"missed unifier for {t1} ~ {t2}"
        else:
            assert substitute(t1, mgu) == substitute(t2, mgu)
            assert is_idempotent(mgu)
            for th in unifiers:
                assert _factors_through(th, mgu, vs), (t1, t2, th, mgu)
            checked += 1
    assert checked > 50


def test_standard_functions_shape_for_stream_system():
    eqs = standard_functions(SM)
    pi1 = [e for e in eqs if e.function == "pi1"]
    pi2 = [e for e in eqs if e.function == "pi2"]
    delta = [e for e in eqs if e.function == DELTA]
    # one equation per constructor for each projection, one per constructor
    # for the discriminator
    assert len(pi1) == 3 and len(pi2) == 3
    assert len(delta) == 3
    cons_pi = [e for e in pi1 + pi2 if e.patterns[0].name == "cons"]
    assert len(cons_pi) == 2
    fixed = [e for e in pi1 + pi2 if e.patterns[0] == e.rhs]
    assert len(fixed) == 4  # pi1/pi2 on the two nullary constructors
    # delta(c_i(...), x1..x3) = x_i in vocabulary order
    for i, e in enumerate(delta):
        assert e.rhs == Var(f"x{i + 1}")


def test_standard_functions_pairwise_compatible():
    """validate_program skips pairs of standard equations, which this
    shows compatible on every data system the tests use."""
    for ds in (SM, WORD, COLIST, MIXED):
        for e1, e2 in itertools.combinations(standard_functions(ds), 2):
            assert check_compatibility(e1, e2).compatible, (e1, e2)


def test_a_standard_equation_given_twice_overlaps_itself():
    p = assemble_program(SM, [Equation("f", (v("x"),), v("x"))], "f")
    twice = Program(p.body + (standard_functions(SM)[0],), "f", 1)
    rep = validate_program(twice, SM)
    assert [x.code for x in rep.violations] == ["overlap"]


def test_deep_destructor_builds_contexts():
    d = deep_destructor([], SM)
    t = cons(ZERO, ONE)
    assert d.apply(t) == t
    d2 = deep_destructor([2, 2], SM)
    assert d2.apply(v("t")) == Fun("pi2", (Fun("pi2", (v("t"),)),))
    d1 = deep_destructor([1], SM)
    assert d1.apply(v("t")) == Fun("pi1", (v("t"),))


def test_validate_flip_program_ok():
    assert validate_program(flip_program(), SM).ok


def test_validate_overlapping_program():
    eqs = [Equation("f", (v("x"),), ZERO),
           Equation("f", (ZERO,), ONE)]
    p = assemble_program(SM, eqs, "f")
    rep = validate_program(p, SM)
    assert not rep.ok
    assert any(x.code == "overlap" and "unifier" in x.message for x in rep.violations)


def test_validate_unknown_function():
    eqs = [Equation("f", (v("x"),), fn("mystery", v("x")))]
    p = assemble_program(SM, eqs, "f")
    rep = validate_program(p, SM)
    assert any(x.code == "unknown-function" for x in rep.violations)


def test_validate_missing_standard_functions():
    p = Program((Equation("f", (v("x"),), v("x")),), "f", 1)
    rep = validate_program(p, SM)
    assert any(x.code == "missing-standard" for x in rep.violations)


def test_validate_rejects_nonlinear_and_unbound():
    eqs = [Equation("g", (cons(v("x"), v("x")),), v("x"))]
    p = assemble_program(SM, eqs, "g")
    rep = validate_program(p, SM)
    assert any(x.code == "non-linear" for x in rep.violations)
    eqs2 = [Equation("g", (v("x"),), fn("g", v("zz")))]
    p2 = assemble_program(SM, eqs2, "g")
    rep2 = validate_program(p2, SM)
    assert any(x.code == "unbound-variable" for x in rep2.violations)


def _data_terms_to_depth(depth):
    """Ground 0/1/cons terms of height <= depth."""
    level = [ZERO, ONE]
    all_terms = list(level)
    for _ in range(depth - 1):
        level = [cons(a, b) for a in [ZERO, ONE] for b in all_terms]
        all_terms.extend(level)
    return all_terms


def test_at_most_one_equation_matches_ground_terms():
    """Pairwise compatibility makes matching deterministic: over all ground
    flip/b arguments of height <= 3, at most one equation matches."""
    from helpers import bisim_b_program

    def matches(eq, args):
        binds = {}

        def m(p, t):
            if isinstance(p, Var):
                binds[p.name] = t
                return True
            if type(p) is not type(t) or p.name != t.name:
                return False
            return all(m(a, b) for a, b in zip(p.args, t.args))

        return len(eq.patterns) == len(args) and all(
            m(p, t) for p, t in zip(eq.patterns, args))

    terms = _data_terms_to_depth(3)
    for prog in (flip_program(), bisim_b_program()):
        k = prog.arity
        for combo in itertools.product(terms, repeat=k):
            n = sum(1 for e in prog.equations_of(prog.principal)
                    if matches(e, list(combo)))
            assert n <= 1
