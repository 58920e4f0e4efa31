import random

import pytest
from helpers import (MIXED, SM, ZERO, ONE, alternating_stream, approx_bits,
                     bisim_b_program, cons, coterm_layer, flip_env, flip_program, fn,
                     nat_program, random_stream, stream_coterm, stream_prefix, v)

from coeq.corec import stock_library
from coeq.evaluation import (BUDGET_EXHAUSTED, DEFAULT_BUDGET, NO_MATCH, ApproxNode,
                             Cut, DiagramEnv, EvalError, GeneratorBinding, Session,
                             StallReason, Stalled, derives_omega, first_stall,
                             restrict)
from coeq.kernel import CON, FUN, STALL_BUDGET, WHNF, KernelSession
from coeq.program import (assemble_program, Equation, is_pi, pi_name, reserved_function,
                          standard_functions)
from coeq.system import CotermNode, RegularCoterm
from coeq.terms import Con, Fun, Var, substitute


def test_flip_observation_depth_4():
    sess = Session(flip_program(), SM, flip_env())
    a = sess.observe(fn("flip", fn("v_a")), 4)
    assert approx_bits(a) == [1, 0, 1, 0]
    # the spine ends in a cut at depth 4
    node = a
    for _ in range(4):
        assert isinstance(node, ApproxNode)
        node = node.children[1]
    assert node == Cut(4)


def test_observing_a_term_nested_ten_thousand_levels_deep():
    """flip(flip(...(v_a)...)) nested 10,000 levels is encoded and forced
    without recursion: an even number of flips is v_a itself."""
    t = fn("v_a")
    for _ in range(10_000):
        t = fn("flip", t)
    sess = Session(flip_program(), SM, flip_env())
    assert approx_bits(sess.observe(t, 2, budget=10**6)) == [0, 1]


def test_no_matching_equation_stall():
    prog, nat = nat_program()
    sess = Session(prog, nat)
    a = sess.observe(fn("f", Con("s", (Con("0"),))), 1, budget=1000)
    assert isinstance(a, Stalled)
    assert a.reason.kind == NO_MATCH
    assert a.term == Fun("f", (Con("s", (Con("0"),)),))


def test_budget_exhausted_stall():
    prog, nat = nat_program()
    sess = Session(prog, nat)
    a = sess.observe(fn("f", Con("s", (Con("s", (Con("0"),)),))), 1, budget=1000)
    assert isinstance(a, Stalled)
    assert a.reason.kind == BUDGET_EXHAUSTED
    assert a.reason.steps == 1000


def test_observe_depth_zero_is_cut():
    sess = Session(flip_program(), SM, flip_env())
    assert sess.observe(fn("v_a"), 0) == Cut(0)


def test_flip_bisim_va_vb():
    r = derives_omega(flip_program(), flip_env(), fn("flip", fn("v_a")), fn("v_b"),
                      8, ds=SM)
    assert r.equal


def test_derives_omega_reflexive():
    r = derives_omega(flip_program(), flip_env(), fn("flip", fn("v_a")),
                      fn("flip", fn("v_a")), 8, ds=SM)
    assert r.equal


def test_heads_differ_at_head_position():
    # over the cons encoding the first difference sits under pi1
    r = derives_omega(flip_program(), flip_env(), fn("v_a"), fn("v_b"), 1, 10_000,
                      ds=SM)
    assert r.status == "differs"
    assert r.path == (1,)


def _unary_word_system():
    """Infinite 0/1-words with unary constructors, where a one-step unfold
    already separates v_a from v_b at the root."""
    from coeq.system import (Constructor, ConstructorType, DataPredicate,
                             DataSystem, Kind)
    z = Constructor("0", 1)
    o = Constructor("1", 1)
    w = DataPredicate("W", Kind.COINDUCTIVE, 0)
    ds = DataSystem((z, o), (w,), (
        ConstructorType(z, (w,), w),
        ConstructorType(o, (w,), w),
    ))
    from coeq.system import CotermNode, RegularCoterm
    va = RegularCoterm((CotermNode("0", ("v_b",)),), 0)
    vb = RegularCoterm((CotermNode("1", ("v_a",)),), 0)
    return ds, DiagramEnv.of({"v_a": va, "v_b": vb})


def test_heads_differ_at_root_unary_words():
    ds, env = _unary_word_system()
    prog = assemble_program(ds, [], "pi1", 1)
    r = derives_omega(prog, env, fn("v_a"), fn("v_b"), 1, 10_000, ds=ds)
    assert r.status == "differs"
    assert r.path == ()


def test_projection_rewrites():
    sess = Session(flip_program(), SM, flip_env())
    t = Fun("pi2", (Fun("pi2", (cons(ZERO, cons(ONE, fn("v_a"))),)),))
    a = sess.observe(t, 1)
    assert isinstance(a, ApproxNode) and a.constructor == "cons"
    h = sess.observe(Fun("pi1", (cons(ZERO, fn("v_a")),)), 1)
    assert isinstance(h, ApproxNode) and h.constructor == "0"


def test_delta_dispatch_and_stuck_delta():
    sess = Session(flip_program(), SM, flip_env())
    t = Fun("delta", (ZERO, ONE, ZERO, ZERO))
    a = sess.observe(t, 1)
    assert isinstance(a, ApproxNode) and a.constructor == "1"
    # delta on a term exposing no constructor does not rewrite
    stuck = sess.observe(Fun("delta", (Var("q"), ONE, ZERO, ZERO)), 1)
    assert isinstance(stuck, Stalled)


def test_bisim_program_on_equal_streams():
    env = DiagramEnv.of({"a": alternating_stream()})
    sess = Session(bisim_b_program(), SM, env)
    out = sess.observe(fn("b", fn("a"), fn("a")), 32, budget=10_000)
    assert approx_bits(out) == stream_prefix(alternating_stream(), 32)


def test_bisim_program_stalls_at_first_difference():
    # a = (01)^w ; b' agrees for 3 positions then differs at position 3
    a = alternating_stream()
    bits = stream_prefix(a, 4)
    bprime = stream_coterm(bits[:3] + [1 - bits[3]] + [0, 1], loop_to=4)
    env = DiagramEnv.of({"a": a, "bp": bprime})
    sess = Session(bisim_b_program(), SM, env)
    out = sess.observe(fn("b", fn("a"), fn("bp")), 32, budget=10_000)
    stall = first_stall(out)
    assert stall is not None
    path, leaf = stall
    assert leaf.depth == 3
    assert leaf.reason.kind == NO_MATCH


def test_approximation_consistency_random_envs():
    rng = random.Random(99)
    prog = flip_program()
    for _ in range(200):
        ct = random_stream(rng)
        env = DiagramEnv.of({"u": ct})
        t = fn("flip", fn("u"))
        d = rng.randint(0, 8)
        s1 = Session(prog, SM, env)
        s2 = Session(prog, SM, env)
        deep = s1.observe(t, d + 1)
        shallow = s2.observe(t, d)
        assert restrict(deep, d) == shallow


def test_budget_monotonicity():
    prog, nat = nat_program()
    t = fn("f", Con("s", (Con("s", (Con("0"),)),)))
    for b in (10, 100, 1000):
        a = Session(prog, nat).observe(t, 1, budget=b)
        assert isinstance(a, Stalled) and a.reason.steps == b
    # a converging term gives identical results at any sufficient budget
    t2 = fn("f", Con("0"))
    r1 = Session(prog, nat).observe(t2, 3, budget=5)
    r2 = Session(prog, nat).observe(t2, 3, budget=50_000)
    assert r1 == r2


def test_derives_omega_symmetric_and_transitive_without_stalls():
    rng = random.Random(31337)
    prog = flip_program()
    for _ in range(40):
        cts = [random_stream(rng) for _ in range(3)]
        env = DiagramEnv.of({"u0": cts[0], "u1": cts[1], "u2": cts[2]})
        sess = Session(prog, SM, env)
        d = 6
        terms = [fn("u0"), fn("u1"), fn("u2")]
        rs = {}
        for i in range(3):
            for j in range(3):
                rs[i, j] = derives_omega(prog, env, terms[i], terms[j], d,
                                         session=sess)
        for i in range(3):
            assert rs[i, i].equal
            for j in range(3):
                assert rs[i, j].equal == rs[j, i].equal
                for k in range(3):
                    if rs[i, j].equal and rs[j, k].equal:
                        assert rs[i, k].equal


def test_derives_against_finite_data_term():
    # over naturals: f(0) = 0, so f(0) ~ the data term 0 exactly
    prog, nat = nat_program()
    r = derives_omega(prog, None, fn("f", Con("0")), Con("0"), 3, ds=nat)
    assert r.equal
    r2 = derives_omega(prog, None, fn("f", Con("0")), Con("s", (Con("0"),)), 3, ds=nat)
    assert r2.status == "differs"


def test_derives_omega_collapses_to_plain_derivability_on_data_terms():
    """Against a finite data term, equality up to sufficient depth is exact
    equality of the observed value."""
    sess = Session(flip_program(), SM, flip_env())
    t = cons(ONE, cons(ZERO, cons(ONE, fn("v_a"))))
    small = cons(ONE, cons(ZERO, fn("v_b")))
    r = derives_omega(flip_program(), flip_env(), t, small, 8, session=sess)
    assert r.equal  # both unfold to 1:0:1:0:...
    different = cons(ZERO, cons(ZERO, fn("v_b")))
    r2 = derives_omega(flip_program(), flip_env(), t, different, 8, session=sess)
    assert not r2.equal


def test_generator_binding():
    env = DiagramEnv.of({
        "a": alternating_stream(),
        "fa": GeneratorBinding(flip_program(), "flip", ("a",)),
    })
    sess = Session(flip_program(), SM, env)
    out = sess.observe(fn("fa"), 6)
    assert approx_bits(out) == [1, 0, 1, 0, 1, 0]


def test_env_name_collision_rejected():
    env = DiagramEnv.of({"flip": alternating_stream()})
    with pytest.raises(EvalError):
        Session(flip_program(), SM, env)


def test_coterm_child_naming_no_binding_rejected():
    """v_a = 0 : nope, with no binding nope: an input error, not a stall."""
    env = DiagramEnv.of({"v_a": coterm_layer(0, "nope")})
    with pytest.raises(EvalError, match="unknown binding 'nope'"):
        Session(flip_program(), SM, env)


def test_mutual_env_references():
    sess = Session(flip_program(), SM, flip_env())
    assert approx_bits(sess.observe(fn("v_a"), 6)) == [0, 1, 0, 1, 0, 1]


def test_session_rejects_invalid_program():
    bad = assemble_program(SM, [Equation("f", (v("x"),), fn("nope", v("x")))], "f")
    with pytest.raises(EvalError):
        Session(bad, SM)


def test_binding_named_like_an_equation_variable():
    """The standard equations bind x1; a binding x1 is another symbol."""
    env = DiagramEnv.of({"x1": stream_coterm([0], loop_to=0)})
    sess = Session(stock_library()["ident"].program, SM, env)
    assert approx_bits(sess.observe(fn("ident", fn("x1")), 4)) == [0, 0, 0, 0]


def test_binding_may_not_hide_a_generator_programs_function():
    lib = stock_library()
    env = DiagramEnv.of({"g": GeneratorBinding(lib["ones"].program, "ones"),
                         "ones": stream_coterm([0], loop_to=0)})
    with pytest.raises(EvalError, match="binding 'ones' collides with a function"):
        Session(lib["ident"].program, SM, env)


BAD_COTERM = RegularCoterm((CotermNode("cons", (0,)),), entry=0)

# (bindings, the one violation DiagramEnv.validate reports)
INVALID_ENVS = [
    ((("a", alternating_stream()), ("a", alternating_stream())),
     "[duplicate-binding] binding 'a': bound more than once"),
    ((("a", BAD_COTERM),),
     "[bad-coterm] binding 'a': [bad-out-degree] node 0: constructor 'cons' "
     "has arity 2, node has 1 children"),
    ((("a", coterm_layer(0, "nope")),),
     "[unknown-binding] binding 'a': unknown binding 'nope'"),
    ((("a", GeneratorBinding(flip_program(), "flip", ("nope",))),),
     "[unknown-binding] binding 'a': unknown binding 'nope'"),
]


@pytest.mark.parametrize("bindings, violation", INVALID_ENVS)
def test_invalid_environment_rejected(bindings, violation):
    env = DiagramEnv(bindings)
    assert str(env.validate(SM)) == violation
    with pytest.raises(EvalError) as e:
        Session(flip_program(), SM, env)
    assert str(e.value) == f"invalid environment: {violation}"


def test_a_call_of_the_wrong_arity_is_an_error():
    env = DiagramEnv.of({"a": alternating_stream(),
                         "g": GeneratorBinding(flip_program(), "flip", ("a", "a"))})
    with pytest.raises(EvalError, match="function 'flip' has arity 1, applied to 2"):
        Session(flip_program(), SM, env)
    sess = Session(flip_program(), SM, flip_env())
    for term, msg in ((fn("delta", fn("v_a")), "function 'delta' has arity 4, applied to 1"),
                      (fn("cons", fn("v_a"), fn("v_b")), "'cons' is a constructor")):
        with pytest.raises(EvalError, match=msg):
            sess.observe(term, 1)


def test_unknown_constructor_in_observed_term():
    sess = Session(flip_program(), SM, flip_env())
    for name in ("2", "flip"):
        with pytest.raises(EvalError, match=f"unknown constructor '{name}'"):
            sess.observe(cons(Con(name), fn("v_a")), 1)


def test_deep_stalled_term_is_truncated():
    prog, nat = nat_program()
    leaf = Session(prog, nat).observe(fn("f", Con("s", (Con("s", (Con("0"),)),))),
                                      1, budget=100)
    assert isinstance(leaf, Stalled)
    assert leaf.reason == StallReason(BUDGET_EXHAUSTED, 100)
    t, depth = leaf.term, 0
    while t.args:
        t, depth = t.args[0], depth + 1
    assert (t, depth) == (Var("..."), 64)


def test_bisim_reports_the_first_stalled_path():
    a = alternating_stream()
    bits = stream_prefix(a, 4)
    bprime = stream_coterm(bits[:3] + [1 - bits[3]] + [0, 1], loop_to=4)
    env = DiagramEnv.of({"a": a, "bp": bprime})
    sess = Session(bisim_b_program(), SM, env)
    r = derives_omega(sess.program, None, fn("b", fn("a"), fn("bp")), fn("a"), 8,
                      session=sess)
    assert (r.status, r.path, r.reason) == ("stalled", (2, 2, 2), StallReason(NO_MATCH))
    assert not r.equal
    assert str(r) == "stalled(path [2, 2, 2], no-matching-equation)"


def test_derives_omega_needs_a_session_or_a_data_system():
    with pytest.raises(ValueError, match="needs either a session or a data system"):
        derives_omega(flip_program(), None, ZERO, ZERO, 1)


def test_stall_at_the_depth_bound_is_a_cut():
    sess = Session(flip_program(), SM, flip_env())
    a = sess.observe(cons(ONE, fn("flip", Var("q"))), 1)
    assert a == ApproxNode("cons", (ApproxNode("1", (), 1), Cut(1)), 0)


def test_coterm_nodes_have_a_namespace_of_their_own():
    """A binding may be named like another binding's node: 'a@0'."""
    env = DiagramEnv.of({"a": stream_coterm([0], loop_to=0),
                         "a@0": stream_coterm([1], loop_to=0)})
    sess = Session(flip_program(), SM, env)
    assert approx_bits(sess.observe(fn("a"), 4)) == [0, 0, 0, 0]
    assert approx_bits(sess.observe(fn("a@0"), 4)) == [1, 1, 1, 1]


def test_a_non_law_costs_no_more_than_forcing_both_roots():
    """flip(v_a) and v_a differ at the first head, which forcing the roots
    already made constructors: nothing deeper is forced."""
    t, t2 = fn("flip", fn("v_a")), fn("v_a")
    roots = Session(flip_program(), SM, flip_env())
    for term in (t, t2):
        roots.k.head_normalize(roots.encode(term), DEFAULT_BUDGET)
    sess = Session(flip_program(), SM, flip_env())
    r = derives_omega(sess.program, None, t, t2, 64, session=sess)
    assert (r.status, r.path) == ("differs", (1,))
    assert sess.k.steps_total <= roots.k.steps_total


def test_a_law_costs_what_observing_both_sides_costs():
    """On an equal pair the walk forces every term the two observations
    force, and a repeated pair was free to them already."""
    t, t2 = fn("flip", fn("flip", fn("v_a"))), fn("v_a")
    both = Session(flip_program(), SM, flip_env())
    both.observe(t, 64)
    both.observe(t2, 64)
    sess = Session(flip_program(), SM, flip_env())
    assert derives_omega(sess.program, None, t, t2, 64, session=sess).equal
    assert sess.k.steps_total == both.k.steps_total


def test_a_left_stall_leaves_the_right_side_unforced():
    """f(s(0)) matches no equation; f(s(s(0))) would spend the whole budget."""
    prog, nat = nat_program()
    sess = Session(prog, nat)
    r = derives_omega(prog, None, fn("f", Con("s", (Con("0"),))),
                      fn("f", Con("s", (Con("s", (Con("0"),)),))), 4, budget=1000,
                      session=sess)
    assert (r.status, r.path, r.reason) == ("stalled", (), StallReason(NO_MATCH))
    assert sess.k.steps_total == 0


# -- what is forced at the depth bound ------------------------------------------

def _ill_sorted_session():
    """g's tail h(x) = pi1(x) is a bit, not a stream: only the rules, not
    the sorts, say whether a term at the bound can end nullary."""
    prog = assemble_program(SM, [
        Equation("g", (v("x"),), cons(fn("pi1", v("x")), fn("h", v("x")))),
        Equation("h", (v("x"),), fn("pi1", v("x"))),
    ], "g")
    return Session(prog, SM, DiagramEnv.of({"v": stream_coterm([0], loop_to=0)}))


def test_a_tail_that_ends_nullary_is_forced_at_the_bound():
    sess = _ill_sorted_session()
    zero = ApproxNode("0", (), 1)
    assert sess.observe(fn("g", fn("v")), 1) == ApproxNode("cons", (zero, zero), 0)
    r = derives_omega(sess.program, None, fn("g", fn("v")), cons(ZERO, ONE), 1,
                      session=sess)
    assert (r.status, r.path) == ("differs", (2,))


def test_never_nullary_follows_right_hand_sides():
    """A right-hand side that is a variable (pi1, delta) or calls such a
    function can end nullary; a stream function, a generator binding, a
    cons node and a function with no rule cannot; odd calls even, which is
    resolved by the fixpoint."""
    env = DiagramEnv.of({"v_a": stream_coterm([0, 1], loop_to=0),
                         "v_f": GeneratorBinding(flip_program(), "flip", ("v_a",))})
    lib = stock_library()
    eqs = [e for p in (lib["odd"].program, flip_program()) for e in p.body
           if not reserved_function(e.function)]
    eqs.append(Equation("h", (v("x"),), fn("pi1", v("x"))))
    sess = Session(assemble_program(SM, eqs, "odd"), SM, env)
    k = sess.k

    def never(t):
        return k.never_nullary(sess.encode(t))

    va = fn("v_a")
    for t in (fn("odd", va), fn("even", va), fn("flip", va), fn("v_f"), va,
              fn("nope", va), cons(ZERO, va)):
        assert never(t), t
    for t in (fn("pi1", va), fn("delta", va, ZERO, ONE, ONE), fn("h", va), ZERO):
        assert not never(t), t
    layer = k.env[k.sym_ids["v_a"]]
    head_node, tail_node = k.t_args[layer]
    assert (k.never_nullary(head_node), k.never_nullary(tail_node)) == (False, True)


def test_never_nullary_sees_a_rule_added_after_it_was_asked():
    k = KernelSession()
    zero = k.mk(CON, k.sym("0", CON, 0), ())
    f = k.mk(FUN, k.sym("f", FUN, 0), ())
    assert k.never_nullary(f)   # no rule: forcing f stalls
    k.add_rule(k.sym_ids["f"], (), zero)
    assert not k.never_nullary(f)


def test_a_generator_binding_or_a_cons_node_at_the_bound_is_not_forced():
    env = DiagramEnv.of({"v_a": stream_coterm([0, 1], loop_to=0),
                         "v_f": GeneratorBinding(flip_program(), "flip", ("v_a",))})
    sess = Session(flip_program(), SM, env)
    for t in (fn("v_f"), fn("v_a")):
        assert sess.observe(cons(ZERO, t), 1) == ApproxNode(
            "cons", (ApproxNode("0", (), 1), Cut(1)), 0)
        assert derives_omega(sess.program, None, cons(ZERO, t), cons(ZERO, fn("v_f")),
                             1, session=sess).equal
    assert sess.k.steps_total == 0
    # v_a's tail at depth 1 is a cons node: v_a and its head bit cost one step each
    assert sess.observe(fn("v_a"), 1) == ApproxNode(
        "cons", (ApproxNode("0", (), 1), Cut(1)), 0)
    assert sess.k.steps_total == 2


def test_observing_flip_to_depth_4_leaves_the_tail_at_the_bound_unforced():
    """Five steps for the input's first layer and its two bit nodes, then
    one for each later input node and one per flip rule; the flip call at
    depth 4 is not forced (its two steps were spent before)."""
    sess = Session(flip_program(), SM,
                   DiagramEnv.of({"v_a": stream_coterm([0, 1, 1, 0, 1], loop_to=0)}))
    assert approx_bits(sess.observe(fn("flip", fn("v_a")), 4)) == [1, 0, 0, 1]
    assert sess.k.steps_total == 10


def test_the_walk_forces_a_pair_at_the_bound_only_while_it_could_be_two_nullary_heads():
    """pi2's right-hand side is a variable, so pi2(v_a) may end nullary; it
    ends in a cons here.  flip's tail cannot end nullary."""
    sess = Session(flip_program(), SM, flip_env())
    k = sess.k

    def walk(t, t2):
        return derives_omega(sess.program, None, cons(ZERO, t), cons(ZERO, t2), 1,
                             session=sess)
    tail, flip_tail = fn("pi2", fn("v_a")), fn("flip", fn("v_a"))
    assert walk(flip_tail, tail).equal and walk(tail, flip_tail).equal
    assert k.steps_total == 0
    assert walk(tail, fn("pi2", fn("v_b"))).equal
    assert sess.encode(tail) in k.memo
    assert sess.encode(fn("pi2", fn("v_b"))) not in k.memo


# -- projections of known data ------------------------------------------------

def _stock_session(name, env):
    lib = stock_library()
    eqs = [e for p in (lib[name].program, flip_program()) for e in p.body
           if not reserved_function(e.function)]
    return Session(assemble_program(SM, eqs, name), SM, env)


def test_a_forcing_never_spends_more_than_its_budget():
    """even(pi2(pi2(pi2(v_r)))) reduces its three projections when it is
    forced: one step for each node unfolded and one for each projection,
    then one for even's rule.  A budget that runs out part way stalls at
    the unreduced term, or at the reduced one before the rule, having
    spent exactly the budget."""
    env = DiagramEnv.of({"v_r": stream_coterm([0, 1], loop_to=0)})
    t = fn("even", fn("pi2", fn("pi2", fn("pi2", fn("v_r")))))
    got = []
    for budget in range(1, 9):
        sess = _stock_session("even", env)
        status, out, steps = sess.k.head_normalize(sess.encode(t), budget)
        assert steps <= budget
        got.append((status, steps))
        if status == STALL_BUDGET:
            assert sess.decode(out) == (t if budget < 6 else fn("even", fn("v_r@3")))
    assert got == [(STALL_BUDGET, b) for b in range(1, 7)] + [(WHNF, 7)] * 2


def test_projections_of_known_data_follow_their_standard_equations():
    """Over MIXED (constructors of arity 0, 1 and 2), forcing f(pi_i(d))
    with f(x) = x reduces the projection as its standard equation says,
    pi2(s(x)) = s(x) included.  It costs one step for each projection, one
    for each coterm node unfolded for the first time, and one for f's
    rule.  Coterm w is c(w@1, w@2) with w@1 = 0 and w@2 = s(w@1)."""
    w = RegularCoterm((CotermNode("c", (1, 2)), CotermNode("0"), CotermNode("s", (1,))))
    prog = assemble_program(MIXED, [Equation("f", (Var("x"),), Var("x"))], "f")
    std = {(e.function, e.patterns[0].name): e
           for e in standard_functions(MIXED) if is_pi(e.function)}
    leaves = (Con("1"), Con("[]"))
    cases = []
    for c in MIXED.vocabulary:
        d = Con(c.name, leaves[:c.arity])
        for i in (1, 2):
            e = std[(pi_name(i), c.name)]
            binds = {x.name: a for x, a in zip(e.patterns[0].args, d.args)}
            cases.append((i, d, substitute(e.rhs, binds), 2))
    s_node = Con("s", (fn("w@1"),))
    cases += [(1, fn("w"), ZERO, 4), (2, fn("w"), s_node, 4),
              (1, fn("pi1", fn("w")), ZERO, 5), (2, fn("pi1", fn("w")), ZERO, 5),
              (1, fn("pi2", fn("w")), ZERO, 6), (2, fn("pi2", fn("w")), s_node, 5)]
    assert Con("s", (Con("1"),)) in [want for i, _, want, _ in cases if i == 2]
    for i, d, want, cost in cases:
        sess = Session(prog, MIXED, DiagramEnv.of({"w": w}))
        status, out, steps = sess.k.head_normalize(
            sess.encode(fn("f", fn(pi_name(i), d))), DEFAULT_BUDGET)
        assert (status, sess.decode(out), steps) == (WHNF, want, cost), (i, d)


def test_a_constructor_term_rebuilt_by_an_earlier_forcing_is_forced_to_its_rebuilt_form():
    """Observing merge(cons(pi1(v_a), v_b), v_b) reduces the projection
    inside its constructor argument; forcing that constructor term later
    in the session gives the rebuilt term, not the term as written."""
    env = DiagramEnv.of({"v_a": stream_coterm([0, 1], 0), "v_b": stream_coterm([1], 0)})
    sess = _stock_session("merge", env)
    arg = cons(fn("pi1", fn("v_a")), fn("v_b"))
    sess.observe(fn("merge", arg, fn("v_b")), 3)
    out, reason = sess.force(sess.encode(arg), DEFAULT_BUDGET)
    assert reason is None
    assert sess.decode(out) == cons(fn("v_a@0"), fn("v_b"))


def test_a_symbol_redeclared_with_another_kind_or_arity_is_an_error():
    k = KernelSession()
    sid = k.sym("f", FUN, 1)
    assert k.sym("f", FUN, 1) == sid
    for kind, arity in ((FUN, 2), (CON, 1)):
        with pytest.raises(ValueError, match="'f' redeclared"):
            k.sym("f", kind, arity)


def test_projections_of_unknown_data_wait_for_their_call():
    """A projection of a generator binding, of a variable or of a call not
    yet forced is not reduced: only ident's rule fires.  A projection of a coterm names
    the node it reaches."""
    env = DiagramEnv.of({"v_a": stream_coterm([0, 1], loop_to=0),
                         "v_f": GeneratorBinding(flip_program(), "flip", ("v_a",))})
    sess = _stock_session("ident", env)
    for p in (fn("pi1", fn("v_f")), fn("pi2", Var("q")), fn("pi2", fn("flip", fn("v_a")))):
        status, out, steps = sess.k.head_normalize(sess.encode(fn("ident", p)), 1)
        assert (status, steps) == (WHNF, 1)
        assert sess.decode(out) == cons(fn("pi1", p), fn("ident", fn("pi2", p)))
    status, out, steps = sess.k.head_normalize(
        sess.encode(fn("ident", fn("pi2", fn("v_a")))), DEFAULT_BUDGET)
    assert (status, steps) == (WHNF, 3)
    node = fn("v_a@3")
    assert sess.decode(out) == cons(fn("pi1", node), fn("ident", fn("pi2", node)))


def _stock_union(*names):
    """One program of the named stock entries' equations, each once."""
    lib = stock_library()
    eqs = []
    for name in names:
        eqs += [e for e in lib[name].program.body
                if not reserved_function(e.function) and e not in eqs]
    return assemble_program(SM, eqs, names[0])


def test_a_projection_of_a_call_already_forced_is_known_data():
    """Once merge(v_a, v_b) is forced, pi2(merge(v_a, v_b)) is a projection
    of known data: forcing ident(pi2(merge(v_a, v_b))) reduces it by its
    standard equation, for one step, before ident's rule fires.  In a fresh
    session the call is not yet forced, and only ident's rule fires."""
    env = DiagramEnv.of({"v_a": stream_coterm([0, 1], loop_to=0),
                         "v_b": stream_coterm([1], loop_to=0)})
    prog = _stock_union("ident", "merge")
    call = fn("merge", fn("v_a"), fn("v_b"))
    t = fn("ident", fn("pi2", call))
    fresh = Session(prog, SM, env)
    status, out, steps = fresh.k.head_normalize(fresh.encode(t), DEFAULT_BUDGET)
    assert (status, steps) == (WHNF, 1)
    p = fn("pi2", call)
    assert fresh.decode(out) == cons(fn("pi1", p), fn("ident", fn("pi2", p)))
    sess = Session(prog, SM, env)
    assert sess.k.head_normalize(sess.encode(call), DEFAULT_BUDGET)[::2] == (WHNF, 1)
    status, out, steps = sess.k.head_normalize(sess.encode(t), DEFAULT_BUDGET)
    assert (status, steps) == (WHNF, 2)
    tail = fn("merge", fn("v_b"), fn("pi2", fn("v_a")))
    assert sess.decode(out) == cons(fn("pi1", tail), fn("ident", fn("pi2", tail)))


COMPOSED_LAWS = (
    (fn("merge", fn("even", fn("in0")), fn("odd", fn("in0"))), fn("in0")),
    (fn("even", fn("merge", fn("in0"), fn("in1"))), fn("in0")),
    (fn("odd", fn("merge", fn("in0"), fn("in1"))), fn("in1")),
    (fn("zipxor", fn("zipxor", fn("in0"), fn("in1")), fn("in1")), fn("in0")),
)


@pytest.mark.parametrize("lhs, rhs", COMPOSED_LAWS, ids=[str(l) for l, _ in COMPOSED_LAWS])
def test_a_composed_stream_law_costs_the_same_steps_at_any_depth(lhs, rhs):
    """The tails of a composition of stream functions, such as
    even(pi2(pi2(merge(a, b)))), are reduced through calls already forced,
    so they recur with the inputs' periods (3 and 5 past their loops) and
    hit the memo: checking the law costs the same steps at depths 64, 256
    and 1,024, one fresh session each."""
    prog = _stock_union("ident", "even", "odd", "merge", "zipxor")
    env = DiagramEnv.of({"in0": stream_coterm([0, 1, 1], loop_to=1),
                         "in1": stream_coterm([1, 0, 0, 1, 0], loop_to=2)})
    steps = []
    for depth in (64, 256, 1024):
        sess = Session(prog, SM, env)
        assert derives_omega(prog, env, lhs, rhs, depth, session=sess).equal
        steps.append(sess.k.steps_total)
    assert steps[0] == steps[1] == steps[2], steps


def test_b_stalls_where_projected_inputs_differ():
    """b's no-match stall keeps its kind and its depth when its inputs are
    projections of coterms, reduced to nodes: one position before the
    depth 3 of test_bisim_program_stalls_at_first_difference."""
    a = alternating_stream()
    bits = stream_prefix(a, 4)
    bprime = stream_coterm(bits[:3] + [1 - bits[3]] + [0, 1], loop_to=4)
    sess = Session(bisim_b_program(), SM, DiagramEnv.of({"a": a, "bp": bprime}))
    path, leaf = first_stall(sess.observe(fn("b", fn("pi2", fn("a")), fn("pi2", fn("bp"))),
                                          32, budget=10_000))
    assert (leaf.depth, leaf.reason.kind) == (2, NO_MATCH)
