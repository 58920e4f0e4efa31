import random

import pytest

from helpers import (SM, ONE, ZERO, compile_roundtrip, cons, fn, flip_program,
                     random_stream, v, approx_bits, stream_prefix, bisim_b_program)

from coeq.cli import parse_workspace
from coeq.corec import (Component, CompositionDef, CorecBundle, CorecSchema,
                        PlainSlot, RecSlot, SchemaFun, _sccs, bundle_equal,
                        check_primitive_corecursive, compile_schema,
                        morse_thue_program, stock_library)
from coeq.evaluation import DiagramEnv, Session, derives_omega
from coeq.extract import roundtrip_report
from coeq.program import Equation, assemble_program, validate_program
from coeq.terms import Con, Fun, Var


def test_even_is_primitive_corecursive():
    lib = stock_library()
    verdict = check_primitive_corecursive(lib["even"].program, SM)
    assert verdict.accepted
    schema = verdict.bundle.strata[-1]
    assert isinstance(schema, CorecSchema)
    (f,) = schema.functions
    assert f.produced == "cons"
    assert isinstance(f.slots[0], PlainSlot)
    assert f.slots[0].component.term == Fun("pi1", (Var("x1"),))
    assert isinstance(f.slots[1], RecSlot)
    assert f.slots[1].target == 1
    assert f.slots[1].args[0].term == Fun("pi2", (Fun("pi2", (Var("x1"),)),))


def test_flip_pattern_form_accepted_with_discriminator_head():
    verdict = check_primitive_corecursive(flip_program(), SM)
    assert verdict.accepted
    (f,) = verdict.bundle.strata[-1].functions
    head = f.slots[0]
    assert isinstance(head, PlainSlot)
    # the case analysis became a discriminator dispatch on the head bit
    assert head.component.term.name == "delta"
    tail = f.slots[1]
    assert isinstance(tail, RecSlot) and tail.target == 1


def test_morse_thue_rejected_naming_the_position():
    verdict = check_primitive_corecursive(morse_thue_program(), SM)
    assert not verdict.accepted
    assert "recursive occurrence under non-component context" in verdict.reason
    assert "merge(mt, notf(mt))" in verdict.reason
    assert verdict.offending is not None


def test_whole_stock_library_accepted():
    for name, entry in stock_library().items():
        verdict = check_primitive_corecursive(entry.program, SM)
        assert verdict.accepted, f"{name}: {verdict.reason}"


def test_bisimulation_program_is_not_primitive_corecursive():
    verdict = check_primitive_corecursive(bisim_b_program(), SM)
    assert not verdict.accepted
    assert "non-exhaustive" in verdict.reason


def test_unguarded_recursion_rejected():
    p = assemble_program(SM, [Equation("f", (v("x"),), fn("f", v("x")))], "f")
    verdict = check_primitive_corecursive(p, SM)
    assert not verdict.accepted
    assert "unguarded" in verdict.reason


def test_rejection_stability_recursion_under_defined_function():
    """Adding a recursive call under a defined non-constructor function to
    any accepted entry flips the verdict."""
    for name, entry in stock_library().items():
        eqs = list(entry.program.body)
        bad = Equation("spoil", (Var("x"),),
                       Con("cons", (Con("0"),
                                    Fun(entry.name if entry.arity == 1 else "pi2",
                                        (Fun("spoil", (Var("x"),)),)))))
        from coeq.program import reserved_function
        user = [e for e in eqs if not reserved_function(e.function)]
        p = assemble_program(SM, user + [bad], "spoil")
        verdict = check_primitive_corecursive(p, SM)
        assert not verdict.accepted, name


def test_identity_schema_compiles_to_identity_equations():
    schema = CorecSchema((SchemaFun(
        "ident", 1,
        (PlainSlot(Component.destructor(1)),
         RecSlot(1, (Component.destructor(2),))),
        produced="cons"),))
    prog = compile_schema(CorecBundle((schema,), "ident"), SM)
    assert validate_program(prog, SM).ok
    (eq,) = [e for e in prog.body if e.function == "ident"]
    assert eq.rhs == Con("cons", (Fun("pi1", (Var("x1"),)),
                                  Fun("ident", (Fun("pi2", (Var("x1"),)),))))


def test_compile_then_recognize_roundtrips_schema():
    for name, entry in stock_library().items():
        v1 = check_primitive_corecursive(entry.program, SM)
        assert v1.accepted, name
        prog2 = compile_schema(v1.bundle, SM)
        assert validate_program(prog2, SM).ok, name
        v2 = check_primitive_corecursive(prog2, SM)
        assert v2.accepted, f"{name}: {v2.reason}"
        assert bundle_equal(v1.bundle, v2.bundle), name


def test_compiled_flip_agrees_with_original():
    rng = random.Random(5)
    entry = stock_library()["flip"]
    verdict = check_primitive_corecursive(entry.program, SM)
    compiled = compile_schema(verdict.bundle, SM)
    for _ in range(10):
        ct = random_stream(rng)
        env = DiagramEnv.of({"u": ct})
        merged = assemble_program(
            SM,
            [e for e in entry.program.body if e.function == "flip"]
            + [Equation("flip2" if e.function == "flip" else e.function,
                        e.patterns, _rename(e.rhs, "flip", "flip2"))
               for e in compiled.body if e.function == "flip"],
            "flip")
        r = derives_omega(merged, env, fn("flip", fn("u")), fn("flip2", fn("u")),
                          16, ds=SM)
        assert r.equal


def _rename(t, old, new):
    from coeq.terms import Con as C, Fun as F, Var as V
    if isinstance(t, V):
        return t
    args = tuple(_rename(a, old, new) for a in t.args)
    if isinstance(t, F) and t.name == old:
        return F(new, args)
    return type(t)(t.name, args)


def test_mutual_vector_alternates():
    entry = stock_library()["alt"]
    verdict = check_primitive_corecursive(entry.program, SM)
    assert verdict.accepted
    schema = verdict.bundle.strata[-1]
    assert [f.name for f in schema.functions] == ["alt", "altb"]
    assert schema.functions[0].slots[1].target == 2
    assert schema.functions[1].slots[1].target == 1
    sess = Session(entry.program, SM)
    out = sess.observe(fn("alt"), 32)
    assert approx_bits(out) == [0, 1] * 16


def test_merge_even_odd_reconstructs_stream():
    lib = stock_library()
    rng = random.Random(11)
    eqs = [e for e in lib["merge"].program.body if e.function == "merge"]
    eqs += [e for e in lib["odd"].program.body if e.function in ("even", "odd")]
    prog = assemble_program(SM, eqs, "merge")
    for _ in range(5):
        ct = random_stream(rng)
        env = DiagramEnv.of({"u": ct})
        t = fn("merge", fn("even", fn("u")), fn("odd", fn("u")))
        r = derives_omega(prog, env, t, fn("u"), 16, ds=SM)
        assert r.equal


def test_constant_stream_observation():
    entry = stock_library()["zeros"]
    sess = Session(entry.program, SM)
    assert approx_bits(sess.observe(fn("zeros"), 8)) == [0] * 8


def test_odd_equals_even_after_tail_positionally():
    lib = stock_library()
    rng = random.Random(23)
    prog = lib["odd"].program
    for _ in range(10):
        ct = random_stream(rng)
        env = DiagramEnv.of({"u": ct})
        sess = Session(prog, SM, env)
        bits = stream_prefix(ct, 33)
        out = approx_bits(sess.observe(fn("odd", fn("u")), 16))
        assert out == [bits[2 * i + 1] for i in range(16)]


def test_soundness_sweep_small():
    """Accepted programs never stall on random regular inputs (smaller
    version of the acceptance sweep)."""
    from coeq.evaluation import first_stall
    rng = random.Random(2)
    for name, entry in stock_library().items():
        for _ in range(5):
            names = [f"u{i}" for i in range(entry.arity)]
            env = DiagramEnv.of({n: random_stream(rng) for n in names})
            sess = Session(entry.program, SM, env)
            t = Fun(entry.name, tuple(Fun(n) for n in names))
            a = sess.observe(t, 32, budget=100_000)
            assert first_stall(a) is None, name


def test_component_algebra():
    d1 = Component.destructor(1)
    k3 = Component(4, Fun("delta", (Var("x1"), Var("x2"), Var("x3"), Var("x4"))))
    comp = Component.compose(k3, [d1, Component.projection(1, 1),
                                  Component.projection(1, 1),
                                  Component.projection(1, 1)])
    assert comp.arity == 1
    assert comp.term == Fun("delta", (Fun("pi1", (Var("x1"),)),
                                      Var("x1"), Var("x1"), Var("x1")))
    assert Component(0, Con("0")).apply(()) == Con("0")


def _word_system():
    from coeq.system import (Constructor, ConstructorType, DataPredicate,
                             DataSystem, Kind)
    s = Constructor("s", 1)
    t = Constructor("t", 1)
    w = DataPredicate("W", Kind.COINDUCTIVE, 0)
    return DataSystem((s, t), (w,), (
        ConstructorType(s, (w,), w),
        ConstructorType(t, (w,), w),
    ))


def test_cocase_form_over_two_successors():
    """Varying produced constructors of one arity: the recognizer builds a
    cocase selector, the compiled program evaluates, and re-extraction
    gives the same schema back."""
    from coeq.system import CotermNode, RegularCoterm
    ds = _word_system()
    swap = assemble_program(ds, [
        Equation("swap", (Con("s", (v("w"),)),), Con("t", (fn("swap", v("w")),))),
        Equation("swap", (Con("t", (v("w"),)),), Con("s", (fn("swap", v("w")),))),
    ], "swap")
    verdict = check_primitive_corecursive(swap, ds)
    assert verdict.accepted, verdict.reason
    (f,) = verdict.bundle.strata[-1].functions
    assert f.selector is not None
    compiled = compile_schema(verdict.bundle, ds)
    assert validate_program(compiled, ds).ok
    v2 = check_primitive_corecursive(compiled, ds)
    assert v2.accepted, v2.reason
    # the compiled program's output-dispatch helper is no stratum
    assert bundle_equal(verdict.bundle, v2.bundle)
    # s^w swaps to t^w
    word = RegularCoterm((CotermNode("s", (0,)),), 0)
    env = DiagramEnv.of({"u": word})
    sess = Session(compiled, ds, env)
    out = sess.observe(fn("swap", fn("u")), 8)
    node = out
    for _ in range(8):
        assert node.constructor == "t"
        node = node.children[0]


SM_SYSTEM = """system Sm {
  inductive B; coinductive S;
  constructor 0 : B; constructor 1 : B; constructor cons : B * S -> S;
}
"""
WORD_SYSTEM = """system W {
  coinductive W; constructor s : W -> W; constructor t : W -> W;
}
"""
BW_SYSTEM = """system BW {
  inductive B; coinductive W;
  constructor 0 : B; constructor 1 : B;
  constructor s : B * W -> W; constructor t : B * W -> W;
}
"""
COLIST_SYSTEM = """system L {
  coinductive L; constructor nil : L; constructor s : L -> L;
}
"""
WORD_COCASE = """  cocase1(s(y), v1) = s(v1); cocase1(t(y), v1) = t(v1);
  cocase2(s(y), v1, v2) = s(v1); cocase2(t(y), v1, v2) = t(v1);
"""

REJECTIONS = [
    ("forward reference", SM_SYSTEM, "f(x) = h(x); h(x) = pi2(x);",
     "forward reference: 'f' uses 'h' declared later", "f(x) = h(x)"),
    ("unguarded", SM_SYSTEM, "f(x) = f(pi2(x));",
     "unguarded recursion: right-hand side 'f(pi2(x))' of a recursive function "
     "is not constructor-headed", "f(x) = f(pi2(x))"),
    ("inductive output", SM_SYSTEM,
     "f(cons(y, w)) = cons(y, f(w)); f(0) = 0; f(1) = 1;",
     "produced constructor '0' builds no coinductive data", "f(0) = 0"),
    ("mixed arities", COLIST_SYSTEM, "f(nil) = nil; f(s(w)) = s(f(w));",
     "mixed arities among produced constructors ['nil', 's']", "f(nil) = nil"),
    ("inconsistent dispatch", WORD_SYSTEM,
     WORD_COCASE + "f(s(w)) = cocase1(s(w), f(w)); f(t(w)) = cocase2(w, f(w), w);",
     "inconsistent output dispatch in 'f'", "f(t(w)) = cocase2(w, f(w), w)"),
    ("recursive selector", WORD_SYSTEM,
     WORD_COCASE + "f(x) = cocase1(f(x), f(pi1(x)));",
     "recursive occurrence under non-component context: 'f(x1)' in 'f(x1)'",
     "f(x) = cocase1(f(x), f(pi1(x)))"),
    ("call inside a call", SM_SYSTEM, "f(x) = cons(pi1(x), f(f(pi2(x))));",
     "recursive occurrence under non-component context: 'f(pi2(x))' inside "
     "recursive call 'f(f(pi2(x)))'", "f(x) = cons(pi1(x), f(f(pi2(x))))"),
    ("call under a destructor", SM_SYSTEM, "f(x) = cons(pi1(x), pi2(f(x)));",
     "recursive occurrence under non-component context: 'f(x)' in 'pi2(f(x))'",
     "f(x) = cons(pi1(x), pi2(f(x)))"),
    ("case-dependent target", SM_SYSTEM,
     "f(cons(0, w)) = cons(0, f(w)); f(cons(1, w)) = cons(1, g(w)); "
     "g(x) = cons(0, f(x));",
     "case-dependent recursion target ['f', 'g'] in slot 2",
     "f(cons(0, w)) = cons(0, f(w))"),
    ("mixed slot", SM_SYSTEM,
     "f(cons(0, w)) = cons(0, f(w)); f(cons(1, w)) = cons(1, w);",
     "slot 2 of 'f' mixes direct values and recursive calls across cases",
     "f(cons(0, w)) = cons(0, f(w))"),
    ("non-exhaustive", SM_SYSTEM, "f(cons(0, w)) = cons(0, f(w));",
     "non-exhaustive patterns: cases {0} at 'pi1(x1)' match no predicate's "
     "constructor set", "f(cons(0, w)) = cons(0, f(w))"),
    ("partial helper", WORD_SYSTEM,
     "cocase1(s(y), v1) = s(v1); f(x) = cocase1(x, f(pi1(x)));",
     "non-exhaustive patterns: cases {s} at 'x1' match no predicate's "
     "constructor set", "cocase1(s(y), v1) = s(v1)"),
    ("odd helper", BW_SYSTEM,
     "cocase2(0, v1, v2) = 0; cocase2(1, v1, v2) = 1; "
     "cocase2(s(y1, y2), 0, v2) = s(0, v2); cocase2(t(y1, y2), v1, v2) = t(v1, v2); "
     "f(x) = cocase2(x, pi1(x), f(pi2(x)));",
     "non-exhaustive patterns: cases {0, 1, s, t} at 'x1' match no predicate's "
     "constructor set", "cocase2(0, v1, v2) = 0"),
    ("helper clash", WORD_SYSTEM,
     "cocase1(s(y), v1) = t(v1); cocase1(t(y), v1) = s(v1); "
     "f(s(w)) = t(f(w)); f(t(w)) = s(f(w));",
     "'f' dispatches its output through 'cocase1', which the program defines "
     "as another function", "f(s(w)) = t(f(w))"),
]


@pytest.mark.parametrize("system, body, reason, offending",
                         [r[1:] for r in REJECTIONS], ids=[r[0] for r in REJECTIONS])
def test_every_rejection_names_its_reason_and_equation(system, body, reason, offending):
    ws = parse_workspace(system + "program f {\n" + body + "\n}\n")
    verdict = check_primitive_corecursive(ws.programs["f"], ws.system)
    assert (verdict.accepted, verdict.reason, str(verdict.offending)) \
        == (False, reason, offending)
    assert verdict.report() == f"rejected: {reason}\n  at equation: {offending}"


@pytest.mark.parametrize("program", [
    "program f {\n  cocase100000(x) = x;\n"
    "  f(s(w)) = t(f(cocase100000(w))); f(t(w)) = s(f(w));\n}\n",
    "program cocase1 {\n" + WORD_COCASE.splitlines()[0] + "\n}\n",
], ids=["other-arity", "principal"])
def test_a_cocase_function_of_another_arity_or_the_principal_is_a_stratum(program):
    ws = parse_workspace(WORD_SYSTEM + program)
    (p,) = ws.programs.values()
    verdict = check_primitive_corecursive(p, ws.system)
    assert verdict.accepted, verdict.reason
    assert verdict.bundle.strata[0].name == p.functions()[0]
    assert validate_program(compile_schema(verdict.bundle, ws.system), ws.system).ok


def test_forward_reference_names_the_first_declared_callee():
    """Not the first in a set's hash order, which varies between runs."""
    calls = "x"
    for i in range(1, 10):
        calls = f"g{i}({calls})"
    body = f"f(x) = pi1({calls});" + "".join(f" g{i}(x) = pi2(x);" for i in range(1, 10))
    ws = parse_workspace(SM_SYSTEM + "program f {\n" + body + "\n}\n")
    verdict = check_primitive_corecursive(ws.programs["f"], ws.system)
    assert verdict.reason == "forward reference: 'f' uses 'g1' declared later"


def test_report_of_a_composition_and_a_selector_function():
    ws = parse_workspace(WORD_SYSTEM + """program f {
  g(x) = pi1(x);
  f(s(w)) = t(f(g(w)));
  f(t(w)) = s(f(w));
}
""")
    verdict = check_primitive_corecursive(ws.programs["f"], ws.system)
    assert verdict.report() == "\n".join([
        "primitive-corecursive",
        "  g/1: composition pi1(x1)",
        "  f/1: corecurrence selector h = delta(x1, t(s(pi1(x1))), s(t(pi1(x1))))",
        "    slot 1: call f (l = 1) on [delta(x1, g(pi1(x1)), pi1(x1))]"])


def _recursive_sccs(order, deps):
    """Recursive Tarjan, the reference for `_sccs` on graphs small enough
    for the interpreter's recursion limit."""
    index, low, stack, on, out = {}, {}, [], set(), []

    def visit(v):
        index[v] = low[v] = len(index)
        stack.append(v)
        on.add(v)
        for w in sorted(deps.get(v, ()), key=order.index):
            if w not in index:
                visit(w)
                low[v] = min(low[v], low[w])
            elif w in on:
                low[v] = min(low[v], index[w])
        if low[v] == index[v]:
            comp = []
            while True:
                w = stack.pop()
                on.discard(w)
                comp.append(w)
                if w == v:
                    break
            out.append(sorted(comp, key=order.index))

    for v in order:
        if v not in index:
            visit(v)
    return out


def test_sccs_match_recursive_tarjan_on_random_graphs():
    rng = random.Random(7)
    for _ in range(500):
        n = rng.randint(1, 12)
        order = [f"f{i}" for i in range(n)]
        p = rng.choice((0.1, 0.2, 0.4))
        deps = {f: {g for g in order if rng.random() < p} for f in order}
        assert _sccs(order, deps) == _recursive_sccs(order, deps), deps


# -- compile ∘ recognize with an output-dispatch helper ---------------------------

def test_a_selector_entry_passes_the_compile_stage_of_the_roundtrip():
    from coeq.corec import StockEntry
    ws = parse_workspace(WORD_SYSTEM + "program swap {\n"
                         "  swap(s(w)) = t(swap(w)); swap(t(w)) = s(swap(w));\n}\n")
    library = {"swap": StockEntry("swap", ws.programs["swap"], 1, "swap letters")}
    stages = roundtrip_report(depth=8, ds=ws.system, library=library).entries["swap"]
    assert [(s.stage, s.ok, s.detail) for s in stages] == [
        ("recognize", True, ""), ("compile", True, ""),
        ("prove-corec", False, "proof generation expects a boolean-stream system")]


def test_compiling_a_recognized_compiled_program_again_validates():
    ws = parse_workspace(WORD_SYSTEM + "program swap {\n"
                         "  swap(s(w)) = t(swap(w)); swap(t(w)) = s(swap(w));\n}\n")
    _v1, compiled, _v2, again = compile_roundtrip(ws.programs["swap"], ws.system)
    assert validate_program(again, ws.system).ok
    assert again == compiled


def test_a_compiled_selector_function_over_letters_with_bits_is_recognized():
    """The helper covers 0 and 1 as well as the letters, which no
    predicate's constructor set matches: it is no stratum to merge."""
    ws = parse_workspace(BW_SYSTEM + "program f {\n"
                         "  f(s(b, w)) = t(b, f(w)); f(t(b, w)) = s(b, f(w));\n}\n")
    v1, compiled, v2, _again = compile_roundtrip(ws.programs["f"], ws.system)
    assert [e.function for e in compiled.body[:4]] == ["cocase2"] * 4
    assert bundle_equal(v1.bundle, v2.bundle)


def test_a_recognized_helper_is_never_a_stratum():
    ws = parse_workspace(WORD_SYSTEM + "program f {\n" + WORD_COCASE
                         + "  g(x) = cocase1(x, pi1(x));\n"
                           "  f(x) = cocase1(g(x), f(pi1(x)));\n}\n")
    verdict = check_primitive_corecursive(ws.programs["f"], ws.system)
    assert verdict.accepted, verdict.reason
    names = [s.name if isinstance(s, CompositionDef) else s.names()
             for s in verdict.bundle.strata]
    assert names == ["g", ["f"]]
    compiled = compile_schema(verdict.bundle, ws.system)
    assert [e.function for e in compiled.body[:2]] == ["cocase1"] * 2
    assert "cocase2" not in compiled.functions()
