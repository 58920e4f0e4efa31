import hashlib
import io
import pathlib
import sys
from importlib import import_module

import pytest

from coeq.cli import (ParseError, Parser, ResolutionError, Workspace, main,
                      parse_files, parse_workspace, resolve_workspace,
                      show_approximation, show_derivation, show_program,
                      show_system, tokenize)
from coeq.evaluation import (NO_MATCH, ApproxNode, Cut, DiagramEnv, EvalError,
                             GeneratorBinding, Session, StallReason, Stalled)
from coeq.extract import prove_corec_program
from coeq.logic import And, DataAtom, and_intro, assume, check_proof, ex_intro, or_intro
from coeq.system import CotermNode, RegularCoterm
from coeq.terms import Con, Fun, Var

SM_SOURCE = """
system Sm {
  inductive B;
  coinductive S;
  constructor 0 : B;
  constructor 1 : B;
  constructor cons : B * S -> S;
}

program flip {
  flip(cons(0, w)) = cons(1, flip(w));
  flip(cons(1, w)) = cons(0, flip(w));
}

env E {
  v_a = 0 : v_b;
  v_b = 1 : v_a;
  v_r = rec a. 0 : 1 : a;
  v_f = flip(v_a);
}
"""

# Morse-Thue as a cumulative definition: the recognizer rejects it.
MT_SOURCE = SM_SOURCE + """
program mt {
  notf(x) = delta(x, 1, 0, 0);
  mrg(x, y) = cons(pi1(x), mrg(y, pi2(x)));
  mt = 1 : mrg(mt, notf(mt));
}
"""

PROOF_SOURCE = SM_SOURCE + """
proof triv {
  (and-intro (and (S x) (= (flip x) (flip x))) (
    (assume (S x) () {label u})
    (refl (= (flip x) (flip x)) () {})
  ) {})
}
"""


def test_parse_workspace_and_validate():
    ws = parse_workspace(SM_SOURCE)
    assert ws.system_name == "Sm"
    assert set(ws.programs) == {"flip"}
    assert set(ws.envs) == {"E"}
    env = dict(ws.envs["E"].bindings)
    assert isinstance(env["v_a"], RegularCoterm)
    assert isinstance(env["v_f"], GeneratorBinding)


def test_parse_rec_coterm_semantics():
    ws = parse_workspace(SM_SOURCE)
    sess = Session(ws.programs["flip"], ws.system, ws.envs["E"])
    from helpers import approx_bits
    bits = approx_bits(sess.observe(Fun("v_r"), 8))
    assert bits == [0, 1, 0, 1, 0, 1, 0, 1]
    bits2 = approx_bits(sess.observe(Fun("v_f"), 6))
    assert bits2 == [1, 0, 1, 0, 1, 0]


def test_parse_parenthesized_rec_coterm():
    """A `rec` coterm in parentheses closes a cycle inside a longer one."""
    ws = parse_workspace(SM_SOURCE + "\nenv P { v_p = 1 : (rec a. 0 : a); v_q = rec b. 1() : b; }")
    sess = Session(ws.programs["flip"], ws.system, ws.envs["P"])
    from helpers import approx_bits
    assert approx_bits(sess.observe(Fun("v_p"), 5)) == [1, 0, 0, 0, 0]
    assert approx_bits(sess.observe(Fun("v_q"), 3)) == [1, 1, 1]


def test_parse_errors_have_positions():
    with pytest.raises(ParseError) as e:
        parse_workspace("system X {\n  constructor c : Nope;\n}")
    assert "unknown predicate" in str(e.value)
    with pytest.raises(ParseError) as e2:
        parse_workspace(SM_SOURCE + "\nprogram bad { f(cons(0)) = 0; }")
    assert "arity" in str(e2.value)
    with pytest.raises(ParseError, match="^2:7: unexpected character '%'"):
        tokenize("a\nb c d %  e")


def test_parse_error_names_its_file(tmp_path, capsys):
    """A syntax error in the second of two files is reported as
    file:line:col, counted within that file."""
    a, b = tmp_path / "a.cds", tmp_path / "b.cds"
    a.write_text(SM_SOURCE.split("program")[0].strip() + "\n", encoding="utf-8")
    b.write_text("program f {\n  f(x) = cons(pi1(x), f(pi2(x)));\n}\n\n"
                 "program g { g(x) = ; }\n", encoding="utf-8")
    code, out, err = run_main(capsys, "check", str(a), str(b))
    assert (code, out) == (2, "")
    assert err == f"error: {b}:5:20: expected term (found ';')\n"


def test_unknown_constructor_in_pattern_rejected():
    with pytest.raises(ParseError) as e:
        parse_workspace(SM_SOURCE + "\nprogram bad { f(g(x)) = 0; }")
    assert "not a constructor" in str(e.value)


def test_print_then_parse_identity():
    """The printers of systems, programs and proofs print text that parses
    back to the same workspace."""
    def printed(ws):
        return "\n\n".join(
            [show_system(ws)]
            + [show_program(name, p) for name, p in ws.programs.items()]
            + [f"proof {name} {{\n{show_derivation(d)}\n}}"
               for name, d in ws.proofs.items()])

    ws = parse_workspace(PROOF_SOURCE)
    text = printed(ws)
    ws2 = parse_workspace(text)
    assert ws2.system == ws.system
    assert ws2.programs == ws.programs
    assert ws2.proofs == ws.proofs
    # printing is a fixed point
    assert printed(ws2) == text


def test_proof_parses_and_checks():
    ws = parse_workspace(PROOF_SOURCE)
    res = check_proof(ws.system, ws.programs["flip"], ws.proofs["triv"])
    assert res.ok


def test_generated_proof_roundtrips_through_text():
    from coeq.corec import check_primitive_corecursive, compile_schema, stock_library
    from coeq.extract import prove_corec
    ws = parse_workspace(SM_SOURCE)
    entry = stock_library()["even"]
    verdict = check_primitive_corecursive(entry.program, ws.system)
    d = prove_corec(verdict.bundle, ws.system)
    compiled = compile_schema(verdict.bundle, ws.system)
    # make the workspace aware of the compiled program's functions
    from coeq.cli import show_program
    src = (SM_SOURCE + "\nprogram even {\n"
           + "\n".join("  " + line for line in
                       show_program("even", compiled).splitlines()[1:-1])
           + "\n}\n"
           + "proof p { " + show_derivation(d) + " }")
    ws2 = parse_workspace(src)
    assert ws2.proofs["p"] == d
    res = check_proof(ws2.system, ws2.programs["even"], ws2.proofs["p"])
    assert res.ok, res.violations[:3]


# -- command-level tests ---------------------------------------------------------

@pytest.fixture()
def ws_file(tmp_path):
    f = tmp_path / "work.cds"
    f.write_text(SM_SOURCE)
    return str(f)


def run_main(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cmd_check(ws_file, capsys):
    code, out, _ = run_main(capsys, "check", ws_file)
    assert code == 0
    assert "flip" in out


def test_cmd_eval_flip(ws_file, capsys):
    code, out, _ = run_main(capsys, "eval", ws_file, "flip(v_a)",
                            "--depth", "4", "--env", "E")
    assert code == 0
    assert out.strip() == "1:0:1:0:<cut@4>"


def test_cmd_eval_stall_exit(ws_file, capsys, tmp_path):
    nat = tmp_path / "nat.cds"
    nat.write_text("""
system N {
  inductive N;
  constructor 0 : N;
  constructor s : N -> N;
}
program f {
  f(0) = 0;
  f(s(s(x))) = f(s(s(s(x))));
}
""")
    code, out, _ = run_main(capsys, "eval", str(nat), "f(s(0))", "--depth", "1")
    assert code == 1
    assert "<stall:no-match>" in out
    code2, out2, _ = run_main(capsys, "eval", str(nat), "f(s(s(0)))",
                              "--depth", "1", "--budget", "500")
    assert code2 == 1
    assert "<stall:budget@500>" in out2



def test_cmd_eval_binding_named_like_a_function_fails_cleanly(tmp_path, capsys):
    ws = tmp_path / "clash.cds"
    ws.write_text(SM_SOURCE.split("env E")[0] + "env E {\n  flip = 0 : flip;\n}\n")
    code, out, err = run_main(capsys, "eval", str(ws), "flip", "--depth", "4")
    assert (code, out) == (2, "")
    assert err == "error: binding 'flip' collides with a function or constructor\n"


SYSTEM_SOURCE = SM_SOURCE.split("program flip")[0]
FLIP_SOURCE = SM_SOURCE.split("env E")[0]
IDENT = "program ident { ident(x) = pi1(x) : ident(pi2(x)); }\n"


def _ws(tmp_path, source: str) -> str:
    f = tmp_path / "ws.cds"
    f.write_text(source)
    return str(f)


def test_cmd_eval_binding_named_like_an_equation_variable(tmp_path, capsys):
    ws = _ws(tmp_path, SYSTEM_SOURCE + "env E { x1 = rec a. 0 : a; }\n" + IDENT)
    assert run_main(capsys, "eval", ws, "ident(x1)", "--env", "E", "--depth", "4") \
        == (0, "0:0:0:0:<cut@4>\n", "")


def test_cmd_eval_binding_may_not_hide_a_generator_programs_function(tmp_path, capsys):
    ws = _ws(tmp_path, SYSTEM_SOURCE + "program ones { ones = 1 : ones; }\n" + IDENT
             + "env E { g = ones(); ones = rec a. 0 : a; }\n")
    err = "error: binding 'ones' collides with a function or constructor\n"
    for program in (("--program", "ident"), ()):
        assert run_main(capsys, "eval", ws, "g", *program, "--env", "E",
                        "--depth", "4") == (2, "", err)


def test_cmd_eval_of_a_generator_whose_program_redefines_a_function(tmp_path, capsys):
    """Binding `g` unfolds to `b`'s principal, which calls `b`'s own `f`.
    A session of `a`, whose `f` differs, is an error, where it used to
    evaluate `g` with `a`'s `f` and stall."""
    ws = _ws(tmp_path, SYSTEM_SOURCE
             + "program a { a(x) = f(x); f(cons(0, w)) = cons(1, f(w)); }\n"
             + "program b { b(x) = f(x); f(cons(1, w)) = cons(0, f(w)); }\n"
             + "env E { v = 1 : v; g = b(v); }\n")
    run = ("--format=tagged", "eval", ws, "g", "--env", "E", "--depth", "4")
    assert run_main(capsys, *run, "--program", "a") == (
        2, "", "error: binding 'g': its program redefines 'f'\n")
    for program in (("--program", "b"), ()):
        assert run_main(capsys, *run, *program) == (
            0, "APPROXIMATION\t0:0:0:0:<cut@4>\nSTALL\tnone\n", "")


def test_program_after_an_env_reads_its_pattern_variables_as_variables(tmp_path, capsys):
    ws = _ws(tmp_path, SYSTEM_SOURCE + "env E { x = rec a. 0 : a; }\n" + IDENT)
    code, out, _ = run_main(capsys, "check", ws)
    assert (code, out.splitlines()[1:]) == (0, ["program ident: ok", "env E: ok"])
    assert run_main(capsys, "eval", ws, "ident(x)", "--depth", "2") \
        == (0, "0:0:<cut@2>\n", "")


@pytest.mark.parametrize("binding", ["v = 0 : nope;", "v = flip(nope);"])
def test_cmd_check_rejects_an_unknown_binding(tmp_path, capsys, binding):
    ws = _ws(tmp_path, FLIP_SOURCE + f"env E {{ {binding} }}\n")
    assert run_main(capsys, "check", ws) \
        == (2, "", "error: env 'E', binding 'v': unknown binding 'nope'\n")


ZEROS = RegularCoterm((CotermNode("0"), CotermNode("cons", (0, 1))), entry=1)


@pytest.mark.parametrize("bindings, message", [
    ((("a", ZEROS), ("a", ZEROS)), "env 'E', binding 'a': bound more than once"),
    ((("a", RegularCoterm((CotermNode("cons", (0,)),), 0)),),
     "env 'E', binding 'a': [bad-out-degree] node 0: constructor 'cons' has "
     "arity 2, node has 1 children"),
])
def test_resolve_workspace_reports_an_ill_formed_env(bindings, message):
    """No parsed env is ill-formed like these, so the check `coeq check`
    runs is called on a built one."""
    ws = parse_workspace(SM_SOURCE)
    ws.envs["E"] = DiagramEnv(bindings)
    with pytest.raises(ResolutionError) as e:
        resolve_workspace(ws)
    assert str(e.value) == message


def test_internal_error_exits_2_with_one_line(ws_file, capsys, monkeypatch):
    def boom(self, *args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(Session, "observe", boom)
    assert run_main(capsys, "eval", ws_file, "flip(v_a)", "--env", "E") \
        == (2, "", "internal error: RuntimeError: boom\n")


def test_cmd_bisim(ws_file, capsys):
    code, out, _ = run_main(capsys, "bisim", ws_file, "flip(v_a)", "v_b",
                            "--depth", "32", "--env", "E")
    assert code == 0
    assert "equal-up-to-depth" in out
    code2, out2, _ = run_main(capsys, "bisim", ws_file, "v_a", "v_b",
                              "--depth", "4", "--env", "E")
    assert code2 == 1


def test_cmd_bisim_stall_exits_1(ws_file, capsys):
    assert run_main(capsys, "bisim", ws_file, "1 : flip(q)", "v_b",
                    "--depth", "4", "--env", "E") \
        == (1, "stalled(path [2], no-matching-equation)\n", "")


def test_cmd_productive(ws_file, capsys, tmp_path):
    code, out, _ = run_main(capsys, "productive", ws_file, "flip")
    assert code == 0
    assert "primitive-corecursive" in out
    mt = tmp_path / "mt.cds"
    mt.write_text(MT_SOURCE)
    code2, out2, _ = run_main(capsys, "productive", str(mt), "mt")
    assert code2 == 1
    assert "recursive occurrence" in out2


def test_cmd_prove_and_classify(ws_file, capsys):
    code, out, _ = run_main(capsys, "prove-corec", ws_file, "flip")
    assert code == 0
    assert "|-" in out
    code2, out2, _ = run_main(capsys, "classify", ws_file,
                              "(ex y (and (S y) (= (flip y) z)))")
    assert code2 == 0
    assert out2.strip() == "strongly-positive"
    code3, out3, _ = run_main(capsys, "classify", ws_file,
                              "(imp (S x) (S (flip x)))")
    assert out3.strip() == "general"


def test_cmd_check_proof_and_normalize(tmp_path, capsys):
    f = tmp_path / "p.cds"
    f.write_text(PROOF_SOURCE)
    code, out, _ = run_main(capsys, "check-proof", str(f), "triv")
    assert code == 0
    assert "|-" in out
    code2, out2, _ = run_main(capsys, "normalize", str(f), "triv")
    assert code2 == 0


def test_cmd_extract_program(ws_file, capsys, tmp_path):
    out_file = tmp_path / "extracted.cds"
    code, out, _ = run_main(capsys, "extract", ws_file, "flip",
                            "--out", str(out_file))
    assert code == 0
    text = out_file.read_text()
    assert "program f0" in text
    ws2 = parse_workspace(text)
    assert "f0" in ws2.programs


def test_cmd_extract_rejected_program_fails_cleanly(tmp_path, capsys):
    mt = tmp_path / "mt.cds"
    mt.write_text(MT_SOURCE)
    code, out, err = run_main(capsys, "extract", str(mt), "mt")
    assert (code, err) == (1, "")
    assert out.startswith("extraction failed: ")
    code2, out2, _ = run_main(capsys, "--format", "tagged", "extract",
                              str(mt), "mt")
    assert code2 == 1
    assert "VERDICT\tfailed" in out2


def test_cmd_extract_of_a_proof_that_does_not_check_is_a_verdict(tmp_path, capsys):
    """The proof is checked before it is normalized: normalizing this one
    would index a premise that the malformed `and-intro` lacks."""
    f = tmp_path / "bad.cds"
    f.write_text(SM_SOURCE + """
program ident { ident(x) = x; }
proof bad { (and-elim (S x) ((and-intro (and (S x) (S x))
                               ((assume (S x) () {label h})) {})) {i 2}) }
""")
    violation = "at 0: conjunction introduction malformed"
    assert run_main(capsys, "--format=tagged", "check-proof", str(f), "bad") == (
        1, f"VIOLATION\t{violation}\nVERDICT\tinvalid\n", "")
    code, out, err = run_main(capsys, "--format=tagged", "extract", str(f), "bad")
    assert (code, out, err) == (
        1, f"VERDICT\tfailed\nREASON\tderivation does not check: {violation}\n", "")
    code, out, err = run_main(capsys, "extract", str(f), "bad")
    assert (code, out, err) == (
        1, f"extraction failed: derivation does not check: {violation}\n", "")


SORTS_SOURCE = SM_SOURCE + """
program g {
  g(x) = delta(x, pi1(x), 0, 0);
}

program h {
  h(x) = delta(pi1(x), 0, x, x);
}

proof both {
  (and-intro (and (B y) (S y)) (
    (assume (B y) () {label a})
    (assume (S y) () {label b})
  ) {})
}
"""


def test_cmd_extract_sort_conflict_is_a_verdict(tmp_path, capsys):
    f = tmp_path / "sorts.cds"
    f.write_text(SORTS_SOURCE)
    code, out, err = run_main(capsys, "--format=tagged", "extract", str(f), "both")
    assert (code, err) == (1, "")
    assert "VERDICT\tfailed" in out.splitlines()


def test_cmd_extract_refuses_a_variable_at_two_sorts_across_the_judgment(tmp_path, capsys):
    """`h: B(x)` makes x a bit and `a: S(x)` a stream: the judgment gives
    each variable one sort, so this is a sort conflict, not an extraction
    that fails to realize its conclusion."""
    ws = _ws(tmp_path, SM_SOURCE + """
program flip { flip(cons(0, w)) = cons(1, flip(w)); flip(cons(1, w)) = cons(0, flip(w)); }
proof p { (and-intro (and (B x) (ex p (S p))) (
  (assume (B x) () {label h})
  (ex-intro (ex p (S p)) ((assume (S x) () {label a})) {witness x})) {}) }
""")
    assert run_main(capsys, "--format=tagged", "check-proof", ws, "p")[0] == 0
    assert run_main(capsys, "--format=tagged", "extract", ws, "p") == (
        1, "VERDICT\tfailed\nREASON\tvariable 'x' used at both sorts in 'S(x)'\n", "")


def test_cmd_extract_refuses_a_program_that_replaces_the_split_algebra(tmp_path, capsys):
    """The program's own split_even would stand in for the algebra's in
    the extraction; the extraction is refused instead."""
    ws = _ws(tmp_path, SM_SOURCE + """
program ident { ident(x) = pi1(x) : ident(pi2(x)); split_even(x1) = x1; }
proof p { (and-elim (S x) ((assume (and (S x) (S y)) () {label h})) {i 1}) }
""")
    assert run_main(capsys, "--format=tagged", "extract", ws, "p") == (
        1, "VERDICT\tfailed\nREASON\tthe program defines 'split_even' other than "
           "the split algebra does\n", "")


LABEL_AND_INNER_VARIABLE_PROOFS = """
proof twice {
  (and-intro (and (S x) (S y)) (
    (assume (S x) () {label h})
    (assume (S y) () {label h})
  ) {})
}

proof inner {
  (ex-intro (ex p (= p p)) (
    (refl (= y y) () {})
  ) {witness y})
}
"""


@pytest.mark.parametrize("name, f0", [
    ("twice", "f0(x1, x2, x3, x4) = split_merge(x3, split_merge(x4, split_zeros));"),
    ("inner", "f0 = split_merge(split_zeros, split_merge(split_zeros, split_zeros));"),
])
def test_cmd_extract_of_one_label_on_two_assumptions_and_of_a_proof_only_variable(
        tmp_path, capsys, name, f0):
    """`twice` opens `h: S(x)` and `h: S(y)`: each gets its own realizer
    parameter (x3 and x4).  In `inner`, y is free in the proof but not in
    its judgment `{} |- (ex p. p = p)`: it takes the closed value
    split_zeros.  Both extractions are primitive corecursive."""
    ws = _ws(tmp_path, SM_SOURCE + LABEL_AND_INNER_VARIABLE_PROOFS)
    written = tmp_path / "f0.cds"
    code, out, err = run_main(capsys, "extract", ws, name, "--out", str(written))
    assert (code, err) == (0, "")
    assert f"  {f0}\n" in written.read_text()
    assert run_main(capsys, "--format=tagged", "productive", str(written), "f0") == \
        (0, "VERDICT\tprimitive-corecursive\n", "")


def test_cmd_prove_corec_sort_conflict_reasons(tmp_path, capsys):
    f = tmp_path / "sorts.cds"
    f.write_text(SORTS_SOURCE)
    for name, reason in (
            ("g", "variable 'x1' used at both sorts in 'delta(x1, pi1(x1), 0, 0)'"),
            ("h", "mixed branch sorts in 'delta(pi1(x1), 0, x1, x1)'")):
        code, out, _ = run_main(capsys, "--format=tagged", "prove-corec", str(f), name)
        assert code == 1
        assert out.splitlines() == ["VERDICT\tfailed", f"REASON\t{reason}"]


def test_cmd_prove_corec_of_a_proof_that_does_not_check(tmp_path, capsys):
    """The prover's proof of a constant head projected from a constant
    fails the checker: a failed verdict, not a traceback."""
    ws = _ws(tmp_path, ONE_LINE_SYSTEM + "program f { f = cons(pi1(0), f); }\n")
    assert run_main(capsys, "prove-corec", ws, "f") == (
        1, "generated proof failed to check\n", "")
    assert run_main(capsys, "--format=tagged", "prove-corec", ws, "f") == (
        1, "VERDICT\tfailed\n", "")


_EX_ELIM = ("(ex-elim (ex p (B p)) ((assume (ex p (B p)) () {label m}) "
            "(ex-intro (ex p (B p)) ((assume (B q) () {label k})) {witness q})) "
            "{eigen q label k})")


@pytest.mark.parametrize("proof", ["(refl (= 0 0) () {})", "(assume (B x) () {label h})",
                                   _EX_ELIM], ids=["refl-of-a-bit", "open-bit", "ex-elim-of-a-bit"])
def test_cmd_extract_of_a_bit_sorted_proof(tmp_path, capsys, proof):
    """A refl of a bit, an open assumption on a bit, and the elimination of
    an existential over bits each extract a program the recognizer accepts."""
    ws = _ws(tmp_path, ONE_LINE_SYSTEM + IDENT + f"proof p {{ {proof} }}\n")
    out = str(tmp_path / "out.cds")
    code, text, err = run_main(capsys, "--format=tagged", "extract", ws, "p", "--out", out)
    assert (code, err) == (0, "") and "VERDICT\textracted\n" in text
    assert run_main(capsys, "--format=tagged", "productive", out, "f0") == (
        0, "VERDICT\tprimitive-corecursive\n", "")


@pytest.mark.parametrize("rule, proof", [
    ("inj", "(inj (= x x2) ((assume (= (cons x y) (cons x2 y2)) () {label h})) {i 1})"),
    ("sep", "(sep (S x) ((assume (= 0 1) () {label h})) {})"),
])
def test_cmd_extract_refuses_injectivity_and_separation(tmp_path, capsys, rule, proof):
    """A checked, detour-free, strongly positive proof with an `inj` or a
    `sep` node is outside the extraction set: a failed verdict."""
    ws = _ws(tmp_path, ONE_LINE_SYSTEM + IDENT + f"proof p {{ {proof} }}\n")
    assert run_main(capsys, "--format=tagged", "check-proof", ws, "p")[0] == 0
    assert run_main(capsys, "--format=tagged", "extract", ws, "p") == (
        1, f"VERDICT\tfailed\nREASON\trule '{rule}' outside the supported extraction set\n",
        "")


def test_cmd_roundtrip_small(capsys):
    code, out, _ = run_main(capsys, "roundtrip", "--depth", "8", "--inputs", "2")
    assert code == 0
    assert "PASS" in out


def test_tagged_format(ws_file, capsys):
    code, out, _ = run_main(capsys, "--format", "tagged", "bisim", ws_file,
                            "flip(v_a)", "v_b", "--depth", "8", "--env", "E")
    assert code == 0
    assert "VERDICT\tequal-up-to-depth" in out


# -- pinned transcript -------------------------------------------------------------

# SHA-256 of the exit codes, stdout and written files of the invocations
# below; error invocations are left out.
TRANSCRIPT_SHA256 = "04a4ede239fc9e3c6fb6c9e70b941a39ec3e4982222f6a98871cb4e5db746e2e"

STREAMS_CDS = str(pathlib.Path(__file__).resolve().parents[1]
                  / "workspaces" / "streams.cds")

EXTRA_PROOFS = """
proof bad {
  (and-intro (and (S x) (= x y)) (
    (assume (S x) () {label u})
    (refl (= x y) () {})
  ) {})
}

proof detour {
  (imp-elim (S x) (
    (imp-intro (imp (S x) (S x)) (
      (and-elim (S x) (
        (and-intro (and (S x) (S x)) (
          (assume (S x) () {label h})
          (assume (S x) () {label h})
        ) {})
      ) {i 1})
    ) {label h})
    (assume (S x) () {label a})
  ) {})
}
"""


def _transcript_runs(tmp_path):
    """Invocations on streams.cds, then on a workspace holding the compiled
    flip program, the proof `prove-corec --out` wrote, an invalid proof and
    a detour proof."""
    proof_file = tmp_path / "flip.proof"
    yield ("check", STREAMS_CDS)
    yield ("eval", STREAMS_CDS, "flip(v_a)", "--depth", "8", "--env", "E")
    yield ("eval", STREAMS_CDS, "b(v_a, v_b)", "--program", "b")
    yield ("eval", STREAMS_CDS, "b(v_a, v_a)", "--program", "b", "--depth", "6")
    yield ("bisim", STREAMS_CDS, "flip(v_a)", "v_b", "--depth", "32")
    yield ("bisim", STREAMS_CDS, "v_a", "v_b", "--depth", "8", "--env", "E")
    for prog in ("flip", "mt", "b"):
        yield ("productive", STREAMS_CDS, prog)
    yield ("prove-corec", STREAMS_CDS, "flip", "--out", str(proof_file))
    yield ("prove-corec", STREAMS_CDS, "mt")
    for formula in ("(ex y (and (S y) (= (flip y) z)))",
                    "(imp (S x) (S (flip x)))",
                    "(or (B x) (all y (S y)))"):
        yield ("classify", STREAMS_CDS, formula)
    yield ("extract", STREAMS_CDS, "even")
    yield ("extract", STREAMS_CDS, "mt")

    ws = parse_files([STREAMS_CDS])
    _d, compiled = prove_corec_program(ws.programs["flip"], ws.system)
    built = tmp_path / "built.cds"
    built.write_text(show_system(ws) + "\n\n" + show_program("flip", compiled)
                     + "\n\nproof flipped {\n" + proof_file.read_text()
                     + "}\n" + EXTRA_PROOFS)
    for name in ("flipped", "bad", "detour"):
        yield ("check-proof", str(built), name)
        yield ("normalize", str(built), name, "--out", str(tmp_path / f"{name}.nf"))
    yield ("extract", str(built), "flipped", "--out", str(tmp_path / "x.cds"))
    yield ("extract", str(built), "detour")


def test_cli_transcript_is_pinned(tmp_path, capsys):
    """stdout, exit code and written files of every command, both formats."""
    h = hashlib.sha256()
    tmp = str(tmp_path)

    def record(argv):
        code, out, err = run_main(capsys, *argv)
        assert err == "", (argv, err)
        h.update(f"{code}\n{out}".replace(tmp, "<tmp>").encode())

    for fmt in ("text", "tagged"):
        for argv in _transcript_runs(tmp_path):
            record(("--format", fmt) + argv)
    record(("roundtrip", "--depth", "6", "--inputs", "2"))
    for path in sorted(tmp_path.iterdir()):
        h.update(path.name.encode() + b"\n" + path.read_bytes())
    assert h.hexdigest() == TRANSCRIPT_SHA256


def test_cmd_eval_and_bisim_at_depth_10000(ws_file, capsys):
    """Observation and bisimulation keep their own stacks: no depth the
    CLI accepts reaches the interpreter's recursion limit."""
    assert run_main(capsys, "eval", ws_file, "flip(v_a)", "--depth", "10000",
                    "--env", "E") == (0, "1:0:" * 5000 + "<cut@10000>\n", "")
    for t1, t2 in (("flip(v_a)", "v_b"), ("flip(flip(v_r))", "v_a")):
        assert run_main(capsys, "bisim", ws_file, t1, t2, "--depth", "10000",
                        "--env", "E") == (0, "equal-up-to-depth\n", "")


def test_cmd_eval_of_even_to_depth_10000_costs_a_period_of_steps(capsys, monkeypatch):
    """even's tail names a node of v_r once its projections are reduced, so
    after the input's period every level is a memo hit."""
    sessions = []

    class RecordingSession(Session):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            sessions.append(self)

    monkeypatch.setattr(import_module("coeq.cli"), "Session", RecordingSession)
    code, out, _ = run_main(capsys, "--format", "tagged", "eval", STREAMS_CDS,
                            "even(v_r)", "--depth", "10000", "--env", "E")
    assert code == 0
    assert out.splitlines() == ["APPROXIMATION\t" + "0:" * 10000 + "<cut@10000>",
                                "STALL\tnone"]
    assert [s.k.steps_total for s in sessions] == [6]


def test_cmd_productive_on_a_2000_member_cycle_family(tmp_path, capsys):
    """The call graph's components are found without recursion."""
    n = 2000
    body = "".join(f"  c{i} = cons({i % 2}, c{(i + 1) % n});\n" for i in range(n))
    ws = _ws(tmp_path, SYSTEM_SOURCE + "program c0 {\n" + body + "}\n")
    code, out, err = run_main(capsys, "--format", "tagged", "productive", ws, "c0")
    assert (code, err) == (0, "")
    assert "VERDICT\tprimitive-corecursive\n" in out


def test_coterm_nodes_are_out_of_reach_of_binding_names(tmp_path, capsys):
    ws = _ws(tmp_path, FLIP_SOURCE + "env E { a = rec r. 0 : r; a@0 = rec s. 1 : s; }\n")
    for term, bits in (("a", "0:0:0:0:"), ("a@0", "1:1:1:1:")):
        assert run_main(capsys, "eval", ws, term, "--depth", "4") \
            == (0, bits + "<cut@4>\n", "")


@pytest.mark.parametrize("env, name", [("g = ones(); ones = rec a. 0 : a;", "ones"),
                                       ("flip = rec a. 0 : a;", "flip")])
def test_cmd_check_rejects_a_binding_named_like_a_function(tmp_path, capsys, env, name):
    """`coeq check` runs the check `coeq eval` runs, on every program."""
    ws = _ws(tmp_path, FLIP_SOURCE + "program ones { ones = 1 : ones; }\n"
             + f"env E {{ {env} }}\n")
    err = f"error: binding '{name}' collides with a function or constructor\n"
    for argv in (("check", ws), ("eval", ws, "ones", "--program", "ones")):
        assert run_main(capsys, *argv) == (2, "", err)


def test_show_approximation_renders_trees_and_streams():
    a = ApproxNode("pair", (
        ApproxNode("cons", (ApproxNode("1", (), 2), Cut(2)), 1),
        ApproxNode("s", (Stalled(Var("x"), StallReason(NO_MATCH), 2),), 1),
        ApproxNode("0", (), 1)), 0)
    assert show_approximation(a) == "pair(1:<cut@2>, s(<stall:no-match>), 0)"


@pytest.mark.parametrize("argv", [("--inputs", "0"), ("--depth", "8", "--inputs", "-1")])
def test_cmd_roundtrip_without_inputs_is_an_error(capsys, argv):
    """No input means no bisimulation case: not a passing roundtrip."""
    code, out, err = run_main(capsys, "--format", "tagged", "roundtrip", *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: roundtrip needs depth >= 1 and at least one input")


@pytest.mark.parametrize("command, terms", [("eval", ("flip(v_a)",)),
                                            ("bisim", ("flip(v_a)", "v_b"))])
@pytest.mark.parametrize("flag", ["--depth", "--budget"])
def test_a_negative_depth_or_budget_is_a_usage_error(capsys, command, terms, flag):
    with pytest.raises(SystemExit) as e:
        main([command, STREAMS_CDS, *terms, "--env", "E", flag, "-1"])
    assert e.value.code == 2
    assert f"argument {flag}: expected an integer >= 0, not '-1'" in capsys.readouterr().err
    code, _, err = run_main(capsys, command, STREAMS_CDS, *terms, "--env", "E", flag, "0")
    assert (code, err) == (0 if flag == "--depth" else 1, "")


def test_cmd_roundtrip_rejects_a_negative_depth(capsys):
    with pytest.raises(SystemExit) as e:
        main(["--format", "tagged", "roundtrip", "--depth", "-3"])
    assert e.value.code == 2
    assert "argument --depth: expected an integer >= 0, not '-3'" in capsys.readouterr().err


@pytest.mark.parametrize("term, name, arity, applied", [
    ("flip(v_a, v_b)", "flip", 1, 2), ("delta(v_a)", "delta", 4, 1),
    ("flip(v_a(v_b))", "v_a", 0, 1)])
def test_cmd_eval_reports_a_wrong_arity_function_call(capsys, term, name, arity, applied):
    assert run_main(capsys, "eval", STREAMS_CDS, term, "--env", "E") == (
        2, "", f"error: function '{name}' has arity {arity}, "
               f"applied to {applied} arguments\n")


def test_a_generator_binding_of_the_wrong_arity_is_a_parse_error(tmp_path, capsys):
    ws = _ws(tmp_path, FLIP_SOURCE + "env E { a = rec r. 0 : r; g = flip(a, a); }\n")
    for argv in (("check", ws), ("eval", ws, "g", "--depth", "4")):
        code, out, err = run_main(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.endswith(": program 'flip' has arity 1, applied to 2 arguments "
                            "(found 'flip')\n")


def test_an_ill_sorted_tail_is_forced_at_the_depth_bound(tmp_path, capsys):
    """h(x) = pi1(x) is a bit: the tail g prints at depth 1 is forced."""
    ws = _ws(tmp_path, SYSTEM_SOURCE
             + "program g { g(x) = cons(pi1(x), h(x)); h(x) = pi1(x); }\n"
             + "env E { v = rec a. 0 : a; }\n")
    assert run_main(capsys, "eval", ws, "g(v)", "--depth", "1") == (0, "0:0\n", "")


@pytest.mark.parametrize("term, depth, out, code", [
    ("y", 8, "<stall:no-match>\n", 1),
    ("nosuch(v_a)", 8, "<stall:no-match>\n", 1),
    ("nosuch(v_a) : nosuch(v_a)", 2, "cons(<stall:no-match>, <stall:no-match>)\n", 1),
    ("0 : y", 1, "0:<cut@1>\n", 0)])
def test_cmd_eval_of_a_variable_or_an_undefined_call(capsys, term, depth, out, code):
    """A variable, and a call with neither equations nor a binding, stall
    with no match; met a second time, the stall comes from the memo.  A
    variable at the depth bound may end in a nullary constructor, so it
    is forced, and a constructor with arguments is cut there."""
    assert run_main(capsys, "eval", STREAMS_CDS, term, "--env", "E",
                    "--depth", str(depth)) == (code, out, "")


ONE_LINE_SYSTEM = ("system Sm { inductive B; coinductive S; constructor 0 : B; "
                   "constructor 1 : B; constructor cons : B * S -> S; }\n")


@pytest.mark.parametrize("source, error", [
    (ONE_LINE_SYSTEM + "%", "2:1: unexpected character '%'"),
    (ONE_LINE_SYSTEM + "system T { inductive B; }",
     "2:8: a workspace holds one system (found 'T')"),
    ("system X { inductive and; }", "1:22: 'and' is reserved (found 'and')"),
    ("system X { inductive B; coinductive S;\n  constructor cons : B * S -> S;\n"
     "  constructor cons : S; }",
     "3:15: constructor 'cons' redeclared at a different arity (found 'cons')"),
    ("system X {\n  constructor c : Nope;\n}", "2:19: unknown predicate 'Nope' (found 'Nope')"),
    (ONE_LINE_SYSTEM + "env E { a = 0 : a; a = 1 : a; }",
     "2:20: binding 'a' rebound (found 'a')"),
    (ONE_LINE_SYSTEM + "env E { a = rec x. x; }",
     "2:13: a cycle must pass through a constructor (found 'rec')"),
    (ONE_LINE_SYSTEM + "env E { a = rec x. rec y. x; }", "2:20: degenerate cycle (found 'rec')"),
    (ONE_LINE_SYSTEM + "proof p { (assume (S x) () {type (0 Q)}) }",
     "2:37: unknown predicate 'Q' (found 'Q')"),
    (ONE_LINE_SYSTEM + "proof p { (assume (Q x) () {}) }",
     "2:20: unknown predicate 'Q' (found 'Q')"),
    ("program f { f(x) = x; }", "1:9: no system declared yet (found 'f')"),
    ("env E { a = rec x. 0 : x; }", "1:5: no system declared yet (found 'E')"),
    ("system X inductive B; }", "1:10: expected '{' (found 'inductive')"),
    ("sytem X { }", "1:1: expected system, program, env or proof (found 'sytem')"),
    ("system X { predicate B; }",
     "1:12: expected inductive, coinductive or constructor (found 'predicate')"),
], ids=["character", "two-systems", "reserved", "arity", "system-predicate", "rebound",
        "cycle", "degenerate", "type-predicate", "formula-predicate", "no-system",
        "env-no-system", "expected-token", "stanza-keyword", "declaration"])
def test_a_malformed_workspace_is_reported_at_the_offending_token(tmp_path, capsys,
                                                                  source, error):
    """A parse error names its line and column, and the token there: the
    offending name itself where the error is found after reading it."""
    ws = _ws(tmp_path, source)
    assert run_main(capsys, "check", ws) == (2, "", f"error: {ws}:{error}\n")


NO_CONS_SYSTEM = "system X { inductive B; coinductive S; constructor 0 : B; }\n"


@pytest.mark.parametrize("source, error", [
    (ONE_LINE_SYSTEM + "proof p { (assume (S x) () {type (cons B)}) }",
     "2:35: bad constructor type for 'cons' (found 'cons')"),
    (ONE_LINE_SYSTEM + "proof p { (assume (S x) () {type (0 S)}) }",
     "2:35: type '0 : S' is not declared by the system (found '0')"),
    (ONE_LINE_SYSTEM + "proof p { (assume (S x) () {pos (1 a)}) }",
     "2:36: positions are numbers (found 'a')"),
    (ONE_LINE_SYSTEM + "proof p { (assume (S x) () {i a}) }",
     "2:31: attribute 'i' needs a number (found 'a')"),
    (ONE_LINE_SYSTEM + "env E { a = cons(0); }",
     "2:13: constructor 'cons' has arity 2, got 1 children (found 'cons')"),
    (ONE_LINE_SYSTEM + "env E { a = 0(a); }",
     "2:13: constructor '0' has arity 0, got 1 children (found '0')"),
    (ONE_LINE_SYSTEM + "env E { a = b; }",
     "2:14: a binding must start with a constructor, rec, or a program call (found ';')"),
    (NO_CONS_SYSTEM + "env E { a = 0 : a; }",
     "2:15: ':' needs a binary constructor named 'cons' (found ':')"),
    (NO_CONS_SYSTEM + "program f { f = 0 : f(); }",
     "2:19: ':' needs a binary constructor named 'cons' (found ':')"),
    (ONE_LINE_SYSTEM + "program f { g = 0; }",
     "2:21: program 'f' does not define 'f' (at end)"),
    (ONE_LINE_SYSTEM + "proof p { (refl (= (cons 0) (cons 0)) () {}) }",
     "2:21: constructor 'cons' has arity 2 (found 'cons')"),
    (ONE_LINE_SYSTEM + "program g { g(x) = cons(0); }",
     "2:20: constructor 'cons' has arity 2, applied to 1 arguments (found 'cons')"),
], ids=["type-arity", "type-undeclared", "pos", "number", "coterm-arity",
        "coterm-leaf-arity", "binding-start", "coterm-cons", "term-cons", "no-principal",
        "sexp-arity", "term-arity"])
def test_a_malformed_attribute_coterm_or_program_is_reported_where_it_is_found(
        tmp_path, capsys, source, error):
    """These errors are found once the construct is read.  Each names the
    construct's own token: the constructor of a type, coterm node, term or
    s-expression, the number, the ':'.  A binding that is a bare name and a
    program without its principal function name the token after them."""
    ws = _ws(tmp_path, source)
    assert run_main(capsys, "check", ws) == (2, "", f"error: {ws}:{error}\n")


@pytest.mark.parametrize("argv, error", [
    (("eval", "flip(v_a)", "--env", "Nope"), "unknown env 'Nope'"),
    (("bisim", "v_a", "v_a", "--env", "Nope"), "unknown env 'Nope'"),
    (("eval", "flip(v_a)", "--program", "nope"), "unknown program 'nope'"),
    (("productive", "nope"), "unknown program 'nope'"),
    (("prove-corec", "nope"), "unknown program 'nope'"),
    (("check-proof", "nope"), "unknown proof 'nope'"),
    (("normalize", "nope"), "unknown proof 'nope'"),
    (("extract", "nope"), "'nope' names no proof or program"),
    (("eval", "v_a v_b"), "1:5: trailing input after term (found 'v_b')"),
])
def test_an_unknown_name_or_a_malformed_term_is_a_command_error(ws_file, capsys, argv,
                                                                  error):
    command, *rest = argv
    assert run_main(capsys, command, ws_file, *rest) == (2, "", f"error: {error}\n")


@pytest.mark.parametrize("term, budget, out", [
    ("flip(" * 10_000 + "v_a" + ")" * 10_000, "100000", "0:1:0:1:<cut@4>\n"),
    ("(" * 10_000 + "v_a" + ")" * 10_000, "10000", "0:1:0:1:<cut@4>\n"),
    ("0 : " * 10_000 + "v_a", "10000", "0:0:0:0:<cut@4>\n"),
    ("v_a()", "10000", "0:1:0:1:<cut@4>\n"),
], ids=["nested-calls", "nested-parentheses", "cons-chain", "empty-arguments"])
def test_cmd_eval_parses_a_term_ten_thousand_levels_deep(capsys, term, budget, out):
    """The term parser keeps its own stack: no nesting of calls,
    parentheses or conses reaches the interpreter's recursion limit."""
    assert run_main(capsys, "eval", STREAMS_CDS, term, "--depth", "4", "--env", "E",
                    "--budget", budget) == (0, out, "")


@pytest.mark.parametrize("formula", [
    "(and (S x) " * 10_000 + "(S x)" + ")" * 10_000,
    "(S " + "(flip " * 10_000 + "x" + ")" * 10_000 + ")",
], ids=["nested-and", "nested-calls"])
def test_cmd_classify_reads_a_formula_ten_thousand_levels_deep(capsys, formula):
    """The formula and s-expression readers run on their own stack, and so
    does the classification."""
    assert run_main(capsys, "--format=tagged", "classify", STREAMS_CDS, formula) == (
        0, "CLASS\tstrongly-positive\n", "")


@pytest.mark.parametrize("binding", [
    "0 : " * 10_000 + "v_b",
    "(" * 10_000 + "0 : v_b" + ")" * 10_000,
    "cons(0, " * 10_000 + "v_b" + ")" * 10_000,
], ids=["cons-chain", "nested-parentheses", "nested-cons"])
def test_cmd_eval_observes_an_env_binding_ten_thousand_levels_deep(tmp_path, capsys,
                                                                   binding):
    """The coterm parser keeps its own stack, as the term parser does."""
    ws = _ws(tmp_path, FLIP_SOURCE + f"env E {{ v_c = {binding}; v_b = rec a. 1 : a; }}\n")
    out = "0:0:0:0:<cut@4>\n" if binding.startswith(("0", "cons")) else "0:1:1:1:<cut@4>\n"
    assert run_main(capsys, "eval", ws, "v_c", "--depth", "4") == (0, out, "")


_DEEP = "cons(0, " * 5_000 + "x" + ")" * 5_000


@pytest.mark.parametrize("equation", [f"deep(x) = {_DEEP}", f"deep({_DEEP}) = x"],
                         ids=["right-hand-side", "pattern"])
def test_cmd_check_accepts_an_equation_five_thousand_levels_deep(tmp_path, capsys,
                                                                 equation):
    """Validation prints an equation only when it reports a violation, and
    terms are hash-consed, so no check walks the term by recursion."""
    ws = _ws(tmp_path, SM_SOURCE + f"program deep {{ {equation}; }}\n")
    code, out, err = run_main(capsys, "--format=tagged", "check", ws)
    assert (code, err) == (0, "") and "PROGRAM deep\tok\n" in out


@pytest.mark.parametrize("equation, verdict", [
    (f"deep(x) = {_DEEP}", (0, "VERDICT\tprimitive-corecursive\n")),
    (f"deep({_DEEP}) = x", (1, "VERDICT\trejected\nREASON\tnon-exhaustive patterns: "
                            "cases {0} at 'pi1(x1)' match no predicate's constructor set\n")),
], ids=["right-hand-side", "pattern"])
def test_cmd_productive_decides_an_equation_five_thousand_levels_deep(tmp_path, capsys,
                                                                     equation, verdict):
    """Term substitution and printing keep their own stacks, so the
    recognizer's verdict on a deep equation is a verdict, not an error."""
    ws = _ws(tmp_path, SM_SOURCE + f"program deep {{ {equation}; }}\n")
    assert run_main(capsys, "--format=tagged", "productive", ws, "deep") == verdict + ("",)


def test_a_bare_name_is_a_call_where_the_workspace_or_its_program_defines_it():
    """In a program, a bare name is a call when the workspace or the program
    defines it as a function, even further down, and a variable when the
    equation's patterns bind it; in a pattern it is a variable; in a proof a
    bare name is a call when the workspace defines it, and an applied one
    always is."""
    ws = Parser(tokenize(SYSTEM_SOURCE + "program f { f(x) = cons(0, g); g = cons(1, x);"
                         " h(g) = g; }\nproof p { (refl (= (x) (f g y)) () {}) }\n")
                ).parse_workspace()
    f_eq, g_eq, h_eq = ws.programs["f"].body[:3]
    assert f_eq.rhs == Con("cons", (Con("0"), Fun("g"))) and f_eq.patterns == (Var("x"),)
    assert g_eq.rhs == Con("cons", (Con("1"), Var("x")))
    assert h_eq.patterns == (Var("g"),) and h_eq.rhs == Var("g")
    assert ws.proofs["p"].conclusion.left == Fun("x")
    assert ws.proofs["p"].conclusion.right == Fun("f", (Fun("g"), Var("y")))


def test_the_function_names_are_read_once_per_stanza(monkeypatch):
    """Reading a proof asks the workspace for its function names once, however
    many names the proof holds."""
    calls = []
    known_names = Workspace.known_names
    monkeypatch.setattr(Workspace, "known_names",
                        lambda self: calls.append(1) or known_names(self))
    counts = []
    for n in (2, 12):
        ws = parse_workspace(SM_SOURCE + "program f1 {\n  f1(x) = cons(pi1(x), f2(pi2(x)));\n"
                             + "".join(f"  f{i}(x) = cons(pi1(x), f{i % n + 1}(pi2(x)));\n"
                                       for i in range(2, n + 1)) + "}\n")
        d, compiled = prove_corec_program(ws.programs["f1"], ws.system)
        text = (show_system(ws) + "\n" + show_program("f1", compiled)
                + "\nproof p {\n" + show_derivation(d) + "\n}\n")
        calls.clear()
        assert parse_workspace(text).proofs["p"] == d
        counts.append((len(calls), len(text)))
    assert counts[0][0] == counts[1][0] == 2 and counts[1][1] > 4 * counts[0][1]


def test_programs_that_define_a_function_differently_conflict(tmp_path, capsys):
    ws = _ws(tmp_path, ONE_LINE_SYSTEM + "program f { f(x) = g(x); g(x) = x; }\n"
             "program h { h(x) = g(x); g(x) = cons(0, x); }\n")
    assert run_main(capsys, "check", ws) == (
        2, "", "error: programs conflict: [overlap] equations 'g(x) = x' and "
               "'g(x) = cons(0, x)' overlap; unifier {x -> x'}\n")


_SPELLS = ("program ev {{\n{}  ev(x) = pi1(x) : ev(pi2(pi2(x)));\n}}\n"
           "env E {{ v_r = rec a. 0 : 1 : a; }}\n")


def test_a_program_that_spells_a_standard_equation(tmp_path, capsys):
    """The data system supplies the standard equations: a program may spell
    one once, and a second copy overlaps the first."""
    pi2 = "  pi2(cons(x1, x2)) = x2;\n"
    ws = _ws(tmp_path, SYSTEM_SOURCE + _SPELLS.format(pi2))
    assert run_main(capsys, "--format=tagged", "eval", ws, "ev(v_r)", "--env", "E",
                    "--depth", "8") == (0, "APPROXIMATION\t0:0:0:0:0:0:0:0:<cut@8>\n"
                                           "STALL\tnone\n", "")
    ws = _ws(tmp_path, SYSTEM_SOURCE + _SPELLS.format(pi2 * 2))
    assert run_main(capsys, "check", ws) == (
        2, "", "error: program 'ev': [overlap] equations 'pi2(cons(x1, x2)) = x2' and "
               "'pi2(cons(x1, x2)) = x2' overlap; unifier {x1 -> x1', x2 -> x2'}\n")


@pytest.mark.parametrize("name", ["pi1", "delta"])
def test_a_binding_named_like_a_standard_function_collides(tmp_path, capsys, name):
    ws = _ws(tmp_path, FLIP_SOURCE + f"env E {{ {name} = rec a. 0 : a; }}\n")
    message = f"binding '{name}' collides with a function or constructor"
    assert run_main(capsys, "eval", ws, "flip(0 : 1)", "--env", "E", "--depth", "2") \
        == (2, "", f"error: {message}\n")
    w = parse_workspace(FLIP_SOURCE)
    env = DiagramEnv.of({name: RegularCoterm((CotermNode("0", ()),), 0)})
    with pytest.raises(EvalError, match=message):
        Session(w.programs["flip"], w.system, env)


def test_programs_that_define_a_function_alike_share_it(tmp_path, capsys):
    ws = _ws(tmp_path, ONE_LINE_SYSTEM + "program f { f(x) = g(x); g(x) = x; }\n"
             "program h { h(x) = g(x); g(x) = x; }\nenv E { a = rec r. 0 : r; }\n")
    assert run_main(capsys, "eval", ws, "h(f(a))", "--env", "E", "--depth", "2") == (
        0, "0:0:<cut@2>\n", "")


def test_a_predicate_list_and_a_parenthesised_term_parse():
    ws = parse_workspace("system X { inductive B, N; coinductive S; constructor 0 : B; "
                         "constructor 1 : B; constructor cons : B * S -> S; }\n"
                         "program f { f(x) = (x); }\n")
    assert [p.name for p in ws.system.predicates] == ["B", "N", "S"]
    assert ws.programs["f"].body[0].rhs == Var("x")


@pytest.mark.parametrize("source, error", [
    ("# no stanza\n", "no system declared"),
    ("system X { inductive B, B; }\n",
     "system 'X': [dup-predicate] predicate 'B' declared more than once"),
    (ONE_LINE_SYSTEM + "program f { f(x) = x; f(y) = cons(0, y); }\n",
     "program 'f': [overlap] equations 'f(x) = x' and 'f(y) = cons(0, y)' overlap; "
     "unifier {x -> y}"),
], ids=["no-system", "system", "program"])
def test_a_workspace_without_a_valid_system_or_program_does_not_resolve(tmp_path, capsys,
                                                                        source, error):
    ws = _ws(tmp_path, source)
    assert run_main(capsys, "check", ws) == (2, "", f"error: {error}\n")


def test_a_command_that_needs_a_program_on_a_workspace_without_one(tmp_path, capsys):
    ws = _ws(tmp_path, SYSTEM_SOURCE + "env E { a = rec r. 0 : r; }\n")
    assert run_main(capsys, "eval", ws, "a") == (2, "", "error: workspace defines no programs\n")


def test_a_depth_that_is_not_a_number_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as e:
        main(["eval", STREAMS_CDS, "v_a", "--depth", "four"])
    assert e.value.code == 2
    assert "argument --depth: expected an integer >= 0, not 'four'" in capsys.readouterr().err


ZEROS_PROGRAM = "program zeros { zeros = cons(0, zeros); }\n"


def imp_elim_chain(n: int) -> str:
    """A proof stanza of n nested imp-elims, each applying an assumption
    (S x) -> (S x) to the one below, over an assumption S(x).  It is one
    line, so the text grows linearly with n."""
    return ("proof p { " + "(imp-elim (S x) ((assume (imp (S x) (S x)) () {label f}) " * n
            + "(assume (S x) () {label h})" + ") {})" * n + " }\n")


def rewrite_chain(n: int) -> str:
    """A proof stanza of n nested rewrites by zeros = cons(0, zeros),
    alternately unfolding and folding zeros, over an assumption S(zeros);
    one line, like imp_elim_chain."""
    heads = ("(rewrite (S (zeros)) (", "(rewrite (S (cons 0 (zeros))) (")
    closes = (") {fn zeros idx 0 dir rl pos (1)})", ") {fn zeros idx 0 dir lr pos (1)})")
    return ("proof p { " + "".join(heads[k % 2] for k in range(n, 0, -1))
            + "(assume (S (zeros)) () {label h})"
            + "".join(closes[k % 2] for k in range(1, n + 1)) + " }\n")


@pytest.mark.parametrize("chain, command, out", [
    (imp_elim_chain, "check-proof",
     "VERDICT\tok\nJUDGMENT\t{f: (S(x) -> S(x)), h: S(x)} |- S(x)\n"),
    (imp_elim_chain, "normalize", "VERDICT\tok\nDETOUR-FREE\ttrue\n"),
    (rewrite_chain, "check-proof", "VERDICT\tok\nJUDGMENT\t{h: S(zeros)} |- S(zeros)\n"),
    (rewrite_chain, "normalize", "VERDICT\tok\nDETOUR-FREE\ttrue\n"),
    (rewrite_chain, "extract", "VERDICT\textracted\nPRINCIPAL\tf0\n"
                               "CERT\tcoinductions\t0\nCERT\tmax-split-chain\t0\n"),
], ids=["imp-elim-check", "imp-elim-normalize", "rewrite-check", "rewrite-normalize",
        "rewrite-extract"])
def test_a_proof_ten_thousand_levels_deep(tmp_path, capsys, chain, command, out):
    """The proof reader, the checker, normalize and the extractor each walk
    a proof on `_run`'s stack: no proof depth reaches the interpreter's
    recursion limit."""
    ws = _ws(tmp_path, ONE_LINE_SYSTEM + ZEROS_PROGRAM + chain(10_000))
    assert run_main(capsys, "--format=tagged", command, ws, "p") == (0, out, "")



def test_cmd_check_proof_of_a_rewrite_by_an_equation_three_thousand_levels_deep(tmp_path,
                                                                               capsys):
    """The checker matches an equation's sides against the rewritten atom
    on an explicit stack: no equation depth reaches the recursion limit."""
    n = 3_000
    body = "cons(0, " * n + "x" + ")" * n
    ws = _ws(tmp_path, ONE_LINE_SYSTEM + "program deep { deep(x) = " + body + "; }\n"
             + "proof p { (rewrite (S " + "(cons 0 " * n + "x" + ")" * n + ") "
             "((assume (S (deep x)) () {label h})) {fn deep idx 0 dir lr pos (1)}) }\n")
    code, out, err = run_main(capsys, "--format=tagged", "check-proof", ws, "p")
    assert (code, err) == (0, "")
    assert out == f"VERDICT\tok\nJUDGMENT\t{{h: S(deep(x))}} |- S({body})\n"

@pytest.mark.parametrize("intro", ["and-intro", "or-intro"])
def test_cmd_extract_of_an_introduction_chain_two_thousand_levels_deep(monkeypatch, capsys,
                                                                      intro):
    """The extractor builds a realizer's term, and a conclusion's free
    variables, on explicit stacks.  A chain's text grows with the square of
    its depth (24 MB at 2,000 levels), so the workspace is built in memory
    and stands in for the file the command reads."""
    ws = parse_workspace(ONE_LINE_SYSTEM + IDENT)
    h = assume("h", DataAtom(ws.system.predicate("S"), Var("x")))
    d = h
    for _ in range(2_000):
        d = and_intro(d, h) if intro == "and-intro" else or_intro(1, d, h.conclusion)
    ws.proofs["p"] = d
    monkeypatch.setattr(import_module("coeq.cli"), "parse_files", lambda paths: ws)
    code, out, err = run_main(capsys, "--format=tagged", "extract", "ws.cds", "p")
    assert (code, err) == (0, "")
    assert out == ("VERDICT\textracted\nPRINCIPAL\tf0\n"
                   "CERT\tcoinductions\t0\nCERT\tmax-split-chain\t0\n")


def _and_chain(atom, n: int):
    """((atom & atom) & ... & atom), n conjunctions deep, and its text."""
    f = atom
    for _ in range(n):
        f = And(f, atom)
    return f, "(" * n + str(atom) + f" & {atom})" * n


_S_X = DataAtom("S", Var("x"))
_CHAIN_2000 = _and_chain(_S_X, 2_000)[1]
_CHAIN_3000 = _and_chain(_S_X, 3_000)[1]


def _intro_chain_2000():
    h = assume("h", _S_X)
    d = h
    for _ in range(2_000):
        d = and_intro(d, h)
    return d


def _ex_intro_of_a_chain_3000():
    """ex p. of a 3,000-deep `and` chain of S(p), from an assumption of its
    instance at x."""
    return ex_intro("p", _and_chain(DataAtom("S", Var("p")), 3_000)[0], Var("x"),
                    assume("h", _and_chain(_S_X, 3_000)[0]))


@pytest.mark.parametrize("proof, argv, expected", [
    (_intro_chain_2000, ("check-proof",), f"{{h: S(x)}} |- {_CHAIN_2000}\n"),
    (_intro_chain_2000, ("--format=tagged", "check-proof"),
     f"VERDICT\tok\nJUDGMENT\t{{h: S(x)}} |- {_CHAIN_2000}\n"),
    (_intro_chain_2000, ("normalize",), None),
    (_ex_intro_of_a_chain_3000, ("--format=tagged", "check-proof"),
     f"VERDICT\tok\nJUDGMENT\t{{h: {_CHAIN_3000}}} |- "
     f"(ex p. {_CHAIN_3000.replace('S(x)', 'S(p)')})\n"),
    (_ex_intro_of_a_chain_3000, ("--format=tagged", "extract"),
     "VERDICT\textracted\nPRINCIPAL\tf0\nCERT\tcoinductions\t0\n"
     "CERT\tmax-split-chain\t0\n"),
], ids=["and-chain-check", "and-chain-check-tagged", "and-chain-normalize",
        "ex-intro-check-tagged", "ex-intro-extract-tagged"])
def test_a_formula_thousands_of_levels_deep_prints_and_substitutes(monkeypatch, capsys,
                                                                   proof, argv, expected):
    """Formulas print, infix and as s-expressions, and substitute on
    explicit stacks.  The workspace is built in memory, because reading
    such a proof's text is slow."""
    ws = parse_workspace(ONE_LINE_SYSTEM + IDENT)
    ws.proofs["p"] = proof()
    monkeypatch.setattr(import_module("coeq.cli"), "parse_files", lambda paths: ws)
    code, out, err = run_main(capsys, *argv, "ws.cds", "p")
    assert (code, err) == (0, "")
    if expected is None:   # the normal form is the proof: one line per leaf, two per node
        lines = out.splitlines()
        assert len(lines) == 3 * 2_000 + 1
        assert lines[0] == "(and-intro " + "(and " * 2_000 + "(S x)" + " (S x))" * 2_000 + " ("
    else:
        assert out == expected


def test_cmd_eval_of_a_right_hand_side_five_thousand_levels_deep(tmp_path, capsys):
    """The kernel substitutes into a right-hand side on its own stack."""
    ws = _ws(tmp_path, SYSTEM_SOURCE + f"program deep {{ deep(x) = {_DEEP}; }}\n"
             "env E { v_a = 0 : v_b; v_b = 1 : v_a; }\n")
    assert run_main(capsys, "--format=tagged", "eval", ws, "deep(v_a)", "--env", "E",
                    "--depth", "8") == (
        0, "APPROXIMATION\t0:0:0:0:0:0:0:0:<cut@8>\nSTALL\tnone\n", "")


def test_a_proof_two_thousand_levels_deep_prints_and_reads_back():
    """show_derivation prints any depth, one line per leaf and two per
    other node, and the reader reads its text back to the same proof."""
    head = ONE_LINE_SYSTEM + ZEROS_PROGRAM
    d = parse_workspace(head + imp_elim_chain(2_000)).proofs["p"]
    shown = show_derivation(d)
    lines = shown.splitlines()
    assert len(lines) == 3 * 2_000 + 1
    assert lines[2_000 * 2] == "  " * 2_000 + "(assume (S x) () {label h})"
    again = parse_workspace(head + "proof p {\n" + shown + "\n}\n").proofs["p"]
    assert show_derivation(again) == shown


def test_implications_universals_and_nullary_calls_print_and_read_back():
    head = ONE_LINE_SYSTEM + ZEROS_PROGRAM
    text = "(assume (imp (all y (S y)) (ex z (= (zeros) z))) () {label h})"
    d = parse_workspace(head + f"proof p {{ {text} }}").proofs["p"]
    assert show_derivation(d) == text
    assert parse_workspace(head + f"proof p {{ {show_derivation(d)} }}").proofs["p"] == d


_WORDS = ("system W { inductive A; coinductive Wd; constructor a : A; constructor b : A; "
          "constructor nil : Wd; constructor c : A * Wd -> Wd; }\n"
          "program ident { ident(x) = x; }\n"
          "proof p { (or-intro (or (Wd x) (Wd y)) ((assume (Wd x) () {label h})) {i 1}) }\n")

_SWAP = ("proof p { (or-elim (or (S y) (S x)) ((assume (or (S x) (S y)) () {label h}) "
         "(or-intro (or (S y) (S x)) ((assume (S x) () {label l})) {i 2}) "
         "(or-intro (or (S y) (S x)) ((assume (S y) () {label r})) {i 1})) "
         "{label1 l label2 r}) }\n")


@pytest.mark.parametrize("source", [
    _WORDS,
    ONE_LINE_SYSTEM.replace("constructor 0 : B; constructor 1 : B;",
                            "constructor 1 : B; constructor 0 : B;") + IDENT + _SWAP,
], ids=["words", "sm-declaring-1-before-0"])
def test_cmd_extract_refuses_a_system_other_than_sm(tmp_path, capsys, source):
    """The extractor writes realizers over cons and the bits, and places a
    dispatch's branches by Sm's constructor order.  On another system, or
    on Sm declared in another order, the proof checks but extraction is a
    failed verdict (it used to print a program that does not check, or one
    that does not realize the proof's conclusion)."""
    ws = _ws(tmp_path, source)
    assert run_main(capsys, "--format=tagged", "check-proof", ws, "p")[0] == 0
    assert run_main(capsys, "--format=tagged", "extract", ws, "p") == (
        1, "VERDICT\tfailed\nREASON\textraction expects a boolean-stream system\n", "")
