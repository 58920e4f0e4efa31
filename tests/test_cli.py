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
from coeq.evaluation import (NO_MATCH, ApproxNode, Cut, DiagramEnv, GeneratorBinding,
                             Session, StallReason, Stalled)
from coeq.extract import prove_corec_program
from coeq.logic import check_proof
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
    ws = parse_workspace(SM_SOURCE + "\nenv P { v_p = 1 : (rec a. 0 : a); }")
    sess = Session(ws.programs["flip"], ws.system, ws.envs["P"])
    from helpers import approx_bits
    assert approx_bits(sess.observe(Fun("v_p"), 5)) == [1, 0, 0, 0, 0]


def test_parse_errors_have_positions():
    with pytest.raises(ParseError) as e:
        parse_workspace("system X {\n  constructor c : Nope;\n}")
    assert "unknown predicate" in str(e.value)
    with pytest.raises(ParseError) as e2:
        parse_workspace(SM_SOURCE + "\nprogram bad { f(cons(0)) = 0; }")
    assert "arity" in str(e2.value)


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
            + [f"proof {name} {{\n{show_derivation(d, 1)}\n}}"
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


def test_cmd_prove_corec_sort_conflict_reasons(tmp_path, capsys):
    f = tmp_path / "sorts.cds"
    f.write_text(SORTS_SOURCE)
    for name, reason in (
            ("g", "variable 'x1' used at both sorts in 'delta(x1, pi1(x1), 0, 0)'"),
            ("h", "mixed branch sorts in 'delta(pi1(x1), 0, x1, x1)'")):
        code, out, _ = run_main(capsys, "--format=tagged", "prove-corec", str(f), name)
        assert code == 1
        assert out.splitlines() == ["VERDICT\tfailed", f"REASON\t{reason}"]


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
TRANSCRIPT_SHA256 = "e72f6e5c253abb167fae29266244334c470cbc51bbe66898dd0584145c6284dc"

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
    assert [s.k.steps_total for s in sessions] == [12]


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
    assert err.startswith("error: roundtrip needs depth >= 0 and at least one input")


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
], ids=["character", "two-systems", "reserved", "arity", "system-predicate", "rebound",
        "cycle", "degenerate", "type-predicate", "formula-predicate", "no-system",
        "env-no-system"])
def test_a_malformed_workspace_is_reported_at_the_offending_token(tmp_path, capsys,
                                                                  source, error):
    """A parse error names its line and column, and the token there: the
    offending name itself where the error is found after reading it."""
    ws = _ws(tmp_path, source)
    assert run_main(capsys, "check", ws) == (2, "", f"error: {ws}:{error}\n")


def test_programs_that_define_a_function_differently_conflict(tmp_path, capsys):
    ws = _ws(tmp_path, ONE_LINE_SYSTEM + "program f { f(x) = g(x); g(x) = x; }\n"
             "program h { h(x) = g(x); g(x) = cons(0, x); }\n")
    assert run_main(capsys, "check", ws) == (
        2, "", "error: programs conflict: [overlap] equations 'g(x) = x' and "
               "'g(x) = cons(0, x)' overlap; unifier {x -> x'}\n")


def test_a_predicate_list_and_a_parenthesised_term_parse():
    ws = parse_workspace("system X { inductive B, N; coinductive S; constructor 0 : B; "
                         "constructor 1 : B; constructor cons : B * S -> S; }\n"
                         "program f { f(x) = (x); }\n")
    assert [p.name for p in ws.system.predicates] == ["B", "N", "S"]
    assert ws.programs["f"].body[0].rhs == Var("x")
