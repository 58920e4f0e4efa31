"""No call into coeq leaves a reference cycle: every object a proof-layer
walk or a command builds is freed by reference counting when the call
returns, so the cyclic collector finds nothing to do."""
import contextlib
import gc
import io
import pathlib

from helpers import SM, fn, inject_detours, stream_family

from coeq.cli import main
from coeq.corec import check_primitive_corecursive, compile_schema, stock_library
from coeq.evaluation import DiagramEnv
from coeq.extract import extract, roundtrip_report
from coeq.formulas import DataAtom
from coeq.logic import check_proof, normalize
from coeq.prove import prove_corec
from coeq.realize import RealizabilityJudgment, realizes
from coeq.system import stream_coterm
from coeq.terms import Fun, Var

STREAMS = str(pathlib.Path(__file__).resolve().parents[1] / "workspaces" / "streams.cds")
COMMANDS = (("productive", STREAMS, "flip"),
            ("prove-corec", STREAMS, "flip"),
            ("extract", STREAMS, "flip"),
            ("eval", STREAMS, "flip(v_a)", "--env", "E"),
            ("bisim", STREAMS, "flip(v_a)", "v_b", "--env", "E"))


def _realize_extraction(program):
    """Recognize, compile, prove, check, normalize, extract, and realize the
    extraction at depth 8 on one input stream per argument."""
    bundle = check_primitive_corecursive(program, SM).bundle
    compiled = compile_schema(bundle, SM)
    d = prove_corec(bundle, SM)
    assert check_proof(SM, compiled, d).ok
    result = extract(normalize(d), compiled, SM)
    names = [f"u{i}" for i in range(program.arity)]
    env = DiagramEnv.of({n: stream_coterm([1, 0, 0][: i + 1] + [1], i)
                         for i, n in enumerate(names)})
    args = tuple(fn(n) for n in names)
    xs = tuple(Var(f"x{i + 1}") for i in range(program.arity))
    # value parameters x_i and realizer parameters h_i both take input i
    f0_args = tuple(args[int(p[1:]) - 1]
                    for p in result.value_params + result.realizer_params)
    j = RealizabilityJudgment.of(result.program, SM, env,
                                 {x.name: a for x, a in zip(xs, args)},
                                 Fun(result.principal, f0_args),
                                 DataAtom("S", Fun(program.principal, xs)), 8)
    assert realizes(j).holds


def _commands():
    with contextlib.redirect_stdout(io.StringIO()):
        return [main(list(argv)) for argv in COMMANDS]


def test_the_pipeline_and_the_commands_leave_no_cyclic_garbage():
    assert _commands() == [0, 0, 0, 0, 0]   # builds the command-line parser
    gc.collect()
    gc.disable()
    try:
        _realize_extraction(stock_library()["merge"].program)
        _realize_extraction(stream_family("mutual", 4))
        d = prove_corec(check_primitive_corecursive(stream_family("mutual", 4), SM).bundle, SM)
        assert normalize(inject_detours(d, 3)) == d
        report = roundtrip_report(depth=8, library={"flip": stock_library()["flip"]},
                                  inputs_per_entry=2)
        codes = _commands()
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert report.ok and codes == [0, 0, 0, 0, 0]
    assert unreachable == 0
