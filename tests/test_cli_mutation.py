"""A derandomised mutation property of the reader and every command.

Each run makes 1-3 token edits (delete, duplicate, replace by any token or by
one of the same class, swap two neighbours) to `workspaces/streams.cds` or to the
printed proof of flip or even, and runs one of eleven commands on the result
in process.  Every run must end in a verdict (exit 0 or 1, with its result
lines) or in a user error (exit 2, `error:` on stderr): never in an
`internal error`, an uncaught exception or a hang.
"""
import pathlib
import random
import signal

import pytest

from coeq.cli import main, parse_files, show_derivation, show_program
from coeq.extract import prove_corec_program
from coeq.reader import PUNCT, tokenize

STREAMS = pathlib.Path(__file__).resolve().parents[1] / "workspaces" / "streams.cds"
RUNS_PER_COMMAND = 100
SECONDS_PER_RUN = 10


def _proof_workspace(name: str) -> str:
    """The streams system, `name` as prove-corec compiles it, and its
    printed proof as `proof p`."""
    text = STREAMS.read_text(encoding="utf-8")
    ws = parse_files([str(STREAMS)])
    d, compiled = prove_corec_program(ws.programs[name], ws.system)
    system = text[text.index("system"):text.index("}") + 1]
    return f"{system}\n{show_program(name, compiled)}\nproof p {{\n{show_derivation(d)}\n}}\n"


COMMANDS = [
    ("streams", ("check",)),
    ("streams", ("productive", "flip")),
    ("streams", ("productive", "even")),
    ("streams", ("eval", "flip(v_a)", "--env", "E", "--depth", "8")),
    ("streams", ("bisim", "flip(v_a)", "v_b", "--env", "E", "--depth", "8")),
    ("streams", ("prove-corec", "even")),
    ("flip", ("check-proof", "p")),
    ("even", ("check-proof", "p")),
    ("flip", ("extract", "p")),
    ("even", ("extract", "p")),
    ("flip", ("normalize", "p")),
]


@pytest.fixture(scope="module")
def bases() -> dict[str, list[str]]:
    texts = {"streams": STREAMS.read_text(encoding="utf-8"),
             "flip": _proof_workspace("flip"), "even": _proof_workspace("even")}
    return {k: tokenize(text)[:-1] for k, text in texts.items()}


def mutate(rng: random.Random, toks: list[str]) -> str:
    toks = list(toks)
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(toks))
        op = rng.randrange(5)
        if op == 0:
            del toks[i]
        elif op == 1:
            toks.insert(i, toks[i])
        elif op == 2:
            toks[i] = rng.choice(toks)
        elif op == 3:   # a name for a name, a punctuation mark for a punctuation mark
            toks[i] = rng.choice([t for t in toks if (t in PUNCT) == (toks[i] in PUNCT)])
        elif i + 1 < len(toks):
            toks[i], toks[i + 1] = toks[i + 1], toks[i]
    return " ".join(toks)


class Hang(BaseException):
    """Raised by the alarm; not an Exception, so `main` cannot report it."""


def _hang(signum, frame):
    raise Hang


@pytest.mark.parametrize("base, argv", COMMANDS,
                         ids=[f"{b} {' '.join(a[:2])}" for b, a in COMMANDS])
def test_a_mutated_workspace_ends_in_a_verdict_or_a_located_error(tmp_path, capsys, bases,
                                                                  base, argv):
    rng = random.Random(f"{base} {' '.join(argv)}")
    path = tmp_path / "ws.cds"
    old = signal.signal(signal.SIGALRM, _hang)
    try:
        for _ in range(RUNS_PER_COMMAND):
            text = mutate(rng, bases[base])
            path.write_text(text, encoding="utf-8")
            signal.alarm(SECONDS_PER_RUN)
            try:
                code = main(["--format=tagged", argv[0], str(path), *argv[1:]])
            except Hang:
                pytest.fail(f"no verdict in {SECONDS_PER_RUN} s on:\n{text}")
            finally:
                signal.alarm(0)
            out, err = capsys.readouterr()
            if code == 2:
                assert out == "" and err.startswith("error: "), (err, text)
            else:
                assert code in (0, 1) and err == "", (code, err, text)
                assert out and all("\t" in line for line in out.splitlines()), (out, text)
    finally:
        signal.signal(signal.SIGALRM, old)
