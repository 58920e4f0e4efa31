"""Expected verdicts computed in plain Python, without calling coeq.

A boolean stream is a pair ``(bits, loop_to)``: emit ``bits``, then jump
back to position ``loop_to`` forever.  That is the same shape the
workloads hand to ``coeq.system.stream_coterm``, so the bits an observation
must show follow from the pair alone.  Stream functions here act on finite
prefixes (lists of 0/1); each is the textbook meaning of the coeq program of
the same name.
"""
from __future__ import annotations

NO_MATCH = "no-matching-equation"


def unroll(stream, n: int) -> list[int]:
    bits, loop_to = stream
    out = list(bits[:n])
    i = len(bits)
    period = len(bits) - loop_to
    while len(out) < n:
        out.append(bits[loop_to + (i - loop_to) % period])
        i += 1
    return out


def first_difference(a: list[int], b: list[int]) -> int | None:
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return i
    return None


# -- stream functions on prefixes ---------------------------------------------

def _even(x):
    return x[0::2]


def _odd(x):
    return x[1::2]


def _merge(x, y):
    out = []
    for a, b in zip(x, y):
        out += [a, b]
    return out


def _flip(x):
    return [1 - b for b in x]


def _zipxor(x, y):
    return [a ^ b for a, b in zip(x, y)]


def _const(bit):
    return lambda n: [bit] * n


STREAM_FUNCTIONS = {
    "ident": lambda x: list(x),
    "even": _even,
    "odd": _odd,
    "flip": _flip,
    "merge": _merge,
    "zipxor": _zipxor,
}

NULLARY_STREAMS = {
    "zeros": _const(0),
    "ones": _const(1),
    "alt": lambda n: [i % 2 for i in range(n)],
}


def evaluate(expr, inputs: dict[str, list[int]], n: int) -> list[int]:
    """First n elements of an expression tree over named input prefixes.

    ``expr`` is an input name, or ``(function, arg, ...)``.  Inputs must be
    long enough for every function on the way (4n + 8 always is here).
    """
    if isinstance(expr, str):
        if expr in NULLARY_STREAMS:
            return NULLARY_STREAMS[expr](n)
        return inputs[expr][:n]
    fn, *args = expr
    vals = [evaluate(a, inputs, 4 * n + 8) for a in args]
    return STREAM_FUNCTIONS[fn](*vals)[:n]


def expected_observation(expr, inputs, depth: int):
    """(bits, ending) of a productive stream observed to `depth`."""
    return evaluate(expr, inputs, depth), ("cut", depth)


def expected_b(x: list[int], y: list[int], depth: int):
    """The workspace program ``b`` copies equal streams and stalls with
    no-matching-equation at the first position where they differ."""
    j = first_difference(x[:depth], y[:depth])
    if j is None:
        return x[:depth], ("cut", depth)
    return x[:j], ("stall", NO_MATCH, j)


def expected_omega(lhs, rhs, inputs, depth: int):
    """Verdict of a finite-depth bisimulation of two productive streams:
    equal, or the destructor path of the first differing head."""
    a = evaluate(lhs, inputs, depth)
    b = evaluate(rhs, inputs, depth)
    j = first_difference(a, b)
    if j is None:
        return ("equal-up-to-depth", ())
    return ("differs", (2,) * j + (1,))


def render_stream(bits: list[int], cut: int) -> str:
    """The CLI's stream rendering of an observation cut at `cut`."""
    return "".join(f"{b}:" for b in bits) + f"<cut@{cut}>"
