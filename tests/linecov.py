"""Line coverage of src/coeq by the test suite, with the standard library only.

    python tests/linecov.py [pytest arguments]

runs pytest in this process under a line collector, then prints, for
each module of src/coeq, the statements that never ran, as line ranges,
and the totals.  Without arguments it runs the whole suite.  It exits 1
when any statement is unrun, else with pytest's exit code.  It needs
Python 3.12 or later: the collector takes `sys.monitoring` LINE events
and turns each line's off after its first hit, so a line costs once.

A statement counts as run when a line of its own (for a compound
statement, of its header) executed; docstrings and other statements that
compile to no code are not counted.  This is not a test module: pytest
does not collect it, and the tier-1 run leaves it out.
"""
from __future__ import annotations

import ast
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "coeq"


def _code_lines(code) -> set[int]:
    """The lines that have bytecode, in `code` and every nested body."""
    out: set[int] = set()
    todo = [code]
    while todo:
        c = todo.pop()
        out.update(line for _start, _end, line in c.co_lines() if line is not None)
        todo += [k for k in c.co_consts if isinstance(k, type(code))]
    return out


def _statements(tree: ast.AST):
    """(first line, lines that run it) of every statement but docstrings."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if isinstance(body, list) and body else node.end_lineno
        yield node.lineno, range(first, max(node.lineno, last) + 1)


def _ranges(lines: list[int]) -> str:
    out, start, prev = [], None, None
    for n in lines + [None]:
        if start is not None and (n is None or n != prev + 1):
            out.append(str(start) if start == prev else f"{start}-{prev}")
            start = None
        if start is None:
            start = n
        prev = n
    return ", ".join(out)


def report(hits: dict[str, set[int]]) -> tuple[str, int]:
    """The report's text and the number of unrun statements."""
    lines, total, unrun_total = [], 0, 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        code = _code_lines(compile(source, str(path), "exec"))
        ran = hits.get(str(path), set())
        counted = [(line, [n for n in span if n in code])
                   for line, span in _statements(ast.parse(source))]
        counted = [(line, span) for line, span in counted if span]
        unrun = sorted({line for line, span in counted if not ran.intersection(span)})
        total += len(counted)
        unrun_total += len(unrun)
        lines.append(f"{path.name}\t{len(unrun)} of {len(counted)} unrun"
                     + (f"\t{_ranges(unrun)}" if unrun else ""))
    lines.append(f"total\t{unrun_total} of {total} unrun")
    return "\n".join(lines), unrun_total


def _monitor(hits: dict[str, set[int]]):
    """Collect with `sys.monitoring` LINE events; returns the stop function."""
    mon, prefix = sys.monitoring, str(PACKAGE) + os.sep
    tool = mon.COVERAGE_ID
    # code file name -> the set of lines run in it, or None outside the package
    known: dict[str, set[int] | None] = {}

    def line(code, lineno):
        name = code.co_filename
        if name not in known:
            full = os.path.abspath(name)
            known[name] = hits.setdefault(full, set()) if full.startswith(prefix) else None
        if known[name] is not None:
            known[name].add(lineno)
        return mon.DISABLE   # this line of this code reports no more

    mon.use_tool_id(tool, "linecov")
    mon.register_callback(tool, mon.events.LINE, line)
    mon.set_events(tool, mon.events.LINE)

    def stop():
        mon.set_events(tool, mon.events.NO_EVENTS)
        mon.register_callback(tool, mon.events.LINE, None)
        mon.free_tool_id(tool)
    return stop


def main(argv: list[str]) -> int:
    if not hasattr(sys, "monitoring"):
        print("linecov needs Python 3.12 or later (sys.monitoring)", file=sys.stderr)
        return 2
    import pytest

    hits: dict[str, set[int]] = {}
    stop = _monitor(hits)
    try:
        code = pytest.main(argv or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        stop()
    text, unrun = report(hits)
    print(text)
    return 1 if unrun else int(code)

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
