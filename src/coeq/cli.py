"""Batch commands: `main` reads the workspace files a command names (their
syntax is in `reader`), resolves every name in them, runs the command and
prints its verdict.  `roundtrip --depth` and `--inputs` must be at least 1.
"""
from __future__ import annotations

import argparse
import re
import sys

from .corec import check_primitive_corecursive
from .evaluation import (DEFAULT_BUDGET, NO_MATCH, ApproxNode, Approximation, Cut,
                         Session, Stalled, derives_omega, first_stall)
from .extract import (ExtractError, extract, prove_corec_program, require_check,
                      roundtrip_report)
from .formulas import (And, DataAtom, Derivation, EqAtom, Exists, Forall, Formula, Imp,
                       Or, classify_formula)
from .logic import check_proof, has_detour, normalize
from .program import Program, validate_program
from .reader import ParseError, Parser, Workspace
from .system import ConstructorType, ValidationReport, validate_system
from .terms import Con, Error, Term, Var


def parse_workspace(source: str) -> Workspace:
    ws = Parser(source).parse_workspace()
    resolve_workspace(ws)
    return ws


def parse_files(paths: list[str]) -> Workspace:
    """One workspace from all files; a parse error names its file and is
    numbered within it."""
    texts = [_read(p) for p in paths]
    try:
        return parse_workspace("\n".join(texts))
    except ParseError as e:
        pos = e.pos
        for path, text in zip(paths, texts):
            if pos <= len(text):   # each file is followed by the joining newline
                break
            pos -= len(text) + 1
        raise ParseError(e.message, text, pos, path) from None


def _read(path: str) -> str:
    """A file's text; a byte that is not UTF-8 is a parse error where it stands."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError:
        # read again with each undecodable byte as the lone surrogate U+DC80-U+DCFF
        with open(path, encoding="utf-8", errors="surrogateescape") as fh:
            text = fh.read()
        pos = re.search("[\udc80-\udcff]", text).start()
        raise ParseError(f"invalid UTF-8 byte 0x{ord(text[pos]) & 0xff:02x}", text, pos,
                         path) from None


def _one_line(rep: ValidationReport) -> str:
    return "; ".join(str(v) for v in rep.violations)


def resolve_workspace(ws: Workspace) -> None:
    """Total name resolution before any command runs."""
    if ws.system is None:
        raise Error("no system declared")
    rep = validate_system(ws.system)
    if not rep.ok:
        raise Error(f"system '{ws.system_name}': {_one_line(rep)}")
    for name, prog in ws.programs.items():
        rep = validate_program(prog, ws.system)
        if not rep.ok:
            raise Error(f"program '{name}': {_one_line(rep)}")
    if len(ws.programs) > 1:
        rep = validate_program(ws.merged_program(), ws.system)
        if not rep.ok:
            raise Error(f"programs conflict: {_one_line(rep)}")
    for name, env in ws.envs.items():
        rep = env.validate(ws.system)
        if not rep.ok:
            raise Error(f"env '{name}', {rep.violations[0].message}")
        clash = env.collision(ws.system, ws.programs.values())
        if clash:
            raise Error(clash)


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

def show_system(ws: Workspace) -> str:
    ds = ws.system
    lines = [f"system {ws.system_name or 'main'} {{"]
    for p in ds.predicates:
        lines.append(f"  {p.kind.value} {p.name};")
    for ct in ds.types:
        if ct.argument_predicates:
            args = " * ".join(q.name for q in ct.argument_predicates)
            lines.append(f"  constructor {ct.constructor.name} : {args} -> "
                         f"{ct.result_predicate.name};")
        else:
            lines.append(f"  constructor {ct.constructor.name} : "
                         f"{ct.result_predicate.name};")
    lines.append("}")
    return "\n".join(lines)


def show_program(name: str, prog: Program) -> str:
    lines = [f"program {name} {{"]
    for e in prog.body:
        args = ", ".join(str(p) for p in e.patterns)
        head = f"{e.function}({args})" if e.patterns else e.function
        lines.append(f"  {head} = {e.rhs};")
    lines.append("}")
    return "\n".join(lines)


_HEADS = {And: "and", Or: "or", Imp: "imp", Exists: "ex", Forall: "all", EqAtom: "="}


def show_sexp(x: Formula | Term) -> str:
    """A formula or a term as an s-expression, on an explicit stack."""
    out, stack = [], [x]   # formulas and terms to print, and text to emit
    while stack:
        u = stack.pop()
        if isinstance(u, str):
            out.append(u)
        elif isinstance(u, (Var, Con)) and not u.args:
            out.append(u.name)
        elif isinstance(u, Term):
            stack += [")"] + [y for a in reversed(u.args) for y in (a, " ")] + ["(" + u.name]
        elif isinstance(u, DataAtom):
            stack += [")", u.term, f"({u.predicate} "]
        elif isinstance(u, (Exists, Forall)):
            stack += [")", u.body, f"({_HEADS[type(u)]} {u.var} "]
        else:
            stack += [")", u.right, " ", u.left, f"({_HEADS[type(u)]} "]
    return "".join(out)


def show_attr_value(v) -> str:
    if isinstance(v, int):
        return str(v)
    if isinstance(v, ConstructorType):
        names = [p.name for p in v.argument_predicates] + [v.result_predicate.name]
        return f"({v.constructor.name} {' '.join(names)})"
    if isinstance(v, (Term, Formula)):
        return show_sexp(v)
    if isinstance(v, tuple):
        if v and isinstance(v[0], tuple):
            return "(" + " ".join("(" + " ".join(x) + ")" for x in v) + ")"
        return "(" + " ".join(str(x) for x in v) + ")"
    return str(v)


def show_derivation(d: Derivation) -> str:
    """A node with premises opens a line, its premises follow one level
    deeper, and a line closes it; written in one pass with an explicit
    stack, so any proof depth prints in time linear in the text."""
    lines: list[str] = []
    todo: list = [(d, 0)]   # nodes to print, and closing lines
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            lines.append(item)
            continue
        d, depth = item
        pad = "  " * depth
        attrs = " ".join(f"{k.replace('_', '-')} {show_attr_value(v)}"
                         for k, v in d.attrs)
        head, tail = f"{pad}({d.rule} {show_sexp(d.conclusion)} (", f") {{{attrs}}})"
        if d.premises:
            lines.append(head)
            todo.append(pad + tail)
            todo.extend((p, depth + 1) for p in reversed(d.premises))
        else:
            lines.append(head + tail)
    return "\n".join(lines)


def show_approximation(a: Approximation) -> str:
    """Stream-flattened rendering: `1:0:1:0:<cut@4>`.  Written with an
    explicit stack of pieces, so any observation depth prints."""
    out: list[str] = []
    todo: list[Approximation | str] = [a]
    while todo:
        a = todo.pop()
        if isinstance(a, str):
            out.append(a)
        elif isinstance(a, Cut):
            out.append(f"<cut@{a.depth}>")
        elif isinstance(a, Stalled):
            out.append("<stall:no-match>" if a.reason.kind == NO_MATCH
                       else f"<stall:budget@{a.reason.steps}>")
        elif a.constructor == "cons" and len(a.children) == 2 \
                and isinstance(a.children[0], ApproxNode) \
                and not a.children[0].children:
            out.append(f"{a.children[0].constructor}:")
            todo.append(a.children[1])
        elif not a.children:
            out.append(a.constructor)
        else:
            pieces = [x for c in a.children for x in (", ", c)][1:]   # c1, ", ", c2, ...
            todo += [")"] + pieces[::-1] + [f"{a.constructor}("]
    return "".join(out)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

class Reporter:
    def __init__(self, tagged: bool):
        self.tagged = tagged
        self.lines: list[str] = []

    def kv(self, key: str, value) -> None:
        if self.tagged:
            self.lines.append(f"{key}\t{value}")

    def text(self, line: str) -> None:
        if not self.tagged:
            self.lines.append(line)


def _program(ws: Workspace, args) -> Program:
    """The program `--program` names, else the union of all programs."""
    return ws.merged_program() if args.program is None else ws.pick_program(args.program)


def _proof(ws: Workspace, name: str) -> Derivation:
    if name not in ws.proofs:
        raise Error(f"unknown proof '{name}'")
    return ws.proofs[name]


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def cmd_check(args, ws: Workspace, r: Reporter) -> int:
    r.text(f"system {ws.system_name}: ok "
           f"({len(ws.system.vocabulary)} constructors, "
           f"{len(ws.system.predicates)} predicates)")
    r.kv("SYSTEM", "ok")
    for name in ws.programs:
        r.text(f"program {name}: ok")
        r.kv(f"PROGRAM {name}", "ok")
    for name in ws.envs:
        r.text(f"env {name}: ok")
        r.kv(f"ENV {name}", "ok")
    return 0


def _session(ws: Workspace, args) -> Session:
    prog = _program(ws, args)
    env = None
    if args.env:
        if args.env not in ws.envs:
            raise Error(f"unknown env '{args.env}'")
        env = ws.envs[args.env]
    elif len(ws.envs) == 1:
        env = next(iter(ws.envs.values()))
    return Session(prog, ws.system, env)


def _parse_cli_term(ws: Workspace, text: str) -> Term:
    p = Parser(text, ws, ws.known_names())
    t = p.parse_term(ws.system)
    if not p.at_end():
        raise p.fail("trailing input after term")
    return t


def cmd_eval(args, ws: Workspace, r: Reporter) -> int:
    sess = _session(ws, args)
    t = _parse_cli_term(ws, args.term)
    a = sess.observe(t, args.depth, args.budget)
    rendered = show_approximation(a)
    r.text(rendered)
    r.kv("APPROXIMATION", rendered)
    stall = first_stall(a)
    if stall is None:
        r.kv("STALL", "none")
        return 0
    path, leaf = stall
    r.kv("STALL", f"{list(path)} {leaf.reason}")
    return 1


def cmd_bisim(args, ws: Workspace, r: Reporter) -> int:
    sess = _session(ws, args)
    t1 = _parse_cli_term(ws, args.term1)
    t2 = _parse_cli_term(ws, args.term2)
    res = derives_omega(sess.program, None, t1, t2, args.depth, args.budget,
                        session=sess)
    r.text(str(res))
    r.kv("VERDICT", res.status)
    if res.status != "equal-up-to-depth":
        r.kv("PATH", list(res.path))
    return 0 if res.equal else 1


def cmd_productive(args, ws: Workspace, r: Reporter) -> int:
    verdict = check_primitive_corecursive(ws.pick_program(args.prog), ws.system)
    r.text(verdict.report())
    r.kv("VERDICT", "primitive-corecursive" if verdict.accepted else "rejected")
    if not verdict.accepted:
        r.kv("REASON", verdict.reason)
    return 0 if verdict.accepted else 1


def cmd_prove_corec(args, ws: Workspace, r: Reporter) -> int:
    prog = ws.pick_program(args.prog)
    try:
        d, compiled = prove_corec_program(prog, ws.system)
    except ExtractError as e:
        r.text(f"failed: {e}")
        r.kv("VERDICT", "failed")
        r.kv("REASON", str(e))
        return 1
    res = check_proof(ws.system, compiled, d)
    r.kv("VERDICT", "proved" if res.ok else "failed")
    if not res.ok:
        r.text("generated proof failed to check")
        return 1
    r.text(res.judgment())
    r.kv("JUDGMENT", res.judgment())
    if args.out:
        _write(args.out, show_derivation(d))
    return 0


def cmd_check_proof(args, ws: Workspace, r: Reporter) -> int:
    d = _proof(ws, args.name)
    res = check_proof(ws.system, _program(ws, args), d)
    if res.ok:
        r.text(res.judgment())
        r.kv("VERDICT", "ok")
        r.kv("JUDGMENT", res.judgment())
    else:
        for v in res.violations:
            r.text(str(v))
            r.kv("VIOLATION", str(v))
        r.kv("VERDICT", "invalid")
    return 0 if res.ok else 1


def cmd_normalize(args, ws: Workspace, r: Reporter) -> int:
    d = _proof(ws, args.name)
    if not check_proof(ws.system, _program(ws, args), d).ok:
        r.text("input proof does not check")
        r.kv("VERDICT", "invalid")
        return 1
    n = normalize(d)
    r.kv("VERDICT", "ok")
    r.kv("DETOUR-FREE", str(not has_detour(n)).lower())
    # rendered only to be read: a proof d levels deep prints O(d²) characters
    if args.out or not r.tagged:
        out = show_derivation(n)
        r.text(out)
        if args.out:
            _write(args.out, out)
    return 0


def cmd_classify(args, ws: Workspace, r: Reporter) -> int:
    p = Parser(args.formula, ws, ws.known_names())
    cls = classify_formula(p.parse_formula())
    r.text(cls.value)
    r.kv("CLASS", cls.value)
    return 0


def cmd_extract(args, ws: Workspace, r: Reporter) -> int:
    try:
        if args.name in ws.proofs:
            d, prog = ws.proofs[args.name], _program(ws, args)
        elif args.name in ws.programs:
            d, prog = prove_corec_program(ws.programs[args.name], ws.system)
        else:
            raise Error(f"'{args.name}' names no proof or program")
        # `normalize` expects a derivation that checks
        require_check(ws.system, prog, d)
        result = extract(normalize(d), prog, ws.system)
    except ExtractError as e:
        r.text(f"extraction failed: {e}")
        r.kv("VERDICT", "failed")
        r.kv("REASON", str(e))
        return 1
    text = show_program(result.principal, result.program)
    if args.out:
        _write(args.out, show_system(ws) + "\n\n" + text)
        r.text(f"wrote {args.out}")
    else:
        r.text(text)
    r.kv("VERDICT", "extracted")
    r.kv("PRINCIPAL", result.principal)
    r.text("certificate:")
    for line in result.certificate.render().splitlines():
        r.text("  " + line)
        r.kv("CERT", line)
    return 0


def cmd_roundtrip(args, ws: None, r: Reporter) -> int:
    report = roundtrip_report(depth=args.depth, seed=args.seed,
                              inputs_per_entry=args.inputs)
    r.text(report.render())
    for name, stages in report.entries.items():
        r.kv(f"ENTRY {name}", "pass" if all(s.ok for s in stages) else "fail")
    r.kv("VERDICT", "pass" if report.ok else "fail")
    return 0 if report.ok else 1


def _count(text: str) -> int:
    """A depth or budget: an integer >= 0."""
    try:
        n = int(text)
    except ValueError:
        n = -1   # reported as a negative number is
    if n < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, not {text!r}")
    return n


_FILES = {"nargs": "+", "help": "workspace .cds files"}
_DEPTH = ("--depth", {"type": _count, "default": 16})
_BUDGET = ("--budget", {"type": _count, "default": DEFAULT_BUDGET})
_ENV = ("--env", {})
_PROGRAM = ("--program", {})
_OUT = ("--out", {})

# (name, help, positionals, options, command); a command that takes
# workspace `files` gets them parsed and resolved before it runs.
COMMANDS = (
    ("check", "validate system, programs and envs", ("files",), (), cmd_check),
    ("eval", "observe a term to a depth", ("files", "term"),
     (_DEPTH, _BUDGET, _ENV, _PROGRAM), cmd_eval),
    ("bisim", "observational equality to a depth", ("files", "term1", "term2"),
     (_DEPTH, _BUDGET, _ENV, _PROGRAM), cmd_bisim),
    ("productive", "primitive-corecurrence check", ("files", "prog"), (),
     cmd_productive),
    ("prove-corec", "corecursion to coinduction proof", ("files", "prog"),
     (_OUT,), cmd_prove_corec),
    ("check-proof", "check a derivation", ("files", "name"), (_PROGRAM,),
     cmd_check_proof),
    ("normalize", "remove logical detours", ("files", "name"),
     (_PROGRAM, _OUT), cmd_normalize),
    ("classify", "polarity class of a formula", ("files", "formula"), (),
     cmd_classify),
    ("extract", "realizability extraction", ("files", "name"),
     (_PROGRAM, _OUT), cmd_extract),
    ("roundtrip", "stock-library pipeline", (),
     (("--depth", {"type": _count, "default": 64}),
      ("--seed", {"type": int, "default": 20240817}),
      ("--inputs", {"type": int, "default": 10})), cmd_roundtrip),
)


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="coeq",
        description="equational programs over inductive/coinductive data: "
                    "evaluate, check productivity, check proofs, extract")
    ap.add_argument("--format", choices=["text", "tagged"], default="text")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, help_, positionals, options, fn in COMMANDS:
        p = sub.add_parser(name, help=help_)
        for pos in positionals:
            p.add_argument(pos, **(_FILES if pos == "files" else {}))
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
        p.set_defaults(fn=fn)
    return ap


_arg_parser: argparse.ArgumentParser | None = None   # main's, built on first use


def main(argv: list[str] | None = None) -> int:
    """Run one command: exit 0 for a positive verdict, 1 for a negative
    one, 2 for an error, reported as one line on stderr: `error:` for a
    fault of the input (an `Error` or an OSError), else `internal error:`."""
    global _arg_parser
    _arg_parser = _arg_parser or build_arg_parser()
    args = _arg_parser.parse_args(argv)
    r = Reporter(args.format == "tagged")
    try:
        ws = parse_files(args.files) if "files" in args else None
        code = args.fn(args, ws, r)
    except (Error, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2
    for line in r.lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
