"""Surface syntax and batch commands.

Workspace files (.cds) hold four kinds of stanzas:

    system NAME {
      inductive B; coinductive S;
      constructor 0 : B;
      constructor cons : B * S -> S;
    }
    program NAME { f(cons(0, w)) = cons(1, f(w)); ... }
    env NAME { v_a = 0 : v_b;  v_r = rec a. 0 : 1 : a;  v_g = flip(v_a); }
    proof NAME { (rule CONCLUSION (PREMISES...) {ATTRS...}) }

`:` is sugar for the binary constructor named `cons`; `rec x. e` closes a
cycle in a regular coterm; an env right-hand side `f(v1 ...)` names a
program of the workspace applied to other bindings.  Formulas are
s-expressions: (S t), (= t t'), (and f g), (or f g), (imp f g),
(ex x f), (all x f).
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field

from .corec import check_primitive_corecursive
from .evaluation import (DEFAULT_BUDGET, ApproxNode, Approximation, Cut,
                         DiagramEnv, EvalError, GeneratorBinding, Session,
                         Stalled, derives_omega, first_stall)
from .extract import ExtractError, extract, prove_corec_program, roundtrip_report
from .logic import (And, DataAtom, Derivation, EqAtom, Exists, Forall,
                    Formula, Imp, Or, check_proof, classify_formula,
                    has_detour, normalize)
from .program import (Equation, Program, assemble_program, reserved_function,
                      standard_functions, validate_program)
from .system import (Constructor, ConstructorType, CotermNode, DataPredicate,
                     DataSystem, Kind, RegularCoterm, validate_system)
from .terms import Con, Fun, Term, Var, variables

FORMULA_HEADS = ("and", "or", "imp", "ex", "all", "=")


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int, path: str | None = None):
        where = f"{path}:{line}:{col}" if path else f"{line}:{col}"
        super().__init__(f"{where}: {message}")
        self.message = message
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# Tokens
# ---------------------------------------------------------------------------

_IDENT_CHARS = set("abcdefghijklmnopqrstuvwxyz"
                   "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_'[]$@")


@dataclass(frozen=True)
class Tok:
    kind: str   # "ident" | "punct" | "eof"
    text: str
    line: int
    col: int


def tokenize(src: str) -> list[Tok]:
    toks: list[Tok] = []
    line, col = 1, 1
    i = 0
    n = len(src)
    while i < n:
        c = src[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and src[i] != "\n":
                i += 1
            continue
        if src.startswith("->", i):
            toks.append(Tok("punct", "->", line, col))
            i += 2
            col += 2
            continue
        if c in "{}(),;:*=.":
            toks.append(Tok("punct", c, line, col))
            i += 1
            col += 1
            continue
        if c in _IDENT_CHARS or (c == "-" and i + 1 < n and src[i + 1] in _IDENT_CHARS):
            j = i
            while j < n:
                ch = src[j]
                if ch in _IDENT_CHARS:
                    j += 1
                elif ch == "-" and j + 1 < n and src[j + 1] in _IDENT_CHARS:
                    j += 1
                else:
                    break
            toks.append(Tok("ident", src[i:j], line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", line, col)
    toks.append(Tok("eof", "", line, col))
    return toks


# ---------------------------------------------------------------------------
# Workspace
# ---------------------------------------------------------------------------

@dataclass
class Workspace:
    system: DataSystem | None = None
    system_name: str = ""
    programs: dict[str, Program] = field(default_factory=dict)
    envs: dict[str, DiagramEnv] = field(default_factory=dict)
    proofs: dict[str, Derivation] = field(default_factory=dict)

    def sole_program(self) -> tuple[str, Program]:
        if len(self.programs) != 1:
            raise ValueError(f"workspace defines {len(self.programs)} programs; "
                             f"pass --program")
        return next(iter(self.programs.items()))

    def pick_program(self, name: str | None) -> Program:
        if name is None:
            return self.sole_program()[1]
        if name not in self.programs:
            raise ValueError(f"unknown program '{name}'")
        return self.programs[name]

    def merged_program(self) -> Program:
        """Union of all programs: one session over every defined function.
        Distinct programs defining the same function differently surface
        as overlap violations."""
        if not self.programs:
            raise ValueError("workspace defines no programs")
        if len(self.programs) == 1:
            return self.sole_program()[1]
        eqs: list[Equation] = []
        seen: set[str] = set()
        principal = next(iter(self.programs))
        for prog in self.programs.values():
            for e in prog.body:
                if reserved_function(e.function) or str(e) in seen:
                    continue
                seen.add(str(e))
                eqs.append(e)
        return assemble_program(self.system, eqs, principal)

    def known_names(self) -> set[str]:
        """Names that denote functions rather than variables: the programs'
        functions, the env bindings and the standard functions."""
        out = {e.function for e in standard_functions(self.system)}
        for p in self.programs.values():
            out.update(p.functions())
        for e in self.envs.values():
            out.update(e.names())
        return out


class Parser:
    def __init__(self, toks: list[Tok], ws: Workspace | None = None):
        self.toks = toks
        self.i = 0
        self.ws = ws or Workspace()

    # -- cursor ----------------------------------------------------------------

    def peek(self) -> Tok:
        return self.toks[self.i]

    def next(self) -> Tok:
        t = self.toks[self.i]
        self.i += 1
        return t

    def fail(self, msg: str, at: Tok | None = None) -> ParseError:
        """An error at token `at`, by default the next one."""
        t = at or self.peek()
        return ParseError(msg + (f" (found {t.text!r})" if t.text else " (at end)"),
                          t.line, t.col)

    def expect(self, text: str) -> Tok:
        t = self.next()
        if t.text != text:
            self.i -= 1
            raise self.fail(f"expected {text!r}")
        return t

    def ident_tok(self, what: str = "identifier") -> Tok:
        t = self.next()
        if t.kind != "ident":
            self.i -= 1
            raise self.fail(f"expected {what}")
        return t

    def ident(self, what: str = "identifier") -> str:
        return self.ident_tok(what).text

    def at_end(self) -> bool:
        return self.peek().kind == "eof"

    def commas(self, item) -> list:
        """`item, item, ... )`, possibly empty, through the closing paren."""
        out = []
        if self.peek().text != ")":
            out.append(item())
            while self.peek().text == ",":
                self.next()
                out.append(item())
        self.expect(")")
        return out

    def until_close(self, item) -> list:
        """`item item ... )`, possibly empty, through the closing paren."""
        out = []
        while self.peek().text != ")":
            out.append(item())
        self.expect(")")
        return out

    # -- stanzas ------------------------------------------------------------------

    def parse_workspace(self) -> Workspace:
        while not self.at_end():
            kw = self.ident("stanza keyword")
            if kw == "system":
                self.parse_system()
            elif kw == "program":
                self.parse_program()
            elif kw == "env":
                self.parse_env()
            elif kw == "proof":
                self.parse_proof()
            else:
                self.i -= 1
                raise self.fail("expected system, program, env or proof")
        return self.ws

    def parse_system(self) -> None:
        name = self.ident_tok("system name")
        if self.ws.system is not None:
            raise self.fail("a workspace holds one system", name)
        self.expect("{")
        preds: list[DataPredicate] = []
        cons: dict[str, Constructor] = {}
        vocab_order: list[str] = []
        types: list[tuple[str, list[Tok], Tok]] = []
        while self.peek().text != "}":
            kw = self.ident("declaration")
            if kw in ("inductive", "coinductive"):
                while True:
                    pname = self.ident_tok("predicate name")
                    if pname.text in FORMULA_HEADS:
                        raise self.fail(f"'{pname.text}' is reserved", pname)
                    preds.append(DataPredicate(
                        pname.text,
                        Kind.INDUCTIVE if kw == "inductive" else Kind.COINDUCTIVE,
                        len(preds)))
                    if self.peek().text == ",":
                        self.next()
                        continue
                    break
                self.expect(";")
            elif kw == "constructor":
                ctok = self.ident_tok("constructor name")
                cname = ctok.text
                self.expect(":")
                args: list[Tok] = []
                first = self.ident_tok("predicate name")
                if self.peek().text in ("*", "->"):
                    args.append(first)
                    while self.peek().text == "*":
                        self.next()
                        args.append(self.ident_tok("predicate name"))
                    self.expect("->")
                    result = self.ident_tok("predicate name")
                else:
                    result = first
                self.expect(";")
                if cname not in cons:
                    cons[cname] = Constructor(cname, len(args))
                    vocab_order.append(cname)
                elif cons[cname].arity != len(args):
                    raise self.fail(f"constructor '{cname}' redeclared at a "
                                    f"different arity", ctok)
                types.append((cname, args, result))
            else:
                self.i -= 1
                raise self.fail("expected inductive, coinductive or constructor")
        self.expect("}")
        by_name = {p.name: p for p in preds}

        def pred(tok: Tok) -> DataPredicate:
            if tok.text not in by_name:
                raise self.fail(f"unknown predicate '{tok.text}'", tok)
            return by_name[tok.text]

        self.ws.system = DataSystem(
            vocabulary=tuple(cons[c] for c in vocab_order),
            predicates=tuple(preds),
            types=tuple(ConstructorType(cons[c], tuple(pred(a) for a in args),
                                        pred(res))
                        for c, args, res in types))
        self.ws.system_name = name.text

    def _need_system(self, at: Tok | None = None) -> DataSystem:
        if self.ws.system is None:
            raise self.fail("no system declared yet", at)
        return self.ws.system

    # -- programs --------------------------------------------------------------------

    def parse_program(self) -> None:
        name_tok = self.ident_tok("program name")
        name, ds = name_tok.text, self._need_system(name_tok)
        self.expect("{")
        raw: list[Equation] = []
        fnames = {name}
        while self.peek().text != "}":
            fn = self.ident("function name")
            fnames.add(fn)
            patterns: list[Term] = []
            if self.peek().text == "(":
                self.next()
                patterns = self.commas(lambda: self.parse_pattern(ds))
            self.expect("=")
            rhs = self.parse_term(ds)
            self.expect(";")
            raw.append(Equation(fn, tuple(patterns), rhs))
        self.expect("}")
        known = fnames | self.ws.known_names()
        # a name the patterns bind is a variable on the right-hand side
        eqs = [Equation(e.function, e.patterns,
                        _vars_from_funs(e.rhs, known - variables(e.definiendum)))
               for e in raw]
        if name not in {e.function for e in eqs}:
            raise self.fail(f"program '{name}' does not define '{name}'")
        self.ws.programs[name] = assemble_program(ds, eqs, name)

    def parse_pattern(self, ds: DataSystem) -> Term:
        t = self.parse_term(ds)

        def check(u: Term) -> Term:
            if isinstance(u, Fun):
                if u.args:
                    raise self.fail(f"'{u.name}' is not a constructor")
                return Var(u.name)
            if not u.args:
                return u
            return type(u)(u.name, tuple(check(a) for a in u.args))

        return check(t)

    def parse_term(self, ds: DataSystem) -> Term:
        left = self.parse_term_atom(ds)
        if self.peek().text == ":":
            self.next()
            right = self.parse_term(ds)
            c = ds.constructor("cons")
            if c is None or c.arity != 2:
                raise self.fail("':' needs a binary constructor named 'cons'")
            return Con("cons", (left, right))
        return left

    def parse_term_atom(self, ds: DataSystem) -> Term:
        if self.peek().text == "(":
            self.next()
            t = self.parse_term(ds)
            self.expect(")")
            return t
        name = self.ident("term")
        args: list[Term] = []
        if self.peek().text == "(":
            self.next()
            args = self.commas(lambda: self.parse_term(ds))
        c = ds.constructor(name)
        if c is not None:
            if len(args) != c.arity:
                raise self.fail(f"constructor '{name}' has arity {c.arity}, "
                                f"applied to {len(args)} arguments")
            return Con(name, tuple(args))
        return Fun(name, tuple(args))

    # -- environments -------------------------------------------------------------------

    def parse_env(self) -> None:
        name = self.ident_tok("env name")
        ds = self._need_system(name)
        self.expect("{")
        bindings: dict[str, RegularCoterm | GeneratorBinding] = {}
        while self.peek().text != "}":
            v = self.ident_tok("binding name")
            if v.text in bindings:
                raise self.fail(f"binding '{v.text}' rebound", v)
            self.expect("=")
            bindings[v.text] = self.parse_binding_rhs(ds)
            self.expect(";")
        self.expect("}")
        self.ws.envs[name.text] = DiagramEnv.of(bindings)

    def parse_binding_rhs(self, ds: DataSystem):
        t = self.peek()
        if t.kind == "ident" and ds.constructor(t.text) is None and t.text != "rec" \
                and t.text in self.ws.programs:
            gen_name = self.next().text
            self.expect("(")
            args = self.commas(lambda: self.ident("binding name"))
            prog = self.ws.programs[gen_name]
            if len(args) != prog.arity:
                raise self.fail(f"program '{gen_name}' has arity {prog.arity}, "
                                f"applied to {len(args)} arguments", t)
            return GeneratorBinding(prog, prog.principal, tuple(args))
        nodes: list[CotermNode | None] = []

        def chain(recvars: dict[str, int]):
            left = atom(recvars)
            if self.peek().text == ":":
                self.next()
                c = ds.constructor("cons")
                if c is None or c.arity != 2:
                    raise self.fail("':' needs a binary constructor named 'cons'")
                slot = len(nodes)
                nodes.append(None)
                right = chain(recvars)
                nodes[slot] = CotermNode("cons", (left, right))
                return slot
            return left

        def atom(recvars: dict[str, int]):
            tok = self.peek()
            if tok.text == "(":
                self.next()
                out = chain(recvars)
                self.expect(")")
                return out
            if tok.text == "rec":
                self.next()
                rv = self.ident("cycle variable")
                self.expect(".")
                slot = len(nodes)
                nodes.append(None)
                inner = chain({**recvars, rv: slot})
                if not isinstance(inner, int) or inner == slot:
                    raise self.fail("a cycle must pass through a constructor", tok)
                if nodes[inner] is None:
                    raise self.fail("degenerate cycle", tok)
                nodes[slot] = nodes[inner]
                return slot
            name2 = self.ident("coterm")
            c = ds.constructor(name2)
            if c is not None:
                kids: list[object] = []
                if self.peek().text == "(":
                    self.next()
                    kids = self.commas(lambda: chain(recvars))
                if len(kids) != c.arity:
                    raise self.fail(f"constructor '{name2}' has arity {c.arity}, "
                                    f"got {len(kids)} children")
                nodes.append(CotermNode(name2, tuple(kids)))
                return len(nodes) - 1
            if name2 in recvars:
                return recvars[name2]
            return name2  # cross-binding reference

        entry = chain({})
        if not isinstance(entry, int):
            raise self.fail("a binding must start with a constructor, rec, "
                            "or a program call")
        filled = tuple(n if n is not None else CotermNode("?", ())
                       for n in nodes)
        return RegularCoterm(filled, entry)

    # -- formulas and proofs ---------------------------------------------------------------

    def parse_formula(self) -> Formula:
        ds = self._need_system()
        self.expect("(")
        head_tok = self.next() if self.peek().text == "=" else self.ident_tok("formula head")
        head = head_tok.text
        if head == "and" or head == "or" or head == "imp":
            left = self.parse_formula()
            right = self.parse_formula()
            self.expect(")")
            cls = {"and": And, "or": Or, "imp": Imp}[head]
            return cls(left, right)
        if head in ("ex", "all"):
            var = self.ident("variable")
            body = self.parse_formula()
            self.expect(")")
            return (Exists if head == "ex" else Forall)(var, body)
        if head == "=":
            left = self.parse_sexp_term()
            right = self.parse_sexp_term()
            self.expect(")")
            return EqAtom(left, right)
        if ds.predicate(head) is None:
            raise self.fail(f"unknown predicate '{head}'", head_tok)
        term = self.parse_sexp_term()
        self.expect(")")
        return DataAtom(head, term)

    def parse_sexp_term(self) -> Term:
        ds = self._need_system()
        if self.peek().text == "(":
            self.next()
            name = self.ident("term head")
            args = self.until_close(self.parse_sexp_term)
            return self._resolve_sexp_name(ds, name, tuple(args), True)
        name = self.ident("term")
        return self._resolve_sexp_name(ds, name, (), False)

    def _resolve_sexp_name(self, ds, name, args, applied) -> Term:
        c = ds.constructor(name)
        if c is not None:
            if len(args) != c.arity:
                raise self.fail(f"constructor '{name}' has arity {c.arity}")
            return Con(name, args)
        if applied or name in self.ws.known_names():
            return Fun(name, args)
        return Var(name)

    def parse_proof(self) -> None:
        name = self.ident("proof name")
        self.expect("{")
        d = self.parse_derivation()
        self.expect("}")
        self.ws.proofs[name] = d

    def parse_derivation(self) -> Derivation:
        ds = self._need_system()
        self.expect("(")
        rule = self.ident("rule name")
        conclusion = self.parse_formula()
        self.expect("(")
        premises = self.until_close(self.parse_derivation)
        attrs: list[tuple[str, object]] = []
        self.expect("{")
        while self.peek().text != "}":
            key = self.ident("attribute key")
            attrs.append((key.replace("-", "_"), self.parse_attr_value(key, ds)))
        self.expect("}")
        self.expect(")")
        return Derivation(rule, conclusion, tuple(premises), tuple(attrs))

    def parse_attr_value(self, key: str, ds: DataSystem):
        key = key.replace("-", "_")
        if key in ("i", "idx"):
            n = self.ident("number")
            if not n.isdigit():
                raise self.fail(f"attribute '{key}' needs a number")
            return int(n)
        if key == "witness":
            return self.parse_sexp_term()
        if key == "formula":
            return self.parse_formula()
        if key == "type":
            self.expect("(")
            cname = self.ident("constructor")
            preds = self.until_close(lambda: self.ident_tok("predicate"))
            c = ds.constructor(cname)
            if c is None or len(preds) != c.arity + 1:
                raise self.fail(f"bad constructor type for '{cname}'")
            ct = ConstructorType(
                c, tuple(_pred_of(ds, p, self) for p in preds[:-1]),
                _pred_of(ds, preds[-1], self))
            if ct not in ds.types:
                raise self.fail(f"type '{ct}' is not declared by the system")
            return ct
        if key == "pos":
            def position() -> int:
                n = self.ident("number")
                if not n.isdigit():
                    raise self.fail("positions are numbers")
                return int(n)

            self.expect("(")
            return tuple(self.until_close(position))
        if key in ("case_vars", "case_labels"):
            def group() -> tuple[str, ...]:
                self.expect("(")
                return tuple(self.until_close(lambda: self.ident("name")))

            self.expect("(")
            return tuple(self.until_close(group))
        return self.ident("attribute value")


def _pred_of(ds: DataSystem, name: Tok, p: Parser) -> DataPredicate:
    out = ds.predicate(name.text)
    if out is None:
        raise p.fail(f"unknown predicate '{name.text}'", name)
    return out


def _vars_from_funs(t: Term, known: set[str]) -> Term:
    """Nullary applications of unknown names were parsed as functions;
    inside program right-hand sides they are variables."""
    if isinstance(t, Fun) and not t.args and t.name not in known:
        return Var(t.name)
    if not t.args:
        return t
    return type(t)(t.name, tuple(_vars_from_funs(a, known) for a in t.args))


def parse_workspace(source: str) -> Workspace:
    ws = Parser(tokenize(source)).parse_workspace()
    resolve_workspace(ws)
    return ws


def parse_files(paths: list[str]) -> Workspace:
    """One workspace from all files; a parse error names its file and is
    numbered within it."""
    texts = [open(p, encoding="utf-8").read() for p in paths]
    try:
        return parse_workspace("\n".join(texts))
    except ParseError as e:
        line = e.line
        for path, text in zip(paths, texts):
            # each file spans its own lines and the joining newline
            lines = text.count("\n") + 1
            if line <= lines:
                break
            line -= lines
        raise ParseError(e.message, line, e.col, path) from None


class ResolutionError(Exception):
    pass


def resolve_workspace(ws: Workspace) -> None:
    """Total name resolution before any command runs."""
    if ws.system is None:
        raise ResolutionError("no system declared")
    rep = validate_system(ws.system)
    if not rep.ok:
        raise ResolutionError(f"system '{ws.system_name}': {rep}")
    for name, prog in ws.programs.items():
        rep = validate_program(prog, ws.system)
        if not rep.ok:
            raise ResolutionError(f"program '{name}': {rep}")
    if len(ws.programs) > 1:
        rep = validate_program(ws.merged_program(), ws.system)
        if not rep.ok:
            raise ResolutionError(f"programs conflict: {rep}")
    for name, env in ws.envs.items():
        rep = env.validate(ws.system)
        if not rep.ok:
            raise ResolutionError(f"env '{name}', {rep.violations[0].message}")
        clash = env.collision(ws.system, ws.programs.values())
        if clash:
            raise ResolutionError(clash)


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
        if reserved_function(e.function):
            continue
        args = ", ".join(str(p) for p in e.patterns)
        head = f"{e.function}({args})" if e.patterns else e.function
        lines.append(f"  {head} = {e.rhs};")
    lines.append("}")
    return "\n".join(lines)


def show_formula(f: Formula) -> str:
    if isinstance(f, DataAtom):
        return f"({f.predicate} {show_sexp_term(f.term)})"
    if isinstance(f, EqAtom):
        return f"(= {show_sexp_term(f.left)} {show_sexp_term(f.right)})"
    if isinstance(f, And):
        return f"(and {show_formula(f.left)} {show_formula(f.right)})"
    if isinstance(f, Or):
        return f"(or {show_formula(f.left)} {show_formula(f.right)})"
    if isinstance(f, Imp):
        return f"(imp {show_formula(f.left)} {show_formula(f.right)})"
    if isinstance(f, Exists):
        return f"(ex {f.var} {show_formula(f.body)})"
    assert isinstance(f, Forall)
    return f"(all {f.var} {show_formula(f.body)})"


def show_sexp_term(t: Term) -> str:
    if not t.args and isinstance(t, (Var, Con)):
        return t.name
    if not t.args and isinstance(t, Fun):
        return f"({t.name})"
    return f"({t.name} {' '.join(show_sexp_term(a) for a in t.args)})"


def show_attr_value(key: str, v) -> str:
    if isinstance(v, int):
        return str(v)
    if isinstance(v, ConstructorType):
        names = [p.name for p in v.argument_predicates] + [v.result_predicate.name]
        return f"({v.constructor.name} {' '.join(names)})"
    if isinstance(v, Term):
        return show_sexp_term(v)
    if isinstance(v, Formula):
        return show_formula(v)
    if isinstance(v, tuple):
        if v and isinstance(v[0], tuple):
            return "(" + " ".join("(" + " ".join(x) + ")" for x in v) + ")"
        return "(" + " ".join(str(x) for x in v) + ")"
    return str(v)


def show_derivation(d: Derivation, indent: int = 0) -> str:
    pad = "  " * indent
    attrs = " ".join(f"{k.replace('_', '-')} {show_attr_value(k, v)}"
                     for k, v in d.attrs)
    if not d.premises:
        return f"{pad}({d.rule} {show_formula(d.conclusion)} () {{{attrs}}})"
    inner = "\n".join(show_derivation(p, indent + 1) for p in d.premises)
    return (f"{pad}({d.rule} {show_formula(d.conclusion)} (\n{inner}\n"
            f"{pad}) {{{attrs}}})")


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
            out.append("<stall:no-match>" if a.reason.kind == "no-matching-equation"
                       else f"<stall:budget@{a.reason.steps}>")
        elif a.constructor == "cons" and len(a.children) == 2 \
                and isinstance(a.children[0], ApproxNode) \
                and not a.children[0].children:
            out.append(f"{a.children[0].constructor}:")
            todo.append(a.children[1])
        elif not a.children:
            out.append(a.constructor)
        else:
            out.append(f"{a.constructor}(")
            todo.append(")")
            for i in reversed(range(len(a.children))):
                todo.append(a.children[i])
                if i:
                    todo.append(", ")
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
        raise ResolutionError(f"unknown proof '{name}'")
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
            raise ResolutionError(f"unknown env '{args.env}'")
        env = ws.envs[args.env]
    elif len(ws.envs) == 1:
        env = next(iter(ws.envs.values()))
    return Session(prog, ws.system, env)


def _parse_cli_term(ws: Workspace, text: str) -> Term:
    p = Parser(tokenize(text), ws)
    t = p.parse_term(ws.system)
    if not p.at_end():
        raise p.fail("trailing input after term")
    return _vars_from_funs(t, ws.known_names())


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
    out = show_derivation(n)
    r.text(out)
    r.kv("VERDICT", "ok")
    r.kv("DETOUR-FREE", str(not has_detour(n)).lower())
    if args.out:
        _write(args.out, out)
    return 0


def cmd_classify(args, ws: Workspace, r: Reporter) -> int:
    cls = classify_formula(Parser(tokenize(args.formula), ws).parse_formula())
    r.text(cls.value)
    r.kv("CLASS", cls.value)
    return 0


def cmd_extract(args, ws: Workspace, r: Reporter) -> int:
    try:
        if args.name in ws.proofs:
            prog = _program(ws, args)
            d = normalize(ws.proofs[args.name])
        elif args.name in ws.programs:
            d, prog = prove_corec_program(ws.programs[args.name], ws.system)
            d = normalize(d)
        else:
            raise ResolutionError(f"'{args.name}' names no proof or program")
        result = extract(d, prog, ws.system)
    except ExtractError as e:
        r.text(f"extraction failed: {e}")
        r.kv("VERDICT", "failed")
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


def main(argv: list[str] | None = None) -> int:
    """Run one command: exit 0 for a positive verdict, 1 for a negative
    one, 2 for an error, reported as one line on stderr."""
    args = build_arg_parser().parse_args(argv)
    r = Reporter(args.format == "tagged")
    try:
        ws = parse_files(args.files) if "files" in args else None
        code = args.fn(args, ws, r)
    except (ParseError, ResolutionError, EvalError, ValueError, OSError) as e:
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
