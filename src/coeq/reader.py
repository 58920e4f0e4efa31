"""Surface syntax: the reader of workspace files and command-line terms.

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

A name that is not a constructor is a variable unless the workspace, or
the program being read, defines it as a function (an env binding counts as
one); in a pattern it is always a variable, and on a right-hand side the
equation's pattern variables stay variables.  An applied s-expression
name, `(f)` or `(f x)`, is always a call.
"""
from __future__ import annotations

import re
from typing import NamedTuple

from .evaluation import DiagramEnv, GeneratorBinding
from .formulas import And, DataAtom, Derivation, EqAtom, Exists, Forall, Formula, Imp, Or
from .program import Equation, Program, assemble_program, standard_functions
from .system import (Constructor, ConstructorType, CotermNode, DataPredicate,
                     DataSystem, Kind, RegularCoterm)
from .terms import Con, Fun, Record, Term, Var, _run, subterms, variables

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

# A name may hold '-' before another of its characters.
_TOKEN = re.compile(r"(?P<blank>[ \t\r\n]+)|(?P<comment>#[^\n]*)|(?P<punct>->|[{}(),;:*=.])"
                    r"|(?P<ident>(?:[\w'\[\]$@]|-(?=[\w'\[\]$@]))+)", re.ASCII)


class Tok(NamedTuple):
    kind: str   # "ident" | "punct" | "eof"
    text: str
    line: int
    col: int


def tokenize(src: str) -> list[Tok]:
    toks: list[Tok] = []
    line, bol, end = 1, 0, 0   # the line, the offset it begins at, the end of the last match
    for m in _TOKEN.finditer(src):
        if m.start() != end:
            break
        kind, text, end = m.lastgroup, m.group(), m.end()
        if kind == "blank" and "\n" in text:
            line += text.count("\n")
            bol = m.start() + text.rindex("\n") + 1
        elif kind in ("punct", "ident"):
            toks.append(Tok(kind, text, line, m.start() - bol + 1))
    if end < len(src):
        raise ParseError(f"unexpected character {src[end]!r}", line, end - bol + 1)
    # the end of input is at the column after the last line's text, or at a comment
    toks.append(Tok("eof", "", line, len(src[bol:].partition("#")[0]) + 1))
    return toks


# ---------------------------------------------------------------------------
# Workspace
# ---------------------------------------------------------------------------

class Workspace(Record, frozen=False):
    __slots__ = ("system", "system_name", "programs", "envs", "proofs")

    def __init__(self, system: DataSystem | None = None, system_name: str = "",
                 programs: dict[str, Program] | None = None,
                 envs: dict[str, DiagramEnv] | None = None,
                 proofs: dict[str, Derivation] | None = None):
        self.system = system
        self.system_name = system_name
        self.programs = {} if programs is None else programs
        self.envs = {} if envs is None else envs
        self.proofs = {} if proofs is None else proofs

    def pick_program(self, name: str) -> Program:
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
            return next(iter(self.programs.values()))
        eqs = dict.fromkeys(e for prog in self.programs.values() for e in prog.body)
        return assemble_program(self.system, list(eqs), next(iter(self.programs)))

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
    def __init__(self, toks: list[Tok], ws: Workspace | None = None,
                 functions: set[str] | frozenset[str] = frozenset()):
        self.toks = toks
        self.i = 0
        self.ws = ws or Workspace()
        # the names a bare name is read as a call of rather than as a
        # variable, fixed for a stanza or a command-line term
        self.functions = functions

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
        known = self.ws.known_names() | self._equation_heads()
        eqs: list[Equation] = []
        while self.peek().text != "}":
            fn = self.ident("function name")
            patterns = _run(self._args(lambda: self._pattern(ds)))
            # a name the patterns bind is a variable on the right-hand side
            self.functions = known - variables(Fun(fn, tuple(patterns)))
            self.expect("=")
            rhs = self.parse_term(ds)
            self.expect(";")
            eqs.append(Equation(fn, tuple(patterns), rhs))
        self.expect("}")
        if name not in {e.function for e in eqs}:
            raise self.fail(f"program '{name}' does not define '{name}'")
        self.ws.programs[name] = assemble_program(ds, eqs, name)

    def _equation_heads(self) -> set[str]:
        """The functions a program defines: the names that open its
        equations, read ahead to its closing brace."""
        heads, j = set(), self.i   # the token after '{'
        while self.toks[j].text != "}" and self.toks[j].kind != "eof":
            if self.toks[j - 1].text in ("{", ";") and self.toks[j].kind == "ident":
                heads.add(self.toks[j].text)
            j += 1
        return heads

    def _pattern(self, ds: DataSystem):   # run by _run
        """A term with no call; read with no function names, so a bare
        name in it is a variable."""
        self.functions = frozenset()
        t = yield self._term(ds)
        for u in subterms(t):
            if isinstance(u, Fun):
                raise self.fail(f"'{u.name}' is not a constructor")
        return t

    def parse_term(self, ds: DataSystem) -> Term:
        """`atom (':' term)?`, where an atom is `(term)`, `name` or
        `name(term, ...)`; read on `_run`'s stack, so any nesting depth
        parses without recursion."""
        return _run(self._term(ds))

    def _term(self, ds: DataSystem):   # run by _run
        if self.peek().text == "(":
            self.next()
            t = yield self._term(ds)
            self.expect(")")
        else:
            name = self.ident_tok("term")
            t = self._atom(ds, name, (yield self._args(lambda: self._term(ds))))
        if self.peek().text == ":":
            self._need_cons(ds, self.next())
            t = Con("cons", (t, (yield self._term(ds))))
        return t

    def _args(self, item):   # run by _run
        """`(item, ...)` through its closing paren, or nothing where no paren
        follows: the values of the walks `item()` makes."""
        out = []
        if self.peek().text == "(":
            self.next()
            if self.peek().text != ")":
                out.append((yield item()))
                while self.peek().text == ",":
                    self.next()
                    out.append((yield item()))
            self.expect(")")
        return out

    def _need_cons(self, ds: DataSystem, colon: Tok) -> None:
        c = ds.constructor("cons")
        if c is None or c.arity != 2:
            raise self.fail("':' needs a binary constructor named 'cons'", colon)

    def _atom(self, ds: DataSystem, tok: Tok, args: list[Term]) -> Term:
        """`name(args)` once its closing paren is read: a constructor at its
        arity, a call, or, with no arguments and not among the functions, a
        variable."""
        name = tok.text
        c = ds.constructor(name)
        if c is not None:
            if len(args) != c.arity:
                raise self.fail(f"constructor '{name}' has arity {c.arity}, "
                                f"applied to {len(args)} arguments", tok)
            return Con(name, tuple(args))
        if args or name in self.functions:
            return Fun(name, tuple(args))
        return Var(name)

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
            return GeneratorBinding(prog, tuple(args))
        nodes: list[CotermNode | None] = []
        v = _run(self._coterm(ds, nodes, {}))
        if not isinstance(v, int):
            raise self.fail("a binding must start with a constructor, rec, or a program call")
        return RegularCoterm(tuple(nodes), v)

    def _coterm(self, ds: DataSystem, nodes: list, recvars: dict):   # run by _run
        """`atom (':' chain)?`, where an atom is `(chain)`, `rec x. chain`, a
        constructor and its children, a cycle variable or a binding's name:
        that name, or the chain's slot in `nodes`.  A node takes its slot when
        its ':' or rec is read, or once its constructor's children are."""
        tok = self.peek()
        if tok.text == "(":
            self.next()
            v = yield self._coterm(ds, nodes, recvars)
            self.expect(")")
        elif tok.text == "rec":
            self.next()
            slot = len(nodes)
            inner = {**recvars, self.ident("cycle variable"): slot}
            self.expect(".")
            nodes.append(None)
            v = yield self._coterm(ds, nodes, inner)
            if not isinstance(v, int) or v == slot:
                raise self.fail("a cycle must pass through a constructor", tok)
            if nodes[v] is None:
                raise self.fail("degenerate cycle", tok)
            nodes[slot] = nodes[v]
            v = slot
        else:
            tok = self.ident_tok("coterm")
            c = ds.constructor(tok.text)
            if c is None:
                v = recvars.get(tok.text, tok.text)   # else another binding's name
            else:
                kids = yield self._args(lambda: self._coterm(ds, nodes, recvars))
                if len(kids) != c.arity:
                    raise self.fail(f"constructor '{c.name}' has arity {c.arity}, "
                                    f"got {len(kids)} children", tok)
                nodes.append(CotermNode(c.name, tuple(kids)))
                v = len(nodes) - 1
        if self.peek().text == ":":
            self._need_cons(ds, self.next())
            slot = len(nodes)
            nodes.append(None)
            nodes[slot] = CotermNode("cons", (v, (yield self._coterm(ds, nodes, recvars))))
            v = slot
        return v

    # -- formulas and proofs ---------------------------------------------------------------

    def parse_formula(self) -> Formula:
        return _run(self._formula())

    def _formula(self):   # run by _run, so that no nesting depth recurses
        ds = self._need_system()
        self.expect("(")
        head_tok = self.next() if self.peek().text == "=" else self.ident_tok("formula head")
        head = head_tok.text
        if head == "and" or head == "or" or head == "imp":
            left = yield self._formula()
            right = yield self._formula()
            self.expect(")")
            cls = {"and": And, "or": Or, "imp": Imp}[head]
            return cls(left, right)
        if head in ("ex", "all"):
            var = self.ident("variable")
            body = yield self._formula()
            self.expect(")")
            return (Exists if head == "ex" else Forall)(var, body)
        if head == "=":
            left = yield self._sexp_term()
            right = yield self._sexp_term()
            self.expect(")")
            return EqAtom(left, right)
        if ds.predicate(head) is None:
            raise self.fail(f"unknown predicate '{head}'", head_tok)
        term = yield self._sexp_term()
        self.expect(")")
        return DataAtom(head, term)

    def parse_sexp_term(self) -> Term:
        """`name` or `(name term ...)`: a constructor at its arity, a call
        if applied or among the functions, else a variable."""
        return _run(self._sexp_term())

    def _sexp_term(self):   # run by _run
        ds = self._need_system()
        applied = self.peek().text == "("
        args = []
        if applied:
            self.next()
            tok = self.ident_tok("term head")
            while self.peek().text != ")":
                args.append((yield self._sexp_term()))
            self.expect(")")
        else:
            tok = self.ident_tok("term")
        name = tok.text
        c = ds.constructor(name)
        if c is not None:
            if len(args) != c.arity:
                raise self.fail(f"constructor '{name}' has arity {c.arity}", tok)
            return Con(name, tuple(args))
        if applied or name in self.functions:
            return Fun(name, tuple(args))
        return Var(name)

    def parse_proof(self) -> None:
        name = self.ident("proof name")
        self.expect("{")
        self.functions = self.ws.known_names()
        d = _run(self._derivation())
        self.expect("}")
        self.ws.proofs[name] = d

    def _derivation(self):   # run by _run
        ds = self._need_system()
        self.expect("(")
        rule = self.ident("rule name")
        conclusion = yield self._formula()
        self.expect("(")
        premises = []
        while self.peek().text != ")":
            premises.append((yield self._derivation()))
        self.expect(")")
        attrs: list[tuple[str, object]] = []
        self.expect("{")
        while self.peek().text != "}":
            key = self.ident("attribute key")
            attrs.append((key.replace("-", "_"), self.parse_attr_value(key, ds)))
        self.expect("}")
        self.expect(")")
        return Derivation(rule, conclusion, tuple(premises), tuple(attrs))

    def _number(self, msg: str) -> int:
        n = self.ident_tok("number")
        if not n.text.isdigit():
            raise self.fail(msg, n)
        return int(n.text)

    def parse_attr_value(self, key: str, ds: DataSystem):
        key = key.replace("-", "_")
        if key in ("i", "idx"):
            return self._number(f"attribute '{key}' needs a number")
        if key == "witness":
            return self.parse_sexp_term()
        if key == "formula":
            return self.parse_formula()
        if key == "type":
            self.expect("(")
            ctok = self.ident_tok("constructor")
            preds = self.until_close(lambda: self.ident_tok("predicate"))
            c = ds.constructor(ctok.text)
            if c is None or len(preds) != c.arity + 1:
                raise self.fail(f"bad constructor type for '{ctok.text}'", ctok)
            ct = ConstructorType(
                c, tuple(_pred_of(ds, p, self) for p in preds[:-1]),
                _pred_of(ds, preds[-1], self))
            if ct not in ds.types:
                raise self.fail(f"type '{ct}' is not declared by the system", ctok)
            return ct
        if key == "pos":
            self.expect("(")
            return tuple(self.until_close(lambda: self._number("positions are numbers")))
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
