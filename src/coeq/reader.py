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
from itertools import islice

from .evaluation import DiagramEnv, GeneratorBinding
from .formulas import And, DataAtom, Derivation, EqAtom, Exists, Forall, Formula, Imp, Or
from .program import Equation, Program, assemble_program, standard_functions
from .system import (Constructor, ConstructorType, CotermNode, DataPredicate,
                     DataSystem, Kind, RegularCoterm)
from .terms import Con, Error, Fun, Record, Term, Var, _run, subterms, variables

FORMULA_HEADS = ("and", "or", "imp", "ex", "all", "=")


class ParseError(Error):
    """An error at offset `pos` of `src`, shown at its line and column: both
    count from 1, and a column counts characters."""

    def __init__(self, message: str, src: str, pos: int, path: str | None = None):
        bol = src.rfind("\n", 0, pos) + 1
        self.message, self.pos = message, pos
        self.line, self.col = src.count("\n", 0, bol) + 1, pos - bol + 1
        where = f"{path}:{self.line}:{self.col}" if path else f"{self.line}:{self.col}"
        super().__init__(f"{where}: {message}")


# ---------------------------------------------------------------------------
# Tokens
# ---------------------------------------------------------------------------

PUNCT = frozenset(("->", "{", "}", "(", ")", ",", ";", ":", "*", "=", "."))
# A name may hold '-' before another of its characters, so `-y` is a name.
_NAME = r"(?:[\w'\[\]$@]|-(?=[\w'\[\]$@]))+"
# Blanks and comments, then one token: punctuation, a name, the end of input
# (as ''), or else an unexpected character, which takes the rest of the
# input with it.  The token group matches wherever the blanks end, so no
# match backtracks and the matches tile the input.
_TOKEN = re.compile(r"(?:[ \t\r\n]|#[^\n]*)*(->|[{}(),;:*=.]|" + _NAME + r"|\Z|[\s\S]+)",
                    re.ASCII)
_IS_NAME = re.compile(_NAME, re.ASCII).fullmatch


def tokenize(src: str) -> list[str]:
    """The token texts of `src`, ending in '' for the end of input."""
    toks = _TOKEN.findall(src)
    if len(toks) > 1 and not toks[-2]:
        toks.pop()   # the end of input, matched after trailing blanks and as an empty match
    if len(toks) > 1 and toks[-2] not in PUNCT and not _IS_NAME(toks[-2]):
        raise ParseError(f"unexpected character {toks[-2][0]!r}", src,
                         len(src) - len(toks[-2]))
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
            raise Error(f"unknown program '{name}'")
        return self.programs[name]

    def merged_program(self) -> Program:
        """Union of all programs: one session over every defined function.
        Distinct programs defining the same function differently surface
        as overlap violations."""
        if not self.programs:
            raise Error("workspace defines no programs")
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
    """Reads `src` token by token; `i` is the index of the next token."""

    def __init__(self, src: str, ws: Workspace | None = None,
                 functions: set[str] | frozenset[str] = frozenset()):
        self.src = src
        self.toks = tokenize(src)
        self.i = 0
        self.ws = ws or Workspace()
        # the names a bare name is read as a call of rather than as a
        # variable, fixed for a stanza or a command-line term
        self.functions = functions

    # -- cursor ----------------------------------------------------------------

    def peek(self) -> str:
        return self.toks[self.i]

    def next(self) -> str:
        t = self.toks[self.i]
        self.i += 1
        return t

    def fail(self, msg: str, at: int | None = None) -> ParseError:
        """An error at the token with index `at`, by default the next one;
        its offset is found by reading the source again up to it."""
        at = self.i if at is None else at
        if self.toks[at]:
            pos = next(islice(_TOKEN.finditer(self.src), at, None)).start(1)
            return ParseError(f"{msg} (found {self.toks[at]!r})", self.src, pos)
        # the end of input is at the column after the last line's text, or at a comment
        bol = self.src.rfind("\n") + 1
        return ParseError(f"{msg} (at end)", self.src,
                          bol + len(self.src[bol:].partition("#")[0]))

    def expect(self, text: str) -> None:
        if self.toks[self.i] != text:
            raise self.fail(f"expected {text!r}")
        self.i += 1

    def ident(self, what: str = "identifier") -> str:
        t = self.toks[self.i]
        if not t or t in PUNCT:
            raise self.fail(f"expected {what}")
        self.i += 1
        return t

    def _name_at(self, what: str) -> int:
        """Reads a name; its token index, for an error found later."""
        self.ident(what)
        return self.i - 1

    def at_end(self) -> bool:
        return not self.toks[self.i]

    def commas(self, item) -> list:
        """`item, item, ... )`, possibly empty, through the closing paren."""
        out = []
        if self.peek() != ")":
            out.append(item())
            while self.peek() == ",":
                self.next()
                out.append(item())
        self.expect(")")
        return out

    def until_close(self, item) -> list:
        """`item item ... )`, possibly empty, through the closing paren."""
        out = []
        while self.peek() != ")":
            out.append(item())
        self.expect(")")
        return out

    # -- stanzas ------------------------------------------------------------------

    def parse_workspace(self) -> Workspace:
        stanzas = {"system": self.parse_system, "program": self.parse_program,
                   "env": self.parse_env, "proof": self.parse_proof}
        while not self.at_end():
            kw = self.ident("stanza keyword")
            if kw not in stanzas:
                raise self.fail("expected system, program, env or proof", self.i - 1)
            stanzas[kw]()
        return self.ws

    def parse_system(self) -> None:
        name = self.ident("system name")
        if self.ws.system is not None:
            raise self.fail("a workspace holds one system", self.i - 1)
        self.expect("{")
        preds: list[DataPredicate] = []
        cons: dict[str, Constructor] = {}
        types: list[tuple[str, list[int], int]] = []   # predicates by token index
        while self.peek() != "}":
            kw = self.ident("declaration")
            if kw in ("inductive", "coinductive"):
                kind = Kind.INDUCTIVE if kw == "inductive" else Kind.COINDUCTIVE
                while True:
                    pname = self.ident("predicate name")
                    if pname in FORMULA_HEADS:
                        raise self.fail(f"'{pname}' is reserved", self.i - 1)
                    preds.append(DataPredicate(pname, kind, len(preds)))
                    if self.peek() != ",":
                        break
                    self.next()
                self.expect(";")
            elif kw == "constructor":
                at = self.i
                cname = self.ident("constructor name")
                self.expect(":")
                args: list[int] = []
                first = self._name_at("predicate name")
                if self.peek() in ("*", "->"):
                    args.append(first)
                    while self.peek() == "*":
                        self.next()
                        args.append(self._name_at("predicate name"))
                    self.expect("->")
                    result = self._name_at("predicate name")
                else:
                    result = first
                self.expect(";")
                if cname not in cons:
                    cons[cname] = Constructor(cname, len(args))
                elif cons[cname].arity != len(args):
                    raise self.fail(f"constructor '{cname}' redeclared at a "
                                    f"different arity", at)
                types.append((cname, args, result))
            else:
                raise self.fail("expected inductive, coinductive or constructor", self.i - 1)
        self.expect("}")
        pred = {p.name: p for p in preds}.get
        self.ws.system = DataSystem(
            vocabulary=tuple(cons.values()),
            predicates=tuple(preds),
            types=tuple(ConstructorType(cons[c], tuple(self._predicate(pred, a) for a in args),
                                        self._predicate(pred, res))
                        for c, args, res in types))
        self.ws.system_name = name

    def _predicate(self, find, at: int) -> DataPredicate:
        """The predicate `find` gives for the name at token `at`."""
        p = find(self.toks[at])
        if p is None:
            raise self.fail(f"unknown predicate '{self.toks[at]}'", at)
        return p

    def _need_system(self, at: int | None = None) -> DataSystem:
        if self.ws.system is None:
            raise self.fail("no system declared yet", at)
        return self.ws.system

    # -- programs --------------------------------------------------------------------

    def parse_program(self) -> None:
        name = self.ident("program name")
        ds = self._need_system(self.i - 1)
        self.expect("{")
        known = self.ws.known_names() | self._equation_heads()
        eqs: list[Equation] = []
        while self.peek() != "}":
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
        heads, j, toks = set(), self.i, self.toks   # j: the token after '{'
        while toks[j] != "}" and toks[j]:
            if toks[j - 1] in ("{", ";") and toks[j] not in PUNCT:
                heads.add(toks[j])
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
        if self.peek() == "(":
            self.next()
            t = yield self._term(ds)
            self.expect(")")
        else:
            at = self._name_at("term")
            t = self._atom(ds, at, (yield self._args(lambda: self._term(ds))))
        if self.peek() == ":":
            self._need_cons(ds)
            t = Con("cons", (t, (yield self._term(ds))))
        return t

    def _args(self, item):   # run by _run
        """`(item, ...)` through its closing paren, or nothing where no paren
        follows: the values of the walks `item()` makes."""
        out = []
        if self.peek() == "(":
            self.next()
            if self.peek() != ")":
                out.append((yield item()))
                while self.peek() == ",":
                    self.next()
                    out.append((yield item()))
            self.expect(")")
        return out

    def _need_cons(self, ds: DataSystem) -> None:
        """Reads a ':', which needs a binary `cons`."""
        c = ds.constructor("cons")
        if c is None or c.arity != 2:
            raise self.fail("':' needs a binary constructor named 'cons'")
        self.i += 1

    def _atom(self, ds: DataSystem, at: int, args: list[Term]) -> Term:
        """`name(args)` once its closing paren is read: a constructor at its
        arity, a call, or, with no arguments and not among the functions, a
        variable."""
        name = self.toks[at]
        c = ds.constructor(name)
        if c is not None:
            if len(args) != c.arity:
                raise self.fail(f"constructor '{name}' has arity {c.arity}, "
                                f"applied to {len(args)} arguments", at)
            return Con(name, tuple(args))
        if args or name in self.functions:
            return Fun(name, tuple(args))
        return Var(name)

    # -- environments -------------------------------------------------------------------

    def parse_env(self) -> None:
        name = self.ident("env name")
        ds = self._need_system(self.i - 1)
        self.expect("{")
        bindings: dict[str, RegularCoterm | GeneratorBinding] = {}
        while self.peek() != "}":
            v = self.ident("binding name")
            if v in bindings:
                raise self.fail(f"binding '{v}' rebound", self.i - 1)
            self.expect("=")
            bindings[v] = self.parse_binding_rhs(ds)
            self.expect(";")
        self.expect("}")
        self.ws.envs[name] = DiagramEnv.of(bindings)

    def parse_binding_rhs(self, ds: DataSystem):
        at, gen_name = self.i, self.peek()
        if gen_name in self.ws.programs and ds.constructor(gen_name) is None \
                and gen_name != "rec":
            self.next()
            self.expect("(")
            args = self.commas(lambda: self.ident("binding name"))
            prog = self.ws.programs[gen_name]
            if len(args) != prog.arity:
                raise self.fail(f"program '{gen_name}' has arity {prog.arity}, "
                                f"applied to {len(args)} arguments", at)
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
        at = self.i
        if self.peek() == "(":
            self.next()
            v = yield self._coterm(ds, nodes, recvars)
            self.expect(")")
        elif self.peek() == "rec":
            self.next()
            slot = len(nodes)
            inner = {**recvars, self.ident("cycle variable"): slot}
            self.expect(".")
            nodes.append(None)
            v = yield self._coterm(ds, nodes, inner)
            if not isinstance(v, int) or v == slot:
                raise self.fail("a cycle must pass through a constructor", at)
            if nodes[v] is None:
                raise self.fail("degenerate cycle", at)
            nodes[slot] = nodes[v]
            v = slot
        else:
            name = self.ident("coterm")
            c = ds.constructor(name)
            if c is None:
                v = recvars.get(name, name)   # else another binding's name
            else:
                kids = yield self._args(lambda: self._coterm(ds, nodes, recvars))
                if len(kids) != c.arity:
                    raise self.fail(f"constructor '{c.name}' has arity {c.arity}, "
                                    f"got {len(kids)} children", at)
                nodes.append(CotermNode(c.name, tuple(kids)))
                v = len(nodes) - 1
        if self.peek() == ":":
            self._need_cons(ds)
            slot = len(nodes)
            nodes.append(None)
            nodes[slot] = CotermNode("cons", (v, (yield self._coterm(ds, nodes, recvars))))
            v = slot
        return v

    # -- formulas and proofs ---------------------------------------------------------------

    def parse_formula(self) -> Formula:
        return _run(self._formula(self._need_system()))

    def _formula(self, ds: DataSystem):   # run by _run, so that no nesting depth recurses
        self.expect("(")
        at = self.i
        head = self.next() if self.peek() == "=" else self.ident("formula head")
        if head == "and" or head == "or" or head == "imp":
            left = yield self._formula(ds)
            right = yield self._formula(ds)
            self.expect(")")
            cls = {"and": And, "or": Or, "imp": Imp}[head]
            return cls(left, right)
        if head in ("ex", "all"):
            var = self.ident("variable")
            body = yield self._formula(ds)
            self.expect(")")
            return (Exists if head == "ex" else Forall)(var, body)
        if head == "=":
            left = yield self._sexp_term(ds)
            right = yield self._sexp_term(ds)
            self.expect(")")
            return EqAtom(left, right)
        if ds.predicate(head) is None:
            raise self.fail(f"unknown predicate '{head}'", at)
        term = yield self._sexp_term(ds)
        self.expect(")")
        return DataAtom(head, term)

    def parse_sexp_term(self) -> Term:
        """`name` or `(name term ...)`: a constructor at its arity, a call
        if applied or among the functions, else a variable."""
        return _run(self._sexp_term(self._need_system()))

    def _sexp_term(self, ds: DataSystem):   # run by _run
        applied = self.peek() == "("
        args = []
        if applied:
            self.next()
            at = self._name_at("term head")
            while self.peek() != ")":
                args.append((yield self._sexp_term(ds)))
            self.expect(")")
        else:
            at = self._name_at("term")
        name = self.toks[at]
        c = ds.constructor(name)
        if c is not None:
            if len(args) != c.arity:
                raise self.fail(f"constructor '{name}' has arity {c.arity}", at)
            return Con(name, tuple(args))
        if applied or name in self.functions:
            return Fun(name, tuple(args))
        return Var(name)

    def parse_proof(self) -> None:
        name = self.ident("proof name")
        ds = self._need_system(self.i - 1)
        self.expect("{")
        self.functions = self.ws.known_names()
        d = _run(self._derivation(ds))
        self.expect("}")
        self.ws.proofs[name] = d

    def _derivation(self, ds: DataSystem):   # run by _run
        self.expect("(")
        rule = self.ident("rule name")
        conclusion = yield self._formula(ds)
        self.expect("(")
        premises = []
        while self.peek() != ")":
            premises.append((yield self._derivation(ds)))
        self.expect(")")
        attrs: list[tuple[str, object]] = []
        self.expect("{")
        while self.peek() != "}":
            key = self.ident("attribute key").replace("-", "_")
            attrs.append((key, self.parse_attr_value(key, ds)))
        self.expect("}")
        self.expect(")")
        return Derivation(rule, conclusion, tuple(premises), tuple(attrs))

    def _number(self, msg: str) -> int:
        n = self.ident("number")
        if not n.isdigit():
            raise self.fail(msg, self.i - 1)
        return int(n)

    def parse_attr_value(self, key: str, ds: DataSystem):
        if key in ("i", "idx"):
            return self._number(f"attribute '{key}' needs a number")
        if key == "witness":
            return self.parse_sexp_term()
        if key == "formula":
            return self.parse_formula()
        if key == "type":
            self.expect("(")
            at = self._name_at("constructor")
            preds = self.until_close(lambda: self._name_at("predicate"))
            c = ds.constructor(self.toks[at])
            if c is None or len(preds) != c.arity + 1:
                raise self.fail(f"bad constructor type for '{self.toks[at]}'", at)
            *args, res = (self._predicate(ds.predicate, j) for j in preds)
            ct = ConstructorType(c, tuple(args), res)
            if ct not in ds.types:
                raise self.fail(f"type '{ct}' is not declared by the system", at)
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
