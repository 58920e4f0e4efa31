"""Primitive corecurrence: schema values, the productivity recognizer, and
compilation of schemas back to equational programs.

A schema component is a closed combination of constructors, destructors,
the discriminator, and previously accepted functions, represented as a
term over argument variables x1..xk.  Definitions by cases on input
patterns are merged into single components by compiling the case analysis
into discriminator dispatch; the merge demands exhaustive patterns, which
is what separates total corecursive case analysis from partial programs.

The recognizer splits the functions into strongly connected components of
the call graph.  A non-recursive one is a composition; a recursive one,
of any number of mutually corecursive functions, is one schema, and each
member's equations take one of three shapes:

- they all produce one coinductive constructor;
- they produce several coinductive constructors of one arity, and a
  selector, a component whose value's head is the produced constructor,
  chooses between them;
- each is a compiled dispatch f(x...) = cocaseM(h(x...), e_1 .. e_M),
  and h is the selector.

The helper cocaseM belongs to `compile_schema`: a program's cocaseM is
the helper only if its equations are `cocase_equations` up to variable
names, and the helper is never a stratum.  Any other cocaseM is an
ordinary function, and one that clashes with a selector's helper is
rejected.

Recursion is accepted only in the argument slots directly under the
produced constructor (or the dispatch); anything else is rejected with
the offending subterm named.
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, replace

from .program import (DELTA, Equation, Program, assemble_program, pi_name,
                      reserved_function, validate_program)
from .system import DataSystem
from .terms import Con, Fun, Term, Var, substitute, subterms


def arg_vars(k: int) -> tuple[Term, ...]:
    return tuple(Var(f"x{i + 1}") for i in range(k))


@dataclass(frozen=True)
class Component:
    """A previously-available function of the component algebra, as a term
    over x1..x{arity}."""
    arity: int
    term: Term

    @staticmethod
    def destructor(i: int) -> "Component":
        return Component(1, Fun(pi_name(i), (Var("x1"),)))

    @staticmethod
    def projection(arity: int, i: int) -> "Component":
        return Component(arity, Var(f"x{i}"))

    @staticmethod
    def compose(outer: "Component", inners: list["Component"]) -> "Component":
        if outer.arity != len(inners):
            raise ValueError("composition arity mismatch")
        if inners:
            k = inners[0].arity
            if any(c.arity != k for c in inners):
                raise ValueError("inner component arities disagree")
        else:
            k = 0
        binding = {f"x{i + 1}": c.term for i, c in enumerate(inners)}
        return Component(k, substitute(outer.term, binding))

    def apply(self, args: tuple[Term, ...]) -> Term:
        if len(args) != self.arity:
            raise ValueError("component applied at wrong arity")
        return substitute(self.term, {f"x{i + 1}": a for i, a in enumerate(args)})


@dataclass(frozen=True)
class PlainSlot:
    component: Component


@dataclass(frozen=True)
class RecSlot:
    target: int  # 1-based index into the schema vector
    args: tuple[Component, ...]


Slot = PlainSlot | RecSlot


@dataclass(frozen=True)
class SchemaFun:
    name: str
    arity: int
    slots: tuple[Slot, ...]
    produced: str | None = None        # single produced constructor (stream form)
    selector: Component | None = None  # cocase selector (general form)


@dataclass(frozen=True)
class CorecSchema:
    functions: tuple[SchemaFun, ...]

    def names(self) -> list[str]:
        return [f.name for f in self.functions]


@dataclass(frozen=True)
class CompositionDef:
    name: str
    arity: int
    component: Component


Stratum = CompositionDef | CorecSchema


@dataclass(frozen=True)
class CorecBundle:
    """Stratified definitions: each stratum uses only earlier ones."""
    strata: tuple[Stratum, ...]
    principal: str


@dataclass(frozen=True)
class ProductivityVerdict:
    accepted: bool
    bundle: CorecBundle | None = None
    reason: str | None = None
    offending: Equation | None = None

    def report(self) -> str:
        if not self.accepted:
            lines = ["rejected: " + (self.reason or "unknown")]
            if self.offending is not None:
                lines.append(f"  at equation: {self.offending}")
            return "\n".join(lines)
        lines = ["primitive-corecursive"]
        for s in self.bundle.strata:
            if isinstance(s, CompositionDef):
                lines.append(f"  {s.name}/{s.arity}: composition {s.component.term}")
            else:
                for f in s.functions:
                    head = f"  {f.name}/{f.arity}: corecurrence"
                    if f.selector is not None:
                        head += f" selector h = {f.selector.term}"
                    elif f.produced:
                        head += f" producing '{f.produced}'"
                    lines.append(head)
                    for i, slot in enumerate(f.slots):
                        if isinstance(slot, PlainSlot):
                            lines.append(f"    slot {i + 1}: g = {slot.component.term}")
                        else:
                            args = ", ".join(str(a.term) for a in slot.args)
                            tgt = s.functions[slot.target - 1].name
                            lines.append(f"    slot {i + 1}: call {tgt} (l = {slot.target}) on [{args}]")
        return "\n".join(lines)


class _Reject(Exception):
    def __init__(self, reason: str, equation: Equation | None = None):
        super().__init__(reason)
        self.reason = reason
        self.equation = equation


# -- case merging -------------------------------------------------------------

class _Fresh:
    def __init__(self) -> None:
        self.n = 0

    def var(self) -> Var:
        self.n += 1
        return Var(f"_w{self.n}")


def _merge_cases(ds: DataSystem, rows: list[tuple[tuple[Term, ...], Term]],
                 subjects: list[Term], fresh: _Fresh,
                 equation: Equation | None) -> Term:
    """Compile case-analyzing rows into one term over the subjects.

    Each row is (patterns aligned with subjects, result term).  Splits are
    discriminator dispatches; a split position's cases must cover the
    constructor set of some predicate, otherwise the definition is partial
    and is rejected.
    """
    # every function has an equation, and `branch` merges no empty row set
    assert rows
    split_at = -1
    for i in range(len(subjects)):
        if any(not isinstance(r[0][i], Var) for r in rows):
            split_at = i
            break
    if split_at < 0:
        # rows that agree at every split unify, and validate_program has
        # rejected equations whose patterns unify
        assert len(rows) == 1
        pats, rhs = rows[0]
        return substitute(rhs, {p.name: s for p, s in zip(pats, subjects)
                                if isinstance(p, Var)})
    subject = subjects[split_at]
    demanded = {r[0][split_at].name for r in rows if not isinstance(r[0][split_at], Var)}
    has_var_row = any(isinstance(r[0][split_at], Var) for r in rows)
    if not has_var_row:
        covered = any(demanded == {c.name for c in ds.constructors_of(p)}
                      for p in ds.predicates)
        if not covered:
            raise _Reject(
                f"non-exhaustive patterns: cases {{{', '.join(sorted(demanded))}}} at "
                f"'{subject}' match no predicate's constructor set", equation)

    def branch(cname: str, r: int) -> Term:
        new_subjects = (subjects[:split_at]
                        + [Fun(pi_name(i + 1), (subject,)) for i in range(r)]
                        + subjects[split_at + 1:])
        new_rows: list[tuple[tuple[Term, ...], Term]] = []
        for pats, rhs in rows:
            p = pats[split_at]
            if isinstance(p, Var):
                wilds = tuple(fresh.var() for _ in range(r))
                new_rows.append((pats[:split_at] + wilds + pats[split_at + 1:],
                                 substitute(rhs, {p.name: subject})))
            elif p.name == cname:
                new_rows.append((pats[:split_at] + tuple(p.args) + pats[split_at + 1:], rhs))
        if not new_rows:
            return subject  # unreachable on canonical data
        return _merge_cases(ds, new_rows, new_subjects, fresh, equation)

    if len(demanded) == 1 and not has_var_row:
        c = ds.constructor(next(iter(demanded)))
        return branch(c.name, c.arity)
    branches = tuple(branch(c.name, c.arity) for c in ds.vocabulary)
    return Fun(DELTA, (subject,) + branches)


# -- the recognizer -----------------------------------------------------------

def _used_functions(t: Term) -> set[str]:
    return {u.name for u in subterms(t) if isinstance(u, Fun)}


def _sccs(order: list[str], deps: dict[str, set[str]]) -> list[list[str]]:
    """Strongly connected components in reverse topological order
    (Tarjan, with an explicit stack), members listed in declaration order."""
    decl_index = {f: i for i, f in enumerate(order)}
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    stack: list[str] = []
    on: set[str] = set()
    out: list[list[str]] = []
    work: list[tuple[str, Iterator[str]]] = []

    def enter(v: str) -> None:
        index[v] = low[v] = len(index)
        stack.append(v)
        on.add(v)
        work.append((v, iter(sorted(deps.get(v, ()), key=decl_index.__getitem__))))

    for root in order:
        if root in index:
            continue
        enter(root)
        while work:
            v, successors = work[-1]
            for w in successors:
                if w not in index:
                    enter(w)
                    break
                if w in on:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on.discard(w)
                        comp.append(w)
                        if w == v:
                            break
                    out.append(sorted(comp, key=decl_index.__getitem__))
    return out


def check_primitive_corecursive(program: Program, ds: DataSystem) -> ProductivityVerdict:
    rep = validate_program(program, ds)
    if not rep.ok:
        return ProductivityVerdict(False, reason=f"invalid program: {rep}")
    order = program.user_functions()
    decl_index = {f: i for i, f in enumerate(order)}
    deps = {f: {g for e in program.equations_of(f) for g in _used_functions(e.rhs)
                if g in decl_index}
            for f in order}
    # the output-dispatch helpers belong to compile_schema: no stratum
    helpers = {f: m for f in order if f != program.principal
               and (m := _dispatch_slots(f)) is not None
               and len(program.equations_of(f)[0].patterns) == m + 1
               and _canonical(program.equations_of(f)) == _canonical(cocase_equations(ds, m))}
    try:
        strata: list[Stratum] = []
        accepted: set[str] = set(helpers)
        for scc in _sccs(order, deps):
            if scc[0] in helpers:
                continue
            recursive = any(g in scc for f in scc for g in deps[f])
            first_decl = min(decl_index[f] for f in scc)
            for f in scc:
                for g in sorted(deps[f], key=decl_index.__getitem__):
                    if g not in scc and decl_index[g] > first_decl:
                        raise _Reject(
                            f"forward reference: '{f}' uses '{g}' declared later",
                            program.equations_of(f)[0])
            if recursive:
                targets = {f: i + 1 for i, f in enumerate(scc)}
                schema = CorecSchema(tuple(
                    _schema_fun(ds, program.equations_of(f), targets, accepted, helpers)
                    for f in scc))
                for fun in schema.functions:
                    helper = cocase_name(len(fun.slots))
                    if fun.selector is not None and helper in decl_index \
                            and helper not in helpers:
                        raise _Reject(f"'{fun.name}' dispatches its output through "
                                      f"'{helper}', which the program defines as "
                                      "another function", program.equations_of(fun.name)[0])
                strata.append(schema)
            else:
                (f,) = scc
                eqs = program.equations_of(f)
                strata.append(CompositionDef(
                    f, len(eqs[0].patterns),
                    _component(ds, eqs, [e.rhs for e in eqs], accepted)))
            accepted.update(scc)
        bundle = CorecBundle(tuple(strata), program.principal)
        return ProductivityVerdict(True, bundle=bundle)
    except _Reject as r:
        return ProductivityVerdict(False, reason=r.reason, offending=r.equation)


def _component(ds: DataSystem, eqs: list[Equation], results: list[Term],
               accepted: set[str]) -> Component:
    """Merge one result term per equation of `eqs` into one component over
    the arguments.  Every function it calls must be accepted already; a
    recursive call only gets here from a cocase selector."""
    k = len(eqs[0].patterns)
    merged = _merge_cases(ds, [(e.patterns, t) for e, t in zip(eqs, results)],
                          list(arg_vars(k)), _Fresh(), eqs[0])
    for u in subterms(merged):
        if isinstance(u, Fun) and not reserved_function(u.name) and u.name not in accepted:
            raise _Reject(
                f"recursive occurrence under non-component context: '{u}' in '{merged}'",
                eqs[0])
    return Component(k, merged)


def _schema_fun(ds: DataSystem, eqs: list[Equation], targets: dict[str, int],
                accepted: set[str], helpers: dict[str, int]) -> SchemaFun:
    """One member of a corecursive vector, in one of the three shapes the
    module docstring lists: only the selector rows and the per-slot result
    terms differ between them."""
    f = eqs[0].function
    k = len(eqs[0].patterns)
    produced: list[str] = []
    selector: list[Term] | None = None
    if all(isinstance(e.rhs, Fun) and e.rhs.name in helpers for e in eqs):
        for e in eqs:
            if helpers[e.rhs.name] != helpers[eqs[0].rhs.name]:
                raise _Reject(f"inconsistent output dispatch in '{f}'", e)
        selector = [e.rhs.args[0] for e in eqs]
        slot_terms = [e.rhs.args[1:] for e in eqs]
    else:
        for e in eqs:
            if not isinstance(e.rhs, Con):
                raise _Reject(
                    f"unguarded recursion: right-hand side '{e.rhs}' of a recursive "
                    f"function is not constructor-headed", e)
            if e.rhs.name not in produced:
                produced.append(e.rhs.name)
            if not any(not t.result_predicate.inductive
                       for t in ds.types_of(e.rhs.name)):
                raise _Reject(
                    f"produced constructor '{e.rhs.name}' builds no coinductive data", e)
        if len({ds.constructor(c).arity for c in produced}) > 1:
            raise _Reject(
                f"mixed arities among produced constructors {sorted(produced)}", eqs[0])
        if len(produced) > 1:
            # the selector steers only by its head constructor
            fill = Con(ds.vocabulary[0].name)
            selector = [Con(e.rhs.name, (e.patterns[0] if e.patterns else fill,)
                            * len(e.rhs.args)) for e in eqs]
        slot_terms = [e.rhs.args for e in eqs]
    sel = None if selector is None else _component(ds, eqs, selector, accepted)
    slots = tuple(_merge_slot(ds, i, targets, accepted, eqs, [ts[i] for ts in slot_terms])
                  for i in range(len(slot_terms[0])))
    return SchemaFun(f, k, slots, produced=produced[0] if len(produced) == 1 else None,
                     selector=sel)


def _is_call(t: Term, targets: dict[str, int], equation: Equation) -> bool:
    """Whether slot term t is a recursive call; a recursive occurrence
    anywhere else is rejected."""
    occ = [u for u in subterms(t) if isinstance(u, Fun) and u.name in targets]
    if not occ:
        return False
    if isinstance(t, Fun) and t.name in targets:
        inner = [u for a in t.args for u in subterms(a)
                 if isinstance(u, Fun) and u.name in targets]
        if not inner:
            return True
        raise _Reject(
            f"recursive occurrence under non-component context: '{inner[0]}' "
            f"inside recursive call '{t}'", equation)
    raise _Reject(
        f"recursive occurrence under non-component context: '{occ[0]}' in '{t}'",
        equation)


def _merge_slot(ds: DataSystem, i: int, targets: dict[str, int], accepted: set[str],
                eqs: list[Equation], terms: list[Term]) -> Slot:
    calls = [_is_call(t, targets, e) for e, t in zip(eqs, terms)]
    if not any(calls):
        return PlainSlot(_component(ds, eqs, terms, accepted))
    if all(calls):
        callees = sorted({t.name for t in terms})
        if len(callees) > 1:
            raise _Reject(
                f"case-dependent recursion target {callees} in slot {i + 1}", eqs[0])
        args = tuple(_component(ds, eqs, [t.args[j] for t in terms], accepted)
                     for j in range(len(terms[0].args)))
        return RecSlot(targets[callees[0]], args)
    raise _Reject(
        f"slot {i + 1} of '{eqs[0].function}' mixes direct values and recursive "
        "calls across cases", eqs[0])


# -- compilation --------------------------------------------------------------

def cocase_name(m: int) -> str:
    return f"cocase{m}"


def _dispatch_slots(name: str) -> int | None:
    """M if `name` is cocase<M>, else None."""
    m = name[len("cocase"):]
    return int(m) if m.isdigit() and name == cocase_name(int(m)) else None


def cocase_equations(ds: DataSystem, m: int) -> list[Equation]:
    """The output-dispatch helper over M slots: one equation per constructor
    of arity at most M, cocaseM(c(y1..yr), v1..vM) = c(v1..vr)."""
    vs = tuple(Var(f"v{i + 1}") for i in range(m))
    return [Equation(cocase_name(m),
                     (Con(c.name, tuple(Var(f"y{i + 1}") for i in range(c.arity))),) + vs,
                     Con(c.name, vs[:c.arity]))
            for c in ds.vocabulary if c.arity <= m]


def _canonical(eqs: list[Equation]) -> set[tuple[Term, Term]]:
    """The equations with their variables renamed by position in the
    definiendum: equal sets are equal up to variable names."""
    out = set()
    for e in eqs:
        vs = [u.name for u in subterms(e.definiendum) if isinstance(u, Var)]
        ren = {v: Var(f"_{i}") for i, v in enumerate(vs)}
        out.add((substitute(e.definiendum, ren), substitute(e.rhs, ren)))
    return out


def compile_schema(bundle: CorecBundle, ds: DataSystem) -> Program:
    """Emit the equational program of a stratified bundle.  Recursive
    functions come out in constructor-producing form, so the result is
    directly evaluable; the compiled program validates and the recognizer
    re-extracts an equal bundle.  The cocaseM helper a selector dispatches
    through is this function's: it comes first and is never a stratum."""
    eqs: list[Equation] = []
    for s in bundle.strata:
        if isinstance(s, CompositionDef):
            eqs.append(Equation(s.name, arg_vars(s.arity), s.component.term))
            continue
        vector = s.names()
        for fdef in s.functions:
            xs = arg_vars(fdef.arity)

            def slot_term(slot: Slot) -> Term:
                if isinstance(slot, PlainSlot):
                    return slot.component.apply(xs)
                callee = vector[slot.target - 1]
                return Fun(callee, tuple(a.apply(xs) for a in slot.args))

            slot_terms = tuple(slot_term(sl) for sl in fdef.slots)
            if fdef.selector is None:
                eqs.append(Equation(fdef.name, xs, Con(fdef.produced, slot_terms)))
            else:
                m = len(fdef.slots)
                eqs.append(Equation(
                    fdef.name, xs,
                    Fun(cocase_name(m), (fdef.selector.apply(xs),) + slot_terms)))
    defined = {e.function for e in eqs}
    ms = {m for e in eqs for u in subterms(e.rhs) if isinstance(u, Fun)
          and u.name not in defined and (m := _dispatch_slots(u.name)) is not None}
    # the helpers come first: later definitions may only use earlier ones
    helpers = [h for m in sorted(ms) for h in cocase_equations(ds, m)]
    return assemble_program(ds, helpers + eqs, bundle.principal)


def _anonymous(s: Stratum) -> Stratum:
    """A stratum with its schema members' names blanked; members call each
    other by index, so this is the stratum up to renaming of the vector."""
    if isinstance(s, CorecSchema):
        return CorecSchema(tuple(replace(f, name="") for f in s.functions))
    return s


def bundle_equal(a: CorecBundle, b: CorecBundle) -> bool:
    return [_anonymous(s) for s in a.strata] == [_anonymous(s) for s in b.strata]


# -- stock corpus -------------------------------------------------------------

@dataclass(frozen=True)
class StockEntry:
    name: str
    program: Program
    arity: int
    description: str


def _sm() -> DataSystem:
    from .system import boolean_stream_system
    return boolean_stream_system()


def stock_library() -> dict[str, StockEntry]:
    """Named corecursive programs over boolean streams; every entry passes
    the recognizer."""
    ds = _sm()
    x, y, w = Var("x"), Var("y"), Var("w")
    zero, one = Con("0"), Con("1")

    def c(h: Term, t: Term) -> Term:
        return Con("cons", (h, t))

    def p1(t: Term) -> Term:
        return Fun("pi1", (t,))

    def p2(t: Term) -> Term:
        return Fun("pi2", (t,))

    even_eq = Equation("even", (x,), c(p1(x), Fun("even", (p2(p2(x)),))))
    notf_eq = Equation("notf", (x,), Fun(DELTA, (x, one, zero, zero)))
    entries = [
        StockEntry("ident", assemble_program(ds, [
            Equation("ident", (x,), c(p1(x), Fun("ident", (p2(x),)))),
        ], "ident"), 1, "identity corecursion"),
        StockEntry("even", assemble_program(ds, [even_eq], "even"), 1,
                   "even-positioned elements"),
        StockEntry("odd", assemble_program(ds, [
            even_eq,
            Equation("odd", (x,), Fun("even", (p2(x),))),
        ], "odd"), 1, "odd-positioned elements (even after tail)"),
        StockEntry("flip", assemble_program(ds, [
            Equation("flip", (c(zero, w),), c(one, Fun("flip", (w,)))),
            Equation("flip", (c(one, w),), c(zero, Fun("flip", (w,)))),
        ], "flip"), 1, "bitwise complement, by cases"),
        StockEntry("merge", assemble_program(ds, [
            Equation("merge", (x, y), c(p1(x), Fun("merge", (y, p2(x))))),
        ], "merge"), 2, "interleave two streams"),
        StockEntry("zeros", assemble_program(ds, [
            Equation("zeros", (), c(zero, Fun("zeros"))),
        ], "zeros"), 0, "constant 0 stream"),
        StockEntry("ones", assemble_program(ds, [
            Equation("ones", (), c(one, Fun("ones"))),
        ], "ones"), 0, "constant 1 stream"),
        StockEntry("zipxor", assemble_program(ds, [
            notf_eq,
            Equation("zipxor", (x, y),
                     c(Fun(DELTA, (p1(x), p1(y), Fun("notf", (p1(y),)), zero)),
                       Fun("zipxor", (p2(x), p2(y))))),
        ], "zipxor"), 2, "pointwise xor via discriminator dispatch"),
        StockEntry("alt", assemble_program(ds, [
            Equation("alt", (), c(zero, Fun("altb"))),
            Equation("altb", (), c(one, Fun("alt"))),
        ], "alt"), 0, "mutually corecursive alternating pair"),
    ]
    return {e.name: e for e in entries}


def morse_thue_program() -> Program:
    """x = 1 : merge(x, not x) — cumulative corecursion, not accepted."""
    ds = _sm()
    x, y = Var("x"), Var("y")
    return assemble_program(ds, [
        Equation("notf", (x,), Fun(DELTA, (x, Con("1"), Con("0"), Con("0")))),
        Equation("merge", (x, y), Con("cons", (Fun("pi1", (x,)),
                                               Fun("merge", (y, Fun("pi2", (x,))))))),
        Equation("mt", (), Con("cons", (Con("1"),
                                        Fun("merge", (Fun("mt"),
                                                      Fun("notf", (Fun("mt"),))))))),
    ], "mt")
