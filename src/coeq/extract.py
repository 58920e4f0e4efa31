"""Between corecursion and coinduction proofs.

`prove_corec` turns a recognized corecursive definition into a checked
natural-deduction proof that its functions map streams to streams: one
coinduction per schema, with the invariant "z is a value of some vector
member on stream arguments", and component typings synthesized bottom-up
(destructor eliminations, boolean case analysis for discriminator
dispatch, and grafted proofs of previously defined functions).

`extract` walks a detour-free, all-strongly-positive derivation and emits
a primitive-corecursive program realizing its conclusion: logical rules
become realizer plumbing over the split algebra, data eliminations become
destructors, rewrites are free, and each coinduction becomes one mutual
schema of fresh corecursive functions, one per member state the invariant
realizer reaches, each producing head bits while stepping the
decomposition evidence, one parameter per evidence component.

`roundtrip_report` drives the full pipeline over the stock library and
checks the extracted programs against the originals observationally.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

from .corec import (Component, CompositionDef, CorecBundle, CorecSchema,
                    PlainSlot, RecSlot, SchemaFun, Stratum, arg_vars,
                    bundle_equal, check_primitive_corecursive, compile_schema,
                    stock_library)
from .evaluation import DiagramEnv, Session, derives_omega
from .logic import (And, DataAtom, Derivation, EqAtom, Exists, Formula, Or,
                    and_elim, and_intro, assert_sp_proof, assume, build_dcm,
                    check_proof, coinduction, data_elim, data_intro, ex_elim,
                    ex_intro, fv, has_detour, induction, normalize,
                    or_elim, or_intro, refl, rewrite, subst_derivation,
                    subst_formula)
from .program import (DELTA, Equation, Program, assemble_program, pi_name,
                      reserved_function)
from .realize import (EVEN, MERGE, ODD, ZEROS, SortError, algebra_strata,
                      even_term, merge_term, odd_term, term_sort, var_sorts,
                      zeros_term)
from .system import DataSystem, random_stream_coterm
from .terms import Con, Fun, Term, Var, fresh_name, substitute, variables


class ExtractError(Exception):
    pass


# ---------------------------------------------------------------------------
# Component typing proofs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProofTemplate:
    """A typed function f/k: `derivation` proves result_sort(f(x1..xk)) from
    assumptions h_i: arg_sorts[i - 1](x_i)."""
    arg_sorts: tuple[str, ...]
    result_sort: str
    derivation: Derivation


class _Labels:
    def __init__(self):
        self.n = 0

    def fresh(self) -> str:
        self.n += 1
        return f"q{self.n}"


class Prover:
    """Builds derivations about the programs `compile_schema` emits."""

    def __init__(self, ds: DataSystem):
        self.ds = ds
        self.registry: dict[str, ProofTemplate] = {}
        self.labels = _Labels()
        b = ds.predicate("B")
        s = ds.predicate("S")
        if b is None or s is None or not b.inductive or s.inductive:
            raise ExtractError("proof generation expects a boolean-stream system")
        self.cons_type = next(t for t in ds.types_for_result(s))
        self.b_types = ds.types_for_result(b)

    # -- the synthesizer -------------------------------------------------------

    def typing(self, t: Term, sorts: dict[str, str],
               hyp_labels: dict[str, str]) -> Derivation:
        """Derivation of Pred(t) from labeled hypotheses Pred_v(v)."""
        if isinstance(t, Var):
            return assume(hyp_labels[t.name], DataAtom(sorts[t.name], t))
        if isinstance(t, Con):
            types = [ty for ty in self.ds.types_of(t.name)
                     if ty.result_predicate.inductive]
            if not types or t.args:
                raise ExtractError(f"cannot type constructor term '{t}'")
            return data_intro(types[0], ())
        assert isinstance(t, Fun)
        if t.name in (pi_name(1), pi_name(2)):
            inner = self.typing(t.args[0], sorts, hyp_labels)
            i = 1 if t.name == pi_name(1) else 2
            return data_elim(self.cons_type, i, inner)
        if t.name == DELTA:
            return self._delta_typing(t, sorts, hyp_labels)
        tpl = self.registry.get(t.name)
        if tpl is None:
            raise ExtractError(f"no typing available for '{t.name}'")
        # one label per argument is drawn and unused, so that proofs keep
        # the label numbers their pinned digests record
        self.labels.n += len(t.args)
        return subst_derivation(
            tpl.derivation, {f"x{i + 1}": arg for i, arg in enumerate(t.args)},
            {f"h{i + 1}": self.typing(arg, sorts, hyp_labels)
             for i, arg in enumerate(t.args)})

    def _delta_typing(self, t: Term, sorts, hyp_labels) -> Derivation:
        sel = t.args[0]
        sel_d = self.typing(sel, sorts, hyp_labels)
        target = term_sort(t, sorts, self.ds, self.registry)
        hole = fresh_name("q0", variables(t))
        phi = DataAtom(target, Fun(DELTA, (Var(hole),) + t.args[1:]))
        cases = []
        delta_positions = {c.name: i for i, c in enumerate(self.ds.vocabulary)}
        for ct in self.b_types:
            cname = ct.constructor.name
            idx = delta_positions[cname]
            branch = t.args[1 + idx]
            inner = self.typing(branch, sorts, hyp_labels)
            concl = DataAtom(target, Fun(DELTA, (Con(cname),) + t.args[1:]))
            cases.append(rewrite(DELTA, idx, "rl", (1,), inner, concl))
        return induction("B", hole, phi, sel_d, tuple(cases),
                         tuple(() for _ in self.b_types),
                         tuple(() for _ in self.b_types))

    # -- compositions ------------------------------------------------------------

    def register_composition(self, cdef: CompositionDef) -> Derivation:
        term = cdef.component.term
        xs = arg_vars(cdef.arity)
        found = var_sorts(term, self.ds, self.registry)
        sorts = {x.name: found.get(x.name, "S") for x in xs}
        body_d = self.typing(term, sorts, {x.name: f"h{i + 1}" for i, x in enumerate(xs)})
        result = term_sort(term, sorts, self.ds, self.registry)
        # compile_schema emits one equation per definition, so its index is 0
        d = rewrite(cdef.name, 0, "rl", (1,), body_d, DataAtom(result, Fun(cdef.name, xs)))
        self.registry[cdef.name] = ProofTemplate(tuple(sorts.values()), result, d)
        return d

    # -- schemas (the corecursion-to-coinduction proof) ---------------------------

    def register_schema(self, schema: CorecSchema) -> dict[str, Derivation]:
        fns = schema.functions
        for f in fns:
            if f.selector is not None or f.produced != self.cons_type.constructor.name:
                raise ExtractError(
                    f"'{f.name}': only stream-form schemas generate proofs")
            if len(f.slots) != 2 or not isinstance(f.slots[0], PlainSlot) \
                    or not isinstance(f.slots[1], RecSlot):
                raise ExtractError(
                    f"'{f.name}': expected one head component and one corecursive call")
        zz = "zz"
        phi = _disjunction(_disjuncts(fns, Var(zz)))
        # phi is the same for every member, so one decomposition premise serves all
        d_dcm = self._dcm_proof(fns, phi, zz)
        out: dict[str, Derivation] = {}
        for p, f in enumerate(fns):
            d = self._member_proof(fns, p, phi, zz, d_dcm)
            out[f.name] = d
            self.registry[f.name] = ProofTemplate(("S",) * f.arity, "S", d)
        return out

    def _intro_exists(self, names: list[str], body: Formula,
                      witnesses: list[Term], d: Derivation) -> Derivation:
        for i in range(len(names) - 1, -1, -1):
            partial = subst_formula(_closure(names[i + 1:], body),
                                    dict(zip(names[:i], witnesses[:i])))
            d = ex_intro(names[i], partial, witnesses[i], d)
        return d

    def _intro_member(self, fns, p: int, val: Term, arg_values: list[Term],
                      arg_proofs: list[Derivation]) -> Derivation:
        """phi[zz := val] via disjunct p: the existentials and conjunctions
        of 'val is f_p on streams arg_values'."""
        f = fns[p]
        ys = [f"y{i + 1}" for i in range(f.arity)]
        d = refl(val)
        for pd in reversed(arg_proofs):
            d = and_intro(pd, d)
        d = self._intro_exists(ys, _chain(f.name, val, [Var(y) for y in ys]),
                               arg_values, d)
        # now select disjunct p inside the right-associated chain
        inst = _disjuncts(fns, val)
        if p < len(fns) - 1:
            d = or_intro(1, d, _disjunction(inst[p + 1:]))
        for i in range(p - 1, -1, -1):
            d = or_intro(2, d, inst[i])
        return d

    def _member_proof(self, fns, p: int, phi: Formula, zz: str,
                      d_dcm: Derivation) -> Derivation:
        fp = fns[p]
        xs = [Var(f"x{i + 1}") for i in range(fp.arity)]
        t = Fun(fp.name, tuple(xs))
        arg_proofs = [assume(f"h{i + 1}", DataAtom("S", x)) for i, x in enumerate(xs)]
        premise1 = self._intro_member(fns, p, t, xs, arg_proofs)
        return coinduction("S", zz, phi, t, "w", premise1, d_dcm)

    def _dcm_proof(self, fns, phi: Formula, zz: str) -> Derivation:
        inst = _disjuncts(fns, Var(zz))
        # or-elimination i splits the disjunction of inst[i:], assumed under
        # labs[i], into disjunct i and the rest; labels are drawn front to back
        n = len(fns)
        labs = ["w"]
        lefts = []
        for i in range(n - 1):
            l1 = self.labels.fresh()
            labs.append(self.labels.fresh())
            lefts.append((l1, self._dcm_case(fns, phi, zz, i, assume(l1, inst[i]))))
        d = self._dcm_case(fns, phi, zz, n - 1, assume(labs[-1], inst[-1]))
        for i in range(n - 2, -1, -1):
            l1, left = lefts[i]
            d = or_elim(assume(labs[i], _disjunction(inst[i:])), l1, left, labs[i + 1], d)
        return d

    def _dcm_case(self, fns, phi: Formula, zz: str, j: int,
                  d_j: Derivation) -> Derivation:
        """From a proof of disjunct j (zz is f_j on streams), derive the
        decomposition of zz."""
        fj = fns[j]
        k = fj.arity
        es = [f"e{self.labels.fresh()}" for _ in range(k)]
        e_args = tuple(Var(e) for e in es)
        # peel the existentials, then the conjunction chain
        a_label = self.labels.fresh()
        cur: Derivation = assume(a_label, _chain(fj.name, Var(zz), e_args))
        s_proofs: list[Derivation] = []
        for _ in range(k):
            s_proofs.append(and_elim(1, cur))
            cur = and_elim(2, cur)
        # rewrite the call one step: zz = cons(head, f_l(tailargs))
        head_term = fj.slots[0].component.apply(e_args)
        tail_slot = fj.slots[1]
        tail_args = [c.apply(e_args) for c in tail_slot.args]
        tail_term = Fun(fns[tail_slot.target - 1].name, tuple(tail_args))
        stepped = rewrite(fj.name, 0, "lr", (2,), cur,
                          EqAtom(Var(zz), Con(fj.produced, (head_term, tail_term))))
        # typings, from hypotheses S(e) later grafted with the chain's proofs
        sorts = {e: "S" for e in es}
        hyp_labels = {e: self.labels.fresh() for e in es}
        typed = [self.typing(a, sorts, hyp_labels) for a in [head_term] + tail_args]
        chain = {hyp_labels[e]: sp for e, sp in zip(es, s_proofs)}
        typed = [subst_derivation(tp, {}, chain) for tp in typed]
        d_phi_tail = self._intro_member(fns, tail_slot.target - 1, tail_term,
                                        tail_args, typed[1:])
        body = and_intro(typed[0], and_intro(d_phi_tail, stepped))
        dcm_shape = build_dcm(self.ds, "S", phi, zz, zz)
        z_names = []
        while isinstance(dcm_shape, Exists):
            z_names.append(dcm_shape.var)
            dcm_shape = dcm_shape.body
        d = self._intro_exists(z_names, dcm_shape, [head_term, tail_term], body)
        return self._close_exists(fj.name, zz, es, a_label, d, d_j)

    def _close_exists(self, fn: str, zz: str, es: list[str], a_label: str,
                      core: Derivation, d_j: Derivation) -> Derivation:
        """Wrap `core` (built from the innermost chain assumption labeled
        a_label) in existential eliminations for e_1..e_k, majored by d_j."""
        k = len(es)
        if k == 0:
            return subst_derivation(core, {}, {a_label: d_j})
        ys = [f"y{i + 1}" for i in range(k)]

        def remaining(i: int) -> Formula:
            """ex ys[i]..ys[k-1]. chain, with ys[0..i-1] already e's."""
            vs = [Var(e) for e in es[:i]] + [Var(y) for y in ys[i:]]
            return _closure(ys[i:], _chain(fn, Var(zz), vs))

        # ex_elim i opens ys[i] as es[i]; its minor premise assumes
        # remaining(i + 1) under labs[i], the innermost one the chain itself
        labs = [self.labels.fresh() for _ in range(k - 1)] + [a_label]
        d = core
        for i in range(k - 1, 0, -1):
            d = ex_elim(assume(labs[i - 1], remaining(i)), es[i], labs[i], d)
        return ex_elim(d_j, es[0], labs[0], d)


def _chain(fn: str, lhs: Term, vs) -> Formula:
    """S(v1) & ... & S(vk) & lhs = fn(v1..vk)."""
    out: Formula = EqAtom(lhs, Fun(fn, tuple(vs)))
    for v in reversed(vs):
        out = And(DataAtom("S", v), out)
    return out


def _closure(names, body: Formula) -> Formula:
    """ex names[0] ... ex names[-1]. body"""
    for y in reversed(names):
        body = Exists(y, body)
    return body


def _disjunction(fs) -> Formula:
    """fs[0] | (fs[1] | ... | fs[-1]), nested to the right."""
    out = fs[-1]
    for g in reversed(fs[:-1]):
        out = Or(g, out)
    return out


def _disjuncts(fns, val: Term) -> list[Formula]:
    """For each member f/k of the vector: ex y1..yk. S(y1) & ... & val = f(y...)."""
    out = []
    for f in fns:
        ys = [f"y{i + 1}" for i in range(f.arity)]
        out.append(_closure(ys, _chain(f.name, val, [Var(y) for y in ys])))
    return out


# ---------------------------------------------------------------------------
# prove_corec
# ---------------------------------------------------------------------------

def prove_corec(bundle: CorecBundle, ds: DataSystem) -> Derivation:
    """The corecursion-to-coinduction proof: a derivation of S(f(x1..xk))
    from assumptions S(x1)..S(xk), for the compiled program of the bundle.
    It is not checked here; its callers check it with `check_proof`."""
    prover = Prover(ds)
    principal = bundle.principal
    result: Derivation | None = None
    try:
        for stratum in bundle.strata:
            if isinstance(stratum, CompositionDef):
                d = prover.register_composition(stratum)
                if stratum.name == principal:
                    result = d
            else:
                ds_map = prover.register_schema(stratum)
                if principal in ds_map:
                    result = ds_map[principal]
    except SortError as e:
        raise ExtractError(str(e)) from None
    if result is None:
        raise ExtractError(f"principal '{principal}' not defined by the bundle")
    return result


def prove_corec_program(program: Program, ds: DataSystem) -> tuple[Derivation, Program]:
    """Recognize, compile, prove: the derivation plus the compiled program
    it is checked against."""
    verdict = check_primitive_corecursive(program, ds)
    if not verdict.accepted:
        raise ExtractError(f"not primitive corecursive: {verdict.reason}")
    compiled = compile_schema(verdict.bundle, ds)
    return prove_corec(verdict.bundle, ds), compiled


# ---------------------------------------------------------------------------
# Extraction: symbolic realizers
# ---------------------------------------------------------------------------

class SymR:
    __slots__ = ()


@dataclass(frozen=True)
class Leaf(SymR):
    term: Term


@dataclass(frozen=True)
class Pair(SymR):
    head: SymR
    rest: SymR


@dataclass(frozen=True)
class ConsR(SymR):
    head_term: Term
    tail: SymR


@dataclass(frozen=True)
class Case(SymR):
    """Discriminator dispatch on a boolean term: `left` where it is 0,
    `right` where it is 1."""
    bit: Term
    left: SymR
    right: SymR


def _const_bit(t: Term) -> str | None:
    if isinstance(t, Con) and not t.args and t.name in ("0", "1"):
        return t.name
    return None


def _known(r: SymR, bit: Term, value: str) -> SymR:
    """r on the runs where `bit` is `value`: dispatches on it are resolved."""
    if isinstance(r, Case):
        if r.bit == bit:
            return _known(r.left if value == "0" else r.right, bit, value)
        return Case(r.bit, _known(r.left, bit, value), _known(r.right, bit, value))
    if isinstance(r, Pair):
        return Pair(_known(r.head, bit, value), _known(r.rest, bit, value))
    if isinstance(r, ConsR):
        return ConsR(r.head_term, _known(r.tail, bit, value))
    return r


def case(bit: Term, left: SymR, right: SymR) -> SymR:
    const = _const_bit(bit)
    if const is not None:
        return left if const == "0" else right
    left, right = _known(left, bit, "0"), _known(right, bit, "1")
    return left if left == right else Case(bit, left, right)


def _over(r: Case, f) -> SymR:
    """f distributed over the branches of a dispatch."""
    left, right = f(r.left), f(r.right)
    return left if left == right else Case(r.bit, left, right)


def mat(r: SymR) -> Term:
    if isinstance(r, Leaf):
        return r.term
    if isinstance(r, Pair):
        return merge_term(mat(r.head), mat(r.rest))
    if isinstance(r, ConsR):
        return Con("cons", (r.head_term, mat(r.tail)))
    left = mat(r.left)
    return Fun(DELTA, (r.bit, left, mat(r.right), left))


def even_r(r: SymR) -> SymR:
    if isinstance(r, Pair):
        return r.head
    if isinstance(r, Case):
        return _over(r, even_r)
    return Leaf(even_term(mat(r)))


def odd_r(r: SymR) -> SymR:
    if isinstance(r, Pair):
        return r.rest
    if isinstance(r, Case):
        return _over(r, odd_r)
    return Leaf(odd_term(mat(r)))


def sigma1(r: SymR) -> SymR:
    return even_r(odd_r(r))


def head_term_of(r: SymR) -> Term:
    if isinstance(r, ConsR):
        return r.head_term
    if isinstance(r, Pair):
        return head_term_of(r.head)
    if isinstance(r, Case):
        left, right = head_term_of(r.left), head_term_of(r.right)
        return left if left == right else Fun(DELTA, (r.bit, left, right, left))
    return Fun(pi_name(1), (mat(r),))


def tail_r(r: SymR) -> SymR:
    if isinstance(r, ConsR):
        return r.tail
    if isinstance(r, Pair):
        return Pair(r.rest, tail_r(r.head))
    if isinstance(r, Case):
        return _over(r, tail_r)
    return Leaf(Fun(pi_name(2), (mat(r),)))


ZEROS_R = Leaf(zeros_term())


# -- runner parameters: the skeleton of a realizer -------------------------------

_HOLE = Var("_")


def _alternatives(rs: list[SymR]) -> list[SymR]:
    out: list[SymR] = []
    for r in rs:
        out += _alternatives([r.left, r.right]) if isinstance(r, Case) else [r]
    return out


def _shape(rs: list[SymR]) -> SymR:
    """The Pair/ConsR structure that every alternative of `rs` has, with
    holes where they disagree."""
    rs = _alternatives(rs)
    if all(isinstance(r, Pair) for r in rs):
        return Pair(_shape([r.head for r in rs]), _shape([r.rest for r in rs]))
    if all(isinstance(r, ConsR) for r in rs):
        return ConsR(_HOLE, _shape([r.tail for r in rs]))
    return Leaf(_HOLE)


def _number(shape: SymR, first: int) -> SymR:
    """The shape with a parameter x<first>, x<first + 1>, ... in each hole."""
    names = itertools.count(first)

    def go(s: SymR) -> SymR:
        if isinstance(s, Pair):
            return Pair(go(s.head), go(s.rest))
        q = Var(f"x{next(names)}")
        return ConsR(q, go(s.tail)) if isinstance(s, ConsR) else Leaf(q)

    return go(shape)


def _project(r: SymR, skel: SymR, out: dict[str, Term]) -> dict[str, Term]:
    """The value of each parameter of `skel` when the realizer is r.  By
    the merge/even/odd laws the skeleton over these values is r again."""
    if isinstance(skel, Leaf):
        out[skel.term.name] = mat(r)
    elif isinstance(skel, Pair):
        _project(even_r(r), skel.head, out)
        _project(odd_r(r), skel.rest, out)
    else:
        out[skel.head_term.name] = head_term_of(r)
        _project(tail_r(r), skel.tail, out)
    return out


def _drop(r: SymR, n: int) -> SymR:
    for _ in range(n):
        r = tail_r(r)
    return r


def _or_path(r: SymR, phi: Formula,
             dynamic) -> tuple[tuple[str, ...], SymR, Formula]:
    """The constant head bits by which r selects a disjunct of the
    disjunction tree phi, the rest of r, and the formula that rest
    realizes.  The path ends at a disjunct, at a position in `dynamic`, or
    at a head that is not a constant bit."""
    path: tuple[str, ...] = ()
    while isinstance(phi, Or) and path not in dynamic:
        bit = _const_bit(head_term_of(r))
        if bit is None:
            break
        path += (bit,)
        phi = phi.left if bit == "0" else phi.right
        r = tail_r(r)
    return path, r, phi


@dataclass
class _State:
    """One reachable member state of a coinduction, keyed by the or-path
    bits its invariant realizer carries as constants: the skeleton of the
    rest of that realizer, the state's parameters in order and, once
    stepped, its head bit, its successor and the value of each successor
    parameter."""
    skel: SymR
    params: list[str]
    bit: Term | None = None
    succ: tuple[str, ...] = ()
    nxt: dict[str, Term] = field(default_factory=dict)


def _live(states: dict[tuple[str, ...], _State]) -> dict[tuple[str, ...], list[str]]:
    """Per state, the parameters its output reads, directly or through the
    values passed to live parameters of its successor, in parameter order."""
    live: dict[tuple[str, ...], set[str]] = {p: set() for p in states}
    changed = True
    while changed:
        changed = False
        for p, st in states.items():
            need = set(variables(st.bit))
            for q in live[st.succ]:
                need |= variables(st.nxt[q])
            if need != live[p]:
                live[p] = need
                changed = True
    return {p: [q for q in st.params if q in live[p]] for p, st in states.items()}


def _split_chain(t: Term) -> int:
    """The longest run of nested split_even/split_odd applications in t."""
    best = 0
    stack = [(t, 0)]
    while stack:
        u, run = stack.pop()
        run = run + 1 if isinstance(u, Fun) and u.name in (EVEN, ODD) else 0
        best = max(best, run)
        stack += [(a, run) for a in u.args]
    return best


@dataclass
class ExtractionCertificate:
    """What extraction emitted: one line per coinduction naming its
    runners, the number of coinductions, and the longest split chain in
    any emitted term."""
    lines: list[str] = field(default_factory=list)
    split_chain: int = 0
    coinductions: int = 0

    def note(self, path: tuple[int, ...], rule: str, what: str) -> None:
        where = "/".join(str(i) for i in path) or "root"
        self.lines.append(f"{where}\t{rule}\t{what}")

    def render(self) -> str:
        head = [f"coinductions\t{self.coinductions}",
                f"max-split-chain\t{self.split_chain}"]
        return "\n".join(head + self.lines)


@dataclass
class ExtractionResult:
    bundle: CorecBundle
    program: Program
    value_params: tuple[str, ...]       # free variables, in parameter order
    realizer_params: tuple[str, ...]    # assumption labels, in parameter order
    certificate: ExtractionCertificate

    @property
    def principal(self) -> str:
        return self.bundle.principal


class Extractor:
    def __init__(self, ds: DataSystem, program: Program):
        self.ds = ds
        self.defs: list[Stratum] = []
        self.counter = itertools.count(1)
        self.cert = ExtractionCertificate()
        self.cons_name = "cons"
        self.taken = set(program.functions())

    def fresh_name(self, base: str) -> str:
        while True:
            n = f"{base}{next(self.counter)}"
            if n not in self.taken:
                self.taken.add(n)
                return n

    # -- values ---------------------------------------------------------------

    def value_term(self, t: Term, ctx: dict) -> Term:
        binding = {}
        for v in variables(t):
            if v in ctx["values"]:
                sort, val = ctx["values"][v]
                binding[v] = val if sort == "B" else mat(val)
        return substitute(t, binding)

    # -- the walk ----------------------------------------------------------------

    def extract(self, d: Derivation, ctx: dict, path: tuple[int, ...] = ()) -> SymR:
        rule = d.rule
        handler = getattr(self, "_x_" + rule.replace("-", "_"), None)
        if handler is None:
            raise ExtractError(f"rule '{rule}' outside the supported extraction set")
        return handler(d, ctx, path)

    def _x_assume(self, d, ctx, path):
        label = d.attr("label")
        try:
            return ctx["realizers"][label]
        except KeyError:
            raise ExtractError(f"no realizer for open assumption '{label}'")

    def _x_and_intro(self, d, ctx, path):
        a = self.extract(d.premises[0], ctx, path + (0,))
        b = self.extract(d.premises[1], ctx, path + (1,))
        return Pair(a, Pair(b, ZEROS_R))

    def _x_and_elim(self, d, ctx, path):
        w = self.extract(d.premises[0], ctx, path + (0,))
        return even_r(w) if d.attr("i") == 1 else sigma1(w)

    def _x_or_intro(self, d, ctx, path):
        r = self.extract(d.premises[0], ctx, path + (0,))
        bit = "0" if d.attr("i") == 1 else "1"
        return ConsR(Con(bit), r)

    def _x_or_elim(self, d, ctx, path):
        w = self.extract(d.premises[0], ctx, path + (0,))
        bit = head_term_of(w)
        tail = tail_r(w)
        static = _const_bit(bit)
        if static is not None:
            pick = 1 if static == "0" else 2
            ctx2 = _extend(ctx, realizers={d.attr(f"label{pick}"): tail})
            return self.extract(d.premises[pick], ctx2, path + (pick,))
        r1 = self.extract(d.premises[1], _extend(
            ctx, realizers={d.attr("label1"): _known(tail, bit, "0")}), path + (1,))
        r2 = self.extract(d.premises[2], _extend(
            ctx, realizers={d.attr("label2"): _known(tail, bit, "1")}), path + (2,))
        return case(bit, r1, r2)

    def _x_ex_intro(self, d, ctx, path):
        body_r = self.extract(d.premises[0], ctx, path + (0,))
        concl = d.conclusion
        wt = self.value_term(d.attr("witness"), ctx)
        if var_sorts(concl.body, self.ds, None).get(concl.var) == "B":
            wit_r: SymR = ConsR(wt, ZEROS_R)
        else:
            wit_r = Leaf(wt)
        return Pair(wit_r, Pair(body_r, ZEROS_R))

    def _x_ex_elim(self, d, ctx, path):
        w = self.extract(d.premises[0], ctx, path + (0,))
        major = d.premises[0].conclusion
        eigen = d.attr("eigen")
        v0 = even_r(w)
        if var_sorts(major.body, self.ds, None).get(major.var) == "B":
            value = ("B", head_term_of(v0))
        else:
            value = ("S", v0)
        ctx2 = _extend(ctx, values={eigen: value},
                       realizers={d.attr("label"): sigma1(w)})
        return self.extract(d.premises[1], ctx2, path + (1,))

    def _x_refl(self, d, ctx, path):
        t = d.conclusion.left
        vt = self.value_term(t, ctx)
        sorts = {v: sort for v, (sort, _val) in ctx["values"].items()}
        if term_sort(t, sorts, self.ds, None) == "B":
            return ConsR(vt, ZEROS_R)
        return Leaf(vt)

    def _x_rewrite(self, d, ctx, path):
        return self.extract(d.premises[0], ctx, path + (0,))

    def _x_data_intro(self, d, ctx, path):
        ct = d.attr("type")
        if ct.constructor.arity != 0 or not ct.result_predicate.inductive:
            raise ExtractError("extraction supports nullary data introductions only")
        return ConsR(Con(ct.constructor.name), ZEROS_R)

    def _x_data_elim(self, d, ctx, path):
        w = self.extract(d.premises[0], ctx, path + (0,))
        ct, i = d.attr("type"), d.attr("i")
        if ct.argument_predicates[i - 1].inductive:
            if i == 1:
                return ConsR(head_term_of(w), ZEROS_R)
            return ConsR(Fun(pi_name(i), (mat(w),)), ZEROS_R)
        if i == 2:
            return tail_r(w)
        return Leaf(Fun(pi_name(i), (mat(w),)))

    def _x_induction(self, d, ctx, path):
        if d.attr("pred") != "B":
            raise ExtractError("extraction supports induction over booleans only")
        major = self.extract(d.premises[0], ctx, path + (0,))
        cases = [self.extract(p, ctx, path + (1 + i,))
                 for i, p in enumerate(d.premises[1:])]
        return case(head_term_of(major), cases[0], cases[1])

    def _x_coinduction(self, d, ctx, path):
        """One runner per reachable member state, emitted as one mutual
        schema.  A state is the path of constant bits by which the
        invariant realizer selects a disjunct of the invariant; its runner
        emits the head bit of each decomposition step and calls the
        successor state's runner on the next subject and the next invariant
        realizer, that realizer split into one parameter per component of
        the successor's skeleton, so no evidence is merged and split again
        at run time.  A position of the disjunction tree whose bit is not
        constant on every reachable realizer is read at run time instead,
        by the one runner of the state that stops there."""
        hole, label, phi = d.attr("var"), d.attr("label"), d.attr("formula")
        g = self.extract(d.premises[0], ctx, path + (0,))
        items_v = sorted(ctx["values"].items())
        items_r = sorted(ctx["realizers"].items())
        n_ctx = len(items_v) + len(items_r)
        xs = arg_vars(n_ctx + 1)
        hctx = {"values": {}, "realizers": {}}
        for i, (name, (sort, _val)) in enumerate(items_v):
            hctx["values"][name] = (sort, xs[i] if sort == "B" else Leaf(xs[i]))
        for i, (lab, _r) in enumerate(items_r):
            hctx["realizers"][lab] = Leaf(xs[len(items_v) + i])
        u_param = xs[n_ctx]
        hctx["values"][hole] = ("S", Leaf(u_param))
        fixed = [x.name for x in xs]

        def step(v: SymR) -> tuple[Term, Term, SymR]:
            """Head bit, next subject and next realizer of one step."""
            h = self.extract(d.premises[1], _extend(hctx, realizers={label: v}),
                             path + (1,))
            return (head_term_of(even_r(h)), mat(even_r(sigma1(h))),
                    even_r(sigma1(sigma1(sigma1(h)))))

        # probe the step with an opaque realizer: each alternative of the
        # next realizer is a shape a state's evidence can take.  Runners
        # nested in the step are emitted by the state steps only
        emitted = len(self.defs), len(self.cert.lines)
        probe = _alternatives([step(Leaf(Var(f"x{n_ctx + 2}")))[2]])
        del self.defs[emitted[0]:], self.cert.lines[emitted[1]:]
        probe_paths = [_or_path(a, phi, ())[0] for a in probe]

        # walk from the initial realizer, following the unique successor,
        # until a state repeats.  The states are positions in phi's
        # disjunction tree, so the walk ends within that tree's size; a
        # position whose bit is not constant on some reachable realizer
        # joins the runtime dispatches, and the walk starts again
        dynamic: set[tuple[str, ...]] = set()
        while True:
            states: dict[tuple[str, ...], _State] = {}

            def enter(r: SymR) -> tuple[tuple[str, ...], dict[str, Term]]:
                """The state r realizes and its parameters' values."""
                key, rest, left = _or_path(r, phi, dynamic)
                if isinstance(left, Or) and key not in dynamic:
                    dynamic.add(key)
                if key not in states:
                    fits = [_drop(a, len(key)) for a, ap in zip(probe, probe_paths)
                            if ap[:len(key)] == key[:len(ap)]]
                    skel = _number(_shape(fits or [rest]), n_ctx + 2)
                    states[key] = _State(skel, fixed + list(_project(rest, skel, {})))
                return key, _project(rest, states[key].skel, {})

            demoted = len(dynamic)
            start, first = enter(g)
            key = start
            while states[key].bit is None and len(dynamic) == demoted:
                st = states[key]
                skel = st.skel
                for b in reversed(key):
                    skel = ConsR(Con(b), skel)
                st.bit, unext, vnext = step(skel)
                st.succ, st.nxt = enter(vnext)
                st.nxt.update({x: Var(x) for x in fixed[:n_ctx]})
                st.nxt[u_param.name] = unext
                key = st.succ
            if len(dynamic) == demoted:
                break
            del self.defs[emitted[0]:], self.cert.lines[emitted[1]:]

        first.update({x.name: (val if sort == "B" else mat(val))
                      for x, (_n, (sort, val)) in zip(xs, items_v)})
        first.update({x.name: mat(r)
                      for x, (_l, r) in zip(xs[len(items_v):], items_r)})
        first[u_param.name] = self.value_term(d.conclusion.term, ctx)
        live = _live(states)
        order = list(states)
        # a state the walk leaves for good calls only later ones, so it is
        # declared after them: the cycle first, then the lead-in backwards
        loop = order.index(states[order[-1]].succ)
        order = order[loop:] + order[loop - 1::-1] if loop else order
        names = {p: self.fresh_name("run") for p in states}
        funs = []
        for p in order:
            st, ps = states[p], live[p]
            k = len(ps)
            rename = {q: Var(f"x{i + 1}") for i, q in enumerate(ps)}
            funs.append(SchemaFun(
                names[p], k,
                (PlainSlot(Component(k, substitute(st.bit, rename))),
                 RecSlot(order.index(st.succ) + 1,
                         tuple(Component(k, substitute(st.nxt[q], rename))
                               for q in live[st.succ]))),
                produced=self.cons_name))
        self.defs.append(CorecSchema(tuple(funs)))
        evidence = sum(q not in fixed for p in states for q in live[p])
        runners = ", ".join(f"{names[p]}/{len(live[p])}" for p in states)
        self.cert.note(path, d.rule, f"runner{'s' if len(states) > 1 else ''} "
                                     f"{runners} with {evidence} evidence parameters")
        return Leaf(Fun(names[start], tuple(first[q] for q in live[start])))


def _extend(ctx: dict, values: dict | None = None,
            realizers: dict | None = None) -> dict:
    out = {"values": dict(ctx["values"]), "realizers": dict(ctx["realizers"])}
    if values:
        out["values"].update(values)
    if realizers:
        out["realizers"].update(realizers)
    return out


def extract(d: Derivation, program: Program, ds: DataSystem) -> ExtractionResult:
    """Lemma-2 extraction from a detour-free, all-strongly-positive
    derivation: a primitive-corecursive program whose principal maps values
    of the judgment's free variables plus realizers of its open assumptions
    to a realizer of the conclusion."""
    res = check_proof(ds, program, d)
    if not res.ok:
        raise ExtractError(f"derivation does not check: {res.violations[0]}")
    if has_detour(d):
        raise ExtractError("derivation has logical detours; normalize first")
    offending = assert_sp_proof(d)
    if offending is not None:
        raise ExtractError(f"non-strongly-positive node at {offending[0]}")
    assumptions = sorted(res.assumptions.keys(), key=lambda kv: kv[0])
    free = sorted(fv(d.conclusion) | {v for _l, f in assumptions for v in fv(f)})
    ex = Extractor(ds, program)
    ctx = {"values": {}, "realizers": {}}
    n_in = len(free) + len(assumptions)
    xs = arg_vars(n_in)
    try:
        sorts = var_sorts(d.conclusion, ds, None)
        for (label, f) in assumptions:
            for v2, s in var_sorts(f, ds, None).items():
                sorts.setdefault(v2, s)
        for i, v2 in enumerate(free):
            if sorts.get(v2) == "B":
                ctx["values"][v2] = ("B", Fun(pi_name(1), (xs[i],)))
            else:
                ctx["values"][v2] = ("S", Leaf(xs[i]))
        for i, (label, f) in enumerate(assumptions):
            ctx["realizers"][label] = Leaf(xs[len(free) + i])
        out = ex.extract(d, ctx)
    except SortError as e:
        raise ExtractError(str(e)) from None
    f0 = ex.fresh_name("f0_") if "f0" in program.functions() else "f0"
    ex.defs.append(CompositionDef(f0, n_in, Component(n_in, mat(out))))
    bundle = CorecBundle(tuple(algebra_strata()) + tuple(ex.defs), f0)
    compiled = compile_schema(bundle, ds)
    base = [e for e in program.body if not reserved_function(e.function)]
    extra = [e for e in compiled.body if not reserved_function(e.function)
             and e.function not in {b.function for b in base}]
    ex.cert.coinductions = sum(isinstance(s, CorecSchema) for s in ex.defs)
    ex.cert.split_chain = max(_split_chain(e.rhs) for e in extra
                              if e.function not in (EVEN, ODD, MERGE, ZEROS))
    merged = assemble_program(ds, base + extra, f0)
    return ExtractionResult(bundle, merged, tuple(free),
                            tuple(l for l, _f in assumptions), ex.cert)


# ---------------------------------------------------------------------------
# The Theorem-2 round trip
# ---------------------------------------------------------------------------

@dataclass
class StageResult:
    stage: str
    ok: bool
    detail: str = ""


@dataclass
class RoundtripReport:
    depth: int
    entries: dict[str, list[StageResult]]

    @property
    def ok(self) -> bool:
        return all(s.ok for ss in self.entries.values() for s in ss)

    def render(self) -> str:
        lines = []
        for name, stages in self.entries.items():
            status = "PASS" if all(s.ok for s in stages) else "FAIL"
            lines.append(f"{name}\t{status}")
            for s in stages:
                mark = "ok" if s.ok else "FAIL"
                detail = f"\t{s.detail}" if s.detail and not s.ok else ""
                lines.append(f"  {s.stage}\t{mark}{detail}")
        return "\n".join(lines)


def _rename_functions(program: Program, suffix: str, ds: DataSystem) -> Program:
    mapping = {f: f + suffix for f in program.user_functions()}

    def ren(t: Term) -> Term:
        if isinstance(t, Var):
            return t
        args = tuple(ren(a) for a in t.args)
        if isinstance(t, Fun) and t.name in mapping:
            return Fun(mapping[t.name], args)
        return type(t)(t.name, args)

    eqs = [Equation(mapping.get(e.function, e.function),
                    tuple(ren(p) for p in e.patterns), ren(e.rhs))
           for e in program.body if not reserved_function(e.function)]
    return assemble_program(ds, eqs, mapping[program.principal])


def roundtrip_report(depth: int = 64, ds: DataSystem | None = None,
                     library: dict | None = None, seed: int = 20240817,
                     inputs_per_entry: int = 10,
                     budget: int = 100_000) -> RoundtripReport:
    if depth < 0 or inputs_per_entry < 1:
        raise ValueError(f"roundtrip needs depth >= 0 and at least one input per "
                         f"entry (depth {depth}, inputs {inputs_per_entry})")
    from .system import boolean_stream_system
    ds = ds or boolean_stream_system()
    library = library or stock_library()
    report = RoundtripReport(depth, {})
    for name, entry in library.items():
        stages: list[StageResult] = []
        report.entries[name] = stages
        verdict = check_primitive_corecursive(entry.program, ds)
        stages.append(StageResult("recognize", verdict.accepted,
                                  verdict.reason or ""))
        if not verdict.accepted:
            continue
        compiled = compile_schema(verdict.bundle, ds)
        v2 = check_primitive_corecursive(compiled, ds)
        again = v2.accepted and bundle_equal(verdict.bundle, v2.bundle)
        stages.append(StageResult("compile", again,
                                  "" if again else "re-extraction differs"))
        if not again:
            continue
        try:
            proof = prove_corec(verdict.bundle, ds)
        except ExtractError as e:
            stages.append(StageResult("prove-corec", False, str(e)))
            continue
        chk = check_proof(ds, compiled, proof)
        stages.append(StageResult("prove-corec", chk.ok,
                                  "" if chk.ok else str(chk.violations[0])))
        if not chk.ok:
            continue
        normal = normalize(proof)
        chk2 = check_proof(ds, compiled, normal)
        ok_norm = chk2.ok and not has_detour(normal)
        stages.append(StageResult("normalize", ok_norm,
                                  "" if ok_norm else "detour or check failure"))
        if not ok_norm:
            continue
        sp = assert_sp_proof(normal)
        stages.append(StageResult("sp-scan", sp is None,
                                  "" if sp is None else f"offender at {sp[0]}"))
        if sp is not None:
            continue
        try:
            extraction = extract(normal, compiled, ds)
        except ExtractError as e:
            stages.append(StageResult("extract", False, str(e)))
            continue
        rec = check_primitive_corecursive(extraction.program, ds)
        stages.append(StageResult("extract", rec.accepted,
                                  rec.reason or ""))
        if not rec.accepted:
            continue
        ok_bisim, detail = _bisim_stage(entry, extraction, ds, depth, seed,
                                        inputs_per_entry, budget)
        stages.append(StageResult("bisim", ok_bisim, detail))
    return report


def _bisim_stage(entry, extraction: ExtractionResult, ds: DataSystem,
                 depth: int, seed: int, inputs_per_entry: int,
                 budget: int) -> tuple[bool, str]:
    rng = random.Random(seed)
    orig = _rename_functions(entry.program, "_orig", ds)
    eqs = [e for e in extraction.program.body if not reserved_function(e.function)]
    eqs += [e for e in orig.body if not reserved_function(e.function)]
    merged = assemble_program(ds, eqs, extraction.principal)
    k = entry.arity
    runs = inputs_per_entry if k > 0 else 1
    # every case's inputs under names of their own, so that one session
    # serves all cases
    cases = [[f"in{case}_{i}" for i in range(k)] for case in range(runs)]
    env = DiagramEnv.of({n: random_stream_coterm(rng) for ns in cases for n in ns})
    session = Session(merged, ds, env)
    for case, names in enumerate(cases):
        args = tuple(Fun(n) for n in names)
        values = {v2: args[i] for i, v2 in enumerate(extraction.value_params)}
        f0_args = tuple(values[v2] for v2 in extraction.value_params)
        f0_args += tuple(values[_label_var(l)] if _label_var(l) in values
                         else args[0] if args else Fun(ZEROS)
                         for l in extraction.realizer_params)
        lhs = Fun(extraction.principal, f0_args)
        rhs = Fun(entry.program.principal + "_orig", args)
        r = derives_omega(merged, env, lhs, rhs, depth, budget, session=session)
        if not r.equal:
            return False, f"case {case}: {r}"
    return True, ""


def _label_var(label: str) -> str:
    # assumption labels for argument streams are h1..hk matching x1..xk
    if label.startswith("h") and label[1:].isdigit():
        return f"x{label[1:]}"
    return label
