"""From corecursion to coinduction proofs.

`prove_corec` turns a recognized corecursive definition into a checked
natural-deduction proof that its functions map streams to streams: one
coinduction per schema, with the invariant "z is a value of some vector
member on stream arguments" (a balanced disjunction), and component
typings synthesized bottom-up (destructor eliminations, boolean case
analysis for discriminator dispatch, and grafted proofs of previously
defined functions).
"""
from __future__ import annotations

import functools
import itertools

from .corec import (CompositionDef, CorecBundle, CorecSchema, PlainSlot, RecSlot,
                    arg_vars)
from .formulas import (And, DataAtom, Derivation, EqAtom, Exists, Formula, Or,
                       and_elim, and_intro, assume, build_dcm, coinduction, data_elim,
                       data_intro, ex_elim, ex_intro, ex_refl, induction, or_elim, or_intro,
                       refl, replace, rewrite, subst_formula)
from .program import DELTA, pi_name
from .realize import SortError, var_sorts
from .substitution import subst_derivation
from .system import DataSystem
from .terms import Con, Error, Fun, Record, Term, Var, _run, _set, fresh_name, variables


class ExtractError(Error):
    """Raised by `prove_corec` and `extract`.  `condition` names the
    condition of `extract`'s gate that failed: "check", "detour",
    "strongly-positive" or "sort"; None otherwise."""

    def __init__(self, message: str, condition: str | None = None):
        super().__init__(message)
        self.condition = condition


# ---------------------------------------------------------------------------
# Component typing proofs
# ---------------------------------------------------------------------------

class ProofTemplate(Record):
    """A typed function f/k: `derivation` proves result_sort(f(x1..xk)) from
    assumptions h_i: arg_sorts[i - 1](x_i). A schema member's holds what
    `Prover._member_proof` needs until `Prover.proof` builds it."""
    __slots__ = ("arg_sorts", "result_sort", "derivation")

    def __init__(self, arg_sorts: tuple[str, ...], result_sort: str, derivation):
        _set(self, "arg_sorts", arg_sorts)
        _set(self, "result_sort", result_sort)
        _set(self, "derivation", derivation)


class Prover:
    """Builds derivations about the programs `compile_schema` emits."""

    def __init__(self, ds: DataSystem):
        self.ds = ds
        self.registry: dict[str, ProofTemplate] = {}
        self.labels = map("q{}".format, itertools.count(1))
        # the formulas every decomposition case shares, built once per prover
        self.instance = functools.cache(lambda f, pairs: subst_formula(f, dict(pairs)))
        self.tree = functools.cache(lambda fns, val: _disjunction(_disjuncts(fns, val)))
        b = ds.predicate("B")
        s = ds.predicate("S")
        if b is None or s is None or not b.inductive or s.inductive:
            raise ExtractError("proof generation expects a boolean-stream system")
        self.cons_type = next(t for t in ds.types_for_result(s))
        self.b_types = ds.types_for_result(b)

    # -- the synthesizer -------------------------------------------------------

    def typing(self, t: Term, sorts: dict[str, str], hyp_labels: dict[str, str]):
        """Derivation of Pred(t) from labeled hypotheses Pred_v(v); Pred is
        t's sort.  Run by _run, so a term of any depth types."""
        if isinstance(t, Var):
            return assume(hyp_labels[t.name], DataAtom(sorts[t.name], t))
        if isinstance(t, Con):
            types = [ty for ty in self.ds.types_of(t.name) if ty.result_predicate.inductive]
            if not types or t.args:
                raise ExtractError(f"cannot type constructor term '{t}'")
            return data_intro(types[0], ())
        assert isinstance(t, Fun)
        if t.name in (pi_name(1), pi_name(2)):
            inner = yield self.typing(t.args[0], sorts, hyp_labels)
            return data_elim(self.cons_type, 1 if t.name == pi_name(1) else 2, inner)
        if t.name == DELTA:
            return (yield self._delta_typing(t, sorts, hyp_labels))
        if t.name not in self.registry:
            raise ExtractError(f"no typing available for '{t.name}'")
        proof, hyps = self.proof(t.name), {}
        for i, arg in enumerate(t.args):
            hyps[f"h{i + 1}"] = yield self.typing(arg, sorts, hyp_labels)
        return subst_derivation(proof, {f"x{i + 1}": a for i, a in enumerate(t.args)}, hyps)

    def _delta_typing(self, t: Term, sorts, hyp_labels):   # run by _run
        """By induction on the selector: one case per boolean constructor,
        its branch's typing rewritten.  The target is the predicate that
        the branch typings conclude."""
        sel_d = yield self.typing(t.args[0], sorts, hyp_labels)
        delta_positions = {c.name: i for i, c in enumerate(self.ds.vocabulary)}
        branches = []
        for ct in self.b_types:
            idx = delta_positions[ct.constructor.name]
            inner = yield self.typing(t.args[1 + idx], sorts, hyp_labels)
            branches.append((ct.constructor.name, idx, inner))
        targets = {inner.conclusion.predicate for _c, _idx, inner in branches}
        if len(targets) != 1:
            raise SortError(f"mixed branch sorts in '{t}'")
        target = targets.pop()
        hole = fresh_name("q0", variables(t))
        phi = DataAtom(target, Fun(DELTA, (Var(hole),) + t.args[1:]))
        cases = tuple(rewrite(DELTA, idx, "rl", (1,), inner,
                              DataAtom(target, Fun(DELTA, (Con(cname),) + t.args[1:])))
                      for cname, idx, inner in branches)
        return induction("B", hole, phi, sel_d, cases, ((),) * len(cases), ((),) * len(cases))

    def proof(self, name: str) -> Derivation:
        """`name`'s derivation; a schema member's is built when first asked for."""
        tpl = self.registry[name]
        if isinstance(tpl.derivation, tuple):
            tpl = self.registry[name] = ProofTemplate(
                tpl.arg_sorts, tpl.result_sort, self._member_proof(*tpl.derivation))
        return tpl.derivation

    # -- compositions ------------------------------------------------------------

    def register_composition(self, cdef: CompositionDef) -> None:
        term = cdef.component.term
        xs = arg_vars(cdef.arity)
        found = var_sorts(term, self.ds, self.registry)
        sorts = {x.name: found.get(x.name, "S") for x in xs}
        body_d = _run(self.typing(term, sorts, {x.name: f"h{i + 1}" for i, x in enumerate(xs)}))
        result = body_d.conclusion.predicate
        # compile_schema emits one equation per definition, so its index is 0
        d = rewrite(cdef.name, 0, "rl", (1,), body_d, DataAtom(result, Fun(cdef.name, xs)))
        self.registry[cdef.name] = ProofTemplate(tuple(sorts.values()), result, d)

    # -- schemas (the corecursion-to-coinduction proof) ---------------------------

    def register_schema(self, schema: CorecSchema) -> None:
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
        phi = self.tree(fns, Var(zz))
        # phi is the same for every member, so one decomposition premise serves all
        d_dcm = self._dcm_proof(fns, build_dcm(self.ds, "S", phi, zz, zz), zz,
                                "w", phi, 0, len(fns))
        for p, f in enumerate(fns):
            self.registry[f.name] = ProofTemplate(("S",) * f.arity, "S", (fns, p, phi, zz, d_dcm))

    def _intro_exists(self, names: list[str], body: Formula,
                      witnesses: list[Term], d: Derivation) -> Derivation:
        for i in range(len(names) - 1, -1, -1):
            # its binder renamed where a witness would be caught by it
            q = self.instance(_closure(names[i:], body), tuple(zip(names[:i], witnesses[:i])))
            d = ex_intro(q.var, q.body, witnesses[i], d)
        return d

    def _intro_member(self, fns, p: int, d_eq: Derivation, arg_values: list[Term],
                      arg_proofs: list[Derivation]) -> Derivation:
        """phi[zz := val] via disjunct p, where d_eq proves val = f_p(arg_values):
        the existentials and conjunctions of 'val is f_p on streams arg_values'."""
        f, val = fns[p], d_eq.conclusion.left
        ys = [f"y{i + 1}" for i in range(f.arity)]
        d = d_eq
        for pd in reversed(arg_proofs):
            d = and_intro(pd, d)
        d = self._intro_exists(ys, _chain(f.name, val, [Var(y) for y in ys]),
                               arg_values, d)
        return _select(self.tree(fns, val), len(fns), p, d)

    def _member_proof(self, fns, p: int, phi: Formula, zz: str,
                      d_dcm: Derivation) -> Derivation:
        fp = fns[p]
        xs = [Var(f"x{i + 1}") for i in range(fp.arity)]
        t = Fun(fp.name, tuple(xs))
        arg_proofs = [assume(f"h{i + 1}", DataAtom("S", x)) for i, x in enumerate(xs)]
        premise1 = self._intro_member(fns, p, refl(t), xs, arg_proofs)
        return coinduction("S", zz, phi, t, "w", premise1, d_dcm)

    def _dcm_proof(self, fns, dcm: Formula, zz: str, label: str, tree: Formula,
                   lo: int, n: int) -> Derivation:
        """The decomposition `dcm` of zz from `tree`, the disjunction of
        disjuncts lo..lo+n-1, assumed under `label`: one or-elimination per
        split, its two labels drawn before its left subtree."""
        if n == 1:
            return self._dcm_case(fns, dcm, zz, lo, assume(label, tree))
        m = n // 2
        l1, l2 = next(self.labels), next(self.labels)
        left = self._dcm_proof(fns, dcm, zz, l1, tree.left, lo, m)
        right = self._dcm_proof(fns, dcm, zz, l2, tree.right, lo + m, n - m)
        return or_elim(assume(label, tree), l1, left, l2, right)

    def _dcm_case(self, fns, dcm: Formula, zz: str, j: int,
                  d_j: Derivation) -> Derivation:
        """From a proof of disjunct j (zz is f_j on streams), derive the
        decomposition `dcm` of zz, its tail the u of ex u. u = t_j for the
        tail term t_j: every case proves one phi[zz := u]."""
        fj = fns[j]
        # peel the existentials under their own names, so that the formulas the
        # peeling assumes are the invariant's, then the conjunction chain
        es, bodies = [], [d_j.conclusion]
        while isinstance(bodies[-1], Exists):
            es.append(bodies[-1].var)
            bodies.append(bodies[-1].body)
        e_args = tuple(Var(e) for e in es)
        a_label = next(self.labels)
        cur: Derivation = assume(a_label, bodies[-1])
        s_proofs: list[Derivation] = []
        for _ in es:
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
        hyp_labels = {e: next(self.labels) for e in es}
        typed = [_run(self.typing(a, sorts, hyp_labels)) for a in [head_term] + tail_args]
        chain = {hyp_labels[e]: sp for e, sp in zip(es, s_proofs)}
        typed = [subst_derivation(tp, {}, chain) for tp in typed]
        u = "u"   # also the label of u = t_j: no assumption it meets is named so
        u_eq = assume(u, EqAtom(Var(u), tail_term))
        d_phi_tail = self._intro_member(fns, tail_slot.target - 1, u_eq, tail_args, typed[1:])
        body = and_intro(typed[0], and_intro(d_phi_tail, replace((2, 2), stepped, u_eq)))
        z_names = []
        while isinstance(dcm, Exists):
            z_names.append(dcm.var)
            dcm = dcm.body
        d = self._intro_exists(z_names, dcm, [head_term, Var(u)], body)
        d = ex_elim(ex_refl(u, tail_term), u, u, d)
        return self._close_exists(es, bodies, a_label, d, d_j)

    def _close_exists(self, es: list[str], bodies: list[Formula], a_label: str,
                      core: Derivation, d_j: Derivation) -> Derivation:
        """Wrap `core` (from the innermost chain assumption a_label) in ex-elims
        of es, majored by d_j; bodies[i] is d_j's conclusion below i binders."""
        k = len(es)
        if k == 0:
            return subst_derivation(core, {}, {a_label: d_j})
        # ex_elim i opens es[i]; its minor premise assumes bodies[i + 1]
        # under labs[i], the innermost one the chain itself
        labs = [next(self.labels) for _ in range(k - 1)] + [a_label]
        d = core
        for i in range(k - 1, 0, -1):
            d = ex_elim(assume(labs[i - 1], bodies[i]), es[i], labs[i], d)
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
    """The disjunction of fs as a balanced tree: the first len // 2 on the
    left, the rest on the right (for three or fewer, nested to the right)."""
    if len(fs) == 1:
        return fs[0]
    m = len(fs) // 2
    return Or(_disjunction(fs[:m]), _disjunction(fs[m:]))


def _select(tree: Formula, n: int, p: int, d: Derivation) -> Derivation:
    """d, a proof of disjunct p of `tree` (`_disjunction` of n disjuncts),
    as a proof of `tree`: one or-introduction per level."""
    if n == 1:
        return d
    m = n // 2
    if p < m:
        return or_intro(1, _select(tree.left, m, p, d), tree.right)
    return or_intro(2, _select(tree.right, n - m, p - m, d), tree.left)


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
    Member proofs are built on demand, each once: the principal's and those
    a later stratum calls. Its callers check it with `check_proof`."""
    prover = Prover(ds)
    try:
        for stratum in bundle.strata:
            if isinstance(stratum, CompositionDef):
                prover.register_composition(stratum)
            else:
                prover.register_schema(stratum)
    except SortError as e:
        raise ExtractError(str(e)) from None
    if bundle.principal not in prover.registry:
        raise ExtractError(f"principal '{bundle.principal}' not defined by the bundle")
    return prover.proof(bundle.principal)

