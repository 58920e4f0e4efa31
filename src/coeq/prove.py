"""From corecursion to coinduction proofs.

`prove_corec` turns a recognized corecursive definition into a checked
natural-deduction proof that its functions map streams to streams: one
coinduction per schema, with the invariant "z is a value of some vector
member on stream arguments" (a balanced disjunction), and component
typings synthesized bottom-up (destructor eliminations, boolean case
analysis for discriminator dispatch, and, at each call of a previously
defined function, its lemma proved at the call's arguments).
"""
from __future__ import annotations

import functools
import itertools

from .corec import (Component, CompositionDef, CorecBundle, CorecSchema, PlainSlot,
                    RecSlot, arg_vars)
from .formulas import (And, DataAtom, Derivation, EqAtom, Exists, Formula, Or,
                       and_elim, and_intro, assume, build_dcm, coinduction, data_elim,
                       data_intro, ex_elim, ex_intro, ex_refl, induction, or_elim, or_intro,
                       refl, replace, rewrite, subst_formula)
from .program import DELTA, pi_name
from .realize import SortError, var_sorts
from .system import DataSystem
from .terms import Con, Error, Fun, Term, Var, _run, fresh_name, variables


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

ZZ = "zz"   # the hole of every schema's invariant


class Prover:
    """Builds derivations about the programs `compile_schema` emits."""

    def __init__(self, ds: DataSystem):
        self.ds = ds
        # each defined function's argument sorts, and what types a call of it:
        # a composition's body and result sort, or a member's coinduction parts
        self.arg_sorts: dict[str, tuple[str, ...]] = {}
        self.bodies: dict[str, tuple[Component, str]] = {}
        self.members: dict[str, tuple] = {}
        self.labels = map("q{}".format, itertools.count(1))
        # the formulas every decomposition case shares, built once per prover
        self.instance = functools.cache(lambda f, x, w: subst_formula(f, {x: w}))
        b = ds.predicate("B")
        s = ds.predicate("S")
        if b is None or s is None or not b.inductive or s.inductive:
            raise ExtractError("proof generation expects a boolean-stream system")
        self.cons_type = next(t for t in ds.types_for_result(s))
        self.b_types = ds.types_for_result(b)

    # -- the synthesizer -------------------------------------------------------

    def typing(self, t: Term, known: dict[Term, Derivation]):
        """Derivation of Pred(t), Pred t's sort, from `known`, which maps each
        variable, and then each term typed here, to its typing.  A call's
        lemma is proved where it stands, at the call's arguments.  Run by
        _run, so a term of any depth types."""
        if t in known:
            return known[t]
        if isinstance(t, Con):
            types = [ty for ty in self.ds.types_of(t.name) if ty.result_predicate.inductive]
            if not types or t.args:
                raise ExtractError(f"cannot type constructor term '{t}'")
            d = data_intro(types[0], ())
        elif t.name in (pi_name(1), pi_name(2)):
            inner = yield self.typing(t.args[0], known)
            d = data_elim(self.cons_type, 1 if t.name == pi_name(1) else 2, inner)
        elif t.name == DELTA:
            d = yield self._delta_typing(t, known)
        elif t.name in self.arg_sorts:
            arg_proofs = []
            for arg in t.args:
                arg_proofs.append((yield self.typing(arg, known)))
            if t.name in self.members:
                d = self._member_call(t, arg_proofs)
            else:   # the body at the arguments, which are typed in `known` now
                body, result = self.bodies[t.name]
                body_d = yield self.typing(body.apply(t.args), known)
                # compile_schema emits one equation per definition, so its index is 0
                d = rewrite(t.name, 0, "rl", (1,), body_d, DataAtom(result, t))
        else:
            raise ExtractError(f"no typing available for '{t.name}'")
        known[t] = d
        return d

    def _delta_typing(self, t: Term, known):   # run by _run
        """By induction on the selector: one case per boolean constructor,
        its branch's typing rewritten.  The target is the predicate that
        the branch typings conclude."""
        sel_d = yield self.typing(t.args[0], known)
        delta_positions = {c.name: i for i, c in enumerate(self.ds.vocabulary)}
        branches = []
        for ct in self.b_types:
            idx = delta_positions[ct.constructor.name]
            inner = yield self.typing(t.args[1 + idx], known)
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

    def hypotheses(self, name: str) -> dict[Term, Derivation]:
        """Each argument x_i of `name`, typed by assumption h_i: arg_sorts[i - 1](x_i)."""
        sorts = self.arg_sorts[name]
        return {x: assume(f"h{i + 1}", DataAtom(sort, x))
                for i, (x, sort) in enumerate(zip(arg_vars(len(sorts)), sorts))}

    def proof(self, name: str, known: dict[Term, Derivation]) -> Derivation:
        """The typing of name(x1..xk) from `known`, which holds `name`'s hypotheses."""
        return _run(self.typing(Fun(name, arg_vars(len(self.arg_sorts[name]))), known))

    # -- compositions ------------------------------------------------------------

    def register_composition(self, cdef: CompositionDef) -> Derivation:
        """Registers cdef and returns its proof, built now even where no call
        reaches cdef: a composition that does not type fails the program."""
        found = var_sorts(cdef.component.term, self.ds, self.arg_sorts)
        self.arg_sorts[cdef.name] = tuple(found.get(x.name, "S") for x in arg_vars(cdef.arity))
        known = self.hypotheses(cdef.name)
        # a call concludes the sort that the body has at the hypotheses
        result = _run(self.typing(cdef.component.term, known)).conclusion.predicate
        self.bodies[cdef.name] = cdef.component, result
        return self.proof(cdef.name, known)   # the body's typing is in `known`

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
        phi = _disjunction(_disjuncts(fns, Var(ZZ)))
        # phi is the same for every member, so one decomposition premise serves all
        d_dcm = self._dcm_proof(fns, phi, build_dcm(self.ds, "S", phi, ZZ, ZZ),
                                "w", phi, 0, len(fns))
        for p, f in enumerate(fns):
            self.arg_sorts[f.name] = ("S",) * f.arity
            self.members[f.name] = (fns, p, phi, d_dcm)

    def _member_call(self, t: Fun, arg_proofs: list[Derivation]) -> Derivation:
        """S(t), for a call t of a schema member, by the member's coinduction
        at t: its instance premise from the typings of t's arguments."""
        fns, p, phi, d_dcm = self.members[t.name]
        premise = self._intro_member(fns, p, phi, refl(t), t.args, arg_proofs)
        return coinduction("S", ZZ, phi, t, "w", premise, d_dcm)

    def _intro_member(self, fns, p: int, phi: Formula, d_eq: Derivation, arg_values,
                      arg_proofs: list[Derivation]) -> Derivation:
        """phi[zz := val] via disjunct p, where d_eq proves val = f_p(arg_values):
        the existentials and conjunctions of 'val is f_p on streams arg_values'."""
        d = d_eq
        for pd in reversed(arg_proofs):
            d = and_intro(pd, d)
        tree = self.instance(phi, ZZ, d_eq.conclusion.left)
        # one ex-intro of all the arguments, none for a member of arity 0
        return _select(tree, len(fns), p, lambda q: ex_intro(
            q.var, q.body, tuple(arg_values), d) if arg_values else d)

    def _dcm_proof(self, fns, phi: Formula, dcm: Formula, label: str, tree: Formula,
                   lo: int, n: int) -> Derivation:
        """The decomposition `dcm` of zz from `tree`, the disjunction of
        disjuncts lo..lo+n-1 of phi, assumed under `label`: one or-elimination
        per split, its two labels drawn before its left subtree."""
        if n == 1:
            return self._dcm_case(fns, phi, dcm, lo, assume(label, tree))
        m = n // 2
        l1, l2 = next(self.labels), next(self.labels)
        left = self._dcm_proof(fns, phi, dcm, l1, tree.left, lo, m)
        right = self._dcm_proof(fns, phi, dcm, l2, tree.right, lo + m, n - m)
        return or_elim(assume(label, tree), l1, left, l2, right)

    def _dcm_case(self, fns, phi: Formula, dcm: Formula, j: int,
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
        cur = assume(a_label, bodies[-1]) if es else d_j
        known: dict[Term, Derivation] = {}   # S(e) for each e, by the chain
        for e in e_args:
            known[e] = and_elim(1, cur)
            cur = and_elim(2, cur)
        # rewrite the call one step: zz = cons(head, f_l(tailargs))
        head_term = fj.slots[0].component.apply(e_args)
        tail_slot = fj.slots[1]
        tail_args = [c.apply(e_args) for c in tail_slot.args]
        tail_term = Fun(fns[tail_slot.target - 1].name, tuple(tail_args))
        stepped = rewrite(fj.name, 0, "lr", (2,), cur,
                          EqAtom(Var(ZZ), Con(fj.produced, (head_term, tail_term))))
        typed = [_run(self.typing(a, known)) for a in [head_term] + tail_args]
        u = "u"   # also the label of u = t_j: no assumption it meets is named so
        u_eq = assume(u, EqAtom(Var(u), tail_term))
        d_phi_tail = self._intro_member(fns, tail_slot.target - 1, phi, u_eq, tail_args,
                                        typed[1:])
        body = and_intro(typed[0], and_intro(d_phi_tail, replace((2, 2), stepped, u_eq)))
        d = ex_intro(dcm.var, dcm.body, (head_term, Var(u)), body)
        d = ex_elim(ex_refl(u, tail_term), u, u, d)
        return self._close_exists(es, bodies, a_label, d, d_j)

    def _close_exists(self, es: list[str], bodies: list[Formula], a_label: str,
                      core: Derivation, d_j: Derivation) -> Derivation:
        """Wrap `core` (from the innermost chain assumption a_label) in ex-elims
        of es, majored by d_j; bodies[i] is d_j's conclusion below i binders.
        With no es, core is built on d_j itself."""
        k = len(es)
        if k == 0:
            return core
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


def _select(tree: Formula, n: int, p: int, prove) -> Derivation:
    """prove(q), a proof of disjunct q = p of `tree` (`_disjunction` of n
    disjuncts), as a proof of `tree`: one or-introduction per level."""
    if n == 1:
        return prove(tree)
    m = n // 2
    if p < m:
        return or_intro(1, _select(tree.left, m, p, prove), tree.right)
    return or_intro(2, _select(tree.right, n - m, p - m, prove), tree.left)


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
    A member's coinduction is built at each call of it: the principal's
    own, and at each call a later stratum makes.  Its callers check it
    with `check_proof`."""
    prover = Prover(ds)
    proofs = {}   # each composition's, built when it is registered
    try:
        for stratum in bundle.strata:
            if isinstance(stratum, CompositionDef):
                proofs[stratum.name] = prover.register_composition(stratum)
            else:
                prover.register_schema(stratum)
    except SortError as e:
        raise ExtractError(str(e)) from None
    if bundle.principal not in prover.arg_sorts:
        raise ExtractError(f"principal '{bundle.principal}' not defined by the bundle")
    principal = bundle.principal
    return proofs[principal] if principal in proofs \
        else prover.proof(principal, prover.hypotheses(principal))

