"""The intrinsic-theory proof kernel.

Derivations (`formulas.Derivation`) are checked nodewise: logical rules,
data introduction for inductive predicates, data elimination for
coinductive ones (constructor and destructor shape),
injectivity/separation/reflexivity, `ex u. u = t` and replacement inside
an atom for equations, program equations as atomic rewrite inferences,
induction, and coinduction restricted to strongly-positive invariant
formulas with the decomposition premise required.

`normalize` removes logical detours in one bottom-up pass, each
contraction counted against `NORMALIZE_MAX_STEPS`; on detour-free
derivations with strongly-positive endpoints every node formula stays
strongly positive, which `assert_sp_proof` scans for.
"""
from __future__ import annotations

import functools
import itertools
import operator
from collections import Counter

from .formulas import (And, DataAtom, Derivation, EqAtom, Exists, Forall, Formula, Imp,
                       Or, PolarityClass, _atom_get, _atom_put, _strongly_positive,
                       alpha_eq, build_dcm, classify_formula, ex_intro, fv, show_path,
                       subst_formula)
# the benchmark builds its detours with these three from here
from .formulas import assume, imp_elim, imp_intro
from .program import Program, pi_name, reserved_function, standard_functions
from .substitution import subst_derivation
from .system import ConstructorType, DataSystem
from .terms import Con, Error, Fun, Record, Term, Var, _path, _run, _set, variables


# ---------------------------------------------------------------------------
# Checking
# ---------------------------------------------------------------------------

class ProofViolation(Record):
    __slots__ = ("path", "message")

    def __init__(self, path: tuple[int, ...], message: str):
        _set(self, "path", path)
        _set(self, "message", message)

    def __str__(self) -> str:
        return f"at {show_path(self.path)}: {self.message}"


class CheckResult(Record, frozen=False):
    __slots__ = ("ok", "conclusion", "assumptions", "violations")

    def __init__(self, ok: bool, conclusion: Formula | None, assumptions: Counter,
                 violations: list[ProofViolation]):
        self.ok = ok
        self.conclusion = conclusion
        self.assumptions = assumptions
        self.violations = violations

    def judgment(self) -> str:
        if not self.ok:
            return "invalid: " + "; ".join(str(v) for v in self.violations)
        hyp = ", ".join(f"{label}: {f}" for (label, f) in sorted(
            self.assumptions.keys(), key=lambda kv: kv[0]))
        return f"{{{hyp}}} |- {self.conclusion}"


def _match_extend(pattern: Term, subject: Term, binds: dict[str, Term]) -> bool:
    """Extend binds so that pattern under it is subject, on an explicit
    stack of (pattern, subject) pairs: any depth."""
    stack = [(pattern, subject)]
    while stack:
        p, s = stack.pop()
        if isinstance(p, Var):
            if binds.setdefault(p.name, s) is not s:
                return False
        elif type(p) is not type(s) or p.name != s.name or len(p.args) != len(s.args):
            return False
        else:
            stack += zip(p.args, s.args)
    return True


class ProofChecker:
    def __init__(self, ds: DataSystem, program: Program):
        self.ds = ds
        self.program = program
        # a rewrite's idx counts in this order for pi_i and delta
        self.standard = standard_functions(ds)
        self.violations: list[ProofViolation] = []
        self.fv = functools.cache(fv)   # these two once per record, for one check
        # a body at its binders' witnesses, ((binder, witness), ...): an
        # inner binder of a name overrides an outer one
        self.instance = functools.cache(lambda f, s: subst_formula(f, dict(s)))

    def bad(self, path, msg) -> Counter:
        self.violations.append(ProofViolation(_path(path), msg))
        return Counter()

    def discharge(self, open_: Counter, label: str, f: Formula, path) -> Counter:
        out = Counter(open_)
        # vacuous discharge (no open assumption matches) is permitted in
        # minimal logic
        for (lab, g) in list(out):
            if lab == label:
                if alpha_eq(g, f):
                    del out[(lab, g)]
                else:
                    self.bad(path, f"discharge of '{label}' expects {f}, found {g}")
        return out

    def check(self, d: Derivation, path=()):   # run by _run, so any depth checks
        opens = []
        for i, p in enumerate(d.premises):
            opens.append((yield self.check(p, (path, i))))
        handler = getattr(self, "_r_" + d.rule.replace("-", "_"), None)
        if handler is None:
            return self.bad(path, f"unknown rule '{d.rule}'")
        keys = [k for k, _v in d.attrs if k != "witness" or d.rule != "ex-intro"]
        for i, k in enumerate(keys):
            if k in keys[:i]:
                return self.bad(path, f"attribute '{k}' given twice")
        return handler(d, d.conclusion, opens, path)

    # each handler returns the node's open-assumption multiset; `path` is
    # the node's link (see _path)

    def _r_assume(self, d, f, opens, path):
        label = d.attr("label")
        if not isinstance(label, str) or not label:
            return self.bad(path, "assumption without a label")
        if d.premises:
            return self.bad(path, "assumption takes no premises")
        return Counter({(label, f): 1})

    def _r_imp_intro(self, d, f, opens, path):
        if not isinstance(f, Imp) or len(d.premises) != 1:
            return self.bad(path, "implication introduction malformed")
        if not alpha_eq(d.premises[0].conclusion, f.right):
            return self.bad(path, "premise does not match implication conclusion")
        return self.discharge(opens[0], d.attr("label"), f.left, path)

    def _r_imp_elim(self, d, f, opens, path):
        if len(d.premises) != 2:
            return self.bad(path, "implication elimination needs two premises")
        major = d.premises[0].conclusion
        if not isinstance(major, Imp):
            return self.bad(path, "major premise is not an implication")
        if not alpha_eq(d.premises[1].conclusion, major.left):
            return self.bad(path, "minor premise does not match antecedent")
        if not alpha_eq(f, major.right):
            return self.bad(path, "conclusion does not match consequent")
        return opens[0] + opens[1]

    def _r_and_intro(self, d, f, opens, path):
        if not isinstance(f, And) or len(d.premises) != 2 \
                or not alpha_eq(d.premises[0].conclusion, f.left) \
                or not alpha_eq(d.premises[1].conclusion, f.right):
            return self.bad(path, "conjunction introduction malformed")
        return opens[0] + opens[1]

    def _r_and_elim(self, d, f, opens, path):
        i = d.attr("i")
        major = d.premises[0].conclusion if len(d.premises) == 1 else None
        if i not in (1, 2) or not isinstance(major, And):
            return self.bad(path, "conjunction elimination malformed")
        want = major.left if i == 1 else major.right
        if not alpha_eq(f, want):
            return self.bad(path, "conclusion is not the selected conjunct")
        return opens[0]

    def _r_or_intro(self, d, f, opens, path):
        i = d.attr("i")
        if i not in (1, 2) or not isinstance(f, Or) or len(d.premises) != 1:
            return self.bad(path, "disjunction introduction malformed")
        want = f.left if i == 1 else f.right
        if not alpha_eq(d.premises[0].conclusion, want):
            return self.bad(path, "premise does not match selected disjunct")
        return opens[0]

    def _r_or_elim(self, d, f, opens, path):
        if len(d.premises) != 3:
            return self.bad(path, "disjunction elimination needs three premises")
        major = d.premises[0].conclusion
        if not isinstance(major, Or):
            return self.bad(path, "major premise is not a disjunction")
        if not alpha_eq(d.premises[1].conclusion, f) or not alpha_eq(d.premises[2].conclusion, f):
            return self.bad(path, "minor premises must both conclude the conclusion")
        o1 = self.discharge(opens[1], d.attr("label1"), major.left, path)
        o2 = self.discharge(opens[2], d.attr("label2"), major.right, path)
        return opens[0] + o1 + o2

    def _r_ex_intro(self, d, f, opens, path):
        """k witnesses, outermost first, for the first k binders of f: the
        premise is the body under them at all k at once."""
        ws, binders = d.witnesses(), []
        if not isinstance(f, Exists) or len(d.premises) != 1 or not ws \
                or not all(isinstance(w, Term) for w in ws):
            return self.bad(path, "existential introduction malformed")
        for _w in ws:
            if not isinstance(f, Exists):
                return self.bad(path, f"more witnesses ({len(ws)}) than leading "
                                      f"existentials ({len(binders)})")
            binders.append(f.var)
            f = f.body
        if not alpha_eq(d.premises[0].conclusion, self.instance(f, tuple(zip(binders, ws)))):
            return self.bad(path, "premise is not the body at the witness"
                                  + ("es" if len(ws) > 1 else ""))
        return opens[0]

    def _r_ex_elim(self, d, f, opens, path):
        eigen = d.attr("eigen")
        if len(d.premises) != 2 or not isinstance(eigen, str):
            return self.bad(path, "existential elimination malformed")
        major = d.premises[0].conclusion
        if not isinstance(major, Exists):
            return self.bad(path, "major premise is not existential")
        inst = subst_formula(major.body, {major.var: Var(eigen)})
        rest = self.discharge(opens[1], d.attr("label"), inst, path)
        if not alpha_eq(d.premises[1].conclusion, f):
            return self.bad(path, "conclusion does not match the minor premise")
        if eigen in self.fv(f) or eigen in self.fv(major):
            return self.bad(path, f"eigenvariable '{eigen}' escapes")
        for (lab, g) in rest:
            if eigen in self.fv(g):
                return self.bad(path, f"eigenvariable '{eigen}' free in open assumption '{lab}'")
        return opens[0] + rest

    def _r_all_intro(self, d, f, opens, path):
        eigen = d.attr("eigen")
        if not isinstance(f, Forall) or len(d.premises) != 1 or not isinstance(eigen, str):
            return self.bad(path, "universal introduction malformed")
        if not alpha_eq(d.premises[0].conclusion,
                        subst_formula(f.body, {f.var: Var(eigen)})):
            return self.bad(path, "premise is not the body at the eigenvariable")
        if eigen in self.fv(f):
            return self.bad(path, f"eigenvariable '{eigen}' free in conclusion")
        for (lab, g) in opens[0]:
            if eigen in self.fv(g):
                return self.bad(path, f"eigenvariable '{eigen}' free in open assumption '{lab}'")
        return opens[0]

    def _r_all_elim(self, d, f, opens, path):
        w = d.attr("witness")
        major = d.premises[0].conclusion if len(d.premises) == 1 else None
        if not isinstance(major, Forall) or not isinstance(w, Term):
            return self.bad(path, "universal elimination malformed")
        if not alpha_eq(f, subst_formula(major.body, {major.var: w})):
            return self.bad(path, "conclusion is not the body at the witness")
        return opens[0]

    def _r_refl(self, d, f, opens, path):
        if not isinstance(f, EqAtom) or f.left != f.right or d.premises:
            return self.bad(path, "reflexivity concludes t = t only")
        return Counter()

    def _r_ex_refl(self, d, f, opens, path):
        if d.premises:
            return self.bad(path, "ex-refl takes no premises")
        if type(f) is not Exists or type(f.body) is not EqAtom or f.body.left != Var(f.var):
            return self.bad(path, "ex-refl concludes ex u. u = t only")
        if f.var in variables(f.body.right):
            return self.bad(path, f"'{f.var}' is free in the term of ex-refl")
        return Counter()

    def _r_inj(self, d, f, opens, path):
        i = d.attr("i")
        if len(d.premises) != 1:
            return self.bad(path, "injectivity needs one premise")
        major = d.premises[0].conclusion
        if not isinstance(major, EqAtom) or not isinstance(major.left, Con) \
                or not isinstance(major.right, Con) \
                or major.left.name != major.right.name:
            return self.bad(path, "injectivity needs c(...) = c(...)")
        if not isinstance(i, int) or not (1 <= i <= len(major.left.args)):
            return self.bad(path, "injectivity index out of range")
        if f != EqAtom(major.left.args[i - 1], major.right.args[i - 1]):
            return self.bad(path, "conclusion is not the selected argument equality")
        return opens[0]

    def _r_sep(self, d, f, opens, path):
        if len(d.premises) != 1:
            return self.bad(path, "separation needs one premise")
        major = d.premises[0].conclusion
        if not isinstance(major, EqAtom) or not isinstance(major.left, Con) \
                or not isinstance(major.right, Con) \
                or major.left.name == major.right.name:
            return self.bad(path, "separation needs c(...) = d(...) with c distinct from d")
        return opens[0]

    def _r_rewrite(self, d, f, opens, path):
        fn, idx = d.attr("fn"), d.attr("idx")
        direction, pos = d.attr("dir"), d.attr("pos")
        if len(d.premises) != 1:
            return self.bad(path, "rewrite needs one premise")
        prem = d.premises[0].conclusion
        if not isinstance(prem, (DataAtom, EqAtom)) or not isinstance(f, (DataAtom, EqAtom)):
            return self.bad(path, "rewrite acts on atomic formulas")
        supplied = isinstance(fn, str) and reserved_function(fn)
        eqs = [e for e in (self.standard if supplied else self.program.body) if e.function == fn]
        if not isinstance(idx, int) or not (0 <= idx < len(eqs)):
            return self.bad(path, f"no equation {fn}#{idx} in the program")
        eq = eqs[idx]
        if direction not in ("lr", "rl"):
            return self.bad(path, "rewrite direction must be lr or rl")
        src_side = eq.definiendum if direction == "lr" else eq.rhs
        dst_side = eq.rhs if direction == "lr" else eq.definiendum
        if not isinstance(pos, tuple):
            return self.bad(path, "rewrite position missing")
        at = _atom_get(prem, pos)
        to = _atom_get(f, pos)
        if at is None or to is None:
            return self.bad(path, "rewrite position outside the atom")
        binds: dict[str, Term] = {}
        if not _match_extend(src_side, at, binds) or not _match_extend(dst_side, to, binds):
            return self.bad(path, f"no instance of '{eq}' rewrites '{at}' to '{to}'")
        if _atom_put(prem, pos, to) != f:
            return self.bad(path, "rewrite changes more than the stated position")
        return opens[0]

    def _r_replace(self, d, f, opens, path):
        """An atom, with l for r at `pos` by an equation l = r."""
        eq = d.premises[1].conclusion if len(d.premises) == 2 else None
        if not isinstance(eq, EqAtom):
            return self.bad(path, "replace needs an atom and an equation")
        prem, pos, atoms = d.premises[0].conclusion, d.attr("pos"), (DataAtom, EqAtom)
        at, to = (_atom_get(prem, pos), _atom_get(f, pos)) if isinstance(pos, tuple) \
            and isinstance(prem, atoms) and isinstance(f, atoms) else (None, None)
        if at is None or to is None:
            return self.bad(path, "replace position is not in an atom")
        if (at, to) != (eq.right, eq.left):
            return self.bad(path, f"replace puts '{eq.left}' for '{eq.right}', "
                                  f"not '{to}' for '{at}'")
        if _atom_put(prem, pos, to) != f:
            return self.bad(path, "replace changes more than the stated position")
        return opens[0] + opens[1]

    def _r_data_intro(self, d, f, opens, path):
        ct = d.attr("type")
        if not isinstance(ct, ConstructorType) or ct not in self.ds.types:
            return self.bad(path, "data introduction needs a declared constructor type")
        if not ct.result_predicate.inductive:
            return self.bad(path, f"data introduction requires an inductive result, "
                                  f"'{ct.result_predicate.name}' is coinductive")
        r = ct.constructor.arity
        if len(d.premises) != r or not isinstance(f, DataAtom) \
                or f.predicate != ct.result_predicate.name:
            return self.bad(path, "data introduction malformed")
        t = f.term
        if not isinstance(t, Con) or t.name != ct.constructor.name or len(t.args) != r:
            return self.bad(path, "conclusion term is not the constructor applied")
        for i in range(r):
            want = DataAtom(ct.argument_predicates[i].name, t.args[i])
            if not alpha_eq(d.premises[i].conclusion, want):
                return self.bad(path, f"argument premise {i + 1} is not {want}")
        return sum(opens, Counter())

    def _r_data_elim(self, d, f, opens, path):
        ct, i = d.attr("type"), d.attr("i")
        if not isinstance(ct, ConstructorType) or ct not in self.ds.types:
            return self.bad(path, "data elimination needs a declared constructor type")
        if ct.result_predicate.inductive:
            return self.bad(path, "data elimination requires a coinductive result")
        if not isinstance(i, int) or not (1 <= i <= ct.constructor.arity):
            return self.bad(path, "data elimination index out of range")
        if len(d.premises) != 1:
            return self.bad(path, "data elimination needs one premise")
        major = d.premises[0].conclusion
        if not isinstance(major, DataAtom) or major.predicate != ct.result_predicate.name:
            return self.bad(path, "major premise is not the coinductive atom")
        t = major.term
        want_pred = ct.argument_predicates[i - 1].name
        if isinstance(t, Con) and t.name == ct.constructor.name:
            want_term = t.args[i - 1]
        else:
            # destructor shape: sound only when every constructor of the
            # predicate agrees on the argument predicate at this position
            for other in self.ds.types_for_result(ct.result_predicate):
                if other.constructor.arity < i \
                        or other.argument_predicates[i - 1].name != want_pred:
                    return self.bad(
                        path, f"destructor-shape elimination ambiguous at position {i}")
            want_term = Fun(pi_name(i), (t,))
        if f != DataAtom(want_pred, want_term):
            return self.bad(path, f"conclusion is not {DataAtom(want_pred, want_term)}")
        return opens[0]

    def _r_induction(self, d, f, opens, path):
        pred_name = d.attr("pred")
        hole = d.attr("var")
        phi = d.attr("formula")
        case_vars = d.attr("case_vars") or ()
        case_labels = d.attr("case_labels") or ()
        pred = self.ds.predicate(pred_name) if isinstance(pred_name, str) else None
        if pred is None or not pred.inductive or not isinstance(phi, Formula):
            return self.bad(path, "induction needs an inductive predicate and a formula")
        types = self.ds.types_for_result(pred)
        if len(d.premises) != 1 + len(types):
            return self.bad(path, f"induction needs the major premise plus "
                                  f"{len(types)} case premises")
        major = d.premises[0].conclusion
        if not isinstance(major, DataAtom) or major.predicate != pred_name:
            return self.bad(path, "major premise is not the inductive atom")
        if not alpha_eq(f, subst_formula(phi, {hole: major.term})):
            return self.bad(path, "conclusion is not the formula at the major term")
        if len(case_vars) != len(types) or len(case_labels) != len(types):
            return self.bad(path, "case variable/label vectors malformed")
        total = Counter(opens[0])
        for k, ct in enumerate(types):
            r = ct.constructor.arity
            vs = case_vars[k]
            labs = case_labels[k]
            if len(vs) != r or len(labs) != r:
                return self.bad(path, f"case {k + 1}: expected {r} eigenvariables/labels")
            case = d.premises[1 + k]
            want = subst_formula(
                phi, {hole: Con(ct.constructor.name, tuple(Var(v) for v in vs))})
            if not alpha_eq(case.conclusion, want):
                return self.bad(path, f"case {k + 1} concludes {case.conclusion}, wants {want}")
            rest = Counter(opens[1 + k])
            for j in range(r):
                ei = ct.argument_predicates[j]
                hyp = subst_formula(phi, {hole: Var(vs[j])}) if ei.name == pred_name \
                    else DataAtom(ei.name, Var(vs[j]))
                rest = self.discharge(rest, labs[j], hyp, path)
            bad_vs = set(vs) & (self.fv(phi) - {hole})
            if bad_vs:
                return self.bad(path, f"case {k + 1}: eigenvariables {sorted(bad_vs)} "
                                      f"occur in the invariant")
            for (lab, g) in rest:
                if set(vs) & self.fv(g):
                    return self.bad(path, f"case {k + 1}: eigenvariable escapes into "
                                          f"open assumption '{lab}'")
            total += rest
        return total

    def _r_coinduction(self, d, f, opens, path):
        pred_name = d.attr("pred")
        hole = d.attr("var")
        phi = d.attr("formula")
        label = d.attr("label")
        pred = self.ds.predicate(pred_name) if isinstance(pred_name, str) else None
        if pred is None or pred.inductive or not isinstance(phi, Formula):
            return self.bad(path, "coinduction needs a coinductive predicate and a formula")
        if not self.ds.types_for_result(pred):
            return self.bad(path, f"predicate '{pred_name}' has an empty constructor set")
        if classify_formula(phi) is not PolarityClass.STRONGLY_POSITIVE:
            return self.bad(path, "coinduction invariant must be strongly positive")
        if len(d.premises) != 2:
            return self.bad(path, "coinduction needs the instance premise and the "
                                  "decomposition premise")
        if not isinstance(f, DataAtom) or f.predicate != pred_name:
            return self.bad(path, "conclusion is not the coinductive atom")
        if not alpha_eq(d.premises[0].conclusion, subst_formula(phi, {hole: f.term})):
            return self.bad(path, "first premise is not the invariant at the subject term")
        want_dcm = build_dcm(self.ds, pred_name, phi, hole, hole)
        if not alpha_eq(d.premises[1].conclusion, want_dcm):
            return self.bad(path, f"decomposition premise concludes "
                                  f"{d.premises[1].conclusion}, wants {want_dcm}")
        rest = self.discharge(opens[1], label, phi, path)
        for (lab, g) in rest:
            if hole in self.fv(g):
                return self.bad(path, f"subject variable '{hole}' free in open "
                                      f"assumption '{lab}' of the decomposition premise")
        return opens[0] + rest


def check_proof(ds: DataSystem, program: Program, d: Derivation) -> CheckResult:
    checker = ProofChecker(ds, program)
    opens = _run(checker.check(d))
    ok = not checker.violations
    return CheckResult(ok, d.conclusion if ok else None,
                       opens if ok else Counter(), checker.violations)


# ---------------------------------------------------------------------------
# Normalization (logical detour elimination)
# ---------------------------------------------------------------------------

NORMALIZE_MAX_STEPS = 10_000


# Detours: an elimination whose major premise is its matching introduction.
_INTRO_OF = {"and-elim": "and-intro", "imp-elim": "imp-intro",
             "or-elim": "or-intro", "ex-elim": "ex-intro",
             "all-elim": "all-intro"}


def _is_detour(d: Derivation) -> bool:
    return bool(d.premises) and d.premises[0].rule == _INTRO_OF.get(d.rule)


def _reduce_node(d: Derivation) -> Derivation:
    """The contractum of the detour at d's root."""
    intro = d.premises[0]
    if d.rule == "and-elim":
        return intro.premises[d.attr("i") - 1]
    if d.rule == "imp-elim":
        return subst_derivation(intro.premises[0], {},
                                {intro.attr("label"): d.premises[1]})
    if d.rule == "or-elim":
        i = intro.attr("i")
        label = d.attr("label1") if i == 1 else d.attr("label2")
        return subst_derivation(d.premises[i], {}, {label: intro.premises[0]})
    if d.rule == "ex-elim":   # at the first witness; the rest stay one intro
        q, (w, *rest), evidence = intro.conclusion, intro.witnesses(), intro.premises[0]
        if rest:
            inner = subst_formula(q.body, {q.var: w})
            evidence = ex_intro(inner.var, inner.body, tuple(rest), evidence)
        return subst_derivation(d.premises[1], {d.attr("eigen"): w},
                                {d.attr("label"): evidence})
    return subst_derivation(intro.premises[0],
                            {intro.attr("eigen"): d.attr("witness")}, {})


def normalize(d: Derivation) -> Derivation:
    """The detour-free form of d, in one bottom-up pass: premises first, then
    the node's own detour is contracted and the contractum normalized in
    turn.  A proof that needs more than NORMALIZE_MAX_STEPS contractions is
    too large for it, an input error: it raises Error."""
    # id -> node known normal (the entry keeps it alive), and the count of
    # contractions made
    return _run(_normalize(d, {}, itertools.count(1)))


def _normalize(node: Derivation, normal: dict[int, Derivation],
               contractions: itertools.count):   # run by _run
    while id(node) not in normal:
        prems = []
        for p in node.premises:
            prems.append((yield _normalize(p, normal, contractions)))
        if not all(map(operator.is_, prems, node.premises)):
            node = Derivation(node.rule, node.conclusion, tuple(prems), node.attrs)
        if not _is_detour(node):
            normal[id(node)] = node
            continue
        if next(contractions) > NORMALIZE_MAX_STEPS:
            raise Error(f"no normal form within {NORMALIZE_MAX_STEPS} contractions")
        node = _reduce_node(node)
    return node


def has_detour(d: Derivation) -> bool:
    return any(_is_detour(node) for node in d.preorder())


def assert_sp_proof(d: Derivation) -> tuple[tuple[int, ...], Formula] | None:
    """None when every node formula is strongly positive; otherwise the
    shallowest, leftmost offending node (path, formula), found by
    `Tree.first`.  Formulas are hash-consed, so each distinct one found
    strongly positive is walked once per call."""
    known: set[Formula] = set()   # the formulas found strongly positive
    found = d.first(lambda node: not _strongly_positive(node.conclusion, known))
    return found and (found[0], found[1].conclusion)
