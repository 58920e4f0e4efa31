"""Capture-avoiding substitution into derivations, in one walk:
`logic.normalize` contracts detours with it."""
from __future__ import annotations

import operator

from .formulas import Derivation, Formula, assume, fv, subst_formula
from .terms import Term, Var, _run, fresh_name, substitute, variables


def _scopes(d: Derivation) -> dict:
    """Where `d` binds: premise index, or "formula" for the hole of an
    (co)induction invariant -> (labels, variables) bound there."""
    a = d.attr
    if d.rule == "imp-intro":
        return {0: ((a("label"),), ())}
    if d.rule == "or-elim":
        return {1: ((a("label1"),), ()), 2: ((a("label2"),), ())}
    if d.rule == "ex-elim":
        return {1: ((a("label"),), (a("eigen"),))}
    if d.rule == "all-intro":
        return {0: ((), (a("eigen"),))}
    if d.rule == "coinduction":
        return {1: ((a("label"),), (a("var"),)), "formula": ((), (a("var"),))}
    if d.rule == "induction":
        cases = zip(a("case_labels") or (), a("case_vars") or ())
        return {**{1 + k: (tuple(labs), tuple(vs)) for k, (labs, vs) in enumerate(cases)},
                "formula": ((), (a("var"),))}
    return {}


def subst_derivation(d: Derivation, terms: dict[str, Term],
                     proofs: dict[str, Derivation | str]) -> Derivation:
    """Simultaneous capture-avoiding substitution: each free variable x in
    `terms` becomes terms[x], and each open assumption labelled l in
    `proofs` becomes the derivation proofs[l] (or, when proofs[l] is a
    label, the same assumption under that label).  A binder shadows the
    names it binds; a binder that would catch a label or variable free in
    what is inserted below it is renamed within its scopes, in the same
    walk.  Parts that the substitution does not reach are shared, unwalked."""
    return _run(_subst(d, terms, proofs, {}))   # {}: _free's memo


def _subst(node: Derivation, terms, proofs, memo: dict):   # run by _run
    if node.rule == "assume":
        label = node.attr("label")
        new = proofs.get(label, label)
        if isinstance(new, Derivation):
            return new
        f = subst_formula(node.conclusion, terms)
        return node if new == label and f is node.conclusion else assume(new, f)
    scopes = _scopes(node)
    parts: dict = dict(enumerate(node.premises))
    if "formula" in scopes:
        parts["formula"] = node.attr("formula")
    free = {k: (set(), fv(part)) if k == "formula" else _free(part, memo)
            for k, part in parts.items()}
    subs = {}   # part -> the entries that reach it, less those its scope binds
    for k, (labels, names) in free.items():
        labs, xs = scopes.get(k, ((), ()))
        subs[k] = ({x: t for x, t in terms.items() if x in names and x not in xs},
                   {lab: p for lab, p in proofs.items() if lab in labels and lab not in labs})
    new_labels, new_names = _renaming(node, scopes, subs, memo) if scopes else ({}, {})
    for k, (labs, xs) in scopes.items():   # a renaming rides along in the scope
        labels, names = free[k]
        subs[k][0].update((x, Var(new_names[x])) for x in names.intersection(xs, new_names))
        subs[k][1].update((lab, new_labels[lab]) for lab in labels.intersection(labs, new_labels))
    done = {}
    for k, (t, p) in subs.items():
        if t or p:
            done[k] = subst_formula(parts[k], t) if k == "formula" \
                else (yield _subst(parts[k], t, p, memo))
    prems = tuple(done.get(i, p) for i, p in enumerate(node.premises))
    attrs = tuple((k, done.get(k, v) if k == "formula"
                   else substitute(v, terms) if isinstance(v, Term)
                   else _renamed(k, v, new_labels, new_names) if new_labels or new_names
                   else v) for k, v in node.attrs)
    f = subst_formula(node.conclusion, terms)
    if f is node.conclusion and all(map(operator.is_, prems, node.premises)) \
            and all(a[1] is b[1] for a, b in zip(attrs, node.attrs)):
        return node
    return Derivation(node.rule, f, prems, attrs)


def _renaming(node: Derivation, scopes: dict, subs: dict, memo: dict):
    """The labels and the variables that `node` binds and that `subs`, a
    (terms, proofs) pair per part, inserts into a part they scope, each
    mapped to a name outside what it inserts and the names in `node`.  An
    eigenvariable (no invariant's hole) must also stay out of the parts it
    does not scope, such as ex-elim's major premise: every part counts."""
    eigen = {x for k, (_, xs) in scopes.items() if k != "formula" for x in xs} - {node.attr("var")}
    taken, caught_labels, caught_names = set(), set(), set()
    for k, (terms, proofs) in subs.items():
        labs, xs = set(), set()   # what is inserted into part k
        for t in terms.values():
            xs |= variables(t)
        for p in proofs.values():
            if isinstance(p, str):
                labs.add(p)
            else:   # what a binder can catch: any name free in p
                p_labels, p_names = _free(p, memo)
                labs |= p_labels
                xs |= p_names
        bound_labels, bound_names = scopes.get(k, ((), ()))
        caught_labels |= labs.intersection(bound_labels)
        caught_names |= xs.intersection(bound_names) | (xs & eigen)
        taken |= labs | xs
    if not caught_labels and not caught_names:
        return {}, {}
    for n in node.preorder():
        taken |= fv(n.conclusion)
        taken.update(v for _k, v in n.attrs if isinstance(v, str))
    new_labels, new_names = {}, {}
    for olds, new in ((caught_labels, new_labels), (caught_names, new_names)):
        for old in sorted(olds):
            new[old] = fresh_name(old, taken)
            taken.add(new[old])
    return new_labels, new_names


def _renamed(key: str, v, new_labels: dict, new_names: dict):
    """A binder's attribute `key` = v, its bound names renamed."""
    new = new_labels if "label" in key else new_names if key in ("eigen", "var", "case_vars") \
        else {}
    return tuple(tuple(new.get(x, x) for x in xs) for xs in v) if key.startswith("case_") \
        else new.get(v, v)


def _free(d: Derivation, memo: dict) -> tuple[set[str], set[str]]:
    """The labels of d's open assumptions, and the variables free in d, in
    any conclusion, term attribute or invariant: what a substitution can
    change.  Kept in memo by id for each node below d, built bottom up on
    an explicit stack: one walk per substitution, whose proof and inserted
    proofs keep every node it keys alive."""
    stack = [d]
    while stack:
        node = stack.pop()
        if id(node) in memo:
            continue
        todo = [p for p in node.premises if id(p) not in memo]
        if todo:
            stack += [node, *todo]
            continue
        scopes = _scopes(node)
        labels = {node.attr("label")} if node.rule == "assume" else set()
        names = fv(node.conclusion)
        for i, p in enumerate(node.premises):
            labs, xs = scopes.get(i, ((), ()))
            labels |= memo[id(p)][0].difference(labs)
            names |= memo[id(p)][1].difference(xs)
        for k, v in node.attrs:
            if isinstance(v, (Term, Formula)):
                names |= variables(v) if isinstance(v, Term) else fv(v) - {node.attr("var")}
        memo[id(node)] = labels, names
    return memo[id(d)]
