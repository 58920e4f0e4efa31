"""Rewrite kernel: interned terms and budgeted head-normalization.

The kernel is written in a flat, allocation-light style (ints, tuples,
dicts, no dataclasses) because it is the hot path of every verdict: all
observation, bisimulation and realizability checks end up here.

Terms are hash-consed into integer ids, so equality is `==` on ints and
memo tables are cheap.  Rewriting is leftmost-outermost: an equation is
tried by demanding head constructors only at its constructor-pattern
positions, and match failure is detected from already-forced information
before any further forcing happens.  One method, `_rewrite`, chooses
every rewrite: of a call being forced, and of a projection of known data.

One kind of redex is reduced first, when a call is forced: a projection
`pi_i(d)` anywhere in the call whose argument is known data, innermost
first.  Known data is a constructor term, an environment term whose
unfold is a constructor layer (such as a coterm node), or a call the
session has already forced to a constructor (`d` is in the memo, and
`d ->* memo[d]` by rewrites the session performed).  Such a projection is
reduced by firing its own standard equation, for one step: what forcing
it costs anyway.  So the tail `ident(pi2(x))` of a stream function on a
coterm binding `x` (which is its entry node) is forced as `ident(x@3)`,
and the tail `even(pi2(pi2(merge(a, b))))` of a composed law as
`even(merge(a', b'))`; both recur with the inputs' periods and hit the
memo.
"""

# The only backend: this interpreter module.  Kept as a name so reports
# can record which kernel produced a measurement.
KERNEL_BACKEND = "pure"

# term kinds
VAR = 0
CON = 1
FUN = 2

# head_normalize statuses
WHNF = 0
STALL_NOMATCH = 1
STALL_BUDGET = 2

# per-equation match outcomes other than a tid to force
_MATCH = -1
_FAIL = -2
_STUCK = -3


class KernelSession:
    """One arena of interned symbols/terms plus rules, env bindings and
    the WHNF memo.  Single-threaded by design."""

    def __init__(self):
        self.sym_ids = {}       # name -> sid of a constructor or function
        self.var_ids = {}       # name -> sid of a variable
        self.node_ids = {}      # (binding, index) -> sid of a coterm node
        self.sym_names = []     # sid -> name
        self.sym_kinds = []     # sid -> VAR/CON/FUN
        self.sym_arities = []   # sid -> arity
        self.intern = {}        # (kind, sid, args) -> tid
        self.t_kind = []        # tid -> kind
        self.t_sym = []         # tid -> sid
        self.t_args = []        # tid -> tuple of tids
        self.rules = {}         # fn sid -> list of (pattern tid tuple, rhs tid)
        self.env = {}           # env fn sid -> unfold tid
        self.memo = {}          # tid -> whnf tid (successes)
        self.nomatch = {}       # tid -> stuck tid (definitive no-match stalls)
        self.projections = set()   # fn sids of the destructors pi_i, declared
                                   # before any term that calls one is interned
        self.with_projection = set()   # tids of terms with a call of a pi_i in them
        self.reduced = {}       # tid -> tid with its projections of known data reduced,
                                # as known when tid was first walked
        self.steps_total = 0
        self._may_end_nullary = None   # fn sids, computed on first use

    # -- symbols ----------------------------------------------------------

    def sym(self, name, kind, arity):
        """The sid of a name, declared on first use.  Variables have a
        namespace of their own: each is local to one equation, so a
        variable may share its name with a function or constructor."""
        ids = self.var_ids if kind == VAR else self.sym_ids
        sid = ids.get(name, -1)
        if sid >= 0:
            if self.sym_kinds[sid] != kind or self.sym_arities[sid] != arity:
                raise ValueError(
                    "symbol %r redeclared with different kind/arity" % name)
            return sid
        return self._declare(ids, name, name, kind, arity)

    def node(self, binding, index):
        """The sid of node `index` of the coterm bound to `binding`: a
        nullary function in a namespace of its own, so no name a program
        or an environment declares can stand for it.  It prints as
        '<binding>@<index>'."""
        sid = self.node_ids.get((binding, index), -1)
        if sid >= 0:
            return sid
        return self._declare(self.node_ids, (binding, index),
                             "%s@%d" % (binding, index), FUN, 0)

    def _declare(self, ids, key, name, kind, arity):
        sid = len(self.sym_names)
        ids[key] = sid
        self.sym_names.append(name)
        self.sym_kinds.append(kind)
        self.sym_arities.append(arity)
        return sid

    # -- term interning ---------------------------------------------------

    def mk(self, kind, sid, args):
        key = (kind, sid, args)
        tid = self.intern.get(key, -1)
        if tid >= 0:
            return tid
        tid = len(self.t_kind)
        self.intern[key] = tid
        self.t_kind.append(kind)
        self.t_sym.append(sid)
        self.t_args.append(args)
        if sid in self.projections or not self.with_projection.isdisjoint(args):
            self.with_projection.add(tid)
        return tid

    def var(self, name):
        return self.mk(VAR, self.sym(name, VAR, 0), ())

    # -- rules and environment -------------------------------------------

    def add_rule(self, fn_sid, pattern_tids, rhs_tid):
        self.rules.setdefault(fn_sid, []).append((pattern_tids, rhs_tid))
        self._may_end_nullary = None

    def set_env(self, env_sid, unfold_tid):
        self.env[env_sid] = unfold_tid
        self._may_end_nullary = None

    # -- forcing that cannot end in a nullary constructor -------------------

    def never_nullary(self, tid):
        """True when forcing tid cannot end in a nullary constructor: it
        is a constructor with arguments, or a call of a function in the
        greatest fixpoint of "every right-hand side (the env unfold if
        there is one, else each rule's) is a constructor with arguments or
        a call of a function in the set".  A function with neither only
        stalls, so it is in the set.  The complement is computed on first
        use and kept until a rule or unfold is added; a function declared
        later has neither, and is rightly outside it."""
        k = self.t_kind[tid]
        if k == CON:
            return bool(self.t_args[tid])
        if k == VAR:
            return False
        if self._may_end_nullary is None:
            self._may_end_nullary = self._nullary_reachable()
        return self.t_sym[tid] not in self._may_end_nullary

    def _nullary_reachable(self):
        """The functions whose forcing may end in a nullary constructor
        (least fixpoint): a right-hand side that is a variable or a
        nullary constructor puts its function in, and so does a call of a
        function already in."""
        rhss = list(self.env.items())   # an unfold comes before any rule
        rhss += [(sid, rhs) for sid, eqs in self.rules.items() if sid not in self.env
                 for _, rhs in eqs]
        callers = {}   # fn sid -> sids with a right-hand side calling it
        out, todo = set(), []
        for sid, rhs in rhss:
            k = self.t_kind[rhs]
            if k == FUN:
                callers.setdefault(self.t_sym[rhs], []).append(sid)
            elif k == VAR or not self.t_args[rhs]:
                todo.append(sid)
        while todo:
            sid = todo.pop()
            if sid not in out:
                out.add(sid)
                todo.extend(callers.get(sid, ()))
        return out

    # -- substitution on interned terms ------------------------------------

    def subst(self, tid, binds):
        """tid with each variable in `binds` replaced, bottom-up and left
        to right on an explicit stack, so a right-hand side of any height
        substitutes.  A subterm that does not change keeps its tid."""
        t_args, done, stack = self.t_args, [], [tid]
        while stack:   # tids to visit, and ~tid once its arguments' results end `done`
            u = stack.pop()
            if u < 0:
                u = ~u
                cut = len(done) - len(t_args[u])
                new = tuple(done[cut:])
                done[cut:] = [u if new == t_args[u] else self.mk(self.t_kind[u], self.t_sym[u], new)]
            elif t_args[u]:
                stack += (~u, *reversed(t_args[u]))
            else:   # a variable, or a constant, which no binding names
                done.append(binds.get(u, u))
        return done[0]

    # -- matching ----------------------------------------------------------

    def _match_eq(self, pats, args, binds):
        """Try one equation against argument tids: _MATCH with `binds`
        filled, _FAIL, _STUCK when a demanded position is irreducible, or
        the tid of the leftmost unforced demanded position.  Failure wins
        over stuck and needs: a definitive mismatch anywhere kills the
        equation without forcing anything else."""
        needs = -1
        stuck = False
        stack = [(pats[i], args[i]) for i in range(len(pats) - 1, -1, -1)]
        while stack:
            pat, head = stack.pop()
            if self.t_kind[pat] == VAR:
                binds[pat] = head
                continue
            # constructor pattern: need the subject's head (a memo entry is one)
            if self.t_kind[head] == FUN:
                head = self.memo.get(head, head)
            if self.t_kind[head] != CON:
                if self.t_kind[head] == VAR or head in self.nomatch:
                    stuck = True
                elif needs < 0:
                    needs = head
                continue  # other positions may still fail
            if self.t_sym[head] != self.t_sym[pat]:
                return _FAIL
            pargs = self.t_args[pat]
            hargs = self.t_args[head]
            for i in range(len(pargs) - 1, -1, -1):
                stack.append((pargs[i], hargs[i]))
        if needs >= 0:
            return needs
        return _STUCK if stuck else _MATCH

    def _rewrite(self, sid, args):
        """The one rewrite of the call sid(args), the only place a rewrite
        is chosen: (the term it rewrites to, -1), that is its environment
        unfold, else the instance of the first equation that matches; or
        (-1, the leftmost demanded position to force first); or (-1, -1), a
        definitive no-match.  A variable has neither an unfold nor
        equations, so it is a no-match."""
        unfold = self.env.get(sid, -1)
        if unfold >= 0:
            return (unfold, -1)
        needs = -1
        for pats, rhs in self.rules.get(sid, ()):
            binds = {}
            m = self._match_eq(pats, args, binds)
            if m == _MATCH:
                return (self.subst(rhs, binds), -1)
            if m >= 0 and needs < 0:
                needs = m
        return (-1, needs)

    # -- projections of known data -------------------------------------------

    def _reduce_projections(self, tid, steps, budget):
        """(tid with every projection of known data in it reduced, innermost
        first; steps), or (-1, steps) if the budget runs out first.

        A projection `pi_i(d)` of known data (a constructor term, an
        environment term whose unfold is a constructor layer, or a call
        already in the memo) is reduced by firing its own standard equation
        (`_rewrite`), for one step; an environment term unfolded for the
        first time costs one more (its unfold goes in the memo, as forcing
        it would put it).  A subterm's result is kept in `reduced` once it
        is complete and paid for once per session.  It records what the
        memo held when the subterm was first walked: a projection of a call
        forced only later stays as it was."""
        red, t_args, t_sym = self.reduced, self.t_args, self.t_sym
        with_proj = self.with_projection
        stack = [tid]
        while stack:
            t = stack[len(stack) - 1]
            if t in red:
                stack.pop()
                continue
            args = t_args[t]
            todo = [a for a in args if a in with_proj and a not in red]
            if todo:
                stack += todo
                continue
            stack.pop()
            new = tuple([red.get(a, a) for a in args])
            out = -1
            if t_sym[t] in self.projections:
                d = new[0]
                layer = self.memo.get(d, -1)   # forced before: a call, or a node unfolded
                if layer < 0:
                    layer = self.env.get(t_sym[d], d)   # a coterm binding or node unfolds
                    if layer != d and self.t_kind[layer] == CON:
                        if steps >= budget:
                            return (-1, steps)
                        steps += 1
                        self.memo[d] = layer
                if self.t_kind[layer] == CON:
                    if steps >= budget:
                        return (-1, steps)
                    steps += 1
                    out, _ = self._rewrite(t_sym[t], new)
            if out < 0:
                out = t
                if new != args:
                    out = self.mk(self.t_kind[t], t_sym[t], new)
                    red[out] = out
            red[t] = out
        return (red[tid], steps)

    # -- head normalization -------------------------------------------------

    def head_normalize(self, tid, budget):
        """Reduce tid to a constructor-headed form.

        Returns (status, tid, steps_used): on WHNF the tid of the
        constructor form; on STALL_NOMATCH the irreducible form reached;
        on STALL_BUDGET the current form when the budget ran out.

        Each term on the forcing stack is looked up in `memo`, then in
        `nomatch`, then in `reduced`; only then is it a WHNF (a constructor
        term) or rewritten by `_rewrite`, which chooses every rewrite.  One
        step is one equation application or one environment unfold.  A
        call's projections of known data are reduced when it is forced,
        before its own rewrite, by their standard equations
        (`_reduce_projections`), one step each.  Forcing of subterms
        demanded by pattern matching shares the same budget.  Successful
        head-normalizations and definitive no-match stalls are memoized
        for the life of the session.
        """
        memo, nomatch = self.memo, self.nomatch
        steps = 0
        stack = [tid]      # the term forced, then each demanded position
        chains = [[tid]]   # the forms each stack entry took, for the memo
        while True:
            cur = stack[len(stack) - 1]
            out = memo.get(cur, -1)
            if out < 0 and cur not in nomatch:
                nxt = self.reduced.get(cur, -1)
                if nxt < 0 and cur in self.with_projection and self.t_sym[cur] in self.rules:
                    nxt, steps = self._reduce_projections(cur, steps, budget)
                    if nxt < 0:
                        break
                if nxt < 0 or nxt == cur:   # no projection to reduce: rewrite cur
                    if self.t_kind[cur] == CON:
                        out = cur
                    else:
                        nxt, child = self._rewrite(self.t_sym[cur], self.t_args[cur])
                        if child >= 0:
                            stack.append(child)
                            chains.append([child])
                            continue
                        if nxt >= 0:
                            if steps >= budget:
                                break
                            steps += 1
                if out < 0 and nxt >= 0:
                    stack[len(stack) - 1] = nxt
                    chains[len(chains) - 1].append(nxt)
                    continue
            # cur is a WHNF `out`, or a definitive no-match stall
            table, value = (memo, out) if out >= 0 else (nomatch, nomatch.get(cur, cur))
            for t in chains.pop():
                table[t] = value
            stack.pop()
            if not stack:
                break
        self.steps_total += steps
        if stack:
            return (STALL_BUDGET, stack[0], steps)
        if out >= 0:
            return (WHNF, out, steps)
        return (STALL_NOMATCH, cur, steps)
