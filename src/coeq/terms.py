"""First-order terms: variables, constructor applications, function applications.

Terms are immutable trees.  The three syntactic classes (data / base /
program) are decided structurally: data-terms contain only constructors,
base-terms add variables, program-terms add defined function symbols.
"""
from __future__ import annotations

import weakref
from collections import deque
from operator import attrgetter
from typing import Iterator

_set = object.__setattr__   # how a frozen record's __init__ assigns a field


class Record:
    """Base of coeq's record classes, in place of frozen dataclasses.

    A subclass lists its fields in ``__slots__`` (with ``"__dict__"`` if
    code stores more on an instance), after those of its record bases, and
    assigns each in its own ``__init__``, through ``_set`` unless it is
    declared ``frozen=False``.  Records of one class are equal when their
    field tuples are, the hash is the field tuple's, and the repr is
    ``Name(field=value, ...)``, as a dataclass's are.  A frozen record
    refuses assignment; a mutable one has no hash.  `Interned` records
    are hash-consed instead.
    """
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, frozen: bool = True, **kwargs):
        super().__init_subclass__(**kwargs)
        own = [f for f in cls.__dict__.get("__slots__", ())
               if f not in ("__dict__", "__weakref__")]
        if own:
            cls._fields = fields = cls._fields + tuple(own)
            get = attrgetter(*fields)
            cls._values = staticmethod(get if len(fields) > 1 else lambda r: (get(r),))
        if not frozen:
            cls.__setattr__ = object.__setattr__
            cls.__delattr__ = object.__delattr__
            cls.__hash__ = None

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self) -> str:
        """Written on an explicit stack: records, tuples and lists nested
        to any depth print."""
        out, stack = [], [(self,)]   # text emitted; text to emit, and (value,) to print
        while stack:
            x = stack.pop()
            if type(x) is str:
                out.append(x)
                continue
            v, = x
            cls = type(v)
            if cls is tuple or cls is list:
                items, names = v, [""] * len(v)
                opening, close = ("(", ",)" if len(v) == 1 else ")") if cls is tuple \
                    else ("[", "]")
            elif isinstance(v, Record) and cls.__repr__ is Record.__repr__:
                items, names = v._values(v), [f + "=" for f in cls._fields]
                opening, close = cls.__qualname__ + "(", ")"
            else:
                out.append(repr(v))
                continue
            stack.append(close)
            for i in range(len(items) - 1, -1, -1):
                stack += [(items[i],), ", " * (i > 0) + names[i]]
            stack.append(opening)
        return "".join(out)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Interned(Record):
    """Base of the hash-consed records: terms, formulas, coterm nodes,
    coterms and the extractor's symbolic realizers.  A subclass's
    ``__new__`` returns ``_intern((cls, *fields))``, the one live record of
    its class with those field values, so structurally equal ones are one
    object, and ``==`` and ``hash`` are ``object``'s, by identity, in
    constant time at any depth."""
    __slots__ = ("__weakref__",)
    __eq__ = object.__eq__
    __hash__ = object.__hash__


class Tree(Record):
    """A record whose field named by ``_branches`` is a tuple of records of
    its kind: a derivation's ``premises``, an observation node's
    ``children``.  A leaf class names none.  ``==`` walks two trees in step
    on an explicit stack, past the subtrees they share, and stops at the
    first difference; the hash is the root's other fields', and ``==``
    decides the rest.  (It is here, in a small module compiled early,
    because the longest module's compile sets the peak memory of a start
    from source; see tests/test_kernel_source.py::
    test_no_module_is_longer_than_700_lines.)"""
    __slots__ = ()
    _branches: str | None = None

    def _kids(self) -> tuple:
        return getattr(self, self._branches) if self._branches else ()

    def _own(self):
        return (self.__class__, len(self._kids()),
                *(getattr(self, f) for f in self._fields if f != self._branches))

    def __eq__(self, other):
        if not isinstance(other, Tree):
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is not b:
                if a._own() != b._own():
                    return False
                stack += zip(a._kids(), b._kids())
        return True

    def __hash__(self):
        return hash(self._own())

    def preorder(self):
        """All nodes, preorder, without paths: a scan of a tree d levels
        deep costs O(d), not O(d²)."""
        stack = [self]
        while stack:
            t = stack.pop()
            yield t
            stack.extend(reversed(t._kids()))

    def first(self, pred):
        """The shallowest, leftmost node for which pred holds, as (its path
        of 0-based child indices, the node), or None.  The walk is breadth
        first and keeps a link per node (see `_path`), so only the answer's
        path is built."""
        queue = deque([((), self)])
        while queue:
            link, t = queue.popleft()
            if pred(t):
                return _path(link), t
            queue += [((link, i), c) for i, c in enumerate(t._kids())]
        return None


def _path(link) -> tuple[int, ...]:
    """The path that a link `(parent's link, index)`, or () at the root,
    ends: a walk that keeps links holds O(1), not O(depth), per level."""
    path = []
    while link:
        link, i = link
        path.append(i)
    return tuple(reversed(path))


_interned: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_interned_ref = _interned.data.get   # a hit skips WeakValueDictionary.get's frame


def _intern(key: tuple):
    """The one live record of class key[0] whose field values are key[1:];
    a record leaves the table when nothing else holds it."""
    ref = _interned_ref(key)
    if ref is not None:
        r = ref()
        if r is not None:
            return r
    cls = key[0]
    r = object.__new__(cls)
    for field, value in zip(cls._fields, key[1:]):
        _set(r, field, value)
    _interned[key] = r
    return r


def _run(gen):
    """The value of a generator that yields a generator per recursive call
    and is sent its value: recursion on our own stack, of any depth."""
    stack, value = [gen], None
    while stack:
        try:
            stack.append(stack[-1].send(value))
            value = None
        except StopIteration as stop:
            stack.pop()
            value = stop.value
    return value


class Term(Interned):
    __slots__ = ()

    @property
    def args(self) -> tuple["Term", ...]:
        return ()


class Var(Term):
    __slots__ = ("name",)

    def __new__(cls, name: str):
        return _intern((cls, name))

    def __str__(self) -> str:
        return self.name


class _Apply(Term):
    """A constructor or function symbol applied to arguments."""
    __slots__ = ("name", "args")

    def __new__(cls, name: str, args: tuple[Term, ...] = ()):
        return _intern((cls, name, args))

    def __str__(self) -> str:
        out, stack = [], [self]   # terms to print, and text to emit
        while stack:
            u = stack.pop()
            if isinstance(u, str) or not u.args:
                out.append(u if isinstance(u, str) else u.name)
            else:
                pieces = [x for a in u.args for x in (", ", a)][1:]   # a1, ", ", a2, ...
                stack += [")"] + pieces[::-1] + [u.name + "("]
        return "".join(out)


class Con(_Apply):
    __slots__ = ()


class Fun(_Apply):
    __slots__ = ()


Subst = dict[str, Term]


def subterms(t: Term) -> Iterator[Term]:
    """All subterms of t, prefix order, t itself first."""
    stack = [t]
    while stack:
        u = stack.pop()
        yield u
        stack.extend(reversed(u.args))


def variables(t: Term) -> set[str]:
    return {u.name for u in subterms(t) if isinstance(u, Var)}


def has_fun(t: Term) -> bool:
    return any(isinstance(u, Fun) for u in subterms(t))


def substitute(t: Term, s: Subst) -> Term:
    """Apply a substitution, on an explicit stack.  Variables not in s are left alone."""
    if not t.args:
        return s.get(t.name, t) if isinstance(t, Var) else t
    stack = [(t, [])]   # a term, and its arguments substituted so far
    while True:
        u, new = stack[-1]
        if len(new) < len(u.args):
            a = u.args[len(new)]
            if a.args:
                stack.append((a, []))
            else:
                new.append(s.get(a.name, a) if isinstance(a, Var) else a)
            continue
        stack.pop()
        new = tuple(new)
        r = u if new == u.args else type(u)(u.name, new)
        if not stack:
            return r
        stack[-1][1].append(r)


def compose(outer: Subst, inner: Subst) -> Subst:
    """Substitution composition: apply inner first, then outer."""
    out = {v: substitute(t, outer) for v, t in inner.items()}
    for v, t in outer.items():
        out.setdefault(v, t)
    return out


def fresh_name(base: str, avoid: set[str]) -> str:
    """`base`, primed as often as it takes to avoid `avoid`."""
    cand = base
    while cand in avoid:
        cand += "'"
    return cand


def rename_apart(t: Term, taken: set[str]) -> tuple[Term, Subst]:
    """Rename t's variables away from `taken`; returns (renamed, renaming)."""
    ren: Subst = {}
    for v in sorted(variables(t)):
        if v in taken:
            fresh = fresh_name(v, taken)
            ren[v] = Var(fresh)
            taken.add(fresh)
    return substitute(t, ren), ren

