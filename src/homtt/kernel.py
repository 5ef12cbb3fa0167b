"""Core syntax and rewriting for a small directed type theory.

Types   B(args) | core T | op T | hom T s t
Terms   x (variables) | c(args) | i t | iop t | one t
        | elimR[Th; D; d](f, th) | elimL[Th; D; d](f, th)

A telescope is a tuple of (name hint, type) entries; the type of entry ``k``
may mention ``Var(0) .. Var(k-1)`` only.  Variables are de Bruijn levels:
``Var(k)`` refers to entry ``k`` of the telescope, counting from the start.
A binder body therefore numbers its bound variables from the length of the
context it sits in: the motive ``Th`` of an eliminator appearing in a
context of length n refers to its bound variable as ``Var(n)``.  Operations
that move expressions between contexts take the relevant context length
explicitly.

Binder arities are fixed: ``Th`` binds 1 variable, ``D`` binds 4 (s, t, f, th),
``d`` binds 2 (s, th).  There are no other binding constructs.  The table of
child binder counts per node class is the only place arity is read: every
traversal rebuilds through ``map_children``, overriding it only at the
nodes it cares about (``Var`` for the renumbering, the redex for
``reduce``).

Every node is interned: building one looks its class and fields up in one
dict of weak references, ``_live``, and returns the live node there, so
two live nodes with equal fields are one object and ``==`` and ``hash``
are identity.  An entry goes with its last node, so nothing outlives the
terms in use; its removal is ``dropper``.  ``Interned`` is the value
contract that nodes share with ``fincat.Mor``: the fields named by
``__match_args__`` are set once, the repr is the dataclass one, and a
copy or pickle is rebuilt through the constructor, so it is the live
value too; ``Mor`` keeps its own ``__new__`` and intern table.
``core (op T)`` is ``core T``: the ``Core`` constructor drops ``Op`` layers
before the lookup, and every rebuild goes through the constructor, so a
core of an op is never represented.

Every node keeps three summaries of its subtree, computed when the node
is built from those of its children: ``levels`` (one more than its
highest variable level, 0 if none), ``elims`` (its eliminator count) and
``names`` (its constants and base types).  A child that is not a node is
refused there.  Traversals return a subtree they cannot change as it is,
and ``map_children`` returns the node itself when no child changed.
"""

from __future__ import annotations

import weakref
from dataclasses import FrozenInstanceError
from itertools import repeat
from operator import add, is_


class InternalError(Exception):
    """An invariant of the engine itself was violated (not a user error)."""


class Interned:
    """A value whose fields, named in order by its class's __match_args__,
    are set once when it is built: assigning or deleting one raises
    FrozenInstanceError, the repr is the dataclass one, and a copy or
    pickle is rebuilt through the constructor, so it is the live value."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}"
                           for f in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self.__match_args__)


class Expr(Interned):
    """A node; __new__ returns the live node with the same class and fields
    if there is one, and gives a new node its summaries (see above)."""

    __slots__ = ()

    def __new__(cls, *fields):
        key = (cls, *fields)
        ref = _live.get(key)
        x = ref and ref()
        if x is None:
            x = object.__new__(cls)
            d = x.__dict__
            d.update(zip(cls.__match_args__, fields, strict=True))
            _summarize(cls, fields, d)
            _live[key] = weakref.KeyedRef(x, _drop, key)
        return x


def _summarize(cls, fields, d):
    """Store the summaries of a new node of class cls with these fields in
    its __dict__ d, read from its children's; a child that is no node
    (and so has none) is refused."""
    if cls is Var:
        d["levels"], d["elims"], d["names"] = fields[0] + 1, 0, frozenset()
        return
    named = _CHILD_BINDERS[cls] is None
    kids = fields[1] if named else fields
    levels, elims = 0, int(cls is ElimR or cls is ElimL)
    names = frozenset((fields[0],) if named else ())
    try:
        for c in kids:
            if c.levels > levels:
                levels = c.levels
            elims += c.elims
            if not c.names <= names:
                names = names | c.names if names else c.names
    except AttributeError:
        bad = next(c for c in kids if type(c) not in _CHILD_BINDERS)
        raise InternalError(f"unknown node {bad!r}") from None
    d["levels"], d["elims"], d["names"] = levels, elims, names


def dropper(table):
    """The callback of the weak references in an intern table (this
    module's and ``fincat``'s): it removes the entry of an object that
    died, unless a new object has taken the key since."""
    def drop(ref):
        if table.get(ref.key) is ref:
            del table[ref.key]
    return drop


_live = {}  # (class, *fields) -> a weak reference to its one node
_drop = dropper(_live)


class TypeExpr(Expr):
    __slots__ = ()


class TermExpr(Expr):
    __slots__ = ()


class BaseT(TypeExpr):
    """An assumed base type, instantiated at the arguments of its telescope."""

    __match_args__ = ("name", "args")

    def __new__(cls, name, args=()):
        return super().__new__(cls, name, args)


class Core(TypeExpr):
    """core T; built without the op layers of T, since core (op T) is core T."""

    __match_args__ = ("inner",)

    def __new__(cls, inner):
        while isinstance(inner, Op):
            inner = inner.inner
        return super().__new__(cls, inner)


class Op(TypeExpr):
    __match_args__ = ("inner",)


class Hom(TypeExpr):
    """hom T s t: directed maps of T from s (an op point) to t."""

    __match_args__ = ("carrier", "source", "target")


class Var(TermExpr):
    __match_args__ = ("level",)


class Const(TermExpr):
    """An assumed or defined constant, instantiated at its telescope."""

    __match_args__ = ("name", "args")

    def __new__(cls, name, args=()):
        return super().__new__(cls, name, args)


class IncCore(TermExpr):
    """i t: inclusion of a core point into the carrier."""

    __match_args__ = ("arg",)


class IncOp(TermExpr):
    """iop t: inclusion of a core point into the opposite."""

    __match_args__ = ("arg",)


class One(TermExpr):
    """one t: the unit directed map at a core point."""

    __match_args__ = ("arg",)


class ElimR(TermExpr):
    """Right eliminator, fully annotated.

    motive_theta binds (s);  motive_d binds (s, t, f, th);  base binds (s, th).
    """

    __match_args__ = ("motive_theta", "motive_d", "base", "f", "theta")


class ElimL(TermExpr):
    """Left eliminator; same shape as ElimR with the left-variant typing."""

    __match_args__ = ("motive_theta", "motive_d", "base", "f", "theta")


THETA_BINDS = 1
D_BINDS = 4
BASE_BINDS = 2

# Binders each child field of a node opens, per node class, in field order.
# BaseT and Const (None) carry a name and a tuple of argument children, none
# under a binder.  This table is the only place binder arity is read.
_ELIM_BINDERS = (THETA_BINDS, D_BINDS, BASE_BINDS, 0, 0)
_CHILD_BINDERS = {
    Var: (),
    BaseT: None,
    Const: None,
    Core: (0,),
    Op: (0,),
    IncCore: (0,),
    IncOp: (0,),
    One: (0,),
    Hom: (0, 0, 0),
    ElimR: _ELIM_BINDERS,
    ElimL: _ELIM_BINDERS,
}


def map_children(x, fn, depth):
    """Rebuild x with every child c replaced by fn(c, depth + binders).

    `depth` is the context length x sits in, so fn sees the length each
    child sits in.  When no child changes, x itself comes back (shared).
    """
    binders = _CHILD_BINDERS[type(x)]
    if binders is None:
        old = x.args
        new = tuple(map(fn, old, repeat(depth)))
    else:
        old = tuple(map(getattr, repeat(x), x.__match_args__))
        new = tuple(map(fn, old, map(add, binders, repeat(depth))))
    if all(map(is_, new, old)):
        return x
    return type(x)(x.name, new) if binders is None else type(x)(*new)


def instantiate(body, base: int, values, scope=None):
    """Substitute a whole binder region at once, in one pass.

    `body` lives in a context of length base + len(values); every value in one
    of length `scope` (default `base`), and so does the result: levels below
    `base` stay, levels above the region are renumbered to follow `scope`.
    This is the one renumbering traversal: with base 0 it instantiates a
    signature-level body (closed over its own telescope) at arguments, and
    with no values it is `shift`.
    """
    scope = base if scope is None else scope
    values = tuple(values)
    if not values and scope == base:
        return body
    top = base + len(values)

    def go(y, binders):
        if y.levels <= base:
            return y
        if isinstance(y, Var):
            if y.level < top:
                return shift(values[y.level - base], scope, binders)
            return Var(y.level - top + scope)
        return map_children(y, go, binders)
    return go(body, 0)


def shift(x, cutoff: int, amount: int):
    """Add `amount` to every variable level >= cutoff.

    Weakening a term from a context of length k into one of length n is
    shift(x, k, n - k): free variables stay put, binder levels move clear of
    the new entries.
    """
    return instantiate(x, cutoff, (), cutoff + amount)


def elim_contexts(ctx, carrier, theta, right: bool):
    """The contexts of an eliminator's base case and of its motive D.

    The base case binds (s : core T, th); its prefix ctx + (s : core T) is
    where the motive `theta` lives.  D binds (s, t, f, th): on the right
    (s : core T, t : T, f : hom T (iop s) t, th[s]), on the left
    (s : op T, t : core T, f : hom T s (i t), th[t]).
    """
    n = len(ctx)
    s, t, t_ty = Var(n), Var(n + 1), shift(carrier, n, 1)
    ends = (IncOp(s), t) if right else (s, IncCore(t))
    ctx_b = ctx + (("s", Core(carrier)), ("th", theta))
    ctx_d = ctx + (
        ("s", Core(carrier) if right else Op(carrier)),
        ("t", t_ty if right else Core(t_ty)),
        ("f", Hom(shift(carrier, n, 2), *ends)),
        ("th", instantiate(theta, n, (s if right else t,), n + 3)),
    )
    return ctx_b, ctx_d


def reduce(x, depth: int = 0):
    """Rewrite to normal form.

    The rewrite system has two rules, closed under full congruence (motive
    annotations included):

        elimR[Th; D; d](one s, th)  ->  d[s, th]
        elimL[Th; D; d](one s, th)  ->  d[s, th]

    `depth` is the length of the ambient context; binder bodies are reduced
    at the appropriately extended depth.  The termination measure is
    `elims`, the number of eliminator nodes: every contraction must
    strictly decrease it.
    """
    if not x.elims:
        return x
    out = map_children(x, reduce, depth)
    if not (isinstance(out, (ElimR, ElimL)) and isinstance(out.f, One)):
        return out
    before = out.elims
    contracted = instantiate(out.base, depth, (out.f.arg, out.theta))
    after = contracted.elims
    if after >= before:
        raise InternalError(
            f"reduce: eliminator count did not decrease ({before} -> {after})")
    # the contractum may expose new redexes (e.g. a unit that was hidden in
    # the th argument); renormalize.
    return reduce(contracted, depth)

