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
traversal either folds over ``children`` or rebuilds through
``map_children``, overriding it only at the nodes it cares about (``Var``
for the renumbering, the redex for ``reduce``).

Every node is interned: building one looks its class and fields up in one
weak table, ``_live``, and returns the live node there, so two live nodes
with equal fields are one object and ``==`` and ``hash`` are identity; a
copy or pickle of a node is rebuilt through the constructor, so it is the
live node too.  An entry goes with its last node, so nothing outlives the
terms in use.
``core (op T)`` is ``core T``: the ``Core`` constructor drops ``Op`` layers
before the lookup, and every rebuild goes through the constructor, so a
core of an op is never represented.

Every node keeps three summaries of its subtree, computed once on first
use: ``levels`` (one more than its highest variable level, 0 if none),
``elims`` (its eliminator count) and ``names`` (its constants and base
types).  Traversals return a subtree they cannot change as it is, and
``map_children`` returns the node itself when no child changed.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from itertools import repeat
from operator import add, is_


class InternalError(Exception):
    """An invariant of the engine itself was violated (not a user error)."""


class Expr:
    """A node; __new__ returns the live node with the same class and fields
    if there is one.  __getattr__ runs only for a missing attribute, so it
    computes a summary (see above) once and leaves it in __dict__."""

    __slots__ = ()

    def __new__(cls, *fields):
        key = (cls, *fields)
        x = _live.get(key)
        if x is None:
            x = object.__new__(cls)
            x.__dict__.update(zip(cls.__match_args__, fields, strict=True))
            _live[key] = x
        return x

    def __reduce__(self):
        """Copies and pickles are rebuilt from the fields: the live node."""
        return type(self), tuple(getattr(self, f) for f in self.__match_args__)

    def __getattr__(self, name):
        d = self.__dict__
        if name in ("levels", "elims"):
            kids = [c for c, _ in children(self)]
            d["levels"] = (self.level + 1 if isinstance(self, Var) else
                           max([c.levels for c in kids], default=0))
            d["elims"] = sum([c.elims for c in kids],
                             int(isinstance(self, (ElimR, ElimL))))
        elif name == "names":
            sets = {c.names for c, _ in children(self)} - {frozenset()}
            if isinstance(self, (Const, BaseT)):
                sets.add(frozenset((self.name,)))
            d[name] = (sets.pop() if len(sets) == 1
                       else frozenset().union(*sets))
        else:
            raise AttributeError(name)
        return d[name]


_live = weakref.WeakValueDictionary()  # (class, *fields) -> its one node


class TypeExpr(Expr):
    __slots__ = ()


class TermExpr(Expr):
    __slots__ = ()


@dataclass(frozen=True, init=False, eq=False)
class BaseT(TypeExpr):
    """An assumed base type, instantiated at the arguments of its telescope."""

    name: str
    args: tuple = ()

    def __new__(cls, name, args=()):
        return super().__new__(cls, name, args)


@dataclass(frozen=True, init=False, eq=False)
class Core(TypeExpr):
    """core T; built without the op layers of T, since core (op T) is core T."""

    inner: TypeExpr

    def __new__(cls, inner):
        while isinstance(inner, Op):
            inner = inner.inner
        return super().__new__(cls, inner)


@dataclass(frozen=True, init=False, eq=False)
class Op(TypeExpr):
    inner: TypeExpr


@dataclass(frozen=True, init=False, eq=False)
class Hom(TypeExpr):
    """hom T s t: directed maps of T from s (an op point) to t."""

    carrier: TypeExpr
    source: TermExpr
    target: TermExpr


@dataclass(frozen=True, init=False, eq=False)
class Var(TermExpr):
    level: int


@dataclass(frozen=True, init=False, eq=False)
class Const(TermExpr):
    """An assumed or defined constant, instantiated at its telescope."""

    name: str
    args: tuple = ()

    def __new__(cls, name, args=()):
        return super().__new__(cls, name, args)


@dataclass(frozen=True, init=False, eq=False)
class IncCore(TermExpr):
    """i t: inclusion of a core point into the carrier."""

    arg: TermExpr


@dataclass(frozen=True, init=False, eq=False)
class IncOp(TermExpr):
    """iop t: inclusion of a core point into the opposite."""

    arg: TermExpr


@dataclass(frozen=True, init=False, eq=False)
class One(TermExpr):
    """one t: the unit directed map at a core point."""

    arg: TermExpr


@dataclass(frozen=True, init=False, eq=False)
class ElimR(TermExpr):
    """Right eliminator, fully annotated.

    motive_theta binds (s);  motive_d binds (s, t, f, th);  base binds (s, th).
    """

    motive_theta: TypeExpr
    motive_d: TypeExpr
    base: TermExpr
    f: TermExpr
    theta: TermExpr


@dataclass(frozen=True, init=False, eq=False)
class ElimL(TermExpr):
    """Left eliminator; same shape as ElimR with the left-variant typing."""

    motive_theta: TypeExpr
    motive_d: TypeExpr
    base: TermExpr
    f: TermExpr
    theta: TermExpr


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


def _child_binders(x):
    try:
        return _CHILD_BINDERS[type(x)]
    except KeyError:
        raise InternalError(f"unknown node {x!r}") from None


def children(x):
    """The (child, binders) pairs of x in field order, each child a node;
    `binders` is the number of variables x binds around that child."""
    binders = _child_binders(x)
    pairs = ([(a, 0) for a in x.args] if binders is None else
             [(getattr(x, f), b) for f, b in zip(x.__match_args__, binders)])
    for c, _ in pairs:
        _child_binders(c)   # raises InternalError on a foreign child
    return pairs


def map_children(x, fn, depth):
    """Rebuild x with every child c replaced by fn(c, depth + binders).

    `depth` is the context length x sits in, so fn sees the length each
    child sits in.  When no child changes, x itself comes back (shared).
    """
    binders = _child_binders(x)
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

