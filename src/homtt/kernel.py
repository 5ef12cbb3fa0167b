"""Core syntax and rewriting for a small directed type theory.

Types   B(args) | core T | op T | hom T s t
Terms   x (variables) | c(args) | i t | iop t | one t
        | elimR[Th; D; d](f, th) | elimL[Th; D; d](f, th)

Variables are de Bruijn levels: ``Var(k)`` refers to entry ``k`` of the
telescope, counting from the start.  A binder body therefore numbers its bound
variables from the length of the context it sits in: the motive ``Th`` of an
eliminator appearing in a context of length n refers to its bound variable as
``Var(n)``.  Operations that move expressions between contexts take the
relevant context length explicitly.

Binder arities are fixed: ``Th`` binds 1 variable, ``D`` binds 4 (s, t, f, th),
``d`` binds 2 (s, th).  There are no other binding constructs.  The table of
child binder counts per node class is the only place arity is read: every
traversal either folds over ``children`` or rebuilds through
``map_children``, overriding it only at the nodes it cares about (``Var``
for the renumberings, ``Core`` and the redex for ``reduce``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from operator import add


class InternalError(Exception):
    """An invariant of the engine itself was violated (not a user error)."""


class TypeExpr:
    __slots__ = ()


class TermExpr:
    __slots__ = ()


@dataclass(frozen=True)
class BaseT(TypeExpr):
    """An assumed base type, instantiated at the arguments of its telescope."""

    name: str
    args: tuple = ()


@dataclass(frozen=True)
class Core(TypeExpr):
    inner: TypeExpr


@dataclass(frozen=True)
class Op(TypeExpr):
    inner: TypeExpr


@dataclass(frozen=True)
class Hom(TypeExpr):
    """hom T s t: directed maps of T from s (an op point) to t."""

    carrier: TypeExpr
    source: TermExpr
    target: TermExpr


@dataclass(frozen=True)
class Var(TermExpr):
    level: int


@dataclass(frozen=True)
class Const(TermExpr):
    """An assumed or defined constant, instantiated at its telescope."""

    name: str
    args: tuple = ()


@dataclass(frozen=True)
class IncCore(TermExpr):
    """i t: inclusion of a core point into the carrier."""

    arg: TermExpr


@dataclass(frozen=True)
class IncOp(TermExpr):
    """iop t: inclusion of a core point into the opposite."""

    arg: TermExpr


@dataclass(frozen=True)
class One(TermExpr):
    """one t: the unit directed map at a core point."""

    arg: TermExpr


@dataclass(frozen=True)
class ElimR(TermExpr):
    """Right eliminator, fully annotated.

    motive_theta binds (s);  motive_d binds (s, t, f, th);  base binds (s, th).
    """

    motive_theta: TypeExpr
    motive_d: TypeExpr
    base: TermExpr
    f: TermExpr
    theta: TermExpr


@dataclass(frozen=True)
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

# A telescope entry is (name hint, type); the type of entry k may mention
# Var(0) .. Var(k-1) only.
Telescope = tuple


@dataclass(frozen=True)
class IsType:
    ctx: Telescope
    ty: TypeExpr


@dataclass(frozen=True)
class HasType:
    ctx: Telescope
    term: TermExpr
    ty: TypeExpr


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
    """The (child, binders) pairs of x in field order; `binders` is the
    number of variables x binds around that child."""
    binders = _child_binders(x)
    if binders is None:
        return [(a, 0) for a in x.args]
    return [(getattr(x, f), b) for f, b in zip(x.__match_args__, binders)]


def map_children(x, fn, depth):
    """Rebuild x with every child c replaced by fn(c, depth + binders).

    `depth` is the context length x sits in, so fn sees the length each
    child sits in.  A node without children comes back as it is.
    """
    binders = _child_binders(x)
    if binders is None:
        if not x.args:
            return x
        return type(x)(x.name, tuple(map(fn, x.args, repeat(depth))))
    if not binders:
        return x
    return type(x)(*map(fn, map(getattr, repeat(x), x.__match_args__),
                        map(add, binders, repeat(depth))))


def shift(x, cutoff: int, amount: int):
    """Add `amount` to every variable level >= cutoff.

    Weakening a term from a context of length k into one of length n is
    shift(x, k, n - k): free variables stay put, binder levels move clear of
    the new entries.
    """
    if amount == 0:
        return x

    def go(y, _):
        if isinstance(y, Var):
            return Var(y.level + amount) if y.level >= cutoff else y
        return map_children(y, go, 0)
    return go(x, 0)


def substitute(x, depth: int, replacement, scope: int):
    """Replace Var(depth) by `replacement` and close the gap.

    `x` lives in a context of length `scope`; `replacement` in that context
    with entry `depth` removed (so its levels >= depth already refer to the
    shortened numbering).  Levels above `depth` in `x` are decremented,
    including binder levels.  When the replacement is inserted under binders
    of `x`, its own binder levels are shifted clear of them.
    """
    def go(y, binders):
        if isinstance(y, Var):
            if y.level == depth:
                return shift(replacement, scope - 1, binders)
            return Var(y.level - 1) if y.level > depth else y
        return map_children(y, go, binders)
    return go(x, 0)


def instantiate(body, base: int, values):
    """Substitute a whole binder region at once.

    `body` lives in a context of length base + len(values); every value in one
    of length `base`.  Returns the body over the base context.
    """
    out = body
    for j in reversed(range(len(values))):
        out = substitute(out, base + j, shift(values[j], base, j), base + j + 1)
    return out


def instantiate_closed(body, arity: int, args, scope: int):
    """Instantiate a signature-level body (closed over its own telescope of
    length `arity`) at argument terms living in a context of length `scope`.

    Levels < arity become the arguments; internal binder levels are
    renumbered past the ambient context.
    """
    args = tuple(args)

    def go(y, binders):
        if isinstance(y, Var):
            if y.level < arity:
                return shift(args[y.level], scope, binders)
            return Var(y.level - arity + scope)
        return map_children(y, go, binders)
    return go(body, 0)


def elim_contexts(ctx, carrier, theta, right: bool):
    """The contexts of an eliminator's base case and of its motive D.

    The base case binds (s : core T, th); its prefix ctx + (s : core T) is
    where the motive `theta` lives.  D binds (s, t, f, th): on the right
    (s : core T, t : T, f : hom T (iop s) t, th[s]), on the left
    (s : op T, t : core T, f : hom T s (i t), th[t]).
    """
    n = len(ctx)
    ctx_b = ctx + (("s", Core(carrier)), ("th", theta))
    if right:
        ctx_d = ctx + (
            ("s", Core(carrier)),
            ("t", shift(carrier, n, 1)),
            ("f", Hom(shift(carrier, n, 2), IncOp(Var(n)), Var(n + 1))),
            ("th", shift(theta, n + 1, 2)),
        )
    else:
        ctx_d = ctx + (
            ("s", Op(carrier)),
            ("t", Core(shift(carrier, n, 1))),
            ("f", Hom(shift(carrier, n, 2), Var(n), IncCore(Var(n + 1)))),
            ("th", shift(shift(theta, n, 1), n + 2, 1)),
        )
    return ctx_b, ctx_d


def eliminator_count(x) -> int:
    """Number of ElimR/ElimL nodes anywhere in x, annotations included.

    This is the termination measure for `reduce`: every contraction must
    strictly decrease it.
    """
    own = 1 if isinstance(x, (ElimR, ElimL)) else 0
    return own + sum(eliminator_count(c) for c, _ in children(x))


def _core(inner):
    """core (op T) and core T are definitionally the same type; the normal
    form drops the op layers."""
    while isinstance(inner, Op):
        inner = inner.inner
    return Core(inner)


def reduce(x, depth: int = 0):
    """Rewrite to normal form.

    The rewrite system has two rules, closed under full congruence (motive
    annotations included):

        elimR[Th; D; d](one s, th)  ->  d[s, th]
        elimL[Th; D; d](one s, th)  ->  d[s, th]

    `depth` is the length of the ambient context; binder bodies are reduced
    at the appropriately extended depth.
    """
    if isinstance(x, Core):
        return _core(reduce(x.inner, depth))
    out = map_children(x, reduce, depth)
    if not (isinstance(out, (ElimR, ElimL)) and isinstance(out.f, One)):
        return out
    before = eliminator_count(out)
    contracted = instantiate(out.base, depth, (out.f.arg, out.theta))
    after = eliminator_count(contracted)
    if after >= before:
        raise InternalError(
            f"reduce: eliminator count did not decrease ({before} -> {after})")
    # the contractum may expose new redexes (e.g. a unit that was hidden in
    # the th argument); renormalize.
    return reduce(contracted, depth)


def _collapse(x, _depth=0):
    """Rewrite core (op T) to core T everywhere, without reducing terms."""
    if isinstance(x, Core):
        return _core(_collapse(x.inner))
    return map_children(x, _collapse, 0)


def alpha_equal(a, b) -> bool:
    """Structural equality of expressions.

    De Bruijn levels make this plain equality, except that core (op T) and
    core T are identified.
    """
    return _collapse(a) == _collapse(b)
