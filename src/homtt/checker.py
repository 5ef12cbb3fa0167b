"""Bidirectional type checker for the hom calculus.

Layout of an eliminator check (n = ambient context length):

    premise 1   the eliminated argument f; its inferred type names the
                carrier T and, through its endpoints, the values that
                instantiate the motives
    premise 2   the one-binder motive over (ctx, s : core T)
    premise 3   the four-binder motive over the eliminator telescope
    premise 4   the base case over (ctx, s : core T, th)

Failures inside a premise are reported with that premise index.
Eliminations and variables infer; everything checks against the inferred
type up to definitional equality (delta-expansion of `define` bodies
followed by reduction).
"""

from __future__ import annotations

from . import kernel as k
from . import parser as ps


class CheckError(Exception):
    def __init__(self, msg, premise=None):
        super().__init__(f"premise {premise}: {msg}" if premise else msg)


class Signature:
    """Base types, assumed constants, and definitions, in declaration order.

    assume_type, assume_term and define check a declaration and then enter
    it, also when the check raises (the error still propagates), so that
    whole-file checking goes on past a bad declaration without cascades.
    A failed check leaves the declaration entered unchecked; a Signature
    is well-formed when every declaration passed.  A definition is stored
    as (telescope, type, body, expanded body).

    `memo` keeps what nf, infer_term and check_type returned, and which
    eliminator headers passed premises 2-4 in which context and at which
    carrier (never a failure); entering a name that is already known
    clears it.
    """

    def __init__(self):
        self.bases = {}
        self.consts = {}
        self.defs = {}
        self.memo = {}

    def _known(self, name):
        return name in self.bases or name in self.consts or name in self.defs

    def _fresh(self, name):
        if self._known(name):
            raise CheckError(f"duplicate name {name!r}")

    def assume_type(self, name, tele=()):
        tele = tuple(tele)
        try:
            self._fresh(name)
            check_telescope(self, tele)
        finally:
            self._enter(self.bases, name, tele)

    def assume_term(self, name, tele, ty):
        tele = tuple(tele)
        try:
            self._fresh(name)
            check_type(self, check_telescope(self, tele), ty)
        finally:
            self._enter(self.consts, name, (tele, ty))

    def define(self, name, tele, ty, body):
        tele = tuple(tele)
        try:
            self._fresh(name)
            ctx = check_telescope(self, tele)
            check_type(self, ctx, ty)
            check_term(self, ctx, body, ty)
        finally:
            self._enter(self.defs, name,
                        (tele, ty, body, _delta(self, body, len(tele))))

    def _enter(self, table, name, entry):
        if self._known(name):
            self.memo.clear()
        table[name] = entry


def _names(ctx):
    return [nm for nm, _ in ctx]


def check_telescope(sig, tele):
    ctx = ()
    for name, ty in tele:
        check_type(sig, ctx, ty)
        ctx = ctx + ((name, ty),)
    return ctx


# ---------------------------------------------------------------------------
# normalization (delta + reduce)


def _delta(sig, x, scope):
    """Expand every defined constant in x; a subtree without one is kept.

    A definition keeps its body expanded over its own telescope (the last
    field of Signature.defs), so a use only instantiates it at the expanded
    arguments: substitution brings in no defined heads, so the result needs
    no second walk.
    """
    if not any(map(sig.defs.__contains__, x.names)):
        return x
    if isinstance(x, k.Const) and x.name in sig.defs:
        tele, _, _, expanded = sig.defs[x.name]
        args = tuple(_delta(sig, a, scope) for a in x.args)
        return k.instantiate(expanded, 0, args, scope)
    return k.map_children(x, lambda y, depth: _delta(sig, y, depth), scope)


def nf(sig, x, scope=0):
    """Normal form: expand definitions everywhere, then reduce.

    Expansion is recursive, so one pass leaves no defined heads, and
    reduction never reintroduces any; a single round is a fixpoint.  The
    memo keeps it only when every name in x is declared: a definition
    entered later could change it otherwise.
    """
    key = ("nf", x, scope)
    if key in sig.memo:
        return sig.memo[key]
    out = k.reduce(_delta(sig, x, scope), scope)
    if all(map(sig._known, x.names)):
        sig.memo[key] = out
    return out


def def_equal_types(sig, scope, a, b):
    return nf(sig, a, scope) == nf(sig, b, scope)


# ---------------------------------------------------------------------------
# formation


def check_type(sig, ctx, ty):
    key = ("type", ctx, ty)
    if key in sig.memo:
        return
    match ty:
        case k.BaseT(name, args):
            tele = sig.bases.get(name)
            if tele is None:
                raise CheckError(f"unknown base type {name!r}")
            _check_args(sig, ctx, name, tele, args)
        case k.Core(inner) | k.Op(inner):
            check_type(sig, ctx, inner)
        case k.Hom(car, s, t):
            check_type(sig, ctx, car)
            check_term(sig, ctx, s, k.Op(car))
            check_term(sig, ctx, t, car)
        case _:
            raise CheckError(f"not a type: {ty!r}")
    sig.memo[key] = None


def _check_args(sig, ctx, name, tele, args):
    n = len(ctx)
    if len(args) != len(tele):
        raise CheckError(
            f"{name!r} expects {len(tele)} argument(s), got {len(args)}")
    for j, arg in enumerate(args):
        expected = k.instantiate(tele[j][1], 0, args[:j], n)
        check_term(sig, ctx, arg, expected)


# ---------------------------------------------------------------------------
# terms


def check_term(sig, ctx, tm, ty):
    got = infer_term(sig, ctx, tm)
    if got != ty and not def_equal_types(sig, len(ctx), got, ty):
        env = _names(ctx)
        raise CheckError(f"expected {ps.print_type(ty, env)}, "
                         f"inferred {ps.print_type(got, env)}")


def infer_term(sig, ctx, tm):
    key = ("infer", ctx, tm)
    if key in sig.memo:
        return sig.memo[key]
    n = len(ctx)
    match tm:
        case k.Var(lv):
            if not 0 <= lv < n:
                raise CheckError(
                    f"variable level {lv} out of scope (context has {n} entries)")
            ty = k.shift(ctx[lv][1], lv, n - lv)
        case k.Const(name, args):
            if name in sig.consts:
                tele, ty = sig.consts[name]
            elif name in sig.defs:
                tele, ty, _, _ = sig.defs[name]
            else:
                if name in sig.bases:
                    raise CheckError(f"{name!r} is a type, not a term")
                raise CheckError(f"unknown constant {name!r}")
            _check_args(sig, ctx, name, tele, args)
            ty = k.instantiate(ty, 0, args, n)
        case k.IncCore(t):
            ty = _core_typed(sig, ctx, t, "i")
        case k.IncOp(t):
            ty = k.Op(_core_typed(sig, ctx, t, "iop"))
        case k.One(t):
            x = _core_typed(sig, ctx, t, "one")
            ty = k.Hom(x, k.IncOp(t), k.IncCore(t))
        case k.ElimR() | k.ElimL():
            ty = _infer_elim(sig, ctx, tm)
        case _:
            raise CheckError(f"not a term: {tm!r}")
    sig.memo[key] = ty
    return ty


def _core_typed(sig, ctx, t, former):
    """Infer t and insist its type is core; returns the underlying type."""
    ty_nf = nf(sig, infer_term(sig, ctx, t), len(ctx))
    match ty_nf:
        case k.Core(x):
            return x
    raise CheckError(f"{former} expects a core element, found one of type "
                     f"{ps.print_type(ty_nf, _names(ctx))}")


def _premise(idx, label, thunk):
    try:
        return thunk()
    except CheckError as err:
        raise CheckError(f"{label}: {err.args[0]}", premise=idx) from None


def elim_hom(sig, ctx, e):
    """Premise 1: the eliminated argument's hom type, read as
    (right, T, s, t).  elimR eats hom T (iop s) t, elimL eats
    hom T s (i t)."""
    right = isinstance(e, k.ElimR)
    kw = "elimR" if right else "elimL"
    f_nf = nf(sig, _premise(1, f"{kw} eliminated argument",
                            lambda: infer_term(sig, ctx, e.f)), len(ctx))
    match f_nf:
        case k.Hom(car, k.IncOp(s), t) if right:
            return right, car, s, t
        case k.Hom(car, s, k.IncCore(t)) if not right:
            return right, car, s, t
    shown = ps.print_type(f_nf, _names(ctx))
    if isinstance(f_nf, k.Hom):
        side = "source is not an iop image" if right \
            else "target is not an i image"
        raise CheckError(f"{kw} eliminated argument: {side} (type {shown})",
                         premise=1)
    raise CheckError(f"{kw} eliminated argument has type {shown}, "
                     "expected a hom type", premise=1)


def _infer_elim(sig, ctx, e):
    n = len(ctx)
    th, dm, base = e.motive_theta, e.motive_d, e.base
    right, carrier, s_val, t_val = elim_hom(sig, ctx, e)
    kw = "elimR" if right else "elimL"

    # premises 2-4 read only the context, the side, the carrier and the
    # header, so they are checked once for each; a failure is never kept
    key = ("elim", ctx, right, carrier, th, dm, base)
    if key not in sig.memo:
        ctx_base, ctx_d = k.elim_contexts(ctx, carrier, th, right)
        _premise(2, f"{kw} first motive",
                 lambda: check_type(sig, ctx_base[:-1], th))
        _premise(3, f"{kw} second motive", lambda: check_type(sig, ctx_d, dm))

        # expected type of the base case: the four-binder motive at the unit
        # of the core point p = s, (p, i p, one p, th) on the right and
        # (iop p, p, one p, th) on the left
        p = k.Var(n)
        ends = (p, k.IncCore(p)) if right else (k.IncOp(p), p)
        expected = k.instantiate(dm, n, (*ends, k.One(p), k.Var(n + 1)),
                                 n + 2)
        _premise(4, f"{kw} base case",
                 lambda: check_term(sig, ctx_base, base, expected))
        sig.memo[key] = None

    anchor = s_val if right else t_val
    th_arg_ty = k.instantiate(th, n, (anchor,))
    _premise(None, f"{kw} hom argument",
             lambda: check_term(sig, ctx, e.theta, th_arg_ty))

    return k.instantiate(dm, n, (s_val, t_val, e.f, e.theta))


# ---------------------------------------------------------------------------
# whole files


_CHECKS = {ps.AssumeType: "assume-type", ps.AssumeTerm: "assume-term",
           ps.Define: "define", ps.AssertType: "assert-type",
           ps.AssertEqual: "assert-equal"}


def check_source(source):
    """Check every declaration, one report record each.

    A failed assume/define is still entered into the signature (see
    Signature), so later declarations produce their own records instead
    of cascades.
    """
    sig = Signature()
    records = []
    asserts = 0
    for decl in source.decls:
        check = _CHECKS.get(type(decl))
        if check is None:
            raise k.InternalError(f"unknown declaration {decl!r}")
        if check.startswith("assert"):
            asserts += 1
            subject = f"assert#{asserts}"
        else:
            subject = decl.name
        try:
            ok, detail = _check_decl(sig, decl)
        except CheckError as err:
            ok, detail = False, str(err)
        records.append(k.Record(subject, check, ok, detail))
    return sig, records


def _check_decl(sig, decl):
    """Check one declaration, entering it into sig: (verdict, detail)."""
    env = _names(decl.telescope)
    n = len(env)
    match decl:
        case ps.AssumeType(name, tele):
            sig.assume_type(name, tele)
            return True, "Type"
        case ps.AssumeTerm(name, tele, ty):
            sig.assume_term(name, tele, ty)
            return True, ps.print_type(ty, env)
        case ps.Define(name, tele, ty, body):
            sig.define(name, tele, ty, body)
            body_nf = k.reduce(sig.defs[name][3], n)
            return True, (f"{ps.print_type(ty, env)} := "
                          f"{ps.print_term(body_nf, env)}")
        case ps.AssertType(tele, ty):
            check_type(sig, check_telescope(sig, tele), ty)
            return True, ps.print_type(ty, env)
        case ps.AssertEqual(tele, lhs, rhs, ty):
            ctx = check_telescope(sig, tele)
            check_type(sig, ctx, ty)
            check_term(sig, ctx, lhs, ty)
            check_term(sig, ctx, rhs, ty)
            l_nf, r_nf = nf(sig, lhs, n), nf(sig, rhs, n)
            if l_nf == r_nf:
                return True, f"both sides reduce to {ps.print_term(l_nf, env)}"
            return False, (f"left reduces to {ps.print_term(l_nf, env)}, "
                           f"right to {ps.print_term(r_nf, env)}")
