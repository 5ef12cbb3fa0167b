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

from dataclasses import dataclass

from . import kernel as k
from . import parser as ps


class CheckError(Exception):
    def __init__(self, msg, premise=None):
        super().__init__(f"premise {premise}: {msg}" if premise else msg)
        self.msg = msg
        self.premise = premise


@dataclass(frozen=True)
class Derivation:
    rule: str
    conclusion: object
    premises: tuple = ()

    def rules(self):
        """All rule names in the tree, preorder.  Handy for audits."""
        out = [self.rule]
        for p in self.premises:
            out.extend(p.rules())
        return out


class Signature:
    """Base types, assumed constants, and definitions, in declaration order.

    Entries are validated on insertion, so a Signature is well-formed by
    construction unless built through the unchecked add_* methods (used to
    keep going after a bad declaration when checking whole files).
    """

    def __init__(self):
        self.bases = {}
        self.consts = {}
        self.defs = {}

    def copy(self):
        out = Signature()
        out.bases = dict(self.bases)
        out.consts = dict(self.consts)
        out.defs = dict(self.defs)
        return out

    def _fresh(self, name):
        if name in self.bases or name in self.consts or name in self.defs:
            raise CheckError(f"duplicate name {name!r}")

    def arity(self, name):
        if name in self.bases:
            return len(self.bases[name])
        if name in self.consts:
            return len(self.consts[name][0])
        return len(self.defs[name][0])

    def assume_type(self, name, tele=()):
        self._fresh(name)
        check_telescope(self, tele)
        self.add_base(name, tele)

    def assume_term(self, name, tele, ty):
        self._fresh(name)
        ctx = check_telescope(self, tele)
        check_type(self, ctx, ty)
        self.add_const(name, tele, ty)

    def define(self, name, tele, ty, body):
        self._fresh(name)
        ctx = check_telescope(self, tele)
        check_type(self, ctx, ty)
        drv = check_term(self, ctx, body, ty)
        self.add_def(name, tele, ty, body)
        return drv

    def add_base(self, name, tele):
        self.bases[name] = tuple(tele)

    def add_const(self, name, tele, ty):
        self.consts[name] = (tuple(tele), ty)

    def add_def(self, name, tele, ty, body):
        self.defs[name] = (tuple(tele), ty, body)


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
    """Expand every defined constant in x, arguments first."""
    if isinstance(x, k.Const) and x.name in sig.defs:
        tele, _, body = sig.defs[x.name]
        args = tuple(_delta(sig, a, scope) for a in x.args)
        return _delta(sig, k.instantiate_closed(body, len(tele), args, scope),
                      scope)
    return k.map_children(x, lambda y, depth: _delta(sig, y, depth), scope)


def nf(sig, x, scope=0):
    """Normal form: expand definitions everywhere, then reduce.

    Expansion is recursive, so one pass leaves no defined heads, and
    reduction never reintroduces any; a single round is a fixpoint.
    """
    return k.reduce(_delta(sig, x, scope), scope)


def def_equal_types(sig, scope, a, b):
    return k.alpha_equal(nf(sig, a, scope), nf(sig, b, scope))


def def_equal(sig, ctx, a, b, ty):
    check_term(sig, ctx, a, ty)
    check_term(sig, ctx, b, ty)
    n = len(ctx)
    return k.alpha_equal(nf(sig, a, n), nf(sig, b, n))


# ---------------------------------------------------------------------------
# formation


def check_type(sig, ctx, ty):
    match ty:
        case k.BaseT(name, args):
            tele = sig.bases.get(name)
            if tele is None:
                raise CheckError(f"unknown base type {name!r}")
            prems = _check_args(sig, ctx, name, tele, args)
            return Derivation("Subst", k.IsType(ctx, ty), prems)
        case k.Core(inner):
            prem = check_type(sig, ctx, inner)
            return Derivation("CoreForm", k.IsType(ctx, ty), (prem,))
        case k.Op(inner):
            prem = check_type(sig, ctx, inner)
            return Derivation("OpForm", k.IsType(ctx, ty), (prem,))
        case k.Hom(car, s, t):
            d1 = check_type(sig, ctx, car)
            d2 = check_term(sig, ctx, s, k.Op(car))
            d3 = check_term(sig, ctx, t, car)
            return Derivation("HomForm", k.IsType(ctx, ty), (d1, d2, d3))
    raise CheckError(f"not a type: {ty!r}")


def _check_args(sig, ctx, name, tele, args):
    n = len(ctx)
    if len(args) != len(tele):
        raise CheckError(
            f"{name!r} expects {len(tele)} argument(s), got {len(args)}")
    prems = []
    for j, arg in enumerate(args):
        expected = k.instantiate_closed(tele[j][1], j, tuple(args[:j]), n)
        prems.append(check_term(sig, ctx, arg, expected))
    return tuple(prems)


# ---------------------------------------------------------------------------
# terms


def infer_term(sig, ctx, tm):
    return _infer(sig, ctx, tm)[0]


def derive_term(sig, ctx, tm):
    return _infer(sig, ctx, tm)[1]


def check_term(sig, ctx, tm, ty):
    got, drv = _infer(sig, ctx, tm)
    if k.alpha_equal(got, ty):
        return drv
    if def_equal_types(sig, len(ctx), got, ty):
        return Derivation("ConvEq", k.HasType(ctx, tm, ty), (drv,))
    env = _names(ctx)
    raise CheckError(f"expected {ps.print_type(ty, env)}, "
                     f"inferred {ps.print_type(got, env)}")


def _infer(sig, ctx, tm):
    n = len(ctx)
    match tm:
        case k.Var(lv):
            if not 0 <= lv < n:
                raise CheckError(
                    f"variable level {lv} out of scope (context has {n} entries)")
            ty = k.shift(ctx[lv][1], lv, n - lv)
            drv = Derivation("Var", k.HasType(ctx[:lv + 1], tm,
                                              k.shift(ctx[lv][1], lv, 1)))
            if lv + 1 < n:
                drv = Derivation("Weaken", k.HasType(ctx, tm, ty), (drv,))
            return ty, drv
        case k.Const(name, args):
            if name in sig.consts:
                tele, ty = sig.consts[name]
            elif name in sig.defs:
                tele, ty, _ = sig.defs[name]
            else:
                if name in sig.bases:
                    raise CheckError(f"{name!r} is a type, not a term")
                raise CheckError(f"unknown constant {name!r}")
            prems = _check_args(sig, ctx, name, tele, args)
            out = k.instantiate_closed(ty, len(tele), tuple(args), n)
            return out, Derivation("Subst", k.HasType(ctx, tm, out), prems)
        case k.IncCore(t):
            x, prem = _core_typed(sig, ctx, t, "i")
            return x, Derivation("IInc", k.HasType(ctx, tm, x), (prem,))
        case k.IncOp(t):
            x, prem = _core_typed(sig, ctx, t, "iop")
            out = k.Op(x)
            return out, Derivation("IOpInc", k.HasType(ctx, tm, out), (prem,))
        case k.One(t):
            x, prem = _core_typed(sig, ctx, t, "one")
            out = k.Hom(x, k.IncOp(t), k.IncCore(t))
            return out, Derivation("HomIntro", k.HasType(ctx, tm, out), (prem,))
        case k.ElimR():
            return _infer_elim(sig, ctx, tm, right=True)
        case k.ElimL():
            return _infer_elim(sig, ctx, tm, right=False)
    raise CheckError(f"not a term: {tm!r}")


def _core_typed(sig, ctx, t, former):
    """Infer t and insist its type is core; returns the underlying type."""
    ty, drv = _infer(sig, ctx, t)
    ty_nf = nf(sig, ty, len(ctx))
    match ty_nf:
        case k.Core(x):
            return x, drv
    raise CheckError(f"{former} expects a core element, found one of type "
                     f"{ps.print_type(ty_nf, _names(ctx))}")


def _premise(idx, label, thunk):
    try:
        return thunk()
    except CheckError as err:
        raise CheckError(f"{label}: {err.args[0]}", premise=idx) from None


def _infer_elim(sig, ctx, e, right):
    n = len(ctx)
    th, dm, base = e.motive_theta, e.motive_d, e.base
    rule = "ElimR" if right else "ElimL"
    kw = "elimR" if right else "elimL"
    env = _names(ctx)

    f_ty, f_drv = _premise(1, f"{kw} eliminated argument",
                           lambda: _infer(sig, ctx, e.f))
    f_nf = nf(sig, f_ty, n)
    match f_nf:
        case k.Hom(car, k.IncOp(sv), tv) if right:
            carrier, s_val, t_val = car, sv, tv
        case k.Hom(car, sv, k.IncCore(tv)) if not right:
            carrier, s_val, t_val = car, sv, tv
        case k.Hom():
            side = "source is not an iop image" if right \
                else "target is not an i image"
            raise CheckError(f"{kw} eliminated argument: {side} "
                             f"(type {ps.print_type(f_nf, env)})", premise=1)
        case _:
            raise CheckError(f"{kw} eliminated argument has type "
                             f"{ps.print_type(f_nf, env)}, expected a hom type",
                             premise=1)

    ctx_base, ctx_d = k.elim_contexts(ctx, carrier, th, right)
    th_drv = _premise(2, f"{kw} first motive",
                      lambda: check_type(sig, ctx_base[:-1], th))
    dm_drv = _premise(3, f"{kw} second motive",
                      lambda: check_type(sig, ctx_d, dm))

    # expected type of the base case: the four-binder motive with the f slot
    # set to a unit and the middle variable to the matching inclusion image
    if right:
        expected = k.substitute(dm, n + 2, k.One(k.Var(n)), n + 4)
        expected = k.substitute(expected, n + 1, k.IncCore(k.Var(n)), n + 3)
    else:
        expected = k.substitute(dm, n, k.IncOp(k.Var(n)), n + 4)
        expected = k.substitute(expected, n + 1, k.One(k.Var(n)), n + 3)
    base_drv = _premise(4, f"{kw} base case",
                        lambda: check_term(sig, ctx_base, base, expected))

    anchor = s_val if right else t_val
    th_arg_ty = k.instantiate(th, n, (anchor,))
    theta_drv = _premise(None, f"{kw} hom argument",
                         lambda: check_term(sig, ctx, e.theta, th_arg_ty))

    out = k.instantiate(dm, n, (s_val, t_val, e.f, e.theta))
    drv = Derivation(rule, k.HasType(ctx, e, out),
                     (f_drv, th_drv, dm_drv, base_drv, theta_drv))
    return out, drv


# ---------------------------------------------------------------------------
# whole files


@dataclass(frozen=True)
class Record:
    kind: str
    subject: str
    ok: bool
    detail: str
    line: int = 0


def check_source(source, sig=None):
    """Check every declaration, one report record each.

    A failed assume/define is still entered into the signature so later
    declarations produce their own diagnostics instead of cascades.
    """
    sig = sig.copy() if sig is not None else Signature()
    records = []
    counter = 0
    for decl in source.decls:
        env = _names(decl.telescope)
        n = len(decl.telescope)
        match decl:
            case ps.AssumeType(name, tele):
                try:
                    sig._fresh(name)
                    check_telescope(sig, tele)
                    rec = Record("assume-type", name, True, "Type", decl.line)
                except CheckError as err:
                    rec = Record("assume-type", name, False, str(err), decl.line)
                sig.add_base(name, tele)
            case ps.AssumeTerm(name, tele, ty):
                try:
                    sig._fresh(name)
                    ctx = check_telescope(sig, tele)
                    check_type(sig, ctx, ty)
                    rec = Record("assume-term", name, True,
                                 ps.print_type(ty, env), decl.line)
                except CheckError as err:
                    rec = Record("assume-term", name, False, str(err), decl.line)
                sig.add_const(name, tele, ty)
            case ps.Define(name, tele, ty, body):
                try:
                    sig._fresh(name)
                    ctx = check_telescope(sig, tele)
                    check_type(sig, ctx, ty)
                    check_term(sig, ctx, body, ty)
                    detail = (f"{ps.print_type(ty, env)} := "
                              f"{ps.print_term(nf(sig, body, n), env)}")
                    rec = Record("define", name, True, detail, decl.line)
                except CheckError as err:
                    rec = Record("define", name, False, str(err), decl.line)
                sig.add_def(name, tele, ty, body)
            case ps.AssertType(tele, ty):
                counter += 1
                subject = f"assert#{counter}"
                try:
                    ctx = check_telescope(sig, tele)
                    check_type(sig, ctx, ty)
                    rec = Record("assert-type", subject, True,
                                 ps.print_type(ty, env), decl.line)
                except CheckError as err:
                    rec = Record("assert-type", subject, False, str(err),
                                 decl.line)
            case ps.AssertEqual(tele, lhs, rhs, ty):
                counter += 1
                subject = f"assert#{counter}"
                try:
                    ctx = check_telescope(sig, tele)
                    check_type(sig, ctx, ty)
                    check_term(sig, ctx, lhs, ty)
                    check_term(sig, ctx, rhs, ty)
                    l_nf, r_nf = nf(sig, lhs, n), nf(sig, rhs, n)
                    if k.alpha_equal(l_nf, r_nf):
                        rec = Record("assert-equal", subject, True,
                                     f"both sides reduce to "
                                     f"{ps.print_term(l_nf, env)}", decl.line)
                    else:
                        rec = Record(
                            "assert-equal", subject, False,
                            f"left reduces to {ps.print_term(l_nf, env)}, "
                            f"right to {ps.print_term(r_nf, env)}", decl.line)
                except CheckError as err:
                    rec = Record("assert-equal", subject, False, str(err),
                                 decl.line)
            case _:
                raise k.InternalError(f"unknown declaration {decl!r}")
        records.append(rec)
    return sig, records


# ---------------------------------------------------------------------------
# derived terms


def _require_base(sig, name):
    if sig is None:
        return
    if name not in sig.bases or sig.bases[name]:
        raise CheckError(
            f"signature has no base type {name!r} with an empty telescope")


def _require_family(sig, name, over):
    if sig is None:
        return
    tele = sig.bases.get(name)
    if tele is None or len(tele) != 1 or not k.alpha_equal(tele[0][1], over):
        raise CheckError(f"signature has no type family {name!r} over "
                         f"{ps.print_type(over)}")


def derive_transport(side, sig=None, carrier="T", family="S"):
    """The transport term as an explicit eliminator instance.

    Right: (t : core T, t' : T, f : hom T (iop t) t', s : S(i t)) : S(t'),
    realized by eliminating f with a first motive S(i _) and a second
    motive that only looks at the middle telescope variable.  The left
    variant transports along f : hom T t' (i t) with S a family over op T.
    """
    T = k.BaseT(carrier)
    _require_base(sig, carrier)

    def S(a):
        return k.BaseT(family, (a,))

    if side == "right":
        _require_family(sig, family, T)
        tele = (("t", k.Core(T)), ("t'", T),
                ("f", k.Hom(T, k.IncOp(k.Var(0)), k.Var(1))),
                ("s", S(k.IncCore(k.Var(0)))))
        body = k.ElimR(S(k.IncCore(k.Var(4))), S(k.Var(5)), k.Var(5),
                       k.Var(2), k.Var(3))
        return ps.Define("transport_R", tele, S(k.Var(1)), body)
    if side == "left":
        _require_family(sig, family, k.Op(T))
        tele = (("t", k.Core(T)), ("t'", k.Op(T)),
                ("f", k.Hom(T, k.Var(1), k.IncCore(k.Var(0)))),
                ("s", S(k.IncOp(k.Var(0)))))
        body = k.ElimL(S(k.IncOp(k.Var(4))), S(k.Var(4)), k.Var(5),
                       k.Var(2), k.Var(3))
        return ps.Define("transport_L", tele, S(k.Var(1)), body)
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def derive_comp(side, sig=None, carrier="T"):
    """Composition via transport in a hom family.

    Both variants share the telescope
    (r : op T, s : core T, t : T, f : hom T r (i s), g : hom T (iop s) t)
    and produce hom T r t.  The right variant eliminates g (so the
    right unit law comp(f, one s) == f is a single computation step);
    the left variant eliminates f.
    """
    T = k.BaseT(carrier)
    _require_base(sig, carrier)
    tele = (("r", k.Op(T)), ("s", k.Core(T)), ("t", T),
            ("f", k.Hom(T, k.Var(0), k.IncCore(k.Var(1)))),
            ("g", k.Hom(T, k.IncOp(k.Var(1)), k.Var(2))))
    ty = k.Hom(T, k.Var(0), k.Var(2))
    if side == "right":
        body = k.ElimR(k.Hom(T, k.Var(0), k.IncCore(k.Var(5))),
                       k.Hom(T, k.Var(0), k.Var(6)), k.Var(6),
                       k.Var(4), k.Var(3))
        return ps.Define("comp_R", tele, ty, body)
    if side == "left":
        body = k.ElimL(k.Hom(T, k.IncOp(k.Var(5)), k.Var(2)),
                       k.Hom(T, k.Var(5), k.Var(2)), k.Var(6),
                       k.Var(3), k.Var(4))
        return ps.Define("comp_L", tele, ty, body)
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")
