"""Surface-level helpers the tests share.

The derived transport and composition terms as explicit eliminator
instances (corpus/transport.dtt and corpus/comp.dtt state the same
derivations in surface syntax), and a printer from declarations back to
.dtt text.
"""

from homtt import checker as ch
from homtt import kernel as k
from homtt import parser as ps


# ---------------------------------------------------------------------------
# derived terms


def _require_base(sig, name):
    if sig is None:
        return
    if name not in sig.bases or sig.bases[name]:
        raise ch.CheckError(
            f"signature has no base type {name!r} with an empty telescope")


def _require_family(sig, name, over):
    if sig is None:
        return
    tele = sig.bases.get(name)
    if tele is None or len(tele) != 1 or tele[0][1] != over:
        raise ch.CheckError(f"signature has no type family {name!r} over "
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


# ---------------------------------------------------------------------------
# printing declarations


def print_telescope(tele):
    if not tele:
        return ""
    env = []
    parts = []
    for name, ty in tele:
        parts.append(f"{name} : {ps.print_type(ty, env)}")
        env.append(name)
    return "(" + ", ".join(parts) + ")"


def print_decl(decl):
    tele = print_telescope(decl.telescope) if decl.telescope else ""
    tele = f" {tele}" if tele else ""
    env = [nm for nm, _ in decl.telescope]
    match decl:
        case ps.AssumeType(name, _):
            return f"assume {name}{tele} : Type"
        case ps.AssumeTerm(name, _, ty):
            return f"assume {name}{tele} : {ps.print_type(ty, env)}"
        case ps.Define(name, _, ty, body):
            return (f"define {name}{tele} : {ps.print_type(ty, env)}"
                    f" := {ps.print_term(body, env)}")
        case ps.AssertType(_, ty):
            return f"assert type{tele} {ps.print_type(ty, env)}"
        case ps.AssertEqual(_, lhs, rhs, ty):
            return (f"assert{tele} {ps.print_term(lhs, env)} == "
                    f"{ps.print_term(rhs, env)} : {ps.print_type(ty, env)}")
    raise k.InternalError(f"print_decl: {decl!r}")


def print_source(source):
    return "\n".join(print_decl(d) for d in source.decls) + "\n"
