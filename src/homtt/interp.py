"""Finite categorical semantics for checked syntax.

A context is interpreted as a finite category whose objects are tuples,
one component per telescope entry; a type in that context becomes a
fiber assignment over it, and a term a section.  Each context step is a
Grothendieck extension flattened so paths through nested totals stay
single tuples.

The eliminators use the transport construction over the extension
C.core.T.hom.theta: the seed section is carried along the canonical
morphism from the unit image (s, s, 1_s) to each point (s, t, f).  The
left-handed eliminator is routed through the mirror of that extension
with the hom slot reversed, so both share one engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from . import checker as ch
from . import fincat as fc
from . import kernel as k
from . import parser as ps

_show = fc._fmt


class InterpError(Exception):
    """A semantic environment entry is missing or cannot be resolved."""


@dataclass
class SemanticEnv:
    """Meanings for the assumed part of a signature.

    bases maps a base type name to a fiber assignment over the interpreted
    telescope of its declaration; terms maps an assumed constant name to a
    section of its declared type's assignment.  Defined names need no
    entry: they are expanded before interpretation.
    """

    bases: dict = field(default_factory=dict)
    terms: dict = field(default_factory=dict)


@dataclass
class InterpResult:
    """One judgement's interpretation plus its verification records."""

    ctx_cat: fc.FinCat
    ty: fc.FiberAssignment
    term: fc.Section | None
    records: tuple


@dataclass(frozen=True)
class VerifyRecord:
    subject: str
    check: str
    ok: bool
    detail: str = ""


def format_records(records):
    """One tab-separated line per record: check, subject, verdict, detail."""
    lines = ["\t".join([r.check, r.subject, "ok" if r.ok else "FAIL",
                        r.detail])
             for r in records]
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# context categories


def terminal_ctx():
    """The empty context: one object, the empty tuple, and its identity.

    The identity's name is the empty tuple as well, so that morphism names
    in every extension are exactly the tuples of their slot components.
    """
    i = fc.Mor((), (), ())
    return fc.FinCat([()], [i], {(): i}, {(i, i): i})


@dataclass
class Extension:
    """One comprehension step over a tuple-shaped base."""

    cat: fc.FinCat             # the extended context
    fa: fc.FiberAssignment     # what the base was extended by
    proj: fc.Functor           # cat -> base, dropping the last slot
    last: fc.Section           # the fresh variable, over reindex(fa, proj)
    groth: fc.GrothTotal       # the unflattened total, kept for lift users


def extend(base, fa):
    gt = fc.groth(base, fa)
    flat, mor_map = fc.relabel(
        gt.total,
        lambda o: o[0] + (o[1],),
        lambda m: m.name[0].name + (m.name[1],))
    proj = fc.Functor(flat, base,
                      {o: o[:-1] for o in flat.objects},
                      {mor_map[m]: m.name[0] for m in gt.total.morphisms})
    last = fc.Section(fc.reindex(fa, proj),
                      {o: o[-1] for o in flat.objects},
                      {m: m.name[-1] for m in flat.morphisms})
    return Extension(flat, fa, proj, last, gt)


def collapse_functor(c):
    """The unique functor into the empty-context category."""
    t = terminal_ctx()
    i = t.identity[()]
    return fc.Functor(c, t, {x: () for x in c.objects},
                      {m: i for m in c.morphisms})


def pairing_functor(g, sections, target):
    """Extend a base functor with one extra slot per section.

    Sends x to g(x) + (s_1(x), ..., s_k(x)) and a morphism to the tuple of
    g's name components followed by the sections' morphism parts.  This is
    how substitutions become functors between interpreted contexts.
    """
    ob = {x: g.ob[x] + tuple(s.obj[x] for s in sections)
          for x in g.source.objects}
    mor = {m: fc.Mor(g.mor[m].name + tuple(s.mor[m] for s in sections),
                     ob[m.dom], ob[m.cod])
           for m in g.source.morphisms}
    return fc.Functor(g.source, target, ob, mor)


# ---------------------------------------------------------------------------
# the interpreter


@dataclass
class ElimWitness:
    """Everything needed to replay one eliminator's soundness checks."""

    term: object
    side: str                  # "right" or "left"
    e_cat: fc.FinCat           # the transport extension (mirrored when left)
    d_fa: fc.FiberAssignment   # the outer motive over e_cat
    unit: fc.Functor           # b_cat -> e_cat, (s, th) to (s, s, 1_s, th)
    b_cat: fc.FinCat           # the seed context C.core.theta
    d_sec: fc.Section          # the seed section over b_cat
    e_full: fc.Section         # the transported section over all of e_cat
    args: fc.Functor           # the instantiating functor from the context
    result: fc.Section         # e_full pulled back along args


class Interpreter:
    """Interprets checked syntax against a semantic environment.

    Results are cached per context shape (the tuple of entry types), so
    shared prefixes and repeated subterms are built once.  Eliminator
    interpretations leave an ElimWitness behind for soundness replay.
    """

    def __init__(self, sig, env):
        self.sig = sig
        self.env = env
        self.witnesses = []
        self._ctxs = {}
        self._types = {}
        self._terms = {}

    @staticmethod
    def _key(ctx):
        return tuple(ty for _, ty in ctx)

    def _data(self, ctx):
        key = self._key(ctx)
        got = self._ctxs.get(key)
        if got is None:
            if not ctx:
                got = (terminal_ctx(), ())
            else:
                _, exts = self._data(ctx[:-1])
                ext = extend(self.context(ctx[:-1]),
                             self.type(ctx[:-1], ctx[-1][1]))
                got = (ext.cat, exts + (ext,))
            self._ctxs[key] = got
        return got

    def context(self, ctx):
        return self._data(ctx)[0]

    def extensions(self, ctx):
        return self._data(ctx)[1]

    def type(self, ctx, ty):
        key = (self._key(ctx), ty)
        got = self._types.get(key)
        if got is None:
            got = self._type(ctx, ty)
            self._types[key] = got
        return got

    def term(self, ctx, tm):
        key = (self._key(ctx), tm)
        got = self._terms.get(key)
        if got is None:
            got = self._term(ctx, tm)
            self._terms[key] = got
        return got

    def _type(self, ctx, ty):
        match ty:
            case k.BaseT(name, args):
                fa = self.env.bases.get(name)
                if fa is None:
                    raise InterpError(
                        f"no fiber assignment bound for base type {name!r}")
                tele = self.sig.bases[name]
                return fc.reindex(fa, self._subst_functor(ctx, tele, args))
            case k.Core(inner):
                return fc.core_fibers(self.type(ctx, inner))
            case k.Op(inner):
                return fc.op_fibers(self.type(ctx, inner))
            case k.Hom(car, s, t):
                return fc.hom_functor(self.type(ctx, car),
                                      self.term(ctx, s),
                                      self.term(ctx, t))
        raise k.InternalError(f"cannot interpret type {ty!r}")

    def _term(self, ctx, tm):
        match tm:
            case k.Var(lv):
                exts = self.extensions(ctx)
                sec = exts[lv].last
                for ext in exts[lv + 1:]:
                    sec = fc.reindex_section(sec, ext.proj)
                return sec
            case k.Const(name, args):
                if name in self.sig.defs:
                    tele, _, body = self.sig.defs[name]
                    return self.term(ctx, k.instantiate_closed(
                        body, len(tele), args, len(ctx)))
                if name in self.sig.consts:
                    sec = self.env.terms.get(name)
                    if sec is None:
                        raise InterpError(
                            f"no section bound for constant {name!r}")
                    tele, _ = self.sig.consts[name]
                    return fc.reindex_section(
                        sec, self._subst_functor(ctx, tele, args))
                raise k.InternalError(f"unknown constant {name!r}")
            case k.IncCore(t):
                car = self._inner(ctx, t)
                return fc.strict_section(self.type(ctx, car),
                                         self.term(ctx, t).obj)
            case k.IncOp(t):
                car = self._inner(ctx, t)
                return fc.strict_section(self.type(ctx, k.Op(car)),
                                         self.term(ctx, t).obj)
            case k.One(t):
                car = self._inner(ctx, t)
                return fc.identity_section(self.type(ctx, car),
                                           self.term(ctx, t))
            case k.ElimR() | k.ElimL():
                return self._elim(ctx, tm)
        raise k.InternalError(f"cannot interpret term {tm!r}")

    def _subst_functor(self, ctx, tele, args):
        """The functor between interpreted contexts induced by arguments."""
        target = self.context(tuple(tele))
        secs = [self.term(ctx, a) for a in args]
        return pairing_functor(collapse_functor(self.context(ctx)),
                               secs, target)

    def _inner(self, ctx, tm):
        """The carrier under a core-typed term, read off the inferred type."""
        ty = ch.nf(self.sig, ch.infer_term(self.sig, ctx, tm), len(ctx))
        match ty:
            case k.Core(inner):
                return inner
        raise k.InternalError(f"expected a core type, found {ty!r}")

    def _elim(self, ctx, e):
        n = len(ctx)
        f_ty = ch.nf(self.sig, ch.infer_term(self.sig, ctx, e.f), n)
        match f_ty:
            case k.Hom(car, k.IncOp(sv), tv) if isinstance(e, k.ElimR):
                right = True
            case k.Hom(car, sv, k.IncCore(tv)) if isinstance(e, k.ElimL):
                right = False
            case _:
                raise k.InternalError(
                    f"eliminated term has non-hom type {f_ty!r}")

        ctx_b, ctx_d = k.elim_contexts(ctx, car, e.motive_theta, right)
        if right:
            e_cat = self.context(ctx_d)
            d_fa = self.type(ctx_d, e.motive_d)
        else:
            e_cat, swap = _mirror(self.context(ctx_d), n)
            d_fa = fc.reindex(self.type(ctx_d, e.motive_d), swap)

        carrier_fa = self.type(ctx, car if right else k.Op(car))
        theta_fa = self.type(ctx_b[:-1], e.motive_theta)
        b_cat = self.context(ctx_b)
        d_sec = self.term(ctx_b, e.base)
        unit = _unit_functor(b_cat, e_cat, n, carrier_fa)
        e_full = _transport_section(e_cat, n, carrier_fa, theta_fa,
                                    d_fa, d_sec)

        s_sec = self.term(ctx, sv)
        t_sec = self.term(ctx, tv)
        f_sec = self.term(ctx, e.f)
        th_sec = self.term(ctx, e.theta)
        if right:
            slots = (s_sec, t_sec, f_sec, th_sec)
        else:
            f_op_fa = fc.hom_functor(carrier_fa,
                                     self.term(ctx, k.IncOp(tv)), s_sec)
            f_op = fc.Section(
                f_op_fa,
                {x: fc.op_mor(f_sec.obj[x]) for x in f_op_fa.base.objects},
                {m: fc.identity_mor(fc.op_mor(f_sec.obj[m.cod]))
                 for m in f_op_fa.base.morphisms})
            slots = (t_sec, s_sec, f_op, th_sec)
        args = pairing_functor(fc.identity_functor(self.context(ctx)),
                               slots, e_cat)
        out = fc.reindex_section(e_full, args)
        self.witnesses.append(
            ElimWitness(e, "right" if right else "left", e_cat, d_fa, unit,
                        b_cat, d_sec, e_full, args, out))
        return out


# ---------------------------------------------------------------------------
# the transport engine shared by both eliminators


def _mirror(left_cat, n):
    """The dual transport extension: slots n and n+1 exchanged, the hom
    slot reversed.  Returns the mirror and the relabelling functor back."""

    def ob(y):
        return y[:n] + (y[n + 1], y[n], fc.op_mor(y[n + 2]), y[n + 3])

    def name_fn(m):
        return m.name[:n] + (m.name[n + 1], m.name[n],
                             fc.identity_mor(fc.op_mor(m.cod[n + 2])),
                             m.name[n + 3])

    mirror, mor_map = fc.relabel(left_cat, ob, name_fn)
    swap = fc.Functor(mirror, left_cat,
                      {ob(y): y for y in left_cat.objects},
                      {mor_map[m]: m for m in left_cat.morphisms})
    return mirror, swap


def _unit_functor(b_cat, e_cat, n, carrier_fa):
    """(gamma, s, th) to (gamma, s, s, 1_s, th), morphisms likewise."""
    ob = {}
    for x in b_cat.objects:
        one = carrier_fa.fibers[x[:n]].identity[x[n]]
        ob[x] = x[:n] + (x[n], x[n], one, x[n + 1])
    mor = {}
    for m in b_cat.morphisms:
        cod = ob[m.cod]
        t_part = carrier_fa.fibers[m.cod[:n]].identity[m.cod[n]]
        mor[m] = fc.Mor(
            m.name[:n] + (m.name[n], t_part, fc.identity_mor(cod[n + 2]),
                          m.name[n + 1]),
            ob[m.dom], cod)
    return fc.Functor(b_cat, e_cat, ob, mor)


def _transport_section(e_cat, n, carrier_fa, theta_fa, d_fa, d_sec):
    """Carry the seed section to every point of the transport extension.

    At (gamma, s, t, f, th) the value is the motive's transition along the
    canonical morphism from (gamma, s, s, 1_s, th) whose t-component is f
    itself, applied to the seed at (gamma, s, th).  Morphism parts factor
    through the codomain's canonical morphism the same way; the two paths
    around each square agree because the hom slot forces t-components to
    match up.
    """

    def mu(x):
        gamma, s, f, th = x[:n], x[n], x[n + 2], x[n + 3]
        one = carrier_fa.fibers[gamma].identity[s]
        return fc.Mor(
            carrier_fa.base.identity[gamma].name
            + (fc.identity_mor(s), f, fc.identity_mor(f),
               theta_fa.fibers[gamma + (s,)].identity[th]),
            gamma + (s, s, one, th), x)

    obj = {}
    for x in e_cat.objects:
        seed = d_sec.obj[x[:n] + (x[n], x[n + 3])]
        obj[x] = d_fa.transitions[mu(x)].ob[seed]
    mor = {}
    for m in e_cat.morphisms:
        psi = fc.Mor(m.name[:n] + (m.name[n], m.name[n + 3]),
                     m.dom[:n] + (m.dom[n], m.dom[n + 3]),
                     m.cod[:n] + (m.cod[n], m.cod[n + 3]))
        mor[m] = d_fa.transitions[mu(m.cod)].mor[d_sec.mor[psi]]
    return fc.Section(d_fa, obj, mor)


# ---------------------------------------------------------------------------
# public one-shot wrappers


def interp_context(sig, env, ctx):
    ctx = ch.check_telescope(sig, tuple(ctx))
    return Interpreter(sig, env).context(ctx)


def interp_type(sig, env, ctx, ty):
    ctx = ch.check_telescope(sig, tuple(ctx))
    ch.check_type(sig, ctx, ty)
    return Interpreter(sig, env).type(ctx, ty)


def interp_term(sig, env, ctx, tm, ty=None):
    ctx = ch.check_telescope(sig, tuple(ctx))
    if ty is not None:
        ch.check_term(sig, ctx, tm, ty)
    return Interpreter(sig, env).term(ctx, tm)


def interp_judgement(sig, env, ctx, ty, tm=None):
    """Interpret one judgement and run its soundness checks."""
    itp = Interpreter(sig, env)
    ctx = tuple(ctx)
    records = tuple(_judgement_records(itp, "judgement", ctx, ty,
                                       () if tm is None else (tm,)))
    return InterpResult(itp.context(ctx), itp.type(ctx, ty),
                        None if tm is None else itp.term(ctx, tm), records)


# ---------------------------------------------------------------------------
# soundness verification


def verify_soundness(sig, env, source):
    """Check a whole source file's worth of judgements semantically.

    The environment is validated first and rejected wholesale when any
    entry is broken, so a bad environment can never produce a passing
    report.  Then, per declaration: typechecking verdict, functoriality
    and naturality of the interpretations, the computation rule for every
    eliminator encountered, agreement of asserted equalities, and the
    pullback property of each comprehension square.
    """
    records = _env_records(env)
    if any(not r.ok for r in records):
        return records
    chk_sig, chk_records = ch.check_source(source, sig)
    itp = Interpreter(chk_sig, env)
    for decl, rec in zip(source.decls, chk_records):
        records.append(VerifyRecord(rec.subject, "typecheck", rec.ok,
                                    "" if rec.ok else rec.detail))
        if not rec.ok:
            continue
        try:
            records.extend(_decl_records(itp, rec.subject, decl))
        except (InterpError, ch.CheckError, fc.SizeCapError, ValueError,
                KeyError) as err:
            records.append(VerifyRecord(rec.subject, "interpretation",
                                        False, str(err)))
    return records


def _env_records(env):
    out = []
    for name in sorted(env.bases):
        bad = env.bases[name].validate()
        out.append(VerifyRecord(f"base:{name}", "env-assignment",
                                not bad, bad[0] if bad else ""))
    for name in sorted(env.terms):
        bad = env.terms[name].validate()
        out.append(VerifyRecord(f"const:{name}", "env-section",
                                not bad, bad[0] if bad else ""))
    return out


def _decl_records(itp, subject, decl):
    out = []
    match decl:
        case ps.AssumeType(name, tele):
            fa = itp.env.bases.get(name)
            if fa is None:
                out.append(VerifyRecord(subject, "env-binding", True,
                                        "unbound"))
            else:
                ok = fa.base == itp.context(tuple(tele))
                out.append(VerifyRecord(
                    subject, "env-base", ok,
                    "" if ok else "assignment base differs from the "
                    "interpreted telescope"))
        case ps.AssumeTerm(name, tele, ty):
            sec = itp.env.terms.get(name)
            if sec is None:
                out.append(VerifyRecord(subject, "env-binding", True,
                                        "unbound"))
            else:
                ctx = tuple(tele)
                fa = itp.type(ctx, ty)
                ok, detail = True, ""
                if sec.fa.base != itp.context(ctx):
                    ok = False
                    detail = "section base differs from the interpreted " \
                             "telescope"
                else:
                    for x in fa.base.objects:
                        if sec.obj.get(x) not in fa.fibers[x].objects:
                            ok = False
                            detail = f"value at {_show(x)} is outside the fiber"
                            break
                out.append(VerifyRecord(subject, "env-type", ok, detail))
        case ps.Define(_, tele, ty, body):
            out.extend(_judgement_records(itp, subject, tuple(tele), ty,
                                          (body,)))
        case ps.AssertType(tele, ty):
            out.extend(_judgement_records(itp, subject, tuple(tele), ty, ()))
        case ps.AssertEqual(tele, lhs, rhs, ty):
            ctx = tuple(tele)
            out.extend(_judgement_records(itp, subject, ctx, ty, (lhs, rhs)))
            ok, detail = _sections_agree(itp.term(ctx, lhs),
                                         itp.term(ctx, rhs))
            out.append(VerifyRecord(subject, "equal-interpretation", ok,
                                    detail))
    return out


def _judgement_records(itp, subject, ctx, ty, terms):
    out = []
    fa = itp.type(ctx, ty)
    bad = fa.validate()
    out.append(VerifyRecord(subject, "type-functorial", not bad,
                            bad[0] if bad else ""))
    for tm in terms:
        before = len(itp.witnesses)
        sec = itp.term(ctx, tm)
        bad = sec.validate()
        out.append(VerifyRecord(subject, "section-natural", not bad,
                                bad[0] if bad else ""))
        stray = next((x for x in fa.base.objects
                      if sec.obj[x] not in fa.fibers[x].objects), None)
        out.append(VerifyRecord(
            subject, "section-in-type", stray is None,
            "" if stray is None
            else f"value at {_show(stray)} is outside the declared fiber"))
        for w in itp.witnesses[before:]:
            bad = w.unit.validate()
            out.append(VerifyRecord(subject, f"unit-functorial[{w.side}]",
                                    not bad, bad[0] if bad else ""))
            bad = w.e_full.validate()
            out.append(VerifyRecord(subject, f"eliminator-natural[{w.side}]",
                                    not bad, bad[0] if bad else ""))
            ok, detail = _data_agree(fc.reindex_section(w.e_full, w.unit),
                                     w.d_sec)
            out.append(VerifyRecord(subject, f"computation-rule[{w.side}]",
                                    ok, detail))
    out.extend(_pullback_records(itp, subject, ctx + (("x", ty),)))
    return out


def _sections_agree(a, b):
    if a.fa.base != b.fa.base:
        return False, "sections live over different base categories"
    return _data_agree(a, b)


def _data_agree(a, b):
    for x in sorted(a.obj, key=fc.skey):
        if a.obj[x] != b.obj.get(x):
            return False, (f"values differ at {_show(x)}: "
                           f"{_show(a.obj[x])} vs {_show(b.obj.get(x))}")
    for m in sorted(a.mor, key=fc.skey):
        if a.mor[m] != b.mor.get(m):
            return False, f"morphism parts differ along {_show(m.name)}"
    if set(b.obj) - set(a.obj) or set(b.mor) - set(a.mor):
        return False, "domains differ"
    return True, ""


def _pullback_records(itp, subject, ctx):
    """Certify every comprehension square over this context as a pullback.

    For each entry j, the square formed by reindexing entry j's assignment
    along the composite projection from the full context is compared with
    the strict pullback: the mediating functor is built explicitly and
    every cell of the pullback is searched for exactly one preimage.
    """
    out = []
    exts = itp.extensions(ctx)
    cat = itp.context(ctx)
    acc = fc.identity_functor(cat)
    for j in reversed(range(len(exts))):
        acc = fc.functor_compose(exts[j].proj, acc)
        ok, detail = _pullback_square(cat, acc, exts[j])
        out.append(VerifyRecord(subject, f"chi-pullback[{j}]", ok, detail))
    return out


def _pullback_square(cat, pi, ext):
    lifted = extend(cat, fc.reindex(ext.fa, pi))
    pb = fc.pullback_cat(pi, ext.proj)
    cat_idx = {(m.name, m.dom): m for m in cat.morphisms}
    up_idx = {(m.name, m.dom): m for m in ext.cat.morphisms}
    ob = {x: (x[:-1], pi.ob[x[:-1]] + (x[-1],))
          for x in lifted.cat.objects}
    mor = {}
    for m in lifted.cat.morphisms:
        m0 = cat_idx[(m.name[:-1], m.dom[:-1])]
        up = up_idx[(pi.mor[m0].name + (m.name[-1],),
                     pi.ob[m.dom[:-1]] + (m.dom[-1],))]
        mor[m] = fc.Mor((m0, up), ob[m.dom], ob[m.cod])
    mediating = fc.Functor(lifted.cat, pb, ob, mor)
    bad = mediating.validate()
    if bad:
        return False, f"mediating functor: {bad[0]}"
    for y in pb.objects:
        pre = [x for x in lifted.cat.objects if ob[x] == y]
        if len(pre) != 1:
            return False, f"object {_show(y)} has {len(pre)} preimages"
    for u in pb.morphisms:
        pre = [m for m in lifted.cat.morphisms if mor[m] == u]
        if len(pre) != 1:
            return False, f"morphism {_show(u.name)} has {len(pre)} preimages"
    return True, f"{len(pb.objects)} objects, {len(pb.morphisms)} morphisms"


# ---------------------------------------------------------------------------
# scenario files: a source file plus bindings into a .fincat workspace


@dataclass
class Scenario:
    source: ps.SourceFile
    env: SemanticEnv
    workspace: fc.Workspace
    path: str


def load_scenario(path):
    """Read a scenario file.

    Line-oriented: `source FILE` names the judgements, `fincat FILE...`
    the category workspace (merged in order), `bind type N = W` and
    `bind const N = W` tie signature names to workspace blocks.  Paths
    are relative to the scenario file; `#` starts a comment.
    """
    path = Path(path)
    src_path = None
    cat_paths = []
    type_binds = {}
    const_binds = {}
    for ln, raw in enumerate(path.read_text(encoding="utf-8").splitlines(),
                             start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        match line.split():
            case ["source", rel]:
                src_path = path.parent / rel
            case ["fincat", *rels] if rels:
                cat_paths.extend(path.parent / rel for rel in rels)
            case ["bind", "type", name, "=", target]:
                type_binds[name] = target
            case ["bind", "const", name, "=", target]:
                const_binds[name] = target
            case _:
                raise InterpError(f"{path}:{ln}: cannot read {line!r}")
    if src_path is None:
        raise InterpError(f"{path}: no 'source' line")
    source = ps.parse_dtt(src_path.read_text(encoding="utf-8"), str(src_path))
    cf = ps.CatFile()
    for p in cat_paths:
        cf.merge(ps.parse_fincat(p.read_text(encoding="utf-8"), str(p)))
    ws = fc.build_catfile(cf)
    if ws.diagnostics:
        name, msg = ws.diagnostics[0]
        raise InterpError(f"workspace block {name!r}: {msg}")
    sig, _ = ch.check_source(source)
    env = build_env(sig, ws, type_binds, const_binds)
    return Scenario(source, env, ws, str(path))


def build_env(sig, ws, type_binds, const_binds):
    """Resolve name bindings against a workspace into a SemanticEnv.

    Base types bind to a category (constant fibers) or a fiber block;
    constants bind to an object or morphism name (constant section) or a
    section block.  Bindings resolve in declaration order, so later
    telescopes may mention earlier bound names.
    """
    for name in set(type_binds) - set(sig.bases):
        raise InterpError(f"bind type {name!r}: no such base type")
    for name in set(const_binds) - set(sig.consts):
        raise InterpError(f"bind const {name!r}: no such assumed constant")
    env = SemanticEnv()
    itp = Interpreter(sig, env)
    for name, tele in sig.bases.items():
        if name in type_binds:
            base_cat = itp.context(tuple(tele))
            env.bases[name] = _resolve_fiber(ws, type_binds[name], base_cat)
    for name, (tele, ty) in sig.consts.items():
        if name in const_binds:
            fa = itp.type(tuple(tele), ty)
            env.terms[name] = _resolve_section(ws, const_binds[name], fa)
    return env


def _resolve_fiber(ws, target, base_cat):
    if target in ws.categories:
        return fc.constant_fibers(base_cat, ws.categories[target])
    block = ws.raw.fibers.get(target) if ws.raw else None
    if block is None:
        raise InterpError(f"no category or fiber block named {target!r}")
    if block.constant is not None:
        cat = ws.categories.get(block.constant)
        if cat is None:
            raise InterpError(
                f"fiber {block.name}: unknown category {block.constant!r}")
        return fc.constant_fibers(base_cat, cat)
    fibers = {}
    for addr, cat_name in block.fibers:
        x = _resolve_object(base_cat, addr, f"fiber {block.name}")
        cat = ws.categories.get(cat_name)
        if cat is None:
            raise InterpError(
                f"fiber {block.name}: unknown category {cat_name!r}")
        fibers[x] = cat
    for x in base_cat.objects:
        if x not in fibers:
            raise InterpError(f"fiber {block.name}: no fiber at {_show(x)}")
    transitions = {}
    for addr, fn_name in block.transitions:
        m = _resolve_morphism(base_cat, addr, f"fiber {block.name}")
        fun = ws.functors.get(fn_name)
        if fun is None:
            raise InterpError(
                f"fiber {block.name}: unknown functor {fn_name!r}")
        transitions[m] = fun
    for m in base_cat.morphisms:
        if m in transitions:
            continue
        if m == base_cat.identity[m.dom]:
            transitions[m] = fc.identity_functor(fibers[m.dom])
        else:
            raise InterpError(
                f"fiber {block.name}: no transition along {_show(m.name)}")
    return fc.FiberAssignment(base_cat, fibers, transitions)


def _resolve_section(ws, target, fa):
    block = ws.raw.sections.get(target) if ws.raw else None
    if block is None:
        obj = {x: _resolve_value(fa.fibers[x], target, f"binding {target!r}")
               for x in fa.base.objects}
        return fc.strict_section(fa, obj)
    obj, morp = {}, {}
    owner = f"section {block.name}"
    for addr, val in block.components:
        if _is_mor_addr(addr):
            m = _resolve_morphism(fa.base, addr, owner)
            morp[m] = _resolve_fiber_mor(fa.fibers[m.cod], val, owner)
        else:
            x = _resolve_object(fa.base, addr, owner)
            obj[x] = _resolve_value(fa.fibers[x], val, owner)
    for x in fa.base.objects:
        if x not in obj:
            raise InterpError(f"{owner}: no value at {_show(x)}")
    for m in fa.base.morphisms:
        morp.setdefault(m, fa.fibers[m.cod].identity[obj[m.cod]])
    return fc.Section(fa, obj, morp)


def _is_mor_addr(addr):
    return (isinstance(addr, tuple) and len(addr) == 2
            and isinstance(addr[0], tuple) and isinstance(addr[1], tuple))


def _matches_name(name, token):
    match name:
        case ("id", str(x)):
            return token == f"id_{x}"
        case str(s):
            return s == token
    return False


def _matches_component(value, token):
    if isinstance(value, str):
        return value == token
    if isinstance(value, fc.Mor):
        return _matches_name(value.name, token)
    return False


def _resolve_object(cat, addr, owner):
    if _is_mor_addr(addr):
        raise InterpError(
            f"{owner}: morphism address used where an object is needed")
    parts = (addr,) if isinstance(addr, str) else tuple(addr)
    cands = [x for x in cat.objects
             if isinstance(x, tuple) and len(x) == len(parts)
             and all(_matches_component(v, t) for v, t in zip(x, parts))]
    if len(cands) == 1:
        return cands[0]
    raise InterpError(f"{owner}: address {parts!r} matches "
                      f"{len(cands)} objects")


def _resolve_morphism(cat, addr, owner):
    match addr:
        case (tuple() as dparts, tuple() as comps):
            cands = [
                m for m in cat.morphisms
                if isinstance(m.dom, tuple) and len(m.dom) == len(dparts)
                and all(_matches_component(v, t)
                        for v, t in zip(m.dom, dparts))
                and len(m.name) == len(comps)
                and all(_matches_component(v, t)
                        for v, t in zip(m.name, comps))]
        case str(s):
            cands = [m for m in cat.morphisms
                     if len(m.name) == 1
                     and _matches_component(m.name[0], s)]
        case _:
            raise InterpError(f"{owner}: bad morphism address {addr!r}")
    if len(cands) == 1:
        return cands[0]
    raise InterpError(f"{owner}: address {addr!r} matches "
                      f"{len(cands)} morphisms")


def _resolve_value(fiber_cat, token, owner):
    cands = [o for o in fiber_cat.objects if _matches_component(o, token)]
    if len(cands) == 1:
        return cands[0]
    raise InterpError(f"{owner}: value {token!r} matches "
                      f"{len(cands)} fiber objects")


def _resolve_fiber_mor(fiber_cat, token, owner):
    cands = [m for m in fiber_cat.morphisms if _matches_name(m.name, token)]
    if len(cands) == 1:
        return cands[0]
    raise InterpError(f"{owner}: morphism value {token!r} matches "
                      f"{len(cands)} fiber morphisms")
