"""Finite categorical semantics for checked syntax.

A context is interpreted as a finite category whose objects are tuples,
one component per telescope entry; a type in that context becomes a
fiber assignment over it, and a term a section.  Each context step is
the Grothendieck construction built flat: an object of the extension is
its base object with one more component, never a nested pair.

Both eliminators use one transport engine over the extension
(s, t, f, th) of the context: the seed section is carried along the
canonical morphism from the unit image (p, p, 1_p, th) to each point,
where p is the core point.  The side only picks which slot holds p: s
on the right, with t : T free, and t on the left, with s : op T free.

Scenario bindings are .fincat text, matched against interpreted contexts
through fc.token.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path

from . import checker as ch
from . import fincat as fc
from . import kernel as k
from . import parser as ps

_show = fc._fmt


class InterpError(k.InputError):
    """A semantic environment entry is missing or cannot be resolved."""


class SemanticEnv:
    """Meanings for the assumed part of a signature.

    bases maps a base type name to a fiber assignment over the interpreted
    telescope of its declaration; terms maps an assumed constant name to a
    section of its declared type's assignment.  Defined names need no
    entry: they are expanded before interpretation.
    """

    __slots__ = ("bases", "terms")

    def __init__(self, bases=None):
        self.bases = {} if bases is None else bases
        self.terms = {}


# ---------------------------------------------------------------------------
# context categories


def terminal_ctx():
    """The empty context: one object, the empty tuple, and its identity.

    The identity's name is the empty tuple as well, so that morphism names
    in every extension are exactly the tuples of their slot components.
    """
    i = fc.Mor((), (), ())
    return fc.FinCat([()], [i], {(): i}, {(i, i): i})


class Extension:
    """One comprehension step over a tuple-shaped base."""

    __slots__ = ("cat", "fa", "proj", "last")

    def __init__(self, cat, fa, proj, last):
        self.cat = cat      # the extended context
        self.fa = fa        # what the base was extended by
        self.proj = proj    # cat -> base, dropping the last slot
        self.last = last    # the fresh variable, over reindex(fa, proj)


def extend(base, fa):
    """The comprehension base.fa: the Grothendieck construction of fa,
    built flat.

    An object is x + (y,) for y in the fiber over x.  A morphism over
    f: x -> x' is named f.name + (g,) for g out of fa(f)(y) in the fiber
    over x'; (f2, g2) after (f1, g1) is (f2 f1, g2 fa(f2)(g1)).
    """
    bad = fa.validate()
    if bad:
        raise ValueError(f"fiber assignment: {bad[0]}")
    fibers, trs = fa.fibers, fa.transitions
    objects = [x + (y,) for x in base.objects for y in fibers[x].objects]
    fc._check_caps(objects)
    over = {}  # morphism -> (f, y, g) it is built from, in build order
    cell = {}  # (f, y, g) -> its morphism
    for f in base.morphisms:
        tr = trs[f]
        for y in fibers[f.dom].objects:
            for g in fibers[f.cod].out_of(tr.ob[y]):
                m = cell[f, y, g] = fc.Mor(f.name + (g,), f.dom + (y,),
                                           f.cod + (g.cod,))
                over[m] = f, y, g
    fc._check_caps(objects, over)
    identity = {x + (y,): cell[base.identity[x], y, fibers[x].identity[y]]
                for x in base.objects for y in fibers[x].objects}
    compose = {}
    for m2, m1 in fc.composable(over):
        f2, _, g2 = over[m2]
        f1, y1, g1 = over[m1]
        g = fibers[f2.cod].compose[g2, trs[f2].mor[g1]]
        compose[m2, m1] = cell[base.compose[f2, f1], y1, g]
    cat = fc.FinCat(objects, over, identity, compose)
    proj = fc.Functor(cat, base, {o: o[:-1] for o in objects},
                      {m: f for m, (f, _, _) in over.items()})
    last = fc.Section(fc.reindex(fa, proj),
                      {o: o[-1] for o in objects},
                      {m: g for m, (_, _, g) in over.items()})
    return Extension(cat, fa, proj, last)


_POINT = terminal_ctx()


def collapse_functor(c):
    """The unique functor into the empty-context category."""
    i = _POINT.identity[()]
    return fc.Functor(c, _POINT, {x: () for x in c.objects},
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


class ElimWitness:
    """Everything needed to replay one eliminator's soundness checks."""

    __slots__ = ("side", "unit", "d_sec", "e_full")

    def __init__(self, side, unit, d_sec, e_full):
        self.side = side        # "right" or "left"
        self.unit = unit        # (p, th) to (p, p, 1_p, th) in the extension
        self.d_sec = d_sec      # the seed section over C.core.theta
        self.e_full = e_full    # the transported section of the outer motive


class Interpreter:
    """Interprets checked syntax against a semantic environment.

    Results are cached per context shape (the tuple of entry types), so
    shared prefixes and repeated subterms are built once; a context is
    cached as its extensions, and its category is the last one's.
    Eliminator interpretations leave an ElimWitness behind for soundness
    replay.  A declaration in `failed` (its typecheck, env-base or
    env-type record failed) cannot be interpreted: using it is an
    InterpError.
    """

    def __init__(self, sig, env, checks=()):
        self.sig = sig
        self.env = env
        self.failed = {r.subject: "does not typecheck"
                       for r in checks if not r.ok}
        self.witnesses = []
        self._exts = {}
        self._types = {}
        self._terms = {}

    @staticmethod
    def _key(ctx):
        return tuple(ty for _, ty in ctx)

    def extensions(self, ctx):
        """The comprehension steps that build ctx from the empty context."""
        if not ctx:
            return ()
        key = self._key(ctx)
        got = self._exts.get(key)
        if got is None:
            ext = extend(self.context(ctx[:-1]),
                         self.type(ctx[:-1], ctx[-1][1]))
            got = self._exts[key] = self.extensions(ctx[:-1]) + (ext,)
        return got

    def context(self, ctx):
        exts = self.extensions(ctx)
        return exts[-1].cat if exts else _POINT

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
                self._usable(name)
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
                self._usable(name)
                if name in self.sig.defs:
                    tele, _, body, _ = self.sig.defs[name]
                    return self.term(ctx, k.instantiate(body, 0, args,
                                                        len(ctx)))
                if name in self.sig.consts:
                    sec = self.env.terms.get(name)
                    if sec is None:
                        raise InterpError(
                            f"no section bound for constant {name!r}")
                    tele, _ = self.sig.consts[name]
                    return fc.reindex_section(
                        sec, self._subst_functor(ctx, tele, args))
                raise k.InternalError(f"unknown constant {name!r}")
            case k.IncCore(t) | k.IncOp(t) | k.One(t):
                # a strict section of the type the checker gives tm, at the
                # core point's values; one t takes the identities there
                ty = self._checked(ch.infer_term, ctx, tm)
                obj = self.term(ctx, t).obj
                if isinstance(tm, k.One):
                    car = self.type(ctx, ty.carrier).fibers
                    obj = {x: car[x].identity[p] for x, p in obj.items()}
                return fc.strict_section(self.type(ctx, ty), obj)
            case k.ElimR() | k.ElimL():
                return self._elim(ctx, tm)
        raise k.InternalError(f"cannot interpret term {tm!r}")

    def _usable(self, name):
        if name in self.failed:
            raise InterpError(
                f"the declaration of {name!r} {self.failed[name]}")

    def _subst_functor(self, ctx, tele, args):
        """The functor between interpreted contexts induced by arguments."""
        target = self.context(tuple(tele))
        secs = [self.term(ctx, a) for a in args]
        return pairing_functor(collapse_functor(self.context(ctx)),
                               secs, target)

    def _checked(self, rule, ctx, tm):
        """What a checker rule reads off tm; interpreted terms are checked,
        so a failure here is the engine's own."""
        try:
            return rule(self.sig, ctx, tm)
        except ch.CheckError as err:
            raise k.InternalError(f"cannot interpret {tm!r}: {err}") from None

    def _elim(self, ctx, e):
        n = len(ctx)
        right, car, sv, tv = self._checked(ch.elim_hom, ctx, e)
        ctx_b, ctx_d = k.elim_contexts(ctx, car, e.motive_theta, right)
        e_cat = self.context(ctx_d)
        d_fa = self.type(ctx_d, e.motive_d)
        carrier_fa = self.type(ctx, car)
        theta_fa = self.type(ctx_b[:-1], e.motive_theta)
        d_sec = self.term(ctx_b, e.base)
        unit = _unit_functor(self.context(ctx_b), e_cat, n, right, carrier_fa)
        e_full = _transport_section(e_cat, n, right, carrier_fa, theta_fa,
                                    d_fa, d_sec)
        slots = [self.term(ctx, x) for x in (sv, tv, e.f, e.theta)]
        args = pairing_functor(fc.identity_functor(self.context(ctx)),
                               slots, e_cat)
        self.witnesses.append(
            ElimWitness("right" if right else "left", unit, d_sec, e_full))
        return fc.reindex_section(e_full, args)


# ---------------------------------------------------------------------------
# the transport engine shared by both eliminators


def _ends(right, core_part, free_part):
    """The components of the two endpoint slots, in slot order: the core
    point sits in slot n on the right and in slot n + 1 on the left."""
    return (core_part, free_part) if right else (free_part, core_part)


def _unit_functor(b_cat, e_cat, n, right, carrier_fa):
    """(gamma, p, th) to (gamma, p, p, 1_p, th), morphisms likewise: the
    core slot keeps the base's component, the free end gets an identity."""
    ob = {}
    for x in b_cat.objects:
        one = carrier_fa.fibers[x[:n]].identity[x[n]]
        ob[x] = x[:n] + (x[n], x[n], one, x[n + 1])
    mor = {}
    for m in b_cat.morphisms:
        cod = ob[m.cod]
        free = carrier_fa.fibers[m.cod[:n]].identity[m.cod[n]]
        mor[m] = fc.Mor(
            m.name[:n] + _ends(right, m.name[n], free)
            + (fc.identity_mor(cod[n + 2]), m.name[n + 1]),
            ob[m.dom], cod)
    return fc.Functor(b_cat, e_cat, ob, mor)


def _transport_section(e_cat, n, right, carrier_fa, theta_fa, d_fa, d_sec):
    """Carry the seed section to every point of the transport extension.

    Slot n + 2 holds f, running from s to t in the carrier T; the core
    point p is s on the right and t on the left.  At (gamma, s, t, f, th)
    the value is the motive's transition along the canonical morphism from
    (gamma, p, p, 1_p, th) whose core component is the identity and whose
    free component is f itself (op f on the left, where the free end lies
    in op T), applied to the seed at (gamma, p, th).  Morphism parts factor
    through the codomain's canonical morphism the same way; the two paths
    around each square agree because the hom slot forces the free
    components to match up.
    """
    core = n if right else n + 1

    def mu(x):
        gamma, p, f, th = x[:n], x[core], x[n + 2], x[n + 3]
        one = carrier_fa.fibers[gamma].identity[p]
        return fc.Mor(
            carrier_fa.base.identity[gamma].name
            + _ends(right, fc.identity_mor(p), f if right else fc.op_mor(f))
            + (fc.identity_mor(f), theta_fa.fibers[gamma + (p,)].identity[th]),
            gamma + (p, p, one, th), x)

    obj = {}
    for x in e_cat.objects:
        seed = d_sec.obj[x[:n] + (x[core], x[n + 3])]
        obj[x] = d_fa.transitions[mu(x)].ob[seed]
    mor = {}
    for m in e_cat.morphisms:
        psi = fc.Mor(m.name[:n] + (m.name[core], m.name[n + 3]),
                     m.dom[:n] + (m.dom[core], m.dom[n + 3]),
                     m.cod[:n] + (m.cod[core], m.cod[n + 3]))
        mor[m] = d_fa.transitions[mu(m.cod)].mor[d_sec.mor[psi]]
    return fc.Section(d_fa, obj, mor)


# ---------------------------------------------------------------------------
# soundness verification


def verify_soundness(sc):
    """Check a whole scenario's worth of judgements semantically.

    The environment is validated first and rejected wholesale when any
    entry is broken, so a bad environment can never produce a passing
    report.  Then, per declaration: typechecking verdict, the bound
    environment entry, naturality of the interpreted terms, the unit,
    naturality and computation rule of every eliminator they interpret,
    agreement of asserted equalities, and the pullback property of each
    comprehension square.  Returns the records and the witnesses of the
    eliminators interpreted on the way, in the order they were built
    (none when the environment is rejected).
    """
    records = _env_records(sc.env)
    if any(not r.ok for r in records):
        return records, []
    itp = Interpreter(sc.sig, sc.env, sc.checks)
    for decl, rec in zip(sc.source.decls, sc.checks):
        records.append(k.Record(rec.subject, "typecheck", rec.ok,
                                "" if rec.ok else rec.detail))
        if not rec.ok:
            continue
        try:
            recs = _decl_records(itp, rec.subject, decl)
        except (InterpError, ch.CheckError, fc.SizeCapError) as err:
            recs = [k.Record(rec.subject, "interpretation", False, str(err))]
        for r in recs:
            if not r.ok and r.check in ("env-base", "env-type"):
                itp.failed[rec.subject] = f"fails its {r.check} check"
        records.extend(recs)
    return records, itp.witnesses


def _env_records(env):
    out = []
    for name in sorted(env.bases):
        out.append(k.verdict(f"base:{name}", "env-assignment",
                             env.bases[name].validate()))
    for name in sorted(env.terms):
        out.append(k.verdict(f"const:{name}", "env-section",
                             env.terms[name].validate()))
    return out


def _decl_records(itp, subject, decl):
    out = []
    match decl:
        case ps.AssumeType(name, tele):
            fa = itp.env.bases.get(name)
            if fa is not None:
                before = len(itp.witnesses)
                ok = fa.base == itp.context(tuple(tele))
                out.extend(_witness_records(itp, subject, before))
                out.append(k.Record(
                    subject, "env-base", ok,
                    "" if ok else "assignment base differs from the "
                    "interpreted telescope"))
        case ps.AssumeTerm(name, tele, ty):
            sec = itp.env.terms.get(name)
            if sec is not None:
                ctx = tuple(tele)
                before = len(itp.witnesses)
                fa = itp.type(ctx, ty)
                out.extend(_witness_records(itp, subject, before))
                ok, detail = True, ""
                if sec.fa.base != itp.context(ctx):
                    ok = False
                    detail = "section base differs from the interpreted " \
                             "telescope"
                else:
                    for x in fa.base.objects:
                        if sec.obj.get(x) not in fa.fibers[x].obset:
                            ok = False
                            detail = f"value at {_show(x)} is outside the fiber"
                            break
                out.append(k.Record(subject, "env-type", ok, detail))
        case ps.Define(_, tele, ty, body):
            out.extend(_judgement_records(itp, subject, tuple(tele), ty,
                                          (body,)))
        case ps.AssertType(tele, ty):
            out.extend(_judgement_records(itp, subject, tuple(tele), ty, ()))
        case ps.AssertEqual(tele, lhs, rhs, ty):
            ctx = tuple(tele)
            out.extend(_judgement_records(itp, subject, ctx, ty, (lhs, rhs)))
            ok, detail = _data_agree(itp.term(ctx, lhs), itp.term(ctx, rhs))
            out.append(k.Record(subject, "equal-interpretation", ok,
                                detail))
    return out


def _judgement_records(itp, subject, ctx, ty, terms):
    # the type before the terms: this order numbers the eliminators
    # (elim#N) and decides which declaration reports each one's witness
    before = len(itp.witnesses)
    fa = itp.type(ctx, ty)
    out = _witness_records(itp, subject, before)
    for tm in terms:
        before = len(itp.witnesses)
        sec = itp.term(ctx, tm)
        out.append(k.verdict(subject, "section-natural", sec.validate()))
        stray = next((x for x in fa.base.objects
                      if sec.obj[x] not in fa.fibers[x].obset), None)
        out.append(k.Record(
            subject, "section-in-type", stray is None,
            "" if stray is None
            else f"value at {_show(stray)} is outside the declared fiber"))
        out.extend(_witness_records(itp, subject, before))
    out.extend(_pullback_records(itp, subject, ctx + (("x", ty),)))
    return out


def _witness_records(itp, subject, before):
    """The unit, naturality and computation-rule records of each
    eliminator interpreted since the witness count was `before`."""
    out = []
    for w in itp.witnesses[before:]:
        out.append(k.verdict(subject, f"unit-functorial[{w.side}]",
                             w.unit.validate()))
        out.append(k.verdict(subject, f"eliminator-natural[{w.side}]",
                             w.e_full.validate()))
        ok, detail = _data_agree(fc.reindex_section(w.e_full, w.unit),
                                 w.d_sec)
        out.append(k.Record(subject, f"computation-rule[{w.side}]", ok,
                            detail))
    return out


def _data_agree(a, b):
    for x in a.obj:
        if a.obj[x] != b.obj.get(x):
            return False, (f"values differ at {_show(x)}: "
                           f"{_show(a.obj[x])} vs {_show(b.obj.get(x))}")
    for m in a.mor:
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
        out.append(k.Record(subject, f"chi-pullback[{j}]", ok, detail))
    return out


def _pullback_square(cat, pi, ext):
    lifted = extend(cat, fc.reindex(ext.fa, pi))
    pb = fc.pullback_cat(pi, ext.proj)
    up_idx = {(m.name, m.dom): m for m in ext.cat.morphisms}
    ob = {x: (x[:-1], pi.ob[x[:-1]] + (x[-1],))
          for x in lifted.cat.objects}
    mor = {}
    for m in lifted.cat.morphisms:
        m0 = lifted.proj.mor[m]
        up = up_idx[(pi.mor[m0].name + (m.name[-1],),
                     pi.ob[m.dom[:-1]] + (m.dom[-1],))]
        mor[m] = fc.Mor((m0, up), ob[m.dom], ob[m.cod])
    mediating = fc.Functor(lifted.cat, pb, ob, mor)
    bad = mediating.validate()
    if bad:
        return False, f"mediating functor: {bad[0]}"
    ob_pre, mor_pre = Counter(ob.values()), Counter(mor.values())
    for y in pb.objects:
        if ob_pre[y] != 1:
            return False, f"object {_show(y)} has {ob_pre[y]} preimages"
    for u in pb.morphisms:
        if mor_pre[u] != 1:
            return False, f"morphism {_show(u.name)} has {mor_pre[u]} preimages"
    return True, f"{len(pb.objects)} objects, {len(pb.morphisms)} morphisms"


# ---------------------------------------------------------------------------
# scenario files: a source file plus bindings into a .fincat workspace


class Scenario:
    """A source file, its check_source verdicts, and its bindings."""

    __slots__ = ("source", "sig", "checks", "env")

    def __init__(self, source, sig, checks, env):
        self.source = source
        self.sig = sig          # the signature check_source built
        self.checks = checks    # check_source's records, one per declaration
        self.env = env


def load_scenario(path):
    """Read a scenario file.

    Line-oriented: `source FILE` names the judgements (once), `fincat
    FILE...` the category workspace, `bind type N = W` and `bind const
    N = W` tie signature names (each once) to workspace blocks.  Paths
    are relative to the scenario file; `#` starts a comment.
    """
    path = Path(path)
    src_path = None
    cat_paths = []
    binds = {}
    for ln, raw in enumerate(k.read_source(path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        match line.split():
            case ["source", rel]:
                if src_path is not None:
                    raise InterpError(f"{path}:{ln}: repeated 'source' line")
                src_path = path.parent / rel
            case ["fincat", *rels] if rels:
                cat_paths.extend(path.parent / rel for rel in rels)
            case ["bind", ("type" | "const") as kind, name, "=", target]:
                if name in binds:
                    raise InterpError(
                        f"{path}:{ln}: repeated binding of {name!r}")
                binds[name] = (kind, target)
            case _:
                raise InterpError(f"{path}:{ln}: cannot read {line!r}")
    if src_path is None:
        raise InterpError(f"{path}: no 'source' line")
    source = ps.parse_dtt(k.read_source(src_path), str(src_path))
    ws = load_workspace(cat_paths, path)
    sig, checks = ch.check_source(source)
    env = build_env(sig, checks, ws, binds)
    return Scenario(source, sig, checks, env)


def load_workspace(paths, owner):
    """Parse .fincat files into one CatFile and build it; the first
    problem of the build is an InterpError naming `owner`, the file that
    asked for it."""
    cf = ps.CatFile()
    for p in paths:
        ps.parse_fincat(k.read_source(p), str(p), cf)
    try:
        return fc.build_catfile(cf)
    except fc.BlockError as err:
        name, msg = err.args
        raise InterpError(
            f"{owner}: workspace block {name!r}: {msg}") from None


def build_env(sig, checks, ws, binds):
    """Resolve name bindings against a workspace into a SemanticEnv.

    `binds` maps a name to ("type" | "const", workspace text) in
    scenario order.  Base types bind to a category (constant fibers) or
    a fiber block; constants bind to an object or morphism name
    (constant section) or a section block.  Each binding resolves at
    its declaration's record in `checks`, so a telescope may mention any
    name bound above it; a failed declaration cannot be bound.
    """
    for name, (kind, _) in binds.items():
        if name not in (sig.bases if kind == "type" else sig.consts):
            what = "base type" if kind == "type" else "assumed constant"
            raise InterpError(f"bind {kind} {name!r}: no such {what}")
    env = SemanticEnv()
    itp = Interpreter(sig, env, checks)
    for rec in checks:
        name = rec.subject
        if name not in binds:
            continue
        kind, target = binds[name]
        if not rec.ok:
            raise InterpError(
                f"bind {kind} {name!r}: the declaration does not typecheck")
        try:
            if kind == "type":
                env.bases[name] = _resolve_fiber(
                    ws, target, itp.context(sig.bases[name]))
            else:
                tele, ty = sig.consts[name]
                env.terms[name] = _resolve_section(ws, name, target,
                                                   itp.type(tele, ty))
        except ValueError as err:  # an earlier binding breaks this telescope
            raise InterpError(f"cannot interpret the declaration of "
                              f"{name!r}: {err}") from None
    return env


def _resolve_fiber(ws, target, base_cat):
    if target in ws.categories:
        return fc.constant_fibers(base_cat, ws.categories[target])
    block = ws.fibers.get(target)
    if block is None:
        raise InterpError(f"no category or fiber block named {target!r}")
    owner = f"fiber {block.name}"
    if block.constant is not None:
        return fc.constant_fibers(
            base_cat, _named(ws.categories, block.constant, owner, "category"))
    fibers, transitions = {}, {}
    for addr, cat_name in block.fibers:
        _put(fibers, _resolve_object(base_cat, addr, owner),
             _named(ws.categories, cat_name, owner, "category"),
             owner, "fiber at")
    for x in base_cat.objects:
        if x not in fibers:
            raise InterpError(f"{owner}: no fiber at {_show(x)}")
    for addr, fn_name in block.transitions:
        _put(transitions, _resolve_morphism(base_cat, addr, owner),
             _named(ws.functors, fn_name, owner, "functor"),
             owner, "transition along")
    for m in base_cat.morphisms:
        if m not in transitions:
            if m != base_cat.identity[m.dom]:
                raise InterpError(
                    f"{owner}: no transition along {_show(m.name)}")
            transitions[m] = fc.identity_functor(fibers[m.dom])
    return fc.FiberAssignment(base_cat, fibers, transitions)


def _put(table, key, value, owner, what):
    """Enter a resolved entry; a key given before is a repeat."""
    if key in table:
        shown = _show(key.name if isinstance(key, fc.Mor) else key)
        raise InterpError(f"{owner}: repeated {what} {shown}")
    table[key] = value


def _named(table, name, owner, kind):
    got = table.get(name)
    if got is None:
        raise InterpError(f"{owner}: unknown {kind} {name!r}")
    return got


def _resolve_section(ws, name, target, fa):
    block = ws.sections.get(target)
    if block is None:
        obj = {x: _resolve_value(fa.fibers[x], target, f"bind const {name!r}")
               for x in fa.base.objects}
        return fc.strict_section(fa, obj)
    obj, morp = {}, {}
    owner = f"section {block.name}"
    for addr, val in block.components:
        if _is_mor_addr(addr):
            m = _resolve_morphism(fa.base, addr, owner)
            _put(morp, m, _one([g for g in fa.fibers[m.cod].morphisms
                                if fc.token(g) == val],
                               f"{owner}: morphism value {val!r}",
                               "fiber morphisms"),
                 owner, "morphism part along")
        else:
            x = _resolve_object(fa.base, addr, owner)
            _put(obj, x, _resolve_value(fa.fibers[x], val, owner),
                 owner, "value at")
    for x in fa.base.objects:
        if x not in obj:
            raise InterpError(f"{owner}: no value at {_show(x)}")
    for m in fa.base.morphisms:
        morp.setdefault(m, fa.fibers[m.cod].identity[obj[m.cod]])
    return fc.Section(fa, obj, morp)


def _is_mor_addr(addr):
    return (isinstance(addr, tuple) and len(addr) == 2
            and isinstance(addr[0], tuple) and isinstance(addr[1], tuple))


def _one(cands, what, kind):
    if len(cands) == 1:
        return cands[0]
    raise InterpError(f"{what} matches {len(cands)} {kind}")


def _resolve_object(cat, addr, owner):
    if _is_mor_addr(addr):
        raise InterpError(
            f"{owner}: morphism address used where an object is needed")
    parts = (addr,) if isinstance(addr, str) else addr
    return _one([x for x in cat.objects if tuple(map(fc.token, x)) == parts],
                f"{owner}: address {parts!r}", "objects")


def _resolve_morphism(cat, addr, owner):
    if _is_mor_addr(addr):
        cands = [m for m in cat.morphisms
                 if (tuple(map(fc.token, m.dom)),
                     tuple(map(fc.token, m.name))) == addr]
    elif isinstance(addr, str):
        cands = [m for m in cat.morphisms
                 if tuple(map(fc.token, m.name)) == (addr,)]
    else:
        raise InterpError(f"{owner}: bad morphism address {addr!r}")
    return _one(cands, f"{owner}: address {addr!r}", "morphisms")


def _resolve_value(fiber_cat, text, owner):
    return _one([o for o in fiber_cat.objects if fc.token(o) == text],
                f"{owner}: value {text!r}", "fiber objects")

