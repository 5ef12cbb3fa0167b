"""Finite categories with total composition tables.

Everything here is exhaustive: laws are checked by enumerating triples and
universal properties by enumerating candidates.  Objects and morphism names
are arbitrary hashable values; ordering is by repr so reports and chosen
representatives are deterministic.

Identity morphisms of parsed and discrete categories are named ("id", x).
Constructed categories (totals, arrow categories, pullbacks) name morphisms
by their component data, and their identities are the component identities.

A Section carries both an object part and a morphism part (a splitting of
the projection, one fiber morphism per base morphism).  The pointwise kind
of section, where each base morphism must carry the fiber identity, is the
strict special case; is_strict tells them apart and hom_functor accepts
both, conjugating hom sets by the endpoint morphism parts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

MAX_OBJECTS = 64
MAX_MORPHISMS = 4096


class SizeCapError(Exception):
    pass


def skey(x):
    return repr(x)


def _fmt(x):
    if isinstance(x, str):
        return x
    if isinstance(x, Mor):
        return f"<{_fmt(x.name)}>"
    if isinstance(x, tuple):
        return "(" + " ".join(_fmt(p) for p in x) + ")"
    return repr(x)


@dataclass(frozen=True)
class Mor:
    name: object
    dom: object
    cod: object


def identity_mor(x):
    return Mor(("id", x), x, x)


class FinCat:
    def __init__(self, objects, morphisms, identity, compose):
        objects = tuple(sorted(objects, key=skey))
        morphisms = tuple(sorted(morphisms, key=skey))
        if len(objects) > MAX_OBJECTS:
            raise SizeCapError(f"{len(objects)} objects exceeds {MAX_OBJECTS}")
        if len(morphisms) > MAX_MORPHISMS:
            raise SizeCapError(
                f"{len(morphisms)} morphisms exceeds {MAX_MORPHISMS}")
        self.objects = objects
        self.morphisms = morphisms
        self.identity = dict(identity)
        self.compose = dict(compose)

    def __eq__(self, other):
        return (isinstance(other, FinCat)
                and self.objects == other.objects
                and self.morphisms == other.morphisms
                and self.identity == other.identity
                and self.compose == other.compose)

    def __repr__(self):
        return (f"FinCat({len(self.objects)} objects, "
                f"{len(self.morphisms)} morphisms)")

    def hom(self, x, y):
        return [m for m in self.morphisms if m.dom == x and m.cod == y]

    def comp(self, g, f):
        """g after f."""
        try:
            return self.compose[(g, f)]
        except KeyError:
            raise ValueError(f"composite undefined: {g!r} after {f!r}") from None

    def validate(self):
        out = []
        objset = set(self.objects)
        morset = set(self.morphisms)
        for x in self.objects:
            i = self.identity.get(x)
            if i is None:
                out.append(f"no identity for object {_fmt(x)}")
            elif i not in morset or i.dom != x or i.cod != x:
                out.append(f"bad identity for object {_fmt(x)}")
        for m in self.morphisms:
            if m.dom not in objset or m.cod not in objset:
                out.append(f"morphism {_fmt(m.name)} has unknown dom/cod")
        for (g, f), h in self.compose.items():
            if g not in morset or f not in morset or h not in morset:
                out.append(f"composite ({_fmt(g.name)}, {_fmt(f.name)}) "
                           "involves unknown morphisms")
            elif g.dom != f.cod:
                out.append("composition defined for non-composable pair "
                           f"({_fmt(g.name)}, {_fmt(f.name)})")
            elif h.dom != f.dom or h.cod != g.cod:
                out.append(f"composite ({_fmt(g.name)}, {_fmt(f.name)}) has "
                           "wrong endpoints")
        for f in self.morphisms:
            for g in self.morphisms:
                if g.dom == f.cod and (g, f) not in self.compose:
                    out.append("composition undefined for "
                               f"({_fmt(g.name)}, {_fmt(f.name)})")
        if out:
            return out
        for x in self.objects:
            i = self.identity[x]
            for f in self.morphisms:
                if f.dom == x and self.compose[(f, i)] != f:
                    out.append(f"identity law violated at {_fmt(f.name)}")
                if f.cod == x and self.compose[(i, f)] != f:
                    out.append(f"identity law violated at {_fmt(f.name)}")
        for f in self.morphisms:
            for g in self.morphisms:
                if g.dom != f.cod:
                    continue
                gf = self.compose[(g, f)]
                for h in self.morphisms:
                    if h.dom != g.cod:
                        continue
                    if self.compose[(h, gf)] != self.compose[(self.compose[(h, g)], f)]:
                        out.append(
                            "associativity violated at "
                            f"({_fmt(h.name)}, {_fmt(g.name)}, {_fmt(f.name)})")
        return out


def mkdiscrete(objects):
    objects = tuple(objects)
    ids = {x: identity_mor(x) for x in objects}
    compose = {(i, i): i for i in ids.values()}
    return FinCat(objects, ids.values(), ids, compose)


def serialize(c):
    lines = ["objects " + " ".join(sorted(_fmt(x) for x in c.objects))]
    for m in c.morphisms:
        lines.append(f"mor {_fmt(m.name)} : {_fmt(m.dom)} -> {_fmt(m.cod)}")
    comp = sorted(f"compose {_fmt(g.name)} {_fmt(f.name)} = {_fmt(h.name)}"
                  for (g, f), h in c.compose.items())
    return "\n".join(lines + comp) + "\n"


# ---------------------------------------------------------------------------
# duality and the core


def op_mor(m):
    return Mor(m.name, m.cod, m.dom)


def op(c):
    morphisms = [op_mor(m) for m in c.morphisms]
    identity = {x: op_mor(i) for x, i in c.identity.items()}
    compose = {(op_mor(f), op_mor(g)): op_mor(h)
               for (g, f), h in c.compose.items()}
    return FinCat(c.objects, morphisms, identity, compose)


def core(c):
    return mkdiscrete(c.objects)


def relabel(c, ob_fn, name_fn):
    """Rename every object with ob_fn and every morphism name with name_fn.

    name_fn receives the whole morphism so renamings can consult endpoints.
    Both maps must be injective on c.  Returns the renamed category together
    with the old-to-new morphism table.
    """
    mor_map = {m: Mor(name_fn(m), ob_fn(m.dom), ob_fn(m.cod))
               for m in c.morphisms}
    cat = FinCat([ob_fn(x) for x in c.objects],
                 mor_map.values(),
                 {ob_fn(x): mor_map[i] for x, i in c.identity.items()},
                 {(mor_map[g], mor_map[f]): mor_map[h]
                  for (g, f), h in c.compose.items()})
    return cat, mor_map


@dataclass(frozen=True)
class Functor:
    source: FinCat
    target: FinCat
    ob: dict
    mor: dict

    def __eq__(self, other):
        return (isinstance(other, Functor) and self.source == other.source
                and self.target == other.target and self.ob == other.ob
                and self.mor == other.mor)

    def ap(self, x):
        return self.ob[x]

    def ap_mor(self, m):
        return self.mor[m]

    def validate(self):
        out = []
        for x in self.source.objects:
            if self.ob.get(x) not in self.target.objects:
                out.append(f"object map undefined or out of range at {_fmt(x)}")
        for m in self.source.morphisms:
            fm = self.mor.get(m)
            if fm is None or fm not in set(self.target.morphisms):
                out.append(f"morphism map undefined at {_fmt(m.name)}")
            elif fm.dom != self.ob.get(m.dom) or fm.cod != self.ob.get(m.cod):
                out.append(f"endpoints not preserved at {_fmt(m.name)}")
        if out:
            return out
        for x in self.source.objects:
            if self.mor[self.source.identity[x]] != self.target.identity[self.ob[x]]:
                out.append(f"identity not preserved at {_fmt(x)}")
        for (g, f), h in self.source.compose.items():
            if self.target.compose[(self.mor[g], self.mor[f])] != self.mor[h]:
                out.append("composition not preserved at "
                           f"({_fmt(g.name)}, {_fmt(f.name)})")
        return out


def identity_functor(c):
    return Functor(c, c, {x: x for x in c.objects},
                   {m: m for m in c.morphisms})


def functor_compose(outer, inner):
    """outer after inner."""
    if inner.target != outer.source:
        raise ValueError("functors not composable")
    return Functor(inner.source, outer.target,
                   {x: outer.ob[y] for x, y in inner.ob.items()},
                   {m: outer.mor[v] for m, v in inner.mor.items()})


def op_functor(F):
    return Functor(op(F.source), op(F.target), dict(F.ob),
                   {op_mor(m): op_mor(v) for m, v in F.mor.items()})


def core_inclusion(c):
    """The identity-on-objects functor from the discrete core into c."""
    cc = core(c)
    return Functor(cc, c, {x: x for x in c.objects},
                   {identity_mor(x): c.identity[x] for x in c.objects})


def op_inclusion(c):
    cop = op(c)
    return Functor(core(c), cop, {x: x for x in c.objects},
                   {identity_mor(x): cop.identity[x] for x in c.objects})


@dataclass(frozen=True)
class NatTrans:
    source: Functor
    target: Functor
    components: dict

    def __eq__(self, other):
        return (isinstance(other, NatTrans) and self.source == other.source
                and self.target == other.target
                and self.components == other.components)

    def validate(self):
        F, G = self.source, self.target
        out = []
        if F.source != G.source or F.target != G.target:
            return ["functors do not share source and target"]
        for x in F.source.objects:
            cx = self.components.get(x)
            if cx is None:
                out.append(f"no component at {_fmt(x)}")
            elif cx.dom != F.ob[x] or cx.cod != G.ob[x]:
                out.append(f"component at {_fmt(x)} has wrong endpoints")
        if out:
            return out
        for m in F.source.morphisms:
            lhs = F.target.comp(self.components[m.cod], F.mor[m])
            rhs = F.target.comp(G.mor[m], self.components[m.dom])
            if lhs != rhs:
                out.append(f"naturality fails at {_fmt(m.name)}")
        return out


# ---------------------------------------------------------------------------
# fiber assignments (functors into Cat) and their sections


@dataclass(frozen=True)
class FiberAssignment:
    base: FinCat
    fibers: dict
    transitions: dict

    def __eq__(self, other):
        return (isinstance(other, FiberAssignment)
                and self.base == other.base and self.fibers == other.fibers
                and self.transitions == other.transitions)

    def fiber(self, x):
        return self.fibers[x]

    def transition(self, m):
        return self.transitions[m]

    def validate(self):
        out = []
        for x in self.base.objects:
            c = self.fibers.get(x)
            if c is None:
                out.append(f"no fiber at {_fmt(x)}")
                continue
            bad = c.validate()
            if bad:
                out.append(f"fiber at {_fmt(x)}: {bad[0]}")
        for m in self.base.morphisms:
            t = self.transitions.get(m)
            if t is None:
                out.append(f"no transition along {_fmt(m.name)}")
                continue
            if t.source != self.fibers.get(m.dom) \
                    or t.target != self.fibers.get(m.cod):
                out.append(f"transition along {_fmt(m.name)} has wrong "
                           "source or target")
                continue
            bad = t.validate()
            if bad:
                out.append(f"transition along {_fmt(m.name)}: {bad[0]}")
        if out:
            return out
        for x in self.base.objects:
            if self.transitions[self.base.identity[x]] != \
                    identity_functor(self.fibers[x]):
                out.append(f"transition at identity of {_fmt(x)} is not "
                           "the identity functor")
        for (g, f), h in self.base.compose.items():
            comp = functor_compose(self.transitions[g], self.transitions[f])
            if comp != self.transitions[h]:
                out.append("transitions not functorial at "
                           f"({_fmt(g.name)}, {_fmt(f.name)})")
        return out


def constant_fibers(base, c):
    return FiberAssignment(
        base, {x: c for x in base.objects},
        {m: identity_functor(c) for m in base.morphisms})


def _discrete_functor(src, tgt, obmap):
    return Functor(src, tgt, dict(obmap),
                   {identity_mor(x): identity_mor(y) for x, y in obmap.items()})


def core_fibers(fa):
    """Postcompose with core: each fiber collapsed to its discrete core."""
    fibers = {x: core(c) for x, c in fa.fibers.items()}
    transitions = {
        m: _discrete_functor(fibers[m.dom], fibers[m.cod], t.ob)
        for m, t in fa.transitions.items()}
    return FiberAssignment(fa.base, fibers, transitions)


def op_fibers(fa):
    fibers = {x: op(c) for x, c in fa.fibers.items()}
    transitions = {m: Functor(fibers[m.dom], fibers[m.cod], dict(t.ob),
                              {op_mor(a): op_mor(b) for a, b in t.mor.items()})
                   for m, t in fa.transitions.items()}
    return FiberAssignment(fa.base, fibers, transitions)


def reindex(fa, F):
    """Pull a fiber assignment over F.target back along F."""
    fibers = {x: fa.fibers[F.ob[x]] for x in F.source.objects}
    transitions = {m: fa.transitions[F.mor[m]] for m in F.source.morphisms}
    return FiberAssignment(F.source, fibers, transitions)


def reindex_section(s, F):
    obj = {x: s.obj[F.ob[x]] for x in F.source.objects}
    mor = {m: s.mor[F.mor[m]] for m in F.source.morphisms}
    return Section(reindex(s.fa, F), obj, mor)


@dataclass(frozen=True)
class Section:
    fa: FiberAssignment
    obj: dict
    mor: dict

    def __eq__(self, other):
        return (isinstance(other, Section) and self.fa == other.fa
                and self.obj == other.obj and self.mor == other.mor)

    def is_strict(self):
        return all(self.mor[m] == self.fa.fibers[m.cod].identity[self.obj[m.cod]]
                   for m in self.fa.base.morphisms)

    def validate(self):
        fa, out = self.fa, []
        for x in fa.base.objects:
            if self.obj.get(x) not in fa.fibers[x].objects:
                out.append(f"no point at {_fmt(x)}")
        if out:
            return out
        for m in fa.base.morphisms:
            g = self.mor.get(m)
            fib = fa.fibers[m.cod]
            if g is None or g not in set(fib.morphisms):
                out.append(f"no morphism part along {_fmt(m.name)}")
            elif g.dom != fa.transitions[m].ob[self.obj[m.dom]] \
                    or g.cod != self.obj[m.cod]:
                out.append(f"morphism part along {_fmt(m.name)} has wrong "
                           "endpoints")
        if out:
            return out
        for x in fa.base.objects:
            i = fa.base.identity[x]
            if self.mor[i] != fa.fibers[x].identity[self.obj[x]]:
                out.append(f"morphism part at identity of {_fmt(x)} is not "
                           "the identity")
        for (g, f), h in fa.base.compose.items():
            lhs = self.mor[h]
            rhs = fa.fibers[g.cod].comp(
                self.mor[g], fa.transitions[g].mor[self.mor[f]])
            if lhs != rhs:
                out.append("section law fails at "
                           f"({_fmt(g.name)}, {_fmt(f.name)})")
        return out


def strict_section(fa, obj):
    """Section with identity morphism parts (the pointwise-natural kind)."""
    mor = {m: fa.fibers[m.cod].identity[obj[m.cod]]
           for m in fa.base.morphisms}
    return Section(fa, dict(obj), mor)


def _unop(m):
    return Mor(m.name, m.cod, m.dom)


def hom_functor(fa, s, t):
    """The set-valued assignment γ ↦ hom_{fa(γ)}(s_γ, t_γ) as discrete fibers.

    s is a section of op_fibers(fa), t a section of fa (either may carry
    non-identity morphism parts).  A hom element h over γ is carried along
    ψ: γ → γ' to  t.mor[ψ] ∘ fa(ψ)(h) ∘ s.mor[ψ]-reversed.
    """
    for name, sec in (("source", s), ("target", t)):
        bad = sec.validate()
        if bad:
            raise ValueError(f"{name} section: {bad[0]}")
    fibers = {x: mkdiscrete(fa.fibers[x].hom(s.obj[x], t.obj[x]))
              for x in fa.base.objects}
    transitions = {}
    for m in fa.base.morphisms:
        fib = fa.fibers[m.cod]
        tr = fa.transitions[m]
        obmap = {}
        for h in fibers[m.dom].objects:
            carried = fib.comp(t.mor[m], fib.comp(tr.mor[h], _unop(s.mor[m])))
            obmap[h] = carried
        transitions[m] = _discrete_functor(fibers[m.dom], fibers[m.cod], obmap)
    return FiberAssignment(fa.base, fibers, transitions)


def identity_section(fa, t):
    """1_t: picks id at t_γ inside hom_functor(fa, op-t, t).

    t is a section of core_fibers(fa); both composites of t with the
    inclusions are strict sections, and the chosen identities match up
    under every transition, which makes the result a strict section too.
    """
    s_op = strict_section(op_fibers(fa), t.obj)
    t_in = strict_section(fa, t.obj)
    hf = hom_functor(fa, s_op, t_in)
    obj = {x: fa.fibers[x].identity[t.obj[x]] for x in fa.base.objects}
    return strict_section(hf, obj)


# ---------------------------------------------------------------------------
# Grothendieck construction


@dataclass(frozen=True)
class GrothTotal:
    base: FinCat
    fa: FiberAssignment
    total: FinCat
    projection: Functor
    lifts: dict  # (object of total, base morphism out of its image) -> chosen


def groth(base, fa):
    bad = fa.validate()
    if bad:
        raise ValueError(f"fiber assignment: {bad[0]}")
    objects = [(x, y) for x in base.objects for y in fa.fibers[x].objects]
    morphisms = []
    for f in base.morphisms:
        tr = fa.transitions[f]
        for (x, y) in objects:
            if x != f.dom:
                continue
            for g in fa.fibers[f.cod].morphisms:
                if g.dom == tr.ob[y]:
                    morphisms.append(Mor((f, g), (x, y), (f.cod, g.cod)))
    identity = {(x, y): Mor((base.identity[x], fa.fibers[x].identity[y]),
                            (x, y), (x, y))
                for (x, y) in objects}
    by_data = {(m.name, m.dom): m for m in morphisms}
    compose = {}
    for m2 in morphisms:
        f2, g2 = m2.name
        for m1 in morphisms:
            if m1.cod != m2.dom:
                continue
            f1, g1 = m1.name
            f = base.comp(f2, f1)
            g = fa.fibers[f2.cod].comp(g2, fa.transitions[f2].mor[g1])
            compose[(m2, m1)] = by_data[((f, g), m1.dom)]
    total = FinCat(objects, morphisms, identity, compose)
    projection = Functor(total, base, {o: o[0] for o in objects},
                         {m: m.name[0] for m in morphisms})
    lifts = {}
    for (x, y) in objects:
        for f in base.morphisms:
            if f.dom != x:
                continue
            y2 = fa.transitions[f].ob[y]
            lifts[((x, y), f)] = by_data[
                ((f, fa.fibers[f.cod].identity[y2]), (x, y))]
    return GrothTotal(base, fa, total, projection, lifts)


def section_as_functor(gt, s):
    """A section of gt.fa as a splitting functor base → total."""
    ob = {x: (x, s.obj[x]) for x in gt.base.objects}
    mor = {m: Mor((m, s.mor[m]), ob[m.dom], ob[m.cod])
           for m in gt.base.morphisms}
    return Functor(gt.base, gt.total, ob, mor)


# ---------------------------------------------------------------------------
# arrow, iso, pullback categories


def _square_cat(c, objs):
    """Category whose objects are the given morphisms of c and whose
    morphisms f → g are pairs (u, v) with v∘f = g∘u."""
    morphisms = []
    for f in objs:
        for g in objs:
            for u in c.morphisms:
                if u.dom != f.dom or u.cod != g.dom:
                    continue
                for v in c.morphisms:
                    if v.dom != f.cod or v.cod != g.cod:
                        continue
                    if c.comp(v, f) == c.comp(g, u):
                        morphisms.append(Mor((u, v), f, g))
    identity = {f: Mor((c.identity[f.dom], c.identity[f.cod]), f, f)
                for f in objs}
    compose = {}
    for m2 in morphisms:
        for m1 in morphisms:
            if m1.cod != m2.dom:
                continue
            u = c.comp(m2.name[0], m1.name[0])
            v = c.comp(m2.name[1], m1.name[1])
            compose[(m2, m1)] = Mor((u, v), m1.dom, m2.cod)
    return FinCat(objs, morphisms, identity, compose)


def arrow_cat(c):
    return _square_cat(c, c.morphisms)


def _is_iso(c, f):
    return any(c.comp(g, f) == c.identity[f.dom]
               and c.comp(f, g) == c.identity[f.cod]
               for g in c.hom(f.cod, f.dom))


def iso_cat(c):
    return _square_cat(c, tuple(f for f in c.morphisms if _is_iso(c, f)))


def pullback_cat(F, G):
    """Strict pullback of F: A → C ← B : G in Cat."""
    if F.target != G.target:
        raise ValueError("cospan legs have different targets")
    A, B = F.source, G.source
    objects = [(a, b) for a in A.objects for b in B.objects
               if F.ob[a] == G.ob[b]]
    morphisms = [Mor((m, n), (m.dom, n.dom), (m.cod, n.cod))
                 for m in A.morphisms for n in B.morphisms
                 if F.mor[m] == G.mor[n]]
    identity = {(a, b): Mor((A.identity[a], B.identity[b]), (a, b), (a, b))
                for (a, b) in objects}
    compose = {}
    for m2 in morphisms:
        for m1 in morphisms:
            if m1.cod != m2.dom:
                continue
            compose[(m2, m1)] = Mor((A.comp(m2.name[0], m1.name[0]),
                                     B.comp(m2.name[1], m1.name[1])),
                                    m1.dom, m2.cod)
    return FinCat(objects, morphisms, identity, compose)


# ---------------------------------------------------------------------------
# (co)cartesian morphisms and lifts


def is_cartesian(P, e):
    """Exhaustive: every competitor with the right image factors uniquely."""
    E, B = P.source, P.target
    for e2 in E.morphisms:
        if e2.cod != e.cod:
            continue
        for b in B.morphisms:
            if b.dom != P.ob[e2.dom] or b.cod != P.ob[e.dom]:
                continue
            if B.comp(P.mor[e], b) != P.mor[e2]:
                continue
            fills = [l for l in E.morphisms
                     if l.dom == e2.dom and l.cod == e.dom
                     and P.mor[l] == b and E.comp(e, l) == e2]
            if len(fills) != 1:
                return False
    return True


def is_cocartesian(P, e):
    return is_cartesian(op_functor(P), op_mor(e))


def has_cocartesian_lifts(P, prefer=None):
    """Chosen cocartesian lift for every (object, outgoing base morphism).

    Choice policy: a supplied preference table first (e.g. the canonical
    (f, id) lifts of a Grothendieck total), the fiber identity over an
    identity, then first in sorted order.  Returns (ok, lifts); on failure
    the dict lacks exactly the unliftable pairs.
    """
    prefer = prefer or {}
    lifts = {}
    ok = True
    for x in P.source.objects:
        for f in P.target.morphisms:
            if f.dom != P.ob[x]:
                continue
            cands = [e for e in P.source.morphisms
                     if e.dom == x and P.mor[e] == f and is_cocartesian(P, e)]
            if not cands:
                ok = False
                continue
            want = prefer.get((x, f))
            if want in cands:
                chosen = want
            elif f == P.target.identity[f.dom] \
                    and P.source.identity[x] in cands:
                chosen = P.source.identity[x]
            else:
                chosen = min(cands, key=skey)
            lifts[(x, f)] = chosen
    return ok, lifts


def are_isomorphic(c, d):
    """Search for an invertible functor; exhaustive, for small inputs only."""
    if len(c.objects) != len(d.objects) \
            or len(c.morphisms) != len(d.morphisms):
        return False

    cm = list(c.morphisms)

    def extend(ob, mor, i):
        if i == len(cm):
            F = Functor(c, d, ob, mor)
            return not F.validate() and len(set(mor.values())) == len(mor)
        m = cm[i]
        for v in d.morphisms:
            if v.dom != ob[m.dom] or v.cod != ob[m.cod] or v in mor.values():
                continue
            mor[m] = v
            if extend(ob, mor, i + 1):
                return True
            del mor[m]
        return False

    def assign(ob, rest):
        if not rest:
            return extend(ob, {}, 0)
        x, *more = rest
        for y in d.objects:
            if y in ob.values():
                continue
            ob[x] = y
            if assign(ob, more):
                return True
            del ob[x]
        return False

    return assign({}, list(c.objects))


# ---------------------------------------------------------------------------
# resolving parsed .fincat files


@dataclass
class Workspace:
    categories: dict = field(default_factory=dict)
    functors: dict = field(default_factory=dict)
    nats: dict = field(default_factory=dict)
    raw: object = None  # the CatFile, for fiber/section/square consumers
    diagnostics: list = field(default_factory=list)


def _build_category(block):
    arrows = {}
    for x in block.objects:
        arrows[f"id_{x}"] = identity_mor(x)
    for name, dom, cod in block.arrows:
        arrows[name] = Mor(name, dom, cod)
    morphisms = list(arrows.values())
    identity = {x: arrows[f"id_{x}"] for x in block.objects}
    compose = {}
    for g in morphisms:
        for f in morphisms:
            if f.cod == g.dom:
                if f == identity[f.dom]:
                    compose[(g, f)] = g
                elif g == identity[g.cod]:
                    compose[(g, f)] = f
    for gn, fn, hn in block.composites:
        compose[(arrows[gn], arrows[fn])] = arrows[hn]
    return FinCat(block.objects, morphisms, identity, compose), arrows


def mor_by_name(cat):
    """Text names for a built category's morphisms, identities as id_x."""
    out = {}
    for m in cat.morphisms:
        match m.name:
            case ("id", x):
                out[f"id_{x}"] = m
            case str(s):
                out[s] = m
    return out


def build_catfile(cf):
    ws = Workspace(raw=cf)
    names = {}
    for name, block in cf.categories.items():
        try:
            cat, arrows = _build_category(block)
        except SizeCapError as err:
            ws.diagnostics.append((name, str(err)))
            continue
        problems = cat.validate()
        if problems:
            ws.diagnostics.append((name, problems[0]))
            continue
        ws.categories[name] = cat
        names[name] = arrows
    for name, block in cf.functors.items():
        src = ws.categories.get(block.source)
        tgt = ws.categories.get(block.target)
        if src is None or tgt is None:
            missing = block.source if src is None else block.target
            ws.diagnostics.append((name, f"unknown category {missing!r}"))
            continue
        ob = {}
        bad = False
        for x, y in block.ob:
            if x not in src.objects or y not in tgt.objects:
                ws.diagnostics.append((name, f"unknown object in 'ob {x} -> {y}'"))
                bad = True
            else:
                ob[x] = y
        mor = {}
        src_n, tgt_n = names[block.source], names[block.target]
        for fn, gn in block.arr:
            if fn not in src_n or gn not in tgt_n:
                ws.diagnostics.append((name, f"unknown arrow in 'arr {fn} -> {gn}'"))
                bad = True
            else:
                mor[src_n[fn]] = tgt_n[gn]
        if bad:
            continue
        for x in src.objects:
            if x in ob:
                mor.setdefault(src.identity[x], tgt.identity[ob[x]])
        F = Functor(src, tgt, ob, mor)
        problems = F.validate()
        if problems:
            ws.diagnostics.append((name, problems[0]))
            continue
        ws.functors[name] = F
    for name, block in cf.nats.items():
        F = ws.functors.get(block.source)
        G = ws.functors.get(block.target)
        if F is None or G is None:
            missing = block.source if F is None else block.target
            ws.diagnostics.append((name, f"unknown functor {missing!r}"))
            continue
        tgt_n = mor_by_name(F.target)
        comps = {}
        bad = False
        for x, mn in block.components:
            if x not in F.source.objects or mn not in tgt_n:
                ws.diagnostics.append((name, f"bad component 'at {x} : {mn}'"))
                bad = True
            else:
                comps[x] = tgt_n[mn]
        if not bad:
            ws.nats[name] = NatTrans(F, G, comps)
    return ws
