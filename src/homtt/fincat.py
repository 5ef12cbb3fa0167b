"""Finite categories with total composition tables.

Everything here is exhaustive: laws are checked by enumerating composable
triples and universal properties by enumerating candidates.  Objects and
morphism names are arbitrary hashable values.  A category keeps its cells
in the order it is built, so reports and chosen representatives are
deterministic by construction; equality ignores that order.  A category
also keeps its objects and morphisms as frozensets (``obset``,
``morset``) for membership, and its hom sets in a (dom, cod) table built
on first use.  Equal morphisms are one object, kept in a dict of
``kernel.KeyRef`` weak references, so compare by identity; a ``Mor`` has
the value contract of a kernel node (``kernel.Interned``: frozen fields,
the dataclass repr, and copies and pickles that are the live morphism).

A fiber assignment's laws are read off its transitions' own maps, cell by
cell, with no identity or composite functor built.  The unit law is
checked once per distinct (transition, fiber) pair and the functoriality
law once per distinct triple of transitions, so cells that share their
functors share the verdict.  When every unit law holds, a composite with
an identity factor needs no check of its own: it composes whenever the
two transitions meet at one fiber object and the other one maps exactly
its source's objects and morphisms.

Identity morphisms of parsed and discrete categories are named ("id", x).
Constructed categories (pullbacks, comma categories) name morphisms by
their component data, and their identities are the component identities.

A Section carries both an object part and a morphism part (a splitting of
the projection, one fiber morphism per base morphism).  The pointwise kind
of section, where each base morphism carries the fiber identity, is the
strict special case built by strict_section; hom_functor accepts both,
conjugating hom sets by the endpoint morphism parts.

Text names stay at the edge: every lookup by .fincat text, here and in
interp, compares against token.
"""

from __future__ import annotations

from .kernel import InputError, Interned, KeyRef, Value, dropper

MAX_OBJECTS = 64
MAX_MORPHISMS = 4096


class SizeCapError(InputError):
    pass


def _fmt(x):
    if isinstance(x, str):
        return x
    if isinstance(x, Mor):
        return f"<{_fmt(x.name)}>"
    if isinstance(x, tuple):
        return "(" + " ".join(_fmt(p) for p in x) + ")"
    return repr(x)


class Mor(Interned):
    """An immutable morphism.  Equal live morphisms are one object, through
    a dict of weak references that building one looks up.  Its repr is
    for errors."""

    __slots__ = ("name", "dom", "cod", "__weakref__")
    __match_args__ = ("name", "dom", "cod")

    def __new__(cls, name, dom, cod):
        key = (name, dom, cod)
        ref = _live.get(key)
        m = ref and ref()
        if m is None:
            m = object.__new__(cls)
            _set_name(m, name)
            _set_dom(m, dom)
            _set_cod(m, cod)
            ref = _live[key] = KeyRef(m, _drop)
            ref.key = key
        return m


_set_name, _set_dom, _set_cod = Mor.name.__set__, Mor.dom.__set__, \
    Mor.cod.__set__
_live = {}  # (name, dom, cod) -> a weak reference to its one Mor
_drop = dropper(_live)


def identity_mor(x):
    return Mor(("id", x), x, x)


def _check_caps(objects, morphisms=()):
    """Refuse a category over the size caps, objects first; constructions
    call it before they list morphisms or build composites."""
    if len(objects) > MAX_OBJECTS:
        raise SizeCapError(f"{len(objects)} objects exceeds {MAX_OBJECTS}")
    if len(morphisms) > MAX_MORPHISMS:
        raise SizeCapError(
            f"{len(morphisms)} morphisms exceeds {MAX_MORPHISMS}")


class FinCat:
    def __init__(self, objects, morphisms, identity, compose):
        objects = tuple(objects)
        morphisms = tuple(morphisms)
        _check_caps(objects, morphisms)
        self.objects = objects
        self.morphisms = morphisms
        self.identity = dict(identity)
        self.compose = dict(compose)
        self.obset = frozenset(objects)
        self.morset = frozenset(morphisms)
        self._out = {}  # dom -> the morphisms out of it, in the given order
        for m in morphisms:
            self._out.setdefault(m.dom, []).append(m)
        self._hom = None  # (dom, cod) -> the morphisms, built on first use

    def __eq__(self, other):
        return other is self or (isinstance(other, FinCat)
                and self.obset == other.obset
                and self.morset == other.morset
                and self.identity == other.identity
                and self.compose == other.compose)

    def __repr__(self):
        return (f"FinCat({len(self.objects)} objects, "
                f"{len(self.morphisms)} morphisms)")

    def out_of(self, x):
        return self._out.get(x, ())

    def hom(self, x, y):
        if self._hom is None:
            self._hom = {}
            for m in self.morphisms:
                self._hom.setdefault((m.dom, m.cod), []).append(m)
        return list(self._hom.get((x, y), ()))

    def comp(self, g, f):
        """g after f."""
        try:
            return self.compose[(g, f)]
        except KeyError:
            raise ValueError(f"composite undefined: {g!r} after {f!r}") from None

    def validate(self):
        out = []
        objset, morset = self.obset, self.morset
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
            for g in self.out_of(f.cod):
                if (g, f) not in self.compose:
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
            for g in self.out_of(f.cod):
                gf = self.compose[(g, f)]
                for h in self.out_of(g.cod):
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


# ---------------------------------------------------------------------------
# duality and the core


def op_mor(m):
    return Mor(m.name, m.cod, m.dom)


def op(c):
    """The opposite of c, one op_mor per morphism of c (its only cells)."""
    flip = {m: op_mor(m) for m in c.morphisms}
    return FinCat(c.objects, [flip[m] for m in c.morphisms],
                  {x: flip[i] for x, i in c.identity.items()},
                  {(flip[f], flip[g]): flip[h]
                   for (g, f), h in c.compose.items()})


def core(c):
    return mkdiscrete(c.objects)


class Functor(Value):
    __slots__ = __match_args__ = ("source", "target", "ob", "mor")

    def __init__(self, source, target, ob, mor):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "ob", ob)
        object.__setattr__(self, "mor", mor)

    def validate(self):
        out = []
        for x in self.source.objects:
            if self.ob.get(x) not in self.target.obset:
                out.append(f"object map undefined or out of range at {_fmt(x)}")
        for m in self.source.morphisms:
            fm = self.mor.get(m)
            if fm is None or fm not in self.target.morset:
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


def differences(F, G):
    """Why F != G: their ends, else each cell they map apart, in order."""
    if F == G:
        return []
    if F.source != G.source or F.target != G.target:
        return ["functors differ in source or target"]
    return [*(f"functors differ at object {_fmt(x)}"
              for x in dict.fromkeys([*F.ob, *G.ob])
              if F.ob.get(x) != G.ob.get(x)),
            *(f"functors differ at morphism {_fmt(m.name)}"
              for m in dict.fromkeys([*F.mor, *G.mor])
              if F.mor.get(m) != G.mor.get(m))]


def core_inclusion(c):
    """The identity-on-objects functor from the discrete core into c."""
    cc = core(c)
    return Functor(cc, c, {x: x for x in c.objects},
                   {identity_mor(x): c.identity[x] for x in c.objects})


# ---------------------------------------------------------------------------
# fiber assignments (functors into Cat) and their sections


class FiberAssignment(Value):
    __slots__ = __match_args__ = ("base", "fibers", "transitions")

    def __init__(self, base, fibers, transitions):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "fibers", fibers)
        object.__setattr__(self, "transitions", transitions)

    def validate(self):
        out = []
        checked = {}   # id of a fiber or transition -> its problems
        for x in self.base.objects:
            c = self.fibers.get(x)
            if c is None:
                out.append(f"no fiber at {_fmt(x)}")
                continue
            bad = checked.get(id(c))
            if bad is None:
                bad = checked[id(c)] = c.validate()
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
            bad = checked.get(id(t))
            if bad is None:
                bad = checked[id(t)] = t.validate()
            if bad:
                out.append(f"transition along {_fmt(m.name)}: {bad[0]}")
        if out:
            return out
        base, trs = self.base, self.transitions
        units = {}  # ids of a transition and a fiber -> whether it is 1
        for x in base.objects:
            t, c = trs[base.identity[x]], self.fibers[x]
            ok = units.get(key := (id(t), id(c)))
            if ok is None:
                ok = units[key] = _is_identity(t, c)
            if not ok:
                out.append(f"transition at identity of {_fmt(x)} is not "
                           "the identity functor")
        # with every unit law kept, a composite with an identity factor
        # composes if its transitions meet at one fiber object and the
        # other one maps exactly its source's cells (see the docstring)
        ids = () if out else set(base.identity.values())
        exact = () if out else {
            i for i, t in {id(t): t for t in trs.values()}.items()
            if t.ob.keys() == t.source.obset
            and t.mor.keys() == t.source.morset}
        functorial = {}  # ids of three transitions -> whether they compose
        for (g, f), h in base.compose.items():
            tg, tf, th = trs[g], trs[f], trs[h]
            if tf.target is tg.source and (
                    h is g and f in ids and id(tg) in exact
                    or h is f and g in ids and id(tf) in exact):
                continue
            ok = functorial.get(key := (id(tg), id(tf), id(th)))
            if ok is None:
                ok = functorial[key] = _composes_to(tg, tf, th)
            if not ok:
                out.append("transitions not functorial at "
                           f"({_fmt(g.name)}, {_fmt(f.name)})")
        return out


def _is_identity(t, c):
    """t == identity_functor(c), read off t's own maps cell by cell."""
    ob, mor = t.ob, t.mor
    return (t.source == c and t.target == c
            and ob.keys() == c.obset
            and all(ob[y] == y for y in c.objects)
            and mor.keys() == c.morset
            and all(mor[m] is m for m in c.morphisms))


def _composes_to(outer, inner, h):
    """functor_compose(outer, inner) == h, read off the three functors'
    own maps cell by cell."""
    if inner.target != outer.source:
        raise ValueError("functors not composable")
    ob, mor, hob, hmor = outer.ob, outer.mor, h.ob, h.mor
    return (inner.source == h.source and outer.target == h.target
            and inner.ob.keys() == hob.keys()
            and all(ob[y] == hob[x] for x, y in inner.ob.items())
            and inner.mor.keys() == hmor.keys()
            and all(mor[v] is hmor[m] for m, v in inner.mor.items()))


def constant_fibers(base, c):
    same = identity_functor(c)
    return FiberAssignment(base, {x: c for x in base.objects},
                           {m: same for m in base.morphisms})


def _discrete_functor(src, tgt, obmap):
    return Functor(src, tgt, dict(obmap),
                   {identity_mor(x): identity_mor(y) for x, y in obmap.items()})


def _postcompose(fa, on_fiber, on_transition):
    """fa with on_fiber applied to every fiber and on_transition(t, new
    source, new target) to every transition.  Each is built once per
    distinct input (by identity, as FiberAssignment.validate checks them),
    so shared fibers and transitions stay shared.  A transition is keyed
    with the fibers at its ends as well, so that each new transition runs
    between the new fibers of its own base morphism."""
    made = {}
    for c in fa.fibers.values():
        if id(c) not in made:
            made[id(c)] = on_fiber(c)
    fibers = {x: made[id(c)] for x, c in fa.fibers.items()}
    transitions = {}
    for m, t in fa.transitions.items():
        key = (id(t), id(fa.fibers[m.dom]), id(fa.fibers[m.cod]))
        if key not in made:
            made[key] = on_transition(t, fibers[m.dom], fibers[m.cod])
        transitions[m] = made[key]
    return FiberAssignment(fa.base, fibers, transitions)


def core_fibers(fa):
    """Postcompose with core: each fiber collapsed to its discrete core."""
    return _postcompose(
        fa, core, lambda t, src, tgt: _discrete_functor(src, tgt, t.ob))


def op_fibers(fa):
    return _postcompose(fa, op, lambda t, src, tgt: Functor(
        src, tgt, dict(t.ob), {op_mor(a): op_mor(b) for a, b in t.mor.items()}))


def reindex(fa, F):
    """Pull a fiber assignment over F.target back along F."""
    fibers = {x: fa.fibers[F.ob[x]] for x in F.source.objects}
    transitions = {m: fa.transitions[F.mor[m]] for m in F.source.morphisms}
    return FiberAssignment(F.source, fibers, transitions)


def reindex_section(s, F):
    obj = {x: s.obj[F.ob[x]] for x in F.source.objects}
    mor = {m: s.mor[F.mor[m]] for m in F.source.morphisms}
    return Section(reindex(s.fa, F), obj, mor)


class Section(Value):
    __slots__ = __match_args__ = ("fa", "obj", "mor")

    def __init__(self, fa, obj, mor):
        object.__setattr__(self, "fa", fa)
        object.__setattr__(self, "obj", obj)
        object.__setattr__(self, "mor", mor)

    def validate(self):
        fa, out = self.fa, []
        for x in fa.base.objects:
            if self.obj.get(x) not in fa.fibers[x].obset:
                out.append(f"no point at {_fmt(x)}")
        if out:
            return out
        for m in fa.base.morphisms:
            g = self.mor.get(m)
            fib = fa.fibers[m.cod]
            if g is None or g not in fib.morset:
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
        fib, tr = fa.fibers[m.cod], fa.transitions[m]
        after, before = t.mor[m], op_mor(s.mor[m])
        obmap = {h: fib.comp(after, fib.comp(tr.mor[h], before))
                 for h in fibers[m.dom].objects}
        transitions[m] = _discrete_functor(fibers[m.dom], fibers[m.cod], obmap)
    return FiberAssignment(fa.base, fibers, transitions)


# ---------------------------------------------------------------------------
# pullback and comma categories


def composable(morphisms):
    """Pairs (m2, m1) with m1.cod == m2.dom: m2 in the given order, and
    for each, m1 in the given order."""
    into = {}
    for m1 in morphisms:
        into.setdefault(m1.cod, []).append(m1)
    return [(m2, m1) for m2 in morphisms for m1 in into.get(m2.dom, ())]


def _pair_cat(A, B, objects, morphisms, over=lambda b: b):
    """The category of the given pairs (a, b) and morphisms named (m, n),
    m in A and n in B, with identities and composites taken componentwise;
    b lies over the object over(b) of B."""
    _check_caps(objects, morphisms)
    identity = {(a, b): Mor((A.identity[a], B.identity[over(b)]),
                            (a, b), (a, b))
                for (a, b) in objects}
    compose = {}
    for m2, m1 in composable(morphisms):
        compose[(m2, m1)] = Mor((A.comp(m2.name[0], m1.name[0]),
                                 B.comp(m2.name[1], m1.name[1])),
                                m1.dom, m2.cod)
    return FinCat(objects, morphisms, identity, compose)


def _is_iso(c, f):
    return any(c.comp(g, f) == c.identity[f.dom]
               and c.comp(f, g) == c.identity[f.cod]
               for g in c.hom(f.cod, f.dom))


def _preimages(items, image):
    """items grouped by their image, each group in the given order."""
    out = {}
    for v in items:
        out.setdefault(image[v], []).append(v)
    return out


def pullback_cat(F, G):
    """Strict pullback of F: A → C ← B : G in Cat."""
    if F.target != G.target:
        raise ValueError("cospan legs have different targets")
    A, B = F.source, G.source
    ob_over = _preimages(B.objects, G.ob)
    mor_over = _preimages(B.morphisms, G.mor)
    objects = [(a, b) for a in A.objects for b in ob_over.get(F.ob[a], ())]
    _check_caps(objects)
    morphisms = [Mor((m, n), (m.dom, n.dom), (m.cod, n.cod))
                 for m in A.morphisms for n in mor_over.get(F.mor[m], ())]
    return _pair_cat(A, B, objects, morphisms)


def comma(F, arrows):
    """The comma category F ↓ D of F: C → D, restricted to the given
    morphisms of D.  Its objects are the pairs (c, f) of an object c of C
    and an admitted f out of F c; its morphisms (c, f) → (c', f') are the
    pairs (u, v) of u: c → c' and v: cod f → cod f' with v f = f' F(u)."""
    C, D = F.source, F.target
    out = {x: [f for f in D.out_of(x) if f in arrows] for x in D.objects}
    objects = [(c, f) for c in C.objects for f in out[F.ob[c]]]
    _check_caps(objects)
    morphisms = [Mor((u, v), (u.dom, f), (u.cod, g))
                 for u in C.morphisms
                 for f in out[F.ob[u.dom]] for g in out[F.ob[u.cod]]
                 for v in D.hom(f.cod, g.cod)
                 if D.comp(v, f) == D.comp(g, F.mor[u])]
    return _pair_cat(C, D, objects, morphisms, lambda f: f.cod)


# ---------------------------------------------------------------------------
# (co)cartesian morphisms and lifts


def _is_cocartesian(P, e):
    """Every e2 out of e.dom over b . P(e) is l . e for exactly one l
    over b."""
    E, B = P.source, P.target
    f = P.mor[e]
    for e2 in E.out_of(e.dom):
        for b in B.hom(f.cod, P.ob[e2.cod]):
            if B.comp(b, f) != P.mor[e2]:
                continue
            fills = [l for l in E.hom(e.cod, e2.cod)
                     if P.mor[l] == b and E.comp(l, e) == e2]
            if len(fills) != 1:
                return False
    return True


def has_cocartesian_lifts(P):
    """Chosen cocartesian lift for every (object, outgoing base morphism).

    Choice policy: the fiber identity over an identity, then the first
    candidate out of the object.  Returns (ok, lifts); on failure the dict
    lacks exactly the unliftable pairs.
    """
    lifts = {}
    ok = True
    for x in P.source.objects:
        for f in P.target.out_of(P.ob[x]):
            cands = [e for e in P.source.out_of(x)
                     if P.mor[e] == f and _is_cocartesian(P, e)]
            if not cands:
                ok = False
                continue
            i = P.source.identity[x]
            over_identity = f == P.target.identity[f.dom]
            lifts[(x, f)] = i if over_identity and i in cands else cands[0]
    return ok, lifts


# ---------------------------------------------------------------------------
# resolving parsed .fincat files


def token(v):
    """The .fincat text of an object or morphism: a string is its own, a
    Mor has its name's, ("id", x) is id_x; constructed names have none."""
    if isinstance(v, Mor):
        v = v.name
    match v:
        case str():
            return v
        case ("id", str(x)):
            return f"id_{x}"
    return None


class BlockError(Exception):
    """The first problem of a workspace build; its args are the block's
    name and the message."""


class Workspace:
    __slots__ = ("categories", "functors", "fibers", "sections")

    def __init__(self, fibers, sections):
        self.categories, self.functors = {}, {}
        # the parsed fiber and section blocks, resolved by interp
        self.fibers, self.sections = fibers, sections


def _build_category(block):
    """The category of a block, and its morphisms by text."""
    identity = {x: identity_mor(x) for x in block.objects}
    morphisms = [*identity.values(),
                 *(Mor(name, dom, cod) for name, dom, cod in block.arrows)]
    arrows = {token(m): m for m in morphisms}
    compose = {}
    for g, f in composable(morphisms):
        if f == identity[f.dom]:
            compose[(g, f)] = g
        elif g == identity[g.cod]:
            compose[(g, f)] = f
    for gn, fn, hn in block.composites:
        compose[(arrows[gn], arrows[fn])] = arrows[hn]
    return FinCat(block.objects, morphisms, identity, compose), arrows


def _valid(name, x):
    """x, which validates, or its first problem as block name's error."""
    problems = x.validate()
    if problems:
        raise BlockError(name, problems[0])
    return x


def build_catfile(cf):
    """Build and validate every block of a CatFile: categories, then
    functors, each kind in file order.  The first problem is a BlockError."""
    ws = Workspace(cf.fibers, cf.sections)
    tokens = {}  # category name -> its morphisms by text
    for name, block in cf.categories.items():
        try:
            cat, tokens[name] = _build_category(block)
        except SizeCapError as err:
            raise BlockError(name, str(err)) from None
        ws.categories[name] = _valid(name, cat)
    for name, block in cf.functors.items():
        for cat in (block.source, block.target):
            if cat not in ws.categories:
                raise BlockError(name, f"unknown category {cat!r}")
        src = ws.categories[block.source]
        tgt = ws.categories[block.target]
        ob = {}
        for x, y in block.ob:
            if x not in src.obset or y not in tgt.obset:
                raise BlockError(name, f"unknown object in 'ob {x} -> {y}'")
            ob[x] = y
        mor = {}
        src_n, tgt_n = tokens[block.source], tokens[block.target]
        for fn, gn in block.arr:
            if fn not in src_n or gn not in tgt_n:
                raise BlockError(name, f"unknown arrow in 'arr {fn} -> {gn}'")
            mor[src_n[fn]] = tgt_n[gn]
        for x in src.objects:
            if x in ob:
                mor.setdefault(src.identity[x], tgt.identity[ob[x]])
        ws.functors[name] = _valid(name, Functor(src, tgt, ob, mor))
    return ws

