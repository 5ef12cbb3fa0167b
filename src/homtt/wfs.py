"""Functor factorizations and lifting problems on finite categories.

Every functor factors through the category of pairs (object, outgoing
morphism) of its target; the left leg picks the identity and is the kind
of map projections lift against.  Projections of Grothendieck totals
admit such lifts via their chosen cocartesian data.  The triples category
(x, y, f: x -> y) that the interpreter assigns to a hom-typed context is
isomorphic to the middle of the factorization of the discrete inclusion,
which exhibits the unit x -> (x, x, 1_x) as a left map.  A brute-force
search over diagonals provides independent evidence for specific squares.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import checker as ch
from . import fincat as fc
from . import interp as ip
from . import kernel as k

_show = fc._fmt

FLAVORS = ("arrow", "iso")
# the most assignments a brute-force diagonal search will enumerate
BRUTE_CAP = 1_000_000


class WfsError(Exception):
    """A lift does not exist, is ambiguous, or the search is too large."""


@dataclass(frozen=True)
class Factorization:
    """original = right after left, through the pairs category."""

    original: fc.Functor
    left: fc.Functor
    right: fc.Functor

    @property
    def middle(self):
        return self.left.target

    def validate(self):
        out = [f"left leg: {p}" for p in self.left.validate()]
        out += [f"right leg: {p}" for p in self.right.validate()]
        composite = fc.functor_compose(self.right, self.left)
        out += [f"legs do not compose to the original functor: {d}"
                for d in fc.differences(composite, self.original)[:1]]
        return out


@dataclass(frozen=True)
class LiftingProblem:
    """A commuting square: p after top equals bottom after i."""

    i: fc.Functor
    p: fc.Functor
    top: fc.Functor
    bottom: fc.Functor

    def __post_init__(self):
        if (self.top.source != self.i.source
                or self.bottom.source != self.i.target
                or self.top.target != self.p.source
                or self.bottom.target != self.p.target):
            raise ValueError("square legs do not share endpoints")
        if diff := fc.differences(fc.functor_compose(self.p, self.top),
                                  fc.functor_compose(self.bottom, self.i)):
            raise ValueError(f"square does not commute: {diff[0]}")


@dataclass(frozen=True)
class LiftWitness:
    """A diagonal making both triangles of a lifting problem commute."""

    problem: LiftingProblem
    diagonal: fc.Functor

    def __post_init__(self):
        d, prob = self.diagonal, self.problem
        if diff := fc.differences(fc.functor_compose(d, prob.i), prob.top):
            raise ValueError(
                f"diagonal does not restrict to the top leg: {diff[0]}")
        if diff := fc.differences(fc.functor_compose(prob.p, d), prob.bottom):
            raise ValueError(
                f"diagonal does not project to the bottom leg: {diff[0]}")


def factor(F, flavor):
    """Split F: C -> D through pairs (c, morphism out of F c).

    flavor "arrow" admits every morphism of D in the second component,
    "iso" only the invertible ones.  The middle is the comma category
    F ↓ D on the admitted morphisms; the left leg sends c to (c, id), the
    right leg takes the codomain.  Only a middle over the size caps is
    refused.
    """
    if flavor not in FLAVORS:
        raise ValueError(f"unknown flavor {flavor!r}")
    D = F.target
    arrows = D.morset if flavor == "arrow" \
        else {f for f in D.morphisms if fc._is_iso(D, f)}
    mid = fc.comma(F, arrows)
    l_ob = {x: (x, D.identity[F.ob[x]]) for x in F.source.objects}
    l_mor = {u: fc.Mor((u, F.mor[u]), l_ob[u.dom], l_ob[u.cod])
             for u in F.source.morphisms}
    left = fc.Functor(F.source, mid, l_ob, l_mor)
    right = fc.Functor(mid, D, {x: x[1].cod for x in mid.objects},
                       {m: m.name[1] for m in mid.morphisms})
    return Factorization(F, left, right)


def opfib_lift(fact, lifts):
    """Lift the square of an arrow factorization using cocartesian data.

    `fact` is factor(p, "arrow") and `lifts` the complete table of chosen
    cocartesian lifts that fc.has_cocartesian_lifts gives for p.  The
    square has p's left leg on the left, p on the right, the identity on
    top and the right leg on the bottom.  The diagonal sends (e, f) to the
    codomain of the chosen cocartesian lift of f at e; its action on
    morphisms is the unique factorization through that lift, found by
    exhaustive search with uniqueness asserted.  Raises WfsError naming
    the obstruction when a factorization is missing or ambiguous.
    """
    p, mid = fact.original, fact.middle
    ob = {x: lifts[x].cod for x in mid.objects}
    mor = {}
    for m in mid.morphisms:
        u, v = m.name
        lam, lam2 = lifts[m.dom], lifts[m.cod]
        want = p.source.comp(lam2, u)
        cands = [w for w in p.source.hom(lam.cod, lam2.cod)
                 if p.mor[w] == v and p.source.comp(w, lam) == want]
        if len(cands) != 1:
            raise WfsError(
                f"{len(cands)} factorizations through the chosen lift at "
                f"{_show(m.dom)} over {_show(v.name)}")
        mor[m] = cands[0]
    ell = fc.Functor(mid, p.source, ob, mor)
    bad = ell.validate()
    if bad:
        raise WfsError(f"lift is not functorial: {bad[0]}")
    prob = LiftingProblem(fact.left, p, fc.identity_functor(p.source),
                          fact.right)
    return LiftWitness(prob, ell)


def hom_context(c):
    """The triples category (x, y, f: x -> y) over c, with its unit.

    Built through the interpreter for a one-variable hom context, so it
    is literally the category the semantics assigns.  The unit functor
    from the discrete core sends x to (x, x, 1_x).
    """
    sig = ch.Signature()
    sig.assume_type("B")
    env = ip.SemanticEnv(
        bases={"B": fc.constant_fibers(ip.terminal_ctx(), c)})
    itp = ip.Interpreter(sig, env)
    b = k.BaseT("B")
    ctx = (("s", k.Core(b)), ("t", b),
           ("f", k.Hom(b, k.IncOp(k.Var(0)), k.Var(1))))
    cat = itp.context(ctx)
    ob = {x: (x, x, c.identity[x]) for x in c.objects}
    unit = fc.Functor(fc.core(c), cat, ob,
                      {fc.identity_mor(x): cat.identity[ob[x]]
                       for x in c.objects})
    return cat, unit


def alpha_iso(c):
    """The isomorphism (x, y, f) -> (x, f) onto the factored inclusion.

    Returns (alpha, inverse, records): alpha from the triples category to
    the middle of factor(core_inclusion(c), "arrow"), its inverse (alpha's
    maps reversed), and the five verification records, as computed:
    functoriality of both, the two inverse identities, and alpha after
    the unit being exactly the left leg.  All of them hold by
    construction, so a failed one is a defect of the certificate.
    """
    cat, unit = hom_context(c)
    fact = factor(fc.core_inclusion(c), "arrow")
    mid = fact.middle
    ob = {x: (x[0], x[2]) for x in cat.objects}
    mor = {m: fc.Mor((fc.identity_mor(m.dom[0]), m.name[1]),
                     ob[m.dom], ob[m.cod])
           for m in cat.morphisms}
    alpha = fc.Functor(cat, mid, ob, mor)
    inverse = fc.Functor(mid, cat, {y: x for x, y in ob.items()},
                         {v: m for m, v in mor.items()})

    records = (
        ch.verdict("alpha", "alpha-functorial", alpha.validate()),
        ch.verdict("alpha", "inverse-functorial", inverse.validate()),
        ch.verdict("alpha", "left-inverse", fc.differences(
            fc.functor_compose(inverse, alpha), fc.identity_functor(cat))),
        ch.verdict("alpha", "right-inverse", fc.differences(
            fc.functor_compose(alpha, inverse), fc.identity_functor(mid))),
        ch.verdict("alpha", "unit-left-leg", fc.differences(
            fc.functor_compose(alpha, unit), fact.left)),
    )
    return alpha, inverse, records


def elimination_square(w):
    """The lifting square behind one eliminator witness.

    The unit goes against the projection of the motive's extension; the
    seed sits on top as its graph.  Returns the problem together with the
    witness for the interpreter's own diagonal, the graph of the
    transported section.
    """
    ext = ip.extend(w.e_cat, w.d_fa)
    top = ip.pairing_functor(w.unit, [w.d_sec], ext.cat)
    prob = LiftingProblem(w.unit, ext.proj, top,
                          fc.identity_functor(w.e_cat))
    ell = ip.pairing_functor(fc.identity_functor(w.e_cat), [w.e_full],
                             ext.cat)
    return prob, LiftWitness(prob, ell)


def brute_force_lifts(prob, cap=BRUTE_CAP):
    """Every diagonal of the square, by exhaustive search.

    Object images forced by the top leg are fixed first, the rest range
    over the fiber of the bottom leg; morphism images likewise, so both
    triangles commute by construction (LiftWitness checks them again),
    and each candidate is kept only if it is a functor.
    The result tuple is in a fixed order.  If the assignment space grows
    past cap the search refuses with WfsError rather than truncating.
    """
    B = prob.i.target
    E = prob.p.source
    forced_ob = {}
    for a in prob.i.source.objects:
        want = prob.top.ob[a]
        if forced_ob.setdefault(prob.i.ob[a], want) != want:
            return ()
    ob_cands = []
    total = 1
    for b in B.objects:
        if b in forced_ob:
            cands = [forced_ob[b]]
        else:
            cands = [e for e in E.objects
                     if prob.p.ob[e] == prob.bottom.ob[b]]
        if not cands:
            return ()
        ob_cands.append(cands)
        total *= len(cands)
    if total > cap:
        raise WfsError(
            f"{total} object assignments exceed the search cap {cap}")
    forced_mor = {}
    for u in prob.i.source.morphisms:
        want = prob.top.mor[u]
        if forced_mor.setdefault(prob.i.mor[u], want) != want:
            return ()
    found = []
    explored = 0
    for combo in itertools.product(*ob_cands):
        ob = dict(zip(B.objects, combo))
        mor_cands = []
        for m in B.morphisms:
            pool = ([forced_mor[m]] if m in forced_mor
                    else E.hom(ob[m.dom], ob[m.cod]))
            cands = [w for w in pool
                     if w.dom == ob[m.dom] and w.cod == ob[m.cod]
                     and prob.p.mor[w] == prob.bottom.mor[m]]
            if not cands:
                mor_cands = None
                break
            mor_cands.append(cands)
        if mor_cands is None:
            continue
        count = 1
        for cands in mor_cands:
            count *= len(cands)
        explored += count
        if explored > cap:
            raise WfsError(
                f"morphism assignments exceed the search cap {cap}")
        for mcombo in itertools.product(*mor_cands):
            cand = fc.Functor(B, E, ob, dict(zip(B.morphisms, mcombo)))
            if not cand.validate():
                found.append(LiftWitness(prob, cand))
    return tuple(found)
