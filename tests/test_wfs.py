import itertools

import pytest

import cats
import oracles
import smallcats
from homtt import fincat as fc
from homtt import interp as ip
from homtt import kernel as k
from homtt import wfs
from test_interp import CLOSED_ARGS, comp_setup


# -- oracles ----------------------------------------------------------------
#
# Counts by direct enumeration and the lift formula on Grothendieck totals,
# written without the factorization machinery.


def middle_census(F, flavor):
    """Objects are pairs (x, f out of F x); morphisms are the commuting
    squares, counted straight from the definition."""
    D = F.target
    objs = [(x, f) for x in F.source.objects for f in D.morphisms
            if f.dom == F.ob[x]
            and (flavor == "arrow" or oracles.invertible(D, f))]
    mors = 0
    for (x, f) in objs:
        for (y, g) in objs:
            for u in F.source.morphisms:
                if u.dom != x or u.cod != y:
                    continue
                for v in D.morphisms:
                    if (v.dom == f.cod and v.cod == g.cod
                            and D.comp(v, f) == D.comp(g, F.mor[u])):
                        mors += 1
    return len(objs), mors


def groth_lift_values(gt):
    """(e, f) goes to (cod f, transition-along-f of the fiber part)."""
    return {(e, f): (f.cod, gt.fa.transitions[f].ob[e[1]])
            for e in gt.total.objects
            for f in gt.base.morphisms if f.dom == e[0]}


def mixed_fam():
    twoc, stc = cats.two(), cats.star()
    return fc.FiberAssignment(
        twoc, {"0": stc, "1": twoc},
        {twoc.identity["0"]: fc.identity_functor(stc),
         twoc.identity["1"]: fc.identity_functor(twoc),
         cats.arrow(twoc, "a"): fc.Functor(
             stc, twoc, {"*": "0"},
             {stc.identity["*"]: twoc.identity["0"]})})


def corpus_totals():
    return [
        oracles.groth(cats.two(), fc.constant_fibers(cats.two(), cats.two())),
        oracles.groth(cats.chain3(),
                      fc.constant_fibers(cats.chain3(), cats.para())),
        oracles.groth(cats.two(), mixed_fam()),
        oracles.groth(cats.z2(), fc.constant_fibers(cats.z2(), cats.z2())),
        oracles.groth(cats.grid22(), fc.core_fibers(
            fc.constant_fibers(cats.grid22(), cats.two()))),
    ]


# -- factorizations ---------------------------------------------------------

def test_factor_identity_walking_arrow():
    c = cats.two()
    fact = wfs.factor(fc.identity_functor(c), "arrow")
    assert fact.validate() == []
    assert fact.left.ob == {x: (x, c.identity[x]) for x in c.objects}
    want_obs, want_mors = middle_census(fact.original, "arrow")
    assert len(fact.middle.objects) == want_obs
    assert len(fact.middle.morphisms) == want_mors


def corpus_functors():
    return [fc.identity_functor(cats.grid22()),
            fc.core_inclusion(cats.chain3()),
            oracles.op_functor(fc.core_inclusion(cats.z2())),
            fc.Functor(cats.star(), cats.two(), {"*": "0"},
                       {cats.star().identity["*"]:
                        cats.two().identity["0"]})]


def codiscrete(n):
    """n objects and exactly one morphism between any two of them."""
    def mor(i, j):
        return fc.identity_mor(str(i)) if i == j \
            else fc.Mor(f"{i}{j}", str(i), str(j))
    pairs = list(itertools.product(range(n), repeat=2))
    return fc.FinCat([str(i) for i in range(n)],
                     [mor(i, j) for i, j in pairs],
                     {str(i): mor(i, i) for i in range(n)},
                     {(mor(j, k), mor(i, j)): mor(i, k)
                      for i, j in pairs for k in range(n)})


@pytest.mark.parametrize("flavor", ["arrow", "iso"])
def test_factor_legs_compose_over_the_corpus(flavor):
    for F in corpus_functors():
        fact = wfs.factor(F, flavor)
        assert fact.validate() == []
        want_obs, want_mors = middle_census(F, flavor)
        assert len(fact.middle.objects) == want_obs
        assert len(fact.middle.morphisms) == want_mors


def test_factor_census_commutative_square_poset():
    F = fc.identity_functor(cats.grid22())
    fact = wfs.factor(F, "arrow")
    want_obs, want_mors = middle_census(F, "arrow")
    assert (len(fact.middle.objects), len(fact.middle.morphisms)) \
        == (want_obs, want_mors)
    assert fact.validate() == []


def test_iso_flavor_shrinks_posets_but_not_groups():
    poset = wfs.factor(fc.identity_functor(cats.chain3()), "iso")
    assert len(poset.middle.objects) == 3
    assert all(f == cats.chain3().identity[x]
               for (x, f) in poset.middle.objects)
    group = wfs.factor(fc.identity_functor(cats.z2()), "iso")
    assert len(group.middle.objects) == 2
    assert poset.validate() == [] and group.validate() == []


@pytest.mark.parametrize("flavor", ["arrow", "iso"])
def test_factor_middle_is_the_square_route_cell_for_cell(flavor):
    """The comma category equals the strict pullback against domain
    evaluation on the square category, once each square (F u, v) is
    renamed to its v: objects, morphisms, identities and composites, all
    in the same order."""
    def renamed(m):
        return fc.Mor((m.name[0], m.name[1].name[1]), m.dom, m.cod)

    funs = [G(c) for c in smallcats.all_small().values()
            for G in (fc.identity_functor, fc.core_inclusion)]
    for F in funs + corpus_functors():
        mid = wfs.factor(F, flavor).middle
        ref = oracles.square_middle(F, flavor)
        assert mid.objects == ref.objects
        assert mid.morphisms == tuple(map(renamed, ref.morphisms))
        assert list(mid.identity.items()) \
            == [(x, renamed(i)) for x, i in ref.identity.items()]
        assert list(mid.compose.items()) \
            == [((renamed(g), renamed(f)), renamed(h))
                for (g, f), h in ref.compose.items()]


@pytest.mark.parametrize("flavor", ["arrow", "iso"])
def test_factor_refuses_only_a_middle_over_the_caps(flavor):
    # the arrow category of a codiscrete category on 9 objects has one
    # object per morphism, over the cap, but the middle of a point picking
    # one object has 9 objects and 81 morphisms
    D, pt = codiscrete(9), cats.star()
    assert len(D.morphisms) > fc.MAX_OBJECTS
    F = fc.Functor(pt, D, {"*": "0"}, {pt.identity["*"]: D.identity["0"]})
    fact = wfs.factor(F, flavor)
    assert (len(fact.middle.objects), len(fact.middle.morphisms)) == (9, 81)
    assert fact.middle.validate() == [] and fact.validate() == []
    with pytest.raises(fc.SizeCapError, match="81 objects exceeds 64"):
        wfs.factor(fc.core_inclusion(D), flavor)


@pytest.mark.parametrize("flavor", ["arrow", "iso"])
def test_factor_refuses_a_middle_from_its_object_count(flavor, monkeypatch):
    # the middle of the identity on the codiscrete category on 9 objects
    # has 81 objects, so comma refuses it before it builds any morphism,
    # and so any composite, of the 6,561 that middle has
    D = codiscrete(9)
    built, mor = [], fc.Mor
    monkeypatch.setattr(fc, "Mor", lambda *m: built.append(m) or mor(*m))
    with pytest.raises(fc.SizeCapError, match="^81 objects exceeds 64$"):
        wfs.factor(fc.identity_functor(D), flavor)
    assert built == []


def test_hom_context_refuses_its_second_context_from_its_object_count(
        monkeypatch):
    # the context (s : core B, t : B) over the codiscrete category on 9
    # objects has 81 objects, so extend refuses it before it lists its 729
    # morphisms; only the first context, core B, is composed
    composed, composable = [], fc.composable
    monkeypatch.setattr(fc, "composable", lambda ms: composed.append(
        len(ms)) or composable(ms))
    with pytest.raises(fc.SizeCapError, match="^81 objects exceeds 64$"):
        wfs.hom_context(codiscrete(9))
    assert composed == [9]


def test_extend_over_the_morphism_cap_composes_nothing(monkeypatch):
    # a 65-element monoid (g after f is g unless g is the identity) as the
    # constant fiber over the context of the codiscrete category on 8
    # objects: 8 objects but 64 * 65 morphisms, refused before any
    # identity or composite of them is built
    one = fc.identity_mor("x")
    ms = [one, *(fc.Mor(i, "x", "x") for i in range(64))]
    M = fc.FinCat(("x",), ms, {"x": one},
                  {(g, f): f if g is one else g for g in ms for f in ms})
    point = ip.terminal_ctx()
    base = ip.extend(point, fc.constant_fibers(point, codiscrete(8))).cat
    fa = fc.constant_fibers(base, M)
    composed = []
    monkeypatch.setattr(fc, "composable", lambda m: composed.append(m) or [])
    with pytest.raises(fc.SizeCapError,
                       match=f"^4160 morphisms exceeds {fc.MAX_MORPHISMS}$"):
        ip.extend(fa.base, fa)
    assert composed == []


def test_factor_rejects_unknown_flavor():
    with pytest.raises(ValueError, match="flavor"):
        wfs.factor(fc.identity_functor(cats.two()), "spine")


# -- opfibration lifts ------------------------------------------------------

def own_opfib_lift(p):
    """Lift p's own arrow factorization with its chosen cocartesian lifts."""
    ok, lifts = fc.has_cocartesian_lifts(p)
    assert ok
    return wfs.opfib_lift(wfs.factor(p, "arrow"), lifts)


def groth_opfib_lift(gt):
    """Lift a total's projection with the total's canonical (f, id) lifts,
    once the oracle finds each of them cocartesian."""
    assert all(oracles.is_cocartesian(gt.projection, lift)
               for lift in gt.lifts.values())
    return wfs.opfib_lift(wfs.factor(gt.projection, "arrow"), gt.lifts)


def test_opfib_lift_matches_the_groth_formula():
    for gt in corpus_totals():
        w = groth_opfib_lift(gt)
        want = groth_lift_values(gt)
        assert w.diagonal.ob == want
        assert w.problem.p is gt.projection


def test_opfib_lift_identity_functor():
    c = cats.chain3()
    w = own_opfib_lift(fc.identity_functor(c))
    assert w.diagonal.ob == {x: x[1].cod for x in w.diagonal.source.objects}


def test_opfib_lift_is_deterministic():
    gt = oracles.groth(cats.two(), mixed_fam())
    first = groth_opfib_lift(gt)
    second = groth_opfib_lift(gt)
    assert first.diagonal == second.diagonal


def test_opfib_lift_refuses_non_opfibration():
    stc, twoc = cats.star(), cats.two()
    p = fc.Functor(stc, twoc, {"*": "0"},
                   {stc.identity["*"]: twoc.identity["0"]})
    # the lift table is the gate: opfib_lift is only asked with a full one
    ok, lifts = fc.has_cocartesian_lifts(p)
    assert not ok
    assert ("*", cats.arrow(twoc, "a")) not in lifts


def test_opfib_lift_refuses_a_lift_that_is_not_cocartesian():
    """C is the monoid {1, m1, m2} with m1 absorbing and m2 idempotent, D
    the monoid {1, z} with z idempotent, and F sends m1 to z and m2 to 1.
    The only lift of z is m1, which is not cocartesian: over the identity
    of D it factors through itself as 1 m1 and as m2 m1.  Handed m1 as the
    chosen lift anyway, opfib_lift finds those two factorizations and
    refuses, although the square has 3 diagonals."""
    mul = {(a, 0): a for a in range(3)} | {(0, b): b for b in range(3)}
    mul |= {(1, b): 1 for b in range(3)} | {(a, 1): 1 for a in range(3)}
    mul[(2, 2)] = 2
    c, d = smallcats.monoid_cat(mul), cats.idem()
    one, m1, m2 = c.morphisms
    z, dx = cats.arrow(d, "e"), d.identity["x"]
    f = fc.Functor(c, d, {"*": "x"}, {one: dx, m1: z, m2: dx})
    assert not fc.has_cocartesian_lifts(f)[0]
    fact = wfs.factor(f, "arrow")
    with pytest.raises(wfs.WfsError,
                       match=r"^2 factorizations through the chosen lift at "
                             r"\(\* <e>\) over \(id x\)$"):
        wfs.opfib_lift(fact, {("*", dx): one, ("*", z): m1})
    square = wfs.LiftingProblem(fact.left, f, fc.identity_functor(c),
                                fact.right)
    assert len(wfs.brute_force_lifts(square)) == 3


# -- the alpha isomorphism --------------------------------------------------

def test_alpha_on_the_point():
    alpha, inverse, records = wfs.alpha_iso(cats.star())
    assert len(alpha.source.objects) == 1
    assert len(alpha.target.objects) == 1
    assert all(r.ok for r in records)


def test_alpha_on_the_walking_arrow_is_a_bijection():
    alpha, inverse, _ = wfs.alpha_iso(cats.two())
    assert len(alpha.source.objects) == 3
    assert len(alpha.target.objects) == 3
    assert set(alpha.ob.values()) == set(alpha.target.objects)
    assert set(alpha.mor.values()) == set(alpha.target.morphisms)
    assert fc.functor_compose(alpha, inverse) \
        == fc.identity_functor(alpha.target)


def test_functor_differences_name_the_first_cell():
    two, para = cats.two(), cats.para()
    p, q = cats.arrow(para, "p"), cats.arrow(para, "q")
    a = cats.arrow(two, "a")

    def onto(m):
        ids = {two.identity[x]: para.identity[x] for x in two.objects}
        return fc.Functor(two, para, {"0": "0", "1": "1"}, {**ids, a: m})

    F = onto(p)
    assert fc.differences(F, onto(p)) == []
    assert fc.differences(F, onto(q)) == ["functors differ at morphism a"]
    G = fc.Functor(two, para, {**F.ob, "1": "0"}, F.mor)
    assert fc.differences(F, G) == ["functors differ at object 1"]
    assert fc.differences(F, fc.identity_functor(two)) == [
        "functors differ in source or target"]


@pytest.mark.parametrize("name", sorted(cats.ALL))
def test_alpha_unit_is_the_left_leg_everywhere(name):
    c = cats.ALL[name]()
    alpha, inverse, records = wfs.alpha_iso(c)
    assert [r.check for r in records] == [
        "alpha-functorial", "inverse-functorial", "left-inverse",
        "right-inverse", "unit-left-leg"]
    assert all(r.ok for r in records)


# -- lifting problems and the brute-force search ----------------------------

def test_square_must_commute():
    stc, twoc = cats.star(), cats.two()
    into0 = fc.Functor(stc, twoc, {"*": "0"},
                       {stc.identity["*"]: twoc.identity["0"]})
    into1 = fc.Functor(stc, twoc, {"*": "1"},
                       {stc.identity["*"]: twoc.identity["1"]})
    with pytest.raises(ValueError, match="commute"):
        wfs.LiftingProblem(into0, fc.identity_functor(twoc),
                           into1, fc.identity_functor(twoc))


def test_square_legs_must_share_endpoints():
    stc, twoc = cats.star(), cats.two()
    into0 = fc.Functor(stc, twoc, {"*": "0"},
                       {stc.identity["*"]: twoc.identity["0"]})
    ident = fc.identity_functor(twoc)
    with pytest.raises(ValueError, match="do not share endpoints"):
        wfs.LiftingProblem(into0, ident, ident, ident)


def test_witness_triangles_are_checked():
    c = cats.two()
    ident = fc.identity_functor(c)
    flip = fc.Functor(c, c, {"0": "0", "1": "0"},
                      {m: c.identity["0"] for m in c.morphisms})
    prob = wfs.LiftingProblem(ident, ident, ident, ident)
    with pytest.raises(ValueError, match="top leg"):
        wfs.LiftWitness(prob, flip)


def _point(c, x):
    stc = cats.star()
    return fc.Functor(stc, c, {"*": x}, {stc.identity["*"]: c.identity[x]})


def test_planted_square_and_witness_defects_name_the_cell():
    c = cats.two()
    ident = fc.identity_functor(c)
    flip = fc.Functor(c, c, {"0": "0", "1": "0"},
                      {m: c.identity["0"] for m in c.morphisms})
    with pytest.raises(ValueError) as err:
        wfs.LiftingProblem(_point(c, "0"), ident, _point(c, "1"), ident)
    assert err.value.args == (
        "square does not commute: functors differ at object *",)
    with pytest.raises(ValueError) as err:
        wfs.LiftWitness(wfs.LiftingProblem(ident, ident, ident, ident), flip)
    assert err.value.args == ("diagonal does not restrict to the top leg: "
                              "functors differ at object 1",)
    # flip restricts to the top leg along the point 0, but does not
    # project to the bottom leg
    prob = wfs.LiftingProblem(_point(c, "0"), ident, _point(c, "0"), ident)
    with pytest.raises(ValueError) as err:
        wfs.LiftWitness(prob, flip)
    assert err.value.args == ("diagonal does not project to the bottom leg: "
                              "functors differ at object 1",)
    assert [w.diagonal for w in wfs.brute_force_lifts(prob)] == [ident]


def test_planted_factorization_defects_name_the_cell():
    c = cats.para()
    p, q = cats.arrow(c, "p"), cats.arrow(c, "q")
    fact = wfs.factor(fc.identity_functor(c), "arrow")
    assert fact.validate() == []
    swap = fc.Functor(c, c, {x: x for x in c.objects},
                      {**{m: m for m in c.morphisms}, p: q, q: p})
    assert wfs.Factorization(swap, fact.left, fact.right).validate() == [
        "legs do not compose to the original functor: "
        "functors differ at morphism p"]
    squash = fc.Functor(c, c, {"0": "0", "1": "0"},
                        {m: c.identity["0"] for m in c.morphisms})
    assert wfs.Factorization(squash, fact.left, fact.right).validate() == [
        "legs do not compose to the original functor: "
        "functors differ at object 1"]


def test_identity_square_has_exactly_one_lift():
    c = cats.two()
    ident = fc.identity_functor(c)
    prob = wfs.LiftingProblem(ident, ident, ident, ident)
    lifts = wfs.brute_force_lifts(prob)
    assert len(lifts) == 1
    assert lifts[0].diagonal == ident


def test_unsolvable_square_yields_no_lifts():
    stc, twoc, d2 = cats.star(), cats.two(), cats.disc2()
    i = fc.Functor(stc, twoc, {"*": "0"},
                   {stc.identity["*"]: twoc.identity["0"]})
    p = fc.Functor(d2, twoc, {"0": "0", "1": "1"},
                   {d2.identity["0"]: twoc.identity["0"],
                    d2.identity["1"]: twoc.identity["1"]})
    top = fc.Functor(stc, d2, {"*": "0"},
                     {stc.identity["*"]: d2.identity["0"]})
    prob = wfs.LiftingProblem(i, p, top, fc.identity_functor(twoc))
    assert wfs.brute_force_lifts(prob) == ()


def test_search_refuses_above_the_cap(monkeypatch):
    stc, d2 = cats.star(), cats.disc2()
    big = fc.mkdiscrete([str(n) for n in range(6)])
    i = fc.Functor(stc, d2, {"*": "0"},
                   {stc.identity["*"]: d2.identity["0"]})
    p = fc.Functor(big, stc, {x: "*" for x in big.objects},
                   {m: stc.identity["*"] for m in big.morphisms})
    top = fc.Functor(stc, big, {"*": "0"},
                     {stc.identity["*"]: big.identity["0"]})
    bottom = fc.Functor(d2, stc, {x: "*" for x in d2.objects},
                        {m: stc.identity["*"] for m in d2.morphisms})
    prob = wfs.LiftingProblem(i, p, top, bottom)
    monkeypatch.setattr(wfs, "BRUTE_CAP", 3)
    with pytest.raises(wfs.WfsError, match="cap"):
        wfs.brute_force_lifts(prob)
    monkeypatch.undo()
    assert len(wfs.brute_force_lifts(prob)) == 6


def _functor(src, tgt, ob, mor=None):
    """src -> tgt by the object map ob; each morphism goes to mor[m] when
    given, else to the identity at the image of its domain."""
    mor = mor or {}
    return fc.Functor(src, tgt, ob, {m: mor.get(m, tgt.identity[ob[m.dom]])
                                     for m in src.morphisms})


def _squash():
    """para -> two, both parallel arrows onto a."""
    c, t = cats.para(), cats.two()
    a = cats.arrow(t, "a")
    return _functor(c, t, {"0": "0", "1": "1"},
                    {cats.arrow(c, "p"): a, cats.arrow(c, "q"): a})


def _split_objects():
    # i identifies the two objects that the top leg keeps apart
    d2, stc = cats.disc2(), cats.star()
    to_star = _functor(d2, stc, {"0": "*", "1": "*"})
    return wfs.LiftingProblem(to_star, to_star, fc.identity_functor(d2),
                              fc.identity_functor(stc))


def _empty_fiber():
    # the bottom leg hits an object that p misses
    empty, stc, twoc = fc.mkdiscrete(()), cats.star(), cats.two()
    return wfs.LiftingProblem(
        _functor(empty, stc, {}), _functor(stc, twoc, {"*": "0"}),
        _functor(empty, stc, {}), _functor(stc, twoc, {"*": "1"}))


def _split_morphisms():
    # i identifies the two arrows that the top leg keeps apart
    squash = _squash()
    return wfs.LiftingProblem(squash, squash,
                              fc.identity_functor(squash.source),
                              fc.identity_functor(squash.target))


@pytest.mark.parametrize("square", [
    _split_objects, _empty_fiber, _split_morphisms],
    ids=["split-objects", "empty-fiber", "split-morphisms"])
def test_search_finds_no_lift_where_the_square_has_none(square):
    assert wfs.brute_force_lifts(square()) == ()


def test_search_refuses_morphism_assignments_above_the_cap(monkeypatch):
    # one object assignment, then a choice of p or q over a
    squash, d2 = _squash(), cats.disc2()
    ob = {"0": "0", "1": "1"}
    prob = wfs.LiftingProblem(_functor(d2, squash.target, ob), squash,
                              _functor(d2, squash.source, ob),
                              fc.identity_functor(squash.target))
    monkeypatch.setattr(wfs, "BRUTE_CAP", 1)
    with pytest.raises(wfs.WfsError,
                       match="^morphism assignments exceed the search cap 1$"):
        wfs.brute_force_lifts(prob)
    monkeypatch.setattr(wfs, "BRUTE_CAP", 2)
    lifts = wfs.brute_force_lifts(prob)
    a = cats.arrow(squash.target, "a")
    assert [lw.diagonal.mor[a].name for lw in lifts] == ["p", "q"]


def test_search_drops_candidates_that_are_not_functors():
    # over the point, the unit may go to the identity or to the idempotent;
    # only the identity gives a functor
    empty, stc, e = fc.mkdiscrete(()), cats.star(), cats.idem()
    prob = wfs.LiftingProblem(
        _functor(empty, stc, {}), _functor(e, stc, {"x": "*"}),
        _functor(empty, e, {}), fc.identity_functor(stc))
    assert e.hom("x", "x") == [e.identity["x"], cats.arrow(e, "e")]
    lifts = wfs.brute_force_lifts(prob)
    assert [lw.diagonal.mor for lw in lifts] == [
        {stc.identity["*"]: e.identity["x"]}]


def test_elimination_square_lifts_and_contains_the_interp_diagonal():
    c = cats.two()
    _, _, itp = comp_setup(c, cats.arrow(c, "a"), c.identity["1"])
    itp.term((), k.Const("comp_R", CLOSED_ARGS))
    w = itp.witnesses[-1]
    witness = wfs.elimination_square(w)
    lifts = wfs.brute_force_lifts(witness.problem)
    assert lifts
    assert any(witness.diagonal == lw.diagonal for lw in lifts)


def test_elimination_square_left_side_too():
    c = cats.z2()
    s = cats.arrow(c, "s")
    _, _, itp = comp_setup(c, s, s)
    itp.term((), k.Const("comp_L", CLOSED_ARGS))
    w = itp.witnesses[-1]
    assert w.side == "left"
    witness = wfs.elimination_square(w)
    lifts = wfs.brute_force_lifts(witness.problem)
    assert any(witness.diagonal == lw.diagonal for lw in lifts)


def test_brute_force_search_is_deterministic():
    c = cats.two()
    _, _, itp = comp_setup(c, cats.arrow(c, "a"), c.identity["1"])
    itp.term((), k.Const("comp_R", CLOSED_ARGS))
    prob = wfs.elimination_square(itp.witnesses[-1]).problem
    first = wfs.brute_force_lifts(prob)
    second = wfs.brute_force_lifts(prob)
    assert [lw.diagonal for lw in first] == [lw.diagonal for lw in second]
