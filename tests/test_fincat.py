import copy
import dataclasses
import gc
import itertools
import pickle
import weakref

import pytest

import cats
import oracles
from homtt import fincat as fc
from homtt import parser as ps
from homtt import wfs


# -- small example categories ----------------------------------------------

def star():
    return fc.mkdiscrete(("*",))


def two():
    """The walking arrow: one morphism 0 -> 1."""
    a = fc.Mor("a", "0", "1")
    i0, i1 = fc.identity_mor("0"), fc.identity_mor("1")
    compose = {(i0, i0): i0, (i1, i1): i1, (a, i0): a, (i1, a): a}
    return fc.FinCat(("0", "1"), (i0, i1, a), {"0": i0, "1": i1}, compose)


def para():
    """Two parallel arrows p, q : 0 -> 1."""
    p, q = fc.Mor("p", "0", "1"), fc.Mor("q", "0", "1")
    i0, i1 = fc.identity_mor("0"), fc.identity_mor("1")
    compose = {(i0, i0): i0, (i1, i1): i1,
               (p, i0): p, (i1, p): p, (q, i0): q, (i1, q): q}
    return fc.FinCat(("0", "1"), (i0, i1, p, q), {"0": i0, "1": i1}, compose)


def z2():
    """One object, an involution s."""
    e = fc.identity_mor("e")
    s = fc.Mor("s", "e", "e")
    compose = {(e, e): e, (e, s): s, (s, e): s, (s, s): e}
    return fc.FinCat(("e",), (e, s), {"e": e}, compose)


def chain(n):
    """The poset 0 <= 1 <= ... <= n-1, with its morphisms by (i, j)."""
    objs = tuple(str(i) for i in range(n))
    mors = {(i, j): fc.identity_mor(str(i)) if i == j
            else fc.Mor(f"c{i}{j}", str(i), str(j))
            for i in range(n) for j in range(i, n)}
    compose = {(mors[(j, l)], mors[(i, j)]): mors[(i, l)]
               for (i, j) in mors for l in range(j, n)}
    return fc.FinCat(objs, mors.values(),
                     {str(i): mors[(i, i)] for i in range(n)}, compose), mors


def chain3():
    return chain(3)[0]


def grid22():
    """The product poset 2 x 2 (a commuting square)."""
    objs = tuple(f"{i}{j}" for i in range(2) for j in range(2))
    mors = {}
    for a in objs:
        for b in objs:
            if a[0] <= b[0] and a[1] <= b[1]:
                mors[(a, b)] = (fc.identity_mor(a) if a == b
                                else fc.Mor(f"m{a}{b}", a, b))
    compose = {}
    for (a, b), f in mors.items():
        for (b2, c), g in mors.items():
            if b2 == b:
                compose[(g, f)] = mors[(a, c)]
    return fc.FinCat(objs, mors.values(), {o: mors[(o, o)] for o in objs},
                     compose)


def collapse_z2():
    """The endofunctor of z2 killing the involution."""
    c = z2()
    e = c.identity["e"]
    s = next(m for m in c.morphisms if m.name == "s")
    return fc.Functor(c, c, {"e": "e"}, {e: e, s: e})


# -- validation ------------------------------------------------------------

def test_walking_arrow_valid():
    assert two().validate() == []


def test_empty_category_valid():
    assert fc.mkdiscrete(()).validate() == []


def test_examples_all_valid():
    for c in (star(), para(), z2(), chain3(), grid22()):
        assert c.validate() == []


def test_validate_reports_associativity_triple():
    e = fc.identity_mor("x")
    f = fc.Mor("f", "x", "x")
    g = fc.Mor("g", "x", "x")
    compose = {(e, e): e, (e, f): f, (f, e): f, (e, g): g, (g, e): g,
               (f, f): g, (f, g): e, (g, f): f, (g, g): g}
    c = fc.FinCat(("x",), (e, f, g), {"x": e}, compose)
    problems = c.validate()
    assert any("associativity violated at (f, f, f)" in p for p in problems)


def test_validate_reports_missing_composite():
    e = fc.identity_mor("x")
    f = fc.Mor("f", "x", "x")
    c = fc.FinCat(("x",), (e, f), {"x": e},
                  {(e, e): e, (e, f): f, (f, e): f})
    assert any("composition undefined for (f, f)" in p for p in c.validate())


def test_validate_reports_identity_violation():
    e = fc.identity_mor("x")
    f = fc.Mor("f", "x", "x")
    compose = {(e, e): e, (e, f): f, (f, e): e, (f, f): f}
    c = fc.FinCat(("x",), (e, f), {"x": e}, compose)
    assert any("identity law violated at f" in p for p in c.validate())


# The full problem lists below pin what validate() reports and in which
# order, so a faster enumeration of composable pairs and triples must
# visit them exactly as the plain nested loops over sorted morphisms do.

def test_validate_lists_missing_composites_in_order():
    c = chain3()
    m = {x.name: x for x in c.morphisms}
    compose = dict(c.compose)
    del compose[(m["c12"], m["c01"])]
    del compose[(c.identity["2"], m["c02"])]
    broken = fc.FinCat(c.objects, c.morphisms, c.identity, compose)
    assert broken.validate() == [
        "composition undefined for (c12, c01)",
        "composition undefined for ((id 2), c02)"]


def test_fiber_assignment_validates_a_shared_fiber_once(monkeypatch):
    calls = 0
    validate = fc.FinCat.validate

    def counted(self):
        nonlocal calls
        calls += 1
        return validate(self)
    monkeypatch.setattr(fc.FinCat, "validate", counted)
    assert fc.constant_fibers(chain3(), two()).validate() == []
    assert calls == 1
    c = chain3()
    m = {x.name: x for x in c.morphisms}
    compose = dict(c.compose)
    del compose[(m["c12"], m["c01"])]
    broken = fc.FinCat(c.objects, c.morphisms, c.identity, compose)
    assert fc.constant_fibers(chain3(), broken).validate() == [
        "fiber at 0: composition undefined for (c12, c01)",
        "fiber at 1: composition undefined for (c12, c01)",
        "fiber at 2: composition undefined for (c12, c01)"]
    assert calls == 2


def test_fiber_assignment_validates_a_shared_transition_once(monkeypatch):
    calls = 0
    validate = fc.Functor.validate

    def counted(self):
        nonlocal calls
        calls += 1
        return validate(self)
    monkeypatch.setattr(fc.Functor, "validate", counted)
    base = chain3()
    assert fc.constant_fibers(base, two()).validate() == []
    assert calls == 1
    c = two()
    broken = fc.Functor(c, c, {x: x for x in c.objects}, {})
    fa = fc.FiberAssignment(base, {x: c for x in base.objects},
                            {m: broken for m in base.morphisms})
    assert fa.validate() == [
        f"transition along {fc._fmt(m.name)}: morphism map undefined at (id 0)"
        for m in base.morphisms]
    assert calls == 2


def test_fiber_assignment_laws_build_no_functor(monkeypatch):
    counts = {}

    def counted(name):
        real = getattr(fc, name)

        def run(*args):
            counts[name] = counts.get(name, 0) + 1
            return real(*args)
        monkeypatch.setattr(fc, name, run)
    for name in ("identity_functor", "functor_compose", "_is_identity",
                 "_composes_to"):
        counted(name)
    base = chain3()
    # one fiber and one transition: one identity check for the one
    # distinct (transition, fiber) pair, and one composite check for the
    # one composite with no identity factor, (c12, c01)
    fa = fc.constant_fibers(base, two())
    counts.clear()
    assert fa.validate() == []
    assert counts == {"_is_identity": 1, "_composes_to": 1}
    # a fiber and a transition of their own at every cell: one check
    # each, but for the unit composites (id x, id x), where a transition
    # meets itself at one fiber object; no other two cells share one
    copies = fc.FiberAssignment(
        base, {x: two() for x in base.objects},
        {m: fc.identity_functor(two()) for m in base.morphisms})
    counts.clear()
    assert copies.validate() == []
    assert counts == {"_is_identity": len(base.objects),
                      "_composes_to": len(base.compose) - len(base.objects)}


def test_op_and_hom_functor_flip_each_morphism_once(monkeypatch):
    calls = 0
    real = fc.op_mor

    def counted(m):
        nonlocal calls
        calls += 1
        return real(m)
    monkeypatch.setattr(fc, "op_mor", counted)
    # op flips each morphism once, not each cell of the composite table
    for c in (chain3(), para(), z2(), cats.idem(), grid22()):
        calls = 0
        assert fc.op(c).validate() == []
        assert calls == len(c.morphisms)
    # hom_functor flips the source section's morphism part once per base
    # morphism, whatever the size of the hom sets it carries
    base = chain3()
    fa = fc.constant_fibers(base, para())
    s = fc.strict_section(fc.op_fibers(fa), {x: "0" for x in base.objects})
    t = fc.strict_section(fa, {x: "1" for x in base.objects})
    calls = 0
    hf = fc.hom_functor(fa, s, t)
    assert calls == len(base.morphisms)
    assert hf.validate() == []
    assert {len(f.objects) for f in hf.fibers.values()} == {2}


def planted_fiber_assignments():
    """Fiber assignments over chain3 that break one law in one cell, or
    keep every law with fibers that are equal but not the same object."""
    base = chain3()
    out = {}
    # a transition at identity 1 that differs from the identity only in
    # its object map, by an entry beyond its source, or only in its
    # morphism map, by swapping two parallel arrows
    c = two()
    ident = fc.identity_functor(c)
    ghost = fc.Functor(c, c, {**ident.ob, "ghost": "0"}, ident.mor)
    c2 = para()
    p, q = (f for f in c2.morphisms if f.name in ("p", "q"))
    swap = fc.Functor(c2, c2, {x: x for x in c2.objects},
                      {**fc.identity_functor(c2).mor, p: q, q: p})
    for part, fiber, bad in (("ob", c, ghost), ("mor", c2, swap)):
        assert bad.validate() == []
        out[f"identity-{part}"] = fc.FiberAssignment(
            base, {x: fiber for x in base.objects},
            {f: bad if f is base.identity["1"]
             else fc.identity_functor(fiber) for f in base.morphisms})
    # the swap of two points along c12 and the identity everywhere else:
    # c02 is not c12 after c01, though c12 is c12 after identity 1 and
    # both pairs carry the same two transitions
    d = fc.mkdiscrete(("0", "1"))
    swap = fc._discrete_functor(d, d, {"0": "1", "1": "0"})
    assert swap.validate() == []
    still = fc.identity_functor(d)
    out["non-functorial"] = fc.FiberAssignment(
        base, {x: d for x in base.objects},
        {f: swap if f.name == "c12" else still for f in base.morphisms})
    # equal fibers and transitions that are all distinct objects
    out["equal-copies"] = fc.FiberAssignment(
        base, {x: two() for x in base.objects},
        {f: fc.identity_functor(two()) for f in base.morphisms})
    return out


def test_planted_fiber_assignment_defects_match_the_referee():
    # the extra entry survives composing c12 after identity 1 too
    want = {"identity-ob": [
                "transition at identity of 1 is not the identity functor",
                "transitions not functorial at (c12, (id 1))"],
            # the swap fails every composite through identity 1
            "identity-mor": [
                "transition at identity of 1 is not the identity functor",
                "transitions not functorial at ((id 1), c01)",
                "transitions not functorial at ((id 1), (id 1))",
                "transitions not functorial at (c12, (id 1))"],
            "non-functorial": ["transitions not functorial at (c12, c01)"],
            "equal-copies": []}
    planted = planted_fiber_assignments()
    assert {name: fa.validate() for name, fa in planted.items()} == want
    assert {name: oracles.fiber_assignment_problems(fa)
            for name, fa in planted.items()} == want


def test_fiber_assignment_names_missing_fibers():
    # objects that are neither strings, Mors nor tuples print by repr
    base = fc.mkdiscrete((0, 1))
    fa = fc.FiberAssignment(base, {}, {})
    assert fa.validate() == ["no fiber at 0", "no fiber at 1",
                             "no transition along (id 0)",
                             "no transition along (id 1)"]


def test_fiber_assignment_names_missing_transitions():
    base = two()
    fa = fc.constant_fibers(base, star())
    a = next(m for m in base.morphisms if m.name == "a")
    short = fc.FiberAssignment(
        base, fa.fibers, {m: t for m, t in fa.transitions.items() if m != a})
    assert short.validate() == ["no transition along a"]


def test_fiber_assignment_over_an_invalid_base_fails_like_the_referee():
    # a base composite at a pair that does not compose, between fibers
    # that differ: both refuse to compose the transitions
    base = chain3()
    m = {x.name: x for x in base.morphisms}
    broken = fc.FinCat(base.objects, base.morphisms, base.identity,
                       {**base.compose, (m["c01"], m["c12"]): m["c02"]})
    c, pt = two(), star()
    collapse = fc.Functor(c, pt, {x: "*" for x in c.objects},
                          {f: pt.identity["*"] for f in c.morphisms})
    fa = fc.FiberAssignment(
        broken, {"0": c, "1": pt, "2": pt},
        {f: collapse if f.dom == "0" and f.cod != "0"
         else fc.identity_functor(c if f.dom == "0" else pt)
         for f in broken.morphisms})
    for check in (fc.FiberAssignment.validate,
                  oracles.fiber_assignment_problems,
                  oracles.fiber_assignment_every_cell):
        with pytest.raises(ValueError, match="functors not composable"):
            check(fa)


@pytest.mark.parametrize("post, per_fiber", [
    (fc.op_fibers, "op"), (fc.core_fibers, "core")])
def test_op_and_core_fibers_build_each_distinct_fiber_once(monkeypatch, post,
                                                          per_fiber):
    calls = 0
    build = getattr(fc, per_fiber)

    def counted(c):
        nonlocal calls
        calls += 1
        return build(c)
    monkeypatch.setattr(fc, per_fiber, counted)
    base = chain3()
    shared = post(fc.constant_fibers(base, two()))
    assert calls == 1
    assert len({id(c) for c in shared.fibers.values()}) == 1
    copies = fc.FiberAssignment(
        base, {x: two() for x in base.objects},
        {m: fc.identity_functor(two()) for m in base.morphisms})
    apart = post(copies)
    assert calls == 1 + len(base.objects)
    assert [len({id(t) for t in fa.transitions.values()})
            for fa in (shared, apart)] == [1, len(base.morphisms)]
    for fa in (shared, apart):
        assert fa.fibers == {x: build(two()) for x in base.objects}
        assert fa.validate() == []


def test_validate_lists_associativity_failures_in_order():
    e = fc.identity_mor("x")
    f = fc.Mor("f", "x", "x")
    g = fc.Mor("g", "x", "x")
    compose = {(e, e): e, (e, f): f, (f, e): f, (e, g): g, (g, e): g,
               (f, f): g, (f, g): e, (g, f): f, (g, g): g}
    c = fc.FinCat(("x",), (e, f, g), {"x": e}, compose)
    assert c.validate() == [
        "associativity violated at (f, f, f)",
        "associativity violated at (f, g, f)",
        "associativity violated at (f, f, g)",
        "associativity violated at (g, f, g)",
        "associativity violated at (f, g, g)"]


def test_validate_lists_identity_failures_then_associativity():
    e = fc.identity_mor("x")
    s, t = fc.Mor("s", "x", "x"), fc.Mor("t", "x", "x")
    compose = {(a, b): e for a in (e, s, t) for b in (e, s, t)}
    compose.update({(e, e): e, (s, e): t, (e, s): s, (t, e): t, (e, t): s})
    c = fc.FinCat(("x",), (e, s, t), {"x": e}, compose)
    assert c.validate() == [
        "identity law violated at s",
        "identity law violated at t",
        "associativity violated at ((id x), s, (id x))",
        "associativity violated at ((id x), t, (id x))",
        "associativity violated at (s, s, s)",
        "associativity violated at (t, s, s)",
        "associativity violated at (s, t, s)",
        "associativity violated at (t, t, s)",
        "associativity violated at (s, s, t)",
        "associativity violated at (t, s, t)",
        "associativity violated at (s, t, t)",
        "associativity violated at (t, t, t)"]


def test_validate_lists_unknown_morphisms_in_order():
    c = two()
    a = next(m for m in c.morphisms if m.name == "a")
    ghost = fc.Mor("ghost", "0", "1")
    stray = fc.Mor("stray", "0", "2")
    compose = dict(c.compose)
    compose[(ghost, c.identity["0"])] = ghost
    compose[(c.identity["1"], a)] = ghost
    broken = fc.FinCat(c.objects, c.morphisms + (stray,), c.identity,
                       compose)
    assert broken.validate() == [
        "morphism stray has unknown dom/cod",
        "composite ((id 1), a) involves unknown morphisms",
        "composite (ghost, (id 0)) involves unknown morphisms",
        "composition undefined for (stray, (id 0))"]


def test_functor_validate_lists_bad_endpoints_in_order():
    t, c3 = two(), chain3()
    a = next(m for m in t.morphisms if m.name == "a")
    c01 = next(m for m in c3.morphisms if m.name == "c01")
    F = fc.Functor(t, c3, {"0": "0", "1": "2"},
                   {t.identity["0"]: c3.identity["1"],
                    t.identity["1"]: c3.identity["2"], a: c01})
    assert F.validate() == [
        "endpoints not preserved at (id 0)",
        "endpoints not preserved at a"]


def test_size_cap():
    with pytest.raises(fc.SizeCapError):
        fc.mkdiscrete(range(fc.MAX_OBJECTS + 1))


def test_morphism_size_cap():
    loops = [fc.Mor(n, "x", "x") for n in range(fc.MAX_MORPHISMS + 1)]
    with pytest.raises(fc.SizeCapError,
                       match=f"^{fc.MAX_MORPHISMS + 1} morphisms exceeds "
                             f"{fc.MAX_MORPHISMS}$"):
        fc.FinCat(("x",), loops, {}, {})


def test_pullback_over_the_morphism_cap_composes_nothing(monkeypatch):
    # a monoid of 65 elements (g after f is g unless g is the identity)
    # over the point: its square has one object and 65 * 65 morphisms,
    # refused before any identity or composite of them is built
    one = fc.identity_mor("x")
    ms = [one, *(fc.Mor(i, "x", "x") for i in range(64))]
    M = fc.FinCat(("x",), ms, {"x": one},
                  {(g, f): f if g is one else g for g in ms for f in ms})
    pt = fc.mkdiscrete(("*",))
    F = fc.Functor(M, pt, {"x": "*"}, {m: pt.identity["*"] for m in ms})
    composed = []
    monkeypatch.setattr(fc, "composable", lambda m: composed.append(m) or [])
    with pytest.raises(fc.SizeCapError,
                       match=f"^4225 morphisms exceeds {fc.MAX_MORPHISMS}$"):
        fc.pullback_cat(F, F)
    assert composed == []


def test_comp_of_a_non_composable_pair_is_undefined():
    c = two()
    a = next(m for m in c.morphisms if m.name == "a")
    assert c.comp(c.identity["1"], a) == a
    with pytest.raises(ValueError, match=r"^composite undefined: "
                       r"Mor\(name='a', .*\) after Mor\(name='a', "):
        c.comp(a, a)


def _broken_two(fault):
    """The walking arrow with one identity or composite planted wrong."""
    c = two()
    a = next(m for m in c.morphisms if m.name == "a")
    identity, compose = dict(c.identity), dict(c.compose)
    if fault == "no-identity":
        del identity["1"]
    elif fault == "bad-identity":
        identity["1"] = a
    elif fault == "non-composable":
        compose[(a, a)] = a
    else:
        compose[(c.identity["1"], a)] = c.identity["1"]
    return fc.FinCat(c.objects, c.morphisms, identity, compose)


@pytest.mark.parametrize("fault, problem", [
    ("no-identity", "no identity for object 1"),
    ("bad-identity", "bad identity for object 1"),
    ("non-composable", "composition defined for non-composable pair (a, a)"),
    ("wrong-endpoints", "composite ((id 1), a) has wrong endpoints"),
])
def test_validate_names_identity_and_composite_faults(fault, problem):
    assert _broken_two(fault).validate() == [problem]


# -- duality and core ------------------------------------------------------

def test_op_involution_exact():
    for c in (two(), para(), z2(), chain3(), grid22()):
        assert fc.op(fc.op(c)) == c


def test_op_reverses():
    c2 = fc.op(two())
    assert c2.validate() == []
    a = next(m for m in c2.morphisms if m.name == "a")
    assert (a.dom, a.cod) == ("1", "0")


def test_core_discrete_and_idempotent():
    c = fc.core(two())
    assert c.validate() == []
    assert len(c.objects) == 2 and len(c.morphisms) == 2
    assert fc.core(c) == c


def test_core_op_collapse_exact():
    for c in (two(), z2(), chain3()):
        assert fc.core(fc.op(c)) == fc.core(c)


def test_inclusions_are_functors():
    for c in (two(), z2(), chain3()):
        assert fc.core_inclusion(c).validate() == []
        # core is self-dual, so the op of the core inclusion is the
        # inclusion of the core into the opposite
        assert oracles.op_functor(fc.core_inclusion(c)).validate() == []
        assert fc.core_inclusion(c).ob == {x: x for x in c.objects}


# -- functors and natural transformations ----------------------------------

def test_functor_validate_catches_bad_endpoints():
    t, c3 = two(), chain3()
    a = next(m for m in t.morphisms if m.name == "a")
    c01 = next(m for m in c3.morphisms if m.name == "c01")
    F = fc.Functor(t, c3, {"0": "0", "1": "2"},
                   {t.identity["0"]: c3.identity["0"],
                    t.identity["1"]: c3.identity["2"], a: c01})
    assert any("endpoints not preserved at a" in p for p in F.validate())


def test_functor_collapse_is_valid():
    assert collapse_z2().validate() == []


def test_fincat_repr_counts_objects_and_morphisms():
    assert repr(two()) == "FinCat(2 objects, 3 morphisms)"
    assert repr(fc.mkdiscrete(())) == "FinCat(0 objects, 0 morphisms)"


def test_token_of_a_constructed_name_is_none():
    a = next(m for m in two().morphisms if m.name == "a")
    assert [fc.token(v) for v in ("x", a, fc.identity_mor("0"))] == \
        ["x", "a", "id_0"]
    assert fc.token(("id", ("0", "1"))) is None
    assert fc.token(fc.Mor(("a", "b"), "0", "1")) is None


def test_functor_compose_and_identity():
    F = collapse_z2()
    assert fc.functor_compose(F, fc.identity_functor(z2())) == F
    assert fc.functor_compose(F, F) == F


# -- grothendieck construction ---------------------------------------------

def inclusion_fibers():
    """Over the walking arrow: fiber * at 0, the arrow itself at 1,
    transition picking object 1."""
    base = two()
    s, t2 = star(), two()
    a = next(m for m in base.morphisms if m.name == "a")
    tr = fc.Functor(s, t2, {"*": "1"},
                    {s.identity["*"]: t2.identity["1"]})
    return base, fc.FiberAssignment(
        base, {"0": s, "1": t2},
        {base.identity["0"]: fc.identity_functor(s),
         base.identity["1"]: fc.identity_functor(t2), a: tr})


def test_groth_hand_enumeration():
    base, fa = inclusion_fibers()
    gt = oracles.groth(base, fa)
    assert gt.total.validate() == []
    assert len(gt.total.objects) == 3
    # oracle: enumerate pairs (f, g) with dom g = transition(f)(fiber entry)
    count = 0
    for f in base.morphisms:
        tr = fa.transitions[f]
        for y in fa.fibers[f.dom].objects:
            count += sum(1 for g in fa.fibers[f.cod].morphisms
                         if g.dom == tr.ob[y])
    assert len(gt.total.morphisms) == count == 5


def test_groth_constant_point_fiber_projection_iso():
    base = two()
    gt = oracles.groth(base, fc.constant_fibers(base, star()))
    assert gt.total.validate() == []
    assert oracles.are_isomorphic(gt.total, base)


def test_groth_over_point_recovers_fiber():
    gt = oracles.groth(star(), fc.constant_fibers(star(), two()))
    assert oracles.are_isomorphic(gt.total, two())


def test_groth_projection_has_canonical_cocartesian_lifts():
    for base, fa in (inclusion_fibers(),
                     (two(), fc.constant_fibers(two(), z2()))):
        gt = oracles.groth(base, fa)
        assert gt.projection.validate() == []
        for ((x, y), f), lift in gt.lifts.items():
            assert lift.name[0] == f
            fib = fa.fibers[f.cod]
            assert lift.name[1] == fib.identity[fa.transitions[f].ob[y]]
            assert oracles.is_cocartesian(gt.projection, lift)
        ok, chosen = fc.has_cocartesian_lifts(gt.projection)
        assert ok
        assert chosen.keys() == gt.lifts.keys()


def test_groth_nonidentity_transition_at_identity_rejected():
    base = two()
    a = next(m for m in base.morphisms if m.name == "a")
    c = z2()
    fa = fc.FiberAssignment(
        base, {"0": c, "1": c},
        {base.identity["0"]: collapse_z2(),  # not the identity functor
         base.identity["1"]: fc.identity_functor(c), a: collapse_z2()})
    with pytest.raises(ValueError) as err:
        oracles.groth(base, fa)
    assert "transition at identity" in str(err.value)


# -- sections and the hom functor ------------------------------------------

def test_hom_functor_empty_context():
    base = star()
    fa = fc.constant_fibers(base, chain3())
    s = fc.strict_section(fc.op_fibers(fa), {"*": "0"})
    t = fc.strict_section(fa, {"*": "2"})
    hf = fc.hom_functor(fa, s, t)
    assert hf.validate() == []
    fib = hf.fibers["*"]
    assert [o.name for o in fib.objects] == ["c02"]
    assert len(fib.morphisms) == 1


def test_hom_functor_singleton_identity():
    base = star()
    fa = fc.constant_fibers(base, star())
    s = fc.strict_section(fc.op_fibers(fa), {"*": "*"})
    t = fc.strict_section(fa, {"*": "*"})
    hf = fc.hom_functor(fa, s, t)
    assert len(hf.fibers["*"].objects) == 1


def test_hom_functor_transport_matches_elementwise_oracle():
    base = two()
    a = next(m for m in base.morphisms if m.name == "a")
    c = z2()
    fa = fc.FiberAssignment(
        base, {"0": c, "1": c},
        {base.identity["0"]: fc.identity_functor(c),
         base.identity["1"]: fc.identity_functor(c), a: collapse_z2()})
    assert fa.validate() == []
    s = fc.strict_section(fc.op_fibers(fa), {"0": "e", "1": "e"})
    t = fc.strict_section(fa, {"0": "e", "1": "e"})
    hf = fc.hom_functor(fa, s, t)
    assert hf.validate() == []
    assert len(hf.fibers["0"].objects) == 2
    tr = hf.transitions[a]
    for h in hf.fibers["0"].objects:
        assert tr.ob[h] == fa.transitions[a].mor[h]  # strict case: apply T(a)


def test_hom_functor_conjugates_by_section_morphism_parts():
    base = two()
    a = next(m for m in base.morphisms if m.name == "a")
    fib = two()
    arrow = next(m for m in fib.morphisms if m.name == "a")
    fa = fc.constant_fibers(base, fib)
    s = fc.Section(fc.op_fibers(fa), {"0": "1", "1": "0"},
                   {base.identity["0"]: fc.op(fib).identity["1"],
                    base.identity["1"]: fc.op(fib).identity["0"],
                    a: fc.op_mor(arrow)})
    assert s.validate() == []
    assert s != fc.strict_section(s.fa, s.obj)  # a non-identity morphism part
    t = fc.strict_section(fa, {"0": "1", "1": "1"})
    hf = fc.hom_functor(fa, s, t)
    assert hf.validate() == []
    assert [o.name for o in hf.fibers["0"].objects] == [("id", "1")]
    assert [o.name for o in hf.fibers["1"].objects] == ["a"]
    carried = hf.transitions[a].ob[fib.identity["1"]]
    assert carried == arrow


def test_hom_functor_rejects_broken_section():
    base = two()
    a = next(m for m in base.morphisms if m.name == "a")
    fa = fc.constant_fibers(base, z2())
    bad = fc.Section(fc.op_fibers(fa), {"0": "e", "1": "e"},
                     {base.identity["0"]: fc.op(z2()).identity["e"],
                      base.identity["1"]: fc.op(z2()).identity["e"],
                      a: None})
    t = fc.strict_section(fa, {"0": "e", "1": "e"})
    with pytest.raises(ValueError) as err:
        fc.hom_functor(fa, bad, t)
    assert "source section" in str(err.value)
    assert "a" in str(err.value)


def test_section_identity_part_must_be_the_identity():
    fa = fc.constant_fibers(star(), z2())
    s = next(m for m in z2().morphisms if m.name == "s")
    bad = fc.Section(fa, {"*": "e"}, {star().identity["*"]: s})
    # s after s is the identity, so the law at the identity pair fails too
    assert bad.validate() == [
        "morphism part at identity of * is not the identity",
        "section law fails at ((id *), (id *))"]


def test_section_law_failure_names_the_pair():
    base, fib = chain3(), z2()
    fa = fc.constant_fibers(base, fib)
    s = next(m for m in fib.morphisms if m.name == "s")
    mor = {m: fib.identity["e"] if m.dom == m.cod else s
           for m in base.morphisms}
    bad = fc.Section(fa, {x: "e" for x in base.objects}, mor)
    # c02 is carried to s, but c12 after c01 is carried to s after s
    assert bad.validate() == ["section law fails at (c12, c01)"]


def test_identity_section_point():
    fa = fc.constant_fibers(star(), chain3())
    t = fc.strict_section(fc.core_fibers(fa), {"*": "1"})
    one = oracles.identity_section(fa, t)
    assert one.validate() == []
    assert one.obj["*"] == chain3().identity["1"]


def test_identity_section_naturality_over_arrow():
    base = two()
    a = next(m for m in base.morphisms if m.name == "a")
    fa = fc.FiberAssignment(
        base, {"0": z2(), "1": z2()},
        {base.identity["0"]: fc.identity_functor(z2()),
         base.identity["1"]: fc.identity_functor(z2()), a: collapse_z2()})
    t = fc.strict_section(fc.core_fibers(fa), {"0": "e", "1": "e"})
    one = oracles.identity_section(fa, t)
    assert one.validate() == []
    hf = one.fa
    assert hf.transitions[a].ob[one.obj["0"]] == one.obj["1"]


def test_hom_functor_commutes_with_reindexing():
    # restrict along the object-0 inclusion * -> walking arrow
    base = two()
    a = next(m for m in base.morphisms if m.name == "a")
    fa = fc.FiberAssignment(
        base, {"0": z2(), "1": z2()},
        {base.identity["0"]: fc.identity_functor(z2()),
         base.identity["1"]: fc.identity_functor(z2()), a: collapse_z2()})
    s = fc.strict_section(fc.op_fibers(fa), {"0": "e", "1": "e"})
    t = fc.strict_section(fa, {"0": "e", "1": "e"})
    pt = star()
    F = fc.Functor(pt, base, {"*": "0"},
                   {pt.identity["*"]: base.identity["0"]})
    lhs = fc.reindex(fc.hom_functor(fa, s, t), F)
    rhs = fc.hom_functor(fc.reindex(fa, F), fc.reindex_section(s, F),
                         fc.reindex_section(t, F))
    assert lhs == rhs
    tc = fc.strict_section(fc.core_fibers(fa), {"0": "e", "1": "e"})
    lhs1 = fc.reindex_section(oracles.identity_section(fa, tc), F)
    rhs1 = oracles.identity_section(fc.reindex(fa, F), fc.reindex_section(tc, F))
    assert lhs1 == rhs1


# -- arrow and iso categories (the referee's), pullback ---------------

def test_arrow_cat_walking_arrow():
    ac = oracles.arrow_cat(two())
    assert ac.validate() == []
    assert len(ac.objects) == 3
    # oracle: enumerate commuting squares directly
    c = two()
    squares = [(u, v, f, g)
               for f in c.morphisms for g in c.morphisms
               for u in c.morphisms for v in c.morphisms
               if u.dom == f.dom and u.cod == g.dom
               and v.dom == f.cod and v.cod == g.cod
               and c.comp(v, f) == c.comp(g, u)]
    assert len(ac.morphisms) == len(squares) == 6


def test_iso_cat_of_poset_counts_objects():
    ic = oracles.iso_cat(chain3())
    assert ic.validate() == []
    assert len(ic.objects) == 3
    assert all(m.name[0] == "id" for m in ic.objects)


def test_iso_cat_of_group_keeps_everything():
    ic = oracles.iso_cat(z2())
    assert len(ic.objects) == 2


def test_pullback_over_point_is_product():
    pt = star()
    bang = fc.Functor(two(), pt, {"0": "*", "1": "*"},
                      {m: pt.identity["*"] for m in two().morphisms})
    pb = fc.pullback_cat(bang, bang)
    assert pb.validate() == []
    assert len(pb.objects) == 4
    assert len(pb.morphisms) == 9


def test_pullback_refuses_legs_with_different_targets():
    with pytest.raises(ValueError, match="different targets"):
        fc.pullback_cat(fc.identity_functor(two()),
                        fc.identity_functor(star()))


def test_pullback_pairs_and_composites_match_the_full_scan():
    def bang(c):
        pt = star()
        return fc.Functor(c, pt, {x: "*" for x in c.objects},
                          {m: pt.identity["*"] for m in c.morphisms})
    cospans = [(bang(two()), bang(chain3()))]
    for c in (two(), chain3(), cats.grid22(), cats.z2()):
        cospans += [(cod_functor(c), fc.identity_functor(c)),
                    (cod_functor(c), cod_functor(c))]
    for F, G in cospans:
        A, B = F.source, G.source
        objects = [(a, b) for a in A.objects for b in B.objects
                   if F.ob[a] == G.ob[b]]
        morphisms = [fc.Mor((m, n), (m.dom, n.dom), (m.cod, n.cod))
                     for m in A.morphisms for n in B.morphisms
                     if F.mor[m] == G.mor[n]]
        pb = fc.pullback_cat(F, G)
        assert pb.objects == tuple(objects)
        assert pb.morphisms == tuple(morphisms)
        assert list(pb.compose) == [(m2, m1) for m2 in morphisms
                                    for m1 in morphisms if m1.cod == m2.dom]
        assert pb.validate() == []


# -- cartesian and cocartesian morphisms -----------------------------------

def cod_functor(c):
    ac = oracles.arrow_cat(c)
    return fc.Functor(ac, c, {f: f.cod for f in ac.objects},
                      {m: m.name[1] for m in ac.morphisms})


def test_identity_always_cartesian():
    P = cod_functor(two())
    assert P.validate() == []
    for f in P.source.objects:
        assert oracles.is_cartesian(P, P.source.identity[f])


def test_pullback_square_is_cartesian_over_cod():
    c = grid22()
    P = cod_functor(c)
    f = next(m for m in c.morphisms if m.name == "m0001")
    g = next(m for m in c.morphisms if m.name == "m1011")
    u = next(m for m in c.morphisms if m.name == "m0010")
    v = next(m for m in c.morphisms if m.name == "m0111")
    square = fc.Mor((u, v), f, g)
    assert square in set(P.source.morphisms)
    assert oracles.is_cartesian(P, square)


def test_non_pullback_square_not_cartesian():
    c = chain3()
    P = cod_functor(c)
    f = next(m for m in c.morphisms if m.name == "c02")
    g = next(m for m in c.morphisms if m.name == "c12")
    u = next(m for m in c.morphisms if m.name == "c01")
    square = fc.Mor((u, c.identity["2"]), f, g)
    assert square in set(P.source.morphisms)
    assert not oracles.is_cartesian(P, square)
    # oracle: exhibit a competitor with no fill at all
    competitor = fc.Mor((c.identity["1"], c.identity["2"]), g, g)
    fills = [l for l in P.source.morphisms
             if l.dom == g and l.cod == f
             and P.source.comp(square, l) == competitor]
    assert fills == []


def test_cocartesian_via_op():
    base, fa = inclusion_fibers()
    gt = oracles.groth(base, fa)
    for lift in gt.lifts.values():
        assert oracles.is_cocartesian(gt.projection, lift)
    # a non-lift morphism over a: (a, g) with g not the chosen identity
    a = next(m for m in base.morphisms if m.name == "a")
    others = [m for m in gt.total.morphisms
              if m.name[0] == a and m not in gt.lifts.values()]
    assert others == []  # only one morphism sits over a in this total


def _assert_lifts_agree_with_oracle(P):
    """has_cocartesian_lifts lifts exactly the (object, base morphism)
    pairs over which the op-based oracle finds a cocartesian morphism,
    and each chosen lift is one of those."""
    oracle = {}
    for x in P.source.objects:
        for f in P.target.morphisms:
            if f.dom == P.ob[x]:
                oracle[(x, f)] = [e for e in P.source.morphisms
                                  if e.dom == x and P.mor[e] == f
                                  and oracles.is_cocartesian(P, e)]
    ok, lifts = fc.has_cocartesian_lifts(P)
    assert set(lifts) == {pair for pair, es in oracle.items() if es}
    assert ok == all(oracle.values())
    for pair, e in lifts.items():
        assert e in oracle[pair]
    return ok


def test_cocartesian_lifts_of_corpus_totals_match_the_oracle():
    for base_mk in cats.ALL.values():
        for fiber_mk in cats.ALL.values():
            base = base_mk()
            fa = fc.constant_fibers(base, fiber_mk())
            for fibers in (fa, fc.core_fibers(fa)):
                gt = oracles.groth(base, fibers)
                assert _assert_lifts_agree_with_oracle(gt.projection)


def test_cocartesian_lifts_of_monotone_chain_maps_match_the_oracle():
    # every monotone map chain_n -> chain_m; the surjections are the wfs
    # collapse opfibrations, the rest leave some base arrows unliftable
    verdicts = set()
    for n in range(1, 5):
        for m in range(1, 5):
            (src, smor), (tgt, tmor) = chain(n), chain(m)
            for img in itertools.combinations_with_replacement(range(m), n):
                ob = {str(i): str(img[i]) for i in range(n)}
                P = fc.Functor(src, tgt, ob, {f: tmor[(img[i], img[j])]
                                              for (i, j), f in smor.items()})
                assert P.validate() == []
                ok = _assert_lifts_agree_with_oracle(P)
                assert ok or len(set(img)) < m
                verdicts.add(ok)
    assert verdicts == {True, False}


def test_a_lift_with_two_fills_is_not_cocartesian():
    # w = p u = q u, so w factors through u in two ways over id_1 and u is
    # not cocartesian; nor is w, since u does not factor through it.  The
    # pair (x, a) therefore has no cocartesian lift.
    u, w = fc.Mor("u", "x", "y"), fc.Mor("w", "x", "z")
    p, q = fc.Mor("p", "y", "z"), fc.Mor("q", "y", "z")
    ids = {o: fc.identity_mor(o) for o in "xyz"}
    compose = {(p, u): w, (q, u): w}
    for m in (u, w, p, q, *ids.values()):
        compose[(m, ids[m.dom])] = compose[(ids[m.cod], m)] = m
    E = fc.FinCat(tuple("xyz"), (*ids.values(), u, w, p, q), ids, compose)
    base = two()
    a = base.hom("0", "1")[0]
    i0, i1 = base.identity["0"], base.identity["1"]
    P = fc.Functor(E, base, {"x": "0", "y": "1", "z": "1"},
                   {ids["x"]: i0, ids["y"]: i1, ids["z"]: i1,
                    u: a, w: a, p: i1, q: i1})
    assert E.validate() == [] and P.validate() == []
    assert not _assert_lifts_agree_with_oracle(P)
    assert ("x", a) not in fc.has_cocartesian_lifts(P)[1]


# -- isomorphism search ----------------------------------------------------

def test_are_isomorphic_relabeling():
    assert oracles.are_isomorphic(two(), fc.op(two()))
    assert not oracles.are_isomorphic(two(), para())
    assert not oracles.are_isomorphic(fc.mkdiscrete(("x", "y")), two())


# -- deterministic order and file building --------------------------------

def test_fincat_order_and_names_are_deterministic():
    c = two()
    shuffled = fc.FinCat(reversed(c.objects), reversed(c.morphisms),
                         c.identity, c.compose)
    assert shuffled == c
    assert shuffled.objects == ("1", "0")
    # kept in the order given, names formatted as values
    assert [fc._fmt(m.name) for m in c.morphisms] == ["(id 0)", "(id 1)", "a"]


# -- the Mor value contract ------------------------------------------------

def _nested_mors():
    a = fc.Mor("a", "0", "1")
    sq = fc.Mor((fc.identity_mor("0"), a), a, a)
    return a, sq, fc.Mor((a, sq), ("0", "x"), ("1", "y"))


def test_mor_repr_is_the_dataclass_repr():
    # the repr matters only for error texts, which print these strings
    a, sq, top = _nested_mors()
    A = "Mor(name='a', dom='0', cod='1')"
    I0 = "Mor(name=('id', '0'), dom='0', cod='0')"
    SQ = f"Mor(name=({I0}, {A}), dom={A}, cod={A})"
    assert repr(a) == A
    assert repr(fc.identity_mor("0")) == I0
    assert repr(sq) == SQ
    assert repr(top) == (f"Mor(name=({A}, {SQ}), "
                         "dom=('0', 'x'), cod=('1', 'y'))")
    assert repr((top, 3)) == f"({top!r}, 3)"


@pytest.mark.parametrize("change", [
    lambda m: setattr(m, "name", "b"),
    lambda m: setattr(m, "extra", 1),
    lambda m: delattr(m, "dom")], ids=["assign", "add", "delete"])
def test_mors_refuse_assignment_and_deletion(change):
    a = fc.Mor("a", "0", "1")
    with pytest.raises(dataclasses.FrozenInstanceError):
        change(a)
    assert (a.name, a.dom, a.cod) == ("a", "0", "1")
    assert fc.Mor("a", "0", "1") is a


def test_equal_mors_are_one_object():
    a, sq, top = _nested_mors()
    a2, sq2, top2 = _nested_mors()
    assert top is top2 and top.name[1] is top2.name[1]
    assert top == top2 and hash(top) == hash(top2)
    assert {top: 1}[top2] == 1
    assert top != sq and sq != a
    assert fc.Mor("a", "0", "2") != a


@pytest.mark.parametrize("clone", [
    copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))],
    ids=["copy", "deepcopy", "pickle"])
def test_copies_and_pickles_are_the_live_mor(clone):
    _, sq, top = _nested_mors()
    for m in (fc.identity_mor("a"), sq, top):
        assert clone(m) is m


def test_op_of_op_is_the_same_mor():
    _, sq, top = _nested_mors()
    for m in (sq, top, fc.identity_mor("0")):
        assert fc.op_mor(fc.op_mor(m)) is m


def test_parsed_identities_are_the_interned_ones():
    cf = ps.parse_fincat("category two\n"
                         "  objects 0 1\n"
                         "  arrow a : 0 -> 1\n"
                         "end\n")
    c = fc.build_catfile(cf).categories["two"]
    for x in c.objects:
        assert fc.identity_mor(x) is c.identity[x]


def test_dead_mors_leave_the_table():
    def hom_context_mor():
        cat, _ = wfs.hom_context(chain(6)[0])
        return weakref.ref(cat.morphisms[-1])

    gc.collect()
    before = len(fc._live)
    ref = hom_context_mor()
    gc.collect()
    assert ref() is None
    assert len(fc._live) == before


def test_a_stale_drop_leaves_a_fresh_mor_alone():
    key = ("stale", "0", "1")
    old = fc._live.get(key)
    assert old is None
    m = fc.Mor(*key)
    stale = fc._live[key]
    del m
    gc.collect()
    assert key not in fc._live and stale() is None
    fresh = fc.Mor(*key)
    entry = fc._live[key]
    # the callback of the first Mor's reference, run again late
    fc._drop(stale)
    assert fc._live[key] is entry and entry() is fresh
    assert fc.Mor(*key) is fresh
    fc._drop(entry)
    assert key not in fc._live


def test_mor_is_not_a_tuple():
    a = fc.Mor("a", "0", "1")
    assert a != ("a", "0", "1") and ("a", "0", "1") != a


def test_mor_is_immutable():
    a = fc.Mor("a", "0", "1")
    for attr in ("name", "dom", "cod"):
        with pytest.raises(AttributeError):
            setattr(a, attr, "b")
    assert a == fc.Mor("a", "0", "1")


def test_build_catfile_round_trip():
    cf = ps.parse_fincat(
        "category two\n"
        "  objects 0 1\n"
        "  arrow a : 0 -> 1\n"
        "end\n"
        "functor keep : two -> two\n"
        "  ob 0 -> 0\n"
        "  ob 1 -> 1\n"
        "  arr a -> a\n"
        "end\n")
    ws = fc.build_catfile(cf)
    assert ws.categories["two"] == two()
    assert ws.functors["keep"].validate() == []


def test_build_catfile_reports_unknowns():
    cf = ps.parse_fincat(
        "category c\n  objects x\nend\n"
        "functor F : c -> d\nend\n")
    with pytest.raises(fc.BlockError) as err:
        fc.build_catfile(cf)
    assert err.value.args == ("F", "unknown category 'd'")


def test_relabel_renames_and_maps():
    c = two()
    renamed, table = oracles.relabel(c, lambda x: ("o", x),
                                     lambda m: ("n",) + (
                                         (m.name,) if isinstance(m.name, str)
                                         else m.name))
    assert renamed.validate() == []
    assert set(renamed.objects) == {("o", "0"), ("o", "1")}
    a = next(m for m in c.morphisms if m.name == "a")
    assert table[a].name == ("n", "a")
    assert table[a].dom == ("o", "0") and table[a].cod == ("o", "1")
    assert renamed.identity[("o", "0")] == table[c.identity["0"]]
    assert renamed.compose[(table[c.identity["1"]], table[a])] == table[a]
