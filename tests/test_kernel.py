"""Kernel syntax operations against frozen examples and the named-world oracle."""

from __future__ import annotations

import copy
import dataclasses
import gc
import io
import pickle
import random
import weakref
from pathlib import Path

import pytest

from homtt import checker as ch
from homtt import cli
from homtt import kernel as k
from homtt import parser as ps
from homtt.kernel import (BaseT, Const, Core, ElimL, ElimR, Hom, IncCore,
                          IncOp, One, Op, Var)

import oracles
import surface
import wtgen

B = BaseT("B")
CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def names(n):
    return [f"x{i}" for i in range(n)]


def well_scoped(x, n):
    """Check every variable level against the context length n (binder bodies
    against the extended lengths)."""
    if isinstance(x, Var):
        return 0 <= x.level < n
    return all(well_scoped(c, n + b) for c, b in oracles.children(x))


# ---------------------------------------------------------------------------
# random well-scoped expressions (depth-bounded)


def rand_term(rng, n, depth):
    leaves = ["var", "const"] if n else ["const"]
    if depth <= 0:
        choice = rng.choice(leaves)
    else:
        choice = rng.choice(leaves + ["i", "iop", "one", "elimr", "eliml"])
    if choice == "var":
        return Var(rng.randrange(n))
    if choice == "const":
        return Const(rng.choice("abc"), ())
    if choice in ("i", "iop", "one"):
        cls = {"i": IncCore, "iop": IncOp, "one": One}[choice]
        return cls(rand_term(rng, n, depth - 1))
    cls = ElimR if choice == "elimr" else ElimL
    # the eliminated argument and the theta argument stay binder-free so the
    # termination measure is respected even for ill-typed random terms
    return cls(rand_type(rng, n + 1, depth - 1),
               rand_type(rng, n + 4, depth - 1),
               rand_term(rng, n + 2, depth - 1),
               rand_simple(rng, n),
               rand_simple(rng, n))


def rand_simple(rng, n):
    base = Var(rng.randrange(n)) if n and rng.random() < 0.7 else Const(rng.choice("abc"), ())
    match rng.randrange(4):
        case 0:
            return One(base)
        case 1:
            return IncCore(base)
        case 2:
            return IncOp(base)
        case _:
            return base


def rand_type(rng, n, depth):
    if depth <= 0:
        return BaseT(rng.choice("BC"), ())
    match rng.randrange(5):
        case 0:
            return BaseT(rng.choice("BC"), (rand_term(rng, n, depth - 1),))
        case 1:
            return Core(rand_type(rng, n, depth - 1))
        case 2:
            return Op(rand_type(rng, n, depth - 1))
        case 3:
            return Hom(rand_type(rng, n, depth - 1), rand_term(rng, n, depth - 1),
                       rand_term(rng, n, depth - 1))
        case _:
            return BaseT(rng.choice("BC"), ())


# ---------------------------------------------------------------------------
# substitute


def test_substitute_hit():
    assert oracles.substitute(Var(0), 0, One(Const("a")), 1) == One(Const("a"))


def test_substitute_shifts_higher_levels():
    assert oracles.substitute(Var(1), 0, Const("c"), 2) == Var(0)


def test_substitute_inside_hom():
    got = oracles.substitute(Hom(B, Var(0), Var(1)), 0, Const("c"), 2)
    assert got == Hom(B, Const("c"), Var(0))


def test_substitute_matches_named_oracle():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randrange(1, 5)
        x = rand_term(rng, n, rng.randrange(7))
        d = rng.randrange(n)
        r = rand_term(rng, n - 1, rng.randrange(3))
        got = oracles.substitute(x, d, r, n)
        env = names(n)
        env_minus = env[:d] + env[d + 1:]
        want = oracles.subst_named(
            oracles.to_named(x, env, oracles.fresh_namer("s")),
            env[d],
            oracles.to_named(r, env_minus, oracles.fresh_namer("t")))
        assert oracles.named_equal(
            oracles.to_named(got, env_minus, oracles.fresh_namer("u")), want)
        assert well_scoped(got, n - 1)


def test_shift_weakens_into_longer_context():
    rng = random.Random(8)
    for _ in range(200):
        n = rng.randrange(0, 4)
        x = rand_term(rng, n, rng.randrange(6))
        extra = rng.randrange(1, 3)
        widened = k.shift(x, n, extra)
        assert well_scoped(widened, n + extra)
        # the named reading is unchanged: new entries are simply unused
        env = names(n)
        assert oracles.named_equal(
            oracles.to_named(widened, env + [f"z{i}" for i in range(extra)],
                             oracles.fresh_namer("v")),
            oracles.to_named(x, env, oracles.fresh_namer("w")))


# ---------------------------------------------------------------------------
# reduce


def contraction_example():
    th = BaseT("S", (Var(0),))
    dm = BaseT("S", (Var(1),))
    d = Const("p", (Var(0), Var(1)))
    return th, dm, d


def test_reduce_contracts_right_unit():
    th, dm, d = contraction_example()
    tm = ElimR(th, dm, d, One(Const("a")), Const("w"))
    assert k.reduce(tm) == Const("p", (Const("a"), Const("w")))


def test_reduce_contracts_left_unit():
    th, dm, d = contraction_example()
    tm = ElimL(th, dm, d, One(Const("a")), Const("w"))
    assert k.reduce(tm) == Const("p", (Const("a"), Const("w")))


def test_reduce_stuck_variable():
    assert k.reduce(Var(3), depth=4) == Var(3)


def test_reduce_nested_eliminators():
    # the inner eliminator reduces to a unit, which then fires the outer one
    th, dm, d = contraction_example()
    inner = ElimL(th, dm, One(Var(0)), One(Const("a")), Const("w"))
    outer = ElimR(th, dm, d, inner, Const("u"))
    got = k.reduce(outer)
    # frozen from the independent rewriter: inner -> one a, outer -> p(a, u)
    assert got == Const("p", (Const("a"), Const("u")))


def test_reduce_agrees_with_named_rewriter():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randrange(0, 4)
        x = rand_term(rng, n, rng.randrange(7))
        got = k.reduce(x, depth=n)
        want = oracles.named_normalize(
            oracles.to_named(x, names(n), oracles.fresh_namer("n")))
        assert oracles.named_equal(
            oracles.to_named(got, names(n), oracles.fresh_namer("m")), want)


def test_reduce_idempotent():
    rng = random.Random(13)
    for _ in range(200):
        n = rng.randrange(0, 4)
        x = k.reduce(rand_term(rng, n, rng.randrange(7)), depth=n)
        assert k.reduce(x, depth=n) == x
        assert well_scoped(x, n)


def test_reduce_commutes_with_substitute():
    rng = random.Random(17)
    for _ in range(200):
        n = rng.randrange(1, 4)
        x = rand_term(rng, n, rng.randrange(6))
        d = rng.randrange(n)
        r = rand_simple(rng, n - 1)
        lhs = k.reduce(oracles.substitute(x, d, r, n), depth=n - 1)
        rhs = k.reduce(oracles.substitute(k.reduce(x, depth=n), d, r, n),
                       depth=n - 1)
        assert lhs == rhs


def test_eliminator_count_measure():
    th, dm, d = contraction_example()
    tm = ElimR(th, dm, d, One(Const("a")), Const("w"))
    assert tm.elims == 1
    assert k.reduce(tm).elims == 0


def test_reduce_guard_catches_a_contraction_that_does_not_shrink(monkeypatch):
    th, dm, d = contraction_example()
    redex = ElimR(th, dm, d, One(Const("a")), Const("w"))
    monkeypatch.setattr(k, "instantiate", lambda body, base, values: redex)
    with pytest.raises(k.InternalError, match=r"reduce: eliminator count "
                       r"did not decrease \(1 -> 1\)"):
        k.reduce(redex)
    # the guard also fires below a subtree that holds no eliminator
    with pytest.raises(k.InternalError, match="did not decrease"):
        k.reduce(Hom(B, Const("a"), redex))


# ---------------------------------------------------------------------------
# summaries and sharing: a traversal that changes nothing returns its input


def test_summaries_bound_levels_and_count_eliminators():
    th, dm, d = contraction_example()
    tm = ElimR(th, dm, d, One(Var(2)), Const("w"))
    assert (tm.levels, tm.elims) == (3, 1)
    assert (Const("c").levels, Const("c").elims) == (0, 0)
    assert (Hom(B, tm, Var(5)).levels, Hom(B, tm, tm).elims) == (6, 2)
    assert hash(tm) == hash(ElimR(th, dm, d, One(Var(2)), Const("w")))


def test_summaries_match_a_recomputation_from_the_fields():
    memo, seen = {}, set()
    todo = [x for x, _ in sample_nodes()]
    while todo:
        x = todo.pop()
        if x not in seen:
            seen.add(x)
            assert (x.levels, x.elims, x.names) == oracles.summaries(x, memo)
            todo += [c for c, _ in oracles.children(x)]
    assert len(seen) > 800
    assert any(x.names and x.levels and x.elims > 1 for x in seen)


def test_traversals_return_their_input_when_nothing_changes():
    rng = random.Random(31)
    for _ in range(200):
        n = rng.randrange(0, 4)
        x = rand_term(rng, n, rng.randrange(7))
        top = x.levels
        assert k.shift(x, top, 2) is x
        assert oracles.substitute(x, top, Const("c"), top + 1) is x
        assert k.map_children(x, lambda c, _: c, n) is x
        r = k.reduce(x, n)
        assert k.reduce(r, n) is r
    closed = Hom(B, IncOp(Const("c")), ElimR(B, B, Const("a"), Const("f"),
                                             Const("w")))
    assert k.instantiate(closed, 0, (Var(0), Var(1)), 3) is closed
    assert k.reduce(closed) is closed
    # a rebuilt node keeps its unchanged children
    x = Hom(Core(B), Var(0), IncCore(Var(4)))
    y = k.shift(x, 3, 1)
    assert y == Hom(Core(B), Var(0), IncCore(Var(5)))
    assert y.carrier is x.carrier and y.source is x.source


# ---------------------------------------------------------------------------
# alpha equality: de Bruijn levels make it plain ==, and core (op T) is
# core T by construction


def test_alpha_equal_identifies_core_of_op():
    assert Core(Op(B)) == Core(B)
    assert Core(Op(Op(B))) == Core(B)
    assert Core(Op(Op(B))).inner is B
    # rebuilt nodes go through the constructor too
    assert k.map_children(Core(B), lambda c, _: Op(c), 0) == Core(B)
    assert Op(Core(Op(B))) == Op(Core(B))


def test_alpha_equal_is_structural_otherwise():
    assert Op(Op(B)) != B
    assert Var(0) != Var(1)
    assert One(Var(0)) == One(Var(0))


def test_alpha_equal_equivalence_and_substitution():
    rng = random.Random(19)
    for _ in range(100):
        n = rng.randrange(1, 4)
        x = rand_term(rng, n, rng.randrange(5))
        y = rand_term(rng, n, rng.randrange(5))
        assert x == x
        if x == y:
            r = rand_simple(rng, n - 1)
            d = rng.randrange(n)
            assert (oracles.substitute(x, d, r, n)
                    == oracles.substitute(y, d, r, n))


# ---------------------------------------------------------------------------
# scope hygiene


def test_well_scoped_counts_binders():
    th = BaseT("S", (Var(0),))
    tm = ElimR(th, BaseT("S", (Var(3),)), Var(1), One(Const("a")), Const("w"))
    assert well_scoped(tm, 0)
    assert not well_scoped(Var(0), 0)
    assert not well_scoped(ElimR(th, BaseT("S", (Var(4),)), Var(0),
                                 Const("a"), Const("w")), 0)


def test_instantiating_a_signature_body_retargets_binders():
    # a defined body over a two-entry telescope, unfolded in a context of 3
    body = Const("p", (Var(0), Var(1)))
    got = k.instantiate(body, 0, (Var(2), Const("q")), 3)
    assert got == Const("p", (Var(2), Const("q")))
    th, dm, d = contraction_example()
    body2 = ElimR(th, dm, d, Var(0), Var(1))
    got2 = k.instantiate(body2, 0, (Var(0), Const("q")), 1)
    assert well_scoped(got2, 1)
    assert got2.f == Var(0) and got2.theta == Const("q")


def test_instantiating_a_signature_body_is_weaken_then_instantiate():
    derived = [derive(side)
               for derive in (surface.derive_comp, surface.derive_transport)
               for side in ("right", "left")]
    closed = [(len(d.telescope), x) for d in derived for x in (d.ty, d.body)]
    closed += [(0, tm) for tm, _ in wtgen.generate(random.Random(23), 40)]
    rng = random.Random(29)
    for arity, body in closed:
        for n in range(4):
            pool = [Var(i) for i in range(n)] + [Const("c"), Const("d")]
            args = tuple(rng.choice(pool) for _ in range(arity))
            assert (k.instantiate(body, 0, args, n)
                    == k.instantiate(k.shift(body, 0, n), n, args))


def test_empty_region_returns_its_input_and_th_is_one_instantiate():
    rng = random.Random(31)
    for _ in range(200):
        n = rng.randrange(0, 4)
        x = rand_term(rng, n, rng.randrange(6))
        assert k.shift(x, n, 0) is x
        assert k.instantiate(x, n, ()) is x
        # D's th entry, th[s] on the right and th[t] on the left: one
        # instantiate in place of the shifts that move th into place
        ctx = (("x", B),) * n
        theta = rand_term(rng, n + 1, rng.randrange(6))
        _, right_d = k.elim_contexts(ctx, B, theta, right=True)
        assert right_d[-1][1] == k.shift(theta, n + 1, 2)
        _, left_d = k.elim_contexts(ctx, B, theta, right=False)
        assert left_d[-1][1] == k.shift(k.shift(theta, n, 1), n + 2, 1)


# ---------------------------------------------------------------------------
# the base-case type of an eliminator: the four-binder motive D at the unit,
# (p, i p, one p, th) on the right and (iop p, p, one p, th) on the left,
# built by one instantiate and refereed by the old chain of two substitutes


def unit_instance(dm, n, right):
    p = Var(n)
    ends = (p, IncCore(p)) if right else (IncOp(p), p)
    return k.instantiate(dm, n, (*ends, One(p), Var(n + 1)), n + 2)


def unit_substitutes(dm, n, right):
    if right:
        out = oracles.substitute(dm, n + 2, One(Var(n)), n + 4)
        return oracles.substitute(out, n + 1, IncCore(Var(n)), n + 3)
    out = oracles.substitute(dm, n, IncOp(Var(n)), n + 4)
    return oracles.substitute(out, n + 1, One(Var(n)), n + 3)


def var_levels(x):
    if isinstance(x, Var):
        return {x.level}
    return set().union(*(var_levels(c) for c, _ in oracles.children(x)))


def eliminators(x, n):
    """Every eliminator in x (which sits in a context of length n), with
    the length of the context it sits in."""
    if isinstance(x, (ElimR, ElimL)):
        yield x, n
    for c, b in oracles.children(x):
        yield from eliminators(c, n + b)


def sample_nodes():
    """(node, length of the context it sits in) pairs: wtgen terms and
    their types, every part of every corpus declaration, and random
    well-scoped terms."""
    out = []
    for tm, ty in wtgen.generate(random.Random(37), 60):
        out += [(tm, 0), (ty, 0)]
    for path in sorted(CORPUS.rglob("*.dtt")):
        src = ps.parse_dtt(path.read_text(encoding="utf-8"), str(path))
        for decl in src.decls:
            tele = decl.telescope
            out += [(ty, j) for j, (_, ty) in enumerate(tele)]
            for field in ("ty", "body", "lhs", "rhs"):
                x = getattr(decl, field, None)
                if x is not None:
                    out.append((x, len(tele)))
    rng = random.Random(41)
    for _ in range(200):
        n = rng.randrange(0, 4)
        out.append((rand_term(rng, n, rng.randrange(2, 7)), n))
    return out


def sample_eliminators():
    return [e for x, n in sample_nodes() for e in eliminators(x, n)]


def test_unit_instance_matches_the_substitute_chain():
    elims = sample_eliminators()
    assert len(elims) > 200
    assert any(isinstance(e, ElimL) for e, _ in elims)
    for e, n in elims:
        # levels are absolute, so D mentions s or t wherever they occur
        ends_used = bool(var_levels(e.motive_d) & {n, n + 1})
        for right in (True, False):
            want = unit_substitutes(e.motive_d, n, right)
            assert unit_instance(e.motive_d, n, right) == want
            assert well_scoped(want, n + 2)
            # the other side's ends give another type exactly when D uses them
            assert (unit_instance(e.motive_d, n, not right) != want) \
                == ends_used


class Foreign:
    """A node no traversal knows."""


@pytest.mark.parametrize("op", [
    lambda x: k.shift(x, 0, 1),
    lambda x: oracles.substitute(x, 0, Const("c"), 1),
    lambda x: k.instantiate(x, 0, (Const("c"),)),
    lambda x: k.instantiate(x, 0, (Const("c"),), 0),
    lambda x: x.elims,
    k.reduce,
    lambda x: ch.nf(ch.Signature(), x),
    ps.print_type,
], ids=["shift", "substitute", "instantiate", "instantiate_body",
        "elims", "reduce", "nf", "print_type"])
def test_traversals_reject_a_foreign_node(op):
    with pytest.raises(k.InternalError, match="unknown node"):
        op(Hom(B, Var(0), One(Foreign())))


def test_a_foreign_child_is_refused_at_construction():
    for build in (lambda: One(Foreign()), lambda: Const("c", (B, Foreign())),
                  lambda: ElimR(B, B, Var(0), Const("f"), Foreign())):
        with pytest.raises(k.InternalError, match="unknown node"):
            build()


# ---------------------------------------------------------------------------
# interning: two live nodes with equal fields are one object


def test_nodes_are_interned_and_compare_by_identity():
    s, t = Const("s"), Const("t")
    assert Hom(B, s, t) is Hom(B, s, t)
    assert Core(Op(Op(B))) is Core(B)
    assert BaseT("B") is BaseT("B", ()) and Const("c") is Const("c", ())
    # the table holds its nodes weakly: every entry is a weak reference
    assert k._live and all(isinstance(ref, weakref.ref)
                           for ref in k._live.values())
    for cls in k._CHILD_BINDERS:
        assert "__eq__" not in vars(cls) and "__hash__" not in vars(cls)
    with pytest.raises(dataclasses.FrozenInstanceError):
        Var(0).level = 1
    assert Var(0).level == 0


def test_node_repr_is_the_dataclass_repr():
    assert repr(Hom(BaseT("B"), IncOp(Var(0)), Var(1))) == (
        "Hom(carrier=BaseT(name='B', args=()), "
        "source=IncOp(arg=Var(level=0)), target=Var(level=1))")
    assert repr(Const("c", (One(Var(2)),))) == (
        "Const(name='c', args=(One(arg=Var(level=2)),))")


@pytest.mark.parametrize("change", [
    lambda x: setattr(x, "carrier", BaseT("C")),
    lambda x: setattr(x, "extra", 1),
    lambda x: delattr(x, "source")], ids=["assign", "add", "delete"])
def test_nodes_refuse_assignment_and_deletion(change):
    x = Hom(BaseT("B"), IncOp(Var(0)), Var(1))
    with pytest.raises(dataclasses.FrozenInstanceError):
        change(x)
    assert x.carrier is BaseT("B") and x.source is IncOp(Var(0))
    assert not hasattr(x, "extra")


@pytest.mark.parametrize("clone", [
    copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))],
    ids=["copy", "deepcopy", "pickle"])
def test_copies_and_pickles_are_the_live_node(clone):
    x = Hom(BaseT("B"), IncOp(Var(0)), Var(1))
    assert x.levels == 2  # a computed summary is not a field
    assert clone(Var(0)) is Var(0)
    assert clone(x) is x


def test_shift_and_instantiate_give_the_parsed_nodes():
    src = ps.parse_dtt(
        "assume T : Type\nassume P (x : T) : Type\nassume c : core T\n"
        "assume a (x : T) : P(x)\nassume b (y : T, x : T) : P(x)\n"
        "assume u : P(i c)\n")
    a, b, u = (d.ty for d in src.decls[3:])
    assert k.shift(a, 0, 1) is b
    assert k.instantiate(a, 0, (IncCore(Const("c")),)) is u
    assert k.instantiate(b, 0, (Var(0), IncCore(Const("c")))) is u


def test_a_check_run_leaves_the_table_as_it_found_it():
    gc.collect()
    before = len(k._live)
    assert cli.run(cli.parse_args(["check", str(CORPUS / "comp.dtt")]),
                   io.StringIO()) == 0
    gc.collect()
    assert len(k._live) == before


def test_a_stale_drop_leaves_a_fresh_node_alone():
    key = (Const, "stale", ())
    assert key not in k._live
    x = Const("stale")
    stale = k._live[key]
    del x
    gc.collect()
    assert key not in k._live and stale() is None
    fresh = Const("stale")
    entry = k._live[key]
    # the callback of the first node's reference, run again late
    k._drop(stale)
    assert k._live[key] is entry and entry() is fresh
    assert Const("stale") is fresh
    k._drop(entry)
    assert key not in k._live


def test_no_two_live_nodes_share_a_structure():
    keep = []
    for path in sorted(CORPUS.rglob("*.dtt")):
        src = ps.parse_dtt(path.read_text(encoding="utf-8"), str(path))
        keep.append((src, ch.check_source(src)))
    sig = wtgen.base_signature()
    for tm, _ in wtgen.generate(random.Random(43), 200):
        keep.append((tm, ch.nf(sig, tm), ch.infer_term(sig, (), tm)))
    rng = random.Random(47)
    for _ in range(200):
        n = rng.randrange(1, 4)
        x = rand_term(rng, n, rng.randrange(7))
        keep.append((x, k.reduce(x, n), k.shift(x, 1, 2)))
    v0 = Var(0)
    nodes = [ref() for ref in k._live.values()]
    assert len(nodes) > 1000
    assert oracles.interning_breaches(nodes) == []
    # a node made behind the constructor's back is caught
    planted = object.__new__(Var)
    planted.__dict__.update(level=0)
    assert oracles.interning_breaches(nodes + [planted]) == [(v0, planted)]
