"""Small-scope semantics: checks over every category in smallcats."""

from pathlib import Path

import pytest

import cats
import oracles
import smallcats
from homtt import checker as ch
from homtt import fincat as fc
from homtt import interp as ip
from homtt import kernel as k
from homtt import wfs

REPO = Path(__file__).resolve().parent.parent
SMALL = smallcats.all_small()
B = k.BaseT("B")


def test_the_classes_have_their_known_sizes():
    # posets on 1-4 points (OEIS A000112), monoids of order 1-3 (A058129)
    assert [len(smallcats.poset_orders(n)) for n in range(1, 5)] \
        == [1, 2, 5, 16]
    assert [len(smallcats.monoid_tables(n)) for n in range(1, 4)] \
        == [1, 2, 7]
    assert len(SMALL) == 33 + 2


def interpreter(c):
    sig = ch.Signature()
    sig.assume_type("B")
    return ip.Interpreter(sig, ip.SemanticEnv(
        bases={"B": fc.constant_fibers(ip.terminal_ctx(), c)}))


@pytest.mark.parametrize("name", sorted(SMALL))
def test_small_category(name):
    c = SMALL[name]
    assert c.validate() == []
    _, _, records = wfs.alpha_iso(c)
    assert all(r.ok for r in records)
    for flavor in wfs.FLAVORS:
        assert wfs.factor(fc.core_inclusion(c), flavor).validate() == []

    itp = interpreter(c)
    # hom B (iop s) t over (s : core B, t : B) is the hom-set at (x, y)
    ctx = (("s", k.Core(B)), ("t", B))
    hom = itp.type(ctx, k.Hom(B, k.IncOp(k.Var(0)), k.Var(1)))
    assert hom.validate() == []
    assert {x: set(fib.objects) for x, fib in hom.fibers.items()} \
        == {(x, y): set(c.hom(x, y)) for x in c.objects for y in c.objects}
    # one s over (s : core B) is the identity at every object
    one = itp.term((("s", k.Core(B)),), k.One(k.Var(0)))
    assert one.validate() == []
    assert one.obj == {(x,): c.identity[x] for x in c.objects}


HOM_CTX = (("s", k.Core(B)), ("t", B),
           ("f", k.Hom(B, k.IncOp(k.Var(0)), k.Var(1))))


@pytest.mark.parametrize("name", sorted(SMALL))
def test_small_comprehension_pullbacks(name):
    # criterion 5 on the hom context: every comprehension square is a
    # pullback
    records = ip._pullback_records(interpreter(SMALL[name]), name, HOM_CTX)
    assert [r.check for r in records] == [f"chi-pullback[{j}]"
                                          for j in (2, 1, 0)]
    assert all(r.ok for r in records), [r.detail for r in records]


@pytest.mark.parametrize("name", sorted(SMALL))
def test_small_opfibration_lifts(name):
    # criterion 6's lifts on the totals of constant two-fibers and of
    # their cores
    c = SMALL[name]
    plain = fc.constant_fibers(c, cats.two())
    for fa in (plain, fc.core_fibers(plain)):
        P = oracles.groth(c, fa).projection
        ok, lifts = fc.has_cocartesian_lifts(P)
        assert ok
        assert set(lifts) == {(x, f) for x in P.source.objects
                              for f in c.out_of(P.ob[x])}
        # oracles.is_cocartesian on each lift, with op P built once
        op_P = oracles.op_functor(P)
        assert all(oracles.is_cartesian(op_P, fc.op_mor(e))
                   for e in lifts.values())
        w = wfs.opfib_lift(wfs.factor(P, "arrow"), lifts)
        assert fc.functor_compose(w.diagonal, w.problem.i) == w.problem.top
        assert fc.functor_compose(w.problem.p, w.diagonal) \
            == w.problem.bottom


def test_fiber_assignment_laws_agree_with_the_referee(monkeypatch):
    # every fiber assignment validated while the corpus scenarios are
    # verified and the hom context of every small category is built
    seen = []
    validate = fc.FiberAssignment.validate

    def recording(fa):
        seen.append(fa)
        return validate(fa)
    monkeypatch.setattr(fc.FiberAssignment, "validate", recording)
    scenarios = sorted((REPO / "corpus" / "scenarios").glob("*.scn"))
    assert scenarios
    for path in scenarios:
        ip.verify_soundness(ip.load_scenario(path))
    for c in SMALL.values():
        interpreter(c).context(HOM_CTX)
    monkeypatch.undo()
    assert len(seen) > 150
    for fa in seen:
        assert fa.validate() == oracles.fiber_assignment_problems(fa)
