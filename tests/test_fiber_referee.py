"""FiberAssignment.validate against the cell-by-cell referee
(`oracles.fiber_assignment_every_cell`): the same problems, in full and
in order, on every assignment the interpreter validates over the corpus
and the benchmark's seed-1 inputs, on the assignments built from the
small categories, and on planted malformed ones."""

import json
import sys
from pathlib import Path

import pytest

import cats
import oracles
import smallcats
from homtt import fincat as fc
from homtt import interp as ip
from homtt import wfs

REPO = Path(__file__).resolve().parent.parent
GENERATED = 60   # seed-1 inputs per workload, as tests/same_output.py runs


def referee(fa):
    """fa's problems, which the referee finds the same."""
    got = fa.validate()
    assert got == oracles.fiber_assignment_every_cell(fa)
    return got


def generated_inputs(root):
    """(command, path) for the first seed-1 inputs of the two workloads
    that interpret contexts."""
    sys.path.insert(0, str(REPO / "perfbench"))
    try:
        import gen
    finally:
        sys.path.remove(str(REPO / "perfbench"))
    for workload, command in (("interp-scenarios", "interp"),
                              ("wfs-certify", "wfs")):
        for d in gen.write_inputs(workload, 1, GENERATED,
                                  root / workload)[1:]:
            argv = json.loads((d / "expect.json").read_text("utf-8"))["argv"]
            yield command, argv[-1]


def test_every_validated_assignment_agrees(monkeypatch, tmp_path):
    # every assignment validated while the scenarios are verified and the
    # workspaces' hom contexts are built (the only part of `homtt wfs`
    # that extends a context), in the corpus and the generated inputs
    real = fc.FiberAssignment.validate
    seen, differ = 0, []

    def refereed(fa):
        nonlocal seen
        seen += 1
        got = real(fa)
        if got != oracles.fiber_assignment_every_cell(fa):
            differ.append(fa)
        return got
    monkeypatch.setattr(fc.FiberAssignment, "validate", refereed)
    runs = [(command, str(path))
            for command, suffix in (("interp", "scn"), ("wfs", "fincat"))
            for path in sorted((REPO / "corpus").glob(f"**/*.{suffix}"))]
    runs += generated_inputs(tmp_path)
    assert len(runs) > 2 * GENERATED
    for command, path in runs:
        if command == "interp":
            ip.verify_soundness(ip.load_scenario(path))
            continue
        try:
            ws = ip.load_workspace([path], path)
        except ip.InterpError:
            continue
        for cat in ws.categories.values():
            wfs.hom_context(cat)
    monkeypatch.undo()
    assert seen > 20 * GENERATED
    assert differ == []


B2 = cats.two()
SMALL = smallcats.all_small()


@pytest.mark.parametrize("name", sorted(SMALL))
def test_small_category_assignments_agree(name):
    # constant two-fibers over the small category, their cores and
    # opposites, and the hom sets between two strict sections
    c = SMALL[name]
    fa = fc.constant_fibers(c, B2)
    for built in (fa, fc.core_fibers(fa), fc.op_fibers(fa)):
        assert referee(built) == []
    for s, t in (("0", "1"), ("0", "0"), ("1", "0")):
        src = fc.strict_section(fc.op_fibers(fa), {x: s for x in c.objects})
        tgt = fc.strict_section(fa, {x: t for x in c.objects})
        assert referee(fc.hom_functor(fa, src, tgt)) == []
    # the small category as the one fiber over the point and over two
    for base in (ip.terminal_ctx(), B2):
        assert referee(fc.constant_fibers(base, c)) == []


def _chain3_assignment(fiber, along=None, compose=None):
    """The identity of `fiber` at every morphism of chain3, but
    along[name] at the morphism named so; compose overrides base cells."""
    base = cats.chain3()
    if compose:
        m = {f.name: f for f in base.morphisms}
        cells = {(m[g], m[f]): m[h] for (g, f), h in compose.items()}
        base = fc.FinCat(base.objects, base.morphisms, base.identity,
                         {**base.compose, **cells})
    still = fc.identity_functor(fiber)
    along = along or {}
    return fc.FiberAssignment(
        base, {x: fiber for x in base.objects},
        {f: along.get(f.name, still) for f in base.morphisms})


def planted():
    """Malformed assignments over chain3, each with the problems it has."""
    c, d = cats.two(), cats.disc2()
    ident = fc.identity_functor(c)
    a = next(f for f in c.morphisms if f.name == "a")
    swap = fc._discrete_functor(d, d, {"0": "1", "1": "0"})
    both = ["transitions not functorial at (c01, (id 0))",
            "transitions not functorial at (c12, c01)"]
    pairing = {("c12", ("id", "0")): "c12"}
    shared = _chain3_assignment(c, compose=pairing)
    return {
        # maps with a key beyond the transition's source: Functor.validate
        # passes them, the composites with the identity do not
        "extra-ob": (_chain3_assignment(c, {"c01": fc.Functor(
            c, c, {**ident.ob, "ghost": "0"}, ident.mor)}), both),
        "extra-mor": (_chain3_assignment(c, {"c01": fc.Functor(
            c, c, ident.ob, {**ident.mor, fc.Mor("ghost", "0", "1"): a})}),
            both),
        # a unit that is not the identity: every composite is checked
        "unit-not-identity": (_chain3_assignment(d, {("id", "1"): swap}), [
            "transition at identity of 1 is not the identity functor",
            "transitions not functorial at ((id 1), c01)",
            "transitions not functorial at ((id 1), (id 1))",
            "transitions not functorial at (c12, (id 1))"]),
        # a base pairing c12 with identity 0, over one fiber: it composes;
        # over fibers equal but not one object it is checked, and composes
        "non-composable": (shared, []),
        "non-composable-copies": (fc.FiberAssignment(
            shared.base, {x: cats.two() for x in shared.base.objects},
            {f: fc.identity_functor(cats.two())
             for f in shared.base.morphisms}), []),
        # a base that says c01 after identity 0 is c02, where the
        # transitions differ: not functorial at an identity pair
        "identity-pair": (_chain3_assignment(
            d, {"c02": swap}, {("c01", ("id", "0")): "c02"}), both),
    }


@pytest.mark.parametrize("name", sorted(planted()))
def test_planted_malformations_agree(name):
    fa, want = planted()[name]
    assert referee(fa) == want


def test_a_non_composable_identity_pair_between_fibers_that_differ():
    # the base pairs c12 with identity 0 while the fibers at 0 and 1
    # differ: neither check can compose the transitions
    c, pt = cats.two(), cats.star()
    base = planted()["non-composable"][0].base
    fibers = {"0": c, "1": pt, "2": pt}

    def collapse(src):
        return fc.Functor(src, pt, {x: "*" for x in src.objects},
                          {g: pt.identity["*"] for g in src.morphisms})
    fa = fc.FiberAssignment(base, fibers, {
        f: fc.identity_functor(fibers[f.dom]) if f.dom == f.cod
        else collapse(fibers[f.dom]) for f in base.morphisms})
    for check in (fc.FiberAssignment.validate,
                  oracles.fiber_assignment_every_cell):
        with pytest.raises(ValueError, match="functors not composable"):
            check(fa)
