import io
from pathlib import Path

import pytest

import cats
import oracles
import surface
from homtt import checker as ch
from homtt import cli
from homtt import fincat as fc
from homtt import interp as ip
from homtt import kernel as k
from homtt import parser as ps


# -- oracles ----------------------------------------------------------------
#
# Written against the constructions themselves, not the interpreter:
# composition by table lookup and context sizes by counting.  The left
# eliminator's referee, the mirror route, is oracles.mirror_left_elim.


def composable_pairs(c):
    return sum(1 for g in c.morphisms for f in c.morphisms
               if f.cod == g.dom)


def assert_same_values(a, b):
    assert a.obj == b.obj
    assert a.mor == b.mor


# -- shared builders --------------------------------------------------------

B = k.BaseT("B")


def base_sig():
    sig = ch.Signature()
    sig.assume_type("B")
    return sig


def const_env(c):
    return ip.SemanticEnv(
        bases={"B": fc.constant_fibers(ip.terminal_ctx(), c)})


def hom_ctx():
    return (("s", k.Core(B)), ("t", B),
            ("f", k.Hom(B, k.IncOp(k.Var(0)), k.Var(1))))


def comp_setup(c, f_mor, g_mor):
    """Signature, environment, interpreter for a closed composition pair."""
    sig = base_sig()
    sig.assume_term("r0", (), k.Op(B))
    sig.assume_term("s0", (), k.Core(B))
    sig.assume_term("t0", (), B)
    sig.assume_term("f0", (), k.Hom(B, k.Const("r0"),
                                    k.IncCore(k.Const("s0"))))
    sig.assume_term("g0", (), k.Hom(B, k.IncOp(k.Const("s0")),
                                    k.Const("t0")))
    for side in ("right", "left"):
        d = surface.derive_comp(side, sig, carrier="B")
        sig.define(d.name, d.telescope, d.ty, d.body)
    env = const_env(c)
    itp = ip.Interpreter(sig, env)
    env.terms["r0"] = fc.strict_section(itp.type((), k.Op(B)),
                                        {(): f_mor.dom})
    env.terms["s0"] = fc.strict_section(itp.type((), k.Core(B)),
                                        {(): f_mor.cod})
    env.terms["t0"] = fc.strict_section(itp.type((), B), {(): g_mor.cod})
    env.terms["f0"] = fc.strict_section(
        itp.type((), k.Hom(B, k.Const("r0"), k.IncCore(k.Const("s0")))),
        {(): f_mor})
    env.terms["g0"] = fc.strict_section(
        itp.type((), k.Hom(B, k.IncOp(k.Const("s0")), k.Const("t0"))),
        {(): g_mor})
    return sig, env, itp


CLOSED_ARGS = tuple(k.Const(nm) for nm in ("r0", "s0", "t0", "f0", "g0"))


# -- context interpretation -------------------------------------------------

def test_empty_context_is_the_point():
    cat = ip.terminal_ctx()
    assert cat.objects == ((),)
    assert len(cat.morphisms) == 1
    assert cat.validate() == []


def test_single_entry_context_matches_the_category():
    c = cats.two()
    itp = ip.Interpreter(base_sig(), const_env(c))
    cat = itp.context((("x", B),))
    assert len(cat.objects) == 2 and len(cat.morphisms) == 3
    assert oracles.are_isomorphic(cat, c)
    assert cat.validate() == []


def test_hom_context_census_walking_arrow():
    itp = ip.Interpreter(base_sig(), const_env(cats.two()))
    cat = itp.context(hom_ctx())
    assert len(cat.objects) == 3
    assert len(cat.morphisms) == 4
    assert cat.validate() == []


@pytest.mark.parametrize("name", ["two", "para", "z2", "chain3", "idem"])
def test_hom_context_census_general(name):
    c = cats.ALL[name]()
    itp = ip.Interpreter(base_sig(), const_env(c))
    cat = itp.context(hom_ctx())
    assert len(cat.objects) == len(c.morphisms)
    assert len(cat.morphisms) == composable_pairs(c)
    assert cat.validate() == []


def test_variable_is_the_slot_projection():
    itp = ip.Interpreter(base_sig(), const_env(cats.two()))
    ctx = hom_ctx()
    for lv in range(3):
        sec = itp.term(ctx, k.Var(lv))
        cat = itp.context(ctx)
        assert sec.obj == {x: x[lv] for x in cat.objects}
        assert sec.mor == {m: m.name[lv] for m in cat.morphisms}


def flattened_total(base, fa):
    """The Grothendieck total of fa over base with its pairs flattened into
    tuples, its projection to base, and the last slot as a section."""
    gt = oracles.groth(base, fa)
    flat, mor_map = oracles.relabel(gt.total, lambda o: o[0] + (o[1],),
                                    lambda m: m.name[0].name + (m.name[1],))
    proj = fc.Functor(flat, base, {o: o[:-1] for o in flat.objects},
                      {mor_map[m]: m.name[0] for m in gt.total.morphisms})
    last = fc.Section(fc.reindex(fa, proj),
                      {o: o[-1] for o in flat.objects},
                      {m: m.name[-1] for m in flat.morphisms})
    return flat, proj, last


def test_extend_is_the_flattened_grothendieck_total(monkeypatch):
    calls = {"interp": [], "wfs": []}
    command = []
    real = ip.extend

    def recording(base, fa):
        ext = real(base, fa)
        calls[command[-1]].append((base, fa, ext))
        return ext
    monkeypatch.setattr(ip, "extend", recording)
    corpus = Path(__file__).resolve().parent.parent / "corpus"
    runs = [("interp", p) for p in sorted(corpus.glob("scenarios/*.scn"))]
    runs += [("wfs", p) for p in sorted(corpus.glob("cats/*.fincat"))
             + [corpus / "scenarios" / "world.fincat"]]
    for cmd, path in runs:
        command.append(cmd)
        cli.run(cli.parse_args([cmd, "--oracle", str(path),
                                "--format", "records"]), io.StringIO())
    assert calls["interp"] and calls["wfs"]
    for base, fa, ext in calls["interp"] + calls["wfs"]:
        flat, proj, last = flattened_total(base, fa)
        assert ext.cat == flat
        assert list(ext.cat.identity.items()) == list(flat.identity.items())
        assert list(ext.cat.compose.items()) == list(flat.compose.items())
        assert ext.fa is fa
        assert ext.proj == proj
        assert ext.last == last


# -- type formers -----------------------------------------------------------

def test_base_type_fiber_is_the_bound_category():
    c = cats.chain3()
    itp = ip.Interpreter(base_sig(), const_env(c))
    assert itp.type((), B).fibers[()] == c


def test_core_interp_is_discrete():
    c = cats.two()
    itp = ip.Interpreter(base_sig(), const_env(c))
    assert itp.type((), k.Core(B)).fibers[()] == fc.core(c)


def test_op_op_collapse_is_exact():
    itp = ip.Interpreter(base_sig(), const_env(cats.chain3()))
    ctx = (("x", B),)
    assert itp.type(ctx, k.Op(k.Op(B))) == itp.type(ctx, B)


def test_core_op_collapse_is_exact():
    itp = ip.Interpreter(base_sig(), const_env(cats.z2()))
    assert itp.type((), k.Core(k.Op(B))) == itp.type((), k.Core(B))


@pytest.mark.parametrize("name", ["two", "chain3", "z2", "para"])
def test_closed_hom_is_the_hom_set(name):
    c = cats.ALL[name]()
    for x in c.objects:
        for y in c.objects:
            sig = base_sig()
            sig.assume_term("s0", (), k.Op(B))
            sig.assume_term("t0", (), B)
            env = const_env(c)
            itp = ip.Interpreter(sig, env)
            env.terms["s0"] = fc.strict_section(itp.type((), k.Op(B)),
                                                {(): x})
            env.terms["t0"] = fc.strict_section(itp.type((), B), {(): y})
            fa = itp.type((), k.Hom(B, k.Const("s0"), k.Const("t0")))
            assert set(fa.fibers[()].objects) == set(c.hom(x, y))


def test_missing_base_binding_is_reported():
    itp = ip.Interpreter(base_sig(), ip.SemanticEnv())
    with pytest.raises(ip.InterpError, match="base type 'B'"):
        itp.type((), B)


# -- introductions ----------------------------------------------------------

def closed_point_setup(c, point):
    sig = base_sig()
    sig.assume_term("c0", (), k.Core(B))
    env = const_env(c)
    itp = ip.Interpreter(sig, env)
    env.terms["c0"] = fc.strict_section(itp.type((), k.Core(B)),
                                        {(): point})
    return sig, env, itp


def test_inclusions_are_strict_sections():
    c = cats.two()
    _, _, itp = closed_point_setup(c, "0")
    into = itp.term((), k.IncCore(k.Const("c0")))
    assert into.obj == {(): "0"}
    assert into == fc.strict_section(into.fa, into.obj)
    into_op = itp.term((), k.IncOp(k.Const("c0")))
    assert into_op.obj == {(): "0"}
    assert into_op.fa.fibers[()] == fc.op(c)


def test_intro_picks_the_identity():
    c = cats.chain3()
    _, _, itp = closed_point_setup(c, "1")
    one = itp.term((), k.One(k.Const("c0")))
    assert one.obj == {(): c.identity["1"]}
    expected = oracles.identity_section(itp.type((), B),
                                   itp.term((), k.Const("c0")))
    assert one == expected


def test_intro_in_context_is_natural():
    itp = ip.Interpreter(base_sig(), const_env(cats.two()))
    ctx = (("s", k.Core(B)),)
    one = itp.term(ctx, k.One(k.Var(0)))
    assert one.validate() == []
    assert one.obj == {(x,): cats.two().identity[x] for x in ("0", "1")}


# -- eliminators against the composition-table oracle -----------------------

@pytest.mark.parametrize("name", ["two", "chain3", "z2", "para", "idem"])
def test_comp_right_matches_the_table(name):
    c = cats.ALL[name]()
    for f_mor in c.morphisms:
        for g_mor in c.morphisms:
            if g_mor.dom != f_mor.cod:
                continue
            _, _, itp = comp_setup(c, f_mor, g_mor)
            got = itp.term((), k.Const("comp_R", CLOSED_ARGS))
            assert got.obj[()] == c.comp(g_mor, f_mor)


@pytest.mark.parametrize("name", ["two", "chain3", "z2", "para", "idem"])
def test_comp_left_matches_the_table(name):
    c = cats.ALL[name]()
    for f_mor in c.morphisms:
        for g_mor in c.morphisms:
            if g_mor.dom != f_mor.cod:
                continue
            _, _, itp = comp_setup(c, f_mor, g_mor)
            got = itp.term((), k.Const("comp_L", CLOSED_ARGS))
            assert got.obj[()] == c.comp(g_mor, f_mor)


def test_right_unit_interprets_to_the_same_section():
    c = cats.chain3()
    for f_mor in c.morphisms:
        _, _, itp = comp_setup(c, f_mor, c.identity[f_mor.cod])
        lhs = itp.term((), k.Const("comp_R", (
            k.Const("r0"), k.Const("s0"), k.IncCore(k.Const("s0")),
            k.Const("f0"), k.One(k.Const("s0")))))
        rhs = itp.term((), k.Const("f0"))
        assert_same_values(lhs, rhs)
        assert lhs.fa == rhs.fa


def test_computation_rule_holds_on_every_witness():
    c = cats.z2()
    s = cats.arrow(c, "s")
    _, _, itp = comp_setup(c, s, s)
    # each value is its witness's transported section at the arguments
    values = [itp.term((), k.Const(name, CLOSED_ARGS))
              for name in ("comp_R", "comp_L")]
    assert len(itp.witnesses) == 2
    for w in itp.witnesses:
        restricted = fc.reindex_section(w.e_full, w.unit)
        assert restricted.obj == w.d_sec.obj
        assert restricted.mor == w.d_sec.mor
        assert w.unit.validate() == []
        assert w.e_full.validate() == []
    assert all(v.validate() == [] for v in values)


def test_generic_eliminator_is_natural_over_the_whole_extension():
    sig, env, itp = comp_setup(cats.two(), cats.arrow(cats.two(), "a"),
                               cats.two().identity["1"])
    tele = tuple(sig.defs["comp_R"][0])
    gen = itp.term(tele, k.Const("comp_R", tuple(k.Var(i)
                                                 for i in range(5))))
    assert gen.validate() == []
    w = itp.witnesses[-1]
    assert w.e_full.validate() == []
    assert fc.reindex_section(w.e_full, w.unit).obj == w.d_sec.obj


# -- left/right duality -----------------------------------------------------

def left_elim_outcomes(sig, env, ctx, node):
    """The section of one elimL node from the interpreter and from the
    mirror route, each as obj/mor dicts or as the size-cap refusal.  Each
    route runs on an interpreter of its own, so neither reads the other's
    cached results."""
    assert isinstance(node, k.ElimL)
    out = []
    for run in (lambda itp: itp.term(ctx, node),
                lambda itp: oracles.mirror_left_elim(itp, ctx, node)):
        try:
            sec = run(ip.Interpreter(sig, env))
        except fc.SizeCapError as err:
            out.append(("refused", str(err)))
        else:
            out.append((sec.obj, sec.mor))
    return out


@pytest.mark.parametrize("name", sorted(cats.ALL))
def test_left_elim_agrees_with_the_mirror_route(name):
    c = cats.ALL[name]()
    for f_mor in c.morphisms:
        for g_mor in c.morphisms:
            if g_mor.dom != f_mor.cod:
                continue
            sig, env, _ = comp_setup(c, f_mor, g_mor)
            tele, _, body, _ = sig.defs["comp_L"]
            node = k.instantiate(body, 0, CLOSED_ARGS, 0)
            got, want = left_elim_outcomes(sig, env, (), node)
            assert got == want
            assert got[0] != "refused"
    # over the telescope the size cap refuses chain3 and grid22
    got, want = left_elim_outcomes(sig, env, tuple(tele), body)
    assert got == want


def left_transport_setup():
    """transport_L over the walking arrow along a, with the family on op B
    that sends 1 to the walking arrow and 0 to the point."""
    c = cats.two()
    sig = base_sig()
    sig.assume_type("S", (("x", k.Op(B)),))
    d = surface.derive_transport("left", sig, carrier="B", family="S")
    sig.define(d.name, d.telescope, d.ty, d.body)
    sig.assume_term("c0", (), k.Core(B))
    sig.assume_term("c1", (), k.Op(B))
    sig.assume_term("ff", (), k.Hom(B, k.Const("c1"),
                                    k.IncCore(k.Const("c0"))))
    sig.assume_term("u0", (), k.BaseT("S", (k.IncOp(k.Const("c0")),)))

    env = const_env(c)
    itp = ip.Interpreter(sig, env)
    ctx_op = itp.context((("x", k.Op(B)),))
    a_op = next(m for m in ctx_op.morphisms if m.name[0].name == "a")
    stc, twoc = cats.star(), cats.two()
    fam = fc.FiberAssignment(
        ctx_op,
        {("0",): stc, ("1",): twoc},
        {ctx_op.identity[("0",)]: fc.identity_functor(stc),
         ctx_op.identity[("1",)]: fc.identity_functor(twoc),
         a_op: fc.Functor(twoc, stc, {"0": "*", "1": "*"},
                          {m: stc.identity["*"]
                           for m in twoc.morphisms})})
    assert fam.validate() == []
    env.bases["S"] = fam
    env.terms["c0"] = fc.strict_section(itp.type((), k.Core(B)), {(): "1"})
    env.terms["c1"] = fc.strict_section(itp.type((), k.Op(B)), {(): "0"})
    env.terms["ff"] = fc.strict_section(
        itp.type((), k.Hom(B, k.Const("c1"), k.IncCore(k.Const("c0")))),
        {(): cats.arrow(c, "a")})
    env.terms["u0"] = fc.strict_section(
        itp.type((), k.BaseT("S", (k.IncOp(k.Const("c0")),))), {(): "0"})
    return sig, env, itp


TRANSPORT_ARGS = tuple(k.Const(nm) for nm in ("c0", "c1", "ff", "u0"))


def test_left_transport_moves_backwards():
    _, _, itp = left_transport_setup()
    got = itp.term((), k.Const("transport_L", TRANSPORT_ARGS))
    assert got.obj[()] == "*"


def test_left_transport_agrees_with_the_mirror_route():
    sig, env, _ = left_transport_setup()
    tele, _, body, _ = sig.defs["transport_L"]
    node = k.instantiate(body, 0, TRANSPORT_ARGS, 0)
    for ctx, e in (((), node), (tuple(tele), body)):
        got, want = left_elim_outcomes(sig, env, ctx, e)
        assert got == want
        assert got[0] != "refused"


def test_scenario_left_witnesses_agree_with_the_mirror_route(monkeypatch):
    seen = []
    real = ip.Interpreter._elim

    def recording(self, ctx, e):
        if isinstance(e, k.ElimL):
            seen.append((ctx, e))
        return real(self, ctx, e)
    monkeypatch.setattr(ip.Interpreter, "_elim", recording)
    sc = ip.load_scenario(Path(__file__).resolve().parent.parent
                          / "corpus" / "scenarios" / "comp.scn")
    _, witnesses = ip.verify_soundness(sc)
    monkeypatch.undo()
    assert len(seen) == sum(w.side == "left" for w in witnesses) == 2
    for ctx, e in seen:
        got, want = left_elim_outcomes(sc.sig, sc.env, ctx, e)
        assert got == want
        assert got[0] != "refused"


# -- the hand-built unit against the interpreted unit instance -------------

def interpreted_unit(itp, ctx, e):
    """The unit instance (p, i p, one p, th) on the right and
    (iop p, p, one p, th) on the left, interpreted: the pairing of its four
    slot sections over the base case's context (ctx, p : core T, th), along
    the projection to ctx, into the eliminator's extension."""
    n = len(ctx)
    right = isinstance(e, k.ElimR)
    car = ch.nf(itp.sig, ch.infer_term(itp.sig, ctx, e.f), n).carrier
    ctx_b, ctx_d = k.elim_contexts(ctx, car, e.motive_theta, right)
    p = k.Var(n)
    ends = (p, k.IncCore(p)) if right else (k.IncOp(p), p)
    exts = itp.extensions(ctx_b)
    proj = fc.functor_compose(exts[n].proj, exts[n + 1].proj)
    slots = [itp.term(ctx_b, x) for x in (*ends, k.One(p), k.Var(n + 1))]
    return ip.pairing_functor(proj, slots, itp.context(ctx_d))


def test_unit_functor_is_the_interpreted_unit_instance(monkeypatch):
    seen = []
    real = ip.Interpreter._elim

    def recording(self, ctx, e):
        out = real(self, ctx, e)
        seen.append((self, ctx, e, self.witnesses[-1]))
        return out
    monkeypatch.setattr(ip.Interpreter, "_elim", recording)
    for name in sorted(cats.ALL):
        c = cats.ALL[name]()
        for f_mor in c.morphisms:
            _, _, itp = comp_setup(c, f_mor, c.identity[f_mor.cod])
            for nm in ("comp_R", "comp_L"):
                itp.term((), k.Const(nm, CLOSED_ARGS))
    sig, _, itp = comp_setup(cats.two(), cats.arrow(cats.two(), "a"),
                             cats.two().identity["1"])
    for nm in ("comp_R", "comp_L"):
        tele, _, body, _ = sig.defs[nm]
        itp.term(tuple(tele), body)
    sig, _, itp = left_transport_setup()
    tele, _, body, _ = sig.defs["transport_L"]
    itp.term((), k.Const("transport_L", TRANSPORT_ARGS))
    itp.term(tuple(tele), body)
    for scn in ("comp.scn", "transport.scn"):
        ip.verify_soundness(ip.load_scenario(
            Path(__file__).resolve().parent.parent / "corpus" / "scenarios"
            / scn))
    monkeypatch.undo()
    assert len(seen) == 89
    for itp, ctx, e, w in seen:
        want = interpreted_unit(itp, ctx, e)
        assert w.unit.ob == want.ob
        assert w.unit.mor == want.mor


# -- substitution coherence -------------------------------------------------

def test_substitution_coherence_for_the_generic_eliminator():
    c = cats.two()
    f_mor = cats.arrow(c, "a")
    g_mor = c.identity["1"]
    sig, _, itp = comp_setup(c, f_mor, g_mor)
    tele = tuple(sig.defs["comp_R"][0])
    gen = itp.term(tele, k.Const("comp_R", tuple(k.Var(i)
                                                 for i in range(5))))
    closed = itp.term((), k.Const("comp_R", CLOSED_ARGS))
    subst = ip.pairing_functor(
        ip.collapse_functor(itp.context(())),
        [itp.term((), a) for a in CLOSED_ARGS],
        itp.context(tele))
    assert subst.validate() == []
    pulled = fc.reindex_section(gen, subst)
    assert_same_values(pulled, closed)


def test_substitution_coherence_for_intro():
    c = cats.two()
    sig, _, itp = comp_setup(c, cats.arrow(c, "a"), c.identity["1"])
    tele = tuple(sig.defs["comp_R"][0])
    gen = itp.term(tele, k.One(k.Var(1)))
    closed = itp.term((), k.One(k.Const("s0")))
    subst = ip.pairing_functor(
        ip.collapse_functor(itp.context(())),
        [itp.term((), a) for a in CLOSED_ARGS],
        itp.context(tele))
    assert_same_values(fc.reindex_section(gen, subst), closed)


# -- the transport scenario, in code and from files -------------------------

def transport_source():
    d = surface.derive_transport("right", carrier="B", family="S")
    call = k.Const("transport_R", (k.Const("c"), k.Const("c'"),
                                   k.Const("ff"), k.Const("u0")))
    stay = k.Const("transport_R", (k.Const("c"), k.IncCore(k.Const("c")),
                                   k.One(k.Const("c")), k.Const("u0")))
    decls = (
        ps.AssumeType("B", ()),
        ps.AssumeType("S", (("x", B),)),
        d,
        ps.AssumeTerm("c", (), k.Core(B)),
        ps.AssumeTerm("c'", (), B),
        ps.AssumeTerm("ff", (), k.Hom(B, k.IncOp(k.Const("c")),
                                      k.Const("c'"))),
        ps.AssumeTerm("u0", (), k.BaseT("S", (k.IncCore(k.Const("c")),))),
        ps.Define("moved", (), k.BaseT("S", (k.Const("c'"),)), call),
        ps.Define("stay", (), k.BaseT("S", (k.IncCore(k.Const("c")),)),
                  stay),
        ps.AssertEqual((), k.Const("stay"), k.Const("u0"),
                       k.BaseT("S", (k.IncCore(k.Const("c")),))),
    )
    return ps.SourceFile(decls)


def transport_env(sig):
    env = ip.SemanticEnv()
    itp = ip.Interpreter(sig, env)
    env.bases["B"] = fc.constant_fibers(ip.terminal_ctx(), cats.two())
    ctx_b = itp.context((("x", B),))
    a_m = next(m for m in ctx_b.morphisms if m.name[0].name == "a")
    stc, twoc = cats.star(), cats.two()
    env.bases["S"] = fc.FiberAssignment(
        ctx_b,
        {("0",): stc, ("1",): twoc},
        {ctx_b.identity[("0",)]: fc.identity_functor(stc),
         ctx_b.identity[("1",)]: fc.identity_functor(twoc),
         a_m: fc.Functor(stc, twoc, {"*": "0"},
                         {stc.identity["*"]: twoc.identity["0"]})})
    env.terms["c"] = fc.strict_section(itp.type((), k.Core(B)), {(): "0"})
    env.terms["c'"] = fc.strict_section(itp.type((), B), {(): "1"})
    env.terms["ff"] = fc.strict_section(
        itp.type((), k.Hom(B, k.IncOp(k.Const("c")), k.Const("c'"))),
        {(): cats.arrow(cats.two(), "a")})
    env.terms["u0"] = fc.strict_section(
        itp.type((), k.BaseT("S", (k.IncCore(k.Const("c")),))), {(): "*"})
    return env


def test_transport_moves_the_point_along_the_family():
    source = transport_source()
    sig, recs = ch.check_source(source)
    assert all(r.ok for r in recs)
    env = transport_env(sig)
    itp = ip.Interpreter(sig, env)
    moved = itp.term((), k.Const("moved"))
    assert moved.obj[()] == "0"
    stay = itp.term((), k.Const("stay"))
    assert stay.obj[()] == "*"


def test_transport_scenario_passes_verification():
    source = transport_source()
    sig, checks = ch.check_source(source)
    env = transport_env(sig)
    records, _ = ip.verify_soundness(ip.Scenario(source, sig, checks, env))
    bad = [r for r in records if not r.ok]
    assert bad == []
    checks = {r.check for r in records}
    assert "computation-rule[right]" in checks
    assert "equal-interpretation" in checks
    assert "eliminator-natural[right]" in checks
    assert any(c.startswith("chi-pullback") for c in checks)


def test_verification_report_is_deterministic():
    source = transport_source()
    sig, checks = ch.check_source(source)
    env = transport_env(sig)
    sc = ip.Scenario(source, sig, checks, env)
    first = ch.format_records(ip.verify_soundness(sc)[0])
    second = ch.format_records(ip.verify_soundness(sc)[0])
    assert first == second


FINCAT_TEXT = """\
category star
  objects *
end

category two
  objects 0 1
  arrow a : 0 -> 1
end

functor sa : star -> two
  ob * -> 0
end

fiber sfam over two
  at [0] : star
  at [1] : two
  along [0] (a) : sa
end
"""

SCENARIO_TEXT = """\
# transport along the walking arrow
source trans.dtt
fincat world.fincat
bind type B = two
bind type S = sfam
bind const c = 0
bind const c' = 1
bind const ff = a
bind const u0 = *
"""


def test_scenario_files_round_trip(tmp_path):
    (tmp_path / "trans.dtt").write_text(
        surface.print_source(transport_source()), encoding="utf-8")
    (tmp_path / "world.fincat").write_text(FINCAT_TEXT, encoding="utf-8")
    scn_path = tmp_path / "trans.scn"
    scn_path.write_text(SCENARIO_TEXT, encoding="utf-8")
    scn = ip.load_scenario(scn_path)
    records, _ = ip.verify_soundness(scn)
    assert records and all(r.ok for r in records)


def test_assert_type_judgement_gets_type_and_pullback_records(tmp_path):
    (tmp_path / "trans.dtt").write_text(
        surface.print_source(transport_source())
        + "assert type (x : B, y : S(x)) hom B (iop c) x\n", encoding="utf-8")
    (tmp_path / "world.fincat").write_text(FINCAT_TEXT, encoding="utf-8")
    scn_path = tmp_path / "trans.scn"
    scn_path.write_text(SCENARIO_TEXT, encoding="utf-8")
    records, _ = ip.verify_soundness(ip.load_scenario(scn_path))
    last = records[-1].subject
    mine = [r for r in records if r.subject == last]
    assert last.startswith("assert") and all(r.ok for r in mine)
    checks = [r.check for r in mine]
    assert checks[:2] == ["typecheck", "type-functorial"]
    assert any(c.startswith("chi-pullback") for c in checks)
    assert "section-natural" not in checks


def test_scenario_with_bad_binding_name(tmp_path):
    (tmp_path / "trans.dtt").write_text(
        surface.print_source(transport_source()), encoding="utf-8")
    (tmp_path / "world.fincat").write_text(FINCAT_TEXT, encoding="utf-8")
    scn_path = tmp_path / "trans.scn"
    scn_path.write_text(SCENARIO_TEXT + "bind const zz = 0\n",
                        encoding="utf-8")
    with pytest.raises(ip.InterpError, match="no such assumed constant"):
        ip.load_scenario(scn_path)


# -- negative controls ------------------------------------------------------

def test_broken_environment_is_rejected_by_name():
    source = transport_source()
    sig, checks = ch.check_source(source)
    env = transport_env(sig)
    twoc = cats.two()
    bad = fc.FiberAssignment(
        ip.terminal_ctx(),
        {(): twoc},
        {ip.terminal_ctx().identity[()]:
         fc.Functor(twoc, twoc, {"0": "0", "1": "0"},
                    {m: twoc.identity["0"] for m in twoc.morphisms})})
    env.bases["B"] = bad
    records, witnesses = ip.verify_soundness(
        ip.Scenario(source, sig, checks, env))
    assert witnesses == []
    first = records[0]
    assert first.subject == "base:B"
    assert not first.ok
    assert "identity" in first.detail
    assert not any(r.check == "typecheck" for r in records)


def test_unbound_base_fails_at_its_use_site():
    source = transport_source()
    sig, checks = ch.check_source(source)
    env = transport_env(sig)
    del env.bases["S"]
    records, _ = ip.verify_soundness(ip.Scenario(source, sig, checks, env))
    fails = [r for r in records if not r.ok]
    assert fails
    assert all(r.check == "interpretation" for r in fails)
    assert any("'S'" in r.detail for r in fails)


def test_env_value_outside_fiber_is_reported():
    source = transport_source()
    sig, checks = ch.check_source(source)
    env = transport_env(sig)
    chn = cats.chain3()
    wrong = fc.constant_fibers(ip.terminal_ctx(), fc.core(chn))
    env.terms["c"] = fc.strict_section(wrong, {(): "2"})
    records, _ = ip.verify_soundness(ip.Scenario(source, sig, checks, env))
    rec = next(r for r in records if r.check == "env-type")
    assert not rec.ok
    assert "outside the fiber" in rec.detail
    # every later use of c is refused by name, never a bare KeyError
    later = records[records.index(rec) + 1:]
    assert {r.subject for r in later if not r.ok} == {
        "ff", "u0", "moved", "stay", "assert#1"}
    assert all((r.check, r.detail) == (
        "interpretation", "the declaration of 'c' fails its env-type check")
        for r in later if not r.ok)


def test_env_section_over_another_base_fails_its_env_type_check():
    # load_scenario builds every section over its interpreted telescope;
    # a hand-built one can lie over another category
    source = transport_source()
    sig, checks = ch.check_source(source)
    env = transport_env(sig)
    stc = cats.star()
    env.terms["c"] = fc.strict_section(
        fc.constant_fibers(stc, fc.core(cats.two())), {"*": "0"})
    records, _ = ip.verify_soundness(ip.Scenario(source, sig, checks, env))
    assert ch.Record("const:c", "env-section", True) in records
    rec = next(r for r in records if r.check == "env-type")
    assert (rec.subject, rec.ok, rec.detail) == (
        "c", False, "section base differs from the interpreted telescope")
    later = records[records.index(rec) + 1:]
    assert {r.subject for r in later if not r.ok} == {
        "ff", "u0", "moved", "stay", "assert#1"}
    assert all((r.check, r.detail) == (
        "interpretation", "the declaration of 'c' fails its env-type check")
        for r in later if not r.ok)


def test_env_base_mismatch_makes_the_base_unusable():
    source = transport_source()
    sig, checks = ch.check_source(source)
    env = transport_env(sig)
    env.bases["S"] = fc.constant_fibers(ip.terminal_ctx(), cats.two())
    records, _ = ip.verify_soundness(ip.Scenario(source, sig, checks, env))
    rec = next(r for r in records if r.check == "env-base" and not r.ok)
    assert rec.subject == "S"
    fails = [r for r in records[records.index(rec) + 1:] if not r.ok]
    assert fails
    assert all((r.check, r.detail) == (
        "interpretation", "the declaration of 'S' fails its env-base check")
        for r in fails)


def test_interp_term_rejects_ill_typed_input():
    sig = base_sig()
    ctx = ch.check_telescope(sig, (("x", B),))
    with pytest.raises(ch.CheckError):
        ch.check_term(sig, ctx, k.Var(0), k.Core(B))


# -- comprehension squares --------------------------------------------------

def test_comprehension_squares_are_pullbacks():
    itp = ip.Interpreter(base_sig(), const_env(cats.two()))
    ctx = hom_ctx()
    records = ip._pullback_records(itp, "probe", ctx)
    assert len(records) == 3
    assert all(r.ok for r in records)


def test_judgement_records_pass_with_and_without_a_term():
    sig = base_sig()
    itp = ip.Interpreter(sig, const_env(cats.chain3()))
    ctx = (("x", B),)
    assert itp.context(ctx).validate() == []
    assert itp.type(ctx, k.Core(B)).validate() == []
    records = list(ip._judgement_records(itp, "judgement", ctx, k.Core(B),
                                         ()))
    assert records and all(r.ok for r in records)
    ctx = (("x", k.Core(B)),)
    tm = k.IncCore(k.Var(0))
    ch.check_term(sig, ch.check_telescope(sig, ctx), tm, B)
    assert itp.term(ctx, tm).validate() == []
    records = list(ip._judgement_records(itp, "judgement", ctx, B, (tm,)))
    assert records and all(r.ok for r in records)
