import random

import pytest

import oracles
import wtgen
from homtt import checker as ch
from homtt import kernel as k
from homtt import parser as ps
from test_kernel import well_scoped


def sig_b():
    sig = ch.Signature()
    sig.assume_type("B")
    return sig


def sig_ts():
    sig = ch.Signature()
    sig.assume_type("T")
    sig.assume_type("S", (("x", k.BaseT("T")),))
    return sig


def rich_sig():
    """T, S over T, a core point, an endo-hom on its image, a section point."""
    sig = sig_ts()
    T = k.BaseT("T")
    sig.assume_term("c", (), k.Core(T))
    sig.assume_term("g", (), k.Hom(T, k.IncOp(k.Const("c")),
                                   k.IncCore(k.Const("c"))))
    sig.assume_term("sp", (), k.BaseT("S", (k.IncCore(k.Const("c")),)))
    return sig


# -- formation -------------------------------------------------------------

def test_hom_formation_requires_op_source():
    B = k.BaseT("B")
    ctx = (("s", k.Core(B)),)
    with pytest.raises(ch.CheckError) as err:
        ch.check_type(sig_b(), ctx, k.Hom(B, k.Var(0), k.Var(0)))
    assert "expected op B" in str(err.value)


def test_hom_formation_derivable():
    B = k.BaseT("B")
    ctx = (("s", k.Op(B)), ("t", B))
    drv = ch.check_type(sig_b(), ctx, k.Hom(B, k.Var(0), k.Var(1)))
    assert drv.rule == "HomForm"
    assert len(drv.premises) == 3


def test_core_of_core_is_a_type():
    drv = ch.check_type(sig_b(), (), k.Core(k.Core(k.BaseT("B"))))
    assert drv.rule == "CoreForm"
    assert drv.premises[0].rule == "CoreForm"


def test_unknown_base_type():
    with pytest.raises(ch.CheckError) as err:
        ch.check_type(sig_b(), (), k.BaseT("Z"))
    assert "unknown base type 'Z'" in str(err.value)


# -- term inference --------------------------------------------------------

def test_infer_one():
    sig = rich_sig()
    c = k.Const("c")
    ty, drv = ch._infer(sig, (), k.One(c))
    assert ty == k.Hom(k.BaseT("T"), k.IncOp(c), k.IncCore(c))
    assert drv.rule == "HomIntro"


def test_one_rejects_raw_element():
    sig = sig_ts()
    sig.assume_term("a", (), k.BaseT("T"))
    with pytest.raises(ch.CheckError) as err:
        ch.infer_term(sig, (), k.One(k.Const("a")))
    assert "one expects a core element" in str(err.value)


def test_infer_var_weakens_entry():
    sig = sig_ts()
    T = k.BaseT("T")
    ctx = (("x", T), ("y", k.BaseT("S", (k.Var(0),))), ("z", T))
    assert ch.infer_term(sig, ctx, k.Var(0)) == T
    assert ch.infer_term(sig, ctx, k.Var(1)) == k.BaseT("S", (k.Var(0),))
    drv = ch.derive_term(sig, ctx, k.Var(1))
    assert drv.rule == "Weaken" and drv.premises[0].rule == "Var"
    drv0 = ch.derive_term(sig, ctx, k.Var(2))
    assert drv0.rule == "Var"


def test_inclusions_collapse_core_of_op():
    sig = sig_ts()
    sig.assume_term("x", (), k.Core(k.Op(k.BaseT("T"))))
    assert ch.infer_term(sig, (), k.IncCore(k.Const("x"))) == k.BaseT("T")
    assert ch.infer_term(sig, (), k.IncOp(k.Const("x"))) == k.Op(k.BaseT("T"))


def test_conversion_derivation_node():
    sig = sig_ts()
    sig.assume_term("a", (), k.BaseT("T"))
    sig.define("idT", (("x", k.BaseT("T")),), k.BaseT("T"), k.Var(0))
    ctx = (("y", k.BaseT("S", (k.Const("idT", (k.Const("a"),)),))),)
    drv = ch.check_term(sig, ctx, k.Var(0), k.BaseT("S", (k.Const("a"),)))
    assert drv.rule == "ConvEq"


# -- derived terms ---------------------------------------------------------

def test_transport_right_checks_at_family_of_target():
    sig = sig_ts()
    d = ch.derive_transport("right", sig)
    assert d.ty == k.BaseT("S", (k.Var(1),))
    drv = sig.define(d.name, d.telescope, d.ty, d.body)
    assert drv.rule == "ElimR"


def test_transport_left_checks_under_dual_family():
    sig = ch.Signature()
    sig.assume_type("T")
    sig.assume_type("S", (("x", k.Op(k.BaseT("T"))),))
    d = ch.derive_transport("left", sig)
    drv = sig.define(d.name, d.telescope, d.ty, d.body)
    assert drv.rule == "ElimL"
    # oracle for the variant: the checker itself on the dual telescope
    assert ch.infer_term(sig, ch.check_telescope(sig, d.telescope), d.body) \
        == k.BaseT("S", (k.Var(1),))


def test_transport_left_needs_dual_family():
    with pytest.raises(ch.CheckError) as err:
        ch.derive_transport("left", sig_ts())
    assert "no type family 'S' over op T" in str(err.value)


def test_transport_matches_surface_file():
    text = (
        "assume T : Type\n"
        "assume S (x : T) : Type\n"
        "define transport_R (t : core T, t' : T, f : hom T (iop t) t',"
        " s : S(i t)) : S(t') := elimR[x. S(i x); x y h w. S(y); x w. w](f, s)\n"
    )
    sig, records = ch.check_source(ps.parse_dtt(text))
    assert all(r.ok for r in records), records
    gen = ch.derive_transport("right")
    tele, ty, body = sig.defs["transport_R"]
    assert (tele, ty, body) == (gen.telescope, gen.ty, gen.body)


def test_transport_unit_reduces_to_point():
    sig = sig_ts()
    d = ch.derive_transport("right", sig)
    sig.define(d.name, d.telescope, d.ty, d.body)
    T = k.BaseT("T")
    ctx = (("t", k.Core(T)), ("s", k.BaseT("S", (k.IncCore(k.Var(0)),))))
    lhs = k.Const("transport_R",
                  (k.Var(0), k.IncCore(k.Var(0)), k.One(k.Var(0)), k.Var(1)))
    ty = k.BaseT("S", (k.IncCore(k.Var(0)),))
    assert ch.def_equal(sig, ctx, lhs, k.Var(1), ty)
    # confirm with the independent named-variable rewriter
    fresh = oracles.fresh_namer("b")
    named = oracles.to_named(ch._delta(sig, lhs, 2), ["t", "s"], fresh)
    want = oracles.to_named(k.Var(1), ["t", "s"], fresh)
    assert oracles.named_equal(oracles.named_normalize(named), want)


def test_comp_both_sides_check():
    for side, rule in (("right", "ElimR"), ("left", "ElimL")):
        sig = ch.Signature()
        sig.assume_type("T")
        d = ch.derive_comp(side, sig)
        assert d.ty == k.Hom(k.BaseT("T"), k.Var(0), k.Var(2))
        assert sig.define(d.name, d.telescope, d.ty, d.body).rule == rule


def _comp_sig():
    sig = ch.Signature()
    sig.assume_type("T")
    for side in ("right", "left"):
        d = ch.derive_comp(side, sig)
        sig.define(d.name, d.telescope, d.ty, d.body)
    return sig


def test_comp_right_unit_strict():
    sig = _comp_sig()
    T = k.BaseT("T")
    ctx = (("r", k.Op(T)), ("s", k.Core(T)),
           ("f", k.Hom(T, k.Var(0), k.IncCore(k.Var(1)))))
    lhs = k.Const("comp_R", (k.Var(0), k.Var(1), k.IncCore(k.Var(1)),
                             k.Var(2), k.One(k.Var(1))))
    ty = k.Hom(T, k.Var(0), k.IncCore(k.Var(1)))
    assert ch.def_equal(sig, ctx, lhs, k.Var(2), ty)
    fresh = oracles.fresh_namer("b")
    named = oracles.to_named(ch._delta(sig, lhs, 3), ["r", "s", "f"], fresh)
    want = oracles.to_named(k.Var(2), ["r", "s", "f"], fresh)
    assert oracles.named_equal(oracles.named_normalize(named), want)


def test_comp_left_unit_strict():
    sig = _comp_sig()
    T = k.BaseT("T")
    ctx = (("s", k.Core(T)), ("t", T),
           ("g", k.Hom(T, k.IncOp(k.Var(0)), k.Var(1))))
    lhs = k.Const("comp_L", (k.IncOp(k.Var(0)), k.Var(0), k.Var(1),
                             k.One(k.Var(0)), k.Var(2)))
    ty = k.Hom(T, k.IncOp(k.Var(0)), k.Var(1))
    assert ch.def_equal(sig, ctx, lhs, k.Var(2), ty)


def test_derive_rejects_bad_side():
    with pytest.raises(ValueError):
        ch.derive_transport("up")
    with pytest.raises(ValueError):
        ch.derive_comp("down")


def test_derived_terms_print_and_reparse():
    header = "assume T : Type\nassume S (x : T) : Type\n"
    for gen in (ch.derive_transport("right"), ch.derive_comp("right"),
                ch.derive_comp("left")):
        text = header + ps.print_decl(gen) + "\n"
        got = ps.parse_dtt(text).decls[-1]
        assert (got.telescope, got.ty, got.body) == \
            (gen.telescope, gen.ty, gen.body)


# -- eliminator premise reporting ------------------------------------------

def test_elim_premise_1_source_shape():
    sig = sig_ts()
    T = k.BaseT("T")
    ctx = (("r", k.Op(T)), ("t", T), ("g", k.Hom(T, k.Var(0), k.Var(1))))
    e = k.ElimR(k.BaseT("S", (k.IncCore(k.Var(3)),)),
                k.BaseT("S", (k.Var(4),)), k.Var(4), k.Var(2), k.Var(1))
    with pytest.raises(ch.CheckError) as err:
        ch.infer_term(sig, ctx, e)
    assert err.value.premise == 1
    assert "source is not an iop image" in str(err.value)


def test_elim_premise_1_not_a_hom():
    sig = rich_sig()
    e = k.ElimR(k.BaseT("S", (k.IncCore(k.Var(0)),)),
                k.BaseT("S", (k.Var(1),)), k.Var(1),
                k.Const("sp"), k.Const("sp"))
    with pytest.raises(ch.CheckError) as err:
        ch.infer_term(sig, (), e)
    assert err.value.premise == 1
    assert "expected a hom type" in str(err.value)


def test_elim_premise_2_bad_first_motive():
    sig = rich_sig()
    e = k.ElimR(k.BaseT("S", (k.Var(0),)), k.BaseT("S", (k.Var(1),)),
                k.Var(1), k.Const("g"), k.Const("sp"))
    with pytest.raises(ch.CheckError) as err:
        ch.infer_term(sig, (), e)
    assert err.value.premise == 2
    assert "first motive" in str(err.value)


def test_elim_premise_3_bad_second_motive():
    sig = rich_sig()
    e = k.ElimR(k.BaseT("S", (k.IncCore(k.Var(0)),)), k.BaseT("S", (k.Var(2),)),
                k.Var(1), k.Const("g"), k.Const("sp"))
    with pytest.raises(ch.CheckError) as err:
        ch.infer_term(sig, (), e)
    assert err.value.premise == 3


def test_elim_premise_4_bad_base():
    sig = rich_sig()
    e = k.ElimR(k.BaseT("S", (k.IncCore(k.Var(0)),)), k.BaseT("S", (k.Var(1),)),
                k.Var(0), k.Const("g"), k.Const("sp"))
    with pytest.raises(ch.CheckError) as err:
        ch.infer_term(sig, (), e)
    assert err.value.premise == 4
    assert "base case" in str(err.value)


def test_elim_theta_argument_mismatch():
    sig = rich_sig()
    e = k.ElimR(k.BaseT("S", (k.IncCore(k.Var(0)),)), k.BaseT("S", (k.Var(1),)),
                k.Var(1), k.Const("g"), k.Const("c"))
    with pytest.raises(ch.CheckError) as err:
        ch.infer_term(sig, (), e)
    assert err.value.premise is None
    assert "hom argument" in str(err.value)


# -- def_equal -------------------------------------------------------------

def test_def_equal_reflexive_and_typed():
    sig = rich_sig()
    ctx = (("f", k.Hom(k.BaseT("T"), k.IncOp(k.Const("c")),
                       k.IncCore(k.Const("c")))),)
    assert ch.def_equal(sig, ctx, k.Var(0), k.Var(0), ctx[0][1])
    with pytest.raises(ch.CheckError):
        ch.def_equal(sig, ctx, k.Var(0), k.Const("sp"), ctx[0][1])


# -- whole files -----------------------------------------------------------

def test_check_source_records():
    text = (
        "assume T : Type\n"
        "assume c : core T\n"
        "assume a : T\n"
        "assert one c == one c : hom T (iop c) (i c)\n"
        "assert (x : T) x == i c : T\n"
        "assert type hom T (iop c) (i c)\n"
    )
    _, records = ch.check_source(ps.parse_dtt(text))
    kinds = [r.kind for r in records]
    assert kinds == ["assume-type", "assume-term", "assume-term",
                     "assert-equal", "assert-equal", "assert-type"]
    assert [r.subject for r in records[3:]] == ["assert#1", "assert#2",
                                                "assert#3"]
    assert [r.ok for r in records] == [True, True, True, True, False, True]
    assert "left reduces to x" in records[4].detail
    assert "right to i c" in records[4].detail


def test_check_source_continues_after_failure():
    text = (
        "assume T : Type\n"
        "assume a : T\n"
        "define bad : T := one a\n"
        "assert a == a : T\n"
    )
    _, records = ch.check_source(ps.parse_dtt(text))
    assert [r.ok for r in records] == [True, True, False, True]
    assert "core element" in records[2].detail


def test_signature_rejects_duplicates():
    sig = sig_ts()
    with pytest.raises(ch.CheckError) as err:
        sig.assume_type("T")
    assert "duplicate name 'T'" in str(err.value)


# -- randomized properties -------------------------------------------------

def test_subject_reduction_random():
    sig = wtgen.base_signature()
    rng = random.Random(7)
    for tm, ty in wtgen.generate(rng, 120):
        inferred = ch.infer_term(sig, (), tm)
        assert ch.def_equal_types(sig, 0, inferred, ty)
        red = k.reduce(tm)
        ch.check_term(sig, (), red, ty)
        assert well_scoped(red, 0)


def test_checker_deterministic():
    sig = wtgen.base_signature()
    rng = random.Random(8)
    for tm, _ in wtgen.generate(rng, 25):
        assert ch.derive_term(sig, (), tm) == ch.derive_term(sig, (), tm)


def test_inferred_type_unique_up_to_def_equal():
    sig = wtgen.base_signature()
    rng = random.Random(9)
    for tm, ty in wtgen.generate(rng, 60):
        a = ch.infer_term(sig, (), tm)
        b = ch.infer_term(sig, (), k.reduce(tm))
        assert ch.def_equal_types(sig, 0, a, b)
        assert ch.def_equal_types(sig, 0, a, ty)
