import gc
import random

import pytest

import oracles
import surface
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


def def_equal(sig, ctx, a, b, ty):
    """Both sides check at ty and have the same normal form."""
    ch.check_term(sig, ctx, a, ty)
    ch.check_term(sig, ctx, b, ty)
    n = len(ctx)
    return ch.nf(sig, a, n) == ch.nf(sig, b, n)


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
    assert ch.check_type(sig_b(), ctx, k.Hom(B, k.Var(0), k.Var(1))) is None


def test_core_of_core_is_a_type():
    assert ch.check_type(sig_b(), (), k.Core(k.Core(k.BaseT("B")))) is None
    with pytest.raises(ch.CheckError, match="unknown base type 'Z'"):
        ch.check_type(sig_b(), (), k.Core(k.Core(k.BaseT("Z"))))


def test_unknown_base_type():
    with pytest.raises(ch.CheckError) as err:
        ch.check_type(sig_b(), (), k.BaseT("Z"))
    assert "unknown base type 'Z'" in str(err.value)


def test_check_type_refuses_a_term():
    with pytest.raises(ch.CheckError, match="not a type: Var"):
        ch.check_type(sig_b(), (), k.Var(0))


# -- term inference --------------------------------------------------------

def test_infer_one():
    sig = rich_sig()
    c = k.Const("c")
    ty = ch.infer_term(sig, (), k.One(c))
    assert ty == k.Hom(k.BaseT("T"), k.IncOp(c), k.IncCore(c))


def test_one_rejects_raw_element():
    sig = sig_ts()
    sig.assume_term("a", (), k.BaseT("T"))
    with pytest.raises(ch.CheckError) as err:
        ch.infer_term(sig, (), k.One(k.Const("a")))
    assert "one expects a core element" in str(err.value)


def test_infer_term_refuses_a_type():
    with pytest.raises(ch.CheckError, match="not a term: BaseT"):
        ch.infer_term(sig_b(), (), k.BaseT("B"))


def test_base_type_name_is_not_a_term():
    with pytest.raises(ch.CheckError) as err:
        ch.infer_term(sig_b(), (), k.Const("B", ()))
    assert err.value.args == ("'B' is a type, not a term",)


def test_check_source_refuses_an_unknown_declaration():
    with pytest.raises(k.InternalError, match="unknown declaration"):
        ch.check_source(ps.SourceFile((k.BaseT("B"),)))


def test_infer_var_weakens_entry():
    sig = sig_ts()
    T = k.BaseT("T")
    ctx = (("x", T), ("y", k.BaseT("S", (k.Var(0),))), ("z", T))
    assert ch.infer_term(sig, ctx, k.Var(0)) == T
    assert ch.infer_term(sig, ctx, k.Var(1)) == k.BaseT("S", (k.Var(0),))
    assert ch.infer_term(sig, ctx, k.Var(2)) == T
    with pytest.raises(ch.CheckError, match="out of scope"):
        ch.infer_term(sig, ctx, k.Var(3))


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
    want = k.BaseT("S", (k.Const("a"),))
    assert ch.infer_term(sig, ctx, k.Var(0)) != want
    assert ch.check_term(sig, ctx, k.Var(0), want) is None  # by conversion


# -- derived terms ---------------------------------------------------------

def test_transport_right_checks_at_family_of_target():
    sig = sig_ts()
    d = surface.derive_transport("right", sig)
    assert d.ty == k.BaseT("S", (k.Var(1),))
    assert isinstance(d.body, k.ElimR)
    sig.define(d.name, d.telescope, d.ty, d.body)
    assert ch.infer_term(sig, ch.check_telescope(sig, d.telescope), d.body) \
        == d.ty


def test_transport_left_checks_under_dual_family():
    sig = ch.Signature()
    sig.assume_type("T")
    sig.assume_type("S", (("x", k.Op(k.BaseT("T"))),))
    d = surface.derive_transport("left", sig)
    assert isinstance(d.body, k.ElimL)
    sig.define(d.name, d.telescope, d.ty, d.body)
    # oracle for the variant: the checker itself on the dual telescope
    assert ch.infer_term(sig, ch.check_telescope(sig, d.telescope), d.body) \
        == k.BaseT("S", (k.Var(1),))


def test_transport_left_needs_dual_family():
    with pytest.raises(ch.CheckError) as err:
        surface.derive_transport("left", sig_ts())
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
    gen = surface.derive_transport("right")
    tele, ty, body, _ = sig.defs["transport_R"]
    assert (tele, ty, body) == (gen.telescope, gen.ty, gen.body)


def test_transport_unit_reduces_to_point():
    sig = sig_ts()
    d = surface.derive_transport("right", sig)
    sig.define(d.name, d.telescope, d.ty, d.body)
    T = k.BaseT("T")
    ctx = (("t", k.Core(T)), ("s", k.BaseT("S", (k.IncCore(k.Var(0)),))))
    lhs = k.Const("transport_R",
                  (k.Var(0), k.IncCore(k.Var(0)), k.One(k.Var(0)), k.Var(1)))
    ty = k.BaseT("S", (k.IncCore(k.Var(0)),))
    assert def_equal(sig, ctx, lhs, k.Var(1), ty)
    # confirm with the independent named-variable rewriter
    fresh = oracles.fresh_namer("b")
    named = oracles.to_named(ch._delta(sig, lhs, 2), ["t", "s"], fresh)
    want = oracles.to_named(k.Var(1), ["t", "s"], fresh)
    assert oracles.named_equal(oracles.named_normalize(named), want)


def test_comp_both_sides_check():
    for side, rule in (("right", k.ElimR), ("left", k.ElimL)):
        sig = ch.Signature()
        sig.assume_type("T")
        d = surface.derive_comp(side, sig)
        assert d.ty == k.Hom(k.BaseT("T"), k.Var(0), k.Var(2))
        assert isinstance(d.body, rule)
        sig.define(d.name, d.telescope, d.ty, d.body)
        assert d.name in sig.defs


def _comp_sig():
    sig = ch.Signature()
    sig.assume_type("T")
    for side in ("right", "left"):
        d = surface.derive_comp(side, sig)
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
    assert def_equal(sig, ctx, lhs, k.Var(2), ty)
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
    assert def_equal(sig, ctx, lhs, k.Var(2), ty)


def test_derive_rejects_bad_side():
    with pytest.raises(ValueError):
        surface.derive_transport("up")
    with pytest.raises(ValueError):
        surface.derive_comp("down")


def test_derived_terms_print_and_reparse():
    header = "assume T : Type\nassume S (x : T) : Type\n"
    for gen in (surface.derive_transport("right"),
                surface.derive_comp("right"), surface.derive_comp("left")):
        text = header + surface.print_decl(gen) + "\n"
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
    assert str(err.value).startswith("premise 1: ")
    assert "source is not an iop image" in str(err.value)


def test_elim_premise_1_not_a_hom():
    sig = rich_sig()
    e = k.ElimR(k.BaseT("S", (k.IncCore(k.Var(0)),)),
                k.BaseT("S", (k.Var(1),)), k.Var(1),
                k.Const("sp"), k.Const("sp"))
    with pytest.raises(ch.CheckError) as err:
        ch.infer_term(sig, (), e)
    assert str(err.value).startswith("premise 1: ")
    assert "expected a hom type" in str(err.value)


def test_elim_premise_2_bad_first_motive():
    sig = rich_sig()
    e = k.ElimR(k.BaseT("S", (k.Var(0),)), k.BaseT("S", (k.Var(1),)),
                k.Var(1), k.Const("g"), k.Const("sp"))
    with pytest.raises(ch.CheckError) as err:
        ch.infer_term(sig, (), e)
    assert str(err.value).startswith("premise 2: ")
    assert "first motive" in str(err.value)


def test_elim_premise_3_bad_second_motive():
    sig = rich_sig()
    e = k.ElimR(k.BaseT("S", (k.IncCore(k.Var(0)),)), k.BaseT("S", (k.Var(2),)),
                k.Var(1), k.Const("g"), k.Const("sp"))
    with pytest.raises(ch.CheckError) as err:
        ch.infer_term(sig, (), e)
    assert str(err.value).startswith("premise 3: ")


def test_elim_premise_4_bad_base():
    sig = rich_sig()
    e = k.ElimR(k.BaseT("S", (k.IncCore(k.Var(0)),)), k.BaseT("S", (k.Var(1),)),
                k.Var(0), k.Const("g"), k.Const("sp"))
    with pytest.raises(ch.CheckError) as err:
        ch.infer_term(sig, (), e)
    assert str(err.value).startswith("premise 4: ")
    assert "base case" in str(err.value)


def test_elim_theta_argument_mismatch():
    sig = rich_sig()
    e = k.ElimR(k.BaseT("S", (k.IncCore(k.Var(0)),)), k.BaseT("S", (k.Var(1),)),
                k.Var(1), k.Const("g"), k.Const("c"))
    with pytest.raises(ch.CheckError) as err:
        ch.infer_term(sig, (), e)
    assert str(err.value).startswith("elimR hom argument: ")


# -- definitional equality -------------------------------------------------

def test_def_equal_reflexive_and_typed():
    sig = rich_sig()
    ctx = (("f", k.Hom(k.BaseT("T"), k.IncOp(k.Const("c")),
                       k.IncCore(k.Const("c")))),)
    assert def_equal(sig, ctx, k.Var(0), k.Var(0), ctx[0][1])
    with pytest.raises(ch.CheckError):
        def_equal(sig, ctx, k.Var(0), k.Const("sp"), ctx[0][1])


@pytest.mark.parametrize("depth", [10, 20, 40, 80])
def test_delta_calls_grow_linearly_with_nesting(monkeypatch, depth):
    A = k.BaseT("A")
    sig = ch.Signature()
    sig.assume_type("A")
    sig.assume_term("a", (), A)
    sig.assume_term("f", (("x", A),), A)
    sig.define("g", (("x", A),), A, k.Const("f", (k.Var(0),)))
    tm = want = k.Const("a")
    for _ in range(depth):
        tm, want = k.Const("g", (tm,)), k.Const("f", (want,))
    calls = 0
    delta = ch._delta

    def counted(*args):
        nonlocal calls
        calls += 1
        return delta(*args)
    monkeypatch.setattr(ch, "_delta", counted)
    assert ch.nf(sig, tm) == want
    assert calls <= depth + 2


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
    kinds = [r.check for r in records]
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


def test_check_source_enters_failed_declarations_unchecked():
    # y needs the failed h and F, and the last assert the failed bad, in
    # the signature; without them each would fail as an unknown name
    text = (
        "assume T : Type\n"
        "assume a : T\n"
        "assume h : hom T a a\n"
        "assume F (x : hom T a a) : Type\n"
        "assume y : F(h)\n"
        "define bad : T := one a\n"
        "assert bad == bad : T\n"
    )
    _, records = ch.check_source(ps.parse_dtt(text))
    assert [r.ok for r in records] == [True, True, False, False, True,
                                       False, True]
    assert records[4].detail == "F(h)"
    assert records[6].detail == "both sides reduce to one a"


# -- memo and interning ----------------------------------------------------

def test_redeclared_names_are_not_read_from_the_memo():
    # a parsed file cannot declare a name twice, so three parses are
    # spliced; the second part replaces c, S and g after they were used,
    # the third re-checks S at its old arity.  The records were captured
    # before the checker kept a memo.
    header = "assume T : Type\nassume a : T\nassume b : T\n"
    parts = (
        "assume c : T\nassume S : Type\ndefine g : T := a\n"
        "assert g == a : T\nassert c == c : T\nassert type S\n",
        "assume c : core T\nassume S (x : T) : Type\ndefine g : T := b\n"
        "assert g == b : T\nassert g == a : T\nassert c == c : core T\n"
        "assert i c == i c : T\nassert type S(a)\n",
        "assume S : Type\nassert type S\n",
    )
    n = len(ps.parse_dtt(header).decls)
    decls = ps.parse_dtt(header).decls
    for i, part in enumerate(parts):
        tail = ps.parse_dtt(header + part).decls[n:]
        decls += tail[1:] if i == 2 else tail
    _, records = ch.check_source(ps.SourceFile(decls))
    # one record per declaration, in order; the line is the parsed one
    assert [(r.check, r.subject, r.ok, r.detail, d.line)
            for r, d in zip(records, decls, strict=True)] == [
        ('assume-type', 'T', True, 'Type', 1),
        ('assume-term', 'a', True, 'T', 2),
        ('assume-term', 'b', True, 'T', 3),
        ('assume-term', 'c', True, 'T', 4),
        ('assume-type', 'S', True, 'Type', 5),
        ('define', 'g', True, 'T := a', 6),
        ('assert-equal', 'assert#1', True, 'both sides reduce to a', 7),
        ('assert-equal', 'assert#2', True, 'both sides reduce to c', 8),
        ('assert-type', 'assert#3', True, 'S', 9),
        ('assume-term', 'c', False, "duplicate name 'c'", 4),
        ('assume-type', 'S', False, "duplicate name 'S'", 5),
        ('define', 'g', False, "duplicate name 'g'", 6),
        ('assert-equal', 'assert#4', True, 'both sides reduce to b', 7),
        ('assert-equal', 'assert#5', False, 'left reduces to b, right to a',
         8),
        ('assert-equal', 'assert#6', True, 'both sides reduce to c', 9),
        ('assert-equal', 'assert#7', True, 'both sides reduce to i c', 10),
        ('assert-type', 'assert#8', True, 'S(a)', 11),
        ('assert-type', 'assert#9', False,
         "'S' expects 1 argument(s), got 0", 5),
    ]


def test_a_name_defined_after_its_use_is_not_read_from_the_memo():
    # c's unchecked type names e before e is defined: the first assert
    # normalizes S(e) while e is unknown, the second must expand e
    T, a, e = k.BaseT("T"), k.Const("a"), k.Const("e")
    decls = (ps.AssumeType("T", ()), ps.AssumeType("S", (("x", T),)),
             ps.AssumeTerm("a", (), T),
             ps.AssumeTerm("c", (), k.BaseT("S", (e,))),
             ps.AssertEqual((), k.Const("c"), k.Const("c"),
                            k.BaseT("S", (a,))),
             ps.Define("e", (), T, a),
             ps.AssertEqual((), k.Const("c"), k.Const("c"),
                            k.BaseT("S", (a,))))
    _, records = ch.check_source(ps.SourceFile(decls))
    assert [r.ok for r in records] == [True, True, True, False, False,
                                       True, True]
    assert records[-1].detail == "both sides reduce to c"


def test_an_ill_typed_term_fails_each_time_it_is_asserted():
    text = ("assume T : Type\nassume a : T\n"
            "assert one a == one a : T\nassert one a == one a : T\n")
    _, records = ch.check_source(ps.parse_dtt(text))
    assert [r.ok for r in records] == [True, True, False, False]
    assert records[2].detail == records[3].detail
    assert "core element" in records[3].detail


def test_check_source_calls_share_no_memo_and_keep_no_nodes():
    text = ("assume T : Type\nassume c : core T\nassume d : core T\n"
            "assert one c == one c : hom T (iop c) (i c)\n")
    gc.collect()
    before = len(k._live)

    def check_twice():
        first, second = ps.parse_dtt(text), ps.parse_dtt(text)
        # equal subterms are one object, within a parse and across parses
        assert first.decls[1].ty is first.decls[2].ty
        assert first.decls[3].lhs is first.decls[3].rhs
        assert first.decls[1].ty is second.decls[1].ty
        assert first.decls[3].lhs is second.decls[3].lhs
        sig1, _ = ch.check_source(first)
        sig2, _ = ch.check_source(second)
        assert sig1.memo and sig2.memo and sig1.memo is not sig2.memo
        assert len(k._live) > before
    check_twice()
    # once the parses and signatures are gone, so are their nodes
    gc.collect()
    assert len(k._live) == before


@pytest.mark.parametrize("copies", [1, 2, 4, 8])
def test_repeated_eliminator_is_inferred_a_fixed_number_of_times(
        monkeypatch, copies):
    text = ("assume T : Type\nassume S (x : T) : Type\n"
            "assume c : core T\nassume u : S(i c)\n"
            + "assert elimR[x. S(i x); x y f w. S(y); x w. w](one c, u) "
            "== u : S(i c)\n" * copies)
    calls = 0
    infer_elim = ch._infer_elim

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return infer_elim(*args, **kwargs)
    monkeypatch.setattr(ch, "_infer_elim", counted)
    _, records = ch.check_source(ps.parse_dtt(text))
    assert all(r.ok for r in records) and len(records) == 4 + copies
    assert calls == 1


HEADER_SIG = (
    "assume T : Type\nassume U : Type\nassume B : Type\n"
    "assume S (z : T) : Type\nassume sv (z : T) : S(z)\n"
    "assume b : B\nassume b2 : B\nassume c : core T\nassume cu : core U\n"
    "assume g : hom T (iop c) (i c)\nassume g2 : hom T (iop c) (i c)\n"
    "assume gu : hom U (iop cu) (i cu)\n"
)
MOTIVES = "x. B; x y h w. S(y)"


def test_a_failed_base_case_fails_at_every_occurrence():
    text = HEADER_SIG + "".join(
        f"define d{n} : S(i c) := elimR[{MOTIVES}; x w. b]({f}, {th})\n"
        for n, (f, th) in enumerate([("g", "b"), ("g2", "b"), ("g", "b2")]))
    _, records = ch.check_source(ps.parse_dtt(text))
    fails = records[-3:]
    assert [r.ok for r in fails] == [False] * 3
    assert {r.detail for r in fails} == {
        "premise 4: elimR base case: expected S(i s), inferred B"}


def test_a_header_that_passed_is_checked_again_elsewhere():
    # one header passes at carrier T, then fails premise 3 at carrier U;
    # another passes in (v : T), then fails premise 3 in (v : U)
    at_t = f"elimR[{MOTIVES}; x w. sv(i x)]"
    at_v = "elimR[x. B; x y h w. S(v); x w. sv(v)]"
    text = HEADER_SIG + (
        f"define d1 : S(i c) := {at_t}(g, b)\n"
        f"define d2 : B := {at_t}(gu, b)\n"
        f"define e1 (v : T) : S(v) := {at_v}(g, b)\n"
        f"define e2 (v : U) : B := {at_v}(g, b)\n"
    )
    _, records = ch.check_source(ps.parse_dtt(text))
    d1, d2, e1, e2 = records[-4:]
    assert (d1.ok, e1.ok, d2.ok, e2.ok) == (True, True, False, False)
    assert d2.detail == e2.detail == (
        "premise 3: elimR second motive: expected T, inferred U")


def test_each_header_and_context_gets_its_contexts_built_once(monkeypatch):
    header = f"elimR[{MOTIVES}; x w. sv(i x)]"
    args = [("g", "b"), ("g", "b2"), ("g2", "b"), ("g2", "b2")]
    text = HEADER_SIG + "".join(
        f"define d{n} : S(i c) := {header}({f}, {th})\n"
        for n, (f, th) in enumerate(args)) + "".join(
        f"define e{n} (v : T) : S(i c) := {header}({f}, {th})\n"
        for n, (f, th) in enumerate(args))
    calls = []
    elim_contexts = k.elim_contexts

    def counted(ctx, *args):
        calls.append(ctx)
        return elim_contexts(ctx, *args)
    monkeypatch.setattr(k, "elim_contexts", counted)
    _, records = ch.check_source(ps.parse_dtt(text))
    assert all(r.ok for r in records)
    assert calls == [(), (("v", k.BaseT("T")),)]


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
        assert ch.infer_term(sig, (), tm) == ch.infer_term(sig, (), tm)


def test_inferred_type_unique_up_to_def_equal():
    sig = wtgen.base_signature()
    rng = random.Random(9)
    for tm, ty in wtgen.generate(rng, 60):
        a = ch.infer_term(sig, (), tm)
        b = ch.infer_term(sig, (), k.reduce(tm))
        assert ch.def_equal_types(sig, 0, a, b)
        assert ch.def_equal_types(sig, 0, a, ty)
