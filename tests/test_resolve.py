"""Name resolution of scenario bindings: every address and value form a
scenario can use, and the exact message of every resolution error."""

import pytest

from homtt import checker as ch
from homtt import fincat as fc
from homtt import interp as ip
from homtt import parser as ps

SOURCE = """\
assume B : Type
assume S (x : B) : Type
assume c : core B
assume c' : B
assume ff : hom B (iop c) c'
assume u (x : B) : S(x)
"""

WORLD = """\
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
"""

SFAM = "  at [0] : star\n  at [1] : two\n  along [0] (a) : sa\n"


def env(blocks="", types=None, consts=None):
    sig, checks = ch.check_source(ps.parse_dtt(SOURCE))
    assert all(r.ok for r in checks)
    ws = fc.build_catfile(ps.parse_fincat(WORLD + blocks))
    binds = {name: ("type", target)
             for name, target in {"B": "two", **(types or {})}.items()}
    binds.update((name, ("const", target))
                 for name, target in (consts or {}).items())
    return ip.build_env(sig, checks, ws, binds)


def fiber(body, name="fam"):
    return f"fiber {name} over two\n{body}end\n"


def ctx_mor(m):
    """The morphism over the one-slot context (x : B) whose slot is m."""
    return fc.Mor((m,), (m.dom,), (m.cod,))


ID0, ID1 = fc.identity_mor("0"), fc.identity_mor("1")
A = fc.Mor("a", "0", "1")
STAR = fc.identity_mor("*")


# -- successful resolutions -------------------------------------------------

@pytest.mark.parametrize("body", [
    SFAM,
    "  at 0 : star\n  at 1 : two\n  along a : sa\n",
], ids=["bracketed", "bare"])
def test_object_and_morphism_addresses(body):
    fa = env(fiber(body), {"S": "fam"}).bases["S"]
    sa = fc.build_catfile(ps.parse_fincat(WORLD)).functors["sa"]
    assert fa.transitions[ctx_mor(A)] == sa
    star, two = fa.fibers[("0",)], fa.fibers[("1",)]
    assert star.objects == ("*",) and two.objects == ("0", "1")
    assert fa.transitions[ctx_mor(ID0)] == fc.identity_functor(star)
    assert fa.transitions[ctx_mor(ID1)] == fc.identity_functor(two)
    assert fa.validate() == []


def test_category_binding_is_constant_fibers():
    e = env(types={"S": "star"})
    fa = e.bases["S"]
    assert set(fa.fibers) == {("0",), ("1",)}
    assert all(c.objects == ("*",) for c in fa.fibers.values())
    assert fa.validate() == []


def test_constant_fiber_block():
    e = env("fiber cfam\n  constant two\nend\n", {"S": "cfam"})
    fa = e.bases["S"]
    assert set(fa.fibers) == {("0",), ("1",)}
    assert all(c.objects == ("0", "1") for c in fa.fibers.values())
    assert all(t.validate() == [] and t.source == t.target
               for t in fa.transitions.values())
    assert fa.validate() == []


def test_constants_bound_to_objects_and_morphisms():
    e = env(consts={"c": "0", "c'": "1", "ff": "a"})
    assert e.terms["c"].obj == {(): "0"}
    assert e.terms["c'"].obj == {(): "1"}
    assert e.terms["ff"].obj == {(): A}
    assert all(s.validate() == [] for s in e.terms.values())


def test_constant_bound_to_an_identity_in_a_hom_fiber():
    e = env(consts={"c": "0", "c'": "0", "ff": "id_0"})
    assert e.terms["ff"].obj == {(): ID0}
    assert e.terms["ff"].validate() == []


def test_section_block_with_object_and_morphism_components():
    blocks = fiber(SFAM, "sfam") + (
        "section sec in sfam\n"
        "  at [0] : *\n"
        "  at [1] : 1\n"
        "  at [0] (a) : a\n"
        "end\n")
    e = env(blocks, {"S": "sfam"}, {"u": "sec"})
    sec = e.terms["u"]
    assert sec.obj == {("0",): "*", ("1",): "1"}
    assert sec.mor == {ctx_mor(A): A, ctx_mor(ID0): STAR, ctx_mor(ID1): ID1}
    assert sec.validate() == []


def test_section_block_defaults_morphism_parts_to_identities():
    blocks = fiber(SFAM, "sfam") + (
        "section sec in sfam\n  at [0] : *\n  at [1] : 0\nend\n")
    e = env(blocks, {"S": "sfam"}, {"u": "sec"})
    sec = e.terms["u"]
    assert sec.obj == {("0",): "*", ("1",): "0"}
    assert sec.mor == {ctx_mor(A): ID0, ctx_mor(ID0): STAR,
                       ctx_mor(ID1): ID0}
    assert sec.validate() == []


def test_constant_bound_to_a_value_in_every_fiber():
    e = env(types={"S": "two"}, consts={"u": "1"})
    assert e.terms["u"].obj == {("0",): "1", ("1",): "1"}
    assert e.terms["u"].validate() == []


# -- resolution errors, word for word ----------------------------------------

SECTION_FAM = fiber(SFAM, "sfam")


@pytest.mark.parametrize("blocks, types, consts, message", [
    (fiber("  at [0] (a) : star\n  at [1] : two\n"), {"S": "fam"}, {},
     "fiber fam: morphism address used where an object is needed"),
    (fiber("  at [0] : star\n  at [1] : two\n  along [0] : sa\n"),
     {"S": "fam"}, {}, "fiber fam: bad morphism address ('0',)"),
    (fiber("  at [2] : star\n"), {"S": "fam"}, {},
     "fiber fam: address ('2',) matches 0 objects"),
    (fiber("  at [0 1] : star\n"), {"S": "fam"}, {},
     "fiber fam: address ('0', '1') matches 0 objects"),
    (fiber("  at id_0 : star\n"), {"S": "fam"}, {},
     "fiber fam: address ('id_0',) matches 0 objects"),
    (fiber("  at [0] : star\n  at [1] : two\n  along [0] (b) : sa\n"),
     {"S": "fam"}, {}, "fiber fam: address (('0',), ('b',)) matches "
     "0 morphisms"),
    (fiber("  at [0] : star\n  at [1] : two\n  along [1] (a) : sa\n"),
     {"S": "fam"}, {}, "fiber fam: address (('1',), ('a',)) matches "
     "0 morphisms"),
    (fiber("  at [0] : star\n  at [1] : two\n  along b : sa\n"),
     {"S": "fam"}, {}, "fiber fam: address 'b' matches 0 morphisms"),
    ("", {}, {"c": "7"}, "bind const 'c': value '7' matches 0 fiber objects"),
    ("", {}, {"c": "a"}, "bind const 'c': value 'a' matches 0 fiber objects"),
    ("", {}, {"c": "0", "c'": "1", "ff": "id_0"},
     "bind const 'ff': value 'id_0' matches 0 fiber objects"),
    (SECTION_FAM + "section sec in sfam\n  at [0] : 0\n  at [1] : 1\nend\n",
     {"S": "sfam"}, {"u": "sec"},
     "section sec: value '0' matches 0 fiber objects"),
    (SECTION_FAM + "section sec in sfam\n  at [0] : *\n  at [1] : 1\n"
     "  at [0] (a) : b\nend\n", {"S": "sfam"}, {"u": "sec"},
     "section sec: morphism value 'b' matches 0 fiber morphisms"),
    (SECTION_FAM + "section sec in sfam\n  at [0] : *\n  at [1] : 1\n"
     "  at [0] (a) : 1\nend\n", {"S": "sfam"}, {"u": "sec"},
     "section sec: morphism value '1' matches 0 fiber morphisms"),
    (SECTION_FAM + "section sec in sfam\n  at [0] : *\n  at [3] : 1\nend\n",
     {"S": "sfam"}, {"u": "sec"},
     "section sec: address ('3',) matches 0 objects"),
    (SECTION_FAM + "section sec in sfam\n  at [0] : *\n"
     "  at [0] (c) : a\nend\n", {"S": "sfam"}, {"u": "sec"},
     "section sec: address (('0',), ('c',)) matches 0 morphisms"),
    (SECTION_FAM + "section sec in sfam\n  at [0] : *\nend\n",
     {"S": "sfam"}, {"u": "sec"}, "section sec: no value at (1)"),
    ("", {"S": "nope"}, {}, "no category or fiber block named 'nope'"),
    ("fiber fam\n  constant nope\nend\n", {"S": "fam"}, {},
     "fiber fam: unknown category 'nope'"),
    (fiber("  at [0] : nope\n"), {"S": "fam"}, {},
     "fiber fam: unknown category 'nope'"),
    (fiber("  at [0] : star\n  at [1] : two\n  along [0] (a) : nope\n"),
     {"S": "fam"}, {}, "fiber fam: unknown functor 'nope'"),
    (fiber("  at [0] : star\n"), {"S": "fam"}, {},
     "fiber fam: no fiber at (1)"),
    (fiber("  at [0] : star\n  at [1] : two\n"), {"S": "fam"}, {},
     "fiber fam: no transition along (<a>)"),
    (fiber("  at [0] : star\n  at [1] : two\n  at 1 : star\n"),
     {"S": "fam"}, {}, "fiber fam: repeated fiber at (1)"),
    (fiber(SFAM + "  along a : sa\n"), {"S": "fam"}, {},
     "fiber fam: repeated transition along (<a>)"),
    (SECTION_FAM + "section sec in sfam\n  at [0] : *\n  at [1] : 1\n"
     "  at 1 : 0\nend\n", {"S": "sfam"}, {"u": "sec"},
     "section sec: repeated value at (1)"),
    (SECTION_FAM + "section sec in sfam\n  at [0] : *\n  at [1] : 1\n"
     "  at [0] (a) : a\n  at [0] (a) : id_1\nend\n", {"S": "sfam"},
     {"u": "sec"}, "section sec: repeated morphism part along (<a>)"),
], ids=[
    "object-address-is-a-morphism", "bad-morphism-address",
    "object-address-unmatched", "object-address-too-long",
    "object-address-identity", "morphism-address-unmatched",
    "morphism-address-wrong-domain", "bare-morphism-unmatched",
    "value-unmatched", "value-is-an-arrow", "value-not-in-hom-set",
    "section-value-unmatched", "section-morphism-value-unmatched",
    "section-morphism-value-is-an-object", "section-object-address",
    "section-morphism-address", "section-no-value",
    "no-such-block", "constant-unknown-category", "at-unknown-category",
    "unknown-functor", "no-fiber", "no-transition", "repeated-fiber",
    "repeated-transition", "repeated-value", "repeated-morphism-part",
])
def test_resolution_errors(blocks, types, consts, message):
    with pytest.raises(ip.InterpError) as err:
        env(blocks, types, consts)
    assert str(err.value) == message
