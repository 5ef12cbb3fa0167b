import dataclasses
import random
from pathlib import Path

import pytest

import oracles
import surface
import wtgen
from homtt import kernel as k
from homtt import parser as p

CORPUS = Path(__file__).resolve().parents[1] / "corpus"

PRELUDE = """\
assume B : Type
assume a : B
assume w : B
assume x : B
assume p (u : B, v : B) : B
assume S (u : B) : Type
"""


def parse(text, path="<test>"):
    return p.parse_dtt(PRELUDE + text, path)


def last(text):
    return parse(text).decls[-1]


def strip(decl):
    return dataclasses.replace(decl, line=0)


# -- name resolution -------------------------------------------------------

def test_telescope_names_become_levels():
    d = last("assume f (s : B, t : B) : hom B (iop s) (i t)\n")
    assert d.telescope == (("s", k.BaseT("B")), ("t", k.BaseT("B")))
    assert d.ty == k.Hom(k.BaseT("B"), k.IncOp(k.Var(0)), k.IncCore(k.Var(1)))


def test_binders_number_from_ambient_context():
    d = last(
        "define tr (t : core B, t' : B, f : hom B (iop t) t', s : S(i t))"
        " : S(t') :=\n"
        "  elimR[c. S(i c); c b g y. S(b); c y. y](f, s)\n"
    )
    e = d.body
    assert isinstance(e, k.ElimR)
    # four telescope entries, so the one-binder motive sees its variable at 4
    assert e.motive_theta == k.BaseT("S", (k.IncCore(k.Var(4)),))
    assert e.motive_d == k.BaseT("S", (k.Var(5),))
    assert e.base == k.Var(5)
    assert e.f == k.Var(2)
    assert e.theta == k.Var(3)


def test_shadowing_resolves_to_innermost():
    d = last("define sh (u : B) : B := p((elimR[u. B; c b g y. B; c u. u](a, w)), u)\n")
    inner = d.body.args[0]
    assert inner.base == k.Var(2)       # the binder, not the telescope entry
    assert d.body.args[1] == k.Var(0)   # outside the eliminator, telescope u


def test_define_then_use_with_args():
    src = parse(
        "define q (u : B) : B := p(u, a)\n"
        "assume h : S(q(w))\n"
    )
    assert src.decls[-1].ty == k.BaseT("S", (k.Const("q", (k.Const("w"),)),))


def test_assert_forms():
    src = parse(
        "assert type (u : B) S(u)\n"
        "assert (u : B) p(u, u) == p(u, u) : B\n"
        "assert a == a : B\n"
        "assert type core B\n"
    )
    d1, d2, d3, d4 = src.decls[-4:]
    assert isinstance(d1, p.AssertType) and d1.ty == k.BaseT("S", (k.Var(0),))
    assert isinstance(d2, p.AssertEqual) and d2.lhs == d2.rhs
    assert d3.telescope == () and d3.lhs == k.Const("a")
    assert d4.ty == k.Core(k.BaseT("B"))


# -- rejected input --------------------------------------------------------

@pytest.mark.parametrize("text,frag", [
    ("assume b : Typ\n", "unbound name 'Typ'"),
    ("assume S : Type\n", "duplicate name 'S'"),
    ("define d : B := y\n", "unbound name 'y'"),
    ("define d : B := p(i, a)\n", "expected term"),
    ("define d (u : B, u : B) : B := u\n", "duplicate name 'u'"),
    ("define d : a := a\n", "'a' is a term, not a type"),
    ("define d : B := S\n", "'S' is a type, not a term"),
    ("define d : B := p(a)\n", "'p' expects 2 argument(s), got 1"),
    ("define d (u : B) : B := u\ndefine e : B := p(d, a)\n",
     "'d' expects 1 argument(s), got 0"),
    ("assume one : Type\n", "expected declaration name"),
    ("assume t :: B\n", "expected type, found ':'"),
    ("define d : B := elimR[c. B; c b g y. B; c y. y](a)\n", "expected ','"),
    ("define d : B\n", "unexpected end of input"),
])
def test_rejects(text, frag):
    with pytest.raises(p.ParseError) as err:
        parse(text)
    assert frag in str(err.value)


def test_error_carries_position():
    with pytest.raises(p.ParseError) as err:
        p.parse_dtt("assume B : Type\ndefine d : B := nope\n", "f.dtt")
    assert err.value.path == "f.dtt"
    assert err.value.line == 2
    assert err.value.col == 17
    assert str(err.value).startswith("f.dtt:2:17:")


def test_forward_reference_rejected():
    with pytest.raises(p.ParseError) as err:
        p.parse_dtt("define d : B := a\nassume B : Type\nassume a : B\n")
    assert "unbound name 'B'" in str(err.value)


# -- repeated eliminator headers --------------------------------------------

HEADER = "elimR[c. B; c b g y. B; c y. y]"


def test_repeated_header_resolves_names_in_its_own_scope():
    # one header, v at level 0 then at level 1 of a scope of the same length
    src = parse(
        "define d1 (v : B, u : B) : B := elimR[c. B; c b g y. B; c y. v](x, w)\n"
        "define d2 (u : B, v : B) : B := elimR[c. B; c b g y. B; c y. v](x, w)\n"
    )
    d1, d2 = src.decls[-2:]
    assert d1.body.base == k.Var(0)
    assert d2.body.base == k.Var(1)


def test_repeated_header_parses_its_motives_once(monkeypatch):
    calls = []
    motive = p._DttParser._motive

    def counted(self, scope, arity, sub):
        calls.append(arity)
        return motive(self, scope, arity, sub)

    monkeypatch.setattr(p._DttParser, "_motive", counted)
    src = parse("".join(f"define d{n} : B := {HEADER}(a, w)\n"
                        for n in range(5)))
    assert calls == [1, 4, 2]
    first = src.decls[-5].body
    for d in src.decls[-4:]:
        assert d.body.motive_d is first.motive_d
        assert d.body.base is first.base


@pytest.mark.parametrize("second, msg", [
    (f"{HEADER} a", "8:50: expected '(', found 'a'"),
    (f"{HEADER}(a w)", "8:52: expected ',', found 'w'"),
    ("elimR[c. B; c b g y. B; c y. y(a, w)", "8:48: expected ']', found '('"),
    ("elimR[c. B; c b g y. B; c y. y(a, w)\n]",
     "8:48: expected ']', found '('"),
    (f"{HEADER}](a, w)", "8:49: expected '(', found ']'"),
    ("elimR[c. B]; c b g y. B; c y. y](a, w)", "8:28: expected ';', found ']'"),
    (f"{HEADER}(a, w)\n]", "9:1: expected a declaration, found ']'"),
], ids=["after-header", "in-arguments", "missing-bracket",
        "bracket-on-next-line", "stray-after-header", "stray-in-header",
        "stray-alone"])
def test_error_after_a_repeated_header_keeps_its_position(second, msg):
    with pytest.raises(p.ParseError) as err:
        parse(f"define d1 : B := {HEADER}(a, w)\n"
              f"define d2 : B := {second}\n", "f.dtt")
    assert str(err.value) == f"f.dtt:{msg}"


# -- printing round trips --------------------------------------------------

def test_print_parse_round_trip_fixed():
    text = PRELUDE + (
        "define tr (t : core B, t' : B, f : hom B (iop t) t', s : S(i t))"
        " : S(t') := elimR[c. S(i c); c b g y. S(b); c y. y](f, s)\n"
        "assert (u : core B) one u == one u : hom B (iop u) (i u)\n"
        "assert type (u : B) hom (op (core B)) (iop a) (i w)\n"
    )
    src = p.parse_dtt(text)
    again = p.parse_dtt(surface.print_source(src))
    assert [strip(d) for d in again.decls] == [strip(d) for d in src.decls]


def _rand_term(rng, n, depth):
    if depth == 0 or rng.random() < 0.3:
        pool = [k.Const("a"), k.Const("w"), k.Const("x")]
        if n:
            pool += [k.Var(rng.randrange(n))] * 2
        return rng.choice(pool)
    match rng.randrange(6):
        case 0:
            return k.IncCore(_rand_term(rng, n, depth - 1))
        case 1:
            return k.IncOp(_rand_term(rng, n, depth - 1))
        case 2:
            return k.One(_rand_term(rng, n, depth - 1))
        case 3:
            return k.Const("p", (_rand_term(rng, n, depth - 1),
                                 _rand_term(rng, n, depth - 1)))
        case 4:
            cls = rng.choice([k.ElimR, k.ElimL])
            return cls(_rand_type(rng, n + 1, depth - 1),
                       _rand_type(rng, n + 4, depth - 1),
                       _rand_term(rng, n + 2, depth - 1),
                       _rand_term(rng, n, depth - 1),
                       _rand_term(rng, n, depth - 1))
        case 5:
            return k.Var(rng.randrange(n)) if n else k.Const("a")


def _rand_type(rng, n, depth):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice([k.BaseT("B"), k.BaseT("S", (_rand_term(rng, n, 0),))])
    match rng.randrange(4):
        case 0:
            return k.Core(_rand_type(rng, n, depth - 1))
        case 1:
            return k.Op(_rand_type(rng, n, depth - 1))
        case 2:
            return k.Hom(_rand_type(rng, n, depth - 1),
                         _rand_term(rng, n, depth - 1),
                         _rand_term(rng, n, depth - 1))
        case 3:
            return k.BaseT("S", (_rand_term(rng, n, depth - 1),))


def test_print_parse_round_trip_random():
    rng = random.Random(20260823)
    for _ in range(150):
        n = rng.randrange(4)
        tele = tuple((f"v{i}", k.BaseT("B")) for i in range(n))
        tm = _rand_term(rng, n, 3)
        ty = _rand_type(rng, n, 2)
        decl = p.AssertEqual(tele, tm, tm, ty)
        text = PRELUDE + surface.print_decl(decl) + "\n"
        got = p.parse_dtt(text).decls[-1]
        assert strip(got) == decl, surface.print_decl(decl)


def test_printer_binders_avoid_constant_names():
    # base body mentions the constant x; the printed binder must not capture it
    e = k.ElimR(k.BaseT("B"), k.BaseT("B"), k.Const("p", (k.Const("x"), k.Var(1))),
                k.Const("a"), k.Const("w"))
    text = PRELUDE + f"define d : B := {p.print_term(e)}\n"
    assert p.parse_dtt(text).decls[-1].body == e


# -- the printer against the recursive referee ------------------------------

def _nested(n, depth):
    """An eliminator, in a context of length n, with another in each of its
    three motive slots and its th argument, down to `depth`; its parts
    mention the constants x, x0, w and one named like a keyword, and the
    innermost variable in scope."""
    if depth == 0:
        return k.Const("p", (k.Const("x0"),
                             k.Var(n - 1) if n else k.Const("one")))
    cls = k.ElimR if depth % 2 else k.ElimL
    return cls(k.Hom(k.BaseT("B"), k.IncOp(_nested(n + 1, depth - 1)),
                     k.Var(n)),
               k.BaseT("S", (_nested(n + 4, depth - 1),)),
               k.Const("p", (k.Const("x"), _nested(n + 2, depth - 1))),
               k.Const("w"), _nested(n, depth - 1))


def _printed():
    """(node, names of its context): every wtgen term and type, every part
    of every corpus declaration and its normal form, and nested
    eliminators whose binder names collide with constants and with the
    names in scope."""
    for tm, ty in wtgen.generate(random.Random(5), 300):
        yield tm, []
        yield ty, []
    for path in sorted(CORPUS.rglob("*.dtt")):
        for decl in p.parse_dtt(path.read_text(encoding="utf-8"),
                                str(path)).decls:
            env = []
            for name, ty in decl.telescope:
                yield ty, list(env)
                env.append(name)
            for field in ("ty", "body", "lhs", "rhs"):
                x = getattr(decl, field, None)
                if x is not None:
                    yield x, env
                    yield k.reduce(x, len(env)), env
    for env in ([], ["x", "x0", "w"], ["y", "h0", "i", "one"]):
        yield _nested(len(env), 3), env
        yield k.Hom(k.BaseT("B"), _nested(len(env), 2),
                    k.IncCore(_nested(len(env), 2))), env


def test_printer_matches_the_recursive_referee():
    seen = 0
    for node, env in _printed():
        if isinstance(node, k.TermExpr):
            assert p.print_term(node, env) == oracles.print_term(node, env)
        else:
            assert p.print_type(node, env) == oracles.print_type(node, env)
        seen += 1
    assert seen > 900


# -- .fincat ---------------------------------------------------------------

TWO = """\
# the walking arrow
category two
  objects a b
  arrow f : a -> b
end

functor swap : two -> two
  ob a -> b
  ob b -> a
  arr f -> f
end
"""


def test_fincat_category_block():
    cf = p.parse_fincat(TWO, "two.fincat")
    cat = cf.categories["two"]
    assert cat.objects == ["a", "b"]
    assert cat.arrows == [("f", "a", "b")]
    assert cat.composites == []
    fun = cf.functors["swap"]
    assert (fun.source, fun.target) == ("two", "two")
    assert ("a", "b") in fun.ob and ("f", "f") in fun.arr


def test_fincat_compose_and_identity_names():
    cf = p.parse_fincat(
        "category c3\n"
        "  objects x y z\n"
        "  arrow f : x -> y\n"
        "  arrow g : y -> z\n"
        "  arrow h : x -> z\n"
        "  compose g f = h\n"
        "  compose g id_y = g\n"
        "end\n"
    )
    assert cf.categories["c3"].composites == [("g", "f", "h"), ("g", "id_y", "g")]


def test_fincat_fiber_section_square():
    cf = p.parse_fincat(
        "category one\n"
        "  objects *\n"
        "end\n"
        "fiber S over two\n"
        "  at a : Fa\n"
        "  at [a b] : Fab\n"
        "  along f : Tf\n"
        "  along [a b] (f g) : Tfg\n"
        "end\n"
        "fiber K\n"
        "  constant two\n"
        "end\n"
        "section s in S\n"
        "  at a : pa\n"
        "  at [a b] : pab\n"
        "end\n"
    )
    fib = cf.fibers["S"]
    assert fib.fibers == [("a", "Fa"), (("a", "b"), "Fab")]
    assert fib.transitions == [("f", "Tf"), ((("a", "b"), ("f", "g")), "Tfg")]
    assert cf.fibers["K"].constant == "two"
    assert cf.sections["s"].components == [("a", "pa"), (("a", "b"), "pab")]


@pytest.mark.parametrize("printer, node", [
    (p.print_term, k.BaseT("B")),
    (p.print_type, k.Var(0)),
], ids=["type-as-term", "term-as-type"])
def test_printers_refuse_the_other_sort(printer, node):
    with pytest.raises(k.InternalError, match=printer.__name__):
        printer(node)


def test_readme_fincat_example_parses():
    # the README's first .fincat example uses only block headers the
    # parser accepts
    readme = (Path(__file__).parents[1] / "README.md").read_text(
        encoding="utf-8")
    section = readme.split("### Category files", 1)[1]
    example = section.split("```\n", 2)[1]
    cf = p.parse_fincat(example, "README.md")
    assert cf.categories and cf.functors and cf.fibers


@pytest.mark.parametrize("text,frag", [
    ("category c\n  arrow f : a -> b\nend\n", "unknown object 'a'"),
    ("category c\n  objects a\nend\ncategory c\n  objects b\nend\n",
     "duplicate name 'c'"),
    ("category c\n  objects a a\nend\n", "duplicate object"),
    ("category c\n  objects a\n  compose f f = f\nend\n", "unknown arrow 'f'"),
    ("category c\n  objects a\n", "missing 'end'"),
    ("blob b\nend\n", "expected a block header"),
])
def test_fincat_rejects(text, frag):
    with pytest.raises(p.ParseError) as err:
        p.parse_fincat(text)
    assert frag in str(err.value)


@pytest.mark.parametrize("line,msg", [
    ("  arrow f : a -> b @", "3:20: stray character '@'"),
    ("  arrow f : a - b", "3:15: stray character '-'"),
    ("  compose f id_a = f ! # !", "3:22: stray character '!'"),
    ("  arrow f : a -> b  # @ - !", None),
])
def test_fincat_stray_characters(line, msg):
    text = f"category c\n  objects a b\n{line}\nend\n"
    if msg is None:
        assert p.parse_fincat(text).categories["c"].arrows == [("f", "a", "b")]
        return
    with pytest.raises(p.ParseError) as err:
        p.parse_fincat(text, "c.fincat")
    assert str(err.value) == f"c.fincat:{msg}"


def test_fincat_duplicates_across_files():
    cf = p.parse_fincat("category c\n  objects x\nend\n", "a.fincat")
    with pytest.raises(p.ParseError) as err:
        p.parse_fincat("category d\n  objects y\nend\n"
                       "fiber c\n  constant d\nend\n", "b.fincat", cf)
    assert str(err.value) == "b.fincat:4:1: duplicate name 'c'"
