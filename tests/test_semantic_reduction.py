"""Semantic subject reduction: a term and its normal form mean the same.

The thousand random closed terms of acceptance criterion 9 are
interpreted in Cat under a few bindings of the wtgen signature, and each
one is compared with its reduct.  The bindings differ in how the points
c1 c2 c3 sit in the carrier: all on the one object of the group z2, all
on the one object of the non-invertible monoid idem, and spread over
the two objects of a codiscrete category.  The family S has a
two-object discrete fiber, moved by a swap (z2, codiscrete) or collapsed
onto one object (idem), so transports along different homs land on
different points.
"""

import random

import pytest

import wtgen
from homtt import checker as ch
from homtt import fincat as fc
from homtt import interp as ip
from homtt import kernel as k
from homtt import parser as ps

SEED, COUNT = 1009, 1000

D2 = """\
category d2
  objects p q
end

functor sw : d2 -> d2
  ob p -> q
  ob q -> p
end

functor cp : d2 -> d2
  ob p -> p
  ob q -> p
end
"""

Z2 = D2 + """\
category z2
  objects e
  arrow s : e -> e
  compose s s = id_e
end

fiber fam over z2
  at [e] : d2
  along [e] (s) : sw
end
"""

IDEM = D2 + """\
category idem
  objects x
  arrow e : x -> x
  compose e e = e
end

fiber fam over idem
  at [x] : d2
  along [x] (e) : cp
end
"""

CODISCRETE = D2 + """\
category cod
  objects u v
  arrow f : u -> v
  arrow g : v -> u
  compose g f = id_u
  compose f g = id_v
end

fiber fam over cod
  at [u] : d2
  at [v] : d2
  along [u] (f) : sw
  along [v] (g) : sw
end
"""

POINTS = wtgen.POINTS
HOM_TYPES = [wtgen.hom_type(a, b) for a in POINTS for b in POINTS]
SECTION_TYPES = [wtgen.section_type(b) for b in POINTS]


def binding(text, carrier, at, hom, point):
    """The workspace, the type bindings and the constant bindings: c_a at
    at(a), g_ab named hom(a, b), s_b named point(b)."""
    consts = {f"c{a}": at(a) for a in POINTS}
    consts |= {f"g{a}{b}": hom(a, b) for a in POINTS for b in POINTS}
    consts |= {f"s{b}": point(b) for b in POINTS}
    return text, {"T": carrier, "S": "fam"}, consts


SPOT = {1: "u", 2: "v", 3: "u"}  # where c_a sits in the codiscrete base


def codiscrete_hom(a, b):
    """The one morphism from SPOT[a] to SPOT[b]."""
    x, y = SPOT[a], SPOT[b]
    return f"id_{x}" if x == y else ("f" if x == "u" else "g")


# Each binding lets every varied type tell terms apart.  In idem, e
# absorbs every composite it enters, so a hom means the identity only
# along a path of identities: g_ab is the identity between different
# points and e on the diagonal.  The generated terms of a section type
# are all transports, so the points disagree with some transport: in
# idem only a transport along an identity keeps q, and in the
# codiscrete category the swap moves p at u to q at v.
BINDINGS = {
    "z2": (binding(Z2, "z2", lambda a: "e",
                   lambda a, b: "s" if a <= b else "id_e",
                   lambda b: "p" if b % 2 else "q"),
           HOM_TYPES + SECTION_TYPES),
    "idem": (binding(IDEM, "idem", lambda a: "x",
                     lambda a, b: "e" if a == b else "id_x",
                     lambda b: "q"),
             HOM_TYPES + SECTION_TYPES),
    # every hom set of a codiscrete category is a singleton, so only the
    # section types can tell terms apart
    "codiscrete": (binding(CODISCRETE, "cod", SPOT.get, codiscrete_hom,
                           lambda b: "p"),
                   SECTION_TYPES),
}


def meaning(sec):
    return frozenset(sec.obj.items()), frozenset(sec.mor.items())


@pytest.mark.parametrize("name", list(BINDINGS))
def test_terms_and_their_reducts_have_equal_sections(name):
    (text, types, consts), varied = BINDINGS[name]
    sig = wtgen.base_signature()
    ws = fc.build_catfile(ps.parse_fincat(text))
    # the signature is built by hand: one passing record per declaration,
    # in its declaration order (the base types come first)
    checks = [ch.Record(decl, "assume", True)
              for decl in (*sig.bases, *sig.consts)]
    binds = {**{n: ("type", target) for n, target in types.items()},
             **{n: ("const", target) for n, target in consts.items()}}
    env = ip.build_env(sig, checks, ws, binds)
    itp = ip.Interpreter(sig, env)
    mismatches, meanings = [], {}
    for i, (tm, ty) in enumerate(wtgen.generate(random.Random(SEED), COUNT)):
        sec = itp.term((), tm)
        if sec != itp.term((), k.reduce(tm)):
            mismatches.append(i)
        meanings.setdefault(ty, set()).add(meaning(sec))
    assert mismatches == [], mismatches[:5]
    assert set(meanings) == set(HOM_TYPES + SECTION_TYPES)
    assert {ty for ty in varied if len(meanings[ty]) < 2} == set()
    assert itp.witnesses
