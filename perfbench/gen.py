"""Seeded input generators, one per workload.

Every generator is a pure function of (seed, op index): it returns the
files one operation needs, the `homtt` arguments that run it, and the
answer the benchmark knows by construction.  Every identifier in an
input carries a suffix drawn for that input, so no two inputs of a run
share a name.  Nothing here imports `homtt` or the test suite, so
neither a program change nor a test edit can move the inputs.

`write_inputs` writes a workload's whole pool once, during set-up.  Each
operation gets its own directory `NNNNN/` holding its input files and
`expect.json`.
"""

from __future__ import annotations

import json
import random
import re
import string
from pathlib import Path

WORKLOADS = ("check-terms", "interp-scenarios", "wfs-certify", "pv-grids")


def _rng(seed, index):
    # one independent stream per (seed, op); the warm-up input (index -1)
    # is the same for every seed, so set-up time does not vary with it
    return random.Random(f"{seed}/{index}" if index >= 0 else "warmup")


def _strata(seed, index):
    """stratum(k): a position in range(k) such that every block of k
    consecutive operations takes each position once, in a seeded order.
    Drawing an input's shape this way fixes the mix of shapes in any run,
    so the percentiles do not move with which shapes a seed happened to
    draw."""
    def stratum(k):
        if index < 0:
            return 0
        block, pos = divmod(index, k)
        order = list(range(k))
        random.Random(f"{seed}/block{block}/{k}").shuffle(order)
        return order[pos]
    return stratum


def _tag(seed, index):
    """Identifier suffix: fresh per input, the same length for all; the
    closing digit keeps every suffixed name off the keywords."""
    rng = random.Random(f"{seed}/{index}/0")
    return "".join(rng.choice(string.ascii_lowercase) for _ in range(3)) \
        + "0"


# ---------------------------------------------------------------------------
# check-terms: typecheck files of random well-typed terms plus planted
# ill-typed mutants.
#
# Signature: carrier T, family S over T, core points c1..c3, one ground hom
# g_ab : hom T (iop ca) (i cb) per ordered pair, one section point
# s_b : S(i cb) per point.  Terms compose homs (elimR and elimL),
# transport section points along homs and form units.  Each file draws a
# sharing probability: leaves may name an earlier `define` of the right
# type instead of a ground constant, so the checker unfolds shared
# definitions.  Term size is the unfolded node count; a budget per
# declaration keeps it near the target (median ~60 nodes).

POINTS = (1, 2, 3)
_ELIM_NODES = 13    # the eliminator node plus its three motives


def _hom_ty(a, b):
    return f"hom T (iop c{a}) (i c{b})"


def _sec_ty(b):
    return f"S(i c{b})"


def _comp_r(f, g, a):
    """f : hom(a, b), g : hom(b, c) -> hom(a, c), eliminating g."""
    return (f"elimR[x. hom T (iop c{a}) (i x); x y h w. hom T (iop c{a}) y; "
            f"x w. w]({g}, {f})")


def _comp_l(f, g, c):
    """f : hom(a, b), g : hom(b, c) -> hom(a, c), eliminating f."""
    return (f"elimL[x. hom T (iop x) (i c{c}); x y h w. hom T x (i c{c}); "
            f"x w. w]({f}, {g})")


def _transport(f, s):
    """f : hom(a, b), s : S(i ca) -> S(i cb)."""
    return f"elimR[x. S(i x); x y h w. S(y); x w. w]({f}, {s})"


class _TermGen:
    def __init__(self, rng, share):
        self.rng = rng
        self.share = share
        self.homs = {(a, b): [] for a in POINTS for b in POINTS}
        self.secs = {b: [] for b in POINTS}

    def _shared(self, pool, budget):
        fits = [e for e in pool if e[1] <= budget]
        if fits and self.rng.random() < self.share:
            # lean toward early entries so chains of references stay short
            i = min(self.rng.randrange(len(fits)), self.rng.randrange(len(fits)))
            return fits[i]
        return None

    def hom(self, a, b, budget):
        """(text, unfolded size) of a term of type hom(a, b)."""
        got = self._shared(self.homs[(a, b)], budget)
        if got:
            return got
        if budget < _ELIM_NODES + 2:
            if a == b and self.rng.random() < 0.3:
                return f"one c{a}", 2
            return f"g{a}{b}", 1
        rest = budget - _ELIM_NODES
        kind = self.rng.randrange(5)
        if kind == 4:
            # a unit composed on the spot: a redex the reducer contracts
            f, n = self.hom(a, b, rest - 2)
            return _comp_r(f, f"one c{b}", a), n + 2 + _ELIM_NODES
        mid = self.rng.choice(POINTS)
        split = self.rng.randint(1, max(1, rest - 1))
        f, n1 = self.hom(a, mid, split)
        g, n2 = self.hom(mid, b, rest - split)
        text = _comp_r(f, g, a) if kind % 2 == 0 else _comp_l(f, g, b)
        return text, n1 + n2 + _ELIM_NODES

    def sec(self, b, budget):
        got = self._shared(self.secs[b], budget)
        if got:
            return got
        if budget < _ELIM_NODES + 2:
            return f"s{b}", 1
        rest = budget - _ELIM_NODES
        a = self.rng.choice(POINTS)
        split = self.rng.randint(1, max(1, rest - 1))
        f, n1 = self.hom(a, b, split)
        s, n2 = self.sec(a, rest - split)
        return _transport(f, s), n1 + n2 + _ELIM_NODES


def _check_header():
    lines = ["assume T : Type", "assume S (x : T) : Type"]
    expect = [["assume-type", "T", True], ["assume-type", "S", True]]
    for a in POINTS:
        lines.append(f"assume c{a} : core T")
        expect.append(["assume-term", f"c{a}", True])
    for a in POINTS:
        for b in POINTS:
            lines.append(f"assume g{a}{b} : {_hom_ty(a, b)}")
            expect.append(["assume-term", f"g{a}{b}", True])
    for b in POINTS:
        lines.append(f"assume s{b} : {_sec_ty(b)}")
        expect.append(["assume-term", f"s{b}", True])
    return lines, expect


def _other(rng, p):
    return rng.choice([q for q in POINTS if q != p])


_IDENT = re.compile(r"\b(T|S|c[1-3]|g[1-3][1-3]|s[1-3]|d\d+)\b")


def gen_check_terms(rng, tag, stratum):
    # the sharing probability and the declaration count move a file's
    # cost most; both are drawn in seeded blocks (see _strata)
    tg = _TermGen(rng, share=0.6 * (stratum(5) + rng.random()) / 5)
    lines, expect = _check_header()
    asserts = 0
    for n in range(16 + stratum(7)):
        a, b = rng.choice(POINTS), rng.choice(POINTS)
        budget = rng.randint(30, 140)
        name = f"d{n}"
        roll = rng.random()
        if roll < 0.12:
            # planted mutant: must fail on exactly this subject
            kind = rng.randrange(4)
            if kind == 0:      # hom with swapped endpoints
                b = _other(rng, a)
                f, _ = tg.hom(a, b, budget)
                lines.append(f"define {name} : {_hom_ty(b, a)} := {f}")
            elif kind == 1:    # transport of a point over the wrong end
                f, _ = tg.hom(a, b, budget // 2)
                s, _ = tg.sec(_other(rng, a), budget // 2)
                lines.append(f"define {name} : {_sec_ty(b)} := "
                             f"{_transport(f, s)}")
            elif kind == 2:    # composition of homs that do not meet
                mid = rng.choice(POINTS)
                f, _ = tg.hom(a, mid, budget // 2)
                g, _ = tg.hom(_other(rng, mid), b, budget // 2)
                lines.append(f"define {name} : {_hom_ty(a, b)} := "
                             f"{_comp_r(f, g, a)}")
            if kind < 3:
                expect.append(["define", name, False])
                continue
            # equality that does not hold: eliminating the neutral g_bb
            # leaves a stuck eliminator on the right
            asserts += 1
            f, _ = tg.hom(a, b, budget)
            lines.append(f"assert {f} == {_comp_r(f, f'g{b}{b}', a)} : "
                         f"{_hom_ty(a, b)}")
            expect.append(["assert-equal", f"assert#{asserts}", False])
        elif roll < 0.27:
            # both unit laws hold definitionally
            asserts += 1
            law = rng.randrange(3)
            if law == 0:
                f, _ = tg.hom(a, b, budget)
                lhs, rhs, ty = _comp_r(f, f"one c{b}", a), f, _hom_ty(a, b)
            elif law == 1:
                g, _ = tg.hom(a, b, budget)
                lhs, rhs, ty = _comp_l(f"one c{a}", g, b), g, _hom_ty(a, b)
            else:
                s, _ = tg.sec(b, budget)
                lhs, rhs, ty = _transport(f"one c{b}", s), s, _sec_ty(b)
            lines.append(f"assert {lhs} == {rhs} : {ty}")
            expect.append(["assert-equal", f"assert#{asserts}", True])
        elif roll < 0.42:
            s, size = tg.sec(b, budget)
            lines.append(f"define {name} : {_sec_ty(b)} := {s}")
            tg.secs[b].append((name, size))
            expect.append(["define", name, True])
        else:
            f, size = tg.hom(a, b, budget)
            lines.append(f"define {name} : {_hom_ty(a, b)} := {f}")
            tg.homs[(a, b)].append((name, size))
            expect.append(["define", name, True])
    ok = all(r[2] for r in expect)

    def rename(text):
        return _IDENT.sub(lambda m: m.group(0) + tag, text)
    files = {"terms.dtt": rename("\n".join(lines) + "\n")}
    records = [[kind, rename(subject), ok] for kind, subject, ok in expect]
    return files, ["check", "terms.dtt"], {"exit": 0 if ok else 1,
                                           "records": records}


# ---------------------------------------------------------------------------
# interp-scenarios: the transport and composition sources bound to small
# categories.  Shapes are fixed; names are fresh per input.  The menu of
# (base, fiber) pairs keeps every interpreted context under the fincat
# object cap, so every record must pass.

# shape: (objects, arrows (name, dom, cod), composites (g, f, h))
SHAPES = {
    "star": (["o"], [], []),
    "two": (["o0", "o1"], [("a", "o0", "o1")], []),
    "disc2": (["o0", "o1"], [], []),
    "z2": (["o"], [("s", "o", "o")], [("s", "s", "id_o")]),
    "idem": (["o"], [("e", "o", "o")], [("e", "e", "e")]),
    "para": (["o0", "o1"], [("p", "o0", "o1"), ("q", "o0", "o1")], []),
    "span": (["x", "y", "z"], [("l", "z", "x"), ("r", "z", "y")], []),
    "cospan": (["x", "y", "z"], [("l", "x", "z"), ("r", "y", "z")], []),
}

# (source, base shape, constant fiber shape): pairs whose scenarios take
# 25-200 ms on a 2-core x86 VM, so one heavy pair cannot dominate the
# percentiles.  An odd count puts the median inside one pair's
# operations instead of on the step between two pairs.  The 90th
# percentile falls inside the second-costliest pair, span over star
# (~150 ms), which no other pair's times overlap.
INTERP_MENU = (
    ("transport", "star", "disc2"),
    ("transport", "star", "two"), ("transport", "star", "z2"),
    ("transport", "star", "idem"), ("transport", "two", "star"),
    ("transport", "two", "disc2"), ("transport", "disc2", "disc2"),
    ("transport", "disc2", "z2"), ("transport", "span", "star"),
    ("transport", "z2", "star"), ("transport", "idem", "star"),
    ("transport", "para", "star"), ("comp", "disc2", None),
)

TRANSPORT_SRC = """\
assume {B} : Type
assume {S} (x : {B}) : Type
define {tr} (t : core {B}, t' : {B}, f : hom {B} (iop t) t', s : {S}(i t)) : {S}(t') := elimR[x. {S}(i x); x y h w. {S}(y); x w. w](f, s)
assume {c} : core {B}
assume {cp} : {B}
assume {ff} : hom {B} (iop {c}) {cp}
assume {u0} : {S}(i {c})
define {moved} : {S}({cp}) := {tr}({c}, {cp}, {ff}, {u0})
define {stay} : {S}(i {c}) := {tr}({c}, i {c}, one {c}, {u0})
assert {stay} == {u0} : {S}(i {c})
"""

COMP_SRC = """\
assume {B} : Type
assume {r0} : op {B}
assume {s0} : core {B}
assume {t0} : {B}
assume {f0} : hom {B} {r0} (i {s0})
assume {g0} : hom {B} (iop {s0}) {t0}
define {cr} (r : op {B}, s : core {B}, t : {B}, f : hom {B} r (i s), g : hom {B} (iop s) t) : hom {B} r t := elimR[x. hom {B} r (i x); x y h w. hom {B} r y; x w. w](g, f)
define {cl} (r : op {B}, s : core {B}, t : {B}, f : hom {B} r (i s), g : hom {B} (iop s) t) : hom {B} r t := elimL[x. hom {B} (iop x) t; x y h w. hom {B} x t; x w. w](f, g)
define {gf} : hom {B} {r0} {t0} := {cr}({r0}, {s0}, {t0}, {f0}, {g0})
define {fg} : hom {B} {r0} {t0} := {cl}({r0}, {s0}, {t0}, {f0}, {g0})
"""


def _category(name, shape, tag):
    """Text of a category block with fresh names, and its morphisms."""
    objs, arrows, comps = SHAPES[shape]
    ob = {o: f"{o}{tag}" for o in objs}
    ar = {a: f"{a}{tag}" for a, _, _ in arrows}
    ar.update({f"id_{o}": f"id_{ob[o]}" for o in objs})
    lines = [f"category {name}", "  objects " + " ".join(ob.values())]
    lines += [f"  arrow {ar[a]} : {ob[d]} -> {ob[c]}" for a, d, c in arrows]
    lines += [f"  compose {ar[g]} {ar[f]} = {ar[h]}" for g, f, h in comps]
    lines.append("end")
    mors = [(f"id_{ob[o]}", ob[o], ob[o]) for o in objs]
    mors += [(ar[a], ob[d], ob[c]) for a, d, c in arrows]
    return lines, list(ob.values()), mors


def gen_interp_scenarios(rng, tag, stratum):
    src, base, fiber = INTERP_MENU[stratum(len(INTERP_MENU))]
    ident = {k: f"{k}{tag}" for k in
             ("B", "S", "tr", "c", "cp", "ff", "u0", "moved", "stay",
              "r0", "s0", "t0", "f0", "g0", "cr", "cl", "gf", "fg")}
    cat_lines, _, mors = _category(f"base{tag}", base, tag)
    binds = [f"bind type {ident['B']} = base{tag}"]
    if src == "transport":
        fib_lines, fib_objs, _ = _category(f"fib{tag}", fiber, tag + "f")
        cat_lines += fib_lines
        name, dom, cod = rng.choice(mors)
        binds += [f"bind type {ident['S']} = fib{tag}",
                  f"bind const {ident['c']} = {dom}",
                  f"bind const {ident['cp']} = {cod}",
                  f"bind const {ident['ff']} = {name}",
                  f"bind const {ident['u0']} = {rng.choice(fib_objs)}"]
        text = TRANSPORT_SRC.format(**ident)
    else:
        fn, fd, fc_ = rng.choice(mors)
        gn, _, gc = rng.choice([m for m in mors if m[1] == fc_])
        binds += [f"bind const {ident['r0']} = {fd}",
                  f"bind const {ident['s0']} = {fc_}",
                  f"bind const {ident['t0']} = {gc}",
                  f"bind const {ident['f0']} = {fn}",
                  f"bind const {ident['g0']} = {gn}"]
        text = COMP_SRC.format(**ident)
    scn = ["source src.dtt", "fincat cats.fincat", *binds]
    files = {"src.dtt": text, "cats.fincat": "\n".join(cat_lines) + "\n",
             "run.scn": "\n".join(scn) + "\n"}
    return files, ["interp", "run.scn"], {"exit": 0}


# ---------------------------------------------------------------------------
# wfs-certify: chain posets and monotone surjections between them.  A
# monotone surjection of chains is an opfibration (lift b <= b' to the
# least element of the block over b'), so every certificate must pass.

ALPHA_CHECKS = ("alpha-functorial", "inverse-functorial", "left-inverse",
                "right-inverse", "unit-left-leg")
FUNCTOR_CHECKS = ("factor[arrow]", "factor[iso]", "opfib-lift", "lift-oracle")


def _chain(name, n, tag):
    ob = [f"v{i}{tag}" for i in range(n)]
    lines = [f"category {name}", "  objects " + " ".join(ob)]
    lines += [f"  arrow m{i}_{j}{tag} : {ob[i]} -> {ob[j]}"
              for i in range(n) for j in range(i + 1, n)]
    lines += [f"  compose m{j}_{k}{tag} m{i}_{j}{tag} = m{i}_{k}{tag}"
              for i in range(n) for j in range(i + 1, n)
              for k in range(j + 1, n)]
    return lines + ["end"]


# (n, m) of chain_n -> chain_m; up to n = 5 every problem takes 10-160 ms.
# Thirteen pairs, an odd count, as for INTERP_MENU.
COLLAPSES = ((2, 2),) + tuple((n, m) for n in (3, 4, 5)
                              for m in range(1, n + 1))


def gen_wfs_certify(rng, tag, stratum):
    n, m = COLLAPSES[stratum(len(COLLAPSES))]
    cuts = sorted(rng.sample(range(1, n), m - 1))
    block = [sum(1 for c in cuts if c <= i) for i in range(n)]
    ts, tt = f"{tag}s", f"{tag}t"
    src, tgt, fun = f"chain{ts}", f"chain{tt}", f"collapse{ts}"
    lines = _chain(src, n, ts) + _chain(tgt, m, tt)
    lines.append(f"functor {fun} : {src} -> {tgt}")
    lines += [f"  ob v{i}{ts} -> v{block[i]}{tt}" for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            bi, bj = block[i], block[j]
            img = f"id_v{bi}{tt}" if bi == bj else f"m{bi}_{bj}{tt}"
            lines.append(f"  arr m{i}_{j}{ts} -> {img}")
    lines.append("end")
    records = [[c, name, True] for name in (src, tgt) for c in ALPHA_CHECKS]
    records += [[c, fun, True] for c in FUNCTOR_CHECKS]
    files = {"ws.fincat": "\n".join(lines) + "\n"}
    return files, ["wfs", "--oracle", "ws.fincat"], {"exit": 0,
                                                      "records": records}


# ---------------------------------------------------------------------------
# pv-grids: valid lock programs; some deadlock.  The answer is computed by
# answers.pv_regions, a search independent of homtt.dspace.

def _process(rng, sems, length):
    held, evs = [], []
    pairs = length // 2
    while pairs or held:
        free = [s for s in sems if s not in held]
        if pairs and free and (not held or rng.random() < 0.55):
            s = rng.choice(free)
            held.append(s)
            pairs -= 1
            evs.append(("P", s))
        else:
            s = held.pop(rng.randrange(len(held)))
            evs.append(("V", s))
    return evs


def gen_pv_grids(rng, tag, stratum):
    # one in ten has two processes, so those programs (a few ms each)
    # stay in the lower tail instead of splitting the median
    nproc = 2 if stratum(10) == 0 else 3
    sems = [f"{s}{tag}" for s in "mnpq"[:rng.randint(2, 4)]]
    procs = [_process(rng, sems, 2 * rng.randint(4, 8))
             for _ in range(nproc)]
    text = "\n".join(" ".join(f"{op}({s})" for op, s in evs)
                     for evs in procs) + "\n"
    return {"prog.pv": text}, ["pv", "prog.pv"], {"processes": procs}


GENERATORS = {
    "check-terms": gen_check_terms,
    "interp-scenarios": gen_interp_scenarios,
    "wfs-certify": gen_wfs_certify,
    "pv-grids": gen_pv_grids,
}


def write_inputs(workload, seed, count, root):
    """Write `count` operations plus the warm-up.

    Returns the op directories in run order, the warm-up first.  Paths
    inside argv are relative to the checkout root, which is where the
    worker runs.
    """
    root = Path(root)
    gen = GENERATORS[workload]
    out = []
    for index in [-1, *range(count)]:
        files, argv, expect = gen(
            _rng(seed, index),
            _tag(seed if index >= 0 else "warmup", index),
            _strata(seed, index))
        d = root / ("warmup" if index < 0 else f"{index:05d}")
        d.mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            (d / name).write_text(text, encoding="utf-8")
        argv = [a if a not in files else str(d / a) for a in argv]
        expect["argv"] = [*argv[:1], "--format", "records", *argv[1:]]
        (d / "expect.json").write_text(json.dumps(expect), encoding="utf-8")
        out.append(d)
    return out
