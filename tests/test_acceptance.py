"""Acceptance suite: nine end-to-end checks over the shipped corpus.

Each check prints a single verdict line and holds to a wall-clock
budget.  Together they pin down rule coverage of the checker, the strict
unit laws, the finite hom-set semantics, the computation rule and the
comprehension pullbacks at the semantic level, the factorization and
lifting certificates, the swiss-flag geometry, and the behaviour of the
reducer on a thousand random well-typed terms.  Run with -s to see the
verdict lines on a passing run.
"""

import random
import time
from contextlib import contextmanager
from pathlib import Path

import homtt.checker as ch
import homtt.dspace as ds
import homtt.fincat as fc
import homtt.interp as ip
import homtt.kernel as k
import homtt.parser as ps
import homtt.wfs as wfs
import oracles
import wtgen
from test_checker import def_equal

REPO = Path(__file__).resolve().parent.parent
CORPUS = REPO / "corpus"
RULES = CORPUS / "rules"
SCENARIOS = CORPUS / "scenarios"


@contextmanager
def criterion(number, label, budget):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({label}): FAIL "
              f"({time.perf_counter() - start:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    ok = elapsed < budget
    print(f"criterion {number} ({label}): {'pass' if ok else 'FAIL'} "
          f"({elapsed:.2f}s, budget {budget:g}s)")
    assert ok, f"{label} took {elapsed:.2f}s, over the {budget:g}s budget"


def check_records(path):
    text = path.read_text(encoding="utf-8")
    return ch.check_source(ps.parse_dtt(text, path.name))[1]


def corpus_categories():
    out = []
    for path in sorted((CORPUS / "cats").glob("*.fincat")):
        ws = fc.build_catfile(
            ps.parse_fincat(path.read_text(encoding="utf-8"), path.name))
        out.extend(ws.categories.items())
    return out


def scenario_records(name):
    sc = ip.load_scenario(SCENARIOS / name)
    return sc, ip.verify_soundness(sc)[0]


def load_space(name):
    text = (CORPUS / name).read_text(encoding="utf-8")
    return ds.from_pv(ds.parse_pv(text, name))


# ---------------------------------------------------------------------------
# 1. every rule schema has a passing and a failing corpus file


SCHEMAS = ("core-form", "op-form", "inc-core", "inc-op", "hom-form",
           "hom-intro", "elim-right", "elim-left", "comp-right", "comp-left")


def test_criterion_01_rule_coverage():
    with criterion(1, "rule coverage", 1.0):
        for schema in SCHEMAS:
            good = check_records(RULES / f"{schema}-ok.dtt")
            assert good, f"{schema}-ok.dtt is empty"
            assert all(r.ok for r in good), \
                f"{schema}-ok.dtt: {[r.detail for r in good if not r.ok]}"
            bad = check_records(RULES / f"{schema}-bad.dtt")
            verdicts = [r.ok for r in bad]
            assert verdicts == [True] * (len(bad) - 1) + [False], \
                f"{schema}-bad.dtt verdicts {verdicts}"


# ---------------------------------------------------------------------------
# 2. the strict unit laws hold definitionally in the generic telescopes


def test_criterion_02_strict_unit_laws():
    with criterion(2, "strict unit laws", 1.0):
        text = (CORPUS / "comp.dtt").read_text(encoding="utf-8")
        sig, records = ch.check_source(ps.parse_dtt(text, "comp.dtt"))
        assert all(r.ok for r in records)
        equal = [r for r in records if r.check == "assert-equal"]
        assert len(equal) == 2 and all(r.ok for r in equal)

        b = k.BaseT("B")
        right_ty = k.Hom(b, k.Var(0), k.IncCore(k.Var(1)))
        right_ctx = ch.check_telescope(sig, (
            ("r", k.Op(b)), ("s", k.Core(b)), ("f", right_ty)))
        composed = k.Const("comp_R", (k.Var(0), k.Var(1),
                                      k.IncCore(k.Var(1)), k.Var(2),
                                      k.One(k.Var(1))))
        assert def_equal(sig, right_ctx, composed, k.Var(2), right_ty)

        left_ty = k.Hom(b, k.IncOp(k.Var(0)), k.Var(1))
        left_ctx = ch.check_telescope(sig, (
            ("s", k.Core(b)), ("t", b), ("g", left_ty)))
        composed = k.Const("comp_L", (k.IncOp(k.Var(0)), k.Var(0), k.Var(1),
                                      k.One(k.Var(0)), k.Var(2)))
        assert def_equal(sig, left_ctx, composed, k.Var(2), left_ty)


# ---------------------------------------------------------------------------
# 3. hom types denote the hom-sets of the assigned category, elementwise


def test_criterion_03_hom_semantics():
    with criterion(3, "hom-set semantics", 5.0):
        pairs = corpus_categories()
        assert len(pairs) >= 10
        b = k.BaseT("B")
        ctx = (("r", k.Op(b)), ("t", b))
        hom_ty = k.Hom(b, k.Var(0), k.Var(1))
        for name, cat in pairs:
            assert len(cat.objects) <= 5 and len(cat.morphisms) <= 20, name
            sig = ch.Signature()
            sig.assume_type("B")
            env = ip.SemanticEnv(
                bases={"B": fc.constant_fibers(ip.terminal_ctx(), cat)})
            ch.check_type(sig, ch.check_telescope(sig, ctx), hom_ty)
            fa = ip.Interpreter(sig, env).type(ctx, hom_ty)
            seen = 0
            for x in fa.base.objects:
                a, t = x
                fib = fa.fibers[x]
                assert set(fib.objects) == set(cat.hom(a, t)), (name, a, t)
                assert set(fib.morphisms) == {fib.identity[o]
                                              for o in fib.objects}
                seen += 1
            assert seen == len(cat.objects) ** 2, name


# ---------------------------------------------------------------------------
# 4. the computation rule and naturality hold in every corpus scenario


def test_criterion_04_semantic_computation():
    with criterion(4, "semantic computation rule", 10.0):
        sides = set()
        for name in ("transport.scn", "comp.scn"):
            _, records = scenario_records(name)
            assert records
            assert all(r.ok for r in records), \
                [f"{r.subject}/{r.check}: {r.detail}"
                 for r in records if not r.ok]
            comp = [r for r in records
                    if r.check.startswith("computation-rule[")]
            natural = [r for r in records
                       if r.check.startswith("eliminator-natural[")]
            assert comp and natural, name
            sides |= {r.check[len("computation-rule["):-1] for r in comp}
        assert sides == {"right", "left"}


# ---------------------------------------------------------------------------
# 5. comprehension squares are pullbacks, certified by mediating functors


def test_criterion_05_comprehension_pullbacks():
    with criterion(5, "comprehension pullbacks", 30.0):
        certified = 0
        for name in ("transport.scn", "comp.scn"):
            _, records = scenario_records(name)
            chi = [r for r in records if r.check.startswith("chi-pullback[")]
            assert chi and all(r.ok for r in chi), name
            certified += len(chi)
        b = k.BaseT("B")
        hom_ctx = (("s", k.Core(b)), ("t", b),
                   ("f", k.Hom(b, k.IncOp(k.Var(0)), k.Var(1))))
        for name, cat in corpus_categories():
            sig = ch.Signature()
            sig.assume_type("B")
            env = ip.SemanticEnv(
                bases={"B": fc.constant_fibers(ip.terminal_ctx(), cat)})
            records = ip._pullback_records(ip.Interpreter(sig, env), name,
                                           hom_ctx)
            assert len(records) == 3, name
            assert all(r.ok for r in records), \
                [r.detail for r in records if not r.ok]
            certified += len(records)
        assert certified >= 20, certified


# ---------------------------------------------------------------------------
# 6. opfibration lifts, the triples isomorphism, and factorization legs


def test_criterion_06_factorization_certificates():
    with criterion(6, "factorization certificates", 10.0):
        pairs = corpus_categories()
        two = dict(pairs)["two"]
        totals = []
        for _, cat in pairs:
            plain = fc.constant_fibers(cat, two)
            totals.append(oracles.groth(cat, plain))
            totals.append(oracles.groth(cat, fc.core_fibers(plain)))
        fam = ip.load_scenario(SCENARIOS / "transport.scn").env.bases["S"]
        totals.append(oracles.groth(fam.base, fam))
        for gt in totals:
            assert fc.has_cocartesian_lifts(gt.projection)[0]
            assert all(oracles.is_cocartesian(gt.projection, lift)
                       for lift in gt.lifts.values())
            w = wfs.opfib_lift(wfs.factor(gt.projection, "arrow"), gt.lifts)
            assert fc.functor_compose(w.diagonal, w.problem.i) == w.problem.top
            assert fc.functor_compose(w.problem.p, w.diagonal) \
                == w.problem.bottom

        for name, cat in pairs:
            _, _, records = wfs.alpha_iso(cat)
            assert all(r.ok for r in records), name
            assert any(r.check == "unit-left-leg" for r in records)

        for name, cat in pairs:
            for F in (fc.identity_functor(cat), fc.core_inclusion(cat)):
                for flavor in wfs.FLAVORS:
                    fact = wfs.factor(F, flavor)
                    assert fact.validate() == [], (name, flavor)
                    assert fc.functor_compose(fact.right, fact.left) == F


# ---------------------------------------------------------------------------
# 7. brute-forced diagonals agree with the interpreter's sections


def test_criterion_07_lift_oracle_agreement():
    with criterion(7, "lift-oracle agreement", 60.0):
        squares = 0
        for name in ("transport.scn", "comp.scn"):
            sc = ip.load_scenario(SCENARIOS / name)
            assert all(r.ok for r in sc.checks)
            itp = ip.Interpreter(sc.sig, sc.env)
            for decl in sc.source.decls:
                match decl:
                    case ps.Define(_, tele, _, body):
                        itp.term(tele, body)
                    case ps.AssertEqual(tele, lhs, rhs, _):
                        itp.term(tele, lhs)
                        itp.term(tele, rhs)
            assert itp.witnesses, name
            for w in itp.witnesses:
                _, witness = wfs.elimination_square(w)
                lifts = wfs.brute_force_lifts(witness.problem)
                assert lifts, f"{name}: no diagonal for a {w.side} eliminator"
                assert any(witness.diagonal == lw.diagonal for lw in lifts)
                squares += 1
        assert squares >= 7, squares


# ---------------------------------------------------------------------------
# 8. the swiss flag, and closures against a walk of monotone paths


def test_criterion_08_swiss_flag():
    with criterion(8, "swiss flag geometry", 5.0):
        space = load_space("swissflag.pv")
        assert space.shape == (5, 5)
        report = ds.analyze(space)
        ta, tb = space.ticks
        unreach = ds.Rect((ta.index("U_n^A"), tb.index("U_m^B")),
                          (ta.index("U_m^A"), tb.index("U_n^B")))
        unsafe = ds.Rect((ta.index("L_m^A"), tb.index("L_n^B")),
                         (ta.index("L_n^A"), tb.index("L_m^B")))
        assert set(report.unreachable) == oracles.rect_cells(space, unreach)
        assert set(report.unsafe) == oracles.rect_cells(space, unsafe)

        ticks = ("0", "t1", "t2", "t3", "t4", "t5", "t6", "t7", "1")
        stress = ds.DirectedGridSpace(
            (ticks, ticks),
            (ds.Rect((2, 2), (6, 5)), ds.Rect((4, 6), (7, 8))))
        spaces = [space, load_space("interval.pv"), load_space("mutex.pv"),
                  load_space("threeway.pv"), stress]
        for s in spaces:
            assert s.validate() == []
            closures = ds.analyze(s)
            assert set(closures.reachable) == oracles.closure_cells(s, True)
            assert set(closures.safe) == oracles.closure_cells(s, False)


# ---------------------------------------------------------------------------
# 9. a thousand random well-typed terms keep the kernel's guarantees


def test_criterion_09_metatheory_at_scale():
    with criterion(9, "kernel metatheory at scale", 30.0):
        sig = wtgen.base_signature()
        terms = wtgen.generate(random.Random(1009), 1000)
        assert len(terms) == 1000
        violations = []
        for i, (tm, ty) in enumerate(terms):
            try:
                ch.check_term(sig, (), tm, ty)
                red = k.reduce(tm)
                ch.check_term(sig, (), red, ty)
                if k.reduce(red) != red:
                    violations.append((i, "reduce is not idempotent"))
                if red.elims > tm.elims:
                    violations.append((i, "eliminator count grew"))
            except ch.CheckError as err:
                violations.append((i, str(err)))
        assert violations == [], violations[:5]
