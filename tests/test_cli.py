"""End-to-end runs of the command line front-end over the corpus."""

import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import homtt.checker as ch
import homtt.cli as cli
import homtt.dspace as ds
import homtt.fincat as fc
import homtt.interp as ip
import homtt.kernel as k
import homtt.parser as ps
import homtt.wfs as wfs
import oracles
from test_dspace import random_program

REPO = Path(__file__).resolve().parent.parent
CORPUS = REPO / "corpus"


def run(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ---------------------------------------------------------------------------
# argument handling


def test_parse_args_defaults_and_flags():
    cfg = cli.parse_args(["check", "a.dtt", "b.dtt"])
    assert cfg == cli.RunConfig("check", ("a.dtt", "b.dtt"))
    cfg = cli.parse_args(["pv", "x.pv", "--oracle", "--format", "records"])
    assert cfg == cli.RunConfig("pv", ("x.pv",), True, None, "records")
    with pytest.raises(SystemExit) as exc:
        cli.parse_args(["pv", "x.pv", "--oracle", "--size-cap", "9",
                        "--format", "records"])
    assert exc.value.code == 2


@pytest.mark.parametrize("flags", [
    ("--oracle",), ("--size-cap", "3"), ("--oracle", "--size-cap", "3")],
    ids=["oracle", "size-cap", "both"])
def test_check_refuses_the_flags_it_does_not_read(capsys, flags):
    # check reads neither flag, so it takes neither
    with pytest.raises(SystemExit) as exc:
        cli.main(["check", *flags, str(CORPUS / "comp.dtt")])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: homtt")
    assert f"unrecognized arguments: {flags[0]}" in captured.err


def test_parse_args_calls_are_independent(capsys):
    first = cli.parse_args(["wfs", "w.fincat", "--oracle", "--size-cap", "3",
                            "--format", "records"])
    second = cli.parse_args(["check", "a.dtt"])
    assert first == cli.RunConfig("wfs", ("w.fincat",), True, 3, "records")
    assert second == cli.RunConfig("check", ("a.dtt",))
    with pytest.raises(SystemExit) as exc:
        cli.parse_args(["check", "a.dtt", "--format", "bogus"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: homtt check")
    assert "argument --format: invalid choice: 'bogus'" in err
    assert cli.parse_args(["pv", "x.pv"]) == cli.RunConfig("pv", ("x.pv",))


def test_missing_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.parse_args([])
    assert exc.value.code == 2


def test_size_cap_never_exceeds_the_hard_cap():
    assert cli._cap(cli.RunConfig("wfs", (), size_cap=10**9),
                    wfs.BRUTE_CAP) == wfs.BRUTE_CAP
    assert cli._cap(cli.RunConfig("wfs", (), size_cap=-5), 64) == 1
    assert cli._cap(cli.RunConfig("wfs", ()), 64) == 64


def test_corpus_root_env_var(capsys, monkeypatch):
    monkeypatch.setenv(cli.CORPUS_VAR, str(REPO))
    rc, out, _ = run(capsys, "check", "corpus/transport.dtt")
    assert rc == 0
    assert "transport_R : S(t') OK" in out


# ---------------------------------------------------------------------------
# check


def test_check_transport_passes_with_typed_report(capsys):
    rc, out, _ = run(capsys, "check", str(CORPUS / "transport.dtt"))
    assert rc == 0
    assert "transport_R : S(t') OK" in out
    assert "assert#1 : both sides reduce to u0 OK" in out
    assert out.rstrip().endswith("10/10 checks passed")


def test_check_bad_intro_names_the_premise(capsys):
    rc, out, _ = run(capsys, "check", str(CORPUS / "bad-intro.dtt"))
    assert rc == 1
    assert "one expects a core element" in out
    assert "FAIL" in out


def test_check_records_format_is_tab_separated(capsys):
    rc, out, _ = run(capsys, "check", "--format", "records",
                     str(CORPUS / "comp.dtt"))
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 5
    for line in lines:
        fields = line.split("\t")
        assert len(fields) == 4
        assert fields[2] == "ok"
    assert lines[1].startswith("define\tcomp_R\tok\t")


def test_check_parse_error_exits_two(capsys, tmp_path):
    bad = tmp_path / "broken.dtt"
    bad.write_text("assume assume : Type\n", encoding="utf-8")
    rc, _, err = run(capsys, "check", str(bad))
    assert rc == 2
    assert "error:" in err


def test_missing_file_exits_two(capsys):
    rc, _, err = run(capsys, "check", str(CORPUS / "nope.dtt"))
    assert rc == 2
    assert "error:" in err


@pytest.mark.parametrize("text", ["", "# nothing but a comment\n"],
                         ids=["empty", "comment-only"])
def test_check_file_without_declarations_passes(capsys, tmp_path, text):
    path = tmp_path / "none.dtt"
    path.write_text(text, encoding="utf-8")
    rc, out, err = run(capsys, "check", str(path))
    assert (rc, out, err) == (0, f"== {path}\n0/0 checks passed\n", "")


def _chain(depth):
    return ("assume A : Type\nassume a : A\nassume f (x : A) : A\n"
            f"define d : A := {'f(' * depth}a{')' * depth}\n")


@pytest.mark.parametrize("text", [
    "assume B : Type\nassume a : B\n"
    f"define d : B := {'(' * 2000}a{')' * 2000}\n",
    _chain(250),
], ids=["2000-parens", "250-deep-chain"])
def test_too_deep_input_exits_two(capsys, tmp_path, text):
    deep = tmp_path / "deep.dtt"
    deep.write_text(text, encoding="utf-8")
    rc, _, err = run(capsys, "check", str(deep))
    assert rc == 2
    assert err == "error: input nests too deeply\n"


def _padded(frames, fn):
    """fn() called under `frames` more stack frames than the caller's."""
    return _padded(frames - 1, fn) if frames else fn()


@pytest.mark.parametrize("depth, code, err", [
    (246, 0, ""),
    (247, 2, "error: input nests too deeply\n"),
])
def test_nesting_constant_gives_the_shell_verdicts_in_process(
        capsys, tmp_path, depth, code, err):
    # the shell's verdicts on each side of the parser's nesting constant,
    # from cli.run under pytest's frames and 100 more
    deep = tmp_path / "deep.dtt"
    deep.write_text(_chain(depth), encoding="utf-8")
    rc, _, got = _padded(100, lambda: run(capsys, "check", str(deep)))
    assert (rc, got) == (code, err)


def _core_chain(depth, kw="core"):
    return f"assume B : Type\nassert type {(kw + ' ') * depth}B\n"


@pytest.mark.parametrize("text, code, err", [
    (_core_chain(246), 0, ""),
    (_core_chain(247), 2, "error: input nests too deeply\n"),
    (_core_chain(247, "op"), 2, "error: input nests too deeply\n"),
    # a bracket right after a run holds the run's levels until it closes
    (f"assume B : Type\nassert type {'core (' * 123}B{')' * 123}\n", 0, ""),
    (f"assume B : Type\nassert type {'op (' * 124}B{')' * 124}\n", 2,
     "error: input nests too deeply\n"),
], ids=["246-cores", "247-cores", "247-ops", "123-bracketed", "124-bracketed"])
def test_core_and_op_count_toward_the_nesting_constant(capsys, tmp_path,
                                                       text, code, err):
    # core and op nest without brackets, and the printer recurses twice
    # per keyword; each counts one level, from cli.run under 100 more frames
    deep = tmp_path / "deep.dtt"
    deep.write_text(text, encoding="utf-8")
    rc, _, got = _padded(100, lambda: run(capsys, "check", str(deep)))
    assert (rc, got) == (code, err)


def test_deep_chain_within_the_limit_checks(tmp_path):
    # a fresh interpreter, as from the shell: pytest's own frames would
    # otherwise eat into the recursion limit
    deep = tmp_path / "deep.dtt"
    deep.write_text(_chain(240), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "homtt.cli", "check", str(deep)],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")})
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.rstrip().endswith("4/4 checks passed")


def test_internal_error_exits_three(capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise k.InternalError("wedged")
    monkeypatch.setattr(ch, "check_source", boom)
    rc, _, err = run(capsys, "check", str(CORPUS / "transport.dtt"))
    assert rc == 3
    assert "internal error: wedged" in err


@pytest.mark.parametrize("exc, shown", [
    (KeyError("planted"), "KeyError: 'planted'"),
    (ValueError("planted"), "ValueError: planted"),
])
def test_unexpected_exception_exits_three(capsys, monkeypatch, exc, shown):
    # a KeyError or ValueError inside a declaration's soundness records is
    # the engine's own fault (the environment was validated first), not a
    # failed check
    def planted(*args):
        raise exc
    monkeypatch.setattr(ip, "_pullback_records", planted)
    rc, out, err = run(capsys, "interp",
                       str(CORPUS / "scenarios" / "comp.scn"))
    assert (rc, out) == (3, "")
    assert err == f"internal error: {shown}\n"


def test_reducer_guard_breach_exits_three(capsys, monkeypatch, tmp_path):
    text = ("assume T : Type\nassume S (x : T) : Type\n"
            "assume c : core T\nassume u : S(i c)\n"
            "assert elimR[x. S(i x); x y f w. S(y); x w. w](one c, u) "
            "== u : S(i c)\n")
    path = tmp_path / "redex.dtt"
    path.write_text(text, encoding="utf-8")
    redex = ps.parse_dtt(text).decls[-1].lhs
    instantiate = k.instantiate

    def stuck(body, base, values, *scope):
        # asked to contract the redex, hand it back unchanged
        if (body, tuple(values)) == (redex.base, (redex.f.arg, redex.theta)):
            return redex
        return instantiate(body, base, values, *scope)
    monkeypatch.setattr(k, "instantiate", stuck)
    rc, out, err = run(capsys, "check", str(path), "--format", "records")
    assert rc == 3
    assert err == ("internal error: reduce: eliminator count did not "
                   "decrease (1 -> 1)\n")
    assert "Traceback" not in out


# ---------------------------------------------------------------------------
# interp


def test_interp_transport_scenario(capsys):
    rc, out, _ = run(capsys, "interp",
                     str(CORPUS / "scenarios" / "transport.scn"))
    assert rc == 0
    assert "transport_R : computation-rule[right] OK" in out
    assert "assert#1 : equal-interpretation OK" in out
    assert "chi-pullback" in out


def test_interp_comp_scenario_with_oracle(capsys):
    rc, out, _ = run(capsys, "interp", "--oracle",
                     str(CORPUS / "scenarios" / "comp.scn"))
    assert rc == 0
    assert "lift-oracle[right] OK" in out
    assert "lift-oracle[left] OK" in out


def _gained_object(pb):
    z = ("planted",)
    idz = fc.identity_mor(z)
    return fc.FinCat((*pb.objects, z), (*pb.morphisms, idz),
                     {**pb.identity, z: idz}, {**pb.compose, (idz, idz): idz})


def _lost_morphism(pb):
    gone = pb.morphisms[-1]
    return fc.FinCat(pb.objects, pb.morphisms[:-1], pb.identity,
                     {gf: h for gf, h in pb.compose.items()
                      if gone not in (*gf, h)})


@pytest.mark.parametrize("plant, detail", [
    (_gained_object, "object (planted) has 0 preimages"),
    (_lost_morphism, "mediating functor: morphism map undefined at ("),
], ids=lambda v: getattr(v, "__name__", None))
def test_interp_planted_pullback_defect_fails_chi_pullback(
        capsys, monkeypatch, plant, detail):
    pullback_cat = fc.pullback_cat
    monkeypatch.setattr(fc, "pullback_cat",
                        lambda F, G: plant(pullback_cat(F, G)))
    rc, out, err = run(capsys, "interp", "--format", "records",
                       str(CORPUS / "scenarios" / "comp.scn"))
    assert (rc, err) == (1, "")
    records = [line.split("\t") for line in out.splitlines()]
    chi = [r for r in records if r[0].startswith("chi-pullback[")]
    assert len(chi) == 14
    assert all(r[2] == "FAIL" and detail in r[3] for r in chi)
    assert all(r[2] == "ok" for r in records if r not in chi)


def test_interp_planted_transport_defect_fails_equal_interpretation(
        capsys, monkeypatch):
    # the transport moves the value at the first point of its extension out
    # of the fiber; there sits the unit along which `stay` transports u0
    transport = ip._transport_section

    def moved(*args):
        sec = transport(*args)
        first = next(iter(sec.obj))
        return fc.Section(sec.fa, {**sec.obj, first: "planted"}, sec.mor)
    monkeypatch.setattr(ip, "_transport_section", moved)
    rc, out, err = run(capsys, "interp", "--format", "records",
                       str(CORPUS / "scenarios" / "transport.scn"))
    assert (rc, err) == (1, "")
    fails = [line.split("\t") for line in out.splitlines()
             if "\tFAIL\t" in line]
    # every section built on the moved value fails, each naming a cell
    assert {(check, subject) for check, subject, _, _ in fails} == {
        *((check, name) for name in ("transport_R", "stay", "assert#1")
          for check in ("section-natural", "section-in-type")),
        *((check, name) for name in ("transport_R", "moved", "stay")
          for check in ("eliminator-natural[right]",
                        "computation-rule[right]")),
        ("equal-interpretation", "assert#1")}
    assert all(" at (" in detail for *_, detail in fails)
    assert fails[-1] == ["equal-interpretation", "assert#1", "FAIL",
                         "values differ at (): planted vs *"]


def test_interp_planted_unit_defect_fails_unit_functorial(capsys,
                                                         monkeypatch):
    # each unit sends its first non-identity morphism to an identity
    unit_functor = ip._unit_functor

    def moved(*args):
        F = unit_functor(*args)
        m = next((m for m in F.source.morphisms
                  if m != F.source.identity[m.dom]), None)
        if m is None:
            return F
        return fc.Functor(F.source, F.target, F.ob,
                          {**F.mor, m: F.target.identity[F.ob[m.dom]]})
    monkeypatch.setattr(ip, "_unit_functor", moved)
    rc, out, err = run(capsys, "interp", "--format", "records",
                       str(CORPUS / "scenarios" / "transport.scn"))
    assert (rc, err) == (1, "")
    fails = [line.split("\t") for line in out.splitlines()
             if line.startswith("unit-functorial[right]\t")]
    assert [r[1] for r in fails] == ["transport_R", "moved", "stay"]
    assert all(r[2] == "FAIL" and r[3].startswith(
        "endpoints not preserved at (") for r in fails)


@pytest.mark.parametrize("argv, subjects", [
    (("interp", str(CORPUS / "scenarios" / "comp.scn")),
     ["elim#1", "elim#2", "elim#3", "elim#4"]),
    (("wfs", str(CORPUS / "scenarios" / "world.fincat")), ["idtwo"]),
], ids=["interp", "wfs"])
def test_planted_lift_search_defect_fails_lift_oracle(capsys, monkeypatch,
                                                      argv, subjects):
    monkeypatch.setattr(wfs, "brute_force_lifts", lambda *args: ())
    rc, out, err = run(capsys, argv[0], "--oracle", "--format", "records",
                       argv[1])
    assert (rc, err) == (1, "")
    fails = [line.split("\t") for line in out.splitlines()
             if "\tFAIL\t" in line]
    assert [r[1] for r in fails] == subjects
    assert all(r[0].startswith("lift-oracle") and r[3] == "no diagonal found"
               for r in fails)


def test_planted_hom_functor_defect_stops_before_type_functorial(
        capsys, monkeypatch):
    # type-functorial validates the assignment a hom type is read as, but
    # extend validates it first and refuses it as an internal error; so a
    # broken hom functor never reaches the record
    hom_functor = fc.hom_functor

    def dropped(*args):
        fa = hom_functor(*args)
        m = next((m for m in fa.base.morphisms
                  if m != fa.base.identity[m.dom]), None)
        if m is None:
            return fa
        t = fa.transitions[m]
        return fc.FiberAssignment(fa.base, fa.fibers, {
            **fa.transitions, m: fc.Functor(t.source, t.target, t.ob, {})})
    monkeypatch.setattr(fc, "hom_functor", dropped)
    rc, out, err = run(capsys, "interp", "--format", "records",
                       str(CORPUS / "scenarios" / "transport.scn"))
    assert (rc, out) == (3, "")
    assert err == ("internal error: ValueError: fiber assignment: transition "
                   "along (<(id 0)> <a>): morphism map undefined at "
                   "(id <(id 0)>)\n")


def _scenario_with_bad_define(tmp_path):
    src = CORPUS / "scenarios"
    for name in ("transport.scn", "world.fincat"):
        (tmp_path / name).write_text((src / name).read_text(encoding="utf-8"),
                                     encoding="utf-8")
    text = (src / "transport.dtt").read_text(encoding="utf-8")
    (tmp_path / "transport.dtt").write_text(
        text + "define bad : S(c') := transport_R(c, c', ff, ff)\n",
        encoding="utf-8")
    return tmp_path / "transport.scn"


def test_interp_oracle_skips_an_ill_typed_define(capsys, tmp_path):
    # the ill-typed body is never interpreted; the oracle squares are those
    # of the three eliminators in declarations that typechecked
    scn = _scenario_with_bad_define(tmp_path)
    rc, out, err = run(capsys, "interp", "--oracle", "--format", "records",
                       str(scn))
    assert (rc, err) == (1, "")
    lines = out.splitlines()
    bad = "typecheck\tbad\tFAIL\texpected S(i c), inferred hom B (iop c) c'"
    assert [ln for ln in lines if "\tFAIL\t" in ln] == [bad]
    assert [ln.split("\t")[:3] for ln in lines
            if ln.startswith("lift-oracle")] == [
        ["lift-oracle[right]", f"elim#{n}", "ok"] for n in (1, 2, 3)]


@pytest.mark.parametrize("flags", [(), ("--oracle",)])
def test_interp_checks_and_interprets_each_scenario_once(capsys, monkeypatch,
                                                         flags):
    # one check_source per scenario; one interpreter to build the
    # environment and one for the soundness pass, whose witnesses the
    # oracle reads
    calls = {"check": 0, "interp": 0}
    check_source, init = ch.check_source, ip.Interpreter.__init__

    def counted_check(*args):
        calls["check"] += 1
        return check_source(*args)

    def counted_init(self, *args):
        calls["interp"] += 1
        init(self, *args)
    monkeypatch.setattr(ch, "check_source", counted_check)
    monkeypatch.setattr(ip.Interpreter, "__init__", counted_init)
    rc, _, _ = run(capsys, "interp", *flags,
                   str(CORPUS / "scenarios" / "transport.scn"))
    assert (rc, calls) == (0, {"check": 1, "interp": 2})


def test_interp_bad_scenario_exits_two(capsys, tmp_path):
    scn = tmp_path / "x.scn"
    scn.write_text("fincat nowhere.fincat\n", encoding="utf-8")
    rc, _, err = run(capsys, "interp", str(scn))
    assert rc == 2
    assert "source" in err


def test_interp_workspace_error_names_the_scenario_file(capsys, tmp_path):
    src = CORPUS / "scenarios"
    for name in ("transport.dtt", "transport.scn"):
        (tmp_path / name).write_text(
            (src / name).read_text(encoding="utf-8"), encoding="utf-8")
    world = (src / "world.fincat").read_text(encoding="utf-8")
    assert "  arr a -> a\n" in world
    (tmp_path / "world.fincat").write_text(
        world.replace("  arr a -> a\n", ""), encoding="utf-8")
    scn = tmp_path / "transport.scn"
    rc, out, err = run(capsys, "interp", str(scn))
    assert (rc, out) == (2, "")
    assert err == (f"error: {scn}: workspace block 'idtwo': morphism map "
                   "undefined at a\n")


def _scenario_with_bad_fiber(tmp_path, extra_binds):
    # sfam's transition along a is not a functor from the fiber at 0
    src = CORPUS / "scenarios"
    world = (src / "world.fincat").read_text(encoding="utf-8")
    (tmp_path / "world.fincat").write_text(
        world.replace("along [0] (a) : sa", "along [0] (a) : bad")
        + "\nfunctor bad : two -> two\n  ob 0 -> 1\n  ob 1 -> 1\n"
          "  arr a -> id_1\nend\n", encoding="utf-8")
    text = (src / "transport.dtt").read_text(encoding="utf-8")
    (tmp_path / "transport.dtt").write_text(
        text + "assume k (x : B, s : S(x)) : S(x)\n", encoding="utf-8")
    scn = tmp_path / "transport.scn"
    scn.write_text((src / "transport.scn").read_text(encoding="utf-8")
                   + extra_binds, encoding="utf-8")
    return scn


def test_interp_bad_fiber_under_a_bound_telescope_exits_two(capsys, tmp_path):
    # k's telescope extends by the bad fiber before any check runs
    scn = _scenario_with_bad_fiber(tmp_path, "bind const k = *\n")
    rc, out, err = run(capsys, "interp", str(scn))
    assert (rc, out) == (2, "")
    assert err == ("error: cannot interpret the declaration of 'k': fiber "
                   "assignment: transition along (<a>) has wrong source or "
                   "target\n")


def test_interp_bad_fiber_alone_fails_its_env_check(capsys, tmp_path):
    scn = _scenario_with_bad_fiber(tmp_path, "")
    rc, out, err = run(capsys, "interp", "--format", "records", str(scn))
    assert (rc, err) == (1, "")
    assert ("env-assignment\tbase:S\tFAIL\ttransition along (<a>) has wrong "
            "source or target\n") in out


WORLD = (CORPUS / "scenarios" / "world.fincat").read_text(encoding="utf-8")


def _scenario(tmp_path, dtt, binds, fincats=(("world.fincat", WORLD),),
              head=""):
    """A scenario over the given .dtt text, .fincat files and bind lines."""
    (tmp_path / "s.dtt").write_text(dtt, encoding="utf-8")
    for name, text in fincats:
        (tmp_path / name).write_text(text, encoding="utf-8")
    scn = tmp_path / "s.scn"
    scn.write_text(f"{head}source s.dtt\n"
                   f"fincat {' '.join(name for name, _ in fincats)}\n"
                   + binds, encoding="utf-8")
    return scn


def test_interp_section_with_a_misplaced_morphism_part_fails_env_section(
        capsys, tmp_path):
    # along a, sfam carries * at 0 to 0 of two; the part must run 0 -> 1
    section = ("section gs in sfam\n  at [0] : *\n  at [1] : 1\n"
               "  at [0] (a) : id_1\nend\n")
    scn = _scenario(tmp_path, "assume B : Type\nassume S (x : B) : Type\n"
                    "assume g (x : B) : S(x)\n",
                    "bind type B = two\nbind type S = sfam\n"
                    "bind const g = gs\n",
                    fincats=(("world.fincat", WORLD + "\n" + section),))
    rc, out, err = run(capsys, "interp", "--format", "records", str(scn))
    assert (rc, err) == (1, "")
    assert out.endswith("env-section\tconst:g\tFAIL\tmorphism part along "
                        "(<a>) has wrong endpoints\n")


@pytest.mark.parametrize("binds", [
    "bind type B = two\nbind const c = 0\nbind type T = star\n",
    "bind type T = star\nbind const c = 0\nbind type B = two\n",
], ids=["scn-in-declaration-order", "scn-in-another-order"])
def test_interp_binds_in_declaration_order(capsys, tmp_path, binds):
    # T's telescope mentions c, so T resolves only once c is bound
    scn = _scenario(
        tmp_path, "assume B : Type\nassume c : core B\n"
        "assume T (y : hom B (iop c) (i c)) : Type\n", binds)
    rc, out, err = run(capsys, "interp", "--format", "records", str(scn))
    assert (rc, err) == (0, "")
    assert "\tFAIL\t" not in out
    assert "env-base\tT\tok\t\n" in out


def test_interp_binding_an_ill_typed_declaration_exits_two(capsys, tmp_path):
    scn = _scenario(
        tmp_path, "assume B : Type\nassume x : B\n"
        "assume c0 : hom B (iop x) (i x)\n",
        "bind type B = two\nbind const x = 0\nbind const c0 = id_0\n")
    rc, out, err = run(capsys, "interp", str(scn))
    assert (rc, out) == (2, "")
    assert err == ("error: bind const 'c0': the declaration does not "
                   "typecheck\n")


def test_interp_use_of_an_ill_typed_define_fails_its_check(capsys, tmp_path):
    # bad's declared type lets uses typecheck; its body is never expanded
    scn = _scenario(
        tmp_path, "assume B : Type\nassume x : core B\nassume y : B\n"
        "define bad : hom B (iop x) (i x) := elimR[z. B; z w h v. B; "
        "z v. v](y, y)\ndefine use : hom B (iop x) (i x) := bad\n",
        "bind type B = two\nbind const x = 0\n")
    rc, out, err = run(capsys, "interp", "--format", "records", str(scn))
    assert (rc, err) == (1, "")
    assert [ln.split("\t")[:2] for ln in out.splitlines()
            if "\tFAIL\t" in ln] == [["typecheck", "bad"],
                                      ["interpretation", "use"]]
    assert ("interpretation\tuse\tFAIL\tthe declaration of 'bad' does not "
            "typecheck\n") in out


def test_interp_unknown_bindings_name_the_first_in_file_order(tmp_path):
    # the same error whatever the hash seed of the process
    scn = _scenario(tmp_path, "assume B : Type\n",
                    "bind type Zq = two\nbind type Zr = two\n")
    procs = [subprocess.Popen(
        [sys.executable, "-m", "homtt.cli", "interp", str(scn)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": str(REPO / "src"),
             "PYTHONHASHSEED": seed}) for seed in "1234"]
    outcomes = {(p.communicate()[1], p.returncode) for p in procs}
    assert outcomes == {("error: bind type 'Zq': no such base type\n", 2)}


def test_interp_one_namespace_across_fincat_files(capsys, tmp_path):
    scn = _scenario(
        tmp_path, "assume B : Type\nassume S (x : B) : Type\n",
        "bind type B = two\nbind type S = two\n",
        (("world.fincat", WORLD),
         ("more.fincat", "category one\n  objects *\nend\n"
                         "fiber two\n  constant one\nend\n")))
    rc, out, err = run(capsys, "interp", str(scn))
    assert (rc, out) == (2, "")
    assert err == f"error: {tmp_path / 'more.fincat'}:4:1: duplicate name " \
                  "'two'\n"


@pytest.mark.parametrize("head, binds, message", [
    ("source s.dtt\n", "bind type B = two\n", "2: repeated 'source' line"),
    ("", "bind type B = two\nbind type B = star\n",
     "4: repeated binding of 'B'"),
    ("", "bind type B = two\nbind const B = 0\n",
     "4: repeated binding of 'B'"),
], ids=["source", "bind", "bind-across-kinds"])
def test_interp_repeated_scenario_lines_exit_two(capsys, tmp_path, head,
                                                 binds, message):
    scn = _scenario(tmp_path, "assume B : Type\n", binds, head=head)
    rc, out, err = run(capsys, "interp", str(scn))
    assert (rc, out) == (2, "")
    assert err == f"error: {scn}:{message}\n"


def test_interp_repeated_fiber_address_exits_two(capsys, tmp_path):
    line = "  at [1] : two\n"
    assert line in WORLD
    scn = _scenario(
        tmp_path, (CORPUS / "scenarios" / "transport.dtt").read_text(
            encoding="utf-8"),
        "bind type B = two\nbind type S = sfam\n",
        (("world.fincat", WORLD.replace(line, line + "  at [1] : star\n")),))
    rc, out, err = run(capsys, "interp", str(scn))
    assert (rc, out) == (2, "")
    assert err == "error: fiber sfam: repeated fiber at (1)\n"


def test_reports_are_byte_identical_across_runs(capsys):
    path = str(CORPUS / "scenarios" / "transport.scn")
    rc1, out1, _ = run(capsys, "interp", path, "--format", "records")
    rc2, out2, _ = run(capsys, "interp", path, "--format", "records")
    assert (rc1, out1) == (rc2, out2)
    assert out1.count("\n") == len(out1.splitlines())


# ---------------------------------------------------------------------------
# wfs


def test_wfs_certifies_world_workspace(capsys):
    rc, out, _ = run(capsys, "wfs", "--oracle",
                     str(CORPUS / "scenarios" / "world.fincat"))
    assert rc == 0
    assert "two : unit-left-leg OK" in out
    assert "sa : factor[arrow] OK" in out
    assert "idtwo : opfib-lift OK" in out
    assert "idtwo : lift-oracle OK" in out
    assert "sa : opfib-lift" not in out


def test_wfs_refused_arrow_factorization_refuses_the_lift(capsys,
                                                          monkeypatch):
    factor = wfs.factor

    def capped(F, flavor):
        if flavor == "arrow":
            raise fc.SizeCapError("65 objects exceeds 64")
        return factor(F, flavor)
    monkeypatch.setattr(wfs, "factor", capped)
    rc, out, _ = run(capsys, "wfs", "--oracle", "--format", "records",
                     str(CORPUS / "scenarios" / "world.fincat"))
    assert rc == 1
    assert "factor[arrow]\tidtwo\tFAIL\t65 objects exceeds 64\n" in out
    assert "factor[iso]\tidtwo\tok\t\n" in out
    assert "opfib-lift\tidtwo\tFAIL\t65 objects exceeds 64\n" in out
    assert "lift-oracle\tidtwo" not in out


# chain_3 -> chain_2 sending b and c to y: an opfibration with a lift
COLLAPSE = """\
category src
  objects a b c
  arrow f : a -> b
  arrow g : b -> c
  arrow h : a -> c
  compose g f = h
end
category tgt
  objects x y
  arrow k : x -> y
end
functor collapse : src -> tgt
  ob a -> x
  ob b -> y
  ob c -> y
  arr f -> k
  arr g -> id_y
  arr h -> k
end
"""


def test_lift_oracles_refuse_a_search_over_the_cap(capsys, tmp_path):
    # the brute-force search is refused, not cut short, and each refusal
    # is a failing lift-oracle record
    rc, out, _ = run(capsys, "interp", "--oracle", "--size-cap", "1",
                     "--format", "records",
                     str(CORPUS / "scenarios" / "transport.scn"))
    assert rc == 1
    assert ("lift-oracle[right]\telim#1\tFAIL\t16 object assignments "
            "exceed the search cap 1\n") in out
    ws = tmp_path / "collapse.fincat"
    ws.write_text(COLLAPSE, encoding="utf-8")
    rc, out, _ = run(capsys, "wfs", "--oracle", "--size-cap", "1",
                     "--format", "records", str(ws))
    assert rc == 1
    assert "opfib-lift\tcollapse\tok\t\n" in out
    assert out.endswith("lift-oracle\tcollapse\tFAIL\t2 object assignments "
                        "exceed the search cap 1\n")


@pytest.mark.parametrize("name", ["star", "two", "z2", "chain3", "grid22"])
def test_wfs_runs_on_single_category_files(capsys, name):
    rc, out, _ = run(capsys, "wfs", str(CORPUS / "cats" / f"{name}.fincat"))
    assert rc == 0
    assert f"{name} : alpha-functorial OK" in out


# Planted defects in the triples category of the walking arrow two
# (objects (0, 0, 1_0), (0, 1, a), (1, 1, 1_1)) and in its unit; each
# returns the (category, unit) that wfs.hom_context would.
_hom_context = wfs.hom_context


def _with(unit, objects, morphisms, identity, compose):
    """The category of the given cells, and unit into it where it can."""
    bad = fc.FinCat(objects, morphisms, identity, compose)
    ob = {x: y for x, y in unit.ob.items() if y in objects}
    return bad, fc.Functor(unit.source, bad, ob,
                           {m: bad.identity[ob[m.dom]]
                            for m in unit.source.morphisms if m.dom in ob})


def _wrong_unit(c):
    # the unit sends 0 to the arrow (0, 1, a) in place of (0, 0, 1_0)
    cat, unit = _hom_context(c)
    ob = {**unit.ob, "0": cat.objects[1]}
    return cat, fc.Functor(unit.source, cat, ob,
                           {m: cat.identity[ob[m.dom]]
                            for m in unit.source.morphisms})


def _wrong_composite(c):
    # the arrow after the identity of its domain composes to that identity
    cat, unit = _hom_context(c)
    compose = dict(cat.compose)
    g, f = next(pair for pair, h in compose.items()
                if h != cat.identity[h.dom])
    compose[(g, f)] = f
    return _with(unit, cat.objects, cat.morphisms, cat.identity, compose)


def _dropped_object(c):
    # (1, 1, 1_1) and its identity are missing
    cat, unit = _hom_context(c)
    gone = cat.objects[2]
    return _with(unit, cat.objects[:2],
                 [m for m in cat.morphisms if gone not in (m.dom, m.cod)],
                 {x: m for x, m in cat.identity.items() if x != gone},
                 {gf: h for gf, h in cat.compose.items()
                  if gone not in (h.dom, h.cod)})


def _doubled_object(c):
    # a copy z of (0, 0, 1_0) with its own identity, which alpha sends
    # where it sends (0, 0, 1_0)
    cat, unit = _hom_context(c)
    x = cat.objects[0]
    z = (x[0], "z", x[2])
    idz = fc.Mor(cat.identity[x].name, z, z)
    return _with(unit, (*cat.objects, z), (*cat.morphisms, idz),
                 {**cat.identity, z: idz}, {**cat.compose, (idz, idz): idz})


@pytest.mark.parametrize("plant, failed", [
    (_wrong_unit, ["unit-left-leg"]),
    (_wrong_composite, ["alpha-functorial", "inverse-functorial"]),
    (_dropped_object, ["inverse-functorial", "right-inverse",
                       "unit-left-leg"]),
    (_doubled_object, ["inverse-functorial", "left-inverse"]),
], ids=lambda v: getattr(v, "__name__", None))
def test_wfs_planted_alpha_defect_fails_its_own_check(capsys, monkeypatch,
                                                      plant, failed):
    monkeypatch.setattr(wfs, "hom_context", plant)
    rc, out, err = run(capsys, "wfs", "--format", "records",
                       str(CORPUS / "cats" / "two.fincat"))
    assert (rc, err) == (1, "")
    records = [line.split("\t") for line in out.splitlines()]
    assert [r[0] for r in records] == [
        "alpha-functorial", "inverse-functorial", "left-inverse",
        "right-inverse", "unit-left-leg"]
    assert [r[0] for r in records if r[2] == "FAIL"] == failed
    assert all(r[3] for r in records if r[2] == "FAIL")


@pytest.mark.parametrize("source, drop, problem", [
    ("cats/chain3.fincat", "  compose c12 c01 = c02\n",
     "'chain3': composition undefined for (c12, c01)"),
    ("scenarios/world.fincat", "  arr a -> a\n",
     "'idtwo': morphism map undefined at a"),
], ids=["missing-composite", "missing-arr"])
def test_wfs_invalid_workspace_block_exits_two(capsys, tmp_path, source,
                                               drop, problem):
    text = (CORPUS / source).read_text(encoding="utf-8")
    assert drop in text
    broken = tmp_path / "broken.fincat"
    broken.write_text(text.replace(drop, ""), encoding="utf-8")
    rc, _, err = run(capsys, "wfs", str(broken))
    assert rc == 2
    assert err.startswith("error: ") and problem in err


@pytest.mark.parametrize("block, problem", [
    ("nat eta : idtwo\n  at 0 : a\n  at 1 : id_1\nend\n",
     "expected a block header, found 'nat'"),
    ("square sq\n  left sa\n  right idtwo\n  top sa\n  bottom nope\nend\n",
     "expected a block header, found 'square'"),
], ids=["nat", "square"])
def test_wfs_bad_nat_or_square_exits_two(capsys, tmp_path, block, problem):
    # nat and square blocks are no longer part of the format: after a
    # valid workspace, one stops the parse at its header line
    text = (CORPUS / "scenarios" / "world.fincat").read_text(encoding="utf-8")
    broken = tmp_path / "broken.fincat"
    broken.write_text(text + "\n" + block, encoding="utf-8")
    header = len((text + "\n").splitlines()) + 1
    rc, out, err = run(capsys, "wfs", str(broken))
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and f":{header}:1: {problem}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("text, error", [
    ("category\n  objects a\nend\n", "1:1: usage: category NAME"),
    ("category c\n  objects a\n  objects b\nend\n",
     "3:1: repeated objects line"),
    ("functor f\nend\n", "1:1: usage: functor NAME : C -> D"),
    ("fiber p\n  at\nend\n", "2:1: missing address"),
    ("fiber p\n  at [ 0 : star\nend\n", "2:1: unterminated '['"),
    ("fiber p\n  along [ 0 ] ( a : sa\nend\n", "2:1: unterminated '('"),
    ("fiber p\n  at 0 star\nend\n", "2:1: bad fiber line: at 0 star"),
    ("fiber\nend\n", "1:1: usage: fiber NAME [over C]"),
    ("section s\nend\n", "1:1: usage: section NAME in FIBER"),
    ("section s in p\n  point x : y\nend\n",
     "2:1: bad section line: point x : y"),
    (WORLD + "functor f : two -> two\n  ob 0 -> 0\n  ob 1 -> 1\n"
     "  arr b -> a\nend\n",
     " workspace block 'f': unknown arrow in 'arr b -> a'"),
    ("nat n\nend\n", "1:1: expected a block header, found 'nat'"),
    ("nat eta : F => G\nend\n", "1:14: stray character '>'"),
    ("square sq\nend\n", "1:1: expected a block header, found 'square'"),
    ("category big\n  objects "
     + " ".join(f"o{i}" for i in range(65)) + "\nend\n",
     " workspace block 'big': 65 objects exceeds 64"),
    ("category one\n  objects x\n  arrow e : x -> x\n  compose e e = e\n"
     "end\nfunctor F : one -> one\n  ob x -> x\n  arr id_x -> e\n"
     "  arr e -> e\nend\n",
     " workspace block 'F': identity not preserved at x"),
], ids=["category-usage", "repeated-objects", "functor-usage",
        "missing-address", "unterminated-bracket", "unterminated-paren",
        "bad-fiber-line", "fiber-usage", "section-usage", "bad-section-line",
        "unknown-arrow", "nat-header", "nat-arrow", "square-header",
        "object-cap", "identity-not-preserved"])
def test_wfs_fincat_error_texts(capsys, tmp_path, text, error):
    path = tmp_path / "bad.fincat"
    path.write_text(text, encoding="utf-8")
    rc, out, err = run(capsys, "wfs", str(path))
    assert (rc, out, err) == (2, "", f"error: {path}:{error}\n")


# ---------------------------------------------------------------------------
# pv


def test_pv_swissflag_report(capsys):
    rc, out, _ = run(capsys, "pv", str(CORPUS / "swissflag.pv"))
    assert rc == 1
    assert "axis A: 0 L_m^A L_n^A U_n^A U_m^A 1" in out
    assert "BBBBB\nBB#SB\nB###B\nBR#BB\nBBBBB" in out
    assert "unreachable: 3,3" in out
    assert "unsafe: 1,1" in out
    assert "deadlocks: 1,1" in out
    assert "deadlock-free FAIL" in out


def test_pv_planted_closure_defect_fails_closure_oracle(capsys, monkeypatch):
    # the forward sweep loses a cell that no other cell links to in the
    # referee's link table
    closure = ds._closure

    def dropped(space, d):
        bits = closure(space, d)
        if d == 1:
            links = oracles.link_table(space)
            cell = next(c for c in reversed(links) if c != space.final
                        and c not in links.values())
            bits &= ~ds._bit(space, cell)
        return bits
    path = str(CORPUS / "swissflag.pv")
    rc, out, _ = run(capsys, "pv", "--oracle", "--format", "records", path)
    assert (rc, out.splitlines()[-1]) == (1, f"closure-oracle\t{path}\tok\t")
    monkeypatch.setattr(ds, "_closure", dropped)
    rc, out, err = run(capsys, "pv", "--oracle", "--format", "records", path)
    assert (rc, err) == (1, "")
    assert out.splitlines()[-1] == (
        f"closure-oracle\t{path}\tFAIL\treachable: the step from (4, 2) "
        "to (4, 3) leaves the table")


def test_pv_clean_programs_pass_with_oracle(capsys):
    rc, out, _ = run(capsys, "pv", "--oracle", "--format", "records",
                     str(CORPUS / "interval.pv"), str(CORPUS / "mutex.pv"),
                     str(CORPUS / "threeway.pv"))
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 9
    assert all(line.split("\t")[2] == "ok" for line in lines)


def test_pv_refuses_the_size_cap(capsys):
    # the closure certificate needs no cap, so pv takes none
    files = (str(CORPUS / "interval.pv"), str(CORPUS / "swissflag.pv"))
    with pytest.raises(SystemExit) as exc:
        cli.main(["pv", "--oracle", "--size-cap", "10", "--format",
                  "records", *files])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --size-cap" in captured.err
    rc, out, _ = run(capsys, "pv", "--oracle", "--format", "records", *files)
    assert rc == 1
    for name in ("interval.pv", "swissflag.pv"):
        assert "closure-oracle\t" + str(CORPUS / name) + "\tok" in out
    assert "deadlock-free\t" + str(CORPUS / "swissflag.pv") + "\tFAIL" in out


# three processes of 14 events over three semaphores: a 15^3 grid
REALISTIC = """\
P(a) P(b) V(b) P(c) V(c) V(a) P(b) V(b) P(a) V(a) P(c) P(b) V(b) V(c)
P(b) V(b) P(c) P(a) V(a) V(c) P(a) P(b) V(b) V(a) P(c) V(c) P(b) V(b)
P(c) V(c) P(a) V(a) P(b) P(c) V(c) V(b) P(a) P(c) V(c) V(a) P(b) V(b)
"""


def test_pv_closure_oracle_at_realistic_size(capsys, tmp_path):
    prog = tmp_path / "three.pv"
    prog.write_text(REALISTIC, encoding="utf-8")
    space = ds.from_pv(ds.parse_pv(REALISTIC))
    assert space.shape == (15, 15, 15)
    report = ds.analyze(space)
    assert set(report.reachable) == oracles.closure_cells(space, True)
    assert set(report.safe) == oracles.closure_cells(space, False)
    rc, out, _ = run(capsys, "pv", "--oracle", "--format", "records",
                     str(prog))
    assert rc == 1  # it deadlocks
    assert "closure-oracle\t" + str(prog) + "\tok\t\n" in out


@pytest.mark.parametrize("flags, backward", [
    (("--format", "records"), 0),
    (("--format", "human"), 1),
    (("--format", "records", "--oracle"), 1),
    (("--format", "human", "--oracle"), 1),
], ids=["records", "human", "oracle", "human-oracle"])
def test_pv_runs_the_backward_closure_only_when_read(capsys, monkeypatch,
                                                      flags, backward):
    # sweeps per file, by direction: a records run without the
    # certificate reads only the forward mask
    files = sorted(str(p) for p in CORPUS.glob("*.pv"))
    assert len(files) == 4
    closure, sweeps = ds._closure, []

    def counted(space, d):
        sweeps.append(d)
        return closure(space, d)
    monkeypatch.setattr(ds, "_closure", counted)
    run(capsys, "pv", *flags, *files)
    assert (sweeps.count(1), sweeps.count(-1)) == (4, 4 * backward)


def _pv_text(prog):
    return "\n".join(" ".join(f"{op}({s})" for op, s in evs)
                     for evs in prog.processes) + "\n"


def test_pv_modes_agree_on_generated_programs(capsys, tmp_path):
    # records are the oracle run's first two lines, and the human counts
    # are the sizes of the path-walk closures
    for i in range(60):
        prog = random_program(random.Random(f"pv-modes/{i}"))
        path = tmp_path / f"p{i}.pv"
        path.write_text(_pv_text(prog), encoding="utf-8")
        _, records, _ = run(capsys, "pv", "--format", "records", str(path))
        _, oracle, _ = run(capsys, "pv", "--format", "records", "--oracle",
                           str(path))
        assert oracle.splitlines()[2] == f"closure-oracle\t{path}\tok\t"
        assert records.splitlines() == oracle.splitlines()[:2]
        _, human, _ = run(capsys, "pv", str(path))
        space = ds.from_pv(prog)
        total = math.prod(space.shape)
        for name, forward in (("reachable", True), ("safe", False)):
            count = len(oracles.closure_cells(space, forward))
            assert f"\n{name}: {count} of {total} cells\n" in human


def test_pv_invalid_built_grid_is_an_internal_error(capsys, monkeypatch):
    # hold ranges never reach a corner, so only a defect in from_pv can
    # make the grid it built fail validation
    rect = ds.Rect
    monkeypatch.setattr(ds, "Rect", lambda lo, hi: rect((0,) * len(lo), hi))
    rc, out, err = run(capsys, "pv", str(CORPUS / "mutex.pv"))
    assert (rc, out) == (3, "")
    assert err == "internal error: from_pv: the initial corner is forbidden\n"


def test_pv_invalid_program_exits_two(capsys, tmp_path):
    prog = tmp_path / "stuck.pv"
    prog.write_text("P(m) V(m) P(n)\n", encoding="utf-8")
    rc, _, err = run(capsys, "pv", str(prog))
    assert rc == 2
    assert "never released" in err


@pytest.mark.parametrize("text", ["", "# nothing here\n\n"],
                         ids=["empty", "comment-only"])
def test_pv_program_without_processes_exits_two(capsys, tmp_path, text):
    prog = tmp_path / "empty.pv"
    prog.write_text(text, encoding="utf-8")
    rc, out, err = run(capsys, "pv", str(prog))
    assert rc == 2
    assert out == ""
    assert "no processes" in err


# ---------------------------------------------------------------------------
# input that is not UTF-8 text is unusable input


def _not_utf8(path):
    """Splice one Latin-1 byte into the second line of a text file."""
    head, tail = path.read_bytes().split(b"\n", 1)
    path.write_bytes(head + b"\n  \xe9" + tail)


@pytest.mark.parametrize("command, name, bad", [
    ("check", "transport.dtt", "transport.dtt"),
    ("pv", "mutex.pv", "mutex.pv"),
    ("wfs", "cats/two.fincat", "two.fincat"),
    ("interp", "scenarios/transport.scn", "transport.scn"),
    ("interp", "scenarios/transport.scn", "transport.dtt"),
    ("interp", "scenarios/transport.scn", "world.fincat"),
], ids=["check", "pv", "wfs", "interp-scn", "interp-dtt", "interp-fincat"])
def test_non_utf8_input_exits_two_naming_the_file(capsys, tmp_path, command,
                                                  name, bad):
    given = CORPUS / name
    for p in given.parent.glob("*"):
        if p.is_file():
            (tmp_path / p.name).write_bytes(p.read_bytes())
    _not_utf8(tmp_path / bad)
    rc, out, err = run(capsys, command, str(tmp_path / given.name))
    assert (rc, out) == (2, "")
    assert err == (f"error: {tmp_path / bad}:2:3: not UTF-8 text (invalid "
                   "continuation byte)\n")
