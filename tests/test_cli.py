"""End-to-end runs of the command line front-end over the corpus."""

import os
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
    cfg = cli.parse_args(["pv", "x.pv", "--oracle", "--size-cap", "9",
                          "--format", "records"])
    assert cfg.command == "pv" and cfg.oracle
    assert cfg.size_cap == 9 and cfg.format == "records"


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
    assert cli._cap(cli.RunConfig("pv", (), size_cap=10**9),
                    wfs.BRUTE_CAP) == wfs.BRUTE_CAP
    assert cli._cap(cli.RunConfig("pv", (), size_cap=-5), 64) == 1
    assert cli._cap(cli.RunConfig("pv", ()), 64) == 64


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


@pytest.mark.parametrize("name", ["star", "two", "z2", "chain3", "grid22"])
def test_wfs_runs_on_single_category_files(capsys, name):
    rc, out, _ = run(capsys, "wfs", str(CORPUS / "cats" / f"{name}.fincat"))
    assert rc == 0
    assert f"{name} : alpha-functorial OK" in out


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
    ("nat eta : idtwo => idtwo\n  at 0 : a\n  at 1 : id_1\nend\n",
     "'eta': component at 0 has wrong endpoints"),
    ("square sq\n  left sa\n  right idtwo\n  top sa\n  bottom nope\nend\n",
     "'sq': unknown functor 'nope'"),
], ids=["nat", "square"])
def test_wfs_bad_nat_or_square_exits_two(capsys, tmp_path, block, problem):
    text = (CORPUS / "scenarios" / "world.fincat").read_text(encoding="utf-8")
    broken = tmp_path / "broken.fincat"
    broken.write_text(text + "\n" + block, encoding="utf-8")
    rc, out, err = run(capsys, "wfs", str(broken))
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and problem in err
    assert "Traceback" not in err


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


def test_pv_clean_programs_pass_with_oracle(capsys):
    rc, out, _ = run(capsys, "pv", "--oracle", "--format", "records",
                     str(CORPUS / "interval.pv"), str(CORPUS / "mutex.pv"),
                     str(CORPUS / "threeway.pv"))
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 9
    assert all(line.split("\t")[2] == "ok" for line in lines)


def test_pv_closure_oracle_ignores_the_size_cap(capsys):
    rc, out, _ = run(capsys, "pv", "--oracle", "--size-cap", "10",
                     "--format", "records", str(CORPUS / "interval.pv"),
                     str(CORPUS / "swissflag.pv"))
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
    assert set(ds.reachable(space)) == oracles.closure_cells(space, True)
    assert set(ds.safe(space)) == oracles.closure_cells(space, False)
    rc, out, _ = run(capsys, "pv", "--oracle", "--format", "records",
                     str(prog))
    assert rc == 1  # it deadlocks
    assert "closure-oracle\t" + str(prog) + "\tok\t\n" in out


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
