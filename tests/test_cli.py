"""End-to-end runs of the command line front-end over the corpus."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import homtt.checker as ch
import homtt.cli as cli
import homtt.kernel as k

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


def test_missing_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.parse_args([])
    assert exc.value.code == 2


def test_size_cap_never_exceeds_the_hard_cap():
    assert cli._cap(cli.RunConfig("pv", (), size_cap=10**9),
                    cli.BRUTE_CAP) == cli.BRUTE_CAP
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


def test_interp_bad_scenario_exits_two(capsys, tmp_path):
    scn = tmp_path / "x.scn"
    scn.write_text("fincat nowhere.fincat\n", encoding="utf-8")
    rc, _, err = run(capsys, "interp", str(scn))
    assert rc == 2
    assert "source" in err


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


def test_pv_oracle_cap_refusal_is_a_failure(capsys):
    rc, out, _ = run(capsys, "pv", "--oracle", "--size-cap", "10",
                     "--format", "records", str(CORPUS / "interval.pv"),
                     str(CORPUS / "swissflag.pv"))
    assert rc == 1
    assert "closure-oracle\t" + str(CORPUS / "interval.pv") + "\tok" in out
    assert ("closure-oracle\t" + str(CORPUS / "swissflag.pv")
            + "\tFAIL\tgrid with 25 cells exceeds the enumeration cap 10"
            in out)


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
