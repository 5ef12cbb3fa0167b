"""The report streams over the whole corpus, against checked-in copies.

`tests/golden/corpus.records` pins the `--format records` stream of every
corpus invocation; `tests/golden/corpus.human` pins the `--format human`
stream of the same invocations plus one multi-file run per subcommand.
`tests/golden/pv-generated.results` pins `pv` on 60 seeded generated
programs, one line per run: the command line, the exit code, and stdout
and stderr as JSON strings.  Regenerate a golden file (only when a
behaviour change is intended) with

    PYTHONPATH=src python tests/test_golden.py records > tests/golden/corpus.records
    PYTHONPATH=src python tests/test_golden.py human > tests/golden/corpus.human
    PYTHONPATH=src python tests/test_golden.py generated > tests/golden/pv-generated.results
"""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import homtt.cli as cli
from test_dspace import random_program

REPO = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

# several files in one run: one `== path` block each, one summary line; a
# file that cannot be used fails the whole run before anything is printed
MULTI_FILE = [
    ("check", "corpus/bad-intro.dtt", "corpus/comp.dtt"),
    ("check", "corpus/comp.dtt", "corpus/interval.pv"),
    ("interp", "--oracle", "corpus/scenarios/comp.scn",
     "corpus/scenarios/transport.scn"),
    ("wfs", "--oracle", "corpus/cats/two.fincat",
     "corpus/scenarios/world.fincat"),
    ("pv", "--oracle", "corpus/mutex.pv", "corpus/threeway.pv"),
]


def _invocations():
    corpus = REPO / "corpus"

    def rel(pattern):
        return sorted(p.relative_to(REPO).as_posix()
                      for p in corpus.glob(pattern))

    runs = [("check", p) for p in rel("**/*.dtt")]
    runs += [("interp", "--oracle", p) for p in rel("scenarios/*.scn")]
    runs += [("wfs", "--oracle", p)
             for p in rel("cats/*.fincat") + rel("scenarios/world.fincat")]
    runs += [("pv", "--oracle", p) for p in rel("*.pv")]
    return runs


def _stream(fmt, invocations):
    """One block per invocation: the command line, its report, its exit code.

    Paths are given relative to the repository root, the working directory
    for the duration, so the stream does not depend on where the tree lives.
    """
    saved = os.getcwd()
    os.chdir(REPO)
    try:
        out = []
        for argv in invocations:
            buf = io.StringIO()
            rc = cli.run(cli.parse_args([*argv, "--format", fmt]), buf)
            out.append(f"== {' '.join(argv)}\n{buf.getvalue()}exit {rc}\n")
        return "".join(out)
    finally:
        os.chdir(saved)


def records_stream():
    return _stream("records", _invocations())


def human_stream():
    return _stream("human", _invocations() + MULTI_FILE)


PV_MODES = [("--format", "records"), ("--format", "records", "--oracle"),
            ("--format", "human")]


def generated_stream():
    """Each mode of `pv` on the programs seeded pv-modes/0 to 59, run as
    p00.pv to p59.pv from a scratch working directory."""
    saved = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            out = []
            for i in range(60):
                name = f"p{i:02}.pv"
                Path(name).write_text(
                    random_program(random.Random(f"pv-modes/{i}")),
                    encoding="utf-8")
                for flags in PV_MODES:
                    argv = ("pv", *flags, name)
                    buf, err = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stderr(err):
                        rc = cli.run(cli.parse_args(list(argv)), buf)
                    out.append("\t".join((" ".join(argv), str(rc),
                                          json.dumps(buf.getvalue()),
                                          json.dumps(err.getvalue()))) + "\n")
            return "".join(out)
        finally:
            os.chdir(saved)


def test_corpus_records_match_the_golden_stream():
    want = (GOLDEN / "corpus.records").read_text(encoding="utf-8")
    assert records_stream() == want


def test_corpus_human_report_matches_the_golden_stream():
    want = (GOLDEN / "corpus.human").read_text(encoding="utf-8")
    assert human_stream() == want


@pytest.mark.parametrize("seed", ["0", "1"])
def test_corpus_records_do_not_depend_on_the_hash_seed(seed):
    # categories keep their cells in the order they are built, so no
    # set or dict order that moves with string hashing may reach a report
    path = os.pathsep.join(filter(None, [str(REPO / "src"),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, __file__, "records"], capture_output=True,
        text=True, cwd=REPO,
        env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path})
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == (GOLDEN / "corpus.records").read_text(
        encoding="utf-8")


def test_generated_pv_runs_match_the_golden_results():
    want = (GOLDEN / "pv-generated.results").read_text(encoding="utf-8")
    assert generated_stream() == want


if __name__ == "__main__":
    streams = {"records": records_stream, "human": human_stream,
               "generated": generated_stream}
    print(streams[sys.argv[1] if len(sys.argv) > 1 else "records"](), end="")
