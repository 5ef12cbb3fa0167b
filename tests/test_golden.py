"""The `--format records` stream over the whole corpus, against a checked-in copy.

Regenerate the golden file (only when a behaviour change is intended) with

    PYTHONPATH=src python tests/test_golden.py > tests/golden/corpus.records
"""

import io
import os
from pathlib import Path

import homtt.cli as cli

REPO = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden" / "corpus.records"


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


def records_stream():
    """One block per invocation: the command line, its records, its exit code.

    Paths are given relative to the repository root (resolved through
    $HOMTT_CORPUS), so the stream does not depend on where the tree lives.
    """
    saved = os.environ.get(cli.CORPUS_VAR)
    os.environ[cli.CORPUS_VAR] = str(REPO)
    try:
        out = []
        for argv in _invocations():
            buf = io.StringIO()
            rc = cli.run(cli.parse_args([*argv, "--format", "records"]), buf)
            out.append(f"== {' '.join(argv)}\n{buf.getvalue()}exit {rc}\n")
        return "".join(out)
    finally:
        if saved is None:
            del os.environ[cli.CORPUS_VAR]
        else:
            os.environ[cli.CORPUS_VAR] = saved


def test_corpus_records_match_the_golden_stream():
    assert records_stream() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    print(records_stream(), end="")
