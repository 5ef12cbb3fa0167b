"""Record the command line's output on a fixed set of runs, and compare
two such records.

    python tests/same_output.py dump OUT.json
    python tests/same_output.py diff A.json B.json

`dump` runs `homtt.cli.run` in-process, from the root of the checkout
this file lies in and on that checkout's `src`, over:

- every corpus file, with its command (`check`, `interp`, `wfs`, `pv`);
- the first 60 inputs of seed 1 of each benchmark workload, written by
  `perfbench/gen.write_inputs`;
- `wfs` on the collapse of `chain_n` onto `chain_m` for every
  1 <= m <= n <= 8 (cut points spread evenly), larger categories than
  the benchmark's n <= 5;
- the refusal tables, which exit 2: the programs of
  `test_cli.PV_REFUSALS` with `pv` and the files of
  `test_cli.FINCAT_REFUSALS` with `wfs`;
- the first 20 seeded mutants of `test_fuzz.make_mutant` per command,
  which exit 0, 1 or 2;
- the argument lists of `test_cli.FRONT_DOOR`, run through
  `homtt.cli.main` with `SystemExit` caught and `COLUMNS=80`: the usage
  refusals (exit 2) and the `-h` texts (exit 0).

Generated inputs are written under `.same-output/` at the root (a
git-ignored directory, emptied first; nothing else is written but
OUT.json).  The refusal tables are read from the test modules beside
this file, so a copy of it needs `test_cli.py` and `test_fuzz.py` (and
what they import) beside it too.

Each input file runs with `--format records` and `--format human`, and with
and without `--oracle` where the command takes it.  OUT.json maps each
command line to its exit code, stdout and stderr.  The paths in the
command lines are relative to the root, so a copy of this file in
another checkout (the parent commit's, say) dumps runs that compare one
to one.  `diff` prints each command line whose run differs, or that only
one side has, and exits 1 if there is any.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = Path(".same-output")
SEED, COUNT = 1, 60
MUTANTS = 20


def _inputs():
    """(command, *paths) for each corpus file and generated input."""
    corpus = Path("corpus")
    for command, pattern in (("check", "**/*.dtt"), ("interp", "**/*.scn"),
                             ("wfs", "**/*.fincat"), ("pv", "**/*.pv")):
        for path in sorted(corpus.glob(pattern)):
            yield command, path.as_posix()
    sys.path.insert(0, str(ROOT / "perfbench"))
    import gen
    shutil.rmtree(WORK, ignore_errors=True)
    for workload in gen.WORKLOADS:
        # the first directory holds the warm-up input
        for d in gen.write_inputs(workload, SEED, COUNT, WORK / workload)[1:]:
            argv = json.loads((d / "expect.json").read_text("utf-8"))["argv"]
            yield tuple(a for a in argv
                        if a not in ("--format", "records", "--oracle"))
    yield from _chains()
    yield from _refusals()


def _chain(name, n):
    lines = [f"category {name}", "  objects " + " ".join(
        f"v{i}" for i in range(n))]
    lines += [f"  arrow m{i}_{j} : v{i} -> v{j}"
              for i in range(n) for j in range(i + 1, n)]
    lines += [f"  compose m{j}_{k} m{i}_{j} = m{i}_{k}" for i in range(n)
              for j in range(i + 1, n) for k in range(j + 1, n)]
    return lines + ["end"]


def _chains():
    """("wfs", path) for the collapse of chain_n onto chain_m."""
    work = WORK / "chains"
    work.mkdir(parents=True)
    for n in range(1, 9):
        for m in range(1, n + 1):
            # object i of chain_n goes to the block i * m // n of chain_m
            block = [i * m // n for i in range(n)]
            lines = _chain("src", n) + _chain("tgt", m)
            lines.append("functor collapse : src -> tgt")
            lines += [f"  ob v{i} -> v{b}" for i, b in enumerate(block)]
            lines += [f"  arr m{i}_{j} -> " + (
                f"id_v{block[i]}" if block[i] == block[j]
                else f"m{block[i]}_{block[j]}")
                for i in range(n) for j in range(i + 1, n)]
            path = work / f"chain{n}-{m}.fincat"
            path.write_text("\n".join([*lines, "end"]) + "\n",
                            encoding="utf-8")
            yield "wfs", path.as_posix()


def _refusals():
    """(command, path) for each refusal table entry and seeded mutant."""
    sys.path.insert(0, str(ROOT / "tests"))
    import test_cli
    import test_fuzz
    work = WORK / "refusals"
    work.mkdir(parents=True)
    for command, table, suffix in (
            ("pv", test_cli.PV_REFUSALS, ".pv"),
            ("wfs", test_cli.FINCAT_REFUSALS, ".fincat")):
        for name, text, _ in table:
            path = work / f"{name}{suffix}"
            path.write_text(text, encoding="utf-8")
            yield command, path.as_posix()
    for command in test_fuzz.INPUTS:
        for n in range(MUTANTS):
            d = WORK / "mutants" / command / str(n)
            d.mkdir(parents=True)
            yield command, test_fuzz.make_mutant(command, n, d).as_posix()


def dump(out):
    out = Path(out).resolve()
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    from homtt import cli
    if ROOT / "src" not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"imported homtt from {cli.__file__}, "
                         f"not from {ROOT / 'src'}")
    runs = {}
    for command, *paths in _inputs():
        for fmt in ("records", "human"):
            for oracle in ([], ["--oracle"]) if command != "check" else [[]]:
                argv = [command, "--format", fmt, *oracle, *paths]
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stderr(stderr):
                    rc = cli.run(cli.parse_args(argv), stdout)
                runs[" ".join(argv)] = {"exit": rc,
                                        "stdout": stdout.getvalue(),
                                        "stderr": stderr.getvalue()}
    # the texts argparse printed were wrapped to $COLUMNS
    os.environ["COLUMNS"] = "80"
    import test_cli
    for _, argv, *_ in test_cli.FRONT_DOOR:
        rc, stdout, stderr = test_cli.front_door(argv)
        runs[" ".join(["homtt", *argv])] = {"exit": rc, "stdout": stdout,
                                            "stderr": stderr}
    out.write_text(json.dumps(runs, indent=1, sort_keys=True) + "\n",
                   encoding="utf-8")
    print(f"{len(runs)} runs written to {out}")
    return 0


def diff(a, b):
    left, right = (json.loads(Path(p).read_text("utf-8")) for p in (a, b))
    keys = sorted(left.keys() | right.keys())
    differ = [key for key in keys if left.get(key) != right.get(key)]
    for key in differ:
        if key not in left or key not in right:
            print(f"{key}: only in {a if key in left else b}")
        else:
            parts = [p for p in ("exit", "stdout", "stderr")
                     if left[key][p] != right[key][p]]
            print(f"{key}: {', '.join(parts)} differ")
    print(f"{len(differ)} of {len(keys)} runs differ")
    return 1 if differ else 0


if __name__ == "__main__":
    match sys.argv[1:]:
        case ["dump", out]:
            sys.exit(dump(out))
        case ["diff", a, b]:
            sys.exit(diff(a, b))
        case _:
            sys.exit(__doc__.split("\n\n")[1])
