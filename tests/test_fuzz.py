"""The exit-code contract on seeded mutants of the corpus.

Each mutant is a corpus input with one or two random edits: a word
replaced by another word of the same file, a character dropped or
inserted, a line dropped or repeated.  A scenario mutant edits one of
its `.scn`, `.dtt` or `.fincat` files.  Every run must exit 0, 1 or 2
without an exception escaping `cli.run`, and it must exit 1 exactly
when it reports a FAIL record.  Half the runs of each subcommand take
`--oracle`.
"""

import contextlib
import io
import random
import re
import shutil
from pathlib import Path

import pytest

import homtt.cli as cli

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
SCENARIOS = CORPUS / "scenarios"

# inputs per subcommand and the mutants made of them; scenario runs cost
# the most, so they get the fewest
INPUTS = {
    "check": ([*sorted(CORPUS.glob("*.dtt")),
               *sorted((CORPUS / "rules").glob("*.dtt"))], 150),
    "pv": (sorted(CORPUS.glob("*.pv")), 60),
    "wfs": ([*sorted((CORPUS / "cats").glob("*.fincat")),
             SCENARIOS / "world.fincat"], 60),
    "interp": (sorted(SCENARIOS.glob("*.scn")), 60),
}

CHARS = "()[]{},.:;=#*->_'\n 01ABPVabcixy"
WORD = re.compile(r"[A-Za-z0-9_']+")


def _words(text):
    """The spans of the words of text but the first on each line, which
    opens a declaration, a block or a block line."""
    out, start = [], 0
    for line in text.splitlines(keepends=True):
        out += [(start + m.start(), start + m.end())
                for m in WORD.finditer(line)][1:]
        start += len(line)
    return out


def mutate(text, rng):
    """One or two edits, most of them a word replaced by another word of
    the text, so that many mutants still parse."""
    for _ in range(rng.choice((1, 1, 2))):
        pos = rng.randrange(len(text) + 1)
        lines = text.splitlines(keepends=True) or [""]
        i = rng.randrange(len(lines))
        words = _words(text)
        match rng.choice(("word", "word", "word", "drop", "insert",
                          "drop-line", "repeat-line")):
            case "word" if words:
                a, b = rng.choice(words)
                c, d = rng.choice(words)
                text = text[:a] + text[c:d] + text[b:]
            case "drop":
                text = text[:pos] + text[pos + 1:]
            case "insert":
                text = text[:pos] + rng.choice(CHARS) + text[pos:]
            case "drop-line":
                del lines[i]
                text = "".join(lines)
            case _:
                lines.insert(rng.randrange(len(lines) + 1), lines[i])
                text = "".join(lines)
    return text


def make_mutant(command, n, tmp_path):
    """The path of mutant n of a subcommand's inputs, written to tmp_path."""
    rng = random.Random(f"{command}-{n}")
    given = rng.choice(INPUTS[command][0])
    victim = given
    if command == "interp":
        # the scenario and every file beside it, one of its own mutated
        for p in SCENARIOS.iterdir():
            shutil.copy(p, tmp_path / p.name)
        uses = re.findall(r"^(?:source|fincat) (\S+)",
                          given.read_text(encoding="utf-8"), re.M)
        victim = SCENARIOS / rng.choice([given.name, *uses])
    text = victim.read_text(encoding="utf-8")
    (tmp_path / victim.name).write_text(mutate(text, rng), encoding="utf-8")
    return tmp_path / given.name


@pytest.mark.parametrize("command", list(INPUTS))
def test_mutants_keep_the_exit_code_contract(command, tmp_path):
    breaches = []
    for n in range(INPUTS[command][1]):
        work = tmp_path / str(n)
        work.mkdir()
        cfg = cli.RunConfig(command, (str(make_mutant(command, n, work)),),
                            oracle=n % 2 == 1, format="records")
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stderr(err):
                rc = cli.run(cfg, out)
        except Exception as exc:  # any exception escaping run is a breach
            breaches.append((n, "raised", repr(exc)))
            continue
        if rc not in (0, 1, 2) or (rc == 1) != ("\tFAIL\t" in out.getvalue()):
            breaches.append((n, rc, err.getvalue().strip()))
    assert not breaches, breaches[:5]
