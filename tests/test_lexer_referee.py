"""The .dtt lexer against the token-object referee in `oracles.lex_dtt`.

Inputs are the corpus .dtt files, wtgen files printed with
`print_source`, and malformed variants of a few of them: stray
characters inserted, files cut short, comments holding stray text, tabs,
and every line break `str.splitlines` knows.  For each input the engine's
token texts must equal the referee's, each parsed declaration must sit on
the line of its keyword token, and the parse outcome (declaration lines,
or the `path:line:col: msg` of the ParseError) must equal the pinned
stream.  Regenerate the pinned stream (only when a behaviour change is
intended) with

    PYTHONPATH=src python tests/test_lexer_referee.py > tests/golden/dtt-variants.results
"""

import functools
import random
from pathlib import Path

import pytest

import oracles
import surface
import wtgen
from homtt import kernel as k
from homtt import parser as ps

REPO = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden" / "dtt-variants.results"
DECL_KEYWORDS = ("assume", "define", "assert")
STRAYS = ("=", "1", "'", "@")
LINE_BREAKS = ("\r\n", "\r", "\x0c", "\v", "\x1c", "\x85", "\u2028")
VARIANT_BASES = ("corpus/comp.dtt", "corpus/transport.dtt",
                 "corpus/rules/elim-left-bad.dtt", "wtgen-1.dtt")


def _wtgen_file(seed, count):
    T = k.BaseT("T")
    decls = [ps.AssumeType("T", ()), ps.AssumeType("S", (("x", T),))]
    decls += [ps.AssumeTerm(f"c{a}", (), k.Core(T)) for a in wtgen.POINTS]
    decls += [ps.AssumeTerm(f"g{a}{b}", (), wtgen.hom_type(a, b))
              for a in wtgen.POINTS for b in wtgen.POINTS]
    decls += [ps.AssumeTerm(f"s{b}", (), wtgen.section_type(b))
              for b in wtgen.POINTS]
    decls += [ps.Define(f"d{n}", (), ty, tm) for n, (tm, ty)
              in enumerate(wtgen.generate(random.Random(seed), count))]
    return surface.print_source(ps.SourceFile(tuple(decls)))


def _token_ends(text):
    """Character offset just past each referee token (text uses \\n only)."""
    starts = [0]
    for line in text.split("\n"):
        starts.append(starts[-1] + len(line) + 1)
    return [starts[t.line - 1] + t.col - 1 + len(t.text)
            for t in oracles.lex_dtt(text, "<base>")]


def _variants(name, text):
    n = len(text)
    for ch in STRAYS:
        for j in range(1, 6):
            at = n * j // 6
            yield f"{name}+{ch}@{at}", text[:at] + ch + text[at:]
    for tok in (")", "Type", "zz"):
        at = n // 3
        yield f"{name}+{tok}@{at}", text[:at] + f" {tok} " + text[at:]
    ends = _token_ends(text)
    step = max(1, len(ends) // 9)
    for i in range(0, len(ends), step):
        yield f"{name}/cut{i}", text[:ends[i]]
    lines = text.split("\n")
    yield f"{name}#trail", "\n".join(
        f"{ln}  # = 1 ' @ ( stray" if ln else ln for ln in lines)
    yield f"{name}#own-line", "# ( = @\n" + "\n#'1 (\n".join(lines)
    cut = text.index("(")
    yield f"{name}#mid", text[:cut] + "# " + text[cut:]
    yield f"{name}\\t-sep", text.replace(" ", "\t")
    yield f"{name}\\t-indent", "\n".join("\t" + ln for ln in lines)
    yield f"{name}\\t-stray", "\n".join("\t" + ln for ln in lines).replace(
        "\t", "\t@", 3)
    for brk in LINE_BREAKS:
        tag = f"{name}{brk.encode('unicode_escape').decode()}"
        broken = text.replace("\n", brk)
        yield tag, broken
        at = len(broken) * 2 // 3
        yield f"{tag}+=@{at}", broken[:at] + "=" + broken[at:]
        yield f"{tag}+)@{at}", broken[:at] + " ) " + broken[at:]
        yield f"{tag}/cut", broken[:len(broken) * 3 // 5]


def inputs():
    """(name, text) pairs; the name is also the path a ParseError cites."""
    files = [(p.relative_to(REPO).as_posix(), p.read_text(encoding="utf-8"))
             for p in sorted(REPO.glob("corpus/**/*.dtt"))]
    files += [(f"wtgen-{seed}.dtt", _wtgen_file(seed, count))
              for seed, count in ((1, 6), (2, 25), (3, 60))]
    out = list(files)
    for name, text in files:
        if name in VARIANT_BASES:
            out += _variants(name, text)
    return out


def _engine_tokens(text, path):
    return ps._lex_dtt(text, path)[0]


def outcome(name, text):
    try:
        src = ps.parse_dtt(text, name)
    except k.ParseError as err:
        return f"err {err}"
    return "ok " + " ".join(str(d.line) for d in src.decls)


def results_stream():
    return "".join(f"{name}\t{outcome(name, text)}\n"
                   for name, text in inputs())


@functools.cache
def _pinned():
    rows = GOLDEN.read_text(encoding="utf-8").splitlines()
    return dict(row.split("\t", 1) for row in rows)


INPUTS = inputs()


def test_inputs_have_distinct_names_and_cover_both_outcomes():
    names = [name for name, _ in INPUTS]
    assert len(set(names)) == len(names)
    kinds = {outcome(name, text).split()[0] for name, text in INPUTS}
    assert kinds == {"ok", "err"}


@pytest.mark.parametrize("name, text", INPUTS, ids=[n for n, _ in INPUTS])
def test_lexer_and_parse_outcome_match_the_referee(name, text):
    try:
        ref = oracles.lex_dtt(text, name)
    except k.ParseError as err:
        with pytest.raises(k.ParseError) as got:
            _engine_tokens(text, name)
        assert str(got.value) == str(err)
        ref = None
    else:
        assert _engine_tokens(text, name) == [t.text for t in ref]
    result = outcome(name, text)
    assert result == _pinned()[name]
    if result.startswith("ok"):
        keyword_lines = [t.line for t in ref if t.text in DECL_KEYWORDS]
        assert result == "ok " + " ".join(map(str, keyword_lines))


if __name__ == "__main__":
    print(results_stream(), end="")
