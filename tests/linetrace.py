"""Opt-in pytest plugin: the lines of src/homtt that no test runs.

Run from the root of a checkout:

    PYTHONPATH=src:tests python -m pytest -q -p linetrace

A sys.settrace line tracer records each line run in src/homtt.  It is
installed again before every test, because a RecursionError (the
deep-chain tests raise one on purpose) switches a tracer off.  At the end
of the session the executable lines that never ran are printed per file,
as line ranges.  Tier-1 does not load this plugin; tracing makes the
suite several times slower.
"""

from __future__ import annotations

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "homtt"
_ran = set()  # (file name, line) of every line run in SRC


def _local(frame, event, arg):
    if event == "line":
        _ran.add((frame.f_code.co_filename, frame.f_lineno))
    return _local


def _global(frame, event, arg):
    if frame.f_code.co_filename.startswith(str(SRC)):
        _ran.add((frame.f_code.co_filename, frame.f_lineno))
        return _local
    return None


def executable_lines(path):
    """The lines of a file that carry bytecode, from all its code objects."""
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    lines = set()
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def ranges(lines):
    """Sorted line numbers as "a-b" runs of consecutive numbers."""
    out = []
    for n in sorted(lines):
        if out and out[-1][1] == n - 1:
            out[-1][1] = n
        else:
            out.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in out)


def pytest_configure(config):
    sys.settrace(_global)


def pytest_runtest_setup(item):
    sys.settrace(_global)


def pytest_unconfigure(config):
    sys.settrace(None)


def pytest_terminal_summary(terminalreporter):
    write = terminalreporter.write_line
    total = missed = 0
    terminalreporter.section("src/homtt lines never run")
    for path in sorted(SRC.glob("*.py")):
        lines = executable_lines(path)
        never = {n for n in lines if (str(path), n) not in _ran}
        total += len(lines)
        missed += len(never)
        if never:
            write(f"{path.name}: {ranges(never)}")
    write(f"{missed} of {total} executable lines never ran")
