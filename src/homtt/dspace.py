"""Directed grid models of lock-based concurrent programs.

Each process contributes one axis; its lock (P) and unlock (V) events
become interior boundary ticks, so an axis with k events has k+2 ticks
and k+1 unit cells between them.  A program state is a cell, one interval
per axis.  Two processes holding the same semaphore at once is impossible,
which forbids the closed tick-rectangle spanned by the matching P..V
ranges; a cell is forbidden when it lies wholly inside such a rectangle.
Execution only moves forward: one axis at a time, one cell up.  Reachable
cells are the forward closure of the all-zeros corner, safe cells the
backward closure of the all-ones corner.  Each closure is a link table:
every cell maps to its neighbour one step back toward the corner, which
maps to None, so following links from any cell retraces a witness path.

Deadlocks come from rectangle corners (Fajstrup, Goubault and Raussen,
Detecting deadlocks in concurrent systems, CONCUR 1998): a step along
axis a out of an allowed cell c enters a rectangle R only if R.lo[a] is
c[a] + 1, so a deadlock has on each axis the last index or an R.lo[a] - 1.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations, product

from .kernel import InternalError


class PvError(Exception):
    """A malformed program, event string, or grid description."""


@dataclass(frozen=True)
class Rect:
    """A closed axis-aligned block in tick coordinates."""

    lo: tuple
    hi: tuple


@dataclass(frozen=True)
class DirectedGridSpace:
    """A grid of cells with forbidden rectangles.

    ticks holds the ordered boundary labels per axis; there is one cell
    between each adjacent pair, addressed by the index of its lower tick.
    """

    ticks: tuple
    forbidden: tuple = ()

    @property
    def dims(self):
        return len(self.ticks)

    @cached_property
    def shape(self):
        return tuple(len(t) - 1 for t in self.ticks)

    @cached_property
    def blocked(self):
        return forbidden_cells(self)

    @property
    def initial(self):
        return (0,) * self.dims

    @property
    def final(self):
        return tuple(n - 1 for n in self.shape)

    def validate(self):
        out = []
        for a, t in enumerate(self.ticks):
            if len(t) < 2:
                out.append(f"axis {a} needs at least two boundary ticks")
        for r in self.forbidden:
            if len(r.lo) != self.dims or len(r.hi) != self.dims:
                out.append(f"rectangle {r} does not span every axis")
                continue
            for a in range(self.dims):
                if not 0 <= r.lo[a] <= r.hi[a] <= len(self.ticks[a]) - 1:
                    out.append(f"rectangle {r} leaves the grid on axis {a}")
                    break
        if not out:
            blocked = self.blocked
            if self.initial in blocked:
                out.append("the initial corner is forbidden")
            if self.final in blocked:
                out.append("the final corner is forbidden")
        return out


def forbidden_cells(space):
    """The cells lying wholly inside some closed tick rectangle."""
    axes = range(space.dims)
    return frozenset(chain.from_iterable(
        product(*(range(r.lo[a], r.hi[a]) for a in axes))
        for r in space.forbidden))


def states(space):
    return product(*(range(n) for n in space.shape))


# ---------------------------------------------------------------------------
# programs


@dataclass(frozen=True)
class PVProgram:
    """One event sequence per process; events are ("P"|"V", semaphore)."""

    processes: tuple

    def validate(self):
        out = []
        for i, evs in enumerate(self.processes):
            held = Counter()
            for j, (op, s) in enumerate(evs):
                if op == "P":
                    if held[s]:
                        out.append(f"process {i + 1}, event {j + 1}: "
                                   f"P({s}) while already held")
                    held[s] += 1
                else:
                    if not held[s]:
                        out.append(f"process {i + 1}, event {j + 1}: "
                                   f"V({s}) without a matching P")
                    else:
                        held[s] -= 1
            for s in sorted(s for s, n in held.items() if n):
                out.append(f"process {i + 1}: P({s}) is never released")
        return out


_EVENT = re.compile(r"([PV])\((\w+)\)\Z")


def parse_pv(text, path="<input>"):
    """One line per process; events whitespace-separated, P(s) or V(s)."""
    procs = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        events = []
        for tok in line.split():
            m = _EVENT.match(tok)
            if m is None:
                raise PvError(f"{path}:{ln}: cannot read event {tok!r}")
            events.append((m.group(1), m.group(2)))
        procs.append(tuple(events))
    if not procs:
        raise PvError(f"{path}: no processes")
    return PVProgram(tuple(procs))


def from_pv(prog):
    """Build the grid space of a program.

    Ticks: 0, then one labeled tick per event (L for P, U for V, tagged
    with the semaphore and the process letter), then 1.  For every
    semaphore and every pair of processes locking it, each pair of hold
    ranges contributes one forbidden rectangle spanning those ranges on
    the two axes and everything on any remaining axis.
    """
    bad = prog.validate()
    if bad:
        raise PvError(bad[0])
    if len(prog.processes) > 3:
        raise PvError(f"{len(prog.processes)} processes, at most 3 supported")
    for i, evs in enumerate(prog.processes):
        if len(evs) > 16:
            raise PvError(f"process {i + 1}: {len(evs)} events, "
                          "at most 16 supported")
    names = "ABC"
    ticks = []
    holds = []
    for i, evs in enumerate(prog.processes):
        labels = ["0"]
        open_at = {}
        ranges = {}
        for j, (op, s) in enumerate(evs):
            tick = j + 1
            labels.append(f"{'L' if op == 'P' else 'U'}_{s}^{names[i]}")
            if op == "P":
                open_at[s] = tick
            else:
                ranges.setdefault(s, []).append((open_at.pop(s), tick))
        labels.append("1")
        ticks.append(tuple(labels))
        holds.append(ranges)
    dims = len(ticks)
    top = [len(t) - 1 for t in ticks]
    rects = []
    for s in sorted({s for r in holds for s in r}):
        for i, j in combinations(range(dims), 2):
            for p1, v1 in holds[i].get(s, ()):
                for p2, v2 in holds[j].get(s, ()):
                    lo, hi = [0] * dims, list(top)
                    lo[i], hi[i] = p1, v1
                    lo[j], hi[j] = p2, v2
                    rects.append(Rect(tuple(lo), tuple(hi)))
    space = DirectedGridSpace(tuple(ticks), tuple(rects))
    # hold ranges start at tick 1 or later and end before the last tick,
    # so no rectangle covers a corner: a problem here is a defect in this code
    bad = space.validate()
    if bad:
        raise InternalError(f"from_pv: {bad[0]}")
    return space


# ---------------------------------------------------------------------------
# reachability


def _step(space, c, a, d):
    v = c[a] + d
    if not 0 <= v < space.shape[a]:
        return None
    return c[:a] + (v,) + c[a + 1:]


def _closure(space, start, d):
    """Closure of start by unit steps of sign d, as a link table.

    Every step raises (d = 1) or lowers (d = -1) one coordinate, so one
    sweep in lexicographic order (reversed for d = -1) meets each cell
    after all of its predecessors.  A cell is in the closure iff it is
    allowed and some predecessor already is; it links to the first such
    predecessor, and start links to None.  Numbered in sweep order, a cell
    off start's face on axis a has its predecessor there a stride back.
    """
    blocked = space.blocked
    links = {}
    if start in blocked:
        return links
    links[start] = None
    shape = space.shape
    cells = list(product(*(range(n)[::d] for n in shape)))
    axes, stride = [], 1
    for a in reversed(range(len(shape))):
        axes.insert(0, (a, stride, start[a]))
        stride *= shape[a]
    inside = bytearray(len(cells))
    inside[0] = 1
    for i, c in enumerate(cells):
        if c in blocked:
            continue
        for a, stride, edge in axes:
            if c[a] != edge and inside[i - stride]:
                links[c] = cells[i - stride]
                inside[i] = 1
                break
    return links


def reachable(space):
    """Forward closure of the initial corner; cell to the cell before it."""
    return _closure(space, space.initial, +1)


def safe(space):
    """Backward closure of the final corner; cell to the cell after it."""
    return _closure(space, space.final, -1)


def deadlocks(report):
    """Reachable non-final cells with no legal forward step, in order.

    Fajstrup, Goubault and Raussen (CONCUR 1998): a step along axis a out
    of an allowed cell c is blocked only by a rectangle R with R.lo[a] =
    c[a] + 1, so only cells made of R.lo[a] - 1 and last indices qualify.
    """
    space = report.space
    blocked = space.blocked
    final = space.final
    ends = tuple(enumerate(final))
    axes = [sorted({r.lo[a] - 1 for r in space.forbidden if r.lo[a] > 0}
                   | {last}) for a, last in ends]
    dead = []
    for c in product(*axes):
        if c in report.reachable and c != final:
            for a, last in ends:
                if c[a] != last and \
                        c[:a] + (c[a] + 1,) + c[a + 1:] not in blocked:
                    break
            else:
                dead.append(c)
    return tuple(dead)


@dataclass(frozen=True)
class RegionReport:
    """Reachability analysis of one space, as two link tables.

    The forward table is built with the report; the backward one, safe,
    on first read, since verdicts and deadlocks need only the forward one.
    """

    space: DirectedGridSpace
    reachable: dict

    @cached_property
    def safe(self):
        return safe(self.space)

    @property
    def unreachable(self):
        return self._complement(self.reachable)

    @property
    def unsafe(self):
        return self._complement(self.safe)

    def _complement(self, got):
        blocked = self.space.blocked
        return tuple(c for c in states(self.space)
                     if c not in blocked and c not in got)

    def validate(self):
        """Local certificate that each table is exactly its closure.

        The anchor is present unless forbidden, no entry is forbidden,
        every other entry links to an entry one unit step back, and every
        allowed step out of an entry stays in the table.  Induction on the
        coordinate sum then gives table = closure, in O(cells * dims).
        """
        out = []
        space = self.space
        blocked = space.blocked
        axes = range(space.dims)
        ends = (("reachable", self.reachable, space.initial, +1),
                ("safe", self.safe, space.final, -1))
        for name, table, anchor, d in ends:
            if anchor not in blocked and anchor not in table:
                out.append(f"{name}: the anchor {anchor} is missing")
            for c, p in table.items():
                if c in blocked:
                    out.append(f"{name}: {c} is forbidden")
                    continue
                if c != anchor and p not in table:
                    out.append(f"{name}: {c} links to {p}, "
                               "which is not in the table")
                elif c != anchor and all(_step(space, p, a, d) != c
                                         for a in axes):
                    out.append(f"{name}: {c} links to {p}, "
                               "not one unit step back")
                for a in axes:
                    n = _step(space, c, a, d)
                    if n is not None and n not in blocked \
                            and n not in table:
                        out.append(f"{name}: the step from {c} "
                                   f"to {n} leaves the table")
        return out


def analyze(space):
    """The report of space: its forward closure now, safe when read."""
    return RegionReport(space, reachable(space))


def render(report):
    """Two-axis ASCII rendering, first axis rightward, second upward.

    '#' forbidden, 'B' reachable and safe, 'R' reachable only, 'S' safe
    only, '.' neither.
    """
    space = report.space
    if space.dims != 2:
        raise ValueError("rendering needs exactly two axes")
    blocked = space.blocked
    lines = []
    for y in reversed(range(space.shape[1])):
        row = []
        for x in range(space.shape[0]):
            c = (x, y)
            if c in blocked:
                row.append("#")
            elif c in report.reachable:
                row.append("B" if c in report.safe else "R")
            elif c in report.safe:
                row.append("S")
            else:
                row.append(".")
        lines.append("".join(row))
    return "\n".join(lines) + "\n"
