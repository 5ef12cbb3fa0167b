"""Directed grid models of lock-based concurrent programs.

Each process contributes one axis; its lock (P) and unlock (V) events
become interior boundary ticks, so an axis with k events has k+2 ticks
and k+1 unit cells between them.  A program state is a cell, one interval
per axis.  Two processes holding the same semaphore at once is impossible,
which forbids the closed tick-rectangle spanned by the matching P..V
ranges; a cell is forbidden when it lies wholly inside such a rectangle.
Execution only moves forward: one axis at a time, one cell up.  Reachable
cells are the forward closure of the all-zeros corner, safe cells the
backward closure of the all-ones corner.

Regions of cells are row masks: a row is a cell's coordinates on every
axis but the last, and one int per row has bit x set for the cell at x on
the last axis.  The forbidden region is built straight from the
rectangles, and each closure is one sweep over the rows with whole-row
int operations.  Read as a link table, a closure maps every cell to its
neighbour one step back toward the corner, which maps to None, so
following links from any cell retraces a witness path.

Deadlocks are a row scan too (Fajstrup, Goubault and Raussen, Detecting
deadlocks in concurrent systems, CONCUR 1998): a reachable cell is stuck
when on every axis it is at the last index or its next cell is
forbidden, which for a whole row is a few masks ANDed together.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, product

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
        """The forbidden cells as row masks.

        A row is a cell's coordinates on every axis but the last; rows
        are numbered in lexicographic order, and bit x of a row's mask is
        the cell at x on the last axis.
        """
        *head, width = self.shape
        strides = _strides(head)
        rows = [0] * math.prod(head)
        for r in self.forbidden:
            bits = (1 << r.hi[-1]) - (1 << r.lo[-1])
            covered = [0]
            for a, s in enumerate(strides):
                covered = [i + v * s for i in covered
                           for v in range(r.lo[a], r.hi[a])]
            for i in covered:
                rows[i] |= bits
        return tuple(rows)

    def is_blocked(self, c):
        return _holds(self.shape, self.blocked, c)

    @property
    def initial(self):
        return (0,) * self.dims

    @property
    def final(self):
        return tuple(n - 1 for n in self.shape)

    def validate(self):
        out = [] if self.ticks else ["the grid has no axes"]
        for a, t in enumerate(self.ticks):
            if len(t) < 2:
                out.append(f"axis {a} needs at least two boundary ticks")
        shape = self.shape
        for r in self.forbidden:
            if len(r.lo) != len(shape) or len(r.hi) != len(shape):
                out.append(f"rectangle {r} does not span every axis")
                continue
            for a, n in enumerate(shape):
                if not 0 <= r.lo[a] <= r.hi[a] <= n:
                    out.append(f"rectangle {r} leaves the grid on axis {a}")
                    break
        if not out:
            if self.is_blocked(self.initial):
                out.append("the initial corner is forbidden")
            if self.is_blocked(self.final):
                out.append("the final corner is forbidden")
        return out


def _strides(head):
    """How far apart rows are along each axis of the prefix."""
    return [math.prod(head[a + 1:]) for a in range(len(head))]


def _holds(shape, rows, c):
    """Whether the region given by its row masks holds cell c."""
    if len(c) != len(shape):
        return False
    i = 0
    for v, n in zip(c, shape):
        if not 0 <= v < n:
            return False
        i = i * n + v
    r, x = divmod(i, shape[-1])
    return bool(rows[r] >> x & 1)


def _cells(shape, rows):
    """The cells of the region given by its row masks, in order."""
    *head, width = shape
    return [prefix + (x,)
            for prefix, m in zip(product(*map(range, head)), rows) if m
            for x in range(width) if m >> x & 1]


# ---------------------------------------------------------------------------
# programs


@dataclass(frozen=True)
class PVProgram:
    """One event sequence per process; events are ("P"|"V", semaphore)."""

    processes: tuple

    def validate(self):
        out = [] if self.processes else ["no processes"]
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


def _sweep(shape, blocked):
    """Forward closure of the all-zeros corner, as row masks.

    Rows are met in lexicographic order, so a row's predecessors on the
    other axes come before it.  Its seeds S are the closure's bits in
    those rows (and the corner, in row 0) that its allowed mask A keeps.
    Adding S to A carries each seed up its run of allowed bits to the
    first forbidden one, so A & ((A + S) ^ A) | S is every cell the seeds
    reach along the row; a forbidden corner leaves the closure empty.
    """
    *head, width = shape
    full = (1 << width) - 1
    axes = tuple(enumerate(_strides(head)))
    out = [0] * len(blocked)
    for r, prefix in enumerate(product(*map(range, head))):
        seeds = 0 if r else 1
        for a, s in axes:
            if prefix[a]:
                seeds |= out[r - s]
        allowed = full & ~blocked[r]
        seeds &= allowed
        if seeds:
            out[r] = allowed & ((allowed + seeds) ^ allowed) | seeds
    return tuple(out)


def _mirror(rows, width):
    """The same region with every axis reversed."""
    bits = f"0{width}b"
    return tuple(int(format(m, bits)[::-1], 2) for m in reversed(rows))


def _closure(space, d):
    """Row masks of the closure of a corner by unit steps of sign d.

    Forward (d = 1) from the initial corner; backward (d = -1) from the
    final one, which is the forward closure of the mirrored grid.
    """
    if d > 0:
        return _sweep(space.shape, space.blocked)
    width = space.shape[-1]
    return _mirror(_sweep(space.shape, _mirror(space.blocked, width)), width)


def _build_links(space, rows, d):
    """The link table of a closure of sign d given as row masks.

    Cells come in sweep order: lexicographic, reversed for d = -1.  A
    cell links to its neighbour one step back on the first axis whose
    neighbour is in the closure; the anchor links to None.
    """
    *head, width = space.shape
    edges = [0 if d > 0 else n - 1 for n in head]
    strides = _strides(head)
    prefixes = list(product(*map(range, head)))
    xs = range(width)[::d]
    # each row's cells by x, so a link is the very tuple of its key
    made = [None] * len(rows)
    links = {}
    for r in range(len(rows))[::d]:
        m = rows[r]
        if not m:
            continue
        prefix = prefixes[r]
        row = made[r] = [None] * width
        back = [(rows[r - d * s], made[r - d * s])
                for a, s in enumerate(strides) if prefix[a] != edges[a]]
        # bit x is set when the cell one step back along the row is in
        inrow = m << 1 if d > 0 else m >> 1
        for x in xs:
            if m >> x & 1:
                cell = row[x] = prefix + (x,)
                for b, cells in back:
                    if b >> x & 1:
                        links[cell] = cells[x]
                        break
                else:
                    links[cell] = row[x - d] if inrow >> x & 1 else None
    return links


class LinkTable(Mapping):
    """A closure read as a link table.

    Every cell maps to its neighbour one step back toward the anchor,
    which maps to None, so following links from any cell retraces a
    witness path.  Size and membership read the row masks; the links are
    built on the first read of one.
    """

    def __init__(self, space, rows, d):
        self.space, self.rows, self.d = space, rows, d

    @cached_property
    def links(self):
        return _build_links(self.space, self.rows, self.d)

    def __len__(self):
        return sum(m.bit_count() for m in self.rows)

    def __contains__(self, c):
        return _holds(self.space.shape, self.rows, c)

    def __getitem__(self, c):
        return self.links[c]

    def __iter__(self):
        return iter(self.links)

    def keys(self):
        return self.links.keys()

    def items(self):
        return self.links.items()


def deadlocks(report):
    """Reachable non-final cells with no legal forward step, in order.

    A row scan (Fajstrup, Goubault and Raussen, CONCUR 1998): a reachable
    cell at x is stuck on the last axis when it is the last index or x + 1
    is forbidden, and on each other axis when it is at the last index or
    the next row along that axis forbids x.
    """
    space = report.space
    *head, width = space.shape
    blocked = space.blocked
    top = 1 << (width - 1)
    nexts = [(a, n - 1, s)
             for a, (n, s) in enumerate(zip(head, _strides(head)))]
    inside = list(report.forward)
    inside[-1] &= ~top  # the final cell
    stuck = []
    for r, prefix in enumerate(product(*map(range, head))):
        m = inside[r] & (blocked[r] >> 1 | top)
        for a, last, s in nexts:
            if m and prefix[a] != last:
                m &= blocked[r + s]
        stuck.append(m)
    return tuple(_cells(space.shape, stuck))


@dataclass(frozen=True)
class RegionReport:
    """Reachability analysis of one space.

    The forward closure is swept with the report and kept as row masks;
    the backward one, safe, is swept on first read, since verdicts and
    deadlocks need only the forward one.  Both read as link tables.
    """

    space: DirectedGridSpace
    forward: tuple

    @cached_property
    def reachable(self):
        return LinkTable(self.space, self.forward, +1)

    @cached_property
    def safe(self):
        return LinkTable(self.space, _closure(self.space, -1), -1)

    @property
    def unreachable(self):
        return self._complement(self.reachable.rows)

    @property
    def unsafe(self):
        return self._complement(self.safe.rows)

    def _complement(self, rows):
        space = self.space
        full = (1 << space.shape[-1]) - 1
        return tuple(_cells(space.shape, [full & ~(b | m) for b, m
                                          in zip(space.blocked, rows)]))

    def validate(self):
        """Local certificate that each table is exactly its closure.

        The anchor is present unless forbidden, no entry is forbidden,
        every other entry links to an entry one unit step back, and every
        allowed step out of an entry stays in the table.  Induction on the
        coordinate sum then gives table = closure, in O(cells * dims).
        """
        out = []
        space = self.space
        # sets, since the certificate tests membership per cell and step
        blocked = frozenset(_cells(space.shape, space.blocked))
        axes = range(space.dims)
        ends = (("reachable", self.reachable, space.initial, +1),
                ("safe", self.safe, space.final, -1))
        for name, table, anchor, d in ends:
            keys = table.keys()
            if anchor not in blocked and anchor not in keys:
                out.append(f"{name}: the anchor {anchor} is missing")
            for c, p in table.items():
                if c in blocked:
                    out.append(f"{name}: {c} is forbidden")
                    continue
                if c != anchor and p not in keys:
                    out.append(f"{name}: {c} links to {p}, "
                               "which is not in the table")
                elif c != anchor and all(_step(space, p, a, d) != c
                                         for a in axes):
                    out.append(f"{name}: {c} links to {p}, "
                               "not one unit step back")
                for a in axes:
                    n = _step(space, c, a, d)
                    if n is not None and n not in keys and n not in blocked:
                        out.append(f"{name}: the step from {c} "
                                   f"to {n} leaves the table")
        return out


def analyze(space):
    """The report of space: its forward closure now, safe when read."""
    return RegionReport(space, _closure(space, +1))


def render(report):
    """Two-axis ASCII rendering, first axis rightward, second upward.

    '#' forbidden, 'B' reachable and safe, 'R' reachable only, 'S' safe
    only, '.' neither.
    """
    space = report.space
    if space.dims != 2:
        raise ValueError("rendering needs exactly two axes")
    lines = []
    for y in reversed(range(space.shape[1])):
        row = []
        for x in range(space.shape[0]):
            c = (x, y)
            if space.is_blocked(c):
                row.append("#")
            elif c in report.reachable:
                row.append("B" if c in report.safe else "R")
            elif c in report.safe:
                row.append("S")
            else:
                row.append(".")
        lines.append("".join(row))
    return "\n".join(lines) + "\n"
