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

A region of cells is one int for the whole grid.  A row is a cell's
coordinates on every axis but the last; row r owns the slot of bits from
r * slot up, bit x of it the cell at x on the last axis.  The slot is a
whole number of bytes wider than a row, and the row masks come out of
the int in one unpack.  The forbidden region repeats each rectangle's
row along the other axes; each closure is one sweep over the row masks
with whole-row int operations.  Deadlocks (Fajstrup, Goubault and
Raussen, Detecting deadlocks in concurrent systems, CONCUR 1998) and the
--oracle certificate are a few whole-grid shifts, ANDs and ORs.
"""

from __future__ import annotations

import math
import re
import struct
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, compress, product

from .kernel import InternalError

# struct codes for the slot sizes, in bytes, that are one machine word
_WORDS = {1: "B", 2: "H", 4: "I", 8: "Q"}


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
    def slot(self):
        """Bits per row: the least power of two from 8 up wider than a row."""
        return max(8, 1 << self.shape[-1].bit_length())

    @cached_property
    def steps(self):
        """How many bits apart the neighbours along each axis are."""
        *head, _ = self.shape
        return tuple(self.slot * math.prod(head[a + 1:])
                     for a in range(len(head))) + (1,)

    @cached_property
    def nbytes(self):
        return self.slot // 8 * math.prod(self.shape[:-1])

    @cached_property
    def blocked(self):
        """The forbidden cells as a whole-grid int."""
        return _boxes(self, [(r.lo, r.hi) for r in self.forbidden])

    @cached_property
    def whole(self):
        """Every cell of the grid as a whole-grid int."""
        return _boxes(self, [((0,) * self.dims, self.shape)])

    @cached_property
    def ends(self):
        """Per axis, the cells at its first index and at its last."""
        shape = self.shape
        firsts = [_boxes(self, [((0,) * self.dims,
                                 shape[:a] + (1,) + shape[a + 1:])])
                  for a in range(self.dims)]
        return tuple((f, f << (n - 1) * t)
                     for f, n, t in zip(firsts, shape, self.steps))

    def is_blocked(self, c):
        return bool(self.blocked & _bit(self, c))

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
            if self.blocked & 1:
                out.append("the initial corner is forbidden")
            if self.blocked & _bit(self, self.final):
                out.append("the final corner is forbidden")
        return out


def _boxes(space, boxes):
    """The cells of the boxes (lo, hi), hi exclusive, as a whole-grid int.

    A box's row is repeated along each other axis, innermost first, as
    bytes.  Boxes alike on the first axis share that last repeat.
    """
    steps, dims = space.steps, space.dims

    def repeat(m, a, lo, hi):
        t = steps[a]
        return int.from_bytes(m.to_bytes(t // 8, "little") * (hi - lo),
                              "little") << lo * t

    blocks = {}
    for lo, hi in boxes:
        m = (1 << hi[-1]) - (1 << lo[-1])
        for a in range(dims - 2, 0, -1):
            m = repeat(m, a, lo[a], hi[a])
        key = (lo[0], hi[0]) if dims > 1 else None
        blocks[key] = blocks.get(key, 0) | m
    out = 0
    for key, m in blocks.items():
        out |= repeat(m, 0, *key) if key else m
    return out


def _bit(space, c):
    """The whole-grid int of cell c alone, or 0 off the grid."""
    if len(c) != space.dims:
        return 0
    i = 0
    for v, n, t in zip(c, space.shape, space.steps):
        if not 0 <= v < n:
            return 0
        i += v * t
    return 1 << i


def _rows(space, grid):
    """The row masks of a whole-grid int, in row order."""
    size = space.slot // 8
    data = grid.to_bytes(space.nbytes, "little")
    if size in _WORDS:
        return struct.unpack(f"<{len(data) // size}{_WORDS[size]}", data)
    return [int.from_bytes(data[i:i + size], "little")
            for i in range(0, len(data), size)]


def _grid(space, rows):
    """The whole-grid int of a region given by its row masks."""
    size = space.slot // 8
    data = (struct.pack(f"<{len(rows)}{_WORDS[size]}", *rows)
            if size in _WORDS else
            b"".join(m.to_bytes(size, "little") for m in rows))
    return int.from_bytes(data, "little")


def _cells(space, grid):
    """The cells of the region given by its whole-grid int, in order."""
    if not grid:
        return []
    *head, width = space.shape
    rows = _rows(space, grid)
    out = []
    for r in compress(range(len(rows)), rows):
        m, prefix = rows[r], ()
        for n in reversed(head):
            r, v = divmod(r, n)
            prefix = (v,) + prefix
        out += [prefix + (x,) for x in range(width) if m >> x & 1]
    return out


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
    ticks, holds = [], []
    for i, evs in enumerate(prog.processes):
        labels, open_at, ranges = ["0"], {}, {}
        for tick, (op, s) in enumerate(evs, start=1):
            labels.append(f"{'L' if op == 'P' else 'U'}_{s}^{'ABC'[i]}")
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
    axes = tuple(enumerate(math.prod(head[a + 1:]) for a in range(len(head))))
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
    return out


def _mirror(space, grid):
    """The same region with every axis reversed."""
    bits = format(grid, f"0{space.nbytes * 8}b")[::-1]
    return int(bits, 2) >> space.slot - space.shape[-1]


def _closure(space, d):
    """The closure of a corner by unit steps of sign d, as a whole-grid int.

    Forward (d = 1) from the initial corner; backward (d = -1) from the
    final one, which is the forward closure of the mirrored grid.
    """
    if d > 0:
        return _grid(space, _sweep(space.shape, _rows(space, space.blocked)))
    mirrored = _rows(space, _mirror(space, space.blocked))
    return _mirror(space, _grid(space, _sweep(space.shape, mirrored)))


class Region:
    """A set of cells held as a whole-grid int: size is a bit count,
    membership a bit test, and iteration in sweep order (lexicographic
    for d = 1, reversed for d = -1)."""

    __slots__ = ("space", "bits", "d")

    def __init__(self, space, bits, d):
        self.space, self.bits, self.d = space, bits, d

    def __len__(self):
        return self.bits.bit_count()

    def __contains__(self, c):
        return bool(self.bits & _bit(self.space, c))

    def __iter__(self):
        cells = _cells(self.space, self.bits)
        return iter(cells if self.d > 0 else reversed(cells))


def deadlocks(report):
    """Reachable non-final cells with no legal forward step, in order.

    A reachable cell is stuck on an axis when it is at the last index or
    the forbidden region, shifted one step back along it, holds it.
    """
    space, blocked = report.space, report.space.blocked
    stuck = report.forward & ~_bit(space, space.final)
    for t, (_, last) in zip(space.steps, space.ends):
        stuck &= blocked >> t | last
    return tuple(_cells(space, stuck))


@dataclass(frozen=True)
class RegionReport:
    """Reachability analysis of one space.

    The forward closure is swept with the report, the backward one, safe,
    on first read, since verdicts and deadlocks need only the forward one.
    Both are whole-grid ints and read as Regions."""

    space: DirectedGridSpace
    forward: int

    @cached_property
    def reachable(self):
        return Region(self.space, self.forward, +1)

    @cached_property
    def safe(self):
        return Region(self.space, _closure(self.space, -1), -1)

    @property
    def unreachable(self):
        return self._complement(self.reachable.bits)

    @property
    def unsafe(self):
        return self._complement(self.safe.bits)

    def _complement(self, bits):
        space = self.space
        return tuple(_cells(space, space.whole & ~(space.blocked | bits)))

    def validate(self):
        """Local certificate that each mask is exactly its closure.

        On each mask, with whole-grid shifts: the anchor is in unless it is
        forbidden, every bit is an allowed cell, every other cell has a
        neighbour one unit step back in the mask, and every allowed step
        out of a cell stays in it.  Induction on the coordinate sum then
        gives mask = closure.  Problems name cells in sweep order.
        """
        out, space = [], self.space
        whole, blocked = space.whole, space.blocked
        allowed = whole & ~blocked
        closures = (("reachable", self.reachable.bits, space.initial, +1),
                    ("safe", self.safe.bits, space.final, -1))
        for name, m, anchor, d in closures:
            home = _bit(space, anchor)
            if not (m | blocked) & home:
                out.append(f"{name}: the anchor {anchor} is missing")
            if m & ~whole:
                out.append(f"{name}: {(m & ~whole).bit_count()} bits lie "
                           "off the grid")
            m &= whole
            outside, back, leaves = allowed & ~m, home, []
            # a cell on the far edge of an axis has no step along it
            for t, edges in zip(space.steps, space.ends):
                inner = m & ~edges[d > 0]
                if d > 0:
                    back, ahead = back | inner << t, outside >> t
                else:
                    back, ahead = back | inner >> t, outside << t
                leaves.append(inner & ahead)
            forbidden, orphans = m & blocked, m & ~back
            bad = forbidden | orphans
            for leave in leaves:
                bad |= leave
            cells = _cells(space, bad)
            for c in cells if d > 0 else reversed(cells):
                i = _bit(space, c)
                if forbidden & i:
                    out.append(f"{name}: {c} is forbidden")
                    continue
                if orphans & i:
                    out.append(f"{name}: {c} has no neighbour one step "
                               "back in the table")
                for a, leave in enumerate(leaves):
                    if leave & i:
                        n = c[:a] + (c[a] + d,) + c[a + 1:]
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
    reach, safe = report.reachable, report.safe
    return "".join(
        "".join("#" if space.is_blocked((x, y)) else
                ".SRB"[2 * ((x, y) in reach) + ((x, y) in safe)]
                for x in range(space.shape[0])) + "\n"
        for y in reversed(range(space.shape[1])))
