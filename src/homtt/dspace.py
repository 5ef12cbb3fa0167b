"""Directed grid models of lock-based concurrent programs.

Each process contributes one axis; its lock (P) and unlock (V) events
become interior boundary ticks, so an axis with k events has k+2 ticks
and k+1 unit cells between them.  A program state is a cell, one interval
per axis.  Two processes holding the same semaphore at once is impossible,
which forbids the closed tick-rectangle spanned by the matching P..V
ranges; a cell is forbidden when it lies wholly inside such a rectangle.
Execution only moves forward: one axis at a time, one cell up.  Reachable
cells are the forward closure of the all-zeros corner, safe cells the
backward closure of the all-ones corner, and both carry witness paths.
"""

from __future__ import annotations

import re
from collections import Counter, deque
from dataclasses import dataclass
from itertools import combinations, product


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

    @property
    def shape(self):
        return tuple(len(t) - 1 for t in self.ticks)

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
        blocked = forbidden_cells(self)
        for r in self.forbidden:
            if len(r.lo) != self.dims or len(r.hi) != self.dims:
                out.append(f"rectangle {r} does not span every axis")
                continue
            for a in range(self.dims):
                if not 0 <= r.lo[a] <= r.hi[a] <= len(self.ticks[a]) - 1:
                    out.append(f"rectangle {r} leaves the grid on axis {a}")
                    break
        if not out:
            if self.initial in blocked:
                out.append("the initial corner is forbidden")
            if self.final in blocked:
                out.append("the final corner is forbidden")
        return out


def rect_cells(space, r):
    """The cells lying wholly inside a closed tick rectangle."""
    return frozenset(product(*(range(r.lo[a], r.hi[a])
                               for a in range(space.dims))))


def forbidden_cells(space):
    out = set()
    for r in space.forbidden:
        out |= rect_cells(space, r)
    return frozenset(out)


def states(space):
    return product(*(range(n) for n in space.shape))


# ---------------------------------------------------------------------------
# programs


@dataclass(frozen=True)
class PVProgram:
    """One event sequence per process; events are ("P"|"V", semaphore)."""

    processes: tuple

    @property
    def semaphores(self):
        return tuple(sorted({s for evs in self.processes for _, s in evs}))

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
    bad = space.validate()
    if bad:
        raise PvError(bad[0])
    return space


# ---------------------------------------------------------------------------
# reachability


def _step(space, c, a, d):
    v = c[a] + d
    if not 0 <= v < space.shape[a]:
        return None
    return c[:a] + (v,) + c[a + 1:]


def reachable(space):
    """Forward closure of the initial corner; cell to witness path."""
    blocked = forbidden_cells(space)
    out = {}
    if space.initial not in blocked:
        out[space.initial] = (space.initial,)
        queue = deque([space.initial])
        while queue:
            c = queue.popleft()
            for a in range(space.dims):
                n = _step(space, c, a, +1)
                if n is None or n in blocked or n in out:
                    continue
                out[n] = out[c] + (n,)
                queue.append(n)
    return out


def safe(space):
    """Backward closure of the final corner; cell to path onward to it."""
    blocked = forbidden_cells(space)
    out = {}
    if space.final not in blocked:
        out[space.final] = (space.final,)
        queue = deque([space.final])
        while queue:
            c = queue.popleft()
            for a in range(space.dims):
                n = _step(space, c, a, -1)
                if n is None or n in blocked or n in out:
                    continue
                out[n] = (n,) + out[c]
                queue.append(n)
    return out


def deadlocks(space):
    """Reachable non-final cells with no legal forward step."""
    blocked = forbidden_cells(space)
    dead = []
    for c in sorted(reachable(space)):
        if c == space.final:
            continue
        moves = (_step(space, c, a, +1) for a in range(space.dims))
        if all(n is None or n in blocked for n in moves):
            dead.append(c)
    return tuple(dead)


def enumerated_cells(space, forward=True, cap=64):
    """Closure cross-check by walking every monotone path outright.

    Visits a cell once per path reaching it, so the work grows with the
    path count; grids with more than cap cells are refused rather than
    truncated.
    """
    total = 1
    for n in space.shape:
        total *= n
    if total > cap:
        raise PvError(f"grid with {total} cells exceeds the "
                      f"enumeration cap {cap}")
    blocked = forbidden_cells(space)
    start = space.initial if forward else space.final
    step = 1 if forward else -1
    seen = set()
    if start not in blocked:
        stack = [start]
        while stack:
            c = stack.pop()
            seen.add(c)
            for a in range(space.dims):
                n = _step(space, c, a, step)
                if n is not None and n not in blocked:
                    stack.append(n)
    return frozenset(seen)


def op_space(space):
    """The same grid run backwards: ticks reversed, rectangles mirrored."""
    top = [len(t) - 1 for t in space.ticks]
    rects = tuple(Rect(tuple(top[a] - r.hi[a] for a in range(space.dims)),
                       tuple(top[a] - r.lo[a] for a in range(space.dims)))
                  for r in space.forbidden)
    return DirectedGridSpace(tuple(tuple(reversed(t)) for t in space.ticks),
                             rects)


def mirror_cell(space, c):
    return tuple(n - 1 - v for n, v in zip(space.shape, c))


@dataclass(frozen=True)
class RegionReport:
    """Reachability analysis of one space, with witness paths."""

    space: DirectedGridSpace
    reachable: dict
    safe: dict

    @property
    def unreachable(self):
        return self._complement(self.reachable)

    @property
    def unsafe(self):
        return self._complement(self.safe)

    def _complement(self, got):
        blocked = forbidden_cells(self.space)
        return tuple(c for c in sorted(states(self.space))
                     if c not in blocked and c not in got)

    def validate(self):
        out = []
        blocked = forbidden_cells(self.space)
        ends = ((self.reachable, self.space.initial, -1),
                (self.safe, self.space.final, 0))
        for table, anchor, at in ends:
            for c, path in table.items():
                if path[at] != c or path[-1 - at] != anchor:
                    out.append(f"witness for {c} has wrong endpoints")
                    continue
                if any(p in blocked for p in path):
                    out.append(f"witness for {c} crosses a forbidden cell")
                    continue
                for p, q in zip(path, path[1:]):
                    diff = [b - a for a, b in zip(p, q)]
                    if sorted(diff) != [0] * (self.space.dims - 1) + [1]:
                        out.append(f"witness for {c} takes a non-unit step")
                        break
        return out


def analyze(space):
    return RegionReport(space, reachable(space), safe(space))


def render(report):
    """Two-axis ASCII rendering, first axis rightward, second upward.

    '#' forbidden, 'B' reachable and safe, 'R' reachable only, 'S' safe
    only, '.' neither.
    """
    space = report.space
    if space.dims != 2:
        raise ValueError("rendering needs exactly two axes")
    blocked = forbidden_cells(space)
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
