"""Grid reachability checked against a walk of monotone paths, and
deadlocks against a scan of every reachable cell."""

import dataclasses
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import homtt.dspace as ds
import oracles

SWISS = """\
# two processes taking two semaphores in opposite order
P(m) P(n) V(n) V(m)
P(n) P(m) V(m) V(n)
"""


def swiss_space():
    return ds.from_pv(ds.parse_pv(SWISS))


# ---------------------------------------------------------------------------
# parsing and program validation


def test_parse_pv_reads_events_and_skips_comments():
    prog = ds.parse_pv(SWISS)
    assert prog.processes == (
        (("P", "m"), ("P", "n"), ("V", "n"), ("V", "m")),
        (("P", "n"), ("P", "m"), ("V", "m"), ("V", "n")),
    )
    assert sorted({s for evs in prog.processes for _, s in evs}) == ["m", "n"]
    assert prog.validate() == []


def test_parse_pv_rejects_malformed_events():
    with pytest.raises(ds.PvError, match=r"prog\.pv:2: cannot read event"):
        ds.parse_pv("P(m) V(m)\nP(m open\n", path="prog.pv")
    with pytest.raises(ds.PvError, match="'Q\\(m\\)'"):
        ds.parse_pv("Q(m)")


def test_program_validation_names_process_and_position():
    double = ds.parse_pv("P(m) P(m) V(m) V(m)")
    assert double.validate() == [
        "process 1, event 2: P(m) while already held"]
    orphan = ds.parse_pv("P(m) V(m)\nV(n)")
    assert orphan.validate() == [
        "process 2, event 1: V(n) without a matching P"]
    stuck = ds.parse_pv("P(m) V(m) P(n)")
    assert stuck.validate() == ["process 1: P(n) is never released"]
    with pytest.raises(ds.PvError, match="never released"):
        ds.from_pv(stuck)


def test_from_pv_enforces_size_caps():
    four = ds.PVProgram(((("P", "a"), ("V", "a")),) * 4)
    with pytest.raises(ds.PvError, match="4 processes"):
        ds.from_pv(four)
    long = ds.PVProgram(((("P", "a"), ("V", "a")) * 9,))
    with pytest.raises(ds.PvError, match="18 events"):
        ds.from_pv(long)


# ---------------------------------------------------------------------------
# building spaces from programs


def test_swiss_ticks_and_rectangles():
    space = swiss_space()
    assert space.ticks == (
        ("0", "L_m^A", "L_n^A", "U_n^A", "U_m^A", "1"),
        ("0", "L_n^B", "L_m^B", "U_m^B", "U_n^B", "1"),
    )
    assert space.forbidden == (
        ds.Rect((1, 2), (4, 3)),
        ds.Rect((2, 1), (3, 4)),
    )
    assert ds.forbidden_cells(space) == {
        (1, 2), (2, 2), (3, 2), (2, 1), (2, 3)}
    assert space.shape == (5, 5)
    assert space.validate() == []


def test_single_process_is_a_directed_interval():
    space = ds.from_pv(ds.parse_pv("P(m) V(m)"))
    assert space.shape == (3,)
    assert space.forbidden == ()
    report = ds.analyze(space)
    assert set(report.reachable) == set(report.safe) == {(0,), (1,), (2,)}
    assert ds.deadlocks(report) == ()


def test_minimal_mutex_forbids_one_cell():
    space = ds.from_pv(ds.parse_pv("P(m) V(m)\nP(m) V(m)"))
    assert space.forbidden == (ds.Rect((1, 1), (2, 2)),)
    assert ds.forbidden_cells(space) == {(1, 1)}
    report = ds.analyze(space)
    assert report.unreachable == ()
    assert report.unsafe == ()
    assert ds.deadlocks(report) == ()


def test_repeated_locking_gives_one_rectangle_per_hold_pair():
    space = ds.from_pv(ds.parse_pv("P(m) V(m) P(m) V(m)\nP(m) V(m)"))
    assert space.forbidden == (
        ds.Rect((1, 1), (2, 2)),
        ds.Rect((3, 1), (4, 2)),
    )
    assert ds.deadlocks(ds.analyze(space)) == ()


def test_three_processes_block_the_full_third_axis():
    text = "P(q) V(q)\nP(q) V(q)\nP(z) V(z)"
    space = ds.from_pv(ds.parse_pv(text))
    assert space.dims == 3
    assert space.forbidden == (ds.Rect((1, 1, 0), (2, 2, 3)),)
    assert oracles.rect_cells(space, space.forbidden[0]) == {
        (1, 1, z) for z in range(3)}
    report = ds.analyze(space)
    assert report.unreachable == ()
    assert report.unsafe == ()


# ---------------------------------------------------------------------------
# the flagship example, frozen


def test_swiss_complements_match_the_named_squares():
    space = swiss_space()
    report = ds.analyze(space)
    ta, tb = space.ticks
    unreach = ds.Rect((ta.index("U_n^A"), tb.index("U_m^B")),
                      (ta.index("U_m^A"), tb.index("U_n^B")))
    unsafe = ds.Rect((ta.index("L_m^A"), tb.index("L_n^B")),
                     (ta.index("L_n^A"), tb.index("L_m^B")))
    assert set(report.unreachable) == oracles.rect_cells(space, unreach) \
        == {(3, 3)}
    assert set(report.unsafe) == oracles.rect_cells(space, unsafe) == {(1, 1)}
    assert report.validate() == []


def test_swiss_deadlock_is_the_unsafe_corner():
    assert ds.deadlocks(ds.analyze(swiss_space())) == ((1, 1),)


def test_swiss_rendering():
    report = ds.analyze(swiss_space())
    assert ds.render(report) == (
        "BBBBB\n"
        "BB#SB\n"
        "B###B\n"
        "BR#BB\n"
        "BBBBB\n"
    )


def test_render_requires_two_axes():
    report = ds.analyze(ds.from_pv(ds.parse_pv("P(m) V(m)")))
    with pytest.raises(ValueError, match="two axes"):
        ds.render(report)


# ---------------------------------------------------------------------------
# walls and deadlocks built directly


def wall_space():
    ticks = (("0", "a", "b", "c", "1"),) * 2
    return ds.DirectedGridSpace(ticks, (ds.Rect((0, 1), (4, 2)),))


def test_full_width_wall_strands_the_bottom_rows():
    space = wall_space()
    assert space.validate() == []
    report = ds.analyze(space)
    assert set(report.reachable) == {(x, 0) for x in range(4)}
    assert set(report.safe) == {(x, y) for x in range(4) for y in (2, 3)}
    assert ds.deadlocks(report) == ((3, 0),)


def test_empty_forbidden_set_has_no_deadlocks():
    space = ds.DirectedGridSpace((("0", "a", "1"), ("0", "b", "1")))
    report = ds.analyze(space)
    assert set(report.reachable) == set(ds.states(space))
    assert set(report.safe) == set(ds.states(space))
    assert ds.deadlocks(report) == ()


def test_space_validation_flags_bad_rectangles_and_corners():
    ticks = (("0", "a", "1"), ("0", "b", "1"))
    leaky = ds.DirectedGridSpace(ticks, (ds.Rect((0, 0), (9, 1)),))
    assert any("leaves the grid" in p for p in leaky.validate())
    trap = ds.DirectedGridSpace(ticks, (ds.Rect((0, 0), (1, 1)),))
    assert trap.validate() == ["the initial corner is forbidden"]
    thin = ds.DirectedGridSpace((("0",), ("0", "b", "1")))
    assert any("two boundary ticks" in p for p in thin.validate())


def test_space_validation_reports_a_rectangle_missing_an_axis():
    ticks = (("0", "a", "1"), ("0", "b", "1"))
    short = ds.DirectedGridSpace(ticks, (ds.Rect((0,), (1,)),))
    assert short.validate() == [
        "rectangle Rect(lo=(0,), hi=(1,)) does not span every axis"]


# ---------------------------------------------------------------------------
# closures agree with path enumeration


ORACLE_SPACES = [
    ("swiss", swiss_space),
    ("mutex", lambda: ds.from_pv(ds.parse_pv("P(m) V(m)\nP(m) V(m)"))),
    ("relock", lambda: ds.from_pv(
        ds.parse_pv("P(m) V(m) P(m) V(m)\nP(m) V(m)"))),
    ("wall", wall_space),
    ("interval", lambda: ds.from_pv(ds.parse_pv("P(m) V(m)"))),
    ("threeway", lambda: ds.from_pv(
        ds.parse_pv("P(q) V(q)\nP(q) V(q)\nP(z) V(z)"))),
]


@pytest.mark.parametrize("name,build", ORACLE_SPACES, ids=[n for n, _ in
                                                           ORACLE_SPACES])
def test_closures_match_path_enumeration(name, build):
    space = build()
    assert set(ds.reachable(space)) == oracles.closure_cells(space, True)
    assert set(ds.safe(space)) == oracles.closure_cells(space, False)


@pytest.mark.parametrize("name,build", ORACLE_SPACES, ids=[n for n, _ in
                                                           ORACLE_SPACES])
def test_witness_paths_are_monotone_and_clear(name, build):
    report = ds.analyze(build())
    assert report.validate() == []


# Each fault is planted in the swiss flag's tables; (3, 3) is unreachable,
# (1, 1) unsafe, (2, 2) forbidden, and nothing links to the final corner
# in the reachable table, so only the step check sees it go missing.
TAMPERS = [
    ("reachable-dropped", "reachable",
     lambda t: {c: p for c, p in t.items() if c != (4, 4)},
     "reachable: the step from (4, 3) to (4, 4) leaves the table"),
    ("unreachable-added", "reachable",
     lambda t: {**t, (3, 3): (2, 3)},
     "reachable: (3, 3) links to (2, 3), which is not in the table"),
    ("long-link", "reachable",
     lambda t: {**t, (4, 4): (4, 2)},
     "reachable: (4, 4) links to (4, 2), not one unit step back"),
    ("backward-link", "safe",
     lambda t: {**t, (0, 1): (0, 0)},
     "safe: (0, 1) links to (0, 0), not one unit step back"),
    ("forbidden", "safe",
     lambda t: {**t, (2, 2): (3, 2)},
     "safe: (2, 2) is forbidden"),
    ("anchor-removed", "safe",
     lambda t: {c: p for c, p in t.items() if c != (4, 4)},
     "safe: the anchor (4, 4) is missing"),
]


@pytest.mark.parametrize("name,table,tamper,problem", TAMPERS,
                         ids=[t[0] for t in TAMPERS])
def test_certificate_names_each_planted_fault(name, table, tamper, problem):
    report = ds.analyze(swiss_space())
    bad = dataclasses.replace(
        report, **{table: tamper(getattr(report, table))})
    assert problem in bad.validate()


# ---------------------------------------------------------------------------
# generated programs: deadlocks and closures against the referees


CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def stress_space():
    """Criterion 8's grid: two rectangles inside an 8 by 8 square."""
    ticks = ("0", "t1", "t2", "t3", "t4", "t5", "t6", "t7", "1")
    return ds.DirectedGridSpace(
        (ticks, ticks), (ds.Rect((2, 2), (6, 5)), ds.Rect((4, 6), (7, 8))))


def random_program(rng):
    """A valid program inside from_pv's caps: 2-3 processes, 2-4
    semaphores, at most 8 P/V pairs (16 events) per process."""
    sems = "mnpq"[:rng.randint(2, 4)]
    procs = []
    for _ in range(rng.randint(2, 3)):
        pairs, held, evs = rng.randint(1, 8), [], []
        while pairs or held:
            free = [s for s in sems if s not in held]
            if pairs and free and (not held or rng.random() < 0.5):
                s = rng.choice(free)
                held.append(s)
                pairs -= 1
                evs.append(("P", s))
            else:
                evs.append(("V", held.pop(rng.randrange(len(held)))))
        procs.append(tuple(evs))
    return ds.PVProgram(tuple(procs))


GENERATED = [ds.from_pv(random_program(random.Random(f"pv/{i}")))
             for i in range(300)]


def referee_spaces():
    corpus = [ds.from_pv(ds.parse_pv(p.read_text(encoding="utf-8"), str(p)))
              for p in sorted(CORPUS.glob("*.pv"))]
    assert len(corpus) == 4
    return corpus + [build() for _, build in ORACLE_SPACES] \
        + [stress_space()] + GENERATED


def test_deadlocks_match_the_scan():
    dead = {}
    for space in referee_spaces():
        report = ds.analyze(space)
        got = ds.deadlocks(report)
        assert got == oracles.deadlocks_by_scan(report), space
        dead[space] = got
    # not vacuous: many programs deadlock, and in some three-axis ones a
    # process has finished while the other two are stuck
    assert sum(bool(dead[s]) for s in GENERATED) >= 50
    assert any(v == f for s in GENERATED if s.dims == 3
               for c in dead[s] for v, f in zip(c, s.final))


def test_closures_of_generated_programs():
    for space in GENERATED:
        report = ds.analyze(space)
        assert set(report.reachable) == oracles.closure_cells(space, True)
        assert set(report.safe) == oracles.closure_cells(space, False)
        assert report.validate() == []


@settings(max_examples=60, deadline=None, database=None)
@given(st.randoms())
def test_final_corner_of_a_valid_program_is_reachable(rng):
    # running the processes one after another crosses no forbidden cell:
    # while one runs, every other sits at its start or its end and holds
    # nothing, so final-reachable cannot fail on a program from_pv accepts
    space = ds.from_pv(random_program(rng))
    assert space.final in ds.analyze(space).reachable


def test_link_tables_retrace_witness_paths():
    report = ds.analyze(swiss_space())
    for table, anchor in ((report.reachable, (0, 0)),
                          (report.safe, (4, 4))):
        for cell in table:
            path = [cell]
            while table[path[-1]] is not None:
                path.append(table[path[-1]])
            assert path[-1] == anchor
            assert len(path) == 1 + sum(abs(a - b)
                                        for a, b in zip(cell, anchor))


# ---------------------------------------------------------------------------
# duality and relabeling invariance


def op_space(space):
    """The same grid run backwards: ticks reversed, rectangles mirrored."""
    top = [len(t) - 1 for t in space.ticks]
    rects = tuple(ds.Rect(tuple(top[a] - r.hi[a] for a in range(space.dims)),
                          tuple(top[a] - r.lo[a] for a in range(space.dims)))
                  for r in space.forbidden)
    return ds.DirectedGridSpace(
        tuple(tuple(reversed(t)) for t in space.ticks), rects)


def mirror_cell(space, c):
    """Cell c of space, seen in op_space(space)."""
    return tuple(n - 1 - v for n, v in zip(space.shape, c))


@pytest.mark.parametrize("name,build", ORACLE_SPACES, ids=[n for n, _ in
                                                           ORACLE_SPACES])
def test_safe_is_reachable_of_the_reversed_space(name, build):
    space = build()
    rev = op_space(space)
    assert rev.validate() == []
    mirrored = {mirror_cell(space, c) for c in ds.reachable(rev)}
    assert set(ds.safe(space)) == mirrored
    assert op_space(rev) == space


def test_swapping_processes_transposes_the_space():
    space = swiss_space()
    lines = SWISS.strip().splitlines()[1:]
    swapped = ds.from_pv(ds.parse_pv("\n".join(reversed(lines))))
    assert swapped.ticks[0] == tuple(
        l.replace("^B", "^A") for l in space.ticks[1])
    assert swapped.ticks[1] == tuple(
        l.replace("^A", "^B") for l in space.ticks[0])
    flip = {(y, x) for x, y in ds.forbidden_cells(space)}
    assert ds.forbidden_cells(swapped) == flip
    assert {(y, x) for x, y in ds.analyze(space).unreachable} == set(
        ds.analyze(swapped).unreachable)


def test_renaming_semaphores_keeps_the_geometry():
    renamed = ds.from_pv(ds.parse_pv(SWISS.replace("m", "u")))
    space = swiss_space()
    assert set(renamed.forbidden) == set(space.forbidden)
    assert renamed.ticks[0] == tuple(
        l.replace("_m", "_u") for l in space.ticks[0])
    assert ds.analyze(renamed).unreachable == ds.analyze(space).unreachable
