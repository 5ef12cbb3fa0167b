"""Grid reachability checked against a walk of monotone paths, and
deadlocks against a scan of every reachable cell.

Each space is built with its referee grid (oracles.Grid): a hand-built
space from the boxes the test wrote, a program's space from the boxes
oracles.pv_boxes reads off the program's text on its own."""

import itertools
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


def grid(*widths):
    """Ticks for a grid with the given number of cells per axis."""
    return tuple(("0",) + tuple(f"t{i}" for i in range(1, n)) + ("1",)
                 for n in widths)


def built(widths, *boxes):
    """A hand-built space and the referee grid of the same boxes; the
    referee refuses a box that does not lie in the grid first."""
    ref = oracles.Grid(widths, boxes)
    return ds.DirectedGridSpace(grid(*widths), ref.boxes), ref


def program(text):
    """A program's space and its referee grid, read from the text."""
    return ds.from_pv(ds.parse_pv(text)), oracles.pv_grid(text)


def swiss_space():
    return ds.from_pv(ds.parse_pv(SWISS))


def all_cells(space):
    return itertools.product(*(range(n) for n in space.shape))


def blocked_cells(space):
    """The cells the space's membership predicate forbids."""
    return {c for c in all_cells(space) if space.is_blocked(c)}


# ---------------------------------------------------------------------------
# parsing and program validation


def test_parse_pv_reads_events_and_skips_comments():
    assert ds.parse_pv(SWISS) == (
        (("P", "m"), ("P", "n"), ("V", "n"), ("V", "m")),
        (("P", "n"), ("P", "m"), ("V", "m"), ("V", "n")),
    )


def test_parse_pv_rejects_malformed_events():
    with pytest.raises(ds.PvError, match=r"prog\.pv:2: cannot read event"):
        ds.parse_pv("P(m) V(m)\nP(m open\n", path="prog.pv")
    with pytest.raises(ds.PvError, match="'Q\\(m\\)'"):
        ds.parse_pv("Q(m)")


def refusal(text):
    with pytest.raises(ds.PvError) as exc:
        ds.parse_pv(text)
    return str(exc.value)


def test_program_validation_names_process_and_position():
    assert refusal("P(m) P(m) V(m) V(m)") == (
        "process 1, event 2: P(m) while already held")
    assert refusal("P(m) V(m)\nV(n)") == (
        "process 2, event 1: V(n) without a matching P")
    assert refusal("P(m) V(m) P(n)") == "process 1: P(n) is never released"


def test_from_pv_enforces_size_caps():
    four = ((("P", "a"), ("V", "a")),) * 4
    with pytest.raises(ds.PvError, match="4 processes"):
        ds.from_pv(four)
    long = ((("P", "a"), ("V", "a")) * 9,)
    with pytest.raises(ds.PvError, match="18 events"):
        ds.from_pv(long)


# ---------------------------------------------------------------------------
# building spaces from programs


def test_swiss_ticks_and_boxes():
    space, ref = program(SWISS)
    assert space.ticks == (
        ("0", "L_m^A", "L_n^A", "U_n^A", "U_m^A", "1"),
        ("0", "L_n^B", "L_m^B", "U_m^B", "U_n^B", "1"),
    )
    assert ref.boxes == (((1, 2), (4, 3)), ((2, 1), (3, 4)))
    assert blocked_cells(space) == oracles.forbidden_cells(ref) == {
        (1, 2), (2, 2), (3, 2), (2, 1), (2, 3)}
    assert space.shape == (5, 5)
    assert space.validate() == []


def test_single_process_is_a_directed_interval():
    space, ref = program("P(m) V(m)")
    assert space.shape == ref.shape == (3,)
    assert (space.blocked, ref.boxes) == (0, ())
    report = ds.analyze(space)
    assert set(report.reachable) == set(report.safe) == {(0,), (1,), (2,)}
    assert ds.deadlocks(report) == ()


def test_minimal_mutex_forbids_one_cell():
    space, ref = program("P(m) V(m)\nP(m) V(m)")
    assert ref.boxes == (((1, 1), (2, 2)),)
    assert blocked_cells(space) == oracles.forbidden_cells(ref) == {(1, 1)}
    report = ds.analyze(space)
    assert report.unreachable == ()
    assert report.unsafe == ()
    assert ds.deadlocks(report) == ()


def test_repeated_locking_gives_one_box_per_hold_pair():
    space, ref = program("P(m) V(m) P(m) V(m)\nP(m) V(m)")
    assert ref.boxes == (((1, 1), (2, 2)), ((3, 1), (4, 2)))
    assert blocked_cells(space) == {(1, 1), (3, 1)}
    assert ds.deadlocks(ds.analyze(space)) == ()


def test_three_processes_block_the_full_third_axis():
    text = "P(q) V(q)\nP(q) V(q)\nP(z) V(z)"
    space, ref = program(text)
    assert space.dims == 3
    assert ref.boxes == (((1, 1, 0), (2, 2, 3)),)
    assert blocked_cells(space) == oracles.box_cells(ref.boxes[0]) == {
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
    unreach = ((ta.index("U_n^A"), tb.index("U_m^B")),
               (ta.index("U_m^A"), tb.index("U_n^B")))
    unsafe = ((ta.index("L_m^A"), tb.index("L_n^B")),
              (ta.index("L_n^A"), tb.index("L_m^B")))
    assert set(report.unreachable) == oracles.box_cells(unreach) == {(3, 3)}
    assert set(report.unsafe) == oracles.box_cells(unsafe) == {(1, 1)}
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


def test_rendering_marks_a_walled_in_cell_as_neither():
    # the centre cell and two side corners are neither reachable nor safe
    walls = ((0, 1), (1, 0), (2, 1), (1, 2))
    space, _ = built((3, 3), *(((x, y), (x + 1, y + 1)) for x, y in walls))
    assert space.validate() == []
    assert ds.render(ds.analyze(space)) == (
        ".#S\n"
        "#.#\n"
        "R#.\n"
    )


def test_render_requires_two_axes():
    report = ds.analyze(ds.from_pv(ds.parse_pv("P(m) V(m)")))
    with pytest.raises(ValueError, match="two axes"):
        ds.render(report)


# ---------------------------------------------------------------------------
# walls and deadlocks built directly


def wall_space():
    return built((4, 4), ((0, 1), (4, 2)))


def test_full_width_wall_strands_the_bottom_rows():
    space, _ = wall_space()
    assert space.validate() == []
    report = ds.analyze(space)
    assert set(report.reachable) == {(x, 0) for x in range(4)}
    assert set(report.safe) == {(x, y) for x in range(4) for y in (2, 3)}
    assert ds.deadlocks(report) == ((3, 0),)


def test_empty_forbidden_set_has_no_deadlocks():
    space, _ = built((2, 2))
    report = ds.analyze(space)
    assert set(report.reachable) == set(all_cells(space))
    assert set(report.safe) == set(all_cells(space))
    assert ds.deadlocks(report) == ()


def test_space_validation_flags_off_grid_bits_and_corners():
    # rows 2 to 8 lie past the first axis, bit 2 of row 0 past the last;
    # the referee refuses such boxes, so the space is built without it
    leaky = ds.DirectedGridSpace(grid(2, 2), (((1, 0), (9, 1)),
                                              ((0, 1), (1, 3))))
    assert leaky.validate() == ["8 blocked bits lie off the grid"]
    trap, _ = built((2, 2), ((0, 0), (1, 1)))
    assert trap.validate() == ["the initial corner is forbidden"]
    thin = ds.DirectedGridSpace((("0",), ("0", "b", "1")))
    assert thin.validate() == ["axis 0 needs at least two boundary ticks"]


def test_space_validation_flags_a_forbidden_final_corner():
    space, _ = built((2, 2), ((1, 1), (2, 2)))
    assert space.validate() == ["the final corner is forbidden"]


def test_closure_from_a_forbidden_corner_is_empty():
    trap, _ = built((2, 2), ((0, 0), (1, 1)))
    end, _ = built((2, 2), ((1, 1), (2, 2)))
    trapped, ended = ds.analyze(trap), ds.analyze(end)
    assert list(trapped.reachable) == list(ended.safe) == []
    assert len(trapped.safe) == len(ended.reachable) == 3
    # the certificate accepts an empty mask at a forbidden anchor
    assert ds.analyze(trap).validate() == ds.analyze(end).validate() == []


@pytest.mark.parametrize("box, problem", [
    (((0,), (1,)), "does not have one coordinate per axis"),
    (((0, 0), (1, 20)), "does not lie in"),
    (((0, 2), (1, 1)), "does not lie in"),
], ids=["missing-axis", "past-the-row-slot", "lo-past-hi"])
def test_the_referee_grid_refuses_a_box_off_the_grid(box, problem):
    # a space does not check its boxes (it reads the first on the axes
    # it gives and overflows on the other two), so the referee that each
    # hand-built space here goes through first does
    with pytest.raises(ValueError, match=problem):
        built((3, 3), box)


def test_a_grid_needs_an_axis_and_a_program_a_process():
    # row masks run over the last axis, so a grid without one is refused
    assert ds.DirectedGridSpace(()).validate() == ["the grid has no axes"]
    assert refusal("# no process\n") == "<input>: no processes"


# ---------------------------------------------------------------------------
# closures agree with path enumeration


ORACLE_SPACES = [
    ("swiss", program(SWISS)),
    ("mutex", program("P(m) V(m)\nP(m) V(m)")),
    ("relock", program("P(m) V(m) P(m) V(m)\nP(m) V(m)")),
    ("wall", wall_space()),
    ("interval", program("P(m) V(m)")),
    ("threeway", program("P(q) V(q)\nP(q) V(q)\nP(z) V(z)")),
]


@pytest.mark.parametrize("name,pair", ORACLE_SPACES, ids=[n for n, _ in
                                                          ORACLE_SPACES])
def test_closures_match_path_enumeration(name, pair):
    space, ref = pair
    report = ds.analyze(space)
    assert set(report.reachable) == oracles.closure_cells(ref, True)
    assert set(report.safe) == oracles.closure_cells(ref, False)


@pytest.mark.parametrize("name,pair", ORACLE_SPACES, ids=[n for n, _ in
                                                          ORACLE_SPACES])
def test_witness_paths_are_monotone_and_clear(name, pair):
    report = ds.analyze(pair[0])
    assert report.validate() == []


def flip(space, *cells):
    """The whole-grid int with the bits of the given cells set."""
    return sum(ds._bit(space, c) for c in cells)


# Each fault is planted as bits of the swiss flag's masks; (3, 3) is
# unreachable, (1, 1) unsafe and (2, 2) forbidden.  Every cell next to a
# dropped corner stays in, so only the step check sees it go missing.
TAMPERS = [
    ("reachable-dropped", "reachable", lambda s: flip(s, (4, 4)),
     "reachable: the step from (4, 3) to (4, 4) leaves the table"),
    ("unreachable-added", "reachable", lambda s: flip(s, (3, 3)),
     "reachable: (3, 3) has no neighbour one step back in the table"),
    ("off-grid", "reachable", lambda s: 1 << s.slot - 1,
     "reachable: 1 bits lie off the grid"),
    ("unsafe-added", "safe", lambda s: flip(s, (1, 1)),
     "safe: (1, 1) has no neighbour one step back in the table"),
    ("safe-dropped", "safe", lambda s: flip(s, (0, 0)),
     "safe: the step from (1, 0) to (0, 0) leaves the table"),
    ("forbidden", "safe", lambda s: flip(s, (2, 2)),
     "safe: (2, 2) is forbidden"),
    ("anchor-removed", "safe", lambda s: flip(s, (4, 4)),
     "safe: the anchor (4, 4) is missing"),
]


@pytest.mark.parametrize("name,table,tamper,problem", TAMPERS,
                         ids=[t[0] for t in TAMPERS])
def test_certificate_names_each_planted_fault(name, table, tamper, problem):
    report = ds.analyze(swiss_space())
    good = getattr(report, table)
    # the safe mask is swept on first read, so the tampered one is
    # planted in a fresh report before anything reads it
    bad = ds.analyze(report.space)
    bits = good.bits ^ tamper(report.space)
    setattr(bad, table, ds.Region(report.space, bits, good.d))
    assert problem in bad.validate()


# ---------------------------------------------------------------------------
# generated programs: deadlocks and closures against the referees


CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def stress_space():
    """Criterion 8's grid: two boxes inside an 8 by 8 square."""
    return built((8, 8), ((2, 2), (6, 5)), ((4, 6), (7, 8)))


def random_program(rng):
    """The text of a valid program inside from_pv's caps: 2-3 processes,
    2-4 semaphores, at most 8 P/V pairs (16 events) per process."""
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
        procs.append(" ".join(f"{op}({s})" for op, s in evs))
    return "\n".join(procs) + "\n"


def generated(seed):
    return program(random_program(random.Random(seed)))


GENERATED = [generated(f"pv/{i}") for i in range(300)]


def corpus_programs():
    pairs = [program(p.read_text(encoding="utf-8"))
             for p in sorted(CORPUS.glob("*.pv"))]
    assert len(pairs) == 4
    return pairs


def referee_spaces():
    return corpus_programs() + [pair for _, pair in ORACLE_SPACES] \
        + [stress_space()] + GENERATED


def test_blocked_cells_are_the_cells_of_the_hold_range_boxes():
    for space, ref in corpus_programs() + GENERATED:
        assert space.shape == ref.shape
        assert blocked_cells(space) == oracles.forbidden_cells(ref)
    # not vacuous: most programs have boxes, some on all three axes
    assert sum(bool(ref.boxes) for _, ref in GENERATED) >= 250
    assert any(len(ref.shape) == 3 and ref.boxes for _, ref in GENERATED)


def test_deadlocks_match_the_scan():
    dead = {}
    for space, ref in referee_spaces():
        report = ds.analyze(space)
        got = ds.deadlocks(report)
        assert got == oracles.deadlocks_by_scan(ref), ref
        dead[space] = got
    # not vacuous: many programs deadlock, and in some three-axis ones a
    # process has finished while the other two are stuck
    assert sum(bool(dead[s]) for s, _ in GENERATED) >= 50
    assert any(v == f for s, _ in GENERATED if s.dims == 3
               for c in dead[s] for v, f in zip(c, s.final))


def test_closures_of_generated_programs():
    for space, ref in GENERATED:
        report = ds.analyze(space)
        assert set(report.reachable) == oracles.closure_cells(ref, True)
        assert set(report.safe) == oracles.closure_cells(ref, False)
        assert report.validate() == []


@settings(max_examples=60, deadline=None, database=None)
@given(st.randoms())
def test_final_corner_of_a_valid_program_is_reachable(rng):
    # running the processes one after another crosses no forbidden cell:
    # while one runs, every other sits at its start or its end and holds
    # nothing, so final-reachable cannot fail on a program from_pv accepts
    space = ds.from_pv(ds.parse_pv(random_program(rng)))
    assert space.final in ds.analyze(space).reachable


def test_link_tables_retrace_witness_paths():
    # the referee's link tables hold the masks' cells in the same order,
    # and following links from any cell walks a shortest path home
    space, ref = program(SWISS)
    report = ds.analyze(space)
    for region, forward, anchor in ((report.reachable, True, (0, 0)),
                                    (report.safe, False, (4, 4))):
        table = oracles.link_table(ref, forward)
        assert list(region) == list(table)
        for cell in table:
            path = [cell]
            while table[path[-1]] is not None:
                path.append(table[path[-1]])
            assert path[-1] == anchor
            assert len(path) == 1 + sum(abs(a - b)
                                        for a, b in zip(cell, anchor))


# ---------------------------------------------------------------------------
# duality and relabeling invariance


def op_space(space, ref):
    """The same grid run backwards, and its referee: ticks reversed,
    boxes mirrored."""
    boxes = tuple((tuple(n - v for n, v in zip(ref.shape, hi)),
                   tuple(n - v for n, v in zip(ref.shape, lo)))
                  for lo, hi in ref.boxes)
    mirrored = oracles.Grid(ref.shape, boxes)
    return (ds.DirectedGridSpace(tuple(t[::-1] for t in space.ticks),
                                 mirrored.boxes), mirrored)


def mirror_cell(space, c):
    """Cell c of space, seen in op_space(space)."""
    return tuple(n - 1 - v for n, v in zip(space.shape, c))


@pytest.mark.parametrize("name,pair", ORACLE_SPACES, ids=[n for n, _ in
                                                          ORACLE_SPACES])
def test_safe_is_reachable_of_the_reversed_space(name, pair):
    space = pair[0]
    rev = op_space(*pair)
    assert rev[0].validate() == []
    mirrored = {mirror_cell(space, c) for c in ds.analyze(rev[0]).reachable}
    assert set(ds.analyze(space).safe) == mirrored
    twice = op_space(*rev)[0]
    assert (twice.ticks, twice.blocked) == (space.ticks, space.blocked)


def test_swapping_processes_transposes_the_space():
    space = swiss_space()
    lines = SWISS.strip().splitlines()[1:]
    swapped = ds.from_pv(ds.parse_pv("\n".join(reversed(lines))))
    assert swapped.ticks[0] == tuple(
        l.replace("^B", "^A") for l in space.ticks[1])
    assert swapped.ticks[1] == tuple(
        l.replace("^A", "^B") for l in space.ticks[0])
    flip = {(y, x) for x, y in blocked_cells(space)}
    assert blocked_cells(swapped) == flip
    assert {(y, x) for x, y in ds.analyze(space).unreachable} == set(
        ds.analyze(swapped).unreachable)


def test_renaming_semaphores_keeps_the_geometry():
    renamed = ds.from_pv(ds.parse_pv(SWISS.replace("m", "u")))
    space = swiss_space()
    assert renamed.blocked == space.blocked
    assert renamed.ticks[0] == tuple(
        l.replace("_m", "_u") for l in space.ticks[0])
    assert ds.analyze(renamed).unreachable == ds.analyze(space).unreachable


# ---------------------------------------------------------------------------
# the row sweep on edge shapes, against the referees


EDGE_SPACES = [
    # no prefix axes: every cell sits in the one row
    ("one-axis", built((5,), ((2,), (3,)))),
    # a box covering the whole of row x = 1 walls off the right
    ("whole-row", built((4, 4), ((1, 0), (2, 4)))),
    ("whole-row-3d", built((3, 3, 4), ((1, 1, 0), (2, 2, 4)),
                           ((0, 2, 1), (3, 3, 2)))),
    # lo == hi on a prefix axis and on the last axis cover no cell
    ("empty-boxes", built((4, 4), ((1, 1), (1, 3)), ((1, 2), (3, 2)),
                          ((2, 0), (3, 2)))),
    # 17-cell rows, the widest from_pv builds, with runs across bit 16
    ("17-cell-rows", built((4, 17), ((1, 5), (2, 16)), ((2, 0), (3, 16)))),
    ("17-cubed", built((17, 17, 17), ((3, 4, 0), (9, 12, 17)),
                       ((0, 10, 6), (17, 11, 16)),
                       ((12, 0, 15), (17, 16, 16)))),
    # rows at the slot boundaries: 8 cells need a 16-bit slot, 32 and 40
    # cells a 64-bit one, and 64 cells a slot wider than a machine word
    *[(f"{w}-cell-rows", built((4, w), ((1, 5), (2, w - 1)),
                               ((2, 0), (3, w - 1))))
      for w in (8, 32, 40, 64)],
    # the swiss flag on the outer axes, spread over the two middle ones,
    # and a small box spanning part of all four
    ("4-axis", built((5, 2, 3, 5), ((1, 0, 0, 2), (4, 2, 3, 3)),
                     ((2, 0, 0, 1), (3, 2, 3, 4)),
                     ((0, 1, 1, 0), (2, 2, 2, 2)))),
    # a forbidden anchor leaves that direction's closure empty
    ("forbidden-initial", built((3, 3), ((0, 0), (1, 1)))),
    ("forbidden-final", built((3, 3), ((2, 2), (3, 3)))),
]


def assert_matches_referees(space, ref):
    report = ds.analyze(space)
    assert blocked_cells(space) == oracles.forbidden_cells(ref)
    for region, forward in ((report.reachable, True), (report.safe, False)):
        # the same cells in the same order as the cell-by-cell sweep
        expected = oracles.link_table(ref, forward)
        assert list(region) == list(expected)
        assert set(expected) == oracles.closure_cells(ref, forward)
        assert len(region) == len(expected)
        assert all(c in region for c in expected)
        assert not any(c in region for c in all_cells(space)
                       if c not in expected)
    assert ds.deadlocks(report) == oracles.deadlocks_by_scan(ref)
    assert report.validate() == []


@pytest.mark.parametrize("name,pair", EDGE_SPACES,
                         ids=[n for n, _ in EDGE_SPACES])
def test_row_sweep_matches_the_referees_on_edge_shapes(name, pair):
    space = pair[0]
    assert_matches_referees(*pair)
    rev = op_space(*pair)
    assert_matches_referees(*rev)
    assert {mirror_cell(space, c) for c in ds.analyze(rev[0]).reachable} == \
        set(ds.analyze(space).safe)


def test_edge_shapes_are_not_vacuous():
    spaces = {name: space for name, (space, _) in EDGE_SPACES}
    one = ds.analyze(spaces["one-axis"])
    assert list(one.reachable) == [(0,), (1,)]
    assert list(one.safe) == [(4,), (3,)]
    assert ds.deadlocks(one) == ((1,),)
    assert blocked_cells(spaces["empty-boxes"]) == {(2, 0), (2, 1)}
    wall = ds.analyze(spaces["whole-row"])
    assert set(wall.reachable) == {(0, y) for y in range(4)}
    assert ds.deadlocks(wall) == ((0, 3),)
    wide = ds.analyze(spaces["17-cell-rows"])
    assert (1, 4) in wide.reachable and (1, 5) not in wide.reachable
    assert (3, 16) in wide.reachable and (0, 16) in wide.safe
    assert ds.deadlocks(wide) == ((1, 4),)
    for w, slot in ((8, 16), (32, 64), (40, 64), (64, 128)):
        space = spaces[f"{w}-cell-rows"]
        assert space.slot == slot
        # (1, 4) is walled in, and the top cell of each row is reached
        assert ds.deadlocks(ds.analyze(space)) == ((1, 4),)
        assert (3, w - 1) in ds.analyze(space).reachable
    four = ds.analyze(spaces["4-axis"])
    assert ds.deadlocks(four) == ((1, 1, 0, 1), (1, 1, 2, 1))
    assert len(four.unreachable) == 6
    assert len(ds.analyze(spaces["forbidden-initial"]).reachable) == 0
    assert len(ds.analyze(spaces["forbidden-final"]).safe) == 0
    assert spaces["forbidden-initial"].validate() == [
        "the initial corner is forbidden"]


def test_membership_is_false_off_the_grid():
    space = swiss_space()
    report = ds.analyze(space)
    for cell in ((5, 0), (0, -1), (0, 0, 0), (0,)):
        assert not space.is_blocked(cell)
        assert cell not in report.reachable and cell not in report.safe


def test_link_tables_and_deadlocks_of_generated_programs():
    # the 60 programs the cli modes test runs, against the referees
    for i in range(60):
        space, ref = generated(f"pv-modes/{i}")
        report = ds.analyze(space)
        for region, forward in ((report.reachable, True),
                                (report.safe, False)):
            assert list(region) == list(oracles.link_table(ref, forward))
        assert ds.deadlocks(report) == oracles.deadlocks_by_scan(ref)
