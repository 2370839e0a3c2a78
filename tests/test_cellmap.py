"""Database builder tests: fixed-point values on hand-checked maps, equality
with the sweep reference, verification, and serialization round-trips."""

import copy
import hashlib
import json
import pickle
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellplan import (
    CONVENTION_TAG,
    CostOverflowError,
    Database,
    DigestMismatchError,
    GoalRegion,
    GridMap,
    build_database,
    count_paths,
    coverage,
    enumerate_paths,
    free_cells,
    load_database,
    map_digest,
    parse_map,
    random_map,
    save_database,
    successors,
    verify_database,
)
from cellplan.cellmap import _build_buckets, _Step
from cellplan.grid import MAX_COMPONENT, STRAIGHT_STEP, overflow_risk
from conftest import (
    FRONT_2X3,
    GOAL_2X3,
    KEY_EDITS_2X3,
    LOADER_EDITS_2X3,
    ORDER_EDITS_2X3,
    TEXT_1X2,
    TEXT_2X3,
    big_terrain,
    db_from_labels,
    hop_cost,
    reference_build,
    split_db,
    with_labels,
)


def test_hop_cost():
    g = parse_map("2 2\n3 0\n0 0\n")
    assert hop_cost(g, (0, 0), (0, 1)) == (10, 3)
    assert hop_cost(g, (0, 0), (1, 1)) == (14, 3)
    assert hop_cost(g, (1, 1), (0, 0)) == (14, 0)
    with pytest.raises(ValueError):
        hop_cost(g, (0, 0), (0, 0))
    with pytest.raises(ValueError):
        hop_cost(parse_map("2 2\n0 #\n0 0\n"), (0, 0), (0, 1))


def test_single_hop_map():
    db = build_database(parse_map(TEXT_1X2), [(0, 1)])
    assert db.front((0, 0)) == ((10, 0),)
    assert db.front((0, 1)) == ((0, 0),)
    assert db.iterations == 2


def test_one_hop_ring():
    g = parse_map("3 3\n0 0 0\n0 0 0\n0 0 0\n")
    db = build_database(g, [(1, 1)])
    for cell in [(0, 1), (1, 0), (1, 2), (2, 1)]:
        assert db.front(cell) == ((10, 0),)
    for cell in [(0, 0), (0, 2), (2, 0), (2, 2)]:
        assert db.front(cell) == ((14, 0),)
    assert db.front((1, 1)) == ((0, 0),)


def test_two_route_map_full_fixed_point(db_2x3):
    assert db_2x3.labels == {
        (0, 0): ((20, 5), (28, 0)),
        (0, 1): ((10, 5),),
        (0, 2): ((0, 0),),
        (1, 0): ((24, 0),),
        (1, 1): ((14, 0),),
        (1, 2): ((10, 0),),
    }
    assert db_2x3.front((0, 0)) == FRONT_2X3
    assert db_2x3.iterations == 3
    assert db_2x3.convention_tag == CONVENTION_TAG


@pytest.mark.parametrize("fixture, goal", [
    ("map_1x2", (0, 1)), ("map_1x3", (0, 2)), ("map_2x3", GOAL_2X3),
    ("map_3x3_ring", (2, 2)), ("random", None),
])
def test_label_view_walks(request, fixture, goal):
    """items() and values() equal {cell: db.front(cell)} in row-major order."""
    if fixture == "random":
        grid = random_map(17, 20, 20, 0.2, 5)  # obstacles among 400 cells, which the view skips
        goal = free_cells(grid)[-1]
    else:
        grid = request.getfixturevalue(fixture)
    db = build_database(grid, [goal])
    cells = [(r, c) for r in range(grid.n_rows) for c in range(grid.n_cols)]
    want = [(cell, db.front(cell)) for cell in cells if db.front(cell)]
    assert list(db.labels.items()) == want
    assert list(db.labels.values()) == [ls for _cell, ls in want]
    assert list(db.labels) == [cell for cell, _ls in want]


def test_unreachable_cell_has_empty_labels():
    g = parse_map("3 3\n0 # 0\n# # 0\n0 0 0\n")
    db = build_database(g, [(2, 2)])
    assert db.front((0, 0)) == ()
    assert (0, 0) not in db.labels
    assert db.front((0, 2)) != ()


def test_goal_validation():
    g = parse_map("2 2\n0 #\n0 0\n")
    with pytest.raises(ValueError, match="obstacle"):
        build_database(g, [(0, 1)])
    with pytest.raises(ValueError, match="out of bounds"):
        build_database(g, [(5, 5)])


def test_build_overflow_guard():
    big = 2**62
    g = GridMap(np.array([[big, 0]]), np.zeros((1, 2), dtype=bool))
    with pytest.raises(CostOverflowError):
        build_database(g, [(0, 1)])


def test_multi_cell_goal_is_one_build():
    g = parse_map("3 3\n0 0 0\n0 0 0\n0 0 0\n")
    db = build_database(g, [(0, 0), (2, 2)])
    assert db.front((0, 0)) == ((0, 0),)
    assert db.front((2, 2)) == ((0, 0),)
    # (1,1) is one diagonal from either goal cell.
    assert db.front((1, 1)) == ((14, 0),)
    assert db.goal == GoalRegion([(0, 0), (2, 2)])


def test_disjoint_goal_areas():
    g = parse_map("1 5\n0 0 9 0 0\n")
    db = build_database(g, [(0, 0), (0, 4)])
    # (0,3) heads right, never through the cost-9 cell.
    assert db.front((0, 3)) == ((10, 0),)
    assert db.front((0, 2)) == ((20, 9),)


# (map, goal cell count) per seed. Zero terrain makes every f2 zero, so each
# cell settles only its shortest routes. The corridor's far end is 16 hops out
# on 17 cells, the deepest label a map of that size allows. Multi-cell goals
# are spread over the map.
_SCHEDULE_CASES = (
    [pytest.param(0, parse_map("1 17\n" + "0 " * 16 + "0\n"), 1, id="corridor")]
    + [pytest.param(s, random_map(s, 7, 9, 0.25, 4), 1, id=str(s)) for s in range(12)]
    + [pytest.param(s, random_map(s, 7, 9, 0.25, 0), 1, id=f"zero-terrain-{s}")
       for s in range(4)]
    + [pytest.param(s, random_map(s, 7, 9, 0.25, 4, allow_corner_cut=False), 1,
                    id=f"no-corner-cut-{s}") for s in range(4)]
    + [pytest.param(s, random_map(s, 7, 9, 0.25, 4), 3, id=f"multi-goal-{s}")
       for s in range(4)]
    # Open maps: equal vectors reach each cell from several neighbours at once.
    + [pytest.param(44, GridMap(np.full((10, 10), t), np.zeros((10, 10), dtype=bool)), 1,
                    id=f"open-terrain-{t}") for t in (0, 1)]
)


@pytest.mark.parametrize("seed, g, n_goals", _SCHEDULE_CASES)
def test_schedules_and_threads_agree(seed, g, n_goals):
    """The build and the sweep reference are byte-identical, `iterations`
    included."""
    fc = free_cells(g)
    goal = [fc[(seed + k * len(fc) // n_goals) % len(fc)] for k in range(n_goals)]
    assert len(set(goal)) == n_goals
    assert save_database(reference_build(g, goal)) == save_database(build_database(g, goal))


# (map, goal cells, cell) whose front holds several path lengths of one window
# [10w, 10w + 10), which the kernel settles in one pass. Cell (1, 0) of the
# 3x3 map reaches the two goal cells by routes of length 20, 24 and 28, each
# with less terrain than the shorter one.
_SAME_WINDOW_CASES = [
    pytest.param(TEXT_2X3, [GOAL_2X3], (0, 0), id="2x3"),
    pytest.param("3 3\n0 5 0\n0 9 0\n0 0 0\n", [(0, 2), (1, 2)], (1, 0), id="3x3-two-goals"),
]


@pytest.mark.parametrize("text, goal, cell", _SAME_WINDOW_CASES)
def test_same_window_front_matches_sweep(text, goal, cell):
    g = parse_map(text)
    db = build_database(g, goal)
    front = db.front(cell)
    assert len(front) >= 2
    assert len({f1 // STRAIGHT_STEP for f1, _ in front}) == 1
    assert save_database(db) == save_database(reference_build(g, goal))


# Two routes of length 140 join cell (1, 0) to the goal (1, 10): 14 straight
# steps round the walled corridor of rows 2-3, and 10 diagonal steps along the
# cheap cells of rows 0-1, whose first cell (0, 1) has terrain {t}. Corner
# cutting is off, so neither route has a shortcut. Equal path lengths with
# different hop counts need 14 straight steps against 10 diagonal ones (7
# against 5 cannot meet, by parity), so no small random map has such a tie.
_DEPTH_TIE_MAP = ("4 11\n"
                  "50 {t} 50 0 50 0 50 0 50 0 50\n"
                  "0 50 0 50 0 50 0 50 0 50 0\n"
                  "0 # # # # # # # # # 0\n"
                  "0 0 0 0 0 0 0 0 0 0 0\n")


@pytest.mark.parametrize("t, iterations", [(0, 14), (1, 16)])
def test_depth_tie_settles_fewest_hops(t, iterations):
    """(1, 0) settles (140, 0) with the fewest hops of the routes that make it.
    Both routes cost 0 at t = 0, so that is the diagonals' 10 and the
    corridor's 13 hops from (2, 0) set `iterations`. At t = 1 only the
    corridor's 14 hops make it, and they go on to (150, 50) at (0, 0)."""
    g = parse_map(_DEPTH_TIE_MAP.format(t=t), allow_corner_cut=False)
    db = build_database(g, [(1, 10)])
    assert (140, 0) in db.front((1, 0))
    assert (130, 0) in db.front((2, 0))  # the corridor
    assert (126, t) in db.front((0, 1))  # the diagonals
    assert ((150, 50) in db.front((0, 0))) == (t == 1)
    assert db.iterations == iterations
    assert save_database(db) == save_database(reference_build(g, [(1, 10)]))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**16), st.integers(1, 9), st.integers(1, 9), st.floats(0, 0.4),
       st.sampled_from([0, 1, 9, 50, 10**6, 2**24, 2**50]), st.booleans(),
       st.lists(st.integers(0, 80), min_size=1, max_size=3))
def test_schedules_agree_on_random_maps(seed, rows, cols, density, max_terrain, corner_cut,
                                        picks):
    """The build and the sweep reference are byte-identical on random small
    maps. The kernel's (f2, depth) ring is packed into int32 for small
    terrain, into int64 for terrain 10**6 (34 bits on a 9x9 map), and into
    Python ints for 2**50 on the larger maps (64 bits on a 9x9 map), so all
    three meet it.
    At 2**24 the kernel's integers stay int32 while a packed f2 of two hops
    already passes 31 bits, so the int64 ring is needed, not only chosen."""
    g = random_map(seed, rows, cols, density, max_terrain, allow_corner_cut=corner_cut)
    fc = free_cells(g)
    goal = sorted({fc[k % len(fc)] for k in picks})
    assert (save_database(build_database(g, goal))
            == save_database(reference_build(g, goal)))


def _near_overflow_map(seed, rows, cols, allow_corner_cut):
    """Terrain at or just under the largest max terrain that overflow_risk
    accepts (max terrain * n <= MAX_COMPONENT), so path sums need 64 bits."""
    n = rows * cols
    top = MAX_COMPONENT // n
    g = random_map(seed, rows, cols, 0.2, 3)
    terrain = np.where(g.terrain == 0, top, top - g.terrain)
    return GridMap(terrain, g.obstacle, allow_corner_cut=allow_corner_cut)


# 7 and 49 divide MAX_COMPONENT, so the 1x7 and 7x7 maps of constant terrain
# put max terrain * n exactly on the limit.
_OVERFLOW_EDGE_MAPS = {
    "corridor-1x7": lambda cut: GridMap(np.full((1, 7), MAX_COMPONENT // 7),
                                        np.zeros((1, 7), dtype=bool), allow_corner_cut=cut),
    "open-7x7": lambda cut: GridMap(np.full((7, 7), MAX_COMPONENT // 49),
                                    np.zeros((7, 7), dtype=bool), allow_corner_cut=cut),
    **{f"random-{s}": (lambda cut, s=s: _near_overflow_map(s, 5, 6, cut)) for s in range(4)},
}


@pytest.mark.parametrize("corner_cut", [True, False], ids=["corner-cut", "no-corner-cut"])
@pytest.mark.parametrize("name", sorted(_OVERFLOW_EDGE_MAPS))
def test_schedules_agree_near_overflow_bound(name, corner_cut):
    """The kernel's integers stay exact up to the overflow limit, where its
    packed (f2, depth) values outgrow int64 and are Python ints."""
    g = _OVERFLOW_EDGE_MAPS[name](corner_cut)
    assert not overflow_risk(g)
    n, max_terrain = g.terrain.size, int(g.terrain[~g.obstacle].max())
    assert max_terrain * n > 2**62
    assert (max_terrain * n + 1) << n.bit_length() > 2**63 - 1
    goal = [free_cells(g)[-1]]
    sweep = reference_build(g, goal)
    assert max(f2 for ls in sweep.labels.values() for _, f2 in ls) > 2**32
    assert save_database(sweep) == save_database(build_database(g, goal))


def _checkerboard(rows, cols):
    """Free cells where r + c is even: with corner cutting every move is a
    diagonal 14 long, so f1 = 14k and the windows 3, 6, 10, ... stay empty."""
    r, c = np.indices((rows, cols))
    return GridMap(random_map(rows, rows, cols, 0.0, 9).terrain, (r + c) % 2 == 1,
                   allow_corner_cut=True)


def _snake(rows, cols):
    """A corridor winding through walls on every odd row, each wall open at
    alternate ends; corner cutting lets diagonals cut its turns."""
    r, c = np.indices((rows, cols))
    gap = np.where(r % 4 == 1, cols - 1, 0)
    return GridMap(random_map(rows, rows, cols, 0.0, 9).terrain, (r % 2 == 1) & (c != gap),
                   allow_corner_cut=True)


# (map, goal cells, windows no label may fall in). Each reaches past window
# 30, so the three-window ring the kernel pushes into wraps ten times over.
_RING_MAPS = {
    "checkerboard-9x33": (_checkerboard(9, 33), [(0, 0), (2, 0)], {3, 6, 10, 13, 17}),
    "checkerboard-5x45-three-goals": (_checkerboard(5, 45), [(0, 0), (4, 0), (2, 2)],
                                      {3, 6, 10, 13, 17}),
    "corridor-2x70": (random_map(2, 2, 70, 0.0, 9), [(0, 0), (1, 69)], set()),
    "snake-13x15": (_snake(13, 15), [(0, 0), (0, 14), (12, 14)], set()),
}


@pytest.mark.parametrize("name", sorted(_RING_MAPS))
def test_kernel_skips_empty_windows_and_wraps_its_ring(name):
    """The build and the sweep reference are byte-identical, `iterations`
    included, where windows hold nothing and where the ring of window slabs
    wraps many times."""
    g, goal, empty = _RING_MAPS[name]
    db = build_database(g, goal)
    windows = set((db.f1 // STRAIGHT_STEP).tolist())
    assert max(windows) >= 30
    assert not windows & empty
    assert save_database(db) == save_database(reference_build(g, goal))


def test_reference_build_is_pinned():
    """The criterion-6 reference map, too large for the sweep, keeps the
    bytes that the kernel with two scratch rows and two minima built. Its
    packed (f2, depth) values fill int32 to within about 6%."""
    g = random_map(9, 117, 117, 0.15, 9)
    db = build_database(g, [free_cells(g)[-1]])
    assert (db.f1.size, int(db.counts.max()), db.iterations) == (430_123, 85, 187)
    assert (hashlib.sha256(save_database(db)).hexdigest()
            == "1cdc6d9e8f62c523b6bb1e9786ca84db3116e6bd4b2415330b3805a0578cdc6a")


@pytest.mark.parametrize("seed", range(8))
def test_iterations_bounded_by_free_cells(seed):
    g = random_map(seed, 6, 6, 0.3, 3)
    cells = free_cells(g)
    db = reference_build(g, [cells[0]])
    assert 1 <= db.iterations <= len(cells)


def test_verify_accepts_builds(map_2x3, db_2x3):
    assert verify_database(db_2x3, map_2x3)


def test_verify_rejects_perturbed_vector(map_2x3, db_2x3):
    labels = dict(db_2x3.labels)
    (f1, f2), rest = labels[(0, 0)][0], labels[(0, 0)][1:]
    labels[(0, 0)] = ((f1 + 1, f2),) + rest
    bad = db_from_labels(labels, 2, 3, goal=db_2x3.goal, map_digest=db_2x3.map_digest,
                         iterations=db_2x3.iterations)
    assert not verify_database(bad, map_2x3)


def test_verify_rejects_injected_dominated_vector(map_2x3, db_2x3):
    labels = dict(db_2x3.labels)
    labels[(0, 0)] = labels[(0, 0)] + ((99, 99),)
    bad = db_from_labels(labels, 2, 3, goal=db_2x3.goal, map_digest=db_2x3.map_digest,
                         iterations=db_2x3.iterations)
    assert not verify_database(bad, map_2x3)


def test_verify_rejects_missing_vector(map_2x3, db_2x3):
    labels = dict(db_2x3.labels)
    labels[(0, 0)] = labels[(0, 0)][:1]
    bad = db_from_labels(labels, 2, 3, goal=db_2x3.goal, map_digest=db_2x3.map_digest,
                         iterations=db_2x3.iterations)
    assert not verify_database(bad, map_2x3)


def test_verify_rejects_bad_goal_seed(map_2x3, db_2x3):
    labels = dict(db_2x3.labels)
    labels[GOAL_2X3] = ((0, 0), (7, 0))
    bad = db_from_labels(labels, 2, 3, goal=db_2x3.goal, map_digest=db_2x3.map_digest,
                         iterations=db_2x3.iterations)
    assert not verify_database(bad, map_2x3)


def test_verify_requires_matching_map(db_2x3):
    other = parse_map("2 3\n0 4 0\n0 0 0\n")
    with pytest.raises(DigestMismatchError):
        verify_database(db_2x3, other)


def test_verify_rejects_database_of_another_shape():
    """A 2x2 database under the digest of a 2x3 map: the digest matches, the
    shape does not."""
    db = build_database(parse_map("2 2\n0 0\n0 0\n"), [(0, 1)])
    wide = parse_map("2 3\n0 0 #\n0 0 #\n")
    bad = Database(db.counts, db.f1, db.f2, n_rows=2, n_cols=2, goal=db.goal,
                   map_digest=map_digest(wide), iterations=db.iterations)
    assert verify_database(bad, wide) is False


def test_verify_compares_without_int64_sums():
    """The fixed point of a map whose hop sums pass int64 (conftest's
    big_terrain): the candidate from (0,0) into the goal would wrap."""
    g, db = big_terrain()
    assert verify_database(db, g) is True


def _relabel(db, sets, **meta):
    """`db` packed again by from_labels, with the cells of `sets` holding
    those label sets and `meta` replacing fields."""
    fields = {"goal": db.goal, "map_digest": db.map_digest, "iterations": db.iterations, **meta}
    return db_from_labels({**db.labels, **sets}, db.n_rows, db.n_cols, **fields)


def _shift_f1(db):
    return _relabel(db, {cell: tuple((f1 + 2, f2) for f1, f2 in ls)
                         for cell, ls in db.labels.items()})


# Wrong databases of the 2x3 map (goal (0,2)), the first seven each caught by
# one of the verifier's checks alone; the built front of (0,0) is ((20, 5), (28, 0)),
# and its candidates are (20, 5), (28, 0) and (34, 0). The 2x3 map with a
# wall at (1,1) takes a goal seed on the wall, which no move reaches.
_VERIFY_REJECTS = [
    pytest.param("2 3\n0 5 0\n0 # 0\n",
                 lambda db: _relabel(db, {(1, 1): ((0, 0),)}, goal=GoalRegion([GOAL_2X3, (1, 1)])),
                 id="label-on-obstacle"),
    pytest.param(TEXT_2X3, lambda db: _relabel(db, {(0, 0): ((20, 5), (28, 0), (34, 0))}),
                 id="equal-f2"),
    pytest.param(TEXT_2X3, lambda db: _relabel(db, {(0, 0): ((20, 5), (99, 0))}),
                 id="path-longer-than-any-route"),
    pytest.param(TEXT_2X3, lambda db: _relabel(db, {(0, 0): ((20, 5), (26, 1), (28, 0))}),
                 id="unsupported"),
    pytest.param(TEXT_2X3, lambda db: _relabel(db, {(1, 2): ()}), id="empty-reachable-cell"),
    pytest.param(TEXT_2X3, _shift_f1, id="goal-seed-shifted"),
    pytest.param(TEXT_2X3, lambda db: _relabel(db, {}, goal=GoalRegion([GOAL_2X3, (0, 3)])),
                 id="goal-outside-map"),
] + [
    pytest.param(TEXT_2X3, lambda db, ls=p.values[0]: _relabel(db, {(0, 0): tuple(ls)}),
                 id=f"order-{p.id}")
    for p in ORDER_EDITS_2X3
]


@pytest.mark.parametrize("text, edit", _VERIFY_REJECTS)
def test_verify_rejects(text, edit):
    """False, never an exception, for each way a database can miss the fixed
    point; test_verify_rejects_missing_vector covers a missing better vector."""
    g = parse_map(text)
    assert verify_database(edit(build_database(g, [GOAL_2X3])), g) is False


_EDITS = ("none", "f1", "f2", "drop", "insert")


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_verify_accepts_exactly_the_build(data):
    """The build is the reference: a database with one vector edited,
    dropped or inserted verifies exactly when it equals the build, and its
    saved bytes load exactly when its label_key, the one canonical-form
    check, holds."""
    draw = data.draw
    rows, cols = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    g = random_map(draw(st.integers(0, 2**16)), rows, cols, draw(st.floats(0, 0.4)),
                   draw(st.sampled_from((0, 3, 50))), allow_corner_cut=draw(st.booleans()))
    goal = draw(st.lists(st.sampled_from(free_cells(g)), min_size=1, max_size=3, unique=True))
    db = build_database(g, goal)
    # Edited as int64: the database's own widths can hold neither a
    # negative step nor an inserted value past their largest.
    counts, f1, f2 = (np.array(a, dtype=np.int64) for a in (db.counts, db.f1, db.f2))
    edit = draw(st.sampled_from(_EDITS))
    if edit in ("f1", "f2"):
        a = f1 if edit == "f1" else f2
        k = draw(st.integers(0, a.size - 1))
        a[k] = abs(a[k] + draw(st.sampled_from((-2, 2) if edit == "f1" else (-1, 1))))
    elif edit == "drop":
        k = draw(st.integers(0, f1.size - 1))
        counts[np.searchsorted(db.offsets, k, side="right") - 1] -= 1
        f1, f2 = np.delete(f1, k), np.delete(f2, k)
    elif edit == "insert":
        i = draw(st.integers(0, counts.size - 1))
        k = draw(st.integers(int(db.offsets[i]), int(db.offsets[i + 1])))
        counts[i] += 1
        f1 = np.insert(f1, k, draw(st.integers(0, 14 * counts.size)))
        f2 = np.insert(f2, k, draw(st.integers(0, int(f2.max()) + 5)))
    mutant = Database(counts, f1, f2, n_rows=rows, n_cols=cols, goal=db.goal,
                      map_digest=db.map_digest, iterations=db.iterations)
    assert verify_database(mutant, g) == (mutant == db)
    try:
        mutant.label_key
    except ValueError:
        with pytest.raises(ValueError):
            load_database(save_database(mutant))
    else:
        assert load_database(save_database(mutant)) == mutant


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_step_matches_are_the_reversed_successor_edges(data):
    """The fact verify_database and the queries share one step on: moves are
    symmetric, so the equal +step matches of every label (label `at` at j is
    the candidate of label k) are exactly the step's successor edges
    at -> k, and every goal state, its moves included, has no successor."""
    draw = data.draw
    rows, cols = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    g = random_map(draw(st.integers(0, 2**16)), rows, cols, draw(st.floats(0, 0.4)),
                   draw(st.sampled_from((0, 3, 50))), allow_corner_cut=draw(st.booleans()))
    goal = draw(st.lists(st.sampled_from(free_cells(g)), min_size=1, max_size=3, unique=True))
    db = build_database(g, goal)
    step = _Step(db, g)
    ids = np.arange(db.f1.size)
    cells = step.cells(ids)
    degree, dst = step(ids, cells)
    edges = sorted(zip(np.repeat(ids, degree).tolist(), dst.tolist()))
    assert not degree[step.goal[cells]].any()
    reversed_matches = []
    for d in range(len(step.shift)):
        k = np.flatnonzero(step.allowed[cells, d])
        at, equal = step.match(k, step.shift[d] * step.stride + step.step[d])
        equal &= db.f2[at] - step.terrain[cells[k] + step.shift[d]] == db.f2[k]
        reversed_matches += zip(at[equal].tolist(), k[equal].tolist())
    assert sorted(reversed_matches) == edges


def test_save_load_roundtrip(map_2x3, db_2x3):
    blob = save_database(db_2x3)
    db2 = load_database(blob)
    assert db2 == db_2x3
    assert save_database(db2) == blob
    assert verify_database(db2, map_2x3)


def test_save_is_deterministic(map_2x3):
    a = build_database(map_2x3, [GOAL_2X3])
    b = build_database(map_2x3, [GOAL_2X3])
    assert save_database(a) == save_database(b)


def test_save_schema(db_2x3):
    blob = save_database(db_2x3)
    header, counts, f1, f2 = split_db(blob)
    assert header == {
        "version": 2,
        "map_digest": db_2x3.map_digest,
        "convention_tag": CONVENTION_TAG,
        "goal": [[0, 2]],
        "iterations": 3,
        "n_rows": 2,
        "n_cols": 3,
        "widths": [1, 1, 1],
        "labels": 7,
        "sha256": hashlib.sha256(blob[blob.index(b"\n") + 1:]).hexdigest(),
    }
    assert counts == [2, 1, 1, 1, 1, 1]
    assert list(zip(f1, f2)) == [(20, 5), (28, 0), (10, 5), (0, 0), (24, 0), (14, 0), (10, 0)]


def _with_header(blob: bytes, **fields) -> bytes:
    """The database bytes with header fields replaced (None deletes one)."""
    end = blob.index(b"\n")
    header = {**json.loads(blob[:end]), **fields}
    header = {k: v for k, v in header.items() if v is not None}
    return json.dumps(header).encode() + blob[end:]


def test_load_rejects_malformed(db_2x3):
    blob = save_database(db_2x3)
    with pytest.raises(ValueError):
        load_database(blob[:-20])
    with pytest.raises(ValueError):
        load_database(b"[]\n")
    for breakage in [
        {"version": 99},
        {"map_digest": ""},
        {"convention_tag": False},
        {"iterations": -1},
        {"iterations": True},
        {"goal": []},
        {"goal": [[0, 2, 9]]},
        {"labels": [["0,0"]]},
        {"labels": -1},
        {"labels": 8},
        {"n_rows": 0},
        {"widths": [1, 1, 3]},
        {"sha256": ""},
    ]:
        with pytest.raises(ValueError):
            load_database(_with_header(blob, **breakage))


@pytest.mark.parametrize("edit, message", KEY_EDITS_2X3)
def test_load_rejects_noncanonical_keys(db_2x3, edit, message):
    with pytest.raises(ValueError, match=message):
        load_database(edit(save_database(db_2x3)))


@pytest.mark.parametrize("new", ORDER_EDITS_2X3)
def test_load_rejects_noncanonical_label_order(db_2x3, new):
    with pytest.raises(ValueError, match="canonical order"):
        load_database(with_labels(save_database(db_2x3), 0, new))


@pytest.mark.parametrize("edit, message", LOADER_EDITS_2X3)
def test_load_rejects_edits(db_2x3, edit, message):
    with pytest.raises(ValueError, match=message):
        load_database(edit(save_database(db_2x3)))


# Byte strings that JSON, the saved header or the payload give a meaning to.
_FRAGMENTS = [b" ", b"\n", b"-", b"0", b"1", b"2", b".0", b"e0", b",", b":", b"[", b"]",
              b"{", b"}", b'"', b"\\u0030", b'"x":1,', b'"goal":[[0,2]],', b"[0,0]",
              b"\x00", b"\x01", b"\x05", b"\x14", b"\xff"]


def _fix_checksum(blob: bytes) -> bytes:
    """The bytes with the header's sha256 replaced by the payload's, so that
    edits reach the checks behind the checksum."""
    end = blob.find(b"\n")
    if end < 0:
        return blob
    digest = hashlib.sha256(blob[end + 1:]).hexdigest().encode()
    return re.sub(rb'("sha256":")[0-9a-f]{64}"', lambda m: m.group(1) + digest + b'"',
                  blob[:end], count=1) + blob[end:]


@given(st.lists(st.tuples(st.integers(0, 400), st.booleans(), st.integers(0, 3),
                          st.sampled_from(_FRAGMENTS)), min_size=1, max_size=3))
def test_loaded_bytes_save_back(edits):
    """For mutated saved databases: if load(b) succeeds, save(load(b)) == b."""
    blob = save_database(build_database(parse_map(TEXT_2X3), [GOAL_2X3]))
    for pos, from_end, cut, insert in edits:
        pos %= len(blob) + 1
        if from_end:  # the payload is the last 20 bytes
            pos = len(blob) - pos % 24
        blob = _fix_checksum(blob[:pos] + insert + blob[pos + cut:])
    try:
        db = load_database(blob)
    except ValueError:
        return
    assert save_database(db) == blob


def test_load_missing_digest():
    blob = save_database(build_database(parse_map(TEXT_1X2), [(0, 1)]))
    with pytest.raises(ValueError, match="digest"):
        load_database(_with_header(blob, map_digest=None))


def _corridor(n: int, terrain: int) -> GridMap:
    return GridMap(np.full((1, n), terrain), np.zeros((1, n), dtype=bool))


def _built(g, goal):
    starts = [(0, 0), (g.n_rows - 1, 0), (0, g.n_cols // 2), (0, g.n_cols - 2), goal]
    return g, build_database(g, [goal]), starts


def _big_terrain():
    """conftest's big_terrain database, f2 up to 2**62 + 1."""
    return *big_terrain(), [(0, 0), (0, 1)]


def _wide_front(labels: int, n: int):
    """A hand-made database of a 1 x n corridor whose cell (0, 0) holds
    `labels` vectors: canonical, so it loads, but not the map's fixed point,
    so the queries at (0, 0) raise and verify_database is False."""
    g = _corridor(n, 0)
    counts = np.zeros(n, dtype=np.int64)
    counts[[0, n - 1]] = labels, 1
    f1 = np.append(2 * np.arange(labels), 0)
    f2 = np.append(np.arange(labels)[::-1], 0)
    db = Database(counts, f1, f2, n_rows=1, n_cols=n, goal=GoalRegion([(0, n - 1)]),
                  map_digest=map_digest(g), iterations=1)
    return g, db, [(0, 0), (0, 1), (0, n - 1)]


# (widths of counts, f1 and f2; the case's map, database and starts). Width 8
# holds only f2: a count or a path length that wide needs 2**32 cells.
_WIDTH_CASES = [
    pytest.param([1, 1, 1], lambda: _built(parse_map(TEXT_2X3), GOAL_2X3), id="1-1-1"),
    pytest.param([1, 2, 2], lambda: _built(random_map(1, 30, 30, 0.1, 50), (29, 29)),
                 id="1-2-2"),
    # Path lengths up to 65534: uint16 values past the signed 16-bit range.
    pytest.param([1, 2, 2], lambda: _built(GridMap(np.full((2, 6554), 9),
                                                   np.zeros((2, 6554), dtype=bool)),
                                           (0, 6553)), id="1-2-2-near-the-top"),
    pytest.param([1, 4, 4], lambda: _built(_corridor(6560, 10), (0, 6559)), id="1-4-4"),
    pytest.param([1, 1, 8], _big_terrain, id="1-1-8"),
    pytest.param([2, 2, 2], lambda: _wide_front(300, 50), id="2-2-2"),
    pytest.param([4, 4, 2], lambda: _wide_front(65536, 9400), id="4-4-2"),
]


def _answers(db, g, starts):
    """Everything the queries say about `db` at `starts`, errors included."""
    def outcome(query, *args):
        try:
            return query(db, g, *args)
        except ValueError as e:
            return type(e), str(e)

    out = [verify_database(db, g)]
    for start in starts:
        out += [db.front(start), outcome(count_paths, start), outcome(coverage, start),
                outcome(enumerate_paths, start, 50)]
        front = db.front(start)
        out += [outcome(successors, start, vec) for vec in front[:3] + front[-3:]]
    return out


_DTYPES = {1: np.uint8, 2: np.uint16, 4: np.uint32, 8: np.int64}


def _assert_widths(db, widths):
    """`db` holds counts, f1 and f2 read-only in the dtypes of `widths`."""
    for name, width in zip(("counts", "f1", "f2"), widths):
        array = getattr(db, name)
        assert array.dtype == _DTYPES[width] and not array.flags.writeable, name
    assert db.offsets.dtype == np.int64


@pytest.mark.parametrize("widths, case", _WIDTH_CASES)
def test_loaded_arrays_keep_their_widths(widths, case):
    """A loaded database reads its arrays in place, in their stored widths,
    the widths the database it was saved from holds them in, and answers
    every query as that database does."""
    g, db, starts = case()
    raw = save_database(db)
    assert split_db(raw)[0]["widths"] == widths
    loaded = load_database(raw)
    _assert_widths(loaded, widths)
    _assert_widths(db, widths)
    assert loaded == db
    assert save_database(loaded) == raw
    assert _answers(loaded, g, starts) == _answers(db, g, starts)

    # Bytes that can change under the database are copied first.
    buf = bytearray(raw)
    from_buf = load_database(buf)
    buf[-len(buf) // 2:] = bytes(len(buf) - len(buf) // 2)
    assert from_buf == db and save_database(from_buf) == raw


@pytest.mark.parametrize("widths, case", _WIDTH_CASES)
def test_every_producer_keeps_the_stored_widths(widths, case):
    """One dtype rule for every database: the build, the sweep reference,
    the constructor, db_from_labels and the loader all hold counts, f1 and f2
    in the widths save_database writes, and agree on the database."""
    g, db, _starts = case()
    meta = {"goal": db.goal, "map_digest": db.map_digest, "iterations": db.iterations}
    made = {
        "constructor": Database(db.counts, db.f1, db.f2, n_rows=db.n_rows, n_cols=db.n_cols,
                                **meta),
        "from_labels": db_from_labels(db.labels, db.n_rows, db.n_cols, **meta),
        "load": load_database(save_database(db)),
    }
    if not overflow_risk(g) and verify_database(db, g):  # all but the hand-made cases
        made["build"] = build_database(g, db.goal)
        made["reference"] = reference_build(g, db.goal)
        # The kernel makes them in those widths itself, so none is copied to fit.
        arrays, _ = _build_buckets(g, sorted(r * g.n_cols + c for r, c in db.goal.cells))
        assert [a.dtype for a in arrays] == [_DTYPES[w] for w in widths]
    for name, other in made.items():
        _assert_widths(other, widths)
        assert other == db, name


@pytest.mark.parametrize("counts, f1, f2", [
    ([-1, 3], [10, 0], [5, 0]),
    ([1, 1], [10, -2], [5, 0]),
    ([1, 1], [10, 0], [-5, 0]),
], ids=["counts", "f1", "f2"])
def test_constructor_rejects_negative_values(counts, f1, f2):
    """Checked before the arrays take their unsigned stored widths, in which
    a negative value would wrap."""
    with pytest.raises(ValueError, match="non-negative"):
        Database(counts, f1, f2, n_rows=1, n_cols=2, goal=GoalRegion([(0, 1)]),
                 map_digest="0" * 64, iterations=1)


@pytest.mark.parametrize("counts, f1, f2, message", [
    ([1], [10], [5], "one entry per cell"),
    ([1, 1, 0], [10, 0], [5, 0], "one entry per cell"),
    ([1, 1], [10], [5], "exactly the counted labels"),
    ([1, 1], [10, 0], [5], "exactly the counted labels"),
    ([1, 1], [[10, 0]], [[5, 0]], "exactly the counted labels"),
], ids=["counts-short", "counts-long", "f1-short", "f2-short", "two-dimensional"])
def test_constructor_rejects_arrays_that_do_not_fit(counts, f1, f2, message):
    with pytest.raises(ValueError, match=message):
        Database(counts, f1, f2, n_rows=1, n_cols=2, goal=GoalRegion([(0, 1)]),
                 map_digest="0" * 64, iterations=1)


@pytest.mark.parametrize("field, value, message", [
    ("n_rows", 1.0, "n_rows must be an integer of at least 1"),
    ("n_cols", 0, "n_cols must be an integer of at least 1"),
    ("iterations", -4, "iterations must be an integer of at least 0"),
    ("iterations", True, "iterations must be an integer of at least 0"),
    ("map_digest", "", "non-empty strings"),
    ("map_digest", None, "non-empty strings"),
    ("convention_tag", "", "non-empty strings"),
    ("goal", 5, "iterable of cells"),
    ("goal", [5], "iterable of cells"),
    ("goal", [], "at least one cell"),
    ("goal", [(0, 2.0)], "cell coordinates must be integers"),
    # The 2x3 database holds 7 labels; these counts sum to 7 only modulo 2**64.
    ("counts", [2**62, 2**62, 2**62, 2**62 + 7, 0, 0], "do not sum to the 7 labels"),
], ids=["n_rows-float", "n_cols-zero", "iterations-negative", "iterations-bool",
        "map_digest-empty", "map_digest-none", "convention_tag-empty", "goal-int",
        "goal-list-of-int", "goal-empty", "goal-float-cell", "counts-wrap"])
def test_constructor_refuses_what_the_loader_refuses(db_2x3, field, value, message):
    """A header value or array load_database would refuse is refused when a
    database is made, so every database that constructs saves bytes that
    load. A goal is read as GoalRegion.on reads one: a region is kept, and an
    iterable of cells becomes a region."""
    args = dict(counts=db_2x3.counts, f1=db_2x3.f1, f2=db_2x3.f2, n_rows=2, n_cols=3,
                goal=db_2x3.goal, map_digest=db_2x3.map_digest, iterations=3,
                convention_tag=CONVENTION_TAG)
    with pytest.raises(ValueError, match=message):
        Database(**{**args, field: value})
    saved = save_database(Database(**args))
    assert load_database(saved) == db_2x3
    assert Database(**{**args, "goal": [(0, 2)]}) == db_2x3


@pytest.mark.parametrize("cell", [(2, 0), (0, 3), (-1, 0)])
def test_from_labels_rejects_a_cell_outside_the_map(db_2x3, cell):
    with pytest.raises(ValueError, match="outside the map"):
        db_from_labels({**db_2x3.labels, cell: ((10, 0),)}, 2, 3, goal=db_2x3.goal,
                       map_digest=db_2x3.map_digest, iterations=db_2x3.iterations)


def test_load_rejects_bytes_without_a_header_line(db_2x3):
    blob = save_database(db_2x3)
    with pytest.raises(ValueError, match="header line missing"):
        load_database(blob[:blob.index(b"\n")])


def test_reference_build_memory_is_pinned():
    """The build keeps its settled labels in narrowed blocks and places them
    in their stored widths without another copy, and save_database writes
    the arrays as they are. Traced by tracemalloc, whose counts repeat
    exactly for one input: the reference build peaks at about 11.8 B per
    stored label, where one f1 array for the whole build reads 12.7, an
    int64 f1 16.7 and settled blocks left in int32 17.9, and a save at about
    its payload, where a cast copy of each array reaches three times it."""
    g = random_map(9, 117, 117, 0.15, 9)
    goal = [free_cells(g)[-1]]
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        db = build_database(g, goal)
        build_peak = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        raw = save_database(db)
        save_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    payload = len(raw) - raw.index(b"\n") - 1
    assert build_peak < 12.5 * db.f1.size
    assert save_peak < 2 * payload


def test_database_is_read_only(db_2x3):
    for name in ("counts", "offsets", "f1", "f2"):
        array = getattr(db_2x3, name)
        assert array.flags.writeable is False
        with pytest.raises(ValueError):
            array[0] = 1
    assert not hasattr(db_2x3.labels, "__setitem__")
    assert not hasattr(db_2x3.labels, "__delitem__")
    loaded = load_database(save_database(db_2x3))
    assert all(not getattr(loaded, name).flags.writeable
               for name in ("counts", "offsets", "f1", "f2"))


@pytest.mark.parametrize("make_copy", [copy.copy, copy.deepcopy,
                                       lambda db: pickle.loads(pickle.dumps(db))],
                         ids=["copy", "deepcopy", "pickle"])
def test_database_copies_rebuild_through_the_constructor(make_copy):
    """A copy is a read-only value like the original: it shares no memo with
    it, and a query's memo is never pickled."""
    g = random_map(9, 30, 30, 0.15, 9)
    cells = free_cells(g)
    db = build_database(g, [cells[-1]])
    size = len(pickle.dumps(db))
    count_paths(db, g, cells[0])  # fills the memo and caches label_key
    assert len(pickle.dumps(db)) == size
    other = make_copy(db)
    assert other == db and other is not db
    assert other._query_memo == [None] and other._query_memo is not db._query_memo
    assert "label_key" not in vars(other)
    for name in ("counts", "offsets", "f1", "f2"):
        array = getattr(other, name)
        assert array.dtype == getattr(db, name).dtype and not array.flags.writeable, name
    assert count_paths(other, g, cells[0]) == count_paths(db, g, cells[0])
    assert save_database(other) == save_database(db)


def test_front_on_unknown_cell(db_2x3):
    assert db_2x3.front((9, 9)) == ()


def test_corner_cut_changes_database():
    text = "3 3\n0 # 0\n# 0 0\n0 0 0\n"
    open_db = build_database(parse_map(text), [(2, 2)])
    closed_db = build_database(parse_map(text, allow_corner_cut=False), [(2, 2)])
    # (0,0) only connects through the squeezed diagonal.
    assert open_db.front((0, 0)) != ()
    assert closed_db.front((0, 0)) == ()
    assert open_db.map_digest != closed_db.map_digest
