"""MOA* baseline tests: exact heuristics, hand examples, equivalence with
the database on random maps and with a label-object reference search, and
the heuristics memo."""

import heapq
import math
import random
import sys
import threading
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cellplan.moastar as moastar
from cellplan import (
    CostOverflowError,
    GoalRegion,
    GridMap,
    build_database,
    count_paths,
    coverage,
    enumerate_paths,
    free_cells,
    heuristic,
    moa_star,
    neighbors,
    parse_map,
    random_map,
)
from conftest import FRONT_2X3, GOAL_2X3


def test_heuristic_examples():
    g = parse_map("3 4\n0 0 0 0\n0 0 0 0\n0 0 0 0\n")
    assert heuristic(g, (0, 0), [(0, 3)]) == (30, 0)
    assert heuristic(g, (0, 0), [(2, 2)]) == (28, 0)
    assert heuristic(g, (1, 2), [(1, 2)]) == (0, 0)


def test_heuristic_picks_nearest_goal_cell():
    g = parse_map("1 6\n0 0 0 0 0 0\n")
    assert heuristic(g, (0, 2), [(0, 0), (0, 5)]) == (20, 0)


def test_two_route_example(map_2x3):
    front, paths = moa_star(map_2x3, (0, 0), [GOAL_2X3])
    assert front == FRONT_2X3
    assert sorted(paths) == [
        (((0, 0), (0, 1), (0, 2)), (20, 5)),
        (((0, 0), (1, 1), (0, 2)), (28, 0)),
    ]


def test_start_in_goal(map_2x3):
    front, paths = moa_star(map_2x3, GOAL_2X3, [GOAL_2X3])
    assert front == ((0, 0),)
    assert paths == [((GOAL_2X3,), (0, 0))]


def test_unreachable_start():
    g = parse_map("3 3\n0 # 0\n# # 0\n0 0 0\n")
    front, paths = moa_star(g, (0, 0), [(2, 2)])
    assert front == ()
    assert paths == []


def test_rejects_invalid_endpoints():
    g = parse_map("2 2\n0 #\n0 0\n")
    with pytest.raises(ValueError):
        moa_star(g, (0, 1), [(1, 1)])
    with pytest.raises(ValueError):
        moa_star(g, (0, 0), [(0, 1)])


def test_collect_paths_flag(map_2x3):
    front, paths = moa_star(map_2x3, (0, 0), [GOAL_2X3], collect_paths=False)
    assert front == FRONT_2X3
    assert paths == []


def test_multi_goal_equal_vector_paths_kept():
    # Both goal cells sit one straight hop away with identical vectors; both
    # paths must survive the solution-front dedup.
    g = parse_map("1 3\n0 0 0\n")
    front, paths = moa_star(g, (0, 1), [(0, 0), (0, 2)])
    assert front == ((10, 0),)
    assert sorted(paths) == [
        (((0, 1), (0, 0)), (10, 0)),
        (((0, 1), (0, 2)), (10, 0)),
    ]


@pytest.mark.parametrize("seed", range(15))
def test_front_matches_database(seed):
    g = random_map(seed, 6, 7, 0.25, 3)
    cells = free_cells(g)
    goal = cells[seed % len(cells)]
    db = build_database(g, [goal])
    for start in cells[:: max(1, len(cells) // 6)]:
        front, _ = moa_star(g, start, [goal], collect_paths=False)
        assert front == db.front(start)


# (map, goal cell count). Zero terrain, two goal cells and closed corners
# are where equal vectors meet: merging and g2_min pruning must keep them all.
_PATH_CASES = (
    [pytest.param(random_map(s, 4, 5, 0.3, 2), 1, id=str(s)) for s in range(8)]
    + [pytest.param(random_map(s, 4, 5, 0.3, 0), 1, id=f"zero-terrain-{s}") for s in range(3)]
    + [pytest.param(random_map(s, 4, 5, 0.3, 2), 2, id=f"two-goal-{s}") for s in range(3)]
    + [pytest.param(random_map(s, 4, 5, 0.3, 0), 2, id=f"zero-terrain-two-goal-{s}")
       for s in range(3)]
    + [pytest.param(random_map(s, 4, 5, 0.3, 2, allow_corner_cut=False), 1,
                    id=f"no-corner-cut-{s}") for s in range(3)]
)


@pytest.mark.parametrize("g, n_goals", _PATH_CASES)
def test_path_multiset_matches_enumeration(g, n_goals):
    cells = free_cells(g)
    goal = [cells[-1 - k * len(cells) // n_goals] for k in range(n_goals)]
    assert len(set(goal)) == n_goals
    db = build_database(g, goal)
    for start in cells:
        front, paths = moa_star(g, start, goal)
        enumerated, truncated = enumerate_paths(db, g, start)
        assert not truncated
        assert sorted(paths) == sorted(enumerated)


@pytest.mark.parametrize("seed", range(6))
def test_heuristic_admissible_everywhere(seed):
    g = random_map(seed, 6, 6, 0.25, 3)
    cells = free_cells(g)
    goal = GoalRegion([cells[0]])
    db = build_database(g, goal)
    for cell, ls in db.labels.items():
        assert heuristic(g, cell, goal)[0] <= ls[0][0]


def past_64_bits_map():
    """Terrain near 2**52: a packed key is wider than 64 bits, and h2 reaches
    about 2**57."""
    base = random_map(7, 6, 6, 0.2, 9)
    return GridMap(base.terrain * 2**52 + 1, base.obstacle)


# (map, goal cell count): open and closed corners, one and three goal cells,
# zero terrain, cells walled off from the goal, and keys past 64 bits.
_HEURISTIC_CASES = (
    [pytest.param(random_map(s, 6, 7, 0.25, 3), 1, id=str(s)) for s in range(4)]
    + [pytest.param(random_map(s, 6, 7, 0.25, 3, allow_corner_cut=False), 1,
                    id=f"no-corner-cut-{s}") for s in range(4)]
    + [pytest.param(random_map(s, 6, 7, 0.25, 3), 3, id=f"multi-goal-{s}") for s in range(4)]
    + [pytest.param(random_map(s, 6, 7, 0.3, 3, allow_corner_cut=False), 3,
                    id=f"no-corner-cut-multi-goal-{s}") for s in range(4)]
    + [pytest.param(random_map(s, 6, 7, 0.25, 0), n, id=f"zero-terrain-{s}-{n}")
       for s in range(2) for n in (1, 3)]
    + [pytest.param(parse_map("3 3\n0 # 0\n# # 0\n0 0 0\n"), n, id=f"walled-off-{n}")
       for n in (1, 2)]
    + [pytest.param(random_map(s, 7, 7, 0.45, 3, allow_corner_cut=False), 1,
                    id=f"pockets-{s}") for s in range(2)]
    + [pytest.param(past_64_bits_map(), 1, id="past-64-bits")]
)


@pytest.mark.parametrize("g, n_goals", _HEURISTIC_CASES)
def test_heuristic_is_exact(g, n_goals):
    """Each component is the best that component reaches anywhere on the
    front, and every reduced cost is >= 0: rc1 = step + h1[j] - h1[i] and
    rc2 = terr[i] + h2[j] - h2[i] for a move i -> j. MOA*'s packed move
    deltas carry exactly these, with i + D = (rc1 << sh1) + (rc2 << cb) + j."""
    cells = free_cells(g)
    goal = GoalRegion(cells[k * len(cells) // n_goals] for k in range(n_goals))
    db = build_database(g, goal)
    h = {cell: heuristic(g, cell, goal) for cell in cells}
    e = moastar._heuristics(g, goal)
    sh1 = e.cb + e.f2b
    for cell in cells:
        ls = db.front(cell)
        assert h[cell] == ((ls[0][0], ls[-1][1]) if ls else None)
        i = cell[0] * g.n_cols + cell[1]
        if h[cell] is None:
            assert e.moves[i] == []
            continue
        reduced = []
        for j, step in neighbors(g, cell):
            rc1 = step + h[j][0] - h[cell][0]
            rc2 = int(g.terrain[cell]) + h[j][1] - h[cell][1]
            assert rc1 >= 0 and rc2 >= 0
            reduced.append((rc1, rc2, j[0] * g.n_cols + j[1]))
        assert [((i + d) >> sh1, ((i + d) >> e.cb) & ((1 << e.f2b) - 1),
                 (i + d) & ((1 << e.cb) - 1)) for d in e.moves[i]] == reduced


def test_heuristic_none_when_walled_off():
    g = parse_map("3 3\n0 # 0\n# # 0\n0 0 0\n")
    assert heuristic(g, (0, 0), [(2, 2)]) is None
    assert heuristic(g, (0, 2), [(2, 2)]) == (20, 0)


def octile_dijkstra(grid, goal):
    """Single-objective reference: plain Dijkstra over step lengths."""
    dist = {goal: 0}
    heap = [(0, goal)]
    while heap:
        d, cell = heapq.heappop(heap)
        if d > dist.get(cell, 10**9):
            continue
        for j, dz in neighbors(grid, cell):
            nd = d + dz
            if nd < dist.get(j, 10**9):
                dist[j] = nd
                heapq.heappush(heap, (nd, j))
    return dist


@pytest.mark.parametrize("seed", range(5))
def test_zero_terrain_collapses_to_octile_shortest(seed):
    g = random_map(seed, 8, 8, 0.2, 0)
    cells = free_cells(g)
    goal = cells[seed % len(cells)]
    dist = octile_dijkstra(g, goal)
    for start in cells:
        front, _ = moa_star(g, start, [goal], collect_paths=False)
        if start in dist:
            assert front == ((dist[start], 0),)
        else:
            assert front == ()


def copy_of(g):
    return GridMap(g.terrain, g.obstacle, g.allow_corner_cut)


def test_memo_builds_once_per_map_and_goal(dijkstra_calls):
    g = random_map(3, 7, 7, 0.2, 3)
    cells = free_cells(g)
    goal = [cells[0]]
    for start in cells[1:6]:
        moa_star(g, start, goal, collect_paths=False)
    assert len(dijkstra_calls) == 2
    # heuristic() reads the same entry.
    assert heuristic(g, cells[7], GoalRegion(goal)) is not None
    assert len(dijkstra_calls) == 2


@pytest.mark.parametrize("change", ["new goal", "equal copy", "no corner cut"])
def test_memo_rebuilds_on_a_new_key(dijkstra_calls, change):
    g = random_map(4, 6, 6, 0.2, 3)
    cells = free_cells(g)
    goal, start = [cells[0]], cells[-1]
    moa_star(g, start, goal)
    if change == "new goal":
        goal = [cells[1]]
    elif change == "equal copy":
        g = copy_of(g)
    else:
        g = GridMap(g.terrain, g.obstacle, allow_corner_cut=False)
    moa_star(g, start, goal)
    moa_star(g, start, goal)
    assert len(dijkstra_calls) == 4


def test_memo_holds_one_map():
    a = random_map(5, 5, 5, 0.2, 3)
    b = copy_of(a)
    goal = [free_cells(a)[0]]
    moa_star(a, free_cells(a)[-1], goal)
    assert moastar._memo[0][0] is a
    moa_star(b, free_cells(b)[-1], goal)
    assert moastar._memo[0][0] is b
    assert all(x is not a for x in moastar._memo[0])


def test_failed_calls_leave_the_memo():
    g = parse_map("3 3\n0 # 0\n0 0 0\n0 0 0\n")
    moa_star(g, (2, 2), [(0, 0)])
    before = moastar._memo[0]
    with pytest.raises(ValueError):
        moa_star(g, (0, 1), [(0, 0)])  # start on an obstacle
    with pytest.raises(ValueError):
        moa_star(g, (2, 2), [(3, 0)])  # goal outside the map
    with pytest.raises(ValueError):
        heuristic(g, (0, 1), [(0, 0)])
    with pytest.raises(ValueError):
        heuristic(g, (2, 2), [(0, 3)])
    big = GridMap(np.array([[2**62, 0]]), np.zeros((1, 2), dtype=bool))
    with pytest.raises(CostOverflowError):
        moa_star(big, (0, 0), [(0, 1)])
    assert moastar._memo[0] is before


# (rows, cols, obstacle density, max terrain, corner cutting)
_MEMO_CORPUS = [
    (2, 2, 0.0, 2, True), (3, 4, 0.2, 3, True), (5, 5, 0.25, 2, False),
    (6, 7, 0.2, 3, True), (7, 7, 0.3, 2, False), (8, 6, 0.2, 3, True),
    (9, 9, 0.25, 3, True), (9, 8, 0.3, 3, False),
]


@pytest.mark.parametrize("seed, dims", list(enumerate(_MEMO_CORPUS)))
def test_memo_answers_equal_cold_runs(dijkstra_calls, seed, dims):
    """Every free start, shuffled, with the goal switching between two now
    and then: each answer equals a cold run on a fresh copy of the map."""
    rows, cols, density, max_cost, corner_cut = dims
    g = random_map(100 + seed, rows, cols, density, max_cost, allow_corner_cut=corner_cut)
    cells = free_cells(g)
    rng = random.Random(seed)
    goals = [[cells[0]], [cells[-1]]]
    order = []
    k = 0
    for start in rng.sample(cells, len(cells)):
        if rng.random() < 0.3:
            k = 1 - k
        order.append((start, k))
    cold = {(s, k): moa_star(copy_of(g), s, goals[k]) for s, k in order}
    del dijkstra_calls[:]  # the memo now holds the last copy, not g
    for s, k in order:
        assert moa_star(g, s, goals[k]) == cold[(s, k)]
    switches = 1 + sum(a[1] != b[1] for a, b in zip(order, order[1:]))
    assert len(dijkstra_calls) == 2 * switches


class _Label:
    __slots__ = ("cell", "g", "parents")

    def __init__(self, cell, g):
        self.cell = cell
        self.g = g
        self.parents = []


def reference_moa_star(grid, start, goal):
    """moa_star as it was written with one object per label, a dict of labels
    to merge into and a tie counter in each heap entry: the same search,
    pruning and path order. It reads the heuristics through heuristic() and
    the moves through neighbors(), so it shares no table with moa_star."""
    region = GoalRegion(goal)
    cols = grid.n_cols
    h = {cell: heuristic(grid, cell, region) for cell in free_cells(grid)}
    if h[start] is None:
        return (), []
    g2_min = {}
    start_label = _Label(start, (0, 0))
    labels = {(start, (0, 0)): start_label}
    sol_labels = []
    sol_f1, sol_g2 = math.inf, math.inf
    seq = 0
    heap = [(*h[start], start[0] * cols + start[1], seq, start_label)]
    while heap:
        f1, f2, _i, _s, lab = heapq.heappop(heap)
        cell = lab.cell
        g1, g2 = lab.g
        if (g2 >= g2_min.get(cell, math.inf) or f2 > sol_g2
                or (f2 == sol_g2 and f1 != sol_f1)):
            continue
        g2_min[cell] = g2
        if cell in region.cells:
            sol_labels.append(lab)
            sol_f1, sol_g2 = g1, g2
            continue
        ng2 = g2 + int(grid.terrain[cell])
        for j, step in neighbors(grid, cell):
            ng = (g1 + step, ng2)
            child = labels.get((j, ng))
            if child is not None:
                child.parents.append(lab)
                continue
            nf1 = ng[0] + h[j][0]
            nf2 = ng2 + h[j][1]
            if (ng2 >= g2_min.get(j, math.inf) or nf2 > sol_g2
                    or (nf2 == sol_g2 and nf1 != sol_f1)):
                continue
            child = _Label(j, ng)
            child.parents.append(lab)
            labels[(j, ng)] = child
            seq += 1
            heapq.heappush(heap, (nf1, nf2, j[0] * cols + j[1], seq, child))

    front = tuple(dict.fromkeys(lab.g for lab in sol_labels))
    paths = []
    for lab in sorted(sol_labels, key=lambda l: (l.g, l.cell)):
        paths.extend((path, lab.g) for path in _reference_expand(lab))
    return front, paths


def _reference_expand(lab):
    if not lab.parents:
        yield (lab.cell,)
        return
    chain = [lab.cell]
    stack = [iter(lab.parents)]
    while stack:
        parent = next(stack[-1], None)
        if parent is None:
            stack.pop()
            chain.pop()
            continue
        if not parent.parents:
            yield tuple(reversed(chain + [parent.cell]))
        else:
            chain.append(parent.cell)
            stack.append(iter(parent.parents))


def assert_matches_reference(g, goal):
    for start in free_cells(g):
        assert moa_star(g, start, goal) == reference_moa_star(g, start, goal)


@settings(deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 8), st.integers(1, 8),
       st.sampled_from([0.0, 0.2, 0.35]), st.sampled_from([0, 1, 3, 9]),
       st.booleans(), st.integers(1, 3))
# Equal vectors at two goal cells, found in the opposite order to their
# cell ids: the paths still come in (vector, cell) order.
@example(seed=3, rows=3, cols=6, density=0.0, max_cost=0, corner_cut=True, n_goals=2)
def test_matches_label_reference(seed, rows, cols, density, max_cost, corner_cut, n_goals):
    """The same front and the same paths, in the same order, as the
    reference search at every free start, those inside the goal included."""
    g = random_map(seed, rows, cols, density, max_cost, allow_corner_cut=corner_cut)
    cells = free_cells(g)
    assert_matches_reference(g, random.Random(seed).sample(cells, min(n_goals, len(cells))))


@pytest.mark.parametrize("goal", [[(2, 2)], [(0, 2), (2, 0)]])
def test_matches_label_reference_when_cut_off(goal):
    # (0, 0) is walled off from every other cell.
    assert_matches_reference(parse_map("3 3\n0 # 0\n# # 0\n0 0 0\n"), goal)


def test_keys_past_64_bits_match_database():
    """Terrain near 2**52 makes a packed key wider than 64 bits; the fronts
    stay those of the database at every start."""
    g = past_64_bits_map()
    cells = free_cells(g)
    goal = [cells[-1]]
    db = build_database(g, goal)
    e = moastar._heuristics(g, GoalRegion(goal))
    h1 = max(h[0] for h in (heuristic(g, c, goal) for c in cells) if h is not None)
    assert h1.bit_length() + e.f2b + e.cb > 64
    for start in cells:
        front, paths = moa_star(g, start, goal)
        assert front == db.front(start)
        assert sorted({v for _, v in paths}) == sorted(front)


@pytest.mark.parametrize("start, size", [((0, 0), 77), ((58, 58), 39)])
def test_reference_map_fronts(start, size):
    """The 117x117 reference map: the front of the far corner and of the
    centre, pinned by size and equal to the database's."""
    g = random_map(9, 117, 117, 0.15, 9)
    goal = [free_cells(g)[-1]]
    front, _ = moa_star(g, start, goal, collect_paths=False)
    assert len(front) == size
    assert front == build_database(g, goal).front(start)


@pytest.fixture(scope="module")
def reference_map():
    g = random_map(9, 117, 117, 0.15, 9)
    goal = [free_cells(g)[-1]]
    return g, goal, build_database(g, goal)


@pytest.mark.parametrize("start, n_paths", [((0, 0), 884), ((58, 58), 107)])
def test_reference_map_paths(reference_map, start, n_paths):
    """Phase two at scale: on the 117x117 reference map, MOA*'s paths from
    the far corner and the centre give the database's per-vector counts,
    coverage and full path list."""
    g, goal, db = reference_map
    front, paths = moa_star(g, start, goal, collect_paths=True)
    assert len(paths) == n_paths
    assert Counter(vector for _cells, vector in paths) == count_paths(db, g, start).counts
    assert {cell for cells, _vector in paths for cell in cells} == coverage(db, g, start)
    enumerated, truncated = enumerate_paths(db, g, start)
    assert not truncated
    assert sorted(paths) == sorted(enumerated)


def test_threads_alternating_maps_get_single_thread_answers():
    # Two threads each alternate between two maps, one a step behind the
    # other, so every call replaces the memo entry the other thread may be
    # reading; every answer must still be the one a single thread gets.
    jobs = []
    for t in range(2):
        g = random_map(20 + t, 12, 12, 0.2, 5)
        cells = free_cells(g)
        jobs.append([(g, start, [cells[-1]]) for start in cells[::len(cells) // 6][:6]])
    jobs = [job for pair in zip(*jobs) for job in pair]
    want = [moa_star(copy_of(g), start, goal) for g, start, goal in jobs]
    wrong, errors = [], []
    barrier = threading.Barrier(2)

    def work(t):
        try:
            barrier.wait(timeout=10)
            for _ in range(5):
                for k in range(t, len(jobs)) if t == 0 else range(len(jobs) - 1, -1, -1):
                    if moa_star(*jobs[k]) != want[k]:
                        wrong.append((t, k))
        except BaseException as e:
            errors.append(e)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(2)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    assert errors == []
    assert wrong == []
