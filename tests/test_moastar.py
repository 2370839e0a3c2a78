"""MOA* baseline tests: exact heuristics, hand examples, equivalence with
the database on random maps and with a label-object reference search, and
the heuristics memo."""

import heapq
import math
import random

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


# (map, goal cell count): open and closed corners, one and three goal cells.
_HEURISTIC_CASES = (
    [pytest.param(random_map(s, 6, 7, 0.25, 3), 1, id=str(s)) for s in range(4)]
    + [pytest.param(random_map(s, 6, 7, 0.25, 3, allow_corner_cut=False), 1,
                    id=f"no-corner-cut-{s}") for s in range(4)]
    + [pytest.param(random_map(s, 6, 7, 0.25, 3), 3, id=f"multi-goal-{s}") for s in range(4)]
    + [pytest.param(random_map(s, 6, 7, 0.3, 3, allow_corner_cut=False), 3,
                    id=f"no-corner-cut-multi-goal-{s}") for s in range(4)]
)


@pytest.mark.parametrize("g, n_goals", _HEURISTIC_CASES)
def test_heuristic_is_exact(g, n_goals):
    """Each component is the best that component reaches anywhere on the front."""
    cells = free_cells(g)
    goal = GoalRegion(cells[k * len(cells) // n_goals] for k in range(n_goals))
    db = build_database(g, goal)
    for cell in cells:
        ls = db.front(cell)
        assert heuristic(g, cell, goal) == ((ls[0][0], ls[-1][1]) if ls else None)


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
    """moa_star as it was written with one object per label and a tie
    counter in each heap entry: the same search, pruning and path order."""
    region = GoalRegion(goal)
    cols = grid.n_cols
    (offsets, ids, steps), terr, goal_ids, h1, h2, *_ = moastar._heuristics(grid, region)
    goal_set = set(goal_ids)
    start_id = start[0] * cols + start[1]
    if h1[start_id] == math.inf:
        return (), []
    g2_min = [math.inf] * len(terr)
    start_label = _Label(start_id, (0, 0))
    labels = {(start_id, (0, 0)): start_label}
    sol_labels = []
    sol_f1, sol_g2 = math.inf, math.inf
    seq = 0
    heap = [(h1[start_id], h2[start_id], start_id, seq, start_label)]
    while heap:
        f1, f2, cell, _s, lab = heapq.heappop(heap)
        g1, g2 = lab.g
        if g2 >= g2_min[cell] or f2 > sol_g2 or (f2 == sol_g2 and f1 != sol_f1):
            continue
        g2_min[cell] = g2
        if cell in goal_set:
            sol_labels.append(lab)
            sol_f1, sol_g2 = g1, g2
            continue
        ng2 = g2 + terr[cell]
        for k in range(offsets[cell], offsets[cell + 1]):
            j = ids[k]
            ng = (g1 + steps[k], ng2)
            child = labels.get((j, ng))
            if child is not None:
                child.parents.append(lab)
                continue
            nf1 = ng[0] + h1[j]
            nf2 = ng2 + h2[j]
            if ng2 >= g2_min[j] or nf2 > sol_g2 or (nf2 == sol_g2 and nf1 != sol_f1):
                continue
            child = _Label(j, ng)
            child.parents.append(lab)
            labels[(j, ng)] = child
            seq += 1
            heapq.heappush(heap, (nf1, nf2, j, seq, child))

    front = tuple(dict.fromkeys(lab.g for lab in sol_labels))
    paths = []
    for lab in sorted(sol_labels, key=lambda l: (l.g, l.cell)):
        for path in _reference_expand(lab):
            paths.append((tuple(divmod(i, cols) for i in path), lab.g))
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
    base = random_map(7, 6, 6, 0.2, 9)
    g = GridMap(base.terrain * 2**52 + 1, base.obstacle)
    cells = free_cells(g)
    goal = [cells[-1]]
    db = build_database(g, goal)
    _moves, _terr, _goal_ids, h1, _h2, cb, f2b = moastar._heuristics(g, GoalRegion(goal))
    assert max(h for h in h1 if h != math.inf).bit_length() + f2b + cb > 64
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
