"""MOA* baseline tests: exact heuristics, hand examples, and equivalence with
the database on random maps."""

import heapq

import pytest

from cellplan import (
    GoalRegion,
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
