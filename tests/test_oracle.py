"""Brute-force oracle tests. The oracle itself is the source of the frozen
values used across the suite, so these tests pin its behavior hard."""

import pytest

import cellplan.grid
from cellplan import brute_force, parse_map, random_map
from conftest import FRONT_2X3, GOAL_2X3, TEXT_2X3, nondominated


def test_two_route_example():
    res = brute_force(parse_map(TEXT_2X3), (0, 0), [GOAL_2X3], include_paths=True)
    assert res.front == FRONT_2X3
    assert res.counts == {(20, 5): 1, (28, 0): 1}
    assert res.total_paths == 2
    assert res.coverage == {(0, 0), (0, 1), (0, 2), (1, 1)}
    assert res.paths == (
        (((0, 0), (0, 1), (0, 2)), (20, 5)),
        (((0, 0), (1, 1), (0, 2)), (28, 0)),
    )


def test_degenerate_single_cell():
    res = brute_force(parse_map("1 1\n0\n"), (0, 0), [(0, 0)])
    assert res.front == ((0, 0),)
    assert res.total_paths == 1
    assert res.coverage == {(0, 0)}


def test_start_on_goal_still_counts_longer_returns_as_dominated():
    # Leaving the goal and coming back is a valid walk hit, but every such
    # vector is dominated by (0, 0).
    res = brute_force(parse_map("1 2\n0 0\n"), (0, 0), [(0, 0)])
    assert res.front == ((0, 0),)
    assert res.total_paths == 1


def test_budget_guard():
    g = random_map(3, 5, 5, 0.0, 1)  # 25 free cells
    with pytest.raises(ValueError, match="budget"):
        brute_force(g, (0, 0), [(4, 4)], cell_budget=20)
    small = random_map(4, 3, 4, 0.0, 1)  # 12 free cells, enumerable
    brute_force(small, (0, 0), [(2, 3)], cell_budget=12)


def test_front_is_mutually_nondominated():
    g = random_map(11, 4, 4, 0.2, 3)
    cells = cellplan.grid.free_cells(g)
    res = brute_force(g, cells[0], [cells[-1]])
    assert nondominated(res.front) == res.front
    assert res.total_paths == sum(res.counts.values())
    assert set(res.counts) == set(res.front)


def test_neighbor_order_independence(monkeypatch):
    g = parse_map(TEXT_2X3)
    before = brute_force(g, (0, 0), [GOAL_2X3], include_paths=True)
    monkeypatch.setattr(
        cellplan.grid, "NEIGHBOR_OFFSETS",
        tuple(reversed(cellplan.grid.NEIGHBOR_OFFSETS)))
    after = brute_force(g, (0, 0), [GOAL_2X3], include_paths=True)
    assert after == before


def test_invalid_start():
    g = parse_map("2 2\n0 #\n0 0\n")
    with pytest.raises(ValueError):
        brute_force(g, (0, 1), [(1, 1)])
