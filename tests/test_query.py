"""Query layer tests: fronts, successor decompositions, exact counts,
coverage, enumeration, and the report renderers."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cellplan import (
    GoalRegion,
    build_database,
    count_paths,
    coverage,
    enumerate_paths,
    free_cells,
    hop_cost,
    neighbors,
    parse_map,
    pareto_front_at,
    random_map,
    render_coverage_ascii,
    render_coverage_pgm,
    render_front_csv,
    render_report_json,
    successors,
)
from conftest import FRONT_2X3, GOAL_2X3, TEXT_1X2


def test_front_at_goal(db_2x3):
    assert pareto_front_at(db_2x3, GOAL_2X3) == ((0, 0),)


def test_front_example(db_2x3):
    assert pareto_front_at(db_2x3, (0, 0)) == FRONT_2X3


def test_front_unreachable():
    g = parse_map("3 3\n0 # 0\n# # 0\n0 0 0\n")
    db = build_database(g, [(2, 2)])
    assert pareto_front_at(db, (0, 0)) == ()


def test_successors_single_hop(map_1x2):
    db = build_database(map_1x2, [(0, 1)])
    assert successors(db, map_1x2, (0, 0), (10, 0)) == [((0, 1), (0, 0))]


def test_successors_example(map_2x3, db_2x3):
    # The cost-5 cell (0,1) keeps its own terrain in its stored vector;
    # the hop from (0,0) only adds terrain of (0,0), which is zero.
    assert successors(db_2x3, map_2x3, (0, 0), (20, 5)) == [((0, 1), (10, 5))]
    assert successors(db_2x3, map_2x3, (0, 0), (28, 0)) == [((1, 1), (14, 0))]


def test_successors_rejects_unknown_vector(map_2x3, db_2x3):
    with pytest.raises(ValueError, match="not in the label set"):
        successors(db_2x3, map_2x3, (0, 0), (99, 99))


def test_successors_at_goal(map_2x3, db_2x3):
    assert successors(db_2x3, map_2x3, GOAL_2X3, (0, 0)) == []


def test_successors_consistency(map_2x3, db_2x3):
    for cell, ls in db_2x3.labels.items():
        if cell in db_2x3.goal.cells:
            continue
        for vec in ls:
            decs = successors(db_2x3, map_2x3, cell, vec)
            assert decs
            for j, w in decs:
                dz, dt = hop_cost(map_2x3, cell, j)
                assert (w[0] + dz, w[1] + dt) == vec
                assert w in db_2x3.front(j)


# (corner cutting, maximum terrain cost, goal cells) per case.
_SUCCESSOR_CASES = [
    pytest.param(True, 4, 1, id="default"),
    pytest.param(False, 4, 1, id="no-corner-cut"),
    pytest.param(True, 0, 1, id="zero-terrain"),
    pytest.param(True, 4, 3, id="three-goals"),
    pytest.param(False, 0, 3, id="no-corner-cut-zero-terrain-three-goals"),
]


@pytest.mark.parametrize("corner_cut, max_cost, n_goals", _SUCCESSOR_CASES)
@given(st.integers(0, 10**6), st.integers(1, 6), st.integers(1, 6))
def test_successors_match_definition(corner_cut, max_cost, n_goals, seed, rows, cols):
    """At every state, successors() lists exactly the (j, F - hop_cost(cell, j))
    with j from neighbors() and F - hop_cost in the label set of j, row-major."""
    g = random_map(seed, rows, cols, 0.25, max_cost, allow_corner_cut=corner_cut)
    fc = free_cells(g)
    goal = {fc[(seed + k * len(fc) // n_goals) % len(fc)] for k in range(n_goals)}
    db = build_database(g, goal)
    for cell, front in db.labels.items():
        for vec in front:
            want = []
            if cell not in goal:
                for j, _step in neighbors(g, cell):
                    dz, dt = hop_cost(g, cell, j)
                    w = (vec[0] - dz, vec[1] - dt)
                    if w in db.front(j):
                        want.append((j, w))
                assert want
            assert successors(db, g, cell, vec) == want


def test_count_corridor(map_1x3):
    db = build_database(map_1x3, [(0, 2)])
    res = count_paths(db, map_1x3, (0, 0))
    assert res.front == ((20, 0),)
    assert res.counts == {(20, 0): 1}
    assert res.total_paths == 1


def test_count_two_ways_around(map_3x3_ring):
    db = build_database(map_3x3_ring, [(2, 2)])
    res = count_paths(db, map_3x3_ring, (0, 0))
    assert res.front == ((34, 0),)
    assert res.counts == {(34, 0): 2}
    assert res.total_paths == 2


def test_count_at_goal(db_2x3, map_2x3):
    res = count_paths(db_2x3, map_2x3, GOAL_2X3)
    assert res.front == ((0, 0),)
    assert res.counts == {(0, 0): 1}
    assert res.total_paths == 1


def test_count_unreachable():
    g = parse_map("3 3\n0 # 0\n# # 0\n0 0 0\n")
    db = build_database(g, [(2, 2)])
    res = count_paths(db, g, (0, 0))
    assert res.front == ()
    assert res.counts == {}
    assert res.total_paths == 0


def test_count_rejects_bad_start(db_2x3, map_2x3):
    with pytest.raises(ValueError):
        count_paths(db_2x3, map_2x3, (9, 9))


def test_count_mismatched_database(map_2x3, db_2x3):
    # Same shape, different terrain: stored vectors stop decomposing.
    other = parse_map("2 3\n0 4 0\n0 0 0\n")
    with pytest.raises(ValueError, match="does not match"):
        count_paths(db_2x3, other, (0, 0))


def test_coverage_corridor(map_1x3):
    db = build_database(map_1x3, [(0, 2)])
    assert coverage(db, map_1x3, (0, 0)) == {(0, 0), (0, 1), (0, 2)}


def test_coverage_example(map_2x3, db_2x3):
    assert coverage(db_2x3, map_2x3, (0, 0)) == {(0, 0), (0, 1), (0, 2), (1, 1)}


def test_coverage_at_goal(map_2x3, db_2x3):
    assert coverage(db_2x3, map_2x3, GOAL_2X3) == {GOAL_2X3}


def test_coverage_unreachable_is_an_error():
    g = parse_map("3 3\n0 # 0\n# # 0\n0 0 0\n")
    db = build_database(g, [(2, 2)])
    with pytest.raises(ValueError, match="cannot reach"):
        coverage(db, g, (0, 0))


def test_enumerate_example(map_2x3, db_2x3):
    paths, truncated = enumerate_paths(db_2x3, map_2x3, (0, 0))
    assert not truncated
    assert paths == [
        (((0, 0), (0, 1), (0, 2)), (20, 5)),
        (((0, 0), (1, 1), (0, 2)), (28, 0)),
    ]


def test_enumerate_truncation(map_2x3, db_2x3):
    paths, truncated = enumerate_paths(db_2x3, map_2x3, (0, 0), limit=1)
    assert truncated
    assert paths == [(((0, 0), (0, 1), (0, 2)), (20, 5))]
    paths2, truncated2 = enumerate_paths(db_2x3, map_2x3, (0, 0), limit=2)
    assert not truncated2
    assert len(paths2) == 2


def test_enumerate_at_goal(map_2x3, db_2x3):
    paths, truncated = enumerate_paths(db_2x3, map_2x3, GOAL_2X3)
    assert paths == [((GOAL_2X3,), (0, 0))]
    assert not truncated


def test_enumerate_unreachable():
    g = parse_map("3 3\n0 # 0\n# # 0\n0 0 0\n")
    db = build_database(g, [(2, 2)])
    assert enumerate_paths(db, g, (0, 0)) == ([], False)


def test_enumerate_rejects_bad_limit(map_2x3, db_2x3):
    with pytest.raises(ValueError):
        enumerate_paths(db_2x3, map_2x3, (0, 0), limit=0)


def path_cost(grid, cells):
    f1 = f2 = 0
    for a, b in zip(cells, cells[1:]):
        dz, dt = hop_cost(grid, a, b)
        f1 += dz
        f2 += dt
    return (f1, f2)


@pytest.mark.parametrize("seed", range(10))
def test_enumeration_invariants_random(seed):
    g = random_map(seed, 4, 4, 0.3, 3)
    cells = free_cells(g)
    goal = cells[-1]
    db = build_database(g, [goal])
    start = cells[0]
    paths, truncated = enumerate_paths(db, g, start)
    assert not truncated
    res = count_paths(db, g, start)
    assert len(paths) == res.total_paths
    seen = {}
    covered = set()
    for cells_on_path, vec in paths:
        assert cells_on_path[0] == start
        assert cells_on_path[-1] in db.goal.cells
        assert len(set(cells_on_path)) == len(cells_on_path)  # simple
        assert path_cost(g, cells_on_path) == vec
        assert vec in res.front
        seen[vec] = seen.get(vec, 0) + 1
        covered.update(cells_on_path)
    assert seen == res.counts or (not paths and res.total_paths == 0)
    if paths:
        assert covered == coverage(db, g, start)


def test_report_json_sections(db_2x3, map_2x3):
    res = count_paths(db_2x3, map_2x3, (0, 0))
    cov = coverage(db_2x3, map_2x3, (0, 0))
    paths, truncated = enumerate_paths(db_2x3, map_2x3, (0, 0))
    blob = render_report_json((0, 0), res.front, counts=res.counts,
                              total_paths=res.total_paths, coverage_cells=cov,
                              paths=paths, truncated=truncated)
    payload = json.loads(blob)
    assert payload == {
        "start": [0, 0],
        "front": [[20, 5], [28, 0]],
        "counts": [{"vector": [20, 5], "count": "1"},
                   {"vector": [28, 0], "count": "1"}],
        "total_paths": 2,
        "coverage": [[0, 0], [0, 1], [0, 2], [1, 1]],
        "paths": [{"cells": [[0, 0], [0, 1], [0, 2]], "vector": [20, 5]},
                  {"cells": [[0, 0], [1, 1], [0, 2]], "vector": [28, 0]}],
        "truncated": False,
    }
    assert blob.endswith(b"\n")


def test_report_json_omits_absent_sections():
    payload = json.loads(render_report_json((1, 2), ((10, 0),)))
    assert payload == {"start": [1, 2], "front": [[10, 0]]}


def test_front_csv():
    assert render_front_csv(FRONT_2X3) == "f1,f2\n20,5\n28,0\n"
    assert render_front_csv(()) == "f1,f2\n"


def test_coverage_ascii(map_2x3, db_2x3):
    cov = coverage(db_2x3, map_2x3, (0, 0))
    art = render_coverage_ascii(map_2x3, (0, 0), db_2x3.goal.cells, cov)
    assert art == "S*G\n.*.\n"


def test_coverage_ascii_marks_obstacles(map_3x3_ring):
    # The two 34-cost routes pass (0,1),(1,2) and (1,0),(2,1); the far
    # corners (0,2) and (2,0) are on no optimal path.
    db = build_database(map_3x3_ring, [(2, 2)])
    cov = coverage(db, map_3x3_ring, (0, 0))
    art = render_coverage_ascii(map_3x3_ring, (0, 0), db.goal.cells, cov)
    assert art == "S*.\n*#*\n.*G\n"


def test_coverage_pgm(map_2x3, db_2x3):
    cov = coverage(db_2x3, map_2x3, (0, 0))
    data = render_coverage_pgm(map_2x3, cov)
    header, rest = data.split(b"\n", 1)
    assert header == b"P5"
    dims, rest = rest.split(b"\n", 1)
    assert dims == b"3 2"
    maxval, pixels = rest.split(b"\n", 1)
    assert maxval == b"255"
    assert pixels == bytes([255, 255, 255, 128, 255, 128])
