"""Query layer tests: fronts, successor decompositions, exact counts,
coverage, enumeration, and the report renderers."""

import gc
import itertools
import json
import math
import random
import re
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import cellplan.grid as grid_module
import cellplan.query as query_module

from cellplan import (
    DigestMismatchError,
    GoalRegion,
    GridMap,
    QueryResult,
    brute_force,
    build_database,
    count_paths,
    coverage,
    enumerate_paths,
    free_cells,
    heuristic,
    load_database,
    moa_star,
    neighbors,
    parse_map,
    pareto_front_at,
    random_map,
    render_coverage_ascii,
    render_coverage_pgm,
    render_front_csv,
    render_report_json,
    save_database,
    successors,
)
from cellplan.grid import MAX_COMPONENT
from conftest import (
    FRONT_2X3,
    GOAL_2X3,
    TEXT_1X2,
    TEXT_2X3,
    big_terrain,
    db_from_labels,
    hop_cost,
)


def test_front_at_goal(db_2x3):
    assert pareto_front_at(db_2x3, GOAL_2X3) == ((0, 0),)


def test_front_example(db_2x3):
    assert pareto_front_at(db_2x3, (0, 0)) == FRONT_2X3


def test_front_unreachable():
    g = parse_map("3 3\n0 # 0\n# # 0\n0 0 0\n")
    db = build_database(g, [(2, 2)])
    assert pareto_front_at(db, (0, 0)) == ()
    # It takes no map, so an obstacle, which holds no labels, answers the same.
    assert pareto_front_at(db, (0, 1)) == ()


def test_successors_single_hop(map_1x2):
    db = build_database(map_1x2, [(0, 1)])
    assert successors(db, map_1x2, (0, 0), (10, 0)) == [((0, 1), (0, 0))]


def test_successors_example(map_2x3, db_2x3):
    # The cost-5 cell (0,1) keeps its own terrain in its stored vector;
    # the hop from (0,0) only adds terrain of (0,0), which is zero.
    assert successors(db_2x3, map_2x3, (0, 0), (20, 5)) == [((0, 1), (10, 5))]
    assert successors(db_2x3, map_2x3, (0, 0), (28, 0)) == [((1, 1), (14, 0))]


# Vectors at (0, 0) of the 2x3 map that no label holds, by the key stride.
# (0, 1) is the next cell and holds (10, 5): stride + 10 is its key's f1
# part seen from (0, 0), which a key-based lookup would alias.
_HOSTILE_VECTORS = [
    pytest.param(lambda stride: (99, 99), id="absent"),
    pytest.param(lambda stride: (-20, 5), id="negative-f1"),
    pytest.param(lambda stride: (stride + 10, 5), id="next-cell-key"),
    pytest.param(lambda stride: (2**63, 0), id="f1-2**63"),
    pytest.param(lambda stride: (2**64 + 20, 5), id="f1-past-uint64"),
    pytest.param(lambda stride: (20.5, 5), id="float-f1"),
    pytest.param(lambda stride: (20, 5.5), id="float-f2"),
]


@pytest.mark.parametrize("form", ["built", "loaded", "width-8"])
@pytest.mark.parametrize("vector", _HOSTILE_VECTORS)
def test_successors_rejects_unknown_vector(map_2x3, db_2x3, form, vector):
    """Built and loaded, the 2x3 database holds f1 and f2 as uint8; the
    width-8 one is conftest's big_terrain, whose f2 is int64."""
    g, db = map_2x3, db_2x3
    if form == "loaded":
        db = load_database(save_database(db_2x3))
    elif form == "width-8":
        g, db = big_terrain()
    assert (db.f1.dtype, db.f2.dtype) == (np.uint8, np.int64 if form == "width-8" else np.uint8)
    with pytest.raises(ValueError, match="not in the label set"):
        successors(db, g, (0, 0), vector(db.label_key[1]))


def test_successors_at_goal(map_2x3, db_2x3):
    assert successors(db_2x3, map_2x3, GOAL_2X3, (0, 0)) == []


def test_front_and_successors_check_canonical_form(map_2x3, db_2x3):
    # A goal seed other than (0, 0), or a front out of order, is refused by
    # the lookups that read one cell, at that cell too, never answered.
    meta = {"goal": db_2x3.goal, "map_digest": db_2x3.map_digest,
            "iterations": db_2x3.iterations}
    seeded = db_from_labels({**db_2x3.labels, GOAL_2X3: ((0, 1),)}, 2, 3, **meta)
    with pytest.raises(ValueError, match="goal cell 0,2 must hold exactly"):
        pareto_front_at(seeded, GOAL_2X3)
    with pytest.raises(ValueError, match="goal cell 0,2 must hold exactly"):
        successors(seeded, map_2x3, GOAL_2X3, (0, 1))
    swapped = db_from_labels({**db_2x3.labels, (0, 0): FRONT_2X3[::-1]}, 2, 3, **meta)
    with pytest.raises(ValueError, match="canonical order"):
        pareto_front_at(swapped, (0, 0))
    with pytest.raises(ValueError, match="canonical order"):
        successors(swapped, map_2x3, (1, 1), (14, 0))


def test_queries_check_the_map_digest(map_2x3, db_2x3):
    # The goal cell's terrain is never paid, so a map that differs only
    # there gives the same label sets: only the digest tells the maps apart.
    other = parse_map("2 3\n0 5 7\n0 0 0\n")
    twin = build_database(other, [GOAL_2X3])
    assert all(np.array_equal(getattr(twin, k), getattr(db_2x3, k))
               for k in ("counts", "f1", "f2"))
    checks = [lambda g: count_paths(db_2x3, g, (0, 0)),
              lambda g: coverage(db_2x3, g, (0, 0)),
              lambda g: enumerate_paths(db_2x3, g, (0, 0)),
              lambda g: successors(db_2x3, g, (0, 0), (20, 5)),
              lambda g: successors(db_2x3, g, GOAL_2X3, (0, 0))]
    for check in checks:
        with pytest.raises(DigestMismatchError, match="does not match"):
            check(other)
        check(map_2x3)


def test_map_digest_is_computed_once_per_map(db_2x3, monkeypatch):
    # Two equal maps in turn: every query makes a new step, and each map
    # is serialized for its digest once. Their text has a double space, so
    # parse_map cannot take the digest from it; two more maps parsed from
    # canonical text already hold theirs and are never serialized.
    serialized = []
    serialize = grid_module.serialize_map
    monkeypatch.setattr(grid_module, "serialize_map",
                        lambda g: serialized.append(g) or serialize(g))
    maps = [parse_map(TEXT_2X3.replace(" ", "  ")), parse_map(TEXT_2X3.replace(" ", "  "))]
    canonical = [parse_map(TEXT_2X3), parse_map(TEXT_2X3)]
    for _ in range(3):
        for g in maps + canonical:
            count_paths(db_2x3, g, (0, 0))
            coverage(db_2x3, g, (1, 0))
            successors(db_2x3, g, (0, 0), (20, 5))
    assert list(map(id, serialized)) == list(map(id, maps))


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


def _reference_graph(db, g, start):
    """Successor lists of every state reachable from `start`, built from
    neighbors, hop_cost and db.front alone."""
    succ = {}
    stack = [(start, v) for v in db.front(start)]
    while stack:
        state = stack.pop()
        if state in succ:
            continue
        cell, vec = state
        nxt = []
        if cell not in db.goal.cells:
            for j, _step in neighbors(g, cell):
                dz, dt = hop_cost(g, cell, j)
                w = (vec[0] - dz, vec[1] - dt)
                if w in db.front(j):
                    nxt.append((j, w))
        succ[state] = nxt
        stack.extend(nxt)
    return succ


def _reference_paths(succ, state):
    """Every path from `state` to a goal cell, depth-first in list order."""
    cell = state[0]
    if not succ[state]:
        return [(cell,)]
    return [(cell,) + rest for nxt in succ[state] for rest in _reference_paths(succ, nxt)]


@pytest.mark.parametrize("corner_cut, max_cost, n_goals", _SUCCESSOR_CASES)
@given(st.integers(0, 10**6), st.integers(1, 7), st.integers(1, 7))
def test_queries_match_reference_graph(corner_cut, max_cost, n_goals, seed, rows, cols):
    """count_paths, coverage and the full ordered enumerate_paths agree with a
    successor graph built in the test at every reachable start, called in
    row-major order of starts and again in a shuffled order, so that most
    answers come from the database's memo of the last start's graph."""
    g = random_map(seed, rows, cols, 0.25, max_cost, allow_corner_cut=corner_cut)
    fc = free_cells(g)
    goal = {fc[(seed + k * len(fc) // n_goals) % len(fc)] for k in range(n_goals)}
    db = build_database(g, goal)

    def check_count(start, front, succ, paths):
        res = count_paths(db, g, start)
        assert res.front == front
        assert res.counts == {vec: sum(1 for _, v in paths if v == vec) for vec in front}

    def check_coverage(start, front, succ, paths):
        assert coverage(db, g, start) == {cell for cell, _vec in succ}

    def check_paths(start, front, succ, paths):
        assert enumerate_paths(db, g, start) == (paths, False)

    reference = {}
    for start, front in db.labels.items():
        succ = _reference_graph(db, g, start)
        paths = [(cells, vec) for vec in front for cells in _reference_paths(succ, (start, vec))]
        reference[start] = (front, succ, paths)
    calls = [(start, check) for start in reference
             for check in (check_count, check_coverage, check_paths)]
    for start, check in calls + random.Random(seed).sample(calls, len(calls)):
        check(start, *reference[start])


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


_START_QUERIES = {
    "count_paths": lambda db, g, start: count_paths(db, g, start),
    "moa_star": lambda db, g, start: moa_star(g, start, [GOAL_2X3]),
    "heuristic": lambda db, g, start: heuristic(g, start, [GOAL_2X3]),
    "brute_force": lambda db, g, start: brute_force(g, start, [GOAL_2X3]),
    "successors": lambda db, g, start: successors(db, g, start, (24, 0)),
    "pareto_front_at": lambda db, g, start: pareto_front_at(db, start),
}


@pytest.mark.parametrize("start", [(True, 0), (1.0, 0), (1, np.float64(0))],
                         ids=["bool", "float", "numpy-float"])
@pytest.mark.parametrize("query", sorted(_START_QUERIES))
def test_start_coordinates_must_be_integers(map_2x3, db_2x3, query, start):
    # One coordinate rule for start and goal cells: a bool or a float is
    # refused, not read as the cell it would round to; numpy integers pass.
    run = _START_QUERIES[query]
    with pytest.raises(ValueError, match="must be integers"):
        run(db_2x3, map_2x3, start)
    assert run(db_2x3, map_2x3, (np.int64(1), np.int32(0))) == run(db_2x3, map_2x3, (1, 0))
    with pytest.raises(KeyError):
        db_2x3.labels[start]


@pytest.mark.parametrize("start", [(9, 9), (-1, 0)], ids=["past-the-end", "negative"])
@pytest.mark.parametrize("query", sorted(_START_QUERIES))
def test_start_outside_the_map_is_refused(map_2x3, db_2x3, query, start):
    # Every start query, pareto_front_at included, refuses a start outside
    # the map with the same message rather than answering as if unreachable.
    with pytest.raises(ValueError, match=re.escape(f"cell {start} is out of bounds")):
        _START_QUERIES[query](db_2x3, map_2x3, start)


# Every public entry that takes a cell, called as (db, grid, cell).
_CELL_ENTRIES = {
    "pareto_front_at": lambda db, g, cell: pareto_front_at(db, cell),
    "count_paths": lambda db, g, cell: count_paths(db, g, cell),
    "coverage": lambda db, g, cell: coverage(db, g, cell),
    "enumerate_paths": lambda db, g, cell: enumerate_paths(db, g, cell),
    "successors": lambda db, g, cell: successors(db, g, cell, (24, 0)),
    "moa_star": lambda db, g, cell: moa_star(g, cell, [GOAL_2X3]),
    "heuristic": lambda db, g, cell: heuristic(g, cell, [GOAL_2X3]),
    "brute_force": lambda db, g, cell: brute_force(g, cell, [GOAL_2X3]),
    "build_database-goal": lambda db, g, cell: build_database(g, [GOAL_2X3, cell]),
    "GoalRegion": lambda db, g, cell: GoalRegion([cell]),
    "Database.front": lambda db, g, cell: db.front(cell),
    "Database.index": lambda db, g, cell: db.index(cell),
    "render_coverage_ascii": lambda db, g, cell: render_coverage_ascii(g, cell, [GOAL_2X3], []),
    "render_coverage_pgm": lambda db, g, cell: render_coverage_pgm(g, [cell]),
}


@pytest.mark.parametrize("cell", [(True, 0), (1.0, 0), (0.5, 0), (np.float64(0), 0)],
                         ids=["bool", "float", "half", "numpy-float"])
@pytest.mark.parametrize("entry", sorted(_CELL_ENTRIES))
def test_every_cell_entry_follows_the_coordinate_rule(map_2x3, db_2x3, entry, cell):
    # The one coordinate rule, at every public entry that takes a cell: a
    # bool or a float coordinate is a ValueError, never the cell it rounds to.
    with pytest.raises(ValueError, match="must be integers"):
        _CELL_ENTRIES[entry](db_2x3, map_2x3, cell)


def _report(result: QueryResult) -> bytes:
    return render_report_json(result.start, result.front, counts=result.counts,
                              total_paths=result.total_paths,
                              coverage_cells=result.coverage, paths=result.paths)


# Every entry point that checks a start cell, called as (db, grid, start).
_CHECKED_START_QUERIES = {
    "count_paths": lambda db, g, start: count_paths(db, g, start),
    "count_paths-report": lambda db, g, start: _report(count_paths(db, g, start)),
    "coverage": lambda db, g, start: coverage(db, g, start),
    "enumerate_paths": lambda db, g, start: enumerate_paths(db, g, start),
    "successors": lambda db, g, start: successors(db, g, start, db.front(start)[0]),
    "moa_star": lambda db, g, start: moa_star(g, start, db.goal),
    "heuristic": lambda db, g, start: heuristic(g, start, db.goal),
    "brute_force": lambda db, g, start: brute_force(g, start, db.goal, include_paths=True),
    "brute_force-report": lambda db, g, start: _report(brute_force(g, start, db.goal,
                                                                   include_paths=True)),
    "neighbors": lambda db, g, start: neighbors(g, start),
}

# The 2x3 test map, and a map whose terrain puts MOA*'s packed heap keys
# past 64 bits, where a numpy start's key would be an int64 and overflow.
_NEAR_OVERFLOW = MAX_COMPONENT // 12
_CHECKED_START_MAPS = {
    "2x3": lambda: (parse_map(TEXT_2X3), [GOAL_2X3]),
    "near-overflow": lambda: (GridMap([[_NEAR_OVERFLOW, 1, _NEAR_OVERFLOW],
                                       [2, _NEAR_OVERFLOW, 0]], np.zeros((2, 3), dtype=bool)),
                              [(1, 2)]),
}


def _python_ints(x) -> bool:
    """Whether every number in `x`, through query results, containers and
    dicts, is a Python int (or a bool flag)."""
    if isinstance(x, QueryResult):
        x = list(vars(x).values())
    if isinstance(x, dict):
        x = list(x.items())
    if isinstance(x, (tuple, list, set, frozenset)):
        return all(map(_python_ints, x))
    return x is None or type(x) in (int, bool, bytes)


@pytest.mark.parametrize("name", sorted(_CHECKED_START_MAPS))
@pytest.mark.parametrize("query", sorted(_CHECKED_START_QUERIES))
def test_numpy_start_answers_in_python_ints(query, name):
    """require_free's tuple of Python ints is the start every entry point
    keeps: a start of numpy integers answers exactly as one of Python ints,
    in Python ints, so it renders as JSON and packs into MOA*'s keys."""
    g, goal = _CHECKED_START_MAPS[name]()
    db = build_database(g, goal)
    run = _CHECKED_START_QUERIES[query]
    got = run(db, g, (np.int64(0), np.int64(0)))
    assert got == run(db, g, (0, 0))
    assert _python_ints(got)


@pytest.mark.parametrize("query", [count_paths, coverage, enumerate_paths],
                         ids=["count_paths", "coverage", "enumerate_paths"])
def test_count_mismatched_database(map_2x3, db_2x3, query):
    # Same shape, different terrain: stored vectors stop decomposing. No
    # failed graph is kept, so every query on the pair raises, before and
    # after a good query has filled the memo.
    other = parse_map("2 3\n0 4 0\n0 0 0\n")
    for _ in range(2):
        for q in (query, count_paths, coverage, enumerate_paths):
            with pytest.raises(ValueError, match="does not match"):
                q(db_2x3, other, (0, 0))
        assert coverage(db_2x3, map_2x3, (0, 0)) == {(0, 0), (0, 1), (0, 2), (1, 1)}


_QUERIES = {
    "count": lambda db, g, start: count_paths(db, g, start).counts,
    "coverage": coverage,
    "paths": lambda db, g, start: enumerate_paths(db, g, start, limit=1),
}


@pytest.mark.parametrize("order", list(itertools.permutations(_QUERIES)),
                         ids="-".join)
def test_queries_share_one_graph(map_3x3_ring, graph_builds, order):
    # Each query at one start, in any order, reads one graph and answers as
    # it does on a database of its own.
    db = build_database(map_3x3_ring, [(2, 2)])
    for name in order:
        fresh = build_database(map_3x3_ring, [(2, 2)])
        assert _QUERIES[name](db, map_3x3_ring, (0, 0)) == \
            _QUERIES[name](fresh, map_3x3_ring, (0, 0))
    own = [args for args in graph_builds if args[0] is db]
    assert len(own) == 1


def test_graph_memo_keys(map_2x3, db_2x3, graph_builds):
    # One entry, keyed on the database, the map object and the start.
    count_paths(db_2x3, map_2x3, (0, 0))
    coverage(db_2x3, map_2x3, (0, 0))
    assert len(graph_builds) == 1
    coverage(db_2x3, map_2x3, (1, 1))
    assert len(graph_builds) == 2
    assert graph_builds[-1][2] == (1, 1)
    coverage(db_2x3, map_2x3, (0, 0))  # only the last start is kept
    assert len(graph_builds) == 3
    equal_map = parse_map(TEXT_2X3)
    assert equal_map == map_2x3
    assert coverage(db_2x3, equal_map, (0, 0)) == coverage(db_2x3, map_2x3, (0, 0))
    assert len(graph_builds) == 5
    other_db = build_database(map_2x3, [GOAL_2X3])
    assert enumerate_paths(other_db, map_2x3, (0, 0)) == enumerate_paths(db_2x3, map_2x3, (0, 0))
    assert len(graph_builds) == 6


def test_queried_database_is_freed_without_the_collector(map_2x3):
    # The memo holds no reference back to its database, so dropping the
    # last reference frees it at once.
    db = build_database(map_2x3, [GOAL_2X3])
    count_paths(db, map_2x3, (0, 0))
    successors(db, map_2x3, (0, 0), (20, 5))
    ref = weakref.ref(db)
    gc.disable()
    try:
        del db
        assert ref() is None
    finally:
        gc.enable()


def test_successors_reuse_the_step(map_2x3, db_2x3, monkeypatch):
    steps = []
    make_step = query_module._Step

    def counted(*args):
        steps.append(args)
        return make_step(*args)

    monkeypatch.setattr(query_module, "_Step", counted)
    count_paths(db_2x3, map_2x3, (0, 0))
    for cell, front in db_2x3.labels.items():
        for vec in front:
            successors(db_2x3, map_2x3, cell, vec)
    coverage(db_2x3, map_2x3, (1, 0))
    assert len(steps) == 1
    successors(db_2x3, parse_map(TEXT_2X3), (0, 0), (20, 5))
    assert len(steps) == 2


def test_a_graph_build_that_raises_leaves_later_starts_right():
    # A graph build that raises two hops from its start keeps the memo's
    # step, and later starts on that step answer as on the true database.
    g = parse_map("2 4\n0 0 0 0\n0 0 0 0\n")
    db = build_database(g, [(0, 3)])
    bad = db_from_labels({**db.labels, (0, 2): ((12, 0),)}, 2, 4, goal=db.goal,
                         map_digest=db.map_digest, iterations=db.iterations)
    step = query_module._memo_step(bad, g)
    with pytest.raises(ValueError, match="has no decomposition"):
        count_paths(bad, g, (0, 0))
    for start in ((1, 3), (1, 2), (0, 3)):
        assert count_paths(bad, g, start) == count_paths(db, g, start)
    assert query_module._memo_step(bad, g) is step


@pytest.fixture
def fast_thread_switches():
    """Threads switch every microsecond, so they interleave inside queries."""
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(old)


def _answers(db, g, start):
    return (count_paths(db, g, start).counts, coverage(db, g, start),
            enumerate_paths(db, g, start, limit=20))


class _LineBudget:
    """A trace function that raises once its thread has run `left` more
    lines of Python. A query that walks a corrupt graph can loop, or copy
    ever longer paths, without end; under a budget it fails its test
    instead, having spent little memory."""

    def __init__(self, left: int):
        self.left = left

    def __call__(self, frame, event, arg):
        self.left -= 1
        if self.left < 0:
            raise RuntimeError("a query ran past its line budget")
        return self


def test_threads_querying_one_database_get_single_thread_answers(fast_thread_switches):
    # Threads querying one database share its memo and nothing else: each
    # graph build has its own scratch, so every answer is the one a single
    # thread gets. What a thread raises is asserted on in the main thread.
    g = random_map(3, 30, 30, 0.15, 9)
    cells = free_cells(g)
    db = build_database(g, [cells[-1]])
    starts = cells[::len(cells) // 8][:8]
    want = {start: _answers(build_database(g, [cells[-1]]), g, start) for start in starts}
    wrong, errors = [], []
    barrier = threading.Barrier(2)

    def work(t):
        budget = _LineBudget(10**4)
        sys.settrace(budget)
        try:
            barrier.wait()
            for _ in range(4):
                for start in starts[t::2] + starts[1 - t::2]:
                    budget.left = 5 * 10**4  # the three queries at one start run under 6,000
                    if _answers(db, g, start) != want[start]:
                        wrong.append(start)
        except BaseException as e:
            errors.append(e)
        finally:
            sys.settrace(None)

    threads = [threading.Thread(target=work, args=(t,)) for t in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    assert wrong == []


def test_query_rejects_other_map_shape(db_2x3):
    other = parse_map("3 2\n0 0\n0 0\n0 0\n")
    with pytest.raises(ValueError, match="does not match"):
        count_paths(db_2x3, other, (0, 0))


def test_query_rejects_noncanonical_sets(map_2x3, db_2x3):
    # The key the queries search must be sorted; swapped sets are refused.
    labels = dict(db_2x3.labels)
    labels[(0, 0)] = labels[(0, 0)][::-1]
    bad = db_from_labels(labels, 2, 3, goal=db_2x3.goal,
                         map_digest=db_2x3.map_digest, iterations=db_2x3.iterations)
    with pytest.raises(ValueError, match="canonical order"):
        count_paths(bad, map_2x3, (1, 1))


def test_query_rejects_impossible_path_length(map_2x3, db_2x3):
    # No route on six cells is longer than 5 diagonal steps.
    labels = {**db_2x3.labels, (1, 0): ((71, 0),)}
    bad = db_from_labels(labels, 2, 3, goal=db_2x3.goal,
                         map_digest=db_2x3.map_digest, iterations=db_2x3.iterations)
    with pytest.raises(ValueError, match="longest route"):
        coverage(bad, map_2x3, (0, 0))


@pytest.mark.parametrize("seed", [(0, 1), (4, 0)])
@pytest.mark.parametrize("query", [count_paths, coverage, enumerate_paths])
def test_query_rejects_bad_goal_seed(map_2x3, db_2x3, seed, query):
    # A goal cell holds exactly (0, 0); any other seed is refused at the goal
    # and at a start whose routes lead there, never answered.
    labels = {**db_2x3.labels, GOAL_2X3: (seed,)}
    bad = db_from_labels(labels, 2, 3, goal=db_2x3.goal,
                         map_digest=db_2x3.map_digest, iterations=db_2x3.iterations)
    for start in (GOAL_2X3, (0, 0)):
        with pytest.raises(ValueError, match="goal cell"):
            query(bad, map_2x3, start)


def test_query_rejects_short_label_near_another_cells_key():
    # (9, 0) at (0, 0) decomposes through no move: every step is longer than 9.
    # Its step south looks up (1, 0) at path length -1, which must not land on
    # the key of (0, 1)'s label (10, 0).
    g = parse_map("2 2\n0 0\n0 0\n")
    db = build_database(g, [(1, 1)])
    bad = db_from_labels({**db.labels, (0, 0): ((9, 0),)}, 2, 2, goal=db.goal,
                         map_digest=db.map_digest, iterations=db.iterations)
    with pytest.raises(ValueError, match="does not match"):
        count_paths(bad, g, (0, 0))


def test_count_exceeds_int64():
    # Every shortest route from (0, 0) to (29, 69) takes 29 diagonal and 40
    # straight steps in some order: C(69, 29), about 2.4e22 routes.
    g = GridMap(np.zeros((30, 70), dtype=np.int64), np.zeros((30, 70), dtype=bool))
    db = build_database(g, [(29, 69)])
    res = count_paths(db, g, (0, 0))
    assert res.front == ((806, 0),)
    assert res.counts == {(806, 0): math.comb(69, 29)}
    assert res.total_paths > 2**64


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
    # A limit must be an int, as random_map's sizes and the bench config's
    # fields must: a bool is not read as 1, nor a float or a string converted.
    for limit in (True, False, 2.5, 1.0, "3", np.float64(2)):
        with pytest.raises(ValueError, match="limit must be a positive integer"):
            enumerate_paths(db_2x3, map_2x3, (0, 0), limit=limit)


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


def _reference_report(start, front, *, counts=None, total_paths=None, coverage_cells=None,
                      paths=None, truncated=None) -> bytes:
    """render_report_json as it was: the whole payload through json.dumps."""
    payload: dict = {"start": list(start), "front": [list(v) for v in front]}
    if counts is not None:
        payload["counts"] = [{"vector": list(v), "count": str(counts[v])} for v in front]
        payload["total_paths"] = int(total_paths)
    if coverage_cells is not None:
        payload["coverage"] = [list(c) for c in sorted(coverage_cells)]
    if paths is not None:
        payload["paths"] = [{"cells": [list(c) for c in cells], "vector": list(v)}
                            for cells, v in paths]
        payload["truncated"] = bool(truncated)
    return json.dumps(payload, separators=(",", ":")).encode("utf-8") + b"\n"


def _rendered(render, start, front, kwargs):
    try:
        return render(start, front, **kwargs)
    except (TypeError, ValueError, KeyError) as e:
        return type(e), str(e)


# Cell components: ints, and bools, which equal 0 and 1 but print otherwise.
_COMPONENT = st.one_of(st.integers(0, 1), st.integers(-5, 200), st.booleans())
_CELL = st.tuples(_COMPONENT, _COMPONENT)


def _twin(cell):
    """A cell equal to `cell` that prints otherwise where it holds a 0 or a 1."""
    return tuple(int(x) if type(x) is bool else bool(x) if x in (0, 1) else x for x in cell)


@st.composite
def _reports(draw):
    """(start, front, sections) of a report, sections drawn independently:
    counts above int64, repeated cells (the same object, an equal copy, or
    an equal cell that prints otherwise), empty and one-cell paths, and both
    truncation values."""
    front = tuple(draw(st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)),
                                max_size=4, unique=True)))
    sections = {}
    if draw(st.booleans()):
        counts = {v: draw(st.integers(0, 2**80)) for v in front}
        sections.update(counts=counts, total_paths=sum(counts.values()))
    if draw(st.booleans()):
        sections["coverage_cells"] = frozenset(draw(st.lists(st.tuples(st.integers(0, 50),
                                                                       st.integers(0, 50)))))
    if draw(st.booleans()):
        pool = draw(st.lists(_CELL, min_size=1, max_size=5))
        cell = st.sampled_from(pool).flatmap(
            lambda c: st.sampled_from([c, tuple(list(c)), list(c), _twin(c)]))
        vector = st.sampled_from(front) if front else st.tuples(st.integers(0, 9),
                                                                st.integers(0, 9))
        sections["paths"] = draw(st.lists(st.tuples(st.lists(cell, max_size=6).map(tuple),
                                                    vector), max_size=5))
        sections["truncated"] = draw(st.sampled_from([True, False, None]))
    return draw(_CELL), front, sections


@given(_reports())
def test_report_json_matches_json_dumps(report):
    start, front, sections = report
    assert _rendered(render_report_json, start, front, sections) \
        == _rendered(_reference_report, start, front, sections)


@pytest.mark.parametrize("bad", [
    pytest.param(lambda p: [((np.int64(1), 0),), *p], id="numpy-int-cell"),
    pytest.param(lambda p: [((0, 1), 7)] + p, id="int-vector"),
    pytest.param(lambda p: [(5, (10, 0))] + p, id="int-cells"),
    pytest.param(lambda p: [((0, 0), (10, 0), "extra")] + p, id="triple"),
    pytest.param(lambda p: p + [(((0, 0), 9),)], id="int-cell-late"),
    pytest.param(lambda p: p + [(((0, 0),), (np.float32(1), 0))], id="numpy-float-vector"),
])
def test_report_json_raises_what_json_dumps_raises(bad):
    paths = bad([(((0, 0), (0, 1)), (10, 0)), (((0, 0),), (0, 0))])
    for sections in ({"paths": paths, "truncated": True},
                     {"paths": paths, "coverage_cells": {(np.int64(2), 0)}}):
        got = _rendered(render_report_json, (0, 0), ((10, 0),), sections)
        assert isinstance(got, tuple)
        assert got == _rendered(_reference_report, (0, 0), ((10, 0),), sections)


def _reference_walk(graph, n_cols, front):
    """enumerate_paths' walk as it was: depth-first one state at a time."""
    off, succ = graph.offsets.tolist(), graph.succ.tolist()
    rows, cols = np.divmod(graph.cells, n_cols)
    cells = list(zip(rows.tolist(), cols.tolist()))
    for s, vec in enumerate(front):
        if off[s] == off[s + 1]:
            yield (cells[s],), vec
            continue
        path = [cells[s]]
        stack = [iter(succ[off[s]:off[s + 1]])]
        while stack:
            t = next(stack[-1], None)
            if t is None:
                stack.pop()
                path.pop()
                continue
            a, b = off[t], off[t + 1]
            if a == b:
                yield tuple(path) + (cells[t],), vec
            else:
                path.append(cells[t])
                stack.append(iter(succ[a:b]))


@pytest.mark.parametrize("size, limits", [
    pytest.param(7, (None,), id="every-path"),
    pytest.param(16, (1, 2, 5, 13), id="small-limits"),
])
@given(st.integers(0, 10**6), st.integers(1, 2**16), st.booleans(), st.sampled_from([0, 2, 9]))
def test_walk_matches_reference_walk(size, limits, seed, shape, corner_cut, max_cost):
    """enumerate_paths walks run by run, in the order and with the paths of
    the walk one state at a time; equal cells share one tuple."""
    rows, cols = 1 + shape % size, 1 + shape // size % size  # each in 1..size
    g = random_map(seed, rows, cols, 0.2, max_cost, allow_corner_cut=corner_cut)
    db = build_database(g, [free_cells(g)[seed % len(free_cells(g))]])
    enough = None if None in limits else max(limits) + 1
    for start, front in db.labels.items():
        query_module._checked_front(db, g, start)
        graph = query_module._memo_graph(db, start)
        want = list(itertools.islice(_reference_walk(graph, g.n_cols, front), enough))
        for limit in limits:
            paths, truncated = enumerate_paths(db, g, start, limit)
            assert paths == want[:limit]
            assert truncated == (limit is not None and len(want) > limit)
            assert len({id(c) for cells, _ in paths for c in cells}) \
                == len({c for cells, _ in paths for c in cells})


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


def test_coverage_pgm_marks_obstacles(map_3x3_ring):
    db = build_database(map_3x3_ring, [(2, 2)])
    data = render_coverage_pgm(map_3x3_ring, coverage(db, map_3x3_ring, (0, 0)))
    assert data == b"P5\n3 3\n255\n" + bytes([255, 255, 128, 255, 0, 255, 128, 255, 255])


def _reference_ascii(grid, start, goal_cells, covered) -> str:
    """render_coverage_ascii as it was: one scan over the map's cells."""
    start = tuple(start)
    goal_cells = set(map(tuple, goal_cells))
    covered = set(map(tuple, covered))
    rows = []
    for r in range(grid.n_rows):
        line = []
        for c in range(grid.n_cols):
            cell = (r, c)
            if cell == start:
                line.append("S")
            elif cell in goal_cells:
                line.append("G")
            elif cell in covered:
                line.append("*")
            elif grid.obstacle[r, c]:
                line.append("#")
            else:
                line.append(".")
        rows.append("".join(line))
    return "\n".join(rows) + "\n"


def _reference_pgm(grid, covered) -> bytes:
    """render_coverage_pgm as it was: one scan over the map's cells."""
    covered = set(map(tuple, covered))
    header = f"P5\n{grid.n_cols} {grid.n_rows}\n255\n".encode("ascii")
    pixels = bytearray()
    for r in range(grid.n_rows):
        for c in range(grid.n_cols):
            if (r, c) in covered:
                pixels.append(255)
            elif grid.obstacle[r, c]:
                pixels.append(0)
            else:
                pixels.append(128)
    return header + bytes(pixels)


# The forms a caller may give a cell in: a tuple, a list, numpy integers.
_CELL_FORMS = st.sampled_from([tuple, list, lambda c: (np.int64(c[0]), np.int32(c[1]))])


@given(st.integers(0, 10**6), st.integers(1, 12), st.integers(1, 12), st.booleans(),
       st.sampled_from([0.0, 0.2, 0.4]), st.data())
def test_pictures_match_reference_scans(seed, rows, cols, corner_cut, density, data):
    """Both pictures, drawn from arrays, give the reference scans' bytes:
    for one to three goal cells, a free start, and covered cells that are
    the start's coverage or any cells of the map, obstacles included."""
    g = random_map(seed, rows, cols, density, 3, allow_corner_cut=corner_cut)
    free = free_cells(g)
    assume(free)
    goal = data.draw(st.lists(st.sampled_from(free), min_size=1, max_size=3, unique=True))
    start = data.draw(st.sampled_from(free))
    db = build_database(g, goal)
    if db.front(start) and data.draw(st.booleans()):
        covered = coverage(db, g, start)
    else:
        covered = data.draw(st.sets(st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1))))

    def form(cell):
        return data.draw(_CELL_FORMS)(cell)

    start, goal, covered = form(start), [form(c) for c in goal], [form(c) for c in covered]
    assert render_coverage_ascii(g, start, goal, covered) == _reference_ascii(g, start, goal, covered)
    assert render_coverage_pgm(g, covered) == _reference_pgm(g, covered)


_PICTURE_ARGUMENTS = {
    "ascii-start": lambda g, cell: render_coverage_ascii(g, cell, [GOAL_2X3], [(0, 0)]),
    "ascii-goal": lambda g, cell: render_coverage_ascii(g, (0, 0), [GOAL_2X3, cell], [(0, 0)]),
    "ascii-covered": lambda g, cell: render_coverage_ascii(g, (0, 0), [GOAL_2X3], [(0, 0), cell]),
    "pgm-covered": lambda g, cell: render_coverage_pgm(g, [(0, 0), cell]),
}


@pytest.mark.parametrize("cell", [(True, 0), (0, 2.0), (np.float64(1), 0), (2, 0), (-1, 0),
                                  (0, 3), (0, -1), (5, 5)],
                         ids=["bool", "float", "numpy-float", "row-past-the-end", "negative-row",
                              "col-past-the-end", "negative-col", "far"])
@pytest.mark.parametrize("argument", sorted(_PICTURE_ARGUMENTS))
def test_pictures_refuse_bad_cells(map_2x3, argument, cell):
    """A bool, a float or an off-map cell in any cell argument of either
    picture is refused, not drawn as the cell it would round or wrap to."""
    with pytest.raises(ValueError, match="must be integers|out of bounds"):
        _PICTURE_ARGUMENTS[argument](map_2x3, cell)
