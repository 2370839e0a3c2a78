"""Database builder tests: fixed-point values on hand-checked maps, schedule
equivalence, verification, and serialization round-trips."""

import gc
import json

import numpy as np
import pytest

from cellplan import (
    CONVENTION_TAG,
    CostOverflowError,
    Database,
    DigestMismatchError,
    GoalRegion,
    GridMap,
    build_database,
    free_cells,
    hop_cost,
    load_database,
    map_digest,
    parse_map,
    random_map,
    save_database,
    verify_database,
)
from conftest import FRONT_2X3, GOAL_2X3, KEY_EDITS_2X3, TEXT_1X2, TEXT_2X3


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


def test_build_argument_validation(map_1x2):
    with pytest.raises(ValueError, match="schedule"):
        build_database(map_1x2, [(0, 1)], schedule="eager")


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


# (map, goal cell count) per seed. Zero terrain puts the worklist's f2 field
# at its narrowest width. The corridor's far end is 16 hops out on 17 cells,
# one more than a depth field a bit narrower could hold. Multi-cell goals are
# spread over the map.
_SCHEDULE_CASES = (
    [pytest.param(0, parse_map("1 17\n" + "0 " * 16 + "0\n"), 1, id="corridor")]
    + [pytest.param(s, random_map(s, 7, 9, 0.25, 4), 1, id=str(s)) for s in range(12)]
    + [pytest.param(s, random_map(s, 7, 9, 0.25, 0), 1, id=f"zero-terrain-{s}")
       for s in range(4)]
    + [pytest.param(s, random_map(s, 7, 9, 0.25, 4, allow_corner_cut=False), 1,
                    id=f"no-corner-cut-{s}") for s in range(4)]
    + [pytest.param(s, random_map(s, 7, 9, 0.25, 4), 3, id=f"multi-goal-{s}")
       for s in range(4)]
)


@pytest.mark.parametrize("seed, g, n_goals", _SCHEDULE_CASES)
def test_schedules_and_threads_agree(seed, g, n_goals):
    """Sweep and worklist builds are byte-identical, `iterations` included."""
    fc = free_cells(g)
    goal = [fc[(seed + k * len(fc) // n_goals) % len(fc)] for k in range(n_goals)]
    assert len(set(goal)) == n_goals
    assert (save_database(build_database(g, goal, schedule="sweep"))
            == save_database(build_database(g, goal, schedule="worklist")))


@pytest.mark.parametrize("seed", range(8))
def test_iterations_bounded_by_free_cells(seed):
    g = random_map(seed, 6, 6, 0.3, 3)
    cells = free_cells(g)
    db = build_database(g, [cells[0]], schedule="sweep")
    assert 1 <= db.iterations <= len(cells)


def test_verify_accepts_builds(map_2x3, db_2x3):
    assert verify_database(db_2x3, map_2x3)


def test_verify_rejects_perturbed_vector(map_2x3, db_2x3):
    labels = dict(db_2x3.labels)
    (f1, f2), rest = labels[(0, 0)][0], labels[(0, 0)][1:]
    labels[(0, 0)] = ((f1 + 1, f2),) + rest
    bad = Database(labels=labels, goal=db_2x3.goal, map_digest=db_2x3.map_digest,
                   iterations=db_2x3.iterations)
    assert not verify_database(bad, map_2x3)


def test_verify_rejects_injected_dominated_vector(map_2x3, db_2x3):
    labels = dict(db_2x3.labels)
    labels[(0, 0)] = labels[(0, 0)] + ((99, 99),)
    bad = Database(labels=labels, goal=db_2x3.goal, map_digest=db_2x3.map_digest,
                   iterations=db_2x3.iterations)
    assert not verify_database(bad, map_2x3)


def test_verify_rejects_missing_vector(map_2x3, db_2x3):
    labels = dict(db_2x3.labels)
    labels[(0, 0)] = labels[(0, 0)][:1]
    bad = Database(labels=labels, goal=db_2x3.goal, map_digest=db_2x3.map_digest,
                   iterations=db_2x3.iterations)
    assert not verify_database(bad, map_2x3)


def test_verify_rejects_bad_goal_seed(map_2x3, db_2x3):
    labels = dict(db_2x3.labels)
    labels[GOAL_2X3] = ((0, 0), (7, 0))
    bad = Database(labels=labels, goal=db_2x3.goal, map_digest=db_2x3.map_digest,
                   iterations=db_2x3.iterations)
    assert not verify_database(bad, map_2x3)


def test_verify_requires_matching_map(db_2x3):
    other = parse_map("2 3\n0 4 0\n0 0 0\n")
    with pytest.raises(DigestMismatchError):
        verify_database(db_2x3, other)


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
    payload = json.loads(save_database(db_2x3))
    assert payload["version"] == 1
    assert payload["map_digest"] == db_2x3.map_digest
    assert payload["convention_tag"] == CONVENTION_TAG
    assert payload["goal"] == [[0, 2]]
    assert payload["iterations"] == 3
    assert payload["labels"]["0,0"] == [[20, 5], [28, 0]]
    assert list(payload["labels"]) == sorted(payload["labels"], key=lambda k: tuple(map(int, k.split(","))))


def test_load_rejects_malformed(db_2x3):
    blob = save_database(db_2x3)
    with pytest.raises(ValueError):
        load_database(blob[:-20])
    with pytest.raises(ValueError):
        load_database(b"[]\n")
    payload = json.loads(blob)
    for breakage in [
        {"version": 99},
        {"map_digest": ""},
        {"convention_tag": None},
        {"iterations": -1},
        {"iterations": True},
        {"goal": []},
        {"goal": [[0, 2, 9]]},
        {"labels": [["0,0"]]},
        {"labels": {"0": [[1, 2]]}},
        {"labels": {"0,0": [[1]]}},
        {"labels": {"0,0": [[1, -2]]}},
    ]:
        broken = dict(payload)
        broken.update(breakage)
        with pytest.raises(ValueError):
            load_database(json.dumps(broken).encode())


@pytest.mark.parametrize("old, new", KEY_EDITS_2X3)
def test_load_rejects_noncanonical_keys(db_2x3, old, new):
    blob = save_database(db_2x3)
    assert blob.count(old) == 1
    with pytest.raises(ValueError, match="label key"):
        load_database(blob.replace(old, new))


def test_load_restores_collector_state(db_2x3):
    blob = save_database(db_2x3)
    assert gc.isenabled()
    with pytest.raises(ValueError):
        load_database(blob[:-20])
    assert gc.isenabled()
    gc.disable()
    try:
        load_database(blob)
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_load_missing_digest():
    payload = json.loads(save_database(
        build_database(parse_map(TEXT_1X2), [(0, 1)])))
    del payload["map_digest"]
    with pytest.raises(ValueError, match="digest"):
        load_database(json.dumps(payload).encode())


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
