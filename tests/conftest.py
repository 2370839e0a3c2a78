"""Shared fixtures: small hand-checkable maps and build helpers."""

import pytest

from cellplan import GoalRegion, build_database, parse_map

# 6-cell map with one expensive cell. From (0,0) to the goal (0,2) there are
# exactly two non-dominated routes: straight through the cost-5 cell, or the
# longer zero-cost dip through (1,1).
TEXT_2X3 = "2 3\n0 5 0\n0 0 0\n"
GOAL_2X3 = (0, 2)
FRONT_2X3 = ((20, 5), (28, 0))

# Label-key edits of the saved 2x3 database (keys "0,0" ... "1,2" in order)
# that the loader must reject: aliases of "1,0", a repeated key, a key out
# of (r, c) order, a negative cell, and a key with an empty label list.
KEY_EDITS_2X3 = [
    pytest.param(b'"1,0":', b'"+1,00":', id="alias-plus-zero"),
    pytest.param(b'"1,0":', b'"01,0":', id="alias-leading-zero"),
    pytest.param(b'"1,0":', b'"1, 0":', id="alias-space"),
    pytest.param(b'"1,1":', b'"1,0":', id="duplicate"),
    pytest.param(b'"1,2":', b'"0,3":', id="out-of-order"),
    pytest.param(b'"0,0":', b'"-5,0":', id="negative"),
    pytest.param(b'"1,2":[[10,0]]', b'"1,2":[]', id="empty-labels"),
]

# Edits of cell (0,0)'s saved label set [[20,5],[28,0]] that break canonical
# order (f1 strictly increasing, f2 strictly decreasing).
ORDER_EDITS_2X3 = [
    pytest.param(b'[[28,0],[20,5]]', id="swapped"),
    pytest.param(b'[[20,5],[20,5],[28,0]]', id="repeated"),
    pytest.param(b'[[20,5],[28,5]]', id="dominated"),
]

# Edits of the saved 2x3 database that still parse as JSON but that the
# loader must reject, with the error text each raises: a goal cell that does
# not hold exactly [[0,0]], and bytes save_database never writes.
LOADER_EDITS_2X3 = [
    pytest.param(b'"0,2":[[0,0]]', b'"0,2":[[1,0]]', "goal cell", id="goal-front"),
    pytest.param(b'"iterations":3', b'"iterations":4,"iterations":3', "header fields",
                 id="repeated-header-key"),
    pytest.param(b'"iterations":3', b'"iterations":3,"x":1', "header fields",
                 id="unknown-header-field"),
    pytest.param(b'"version":1', b'"version":1.0', "saved form", id="float-version"),
    pytest.param(b'"goal":', b'"goal": ', "saved form", id="header-whitespace"),
    pytest.param(b'[[10,5]]', b'[ [10,5]]', "label section", id="label-whitespace"),
    pytest.param(b'"goal":[[0,2]]', b'"goal":[[0,2],[0,2]]', "saved form",
                 id="repeated-goal-cell"),
    pytest.param(b'"1,2":[[10,0]]', b'"1,2":[[10,-0]]', "label section", id="minus-zero"),
    pytest.param(b'"0,1":', b'"\\u0030,1":', "label section", id="escaped-key"),
]

TEXT_1X2 = "1 2\n0 0\n"
TEXT_1X3 = "1 3\n0 0 0\n"

# 3x3 with the centre blocked; the two ways around (2,2) tie at (34, 0).
TEXT_3X3_RING = "3 3\n0 0 0\n0 # 0\n0 0 0\n"


@pytest.fixture
def map_2x3():
    return parse_map(TEXT_2X3)


@pytest.fixture
def db_2x3(map_2x3):
    return build_database(map_2x3, [GOAL_2X3])


@pytest.fixture
def map_1x2():
    return parse_map(TEXT_1X2)


@pytest.fixture
def map_1x3():
    return parse_map(TEXT_1X3)


@pytest.fixture
def map_3x3_ring():
    return parse_map(TEXT_3X3_RING)


def build(grid, goal_cells, **kw):
    return build_database(grid, GoalRegion(goal_cells), **kw)
