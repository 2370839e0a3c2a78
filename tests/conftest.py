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
# that the loader must reject: aliases of "1,0", a repeated key, and a key
# out of (r, c) order.
KEY_EDITS_2X3 = [
    pytest.param(b'"1,0":', b'"+1,00":', id="alias-plus-zero"),
    pytest.param(b'"1,0":', b'"01,0":', id="alias-leading-zero"),
    pytest.param(b'"1,0":', b'"1, 0":', id="alias-space"),
    pytest.param(b'"1,1":', b'"1,0":', id="duplicate"),
    pytest.param(b'"1,2":', b'"0,3":', id="out-of-order"),
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
