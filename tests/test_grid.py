"""Grid model tests: map I/O round-trips, neighborhood geometry, random maps."""

import copy
import hashlib
import pickle
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import cellplan.moastar as moastar
from cellplan.bench import _derive_seed
from cellplan.cellmap import build_database
from cellplan.grid import (
    DIAGONAL_STEP,
    MAX_COMPONENT,
    STRAIGHT_STEP,
    GoalRegion,
    GridMap,
    MapFormatError,
    _decimal,
    free_cells,
    map_digest,
    move_mask,
    neighbors,
    parse_map,
    random_map,
    require_free,
    serialize_map,
)
from cellplan.moastar import heuristic, moa_star
from cellplan.oracle import brute_force
from conftest import step_length

GOLDEN = Path(__file__).parent / "golden"


def test_parse_basic():
    g = parse_map("2 2\n0 1\n# 0\n")
    assert (g.n_rows, g.n_cols) == (2, 2)
    assert g.terrain[0, 1] == 1
    assert g.obstacle[1, 0]
    assert not g.obstacle[0, 0]


def test_parse_minimal():
    g = parse_map("1 1\n0\n")
    assert (g.n_rows, g.n_cols) == (1, 1)
    assert g.in_bounds((0, 0)) and not g.obstacle[0, 0]


@pytest.mark.parametrize("text,fragment", [
    ("2 2\n0 1\n0\n", "row 1 has 1 tokens"),
    ("2\n0 1\n# 0\n", "dimension line"),
    ("2 2\n0 1\n# 0", "newline"),
    ("2 2\n0 x\n# 0\n", "bad token"),
    ("0 2\n\n", "positive"),
    ("2 2\n0 1\n# 0\n# #\n", "expected 2 data rows"),
    ("a 2\n0 1\n# 0\n", "bad dimension token"),
    ("2 2\n0 -1\n# 0\n", "bad token"),
])
def test_parse_errors(text, fragment):
    with pytest.raises(MapFormatError) as err:
        parse_map(text)
    assert fragment in str(err.value)


def test_parse_rejects_undecodable_bytes():
    with pytest.raises(MapFormatError):
        parse_map(b"\xff\xfe\n")


def test_parse_rejects_overflow_risk():
    big = 2**62
    with pytest.raises(MapFormatError, match="overflow"):
        parse_map(f"1 2\n{big} 0\n")


@pytest.mark.parametrize("token", ["99999999999999999999", "9223372036854775808",
                                   "0" * 30 + "9223372036854775808", "9" * 5000],
                         ids=["20-digits", "int64-max-plus-1", "leading-zeros", "5000-digits"])
def test_parse_rejects_terrain_beyond_int64(token):
    # Costs that do not fit the terrain array are an overflow risk, not a crash.
    with pytest.raises(MapFormatError, match="^terrain costs could overflow a path sum; "
                                             "rescale the map$"):
        parse_map(f"1 2\n{token} 1\n")


@pytest.mark.parametrize("header, message", [
    ("9" * 5000 + " 1", f"expected {'9' * 5000} data rows"),
    ("1 " + "9" * 5000, f"row 0 has 1 tokens, expected {'9' * 5000}"),
    ("0099999999999999999999 1", "expected 99999999999999999999 data rows"),
    ("1 00" + "1" * 20, f"row 0 has 1 tokens, expected {'1' * 20}"),
], ids=["rows", "cols", "rows-20-digits", "cols-20-digits"])
def test_parse_refuses_a_5000_digit_dimension(header, message):
    # The text rule reads the dimension as MAX_COMPONENT + 1 without int(),
    # and no array is sized by the dimension line, so the map is malformed.
    # The message names the dimension the file holds, not the capped value.
    with pytest.raises(MapFormatError) as err:
        parse_map(f"{header}\n0\n")
    assert str(err.value) == message


def test_decimal_is_the_one_text_rule():
    assert [_decimal(t) for t in ("0", "007", "9" * 19, "0" * 30 + "1")] == [0, 7, 10**19 - 1, 1]
    assert _decimal("1" + "0" * 19) == _decimal("9" * 5000) == MAX_COMPONENT + 1
    for text in ["\uff13", "\u0663", "\u00b2", "0_1", "+1", "-0", " 1", "1 ", "1.0", "0x1", ""]:
        with pytest.raises(ValueError, match="expected ASCII decimal digits"):
            _decimal(text)


def test_parse_keeps_the_largest_cost_of_a_one_cell_map():
    # One free cell never sums two costs: int64's largest value still parses.
    g = parse_map(f"1 1\n{MAX_COMPONENT}\n")
    assert g.terrain[0, 0] == MAX_COMPONENT


def _reference_parse(text):
    """parse_map's contract, one token at a time: the (terrain, obstacle)
    lists of the map, or the text of the MapFormatError it raises."""
    if not text.endswith("\n"):
        return "map text must end with a newline"
    lines = text.split("\n")
    header = lines[0].split()
    if len(header) != 2:
        return f"dimension line has {len(header)} tokens, expected 2"
    for tok in header:
        if not (tok.isascii() and tok.isdigit()):
            return f"bad dimension token {tok!r}"
    n_rows, n_cols = map(int, header)
    if n_rows < 1 or n_cols < 1:
        return "dimensions must be positive"
    if len(lines) != n_rows + 2:
        return f"expected {n_rows} data rows"
    terrain, obstacle = [], []
    for r in range(n_rows):
        toks = lines[r + 1].split()
        if len(toks) != n_cols:
            return f"row {r} has {len(toks)} tokens, expected {n_cols}"
        for c, tok in enumerate(toks):
            if tok == "#":
                terrain.append(0)
                obstacle.append(True)
            elif tok.isascii() and tok.isdigit():
                terrain.append(int(tok))
                obstacle.append(False)
            else:
                return f"bad token {tok!r} at row {r}, column {c}"
    n = n_rows * n_cols
    top = max((t for t, o in zip(terrain, obstacle) if not o), default=0)
    if top * n > MAX_COMPONENT or DIAGONAL_STEP * n > MAX_COMPONENT:
        return "terrain costs could overflow a path sum; rescale the map"
    return terrain, obstacle


_GOOD_TOKENS = ["0", "3", "9", "#", "12", "007", "00"]
_ODD_TOKENS = ["-1", "\u00b2", "\u0663", "1x", "+1", "##", "1_0", str(MAX_COMPONENT),
               str(MAX_COMPONENT + 1), str(2**62), "9" * 25]
_SPACES = [" ", "  ", "\t", "\r", "\x0c", "\x0b", "\xa0", "\u2028", "\x1f"]


@st.composite
def _map_texts(draw):
    """Map text near the format: a valid map, then up to three edits (odd
    tokens, a short or long row, a missing or extra row, no final newline),
    with whitespace of every kind around the tokens."""
    n_rows, n_cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rows = [[draw(st.sampled_from(_GOOD_TOKENS)) for _ in range(n_cols)]
            for _ in range(n_rows)]
    newline = True
    for _ in range(draw(st.integers(0, 3))):
        r = draw(st.integers(0, len(rows) - 1)) if rows else 0
        edit = draw(st.sampled_from(["token", "token", "short", "long", "rows", "newline"]))
        if edit == "token" and rows and rows[r]:
            rows[r][draw(st.integers(0, len(rows[r]) - 1))] = draw(st.sampled_from(_ODD_TOKENS))
        elif edit == "short" and rows:
            rows[r] = rows[r][:-1]
        elif edit == "long" and rows:
            rows[r] = rows[r] + ["0"]
        elif edit == "rows":
            rows = rows[:-1] if draw(st.booleans()) else rows + [["0"] * n_cols]
        elif edit == "newline":
            newline = False

    def line(toks):
        edge = st.sampled_from(["", *_SPACES])
        text = draw(edge)
        for i, tok in enumerate(toks):
            text += (draw(st.sampled_from(_SPACES)) if i else "") + tok
        return text + draw(edge)

    return "\n".join([f"{n_rows} {n_cols}"] + [line(toks) for toks in rows]) + "\n" * newline


@given(_map_texts())
def test_parse_matches_reference(text):
    want = _reference_parse(text)
    for data in (text, text.encode("utf-8")):
        if isinstance(want, str):
            with pytest.raises(MapFormatError) as err:
                parse_map(data)
            assert str(err.value) == want
        else:
            g = parse_map(data)
            assert g.terrain.ravel().tolist() == want[0]
            assert g.obstacle.ravel().tolist() == want[1]


def test_serialize_examples():
    assert serialize_map(parse_map("1 1\n0\n")) == b"1 1\n0\n"
    assert serialize_map(parse_map("2 2\n0 1\n# 0\n")) == b"2 2\n0 1\n# 0\n"
    assert serialize_map(parse_map("1 2\n0 5\n")) == b"1 2\n0 5\n"


@given(st.integers(0, 2**32))
def test_roundtrip_random_maps(seed):
    g = random_map(seed % 1000, 1 + seed % 5, 1 + (seed // 5) % 6, 0.3, 4)
    data = serialize_map(g)
    g2 = parse_map(data)
    assert g2 == g
    assert serialize_map(g2) == data


def test_roundtrip_noncanonical_whitespace():
    # Extra spacing parses fine; serialization canonicalizes it.
    g = parse_map("2 2\n 0  1\n#   0\n")
    assert serialize_map(g) == b"2 2\n0 1\n# 0\n"


def test_neighbors_center():
    g = parse_map("3 3\n0 0 0\n0 0 0\n0 0 0\n")
    ns = neighbors(g, (1, 1))
    assert len(ns) == 8
    assert sum(1 for _, d in ns if d == STRAIGHT_STEP) == 4
    assert sum(1 for _, d in ns if d == DIAGONAL_STEP) == 4
    cells = [c for c, _ in ns]
    assert cells == sorted(cells)  # row-major order
    assert len(set(cells)) == 8


def test_neighbors_single_cell():
    g = parse_map("1 1\n0\n")
    assert neighbors(g, (0, 0)) == []


def test_neighbors_corner_cut_rule():
    text = "2 2\n0 #\n# 0\n"
    open_map = parse_map(text)
    closed_map = parse_map(text, allow_corner_cut=False)
    assert neighbors(open_map, (0, 0)) == [((1, 1), DIAGONAL_STEP)]
    assert neighbors(closed_map, (0, 0)) == []


@given(st.integers(0, 500))
def test_neighbors_corner_cut_superset(seed):
    g_open = random_map(seed, 4, 4, 0.4, 2)
    g_closed = random_map(seed, 4, 4, 0.4, 2, allow_corner_cut=False)
    for cell in free_cells(g_open):
        closed = neighbors(g_closed, cell)
        opened = neighbors(g_open, cell)
        assert set(closed) <= set(opened)
        for (r, c), _ in opened:
            assert g_open.in_bounds((r, c)) and not g_open.obstacle[r, c]


def _rule_moves(obstacle, corner_cut, r, c):
    """The move rule, restated from its definition: the eight surrounding
    cells in row-major order that are in bounds and free, 10 straight and 14
    diagonal, where without corner cutting a diagonal is blocked by an
    obstacle on either of the two cells it passes between."""
    rows, cols = len(obstacle), len(obstacle[0])
    out = []
    for dr in (-1, 0, 1):
        for dc in (-1, 0, 1):
            rr, cc = r + dr, c + dc
            if (dr, dc) == (0, 0) or not (0 <= rr < rows and 0 <= cc < cols):
                continue
            if obstacle[rr][cc]:
                continue
            diagonal = dr != 0 and dc != 0
            if diagonal and not corner_cut and (obstacle[r][cc] or obstacle[rr][c]):
                continue
            out.append(((rr, cc), 14 if diagonal else 10))
    return out


_SHAPES = {
    "one-row": (st.just(1), st.integers(1, 8)),
    "one-column": (st.integers(1, 8), st.just(1)),
    "any": (st.integers(1, 6), st.integers(1, 6)),
}


@pytest.mark.parametrize("corner_cut", [True, False], ids=["corner-cut", "no-corner-cut"])
@pytest.mark.parametrize("shape", sorted(_SHAPES))
@given(data=st.data())
def test_move_rule(shape, corner_cut, data):
    """move_mask, MOA*'s packed moves and neighbors all follow the move rule
    on random maps, and the rule is symmetric, as verify_database and MOA*'s
    backward searches assume. MOA* needs a goal, so its moves are checked
    on maps with a free cell."""
    row_st, col_st = _SHAPES[shape]
    rows, cols = data.draw(row_st), data.draw(col_st)
    obstacle = data.draw(st.lists(st.lists(st.booleans(), min_size=cols, max_size=cols),
                                  min_size=rows, max_size=rows))
    g = GridMap(np.zeros((rows, cols), dtype=np.int64), obstacle,
                allow_corner_cut=corner_cut)
    free = free_cells(g)
    if free:
        # MOA*'s moves are packed deltas: i + D = (rc1 << sh1) + (rc2 << cb) + j,
        # and the step is rc1 less the change in h1.
        e = moastar._heuristics(g, GoalRegion([free[0]]))
        assert len(e.moves) == rows * cols
        sh1 = e.cb + e.f2b
    allowed, shift, step = move_mask(g)
    assert allowed.shape == (rows * cols, 8)
    # NEIGHBOR_OFFSETS[7 - d] is the opposite direction of NEIGHBOR_OFFSETS[d].
    assert all(allowed[i + shift[d], 7 - d] for i, d in np.argwhere(allowed))
    for r in range(rows):
        for c in range(cols):
            i = r * cols + c
            masked = [(i + int(shift[d]), int(step[d])) for d in np.flatnonzero(allowed[i])]
            if free:
                row = []
                for x in (i + d for d in e.moves[i]):
                    j = x & ((1 << e.cb) - 1)
                    row.append((j, (x >> sh1) - int(e.h1[j]) + int(e.h1[i])))
                # Cells that cannot reach the goal have no moves.
                assert row == (masked if e.reach[i] else [])
            if obstacle[r][c]:
                assert masked == []
                with pytest.raises(ValueError):
                    neighbors(g, (r, c))
                continue
            want = _rule_moves(obstacle, corner_cut, r, c)
            assert neighbors(g, (r, c)) == want
            flat = [(rr * cols + cc, step) for (rr, cc), step in want]
            assert masked == flat


def test_neighbors_rejects_bad_cells():
    g = parse_map("2 2\n0 1\n# 0\n")
    with pytest.raises(ValueError):
        neighbors(g, (1, 0))
    with pytest.raises(ValueError):
        neighbors(g, (5, 5))


def test_step_length():
    assert step_length((0, 0), (0, 1)) == 10
    assert step_length((0, 0), (1, 1)) == 14
    with pytest.raises(ValueError):
        step_length((0, 0), (0, 2))
    with pytest.raises(ValueError):
        step_length((1, 1), (1, 1))


@given(st.tuples(st.integers(0, 9), st.integers(0, 9)),
       st.sampled_from([(-1, -1), (-1, 0), (-1, 1), (0, -1),
                        (0, 1), (1, -1), (1, 0), (1, 1)]))
def test_step_length_symmetric(cell, off):
    other = (cell[0] + off[0], cell[1] + off[1])
    assert step_length(cell, other) == step_length(other, cell)


def test_free_cells_row_major():
    g = parse_map("2 2\n0 #\n0 0\n")
    assert free_cells(g) == [(0, 0), (1, 0), (1, 1)]


@pytest.mark.parametrize("grid", [
    *(random_map(seed, rows, cols, 0.3, 5)
      for seed, (rows, cols) in enumerate([(1, 1), (1, 9), (9, 1), (7, 13), (30, 30)])),
    random_map(1, 1, 1, 0.0, 5),
    random_map(2, 6, 4, 0.0, 5),
], ids=["1x1", "1x9", "9x1", "7x13", "30x30", "1x1-open", "6x4-open"])
def test_free_cells_match_argwhere(grid):
    """The free cells as np.argwhere lists them, row-major, as tuples of
    plain ints."""
    cells = free_cells(grid)
    assert cells == [tuple(rc) for rc in np.argwhere(~grid.obstacle).tolist()]
    assert all(type(cell) is tuple and type(cell[0]) is int and type(cell[1]) is int
               for cell in cells)


def test_random_map_deterministic():
    a = random_map(7, 4, 4, 0.25, 2)
    b = random_map(7, 4, 4, 0.25, 2)
    assert a == b
    assert serialize_map(a) == serialize_map(b)


def test_random_map_golden_files():
    a = serialize_map(random_map(7, 4, 4, 0.25, 2))
    b = serialize_map(random_map(8, 4, 4, 0.25, 2))
    assert a == (GOLDEN / "seed7_4x4.map").read_bytes()
    assert b == (GOLDEN / "seed8_4x4.map").read_bytes()
    assert a != b


def test_random_map_degenerate_settings():
    g = random_map(7, 4, 4, 0.0, 0)
    assert not g.obstacle.any()
    assert not g.terrain.any()


def test_random_map_always_leaves_a_free_cell():
    for seed in range(40):
        g = random_map(seed, 2, 2, 0.99, 3)
        assert len(free_cells(g)) >= 1


def reference_random_map(seed, n_rows, n_cols, obstacle_density, max_cost, *,
                         allow_corner_cut=True):
    """random_map as it was written with one `randint` per free cell: the
    draws whose stream random_map's own rule must reproduce."""
    rng = random.Random(seed)
    blocked, costs = [], []  # row-major draws: each cell's obstacle roll, then its cost
    for _ in range(n_rows * n_cols):
        wall = rng.random() < obstacle_density
        blocked.append(wall)
        costs.append(0 if wall else rng.randint(0, max_cost))
    terrain = np.array(costs, dtype=np.int64).reshape(n_rows, n_cols)
    obstacle = np.array(blocked, dtype=bool).reshape(n_rows, n_cols)
    if obstacle.all():
        obstacle[0, 0] = False
        terrain[0, 0] = 0
    return GridMap(terrain, obstacle, allow_corner_cut=allow_corner_cut)


# Both sides of each power of two, where the width of the rejection draw changes.
@pytest.mark.parametrize("max_cost", [0, 1, 2, 3, 7, 8, 9, 15, 16, 255, 2**20])
def test_random_map_matches_the_randint_stream(max_cost):
    seeds = [0, 1, -7, 2**32 + 5, _derive_seed(2024, 1, 3, 0)]
    for seed in seeds:
        for density in (0.0, 0.3, 0.99):  # a 2x2 map at 0.99 hits the all-obstacle fallback
            for shape in ((1, 1), (2, 2), (3, 7), (9, 5)):
                for corner_cut in (True, False):
                    args = (seed, *shape, density, max_cost)
                    got = random_map(*args, allow_corner_cut=corner_cut)
                    assert got == reference_random_map(*args, allow_corner_cut=corner_cut), args


def test_random_map_draws_without_randint(monkeypatch):
    # Python promises only random()'s sequence across versions, so the cost
    # draw must not lean on randint or randrange. The golden maps and the
    # reference map's text come out the same without them.
    def refuse(*args, **kwargs):
        raise AssertionError("random_map must not call randint or randrange")

    monkeypatch.setattr(random.Random, "randint", refuse)
    monkeypatch.setattr(random.Random, "randrange", refuse)
    assert serialize_map(random_map(7, 4, 4, 0.25, 2)) == (GOLDEN / "seed7_4x4.map").read_bytes()
    assert serialize_map(random_map(8, 4, 4, 0.25, 2)) == (GOLDEN / "seed8_4x4.map").read_bytes()
    text = serialize_map(random_map(9, 117, 117, 0.15, 9))
    assert hashlib.sha256(text).hexdigest() == (
        "6b5b6011a39505ce720d8cfe2ebdfc8f0cfb08537db0434a4b784cfe3613a81d")


@pytest.mark.parametrize("kw", [
    dict(n_rows=0), dict(n_cols=0), dict(obstacle_density=1.0),
    dict(obstacle_density=-0.1), dict(max_cost=-1),
    dict(max_cost=2.0), dict(max_cost=2.5), dict(max_cost=True), dict(max_cost="3"),
    dict(n_rows=3.0), dict(n_rows=True), dict(n_cols=2.5), dict(n_cols="3"),
    dict(seed=1.0), dict(seed="abc"), dict(n_rows=2**62), dict(n_rows=10**20, max_cost=0),
])
def test_random_map_validation(kw):
    args = dict(seed=1, n_rows=3, n_cols=3, obstacle_density=0.2, max_cost=2)
    args.update(kw)
    with pytest.raises(ValueError):
        random_map(**args)


def test_gridmap_validation():
    with pytest.raises(ValueError):
        GridMap(np.zeros((0, 2), dtype=np.int64), np.zeros((0, 2), dtype=bool))
    with pytest.raises(ValueError):
        GridMap(np.zeros((2, 2)), np.zeros((2, 3), dtype=bool))
    with pytest.raises(ValueError):
        GridMap(np.array([[-1, 0]]), np.zeros((1, 2), dtype=bool))


def test_gridmap_is_read_only():
    terrain = np.array([[0, 3, 0], [2, 0, 1]], dtype=np.int64)
    obstacle = np.array([[False, False, True], [False, False, False]])
    g = GridMap(terrain, obstacle, allow_corner_cut=False)
    with pytest.raises(ValueError):
        g.terrain[0, 0] = 7
    with pytest.raises(ValueError):
        g.obstacle[1, 1] = True
    with pytest.raises(AttributeError):
        g.allow_corner_cut = True
    with pytest.raises(AttributeError):
        g.terrain = terrain
    for name in GridMap.__slots__:
        with pytest.raises(AttributeError, match="read-only"):
            delattr(g, name)
    assert g.allow_corner_cut is False
    # The map holds copies: the caller's arrays stay writeable and apart.
    terrain[0, 0] = 7
    obstacle[1, 1] = True
    assert g.terrain[0, 0] == 0 and not g.obstacle[1, 1]
    # A map built from another map's read-only arrays is read-only too.
    h = GridMap(g.terrain, g.obstacle, allow_corner_cut=False)
    assert h == g and h.terrain is not g.terrain
    assert not h.terrain.flags.writeable and not h.obstacle.flags.writeable
    assert parse_map(serialize_map(g), allow_corner_cut=False) == g


@pytest.mark.parametrize("make_copy", [copy.copy, copy.deepcopy,
                                       lambda g: pickle.loads(pickle.dumps(g))],
                         ids=["copy", "deepcopy", "pickle"])
def test_gridmap_copies_rebuild_through_the_constructor(make_copy):
    g = random_map(3, 5, 7, 0.3, 9, allow_corner_cut=False)
    digest = map_digest(g)  # fills the original's digest cache
    h = make_copy(g)
    assert h == g and h is not g and h.allow_corner_cut is False
    assert h.terrain is not g.terrain and h.obstacle is not g.obstacle
    assert h._digest is None  # the copy computes its own digest
    assert map_digest(h) == digest
    assert not h.terrain.flags.writeable and not h.obstacle.flags.writeable
    with pytest.raises(ValueError):
        h.terrain[0, 0] = 1
    with pytest.raises(AttributeError):
        h.allow_corner_cut = True


def test_goal_region():
    region = GoalRegion([(1, 1), (0, 0), (1, 1)])
    assert repr(region) == "GoalRegion([(0, 0), (1, 1)])"
    assert (1, 1) in region.cells
    assert (2, 2) not in region.cells
    assert region == GoalRegion([(0, 0), (1, 1)])
    with pytest.raises(ValueError):
        GoalRegion([])


def test_goal_region_validate_on():
    g = parse_map("2 2\n0 1\n# 0\n")
    region = GoalRegion([(0, 0), (1, 1)])
    assert GoalRegion.on(g, region) is region
    with pytest.raises(ValueError, match="obstacle"):
        GoalRegion.on(g, GoalRegion([(1, 0)]))
    with pytest.raises(ValueError, match="out of bounds"):
        GoalRegion.on(g, GoalRegion([(2, 0)]))


def test_random_map_rejects_a_max_cost_that_could_overflow():
    random_map(0, 2, 2, 0.0, MAX_COMPONENT // 4)
    with pytest.raises(ValueError, match="overflow"):
        random_map(0, 2, 2, 0.0, MAX_COMPONENT // 4 + 1)


def test_require_free():
    g = parse_map("2 2\n0 1\n# 0\n")
    require_free(g, (0, 0))
    with pytest.raises(ValueError):
        require_free(g, (1, 0))
    with pytest.raises(ValueError):
        require_free(g, (-1, 0))


@pytest.mark.parametrize("args,corner_cut,digest", [
    ((9, 117, 117, 0.15, 9), True,
     "a888783c2bfe32b1d32d6838132a7eeca78edb1b363dfde2c14e90af84a93355"),
    ((3, 20, 30, 0.3, 1000), True,
     "11e0c5838760ca55a7d3a43f5b8a80589f1383aef654d872627d968b99d980f8"),
    ((3, 20, 30, 0.3, 1000), False,
     "3f15acf49678c07a8cd0a69fb69dc3119aa90c4654999a25ef599be6287dccd4"),
], ids=["reference-117x117", "20x30", "20x30-no-corner-cut"])
def test_map_digest_pinned(args, corner_cut, digest):
    # Every saved database carries its map's digest, so the map text may
    # never change for a map, whichever way serialize_map forms it.
    grid = random_map(*args, allow_corner_cut=corner_cut)
    assert map_digest(grid) == digest
    copy = GridMap(grid.terrain, grid.obstacle, grid.allow_corner_cut)
    assert map_digest(copy) == digest
    assert map_digest(parse_map(serialize_map(grid), grid.allow_corner_cut)) == digest


_CANONICAL_TOKENS = ["#", "0", "1", "7", "10", "123"]
_TEXT_EDITS = [None, "double space", "tab", "crlf", "leading zero", "trailing space"]


@st.composite
def _digest_texts(draw):
    """(text, canonical): a map in serialize_map's form, or that map with one
    edit parse_map accepts but serialize_map never writes."""
    n_rows, n_cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    lines = [f"{n_rows} {n_cols}"] + [
        " ".join(draw(st.sampled_from(_CANONICAL_TOKENS)) for _ in range(n_cols))
        for _ in range(n_rows)]
    edit = draw(st.sampled_from(_TEXT_EDITS))
    r = draw(st.integers(0, n_rows))
    if edit in ("double space", "tab"):
        r = r if " " in lines[r] else 0  # the dimension line always holds a space
        lines[r] = lines[r].replace(" ", "  " if edit == "double space" else "\t", 1)
    elif edit == "crlf":
        lines[r] += "\r"
    elif edit == "leading zero":
        toks = lines[r].split()
        c = next((c for c, tok in enumerate(toks) if tok != "#"), None)
        if c is None:
            toks, r, c = lines[0].split(), 0, 0
        toks[c] = "0" + toks[c]
        lines[r] = " ".join(toks)
    elif edit == "trailing space":
        lines[r] += " "
    return "\n".join(lines) + "\n", edit is None


@given(_digest_texts(), st.booleans(), st.booleans())
def test_parse_map_digest_is_the_serialized_maps(case, as_bytes, corner_cut):
    """parse_map fills the digest from the text it read only when that text
    is the map's serialize_map bytes, so the digest is always theirs."""
    text, canonical = case
    g = parse_map(text.encode("utf-8") if as_bytes else text, corner_cut)
    assert (g._digest is not None) == canonical
    assert map_digest(g) == map_digest(GridMap(g.terrain, g.obstacle, corner_cut))
    assert (serialize_map(g) == text.encode("utf-8")) == canonical


@pytest.mark.parametrize("cell", [(2.7, 1.2), (2.0, 1), (True, 0), (0, False),
                                  (np.float64(1), 0), (np.bool_(True), 0), ("1", 0)])
def test_goal_region_refuses_non_integer_cells(cell):
    """A goal cell names its coordinates as ints or numpy integers; a float
    or a bool is refused, not rounded to some other cell, by every entry
    point that takes a goal."""
    g = parse_map("3 3\n0 0 0\n0 0 0\n0 0 0\n")
    with pytest.raises(ValueError, match="integers"):
        GoalRegion([cell])
    for call in (lambda: build_database(g, [cell]),
                 lambda: moa_star(g, (0, 0), [cell]),
                 lambda: heuristic(g, (0, 0), [cell]),
                 lambda: brute_force(g, (0, 0), [cell])):
        with pytest.raises(ValueError, match="integers"):
            call()


def test_goal_region_is_read_only():
    # A database keeps the region it was built for: no caller may change it.
    g = parse_map("2 3\n0 5 0\n0 0 0\n")
    region = GoalRegion([(0, 2)])
    db = build_database(g, region)
    with pytest.raises(AttributeError, match="read-only"):
        db.goal.cells = frozenset({(0, 2), (0, 1)})
    with pytest.raises(AttributeError, match="read-only"):
        del region.cells
    assert db.goal.cells == {(0, 2)}
    copies = (copy.copy(region), copy.deepcopy(region), pickle.loads(pickle.dumps(region)))
    for other in copies:
        assert other == region and other is not region
        with pytest.raises(AttributeError):
            other.cells = frozenset()


def test_goal_region_takes_numpy_integers():
    region = GoalRegion([(np.int64(2), np.int32(1)), (np.uint8(0), 0)])
    assert region.cells == {(2, 1), (0, 0)}
    assert all(type(x) is int for cell in region.cells for x in cell)


def test_map_digest_covers_corner_cut_flag():
    text = "2 2\n0 #\n# 0\n"
    assert map_digest(parse_map(text)) != map_digest(parse_map(text, allow_corner_cut=False))
    assert map_digest(parse_map(text)) == map_digest(parse_map(text))
