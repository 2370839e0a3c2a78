"""Shared fixtures: small hand-checkable maps, build helpers, and the
references the tests check the library against: dominance and
non-dominated reduction, hop costs, a database packed from label sets, and
the synchronous sweep build."""

import hashlib
import json

import pytest

from cellplan.grid import DIAGONAL_STEP, STRAIGHT_STEP

import cellplan.moastar as moastar
import cellplan.query as query
from cellplan import (
    Database,
    GoalRegion,
    GridMap,
    build_database,
    free_cells,
    map_digest,
    neighbors,
    parse_map,
)

# 6-cell map with one expensive cell. From (0,0) to the goal (0,2) there are
# exactly two non-dominated routes: straight through the cost-5 cell, or the
# longer zero-cost dip through (1,1).
TEXT_2X3 = "2 3\n0 5 0\n0 0 0\n"
GOAL_2X3 = (0, 2)
FRONT_2X3 = ((20, 5), (28, 0))

# The saved 2x3 database holds, per row-major cell, counts [2, 1, 1, 1, 1, 1],
# f1 [20, 28, 10, 0, 24, 14, 10] and f2 [5, 0, 5, 0, 0, 0, 0], each array one
# byte wide. The helpers below read and write that layout independently of
# the loader: a header line, then counts, f1 and f2 as little-endian ints.


def split_db(blob: bytes):
    """(header, counts, f1, f2) of saved database bytes, the arrays as int lists."""
    end = blob.index(b"\n")
    header = json.loads(blob[:end])
    widths = header["widths"]
    sizes = [header["n_rows"] * header["n_cols"], header["labels"], header["labels"]]
    arrays, pos = [], end + 1
    for width, size in zip(widths, sizes):
        arrays.append([int.from_bytes(blob[k:k + width], "little")
                       for k in range(pos, pos + width * size, width)])
        pos += width * size
    return (header, *arrays)


def pack_db(header, counts, f1, f2, widths=None) -> bytes:
    """Database bytes of these arrays under `header`, whose widths (the
    narrowest that fit unless given), label count and checksum are made to fit."""
    arrays = (counts, f1, f2)
    if widths is None:
        widths = [next(w for w in (1, 2, 4, 8) if max(a, default=0) < 1 << (8 * w))
                  for a in arrays]
    payload = b"".join(x.to_bytes(w, "little") for a, w in zip(arrays, widths) for x in a)
    header = {**header, "widths": widths, "labels": len(f1),
              "sha256": hashlib.sha256(payload).hexdigest()}
    return json.dumps(header, separators=(",", ":")).encode("utf-8") + b"\n" + payload


def with_labels(blob: bytes, i: int, vectors) -> bytes:
    """The database bytes with the row-major cell i holding `vectors`."""
    header, counts, f1, f2 = split_db(blob)
    lo = sum(counts[:i])
    hi = lo + counts[i]
    counts[i] = len(vectors)
    f1[lo:hi] = [v[0] for v in vectors]
    f2[lo:hi] = [v[1] for v in vectors]
    return pack_db(header, counts, f1, f2)


def replace(old: bytes, new: bytes):
    """An edit replacing the one occurrence of `old` by `new`."""
    def edit(blob):
        assert blob.count(old) == 1
        return blob.replace(old, new)
    return edit


def repack(change=None, widths=None):
    """An edit that applies `change(counts, f1, f2)` to the array lists, then
    writes them back with a fitting header."""
    def edit(blob):
        header, *arrays = split_db(blob)
        if change:
            change(*arrays)
        return pack_db(header, *arrays, widths=widths)
    return edit


def insert_before_f2(blob: bytes) -> bytes:
    header = split_db(blob)[0]
    at = len(blob) - header["labels"] * header["widths"][2]
    return blob[:at] + b" " + blob[at:]


def version_1(blob: bytes) -> bytes:
    """The same database written in version 1, the JSON format."""
    header = split_db(blob)[0]
    return (b'{"version":1,"map_digest":"' + header["map_digest"].encode() + b'",'
            b'"convention_tag":"' + header["convention_tag"].encode() + b'","goal":[[0,2]],'
            b'"iterations":3,"labels":{"0,0":[[20,5],[28,0]],"0,1":[[10,5]],"0,2":[[0,0]],'
            b'"1,0":[[24,0]],"1,1":[[14,0]],"1,2":[[10,0]]}}\n')


# Edits of the cells a saved 2x3 database names, with the error text each
# raises. Version 1 keyed every label set by its cell; the dense counts of
# version 2 have no key to alias, repeat, reorder, make negative or leave
# empty, so the same defects are written in the one cell list left, the
# header's goal cells: aliases of 0,2, a repeated key, a list out of order,
# a negative cell and an empty list.
KEY_EDITS_2X3 = [
    pytest.param(replace(b'"goal":[[0,2]]', b'"goal":[[+0,2]]'), "malformed",
                 id="alias-plus-zero"),
    pytest.param(replace(b'"goal":[[0,2]]', b'"goal":[[0,02]]'), "malformed",
                 id="alias-leading-zero"),
    pytest.param(replace(b'"goal":[[0,2]]', b'"goal":[[0, 2]]'), "saved form",
                 id="alias-space"),
    pytest.param(replace(b'"goal":[[0,2]]', b'"goal":[[1,2]],"goal":[[0,2]]'), "saved form",
                 id="duplicate"),
    pytest.param(replace(b'"goal":[[0,2]]', b'"goal":[[1,2],[0,2]]'), "saved form",
                 id="out-of-order"),
    pytest.param(replace(b'"goal":[[0,2]]', b'"goal":[[-5,0]]'), "outside the map",
                 id="negative"),
    pytest.param(replace(b'"goal":[[0,2]]', b'"goal":[]'), "goal cell list", id="empty-labels"),
]

# Label sets for cell (0,0), saved as [(20, 5), (28, 0)], that break
# canonical order (f1 strictly increasing, f2 strictly decreasing);
# "f1-falling" breaks only the f1 half.
ORDER_EDITS_2X3 = [
    pytest.param([(28, 0), (20, 5)], id="swapped"),
    pytest.param([(20, 5), (20, 5), (28, 0)], id="repeated"),
    pytest.param([(20, 5), (28, 5)], id="dominated"),
    pytest.param([(28, 5), (20, 0)], id="f1-falling"),
]


def _goal_front(counts, f1, f2):
    f1[3] = 1  # cell (0,2), the goal


def _count_too_many(counts, f1, f2):
    counts[0] += 1


def _extra_count(counts, f1, f2):
    counts.append(0)


def _counts_wrap(counts, f1, f2):
    counts[:] = [2**62, 2**62, 2**62, 2**62 + 7, 0, 0]  # 7, the label count, modulo 2**64


def _count_overflow(counts, f1, f2):
    counts[0] = 2**63  # as an int64, the stored dtype of width 8, it would be negative


def _component_overflow(counts, f1, f2):
    f1[1] = 2**63  # cell (0,0)'s second label; order still holds


def _past_longest_route(counts, f1, f2):
    f1[4] = 71  # cell (1,0)'s one label; no route on six cells is longer than 70


def _flip_last_byte(blob):
    return blob[:-1] + bytes([blob[-1] ^ 1])


# Edits of the saved 2x3 database that the loader must reject, with the
# error text each raises: a goal cell that does not hold exactly (0, 0), a
# path length past the longest route, bytes save_database never writes, and
# a payload that does not fit its header. "label-whitespace" puts a byte
# inside the arrays and "minus-zero" spells a value another way (a wider
# width), the version-2 forms of those JSON defects; "escaped-key" escapes a
# character of a header string.
LOADER_EDITS_2X3 = [
    pytest.param(repack(_goal_front), "goal cell", id="goal-front"),
    pytest.param(replace(b'"iterations":3', b'"iterations":4,"iterations":3'), "saved form",
                 id="repeated-header-key"),
    pytest.param(replace(b'"iterations":3', b'"iterations":3,"x":1'), "header fields",
                 id="unknown-header-field"),
    pytest.param(replace(b'"version":2', b'"version":2.0'), "saved form", id="float-version"),
    pytest.param(replace(b'"goal":', b'"goal": '), "saved form", id="header-whitespace"),
    pytest.param(insert_before_f2, "payload holds", id="label-whitespace"),
    pytest.param(replace(b'"goal":[[0,2]]', b'"goal":[[0,2],[0,2]]'), "saved form",
                 id="repeated-goal-cell"),
    pytest.param(repack(widths=[1, 1, 2]), "narrowest", id="minus-zero"),
    pytest.param(replace(b'"convention_tag":"len', b'"convention_tag":"\\u006cen'),
                 "saved form", id="escaped-key"),
    pytest.param(lambda blob: blob[:-1], "payload holds", id="truncated-payload"),
    pytest.param(lambda blob: blob + b"\0", "payload holds", id="trailing-byte"),
    pytest.param(repack(widths=[2, 1, 1]), "narrowest", id="wide-counts"),
    pytest.param(_flip_last_byte, "sha256", id="checksum"),
    pytest.param(repack(_extra_count), "payload holds", id="counts-length"),
    pytest.param(repack(_count_too_many), "do not sum", id="counts-sum"),
    pytest.param(repack(_counts_wrap), "do not sum", id="counts-wrap"),
    pytest.param(repack(_count_overflow), "exceeds", id="count-overflow"),
    pytest.param(repack(_component_overflow), "exceeds", id="component-overflow"),
    pytest.param(repack(_past_longest_route), "longest route", id="past-longest-route"),
    pytest.param(replace(b'"goal":[[0,2]]', b'"goal":[[0,3]]'), "outside the map",
                 id="goal-outside-map"),
    pytest.param(version_1, "rebuild", id="version-1"),
]

TEXT_1X2 = "1 2\n0 0\n"
TEXT_1X3 = "1 3\n0 0 0\n"

# 3x3 with the centre blocked; the two ways around (2,2) tie at (34, 0).
TEXT_3X3_RING = "3 3\n0 0 0\n0 # 0\n0 0 0\n"


def big_terrain():
    """(map, database) of a 1x2 map whose terrain is 2**62 + 1: its fixed
    point, made by hand as the build refuses the map. f2 reaches 2**62 + 1,
    so the database holds f2 in width 8, as int64; a hop sum into the goal,
    (20, 2 * (2**62 + 1)), would wrap as an int64 sum."""
    big = 2**62 + 1
    g = GridMap([[big, big]], [[False, False]])
    db = Database([1, 1], [10, 0], [big, 0], n_rows=1, n_cols=2, goal=GoalRegion([(0, 1)]),
                  map_digest=map_digest(g), iterations=2)
    return g, db


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


@pytest.fixture
def graph_builds(monkeypatch):
    """The argument tuples of every successor graph the queries build."""
    calls = []
    build_graph = query._successor_graph

    def counted(*args):
        calls.append(args)
        return build_graph(*args)

    monkeypatch.setattr(query, "_successor_graph", counted)
    return calls


@pytest.fixture
def dijkstra_calls(monkeypatch):
    """The names of the backward searches MOA*'s heuristics run, one per
    call: _path_length_to_go (h1) and _terrain_to_go (h2), two per build."""
    calls = []
    for name in ("_path_length_to_go", "_terrain_to_go"):
        search = getattr(moastar, name)

        def counted(*args, _name=name, _search=search):
            calls.append(_name)
            return _search(*args)

        monkeypatch.setattr(moastar, name, counted)
    return calls


def dominates(a, b) -> bool:
    """True iff `a` is componentwise <= `b` and differs from it somewhere."""
    if len(a) != len(b):
        raise ValueError("vectors must have the same number of components")
    return a != b and all(x <= y for x, y in zip(a, b))


def nondominated(vectors):
    """Reduce `vectors` to their non-dominated subset, deduplicated and sorted.

    Idempotent and insensitive to input order. Every discarded vector is
    dominated by (or equal to) some retained one. Raises ValueError unless
    every vector has two components. Lex order makes this a single scan:
    keep a vector iff its second component beats everything already kept,
    which also drops duplicates.
    """
    vs = [tuple(v) for v in vectors]
    if any(len(v) != 2 for v in vs):
        raise ValueError("vectors must have two components")
    vs.sort()
    out = []
    best = None
    for v in vs:
        if best is None or v[1] < best:
            out.append(v)
            best = v[1]
    return tuple(out)


def step_length(a, b) -> int:
    """Length of the hop between two distinct 8-adjacent cells."""
    dr = abs(a[0] - b[0])
    dc = abs(a[1] - b[1])
    if (dr, dc) == (0, 0) or dr > 1 or dc > 1:
        raise ValueError(f"cells {tuple(a)} and {tuple(b)} are not 8-adjacent")
    return DIAGONAL_STEP if dr == 1 and dc == 1 else STRAIGHT_STEP


def hop_cost(grid, src, dst):
    """Cost increment of the hop src -> dst: (step length, terrain(src))."""
    src = tuple(src)
    dst = tuple(dst)
    for cell in (src, dst):
        if not grid.in_bounds(cell) or grid.obstacle[cell]:
            raise ValueError("hop endpoints must be free in-bounds cells")
    return (step_length(src, dst), int(grid.terrain[src]))


def db_from_labels(labels, n_rows, n_cols, **meta):
    """The Database of a {cell: label set} mapping over an n_rows x n_cols
    map, through the public constructor; the keyword arguments are the
    other fields."""
    sets = [()] * (n_rows * n_cols)
    for (r, c), ls in labels.items():
        if not (0 <= r < n_rows and 0 <= c < n_cols):
            raise ValueError(f"cell {(r, c)} lies outside the map")
        sets[r * n_cols + c] = ls
    counts = [len(ls) for ls in sets]
    f1 = [a for ls in sets for a, _ in ls]
    f2 = [b for ls in sets for _, b in ls]
    return Database(counts, f1, f2, n_rows=n_rows, n_cols=n_cols, **meta)


def reference_build(grid, goal):
    """The database of `goal` over `grid` by synchronous sweeps from empty
    label sets until one changes nothing: the reference that build_database
    must equal byte for byte. It reads the move rule only through
    neighbors() and reduces with nondominated(), so it shares no move table
    with the build kernel.

    A cell is recomputed only when a neighbour changed in the previous
    sweep; unchanged inputs reproduce the old value, so the sweeps are those
    of a full recomputation, and `iterations` counts the sweeps that
    changed a label set."""
    region = GoalRegion.on(grid, goal)
    moves = {cell: neighbors(grid, cell) for cell in free_cells(grid)}
    terrain = {cell: int(grid.terrain[cell]) for cell in moves}
    labels = dict.fromkeys(moves, ())
    recompute = list(moves)
    iterations = 0
    while recompute:
        changed = []
        for cell in recompute:  # the per-cell update of the cellmap docstring
            t = terrain[cell]
            cands = [(0, 0)] if cell in region.cells else []
            for j, step in moves[cell]:
                cands += [(a + step, b + t) for a, b in labels[j]]
            ls = nondominated(cands)
            if ls != labels[cell]:
                changed.append((cell, ls))
        if not changed:
            break
        iterations += 1
        for cell, ls in changed:
            labels[cell] = ls
        recompute = {j for cell, _ in changed for j, _ in moves[cell]}
    return db_from_labels(labels, grid.n_rows, grid.n_cols, goal=region,
                          map_digest=map_digest(grid), iterations=iterations)
