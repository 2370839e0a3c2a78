"""Global cost-to-go database: for every free cell, the non-dominated set of
(path length, terrain cost) vectors over all routes into a goal region.

The database is the least fixed point of the per-cell update

    labels[i] <- nondominated({(0, 0)} if i is a goal cell else {}
                              | {F + hop_cost(i, j) for free neighbors j,
                                                        F in labels[j]})

A hop i -> j costs (step_length(i, j), terrain(i)): the hop length plus the
terrain of the cell being departed. Unrolled along a path this counts the
terrain of every cell except the final goal cell (the start included), and it
pins goal label sets to exactly {(0, 0)}.

Two schedules compute the same fixed point:

* "sweep": synchronous full sweeps from empty sets until one changes nothing.
  `iterations` counts the sweeps that changed at least one label set.
* "worklist": a lexicographic best-first priority worklist that settles each
  final vector exactly once; much faster. It reports the identical
  `iterations` value, 1 + the largest hop count any stored vector needs,
  read off the hop depth its heap keys carry.

Every cyclic detour strictly increases path length without lowering terrain
cost, so only simple paths contribute and both schedules terminate.
"""

from __future__ import annotations

import functools
import gc
import json
import math
from dataclasses import dataclass
from heapq import heapify, heappop, heappush

from .grid import (
    Cell,
    GoalRegion,
    GridMap,
    map_digest,
    neighbor_table,
    overflow_risk,
    step_length,
)
from .pareto import CostOverflowError, LabelSet, Vector, nondominated, skyline

DB_VERSION = 1

# Identifies the cost accounting the database was built under, so readers can
# reject a file whose vectors mean something else.
CONVENTION_TAG = "len10-14/terrain-of-departed-cell/goal-zero"


class DigestMismatchError(ValueError):
    """Database was built from a different map than the one supplied."""


@dataclass
class Database:
    """Fixed-point label sets plus build metadata.

    `labels` holds only non-empty sets; obstacles and unreachable free cells
    are simply absent.
    """

    labels: dict[Cell, LabelSet]
    goal: GoalRegion
    map_digest: str
    iterations: int
    convention_tag: str = CONVENTION_TAG

    def front(self, cell: Cell) -> LabelSet:
        return self.labels.get(tuple(cell), ())


def hop_cost(grid: GridMap, src: Cell, dst: Cell) -> Vector:
    """Objective increment for the hop src -> dst: (step length, terrain(src))."""
    src = tuple(src)
    dst = tuple(dst)
    if not grid.is_free(src) or not grid.is_free(dst):
        raise ValueError("hop endpoints must be free in-bounds cells")
    return (step_length(src, dst), int(grid.terrain[src]))


def _update(labels: list[LabelSet], moves, ti: int, is_goal: bool) -> LabelSet:
    """One cell's fixed-point update: goal seed plus hop-shifted neighbor labels."""
    cands = [(0, 0)] if is_goal else []
    for j, dz in moves:
        for a, b in labels[j]:
            cands.append((a + dz, b + ti))
    return skyline(cands)


def _build_sweep(grid: GridMap, goal_ids: list[int]):
    """Synchronous Jacobi sweeps until nothing changes.

    Cells are only recomputed when a neighbor changed in the previous sweep;
    unchanged inputs provably reproduce the old value, so the sweep sequence
    is identical to the naive full recomputation.
    """
    terr = grid.terrain.ravel().tolist()
    obst = grid.obstacle.ravel().tolist()
    nbrs = neighbor_table(grid)
    n = len(terr)
    goal_set = set(goal_ids)
    labels: list[LabelSet] = [()] * n
    recompute = [i for i in range(n) if not obst[i]]
    iterations = 0

    while recompute:
        updated = [(i, _update(labels, nbrs[i], terr[i], i in goal_set))
                   for i in recompute]
        changed = [(i, ls) for i, ls in updated if ls != labels[i]]
        if not changed:
            break
        iterations += 1
        nxt = set()
        for i, ls in changed:
            labels[i] = ls
            for j, _dz in nbrs[i]:
                nxt.add(j)
        recompute = sorted(nxt)
    return labels, iterations


def _build_worklist(grid: GridMap, goal_ids: list[int]):
    """Label-setting worklist: pop (f1, f2, depth, cell) keys in lexicographic order.

    A popped vector is final iff its f2 beats the last one settled at its
    cell, because pops arrive in non-decreasing f1 order. Heap keys are packed
    into single ints to keep comparisons cheap.

    `depth` is the hop count of the route that pushed the key. Every step is
    at least STRAIGHT_STEP long, so all parents of a vector (f1, f2) have a
    smaller f1 and are settled, each with its own least depth, before (f1, f2)
    is first popped at a cell; that first pop therefore carries the fewest
    hops the vector needs, and `iterations` is 1 + the largest settled depth.
    """
    terr = grid.terrain.ravel().tolist()
    nbrs = neighbor_table(grid)
    n = len(terr)
    f2_cap = int(grid.terrain[~grid.obstacle].max()) * n
    cell_bits = max(1, (n - 1).bit_length())
    depth_bits = n.bit_length()  # depths stay <= n: routes are simple
    f2_bits = max(1, f2_cap.bit_length())
    sd = cell_bits
    s2 = sd + depth_bits
    s1 = s2 + f2_bits
    cell_mask = (1 << cell_bits) - 1
    depth_mask = (1 << depth_bits) - 1
    f2_mask = (1 << f2_bits) - 1

    inf = f2_cap + 1
    last_f2 = [inf] * n
    acc: list[list] = [[] for _ in range(n)]
    max_depth = 0
    heap = list(goal_ids)  # (0, 0, 0, g) packs to just g
    heapify(heap)
    while heap:
        key = heappop(heap)
        c = key & cell_mask
        f2 = (key >> s2) & f2_mask
        if f2 >= last_f2[c]:
            continue
        f1 = key >> s1
        acc[c].append((f1, f2))
        last_f2[c] = f2
        depth = (key >> sd) & depth_mask
        if depth > max_depth:
            max_depth = depth
        child_depth = (depth + 1) << sd
        for i, dz in nbrs[c]:
            nf2 = f2 + terr[i]
            if nf2 >= last_f2[i]:
                continue
            heappush(heap, ((f1 + dz) << s1) | (nf2 << s2) | child_depth | i)
    return [tuple(a) for a in acc], max_depth + 1


def build_database(grid: GridMap, goal, *, schedule: str = "worklist") -> Database:
    """Build the cost-to-go database for `goal` over `grid`.

    One build serves any number of goal cells. Both schedules yield the
    identical database; "sweep" is the slow synchronous reference.
    """
    region = goal if isinstance(goal, GoalRegion) else GoalRegion(goal)
    region.validate_on(grid)
    if schedule not in ("sweep", "worklist"):
        raise ValueError(f"unknown schedule {schedule!r}")
    if overflow_risk(grid):
        raise CostOverflowError("terrain costs could overflow a path sum; rescale the map")
    cols = grid.n_cols
    goal_ids = sorted(r * cols + c for r, c in region.cells)
    if schedule == "sweep":
        flat, iterations = _build_sweep(grid, goal_ids)
    else:
        flat, iterations = _build_worklist(grid, goal_ids)
    labels = {divmod(i, cols): ls for i, ls in enumerate(flat) if ls}
    return Database(labels=labels, goal=region, map_digest=map_digest(grid),
                    iterations=iterations)


def verify_database(db: Database, grid: GridMap) -> bool:
    """Check that `db` is exactly the fixed point for `grid`.

    Verifies goal seeds, canonical label sets, that every non-goal vector
    decomposes through some neighbor, and that one more synchronous sweep
    changes nothing. Raises DigestMismatchError when `grid` is not the map
    the database was built from.
    """
    if db.map_digest != map_digest(grid):
        raise DigestMismatchError("database digest does not match this map")
    rows, cols = grid.n_rows, grid.n_cols
    terr = grid.terrain.ravel().tolist()
    obst = grid.obstacle.ravel().tolist()
    nbrs = neighbor_table(grid)
    n = rows * cols
    flat: list[LabelSet] = [()] * n
    for cell, ls in db.labels.items():
        r, c = cell
        if not (0 <= r < rows and 0 <= c < cols):
            return False
        i = r * cols + c
        if obst[i]:
            return False
        ls = tuple(tuple(v) for v in ls)
        if nondominated(ls) != ls:
            return False
        flat[i] = ls
    goal_ids = {r * cols + c for r, c in db.goal.cells}
    for g in goal_ids:
        if flat[g] != ((0, 0),):
            return False
    sets = [set(ls) for ls in flat]
    for i in range(n):
        if obst[i] or i in goal_ids:
            continue
        ti = terr[i]
        for f1, f2 in flat[i]:
            if not any((f1 - dz, f2 - ti) in sets[j] for j, dz in nbrs[i]):
                return False
    for i in range(n):
        if not obst[i] and _update(flat, nbrs[i], terr[i], i in goal_ids) != flat[i]:
            return False
    return True


def _collector_paused(fn):
    """Decorator: run `fn` with the cycle collector paused. Saving and loading
    allocate about two acyclic containers per stored vector, and rescanning
    them took as long as the work itself."""
    @functools.wraps(fn)
    def paused(*args, **kwargs):
        collecting = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if collecting:
                gc.enable()
    return paused


@_collector_paused
def save_database(db: Database) -> bytes:
    """Canonical JSON bytes; identical databases serialize identically."""
    cells = sorted(db.labels)
    # json writes the stored tuples as arrays, so the label sets go in as they are.
    labels_obj = {
        f"{r},{c}": db.labels[(r, c)]
        for (r, c) in cells
        if db.labels[(r, c)]
    }
    return (_header_bytes(db) + json.dumps(labels_obj, separators=(",", ":")).encode("utf-8")
            + b"}\n")


_HEADER_KEYS = ("version", "map_digest", "convention_tag", "goal", "iterations", "labels")
_COMPACT = json.JSONEncoder(separators=(",", ":"))


def _header_bytes(db: Database) -> bytes:
    """The saved bytes before the label object: every other field, in file order."""
    header = {
        "version": DB_VERSION,
        "map_digest": db.map_digest,
        "convention_tag": db.convention_tag,
        "goal": [list(cell) for cell in sorted(db.goal.cells)],
        "iterations": db.iterations,
    }
    return _COMPACT.encode(header).encode("utf-8")[:-1] + b',"labels":'


def _as_cell(obj) -> Cell:
    if (not isinstance(obj, (list, tuple)) or len(obj) != 2
            or not all(isinstance(x, int) and not isinstance(x, bool) for x in obj)):
        raise ValueError(f"bad cell {obj!r}")
    return (obj[0], obj[1])


class _Pairs(tuple):
    """A JSON object's (key, value) pairs in file order, duplicates kept."""


@_collector_paused
def load_database(raw) -> Database:
    """Parse database JSON; inverse of save_database.

    Checks the header fields, that label keys are exactly "r,c" (r, c >= 0) in
    strictly increasing (r, c) order, that each label set is a non-empty,
    canonically ordered list of non-negative int pairs, and that every goal
    cell holds exactly ((0, 0),). Only the bytes save_database writes are
    accepted, so save_database(load_database(raw)) == raw whenever this
    returns. Whether the sets fit the map and each other is left to
    verify_database, which needs the map.
    """
    try:
        pairs = json.loads(raw, object_pairs_hook=_Pairs)
    except json.JSONDecodeError as e:
        raise ValueError(f"malformed database JSON: {e}") from e
    if not isinstance(pairs, _Pairs):
        raise ValueError("database JSON must be an object")
    payload = dict(pairs)
    version = payload.get("version")
    if version != DB_VERSION:
        raise ValueError(f"unsupported database version: {version!r}")
    digest = payload.get("map_digest")
    if not isinstance(digest, str) or not digest:
        raise ValueError("map digest missing")
    tag = payload.get("convention_tag")
    if not isinstance(tag, str) or not tag:
        raise ValueError("convention tag missing")
    iterations = payload.get("iterations")
    if not isinstance(iterations, int) or isinstance(iterations, bool) or iterations < 0:
        raise ValueError("iterations must be a non-negative integer")
    goal_raw = payload.get("goal")
    if not isinstance(goal_raw, list) or not goal_raw:
        raise ValueError("goal cell list missing")
    goal = GoalRegion(_as_cell(c) for c in goal_raw)
    labels_raw = payload.get("labels")
    if not isinstance(labels_raw, _Pairs):
        raise ValueError("labels object missing")
    labels: dict[Cell, LabelSet] = {}
    prev = None
    for key, vecs in labels_raw:
        r, _, c = key.partition(",")
        try:
            cell = (int(r), int(c))
        except ValueError:
            cell = None
        # int() also accepts "+1", "01" and " 1"; only the exact saved form names a cell.
        if cell is None or key != f"{cell[0]},{cell[1]}" or min(cell) < 0:
            raise ValueError(f"bad label key {key!r}")
        if prev is not None and cell <= prev:
            raise ValueError(f"label key {key!r} repeats or breaks increasing (r, c) order")
        prev = cell
        if not isinstance(vecs, list):
            raise ValueError(f"labels for {key!r} must be a list")
        if not vecs:
            raise ValueError(f"label key {key!r} has an empty label list")
        out = []
        prev_f1, prev_f2 = -1, math.inf
        for v in vecs:
            # `type(x) is int` also shuts out bools.
            if type(v) is not list or len(v) != 2:
                raise ValueError(f"bad vector {v!r} for cell {key!r}")
            f1, f2 = v
            if type(f1) is not int or type(f2) is not int or f1 < 0 or f2 < 0:
                raise ValueError(f"bad vector {v!r} for cell {key!r}")
            if f1 <= prev_f1 or f2 >= prev_f2:
                raise ValueError(f"labels for {key!r} are not in canonical order")
            out.append((f1, f2))
            prev_f1, prev_f2 = f1, f2
        labels[cell] = tuple(out)
    for r, c in sorted(goal.cells):
        if labels.get((r, c)) != ((0, 0),):
            raise ValueError(f"goal cell {r},{c} must hold exactly [[0,0]]")
    db = Database(labels=labels, goal=goal, map_digest=digest,
                  iterations=iterations, convention_tag=tag)
    _require_saved_form(raw, [key for key, _ in pairs], db)
    return db


def _require_saved_form(raw, keys: list[str], db: Database) -> None:
    """Raise ValueError unless `raw` is byte for byte what save_database
    writes for `db`, whose labels already parsed as exact keys and int pairs.

    The header is compared whole; the label section, where JSON could still
    differ from the saved form only by whitespace, escapes or "-0", is
    scanned for those bytes.
    """
    if keys != list(_HEADER_KEYS):
        raise ValueError(f"header fields must be exactly {', '.join(_HEADER_KEYS)}, in that order")
    if isinstance(raw, str):
        raw = raw.encode("utf-8")
    head = _header_bytes(db)
    if not raw.startswith(head):
        raise ValueError("database header is not in its saved form")
    if not raw.endswith(b"}\n"):
        raise ValueError("database must end with a newline after its closing brace")
    end = len(raw) - 1
    for byte in (b" ", b"\t", b"\n", b"\r", b"\\", b"-"):
        if raw.find(byte, len(head), end) >= 0:
            raise ValueError(f"label section holds {byte!r}, which saved labels never do")
