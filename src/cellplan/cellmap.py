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
* "worklist": label-setting over Dial's bucket queue, one bucket per path
  length f1, with whole-array numpy steps over the move table of
  grid.move_csr; much faster. Every step is at least 10 long, so a bucket
  holds all of its entries by the time it is opened, and each final vector
  is settled exactly once. It reports the identical `iterations` value,
  1 + the largest hop count any stored vector needs, read off the hop depth
  each entry carries.

Every cyclic detour strictly increases path length without lowering terrain
cost, so only simple paths contribute and both schedules terminate.
"""

from __future__ import annotations

import functools
import gc
import json
import math
from dataclasses import dataclass

import numpy as np

from .grid import (
    DIAGONAL_STEP,
    STRAIGHT_STEP,
    Cell,
    GoalRegion,
    GridMap,
    map_digest,
    move_csr,
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
    return ((i, ls) for i, ls in enumerate(labels) if ls), iterations


def _build_buckets(grid: GridMap, goal_ids: list[int]):
    """Label-setting in Dial's bucket queue: one bucket of entries
    (depth, f2, cell) per path length f1, opened in increasing f1 order.

    Every step is at least STRAIGHT_STEP long, so every entry of bucket f1
    comes from a label settled in a smaller bucket: a bucket is complete when
    it is opened. Inside it, an entry whose f2 does not beat the last one
    settled at its cell is dominated and dropped; of the rest, each cell's
    least (f2, depth) is settled, and the settled labels expand through the
    move table into buckets f1 + 10 and f1 + 14.

    `depth` is the hop count of the route that made the entry. All parents of
    a vector (f1, f2) are settled, each with its own least depth, before
    bucket f1 opens, so the settled depth is the fewest hops the vector needs,
    and `iterations` is 1 + the largest settled depth.

    Cells, f2 and depths are int32 when the map's bounds fit (cell ids below
    n, f2 at most max terrain * n, depths at most n), else int64. The
    sentinel that marks a cell with no label is the dtype's maximum: only a
    route that revisits a cell can reach it, and such a route is dominated.
    """
    n = grid.terrain.size
    f2_cap = int(grid.terrain[~grid.obstacle].max()) * n
    dtype = np.int32 if max(n, f2_cap) < np.iinfo(np.int32).max else np.int64
    terr = grid.terrain.ravel().astype(dtype)
    offsets, ids, steps = move_csr(grid)
    ids = ids.astype(dtype)
    counts = np.diff(offsets)
    unset = np.iinfo(dtype).max
    last_f2 = np.full(n, unset, dtype=dtype)
    least_depth = np.full(n, unset, dtype=dtype)  # scratch, reset after each bucket
    owner = np.empty(n, dtype=np.intp)  # scratch
    # Every mask is written into this one buffer. A bucket holds the children
    # of at most two buckets, each settling at most one label per cell. numpy
    # keeps freed buffers under 1 KiB for reuse by exact size, and a new mask
    # of every bucket's size kept about 3 MB resident for the process's life.
    flags = np.empty(2 * len(ids) + len(goal_ids), dtype=bool)

    def mask(ufunc, a, b):
        return ufunc(a, b, out=flags[:len(a)])

    buckets = {}  # f1 -> chunks of entries, each entry a column (depth, f2, cell)

    def push(key, entries):
        if entries.shape[1]:
            buckets.setdefault(key, []).append(entries)

    seed = np.zeros((3, len(goal_ids)), dtype=dtype)
    seed[2] = goal_ids
    push(0, seed)
    settled = []  # (f1, cells, f2s) per bucket, in increasing f1
    max_depth = 0
    while buckets:
        f1 = min(buckets)
        chunks = buckets.pop(f1)
        entries = np.concatenate(chunks, axis=1) if len(chunks) > 1 else chunks[0]
        del chunks
        entries = entries.compress(mask(np.less, entries[1], last_f2[entries[2]]), axis=1)
        if not entries.shape[1]:
            continue
        # Each cell's least f2, then the least depth among those, then one
        # entry per cell: whichever wins the `owner` write, as ties are equal.
        np.minimum.at(last_f2, entries[2], entries[1])
        entries = entries.compress(mask(np.equal, entries[1], last_f2[entries[2]]), axis=1)
        np.minimum.at(least_depth, entries[2], entries[0])
        entries = entries.compress(mask(np.equal, entries[0], least_depth[entries[2]]), axis=1)
        least_depth[entries[2]] = unset
        rank = np.arange(entries.shape[1])
        owner[entries[2]] = rank
        labels = entries.compress(mask(np.equal, owner[entries[2]], rank), axis=1)
        del entries
        depth, f2, cell = labels
        settled.append((f1, cell, f2))
        max_depth = max(max_depth, int(depth.max()))

        count = counts[cell]
        total = int(count.sum())
        if not total:
            continue
        # Move-table slots of every settled label's moves, row after row.
        slot = np.arange(total) + np.repeat(offsets[cell] - (np.cumsum(count) - count), count)
        child = np.repeat(labels, count, axis=1)
        child[0] += 1
        child[2] = ids[slot]
        child[1] += terr[child[2]]
        live = mask(np.less, child[1], last_f2[child[2]])
        child, slot = child.compress(live, axis=1), slot.compress(live)
        straight = mask(np.equal, steps[slot], STRAIGHT_STEP)
        push(f1 + STRAIGHT_STEP, child.compress(straight, axis=1))
        push(f1 + DIAGONAL_STEP, child.compress(np.logical_not(straight, out=straight), axis=1))

    cells = np.concatenate([c for _, c, _ in settled])
    f1s = np.repeat([f1 for f1, _, _ in settled], [c.size for _, c, _ in settled])
    f2s = np.concatenate([f2 for _, _, f2 in settled])
    del settled
    # Buckets settle in increasing f1, so a stable sort by cell gives (cell, f1) order.
    order = np.argsort(cells, kind="stable")
    cells, f1s, f2s = cells[order], f1s[order], f2s[order]
    del order
    starts = np.flatnonzero(np.diff(cells, prepend=-1))
    return zip(cells[starts].tolist(), _label_sets(f1s, f2s, starts)), max_depth + 1


def _label_sets(f1s, f2s, starts, cells_per_chunk: int = 1024):
    """The label sets (f1s, f2s)[starts[k]:starts[k + 1]] as tuples of int
    pairs, made a chunk of cells at a time: lists of every label at once
    added about 9 MB to the peak memory of a 117x117 build."""
    bounds = starts.tolist() + [len(f1s)]
    for a in range(0, len(starts), cells_per_chunk):
        seg = bounds[a:a + cells_per_chunk + 1]
        lo = seg[0]
        vecs = list(zip(f1s[lo:seg[-1]].tolist(), f2s[lo:seg[-1]].tolist()))
        for x, y in zip(seg, seg[1:]):
            yield tuple(vecs[x - lo:y - lo])


def _collector_paused(fn):
    """Decorator: run `fn` with the cycle collector paused. Building, saving
    and loading allocate about two acyclic containers per stored vector, and
    rescanning them cost up to as much as the work itself."""
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
    build = _build_sweep if schedule == "sweep" else _build_buckets
    nonempty, iterations = build(grid, goal_ids)
    labels = {divmod(i, cols): ls for i, ls in nonempty}
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
