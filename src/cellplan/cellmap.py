"""Global cost-to-go database: for every free cell, the non-dominated set of
(path length, terrain cost) vectors over all routes into a goal region.

The database is the least fixed point of the per-cell update

    labels[i] <- the non-dominated subset of
                 ({(0, 0)} if i is a goal cell else {})
                 | {F + (step(i, j), terrain(i)) for every move i -> j,
                                                  F in labels[j]}

A hop i -> j costs (step(i, j), terrain(i)): the hop length of the move
rule (10 straight, 14 diagonal) plus the terrain of the cell being
departed. Unrolled along a path this counts the terrain of every cell
except the final goal cell (the start included), and it pins goal label
sets to exactly {(0, 0)}.

One kernel computes it: label-setting over Dial's bucket queue, opened one
window of path lengths [10w, 10w + 10) at a time, with whole-array numpy
steps over the whole-map move table of grid.move_mask. Every f1 is even, so
a window has five lanes, one per path length. Every step is at least 10
long, so the children of window w fall in windows w + 1 and w + 2: the
queue is a ring of three window slabs, one packed (f2 << sh) | depth slot
per (lane, cell), blank until pushed to, and one np.minimum.at pushes a
window's children into their slots. A cell's lanes settle in f1 order, each
only if its least f2 beats the cell's last settled f2, so each final vector
is settled exactly once and a slot beaten since its push never settles.
Each cell counts the labels it settles, which places every label in the
(cell, f1) layout without a sort. `iterations` is the number of
synchronous sweeps from empty sets that change a label set, 1 + the largest
hop count any stored vector needs, read off the hop depth each slot
carries. Its integers are int32 when the ring key (below 15n) and the
largest f2 fit, else int64; the packed values are int32 or int64 when they
fit, and Python ints near the overflow bound. The tests keep the
synchronous sweep as the reference it must equal byte for byte.

Every cyclic detour strictly increases path length without lowering terrain
cost, so only simple paths contribute and the build terminates.

Database.label_key is the one check of canonical form (f1 strictly rising
and f2 strictly falling in each cell, no path longer than the longest route,
exactly (0, 0) at each goal cell): load_database, verify_database and the
queries all read it. _Step is the one check of a database against its map
and the one label match over that key, for the query's expansion step and
for verify_database, which checks a database without a build.

One layout holds a database, in memory and on disk: a label count for every
cell of the map in row-major order (0 for obstacles and unreachable cells)
and flat f1 and f2 arrays in (cell, f1) order, so each cell's set is one
slice. A saved database is one canonical JSON header line followed by the
three arrays as raw little-endian unsigned integers, each in the narrowest
of 1, 2, 4 or 8 bytes that holds its largest value; in memory each array is
held in that width too.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Mapping
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from .grid import (
    DIAGONAL_STEP,
    MAX_COMPONENT,
    STRAIGHT_STEP,
    Cell,
    CostOverflowError,
    GoalRegion,
    GridMap,
    LabelSet,
    _cell,
    _integer,
    _integers,
    map_digest,
    max_free_terrain,
    move_mask,
    overflow_risk,
)

DB_VERSION = 2

# Identifies the cost accounting the database was built under; _Step rejects
# a database whose vectors mean something else.
CONVENTION_TAG = "len10-14/terrain-of-departed-cell/goal-zero"


class DigestMismatchError(ValueError):
    """Database was built from a different map than the one supplied."""


@dataclass(frozen=True, eq=False)
class Database:
    """Fixed-point label sets plus build metadata, as read-only numpy arrays.

    `counts[i]` is the size of the label set of the row-major cell i, over
    all n_rows * n_cols cells; obstacles and unreachable free cells hold 0.
    `f1` and `f2` list every stored vector in (cell, f1) order, so cell i's
    set is the slice offsets[i]:offsets[i + 1]. The constructor stores the
    sets as given, reads counts, f1 and f2 by the number rule for arrays
    (grid._integers), n_rows, n_cols (at least 1) and iterations (at least
    0) by the number rule (grid._integer) and the goal as GoalRegion.on
    does. label_key is the one check that the sets are canonical: the
    loader, the verifier and the queries all read it, so no database out of
    canonical form is loaded, verified or queried.

    The dtype rule, one for every database (_stored_dtype): counts, f1 and
    f2 are each held in their stored width, the narrowest of _WIDTHS that
    holds the array's largest value, as uint8, uint16 or uint32, and as
    int64 for width 8 (every value is at most MAX_COMPONENT). The
    constructor copies what it is given into those widths,
    build_database places its labels straight into them, and load_database
    keeps the file's arrays in place, as read-only views of its bytes.
    save_database writes the arrays as they are. `offsets` is int64 always.
    So arithmetic on counts, f1 and f2 takes its dtype from an int64 or
    label-key operand, never from a bare Python int: a uint16 array plus 14
    stays uint16 and wraps.
    `_query_memo` is the query layer's one-entry memo of its last map and
    start (query._Memo); it holds only data derived from the read-only arrays
    and a read-only map, and == ignores it.
    """

    counts: np.ndarray
    f1: np.ndarray
    f2: np.ndarray
    n_rows: int
    n_cols: int
    goal: GoalRegion
    map_digest: str
    iterations: int
    convention_tag: str = CONVENTION_TAG
    offsets: np.ndarray = field(init=False, repr=False)
    _query_memo: list = field(default_factory=lambda: [None], init=False, repr=False)

    def __post_init__(self):
        # Copies, so no caller keeps a writeable reference to the stored arrays.
        self._store(*(_integers(getattr(self, name), name) for name in ("counts", "f1", "f2")))

    @classmethod
    def _in_place(cls, counts, f1, f2, **meta) -> Database:
        """A database over arrays no one else can write, stored as they are
        when in their stored widths: the loader's read-only views of a bytes
        object, or the arrays a build has just made. `meta` is every other
        field."""
        db = cls.__new__(cls)
        for name, value in {**meta, "_query_memo": [None]}.items():
            object.__setattr__(db, name, value)
        db._store(counts, f1, f2)
        return db

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild the database through the
        # constructor, as for GridMap: read-only arrays and an empty memo.
        return (Database, tuple(getattr(self, f.name) for f in fields(self) if f.init))

    def _store(self, counts, f1, f2) -> None:
        """Check and store the scalars and the goal; check the arrays' shapes
        and sum, derive offsets, and store all four arrays read-only,
        counts, f1 and f2 in their stored widths."""
        for name, minimum in (("n_rows", 1), ("n_cols", 1), ("iterations", 0)):
            object.__setattr__(self, name, _integer(getattr(self, name), name, minimum))
        if not all(isinstance(s, str) and s for s in (self.map_digest, self.convention_tag)):
            raise ValueError("map_digest and convention_tag must be non-empty strings")
        if not isinstance(self.goal, GoalRegion):
            object.__setattr__(self, "goal", GoalRegion(self.goal))
        if counts.shape != (self.n_rows * self.n_cols,):
            raise ValueError("counts must hold one entry per cell of the map")
        if f1.ndim != 1 or f1.shape != f2.shape:
            raise ValueError("f1 and f2 must hold exactly the counted labels")
        # A count above the label total is refused before the sum, which it could wrap.
        if _top(counts) > f1.size or int(counts.sum()) != f1.size:
            raise ValueError(f"label counts do not sum to the {f1.size} labels: f1 and f2 "
                             "must hold exactly the counted labels")
        # The loader's views and the kernel's arrays come in their widths; the
        # constructor's int64 copies are narrowed here.
        counts, f1, f2 = (a.astype(_stored_dtype(_top(a)), copy=False) if a.dtype == np.int64
                          else a for a in (counts, f1, f2))
        offsets = np.zeros(counts.size + 1, dtype=np.int64)
        np.cumsum(counts, dtype=np.int64, out=offsets[1:])
        for name, a in (("counts", counts), ("f1", f1), ("f2", f2), ("offsets", offsets)):
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    def __eq__(self, other):
        if not isinstance(other, Database):
            return NotImplemented
        return ((self.n_rows, self.n_cols, self.goal, self.map_digest, self.iterations,
                 self.convention_tag)
                == (other.n_rows, other.n_cols, other.goal, other.map_digest,
                    other.iterations, other.convention_tag)
                and all(np.array_equal(getattr(self, k), getattr(other, k))
                        for k in ("counts", "f1", "f2")))

    @property
    def labels(self) -> Mapping[Cell, LabelSet]:
        """The non-empty label sets by cell, decoded on access, in row-major order."""
        return _LabelView(self)

    def index(self, cell) -> int | None:
        """Row-major index of `cell`, read by grid._cell, or None when it
        lies outside the map."""
        r, c = _cell(cell)
        if 0 <= r < self.n_rows and 0 <= c < self.n_cols:
            return r * self.n_cols + c
        return None

    def front(self, cell: Cell) -> LabelSet:
        i = self.index(cell)
        if i is None:
            return ()
        lo, hi = self.offsets[i:i + 2].tolist()
        return tuple(zip(self.f1[lo:hi].tolist(), self.f2[lo:hi].tolist()))

    @cached_property
    def label_key(self) -> tuple[np.ndarray, int]:
        """(key, stride): key[k] = cell * stride + f1[k] for every label k, a
        strictly rising array, with stride = max f1 + 1 + DIAGONAL_STEP.

        A one-hop candidate (j, f1[k] + s) of a stored label k, |s| <= 14, has
        the key key[k] + (j - cell) * stride + s, and the headroom above the
        largest f1 keeps it off the keys of every cell but j. Derived
        once from the read-only counts and f1, so it cannot go stale; int32
        when every value fits.

        This is the one check of canonical form. Raises ValueError when a
        cell's set is not in canonical order (f1 strictly rising, f2
        strictly falling), when a goal cell lies outside the map or does not
        hold exactly (0, 0), or when a path length exceeds the longest route
        a map of this size has.
        """
        counts, offsets, f1, f2 = self.counts, self.offsets, self.f1, self.f2
        n = counts.size
        # Neighbouring labels of one cell: every pair except across a cell's start.
        bad = np.ones(max(f1.size - 1, 0), dtype=bool)
        starts = offsets[:-1]
        bad[starts[(starts > 0) & (starts < f1.size)] - 1] = False
        bad &= (f1[1:] <= f1[:-1]) | (f2[1:] >= f2[:-1])
        if bad.any():
            i = int(np.searchsorted(offsets, np.argmax(bad), side="right")) - 1
            raise ValueError(f"labels of cell {i // self.n_cols},{i % self.n_cols} "
                             "are not in canonical order")
        for r, c in sorted(self.goal.cells):
            i = self.index((r, c))
            if i is None:
                raise ValueError(f"goal cell {r},{c} lies outside the map")
            if counts[i] != 1 or f1[offsets[i]] or f2[offsets[i]]:
                raise ValueError(f"goal cell {r},{c} must hold exactly (0, 0)")
        top = int(f1.max()) if f1.size else 0
        if top > DIAGONAL_STEP * (n - 1):
            raise ValueError(f"path length {top} exceeds the longest route on a "
                             f"{self.n_rows}x{self.n_cols} map")
        stride = top + 1 + DIAGONAL_STEP
        dtype = np.int32 if n * stride <= np.iinfo(np.int32).max else np.int64
        key = np.repeat(np.arange(n, dtype=dtype), counts)
        key *= stride
        key += f1  # f1 is below stride, so it fits the key's dtype
        key.flags.writeable = False
        return key, stride


class _LabelView(Mapping):
    """Read-only {cell: label set} view of a Database, holding only non-empty sets."""

    __slots__ = ("_db",)

    def __init__(self, db: Database):
        self._db = db

    def __getitem__(self, cell) -> LabelSet:
        try:
            i = self._db.index(cell)
        except (TypeError, ValueError):
            i = None
        if i is None or not self._db.counts[i]:
            raise KeyError(cell)
        return self._db.front(cell)

    def __iter__(self):
        cols = self._db.n_cols
        return (divmod(i, cols) for i in np.flatnonzero(self._db.counts).tolist())

    def __len__(self) -> int:
        return int(np.count_nonzero(self._db.counts))


# Path lengths per window of the bucket queue: a window spans one
# STRAIGHT_STEP, and every f1 is even (steps of 10 and 14, goal seeds at 0).
_LANES = STRAIGHT_STEP // 2


def _build_buckets(grid: GridMap, goal_ids: list[int]):
    """Label-setting in Dial's bucket queue, opened one window of path lengths
    [10w, 10w + 10) at a time, in increasing w. A window has _LANES lanes,
    lane = (f1 - 10w) / 2.

    The queue is a ring of three slabs for windows w, w + 1 and w + 2: ring
    lane (w % 3) * _LANES + lane holds a lane of window w, one slot per
    cell. Every step is at least STRAIGHT_STEP long, so the children of
    window w fall in windows w + 1 and w + 2, and a window is complete when
    it is opened. The settled labels expand through the whole-map move
    table (grid.move_mask as n rows of eight moves), and the children whose
    f2 beats the last one settled at their cell go straight into their
    slots, with one np.minimum.at. Opening window w gathers the _LANES
    slots of the cells where any of them is below blank, in ascending
    order, and resets them to blank. A lane settles where its f2 is below
    the running minimum over the cell's earlier lanes, started at the
    cell's last settled f2: exactly what opening the window's path lengths
    one at a time would settle. So a slot beaten at its cell since its push
    never settles, and nothing is filtered when a window opens.

    A slot holds a packed value (f2 << sh) | depth, with sh = n.bit_length()
    bits for a depth below n, so one np.minimum.at keeps the least f2 and
    the fewest hops among its ties. An empty slot holds blank = none << sh,
    which reads back as f2 = none: f2_cap + 1, or the int64 maximum on a
    map at the overflow limit, where f2_cap + 1 is 2**63. Either is above
    every real f2, which sums at most n - 1 terrains, and last_f2 starts at
    none, so a blank slot never settles. A pushed value, its f2 below none
    and its depth below 1 << sh, is below blank, so the cells with a slot
    below blank are exactly those pushed to. The ring's dtype is the
    narrowest of the kernel's integers' (below), int64 and object (Python
    ints) that holds blank: the map's size and terrain pick it.

    `depth` is the hop count of the route that made a slot's value. All
    parents of a vector (f1, f2) are settled, each with its own least
    depth, before its window opens, so the settled depth is the fewest hops
    the vector needs, and `iterations` is 1 + the largest settled depth.

    Labels are placed by counting, not sorted: every cell counts the labels
    it has settled, so a label's row in the (cell, f1) layout is its cell's
    offset plus its rank there. Each window writes its settled (cell, rank,
    f2) columns after the last window's in the open block, of at least 4n
    columns. A window that does not fit closes the block: each of its three
    columns is copied once, into the narrowest width its values need
    (_narrow), and a new block opens. So the settled labels are held near
    their stored size, and a closed block holds whole windows. A window
    settles its labels lane by lane, so the f1 column is one run per
    (window, lane), and placement makes a block's f1 with one np.repeat
    over its windows' runs. Placement adds each label's cell offset to its
    rank, scatters f1 and f2 straight into arrays of their stored widths
    (_stored_dtype), f1's taken from the largest settled path length, and
    frees each block once it is placed.

    Cells, f2, depths, ranks and ring keys are int32 when the map's bounds
    fit: ring keys below 3 * _LANES * n, f2 at most f2_cap = max terrain *
    n, depths below n, and ranks below a front's size, at most f2_cap + 1 as
    its f2 values are distinct. Else they are int64. Label rows are int32
    when the label count fits. The returned counts, f1 and f2 are in their
    stored widths.
    """
    n = grid.terrain.size
    f2_cap = max_free_terrain(grid) * n
    ring_lanes = 3 * _LANES
    dtype = np.int32 if max(ring_lanes * n, f2_cap) < np.iinfo(np.int32).max else np.int64
    # Move table, one row of eight per cell; a missing move leads to the extra
    # cell n, whose last_f2 of 0 no child beats.
    allowed, shift, step = move_mask(grid)
    moves = np.where(allowed, np.arange(n)[:, None] + shift, n).astype(dtype)
    move_f2 = np.append(grid.terrain.ravel(), 0).astype(dtype)[moves]  # hop cost
    # next_key[r, d]: the first ring key of the lane a move in direction d
    # leads to from ring lane r, one window and 0 (straight) or 2 (diagonal)
    # lanes on.
    next_lane = np.arange(ring_lanes)[:, None] + _LANES + (step - STRAIGHT_STEP) // 2
    next_key = (next_lane % ring_lanes * n).astype(dtype)
    sh = n.bit_length()
    none = min(f2_cap + 1, np.iinfo(dtype).max)
    blank = none << sh
    packed = next((t for t in (dtype, np.int64) if blank <= np.iinfo(t).max), object)
    last_f2 = np.full(n + 1, none, dtype=dtype)
    last_f2[n] = 0
    top_rank = np.full(n, -1, dtype=dtype)  # rank of each cell's last settled label
    ring = np.full((ring_lanes, n), blank, dtype=packed)
    ring_keys = ring.reshape(-1)  # a view by ring key
    ring[0, goal_ids] = 0  # the goal seeds: (f2, depth) = (0, 0) in lane 0 of window 0
    lane_of = np.arange(_LANES, dtype=dtype)[:, None]
    # The settled (cell, rank, f2) columns in increasing w: the open block
    # takes each window after the last, and a window that does not fit its
    # room closes it into `closed` and opens a new one.
    block, fill, first = np.empty((3, 4 * n), dtype=dtype), 0, 0
    closed = []  # (cell, rank, f2) narrowed, and (first, end): the block's slice of runs
    runs = []  # (w, labels settled per lane) per window
    max_depth = 0
    w, last_w = -1, 0  # last_w: the last window a child was pushed to
    while w < last_w:
        w += 1
        lanes = slice(w % 3 * _LANES, w % 3 * _LANES + _LANES)
        # The window's cells: those with a slot below blank, pushed since the
        # window's lanes were last reset.
        cells = np.flatnonzero(np.minimum.reduce(ring[lanes], axis=0) < blank)
        if not cells.size:
            continue
        # One column per cell, one row per lane: cell, rank, f2, depth, ring lane.
        table = np.empty((5, _LANES, len(cells)), dtype=dtype)
        v = ring[lanes].take(cells, axis=1)
        ring[lanes, cells] = blank
        np.right_shift(v, sh, out=table[2], casting="unsafe")
        np.bitwise_and(v, (1 << sh) - 1, out=table[3], casting="unsafe")
        del v
        # A lane settles where the running minimum down the column, started
        # at the cell's last settled f2, falls. Running sums and minima go
        # lane by lane: ufunc.accumulate down the short axis 0 took ten
        # times as long.
        run = table[2]
        prev = last_f2.take(cells)
        keep = np.empty(run.shape, dtype=bool)
        np.less(run[0], prev, out=keep[0])
        np.minimum(run[0], prev, out=run[0])
        for lane in range(1, _LANES):
            np.minimum(run[lane], run[lane - 1], out=run[lane])
        np.less(run[1:], run[:-1], out=keep[1:])
        last_f2[cells] = run[-1]
        rank = table[1]
        np.add(top_rank.take(cells), keep[0], out=rank[0])
        for lane in range(1, _LANES):
            np.add(rank[lane - 1], keep[lane], out=rank[lane])
        top_rank[cells] = rank[-1]
        table[0] = cells
        np.add(lane_of, lanes.start, out=table[4])
        labels = table.reshape(5, -1).compress(keep.ravel(), axis=1)
        runs.append((w, keep.sum(axis=1)))
        # Freed as soon as they are spent: in a process that builds again and
        # again, holding a window's arrays into the next allocations raised
        # peak RSS by about 1.5 MB on the 117x117 reference map.
        del table, run, prev, rank, cells
        k = labels.shape[1]
        if not k:  # every pushed slot had gone stale
            continue
        if fill + k > block.shape[1]:
            closed.append((*_narrow(block[:, :fill]), first, len(runs) - 1))
            del block  # freed first: held, it lifts the 117x117 peak to 12.3 B per label
            block, fill, first = np.empty((3, max(k, 4 * n)), dtype=dtype), 0, len(runs) - 1
        block[:, fill:fill + k] = labels[:3]
        fill += k
        cell, _rank, f2, depth, ring_lane = labels
        max_depth = max(max_depth, int(depth.max()))

        # Children, eight per label: only those whose f2 beats the last one
        # settled at their cell are pushed, each into its ring slot.
        child_f2 = move_f2.take(cell, axis=0)
        child_f2 += f2[:, None]
        child_cell = moves.take(cell, axis=0)
        live = np.flatnonzero(child_f2 < last_f2.take(child_cell))
        if live.size:
            key = next_key.take(ring_lane, axis=0)
            key += child_cell
            key = key.take(live)
            v = child_f2.take(live)
            if packed is not dtype:
                v = v.astype(packed)
            v <<= sh
            depth += 1
            v |= depth.take(live >> 3)  # eight moves per label
            np.minimum.at(ring_keys, key, v)
            last_w = w + 2
            del key, v
        del labels, cell, f2, depth, ring_lane, child_f2, child_cell, live
    del moves, move_f2, last_f2, ring, ring_keys  # spent
    closed.append((*_narrow(block[:, :fill]), first, len(runs)))
    del block  # freed before placement makes f1 and f2

    # Counting placement: a label's row is its cell's offset plus its rank.
    # Indexing by the narrow cells and rows casts them in small buffers,
    # where take would cast a full intp copy.
    top_rank += 1  # each cell's label count
    counts = top_rank.astype(_stored_dtype(_top(top_rank)))
    total = int(top_rank.sum())
    starts = np.zeros(n, dtype=dtype if total <= np.iinfo(dtype).max else np.int64)
    np.cumsum(top_rank[:-1], out=starts[1:])
    # f1 is one run per (window, lane), rising; the last non-empty run's is the largest.
    run_f1 = STRAIGHT_STEP * np.array([w for w, _ in runs])[:, None] + 2 * np.arange(_LANES)
    run_len = np.array([k for _, k in runs])
    run_f1 = run_f1.astype(_stored_dtype(int(run_f1.ravel()[np.flatnonzero(run_len)[-1]])))
    f1 = np.empty(total, dtype=run_f1.dtype)
    f2 = np.empty(total, dtype=_stored_dtype(max(_top(b[2]) for b in closed)))
    while closed:  # each block is freed once placed
        cell, pos, f2_settled, first, end = closed.pop()
        pos = pos.astype(starts.dtype)
        pos += starts[cell]
        f1[pos] = np.repeat(run_f1[first:end].ravel(), run_len[first:end].ravel())
        f2[pos] = f2_settled
    return (counts, f1, f2), max_depth + 1


def _narrow(columns: np.ndarray) -> list[np.ndarray]:
    """Each row of `columns`, non-negative, copied into its stored width."""
    return [c.astype(_stored_dtype(_top(c))) for c in columns]


def build_database(grid: GridMap, goal) -> Database:
    """Build the cost-to-go database for `goal` over `grid` with the bucket
    kernel, _build_buckets. One build serves any number of goal cells.
    """
    region = GoalRegion.on(grid, goal)
    if overflow_risk(grid):
        raise CostOverflowError("terrain costs could overflow a path sum; rescale the map")
    rows, cols = grid.n_rows, grid.n_cols
    goal_ids = sorted(r * cols + c for r, c in region.cells)
    arrays, iterations = _build_buckets(grid, goal_ids)  # fresh, in their stored widths
    return Database._in_place(*arrays, n_rows=rows, n_cols=cols, goal=region,
                              map_digest=map_digest(grid), iterations=iterations,
                              convention_tag=CONVENTION_TAG)


class _Step:
    """The one check of a database against its map, and the one label match
    over Database.label_key, for the queries and verify_database alike.

    Making a step raises DigestMismatchError when the database was built
    from another map, and ValueError when its shape differs, its
    convention_tag is not CONVENTION_TAG or it is out of canonical form.
    step(ids, cells) maps a frontier of label ids at their row-major cells
    to its successor edges (degree, dst): the number of successors of each
    frontier state, and their label ids, grouped by frontier state in
    row-major move order. Each allowed move of a state
    (c, F) matches the key of its candidate (j, F[0] - step) and keeps it
    when the label found has F[1] - terrain(c). A goal state's one label is
    (0, 0), so its candidates fall in the headroom of the cell before j and
    it has no successor; any other state without one raises ValueError.

    The move rule is read once per step, into the table moves[c, d] in the
    key's dtype: the key offset delta[d] where cell c may move in direction
    d, and otherwise the miss offset -(n * stride) of an n-cell map, which
    sends every key below 0, where no key is, so it never matches. A
    frontier of k states is matched as one (k, 8) block of candidate keys,
    key[ids] + moves[cells], with no gather of its allowed moves. The
    database's f1 and f2 are indexed with a[idx], not take (see
    load_database).
    """

    def __init__(self, db: Database, grid: GridMap):
        if db.map_digest != map_digest(grid):
            raise DigestMismatchError("database digest does not match this map")
        if (db.n_rows, db.n_cols) != (grid.n_rows, grid.n_cols):
            raise ValueError(f"database covers {db.n_rows}x{db.n_cols} cells, the map "
                             f"{grid.n_rows}x{grid.n_cols}; database does not match this map")
        if db.convention_tag != CONVENTION_TAG:
            raise ValueError(f"database was built under convention {db.convention_tag!r}, "
                             f"not {CONVENTION_TAG!r}")
        # The query memo holds the step, so it holds the database's arrays
        # but not the database: no reference cycle keeps either alive.
        self.f1, self.f2, self.n_cols = db.f1, db.f2, grid.n_cols
        self.key, self.stride = db.label_key
        self.allowed, self.shift, self.step = move_mask(grid)
        self.terrain = grid.terrain.ravel()
        self.goal = np.zeros(self.terrain.size, dtype=bool)
        self.goal[[r * grid.n_cols + c for r, c in db.goal.cells]] = True
        # key[k] + delta[d] is the key of (cell + shift[d], f1[k] - step[d]);
        # key[k] + miss is below 0 and fits the key's dtype, as n * stride does.
        delta = (self.shift * self.stride - self.step).astype(self.key.dtype)
        miss = self.key.dtype.type(-self.terrain.size * self.stride)
        self.moves = np.where(self.allowed, delta, miss)

    def match(self, rows: np.ndarray, delta):
        """(at, equal): the row of the largest key at or below key[rows] +
        delta (-1 below the first) and whether it equals that sum, which
        stays in the key's dtype: an allowed move's candidate lies in its
        cell's keys or their headroom. `rows` and `delta` broadcast."""
        q = np.add(self.key[rows], delta, dtype=self.key.dtype)
        at = self.key.searchsorted(q, side="right")
        at -= 1
        return at, self.key[at] == q

    def __call__(self, ids: np.ndarray, cells: np.ndarray):
        f1, f2 = self.f1, self.f2
        # moves is the step's own aligned array: take gathers its rows faster.
        at, hit = self.match(ids[:, None], self.moves.take(cells, axis=0))
        hit &= f2[at] == (f2[ids] - self.terrain[cells])[:, None]
        # A row of hit is 8 one-byte bools, one 8-byte word: its bit count
        # is the state's degree.
        degree = np.bitwise_count(hit.view(np.uint64)[:, 0])
        if np.count_nonzero(degree) < degree.size:
            stuck = np.flatnonzero((degree == 0) & ~self.goal[cells])
            if stuck.size:
                s = stuck[0]
                raise ValueError(
                    f"label {(int(f1[ids[s]]), int(f2[ids[s]]))} at "
                    f"{divmod(int(cells[s]), self.n_cols)} has no decomposition; "
                    "database does not match this map")
        return degree, at[hit]

    def cells(self, ids: np.ndarray) -> np.ndarray:
        """Row-major cells of label ids, read off their keys."""
        return self.key[ids] // self.stride


def verify_database(db: Database, grid: GridMap) -> bool:
    """Check that `db` is exactly the fixed point for `grid`: the map's
    shape, the convention tag, canonical form (Database.label_key raises
    for none of it), no label on an obstacle, and no change from one more
    sweep. False for a wrong database, and DigestMismatchError when `grid`
    is not the map it was built from.

    Moves are symmetric, so each label k at a cell that may move in
    direction d gives j = cell + shift[d] the candidate (f1[k] + step[d],
    f2[k] + terrain[j]). One _Step.match per direction finds the label at
    j with the largest f1 not above the candidate's, which has the least f2
    of those as f2 falls within a cell. That f2 may not exceed the
    candidate's (else a better vector is missing at j), an equal candidate
    supports the label, and every non-goal label needs support. The equal
    candidates are the query's successor edges, reversed."""
    try:
        hops = _Step(db, grid)
    except DigestMismatchError:
        raise
    except ValueError:
        return False
    counts, offsets = db.counts, db.offsets
    if counts[grid.obstacle.ravel()].any():
        return False
    # f2 in its stored width, read as int64 once: every gather below mixes
    # it with int64 terrain.
    f2 = db.f2.astype(np.int64, copy=False)
    cell = np.repeat(np.arange(counts.size, dtype=hops.key.dtype), counts)  # int32 when it fits
    supported = hops.goal[cell]  # goal seeds, (0, 0)
    for d in range(len(hops.shift)):
        k = np.flatnonzero(hops.allowed[cell, d])
        j = cell[k] + hops.shift[d]
        at, equal = hops.match(k, hops.shift[d] * hops.stride + hops.step[d])
        if (at < offsets[j]).any():  # no label at j with f1 <= f1[k] + step[d]
            return False
        back = f2[at] - hops.terrain[j]  # compared with f2[k]: no sum to overflow
        if (back > f2[k]).any():
            return False
        supported[at[equal & (back == f2[k])]] = True
    return bool(supported.all())


def save_database(db: Database) -> bytes:
    """The database's one byte form: identical databases serialize identically.

    A canonical JSON header line (see _HEADER_KEYS), then the counts, f1 and
    f2 arrays as raw little-endian unsigned integers, each in the narrowest
    width of _WIDTHS that holds its largest value: the width the database
    holds it in, so each is written as it is.
    """
    arrays = (db.counts, db.f1, db.f2)  # in their stored widths already
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(a)
    header = _header_bytes({
        "version": DB_VERSION,
        "map_digest": db.map_digest,
        "convention_tag": db.convention_tag,
        "goal": db.goal.cells,
        "iterations": db.iterations,
        "n_rows": db.n_rows,
        "n_cols": db.n_cols,
        "widths": [a.itemsize for a in arrays],
        "labels": int(db.f1.size),
        "sha256": digest.hexdigest(),
    })
    return b"".join((header, *arrays))


# Header fields in file order. "widths" lists the byte widths of the counts,
# f1 and f2 arrays; "labels" is the length of f1 and f2; "sha256" is the
# digest of every byte after the header line.
_HEADER_KEYS = ("version", "map_digest", "convention_tag", "goal", "iterations",
                "n_rows", "n_cols", "widths", "labels", "sha256")
_WIDTHS = (1, 2, 4, 8)
_COMPACT = json.JSONEncoder(separators=(",", ":"))


def _header_bytes(fields) -> bytes:
    """The header line of `fields`: compact JSON in _HEADER_KEYS order, with
    the goal cells sorted and each listed once."""
    header = {key: fields[key] for key in _HEADER_KEYS}
    header["goal"] = [list(cell) for cell in sorted(set(map(tuple, fields["goal"])))]
    return _COMPACT.encode(header).encode("utf-8") + b"\n"


def _top(a: np.ndarray) -> int:
    """The largest value of `a`, or 0 when it is empty."""
    return int(a.max()) if a.size else 0


def _width(top: int) -> int:
    """The narrowest byte width in _WIDTHS that holds the values up to `top`."""
    return next(w for w in _WIDTHS if top < 1 << (8 * w))


def _stored_dtype(top: int) -> np.dtype:
    """The dtype of an array whose largest value is `top`, in memory and on
    disk: little-endian unsigned in the narrowest width of _WIDTHS that
    holds `top`, but int64 for width 8, which holds every value up to
    MAX_COMPONENT; numpy would make float64 of uint64 mixed with the int64
    of offsets and the map."""
    width = _width(top)
    return np.dtype("<i8" if width == 8 else f"<u{width}")


def load_database(raw: bytes) -> Database:
    """Read the bytes save_database writes; the inverse of save_database.

    Rejects with ValueError a version-1 (JSON) file, a header that is not
    in its saved form, widths that are not the narrowest, a payload of the
    wrong length or checksum, a value above MAX_COMPONENT, and, by the
    constructor's checks, counts that do not sum to the label count. Its
    label_key, the one check of canonical form, then rejects a label set
    out of canonical order (f1 strictly rising, f2 strictly falling), a
    goal cell outside the map or not holding exactly (0, 0), and a path
    length beyond the longest route; the key stays cached for queries.
    Every field is then determined, so save_database(load_database(raw))
    == raw whenever this returns. Any convention tag loads; a foreign one is
    refused with the map, by _Step, and whether the sets fit the map and
    each other is left to verify_database.

    The database's arrays are read-only views of the file's bytes in their
    stored widths (see Database). They start wherever the header and the
    arrays before them end, so they are usually unaligned: hot paths index
    them with a[idx], never with ndarray.take, which is many times slower on
    an unaligned array. A `raw` that is not a bytes object, such as a
    bytearray, is copied into one first, so no caller keeps writeable
    memory under the database.
    """
    if type(raw) is not bytes:
        raw = bytes(raw)
    end = raw.find(b"\n")
    if end < 0:
        raise ValueError("database header line missing")
    try:
        header = json.loads(raw[:end])
    except ValueError as e:  # also a header that is not UTF-8
        raise ValueError(f"malformed database header: {e}") from e
    if not isinstance(header, dict):
        raise ValueError("database header must be a JSON object")
    version = header.get("version")
    if version == 1:
        raise ValueError("database version 1 (JSON) is no longer read; "
                         "rebuild the database with `cellplan build`")
    if version != DB_VERSION:
        raise ValueError(f"unsupported database version: {version!r}")
    if tuple(header) != _HEADER_KEYS:
        raise ValueError(f"header fields must be exactly {', '.join(_HEADER_KEYS)}, in that order")
    # The payload's size needs these; Database._store checks the other scalars.
    rows, cols = _integer(header["n_rows"], "n_rows", 1), _integer(header["n_cols"], "n_cols", 1)
    n_labels = _integer(header["labels"], "labels", 0)
    widths = header["widths"]
    if (not isinstance(widths, list) or len(widths) != 3
            or not all(_integer(w, "widths") in _WIDTHS for w in widths)):
        raise ValueError(f"widths must be three of {_WIDTHS}")
    goal = GoalRegion(header["goal"])  # so _header_bytes reads a list of [row, col] pairs
    # The version is compared as a number above, so 2.0 would pass: write the int.
    if _header_bytes({**header, "version": DB_VERSION}) != raw[:end + 1]:
        raise ValueError("database header is not in its saved form")

    payload = memoryview(raw)[end + 1:]
    n = rows * cols
    w_counts, w_f1, w_f2 = widths
    size = n * w_counts + n_labels * (w_f1 + w_f2)
    if len(payload) != size:
        raise ValueError(f"database payload holds {len(payload)} bytes where the header "
                         f"implies {size}")
    if hashlib.sha256(payload).hexdigest() != header["sha256"]:
        raise ValueError("database payload does not match its sha256 checksum")
    counts = np.frombuffer(payload, f"<u{w_counts}", n)
    f1 = np.frombuffer(payload, f"<u{w_f1}", n_labels, n * w_counts)
    f2 = np.frombuffer(payload, f"<u{w_f2}", n_labels, n * w_counts + n_labels * w_f1)
    tops = [_top(a) for a in (counts, f1, f2)]
    if [_width(top) for top in tops] != widths:
        raise ValueError("array widths must be the narrowest that hold their values")
    if max(tops) > MAX_COMPONENT:
        raise ValueError(f"a count or a cost component exceeds {MAX_COMPONENT}")
    counts, f1, f2 = (a.view(_stored_dtype(top)) for a, top in zip((counts, f1, f2), tops))
    db = Database._in_place(counts, f1, f2, n_rows=rows, n_cols=cols,
                            goal=goal, map_digest=header["map_digest"],
                            iterations=header["iterations"], convention_tag=header["convention_tag"])
    db.label_key  # the canonical-form check; the key stays cached for the queries
    return db
