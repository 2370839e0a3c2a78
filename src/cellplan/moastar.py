"""Multi-objective A* over the same grid and cost convention as the database.

A bi-objective best-first search in the style of BOA* (Hernández et al.,
"Simple and efficient bi-objective search algorithms via fast dominance
checks", Artificial Intelligence 2023), with NAMOA*'s equal-vector merging
(Mandow & Pérez de la Cruz, JACM 2010) so every distinct optimal path
survives.

The heuristic is exact per objective: two backward searches from the goal
cells give the shortest path length and the least terrain cost to go. Both
are consistent, so the open list pops labels in lexicographically
non-decreasing f = g + h order (ties: row-major cell). At a cell, a later
pop then has a g1 no smaller than every earlier one, so a single `f2_min`
per cell (its best g2 plus its h2) decides dominance: a popped label whose
f2 is not below it is dominated. Solutions are pruned against the latest,
lowest-f2 solution, keeping equal vectors at other goal cells.

A label is one int, key = (f1 << (cb + f2b)) | (f2 << cb) | cell. The
widths hold because every label is a simple path: cells below n take cb
bits, f2 <= 2 * n * max terrain takes f2b. Each allowed move i -> j has
reduced costs rc1 = step + h1[j] - h1[i] and rc2 = terr[i] + h2[j] - h2[i],
both >= 0 as the heuristics are consistent, packed into one delta
D = (rc1 << sh1) + (rc2 << cb) + (j - i). A child's key is key + D, since
no field carries, and the search never reads h past the start.

A child is pushed when its f2 is below its cell's f2_min and it survives
the solution front. Nothing looks a child up: one that equals a queued
label is pushed again and skipped at pop, like any stale label, as the
first pop of a key sets f2_min at its cell to that key's f2. With
collect_paths, every generation that passes both cuts appends (child,
parent) to the log of the child's cell. The first cut is f2 > f2_min,
not >=, as a child equal to a label already accepted has that label's f2.
A label a child equals was expanded only if every pop since has had the
child's f, so the two cuts drop only generations of labels that were
never made or never expanded:
- f2 above its cell's f2_min: only a pop there with another g set that;
- cut by the solution front: only a solution with another f tightened it.
After the search, the pairs of a label's key in its cell's log give its
first parent and the parents merged into it later, in generation order.

The heuristics never read the database, so MOA* stays an independent
cross-check of it; they share nothing with the build kernel but the move
rule, move_mask. They depend only on the map and the goal, so the module
keeps a one-entry memo of the last ones built: the map (compared with
`is`; a GridMap is read-only) and its sorted goal ids, with each cell's
packed move deltas, the goal ids, h1, h2, the mask of cells that reach the
goal, and the key widths. Every start of one map and goal after the first
skips both searches; a call on another map or goal replaces the entry, so
the memo keeps one map's moves alive. A call that raises stores nothing.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import compress, product
from typing import NamedTuple

import numpy as np

from .grid import (
    DIAGONAL_STEP,
    STRAIGHT_STEP,
    Cell,
    CostOverflowError,
    GoalRegion,
    GridMap,
    Vector,
    _flag,
    max_free_terrain,
    move_mask,
    overflow_risk,
    require_free,
)

Path = tuple[Cell, ...]


def _path_length_to_go(nb: np.ndarray, step: np.ndarray, goal_ids: list[int]):
    """Least path length to go from every cell to the goal, by window sweeps,
    and the mask of cells that reach the goal.

    nb[i, d] is the cell that flat cell i reaches in direction d, or the
    sentinel cell n where that move is not allowed; step[d] is its length.
    Moves are symmetric, so the moves of j list the cells that step into j.
    Every step is at least STRAIGHT_STEP long, so once each cell below `lo`
    is settled, a cell whose tentative length is below lo + STRAIGHT_STEP is
    exact: its last hop leaves a settled cell. One window, aligned to a
    multiple of STRAIGHT_STEP, settles all of them and relaxes their moves
    at once; the sentinel absorbs the moves that are not allowed and is
    reset after each window.
    """
    n = len(nb)
    # Above every simple path's length, and a window boundary.
    unreached = STRAIGHT_STEP * DIAGONAL_STEP * n
    h = np.full(n + 1, unreached, dtype=np.int64)
    h[goal_ids] = 0
    lo = 0
    while lo < unreached:
        # h - lo as unsigned is below STRAIGHT_STEP just inside the window.
        win = np.flatnonzero((h - lo).view(np.uint64) < STRAIGHT_STEP)
        if win.size:
            np.minimum.at(h, nb[win].ravel(), (h[win, None] + step).ravel())
            h[n] = unreached
            lo += STRAIGHT_STEP
        else:  # skip to the window of the least unsettled length
            lo = int(h[h >= lo].min())
            lo -= lo % STRAIGHT_STEP
    return h[:n], h[:n] < unreached


def _terrain_to_go(offsets: list, to: list, terr: list, goal_ids: list[int]) -> list:
    """Least terrain cost to go from every cell to the goal (0 where no goal
    is reachable: callers mask those cells).

    The moves of flat cell c go to to[offsets[c]:offsets[c + 1]]; moves are
    symmetric, so these are also the cells that step into c. A hop i -> j
    costs terr[i] whatever j is, so the first settled neighbour of i fixes
    h[i] = terr[i] + h[j]: each cell is pushed once, with its final value.
    Cells wait in one bucket per value, and the heap holds the values, so a
    bucket settles whole; a neighbour of zero terrain joins the bucket being
    settled.
    """
    h = [0] * len(terr)
    seen = bytearray(len(terr))
    for g in goal_ids:
        seen[g] = 1
    buckets = {0: list(goal_ids)}
    values = [0]
    while values:
        d = heappop(values)
        for c in buckets[d]:
            for i in to[offsets[c]:offsets[c + 1]]:
                if not seen[i]:
                    seen[i] = 1
                    h[i] = hi = d + terr[i]
                    bucket = buckets.get(hi)
                    if bucket is None:
                        buckets[hi] = [i]
                        heappush(values, hi)
                    else:
                        bucket.append(i)
        del buckets[d]
    return h


class _Entry(NamedTuple):
    """What moa_star and heuristic() read for one map and goal."""

    moves: list  # per flat cell, the packed deltas D of its moves, in NEIGHBOR_OFFSETS order
    goal_ids: frozenset
    reach: np.ndarray  # True where the goal is reachable
    h1: np.ndarray
    h2: list
    cb: int  # cell bits
    f2b: int  # f2 bits


# The last (grid, goal ids, entry) that _heuristics built, replaced as one
# tuple so a reader never sees a half-replaced entry.
_memo: list = [None]


def _heuristics(grid: GridMap, region: GoalRegion) -> _Entry:
    """The heuristics and moa_star's packed moves for this map and goal,
    from the memo when it holds this map (by identity) and goal.

    The moves of a cell are move_mask's allowed entries, each as its packed
    delta D (module docstring). Cells that cannot reach the goal have none.
    D is built in int64 when it fits, else in Python ints.

    Callers validate first, so a call that raises stores nothing. The entry
    is shared: callers must not change it.
    """
    cols = grid.n_cols
    goal_ids = sorted(r * cols + c for r, c in region.cells)
    memo = _memo[0]
    if memo is not None and memo[0] is grid and memo[1] == goal_ids:
        return memo[2]
    allowed, shift, step = move_mask(grid)
    n = len(allowed)
    nb = np.where(allowed, np.arange(n)[:, None] + shift, n)
    terr = grid.terrain.ravel()
    h1, reach = _path_length_to_go(nb, step, goal_ids)
    # The moves of the cells that reach the goal: i -> j for flat (i, d).
    i, d = np.nonzero(allowed & reach[:, None])
    j = nb[i, d]
    offsets = [0, *np.cumsum(np.bincount(i, minlength=n)).tolist()]
    h2 = _terrain_to_go(offsets, j.tolist(), terr.tolist(), goal_ids)
    # Key field widths: cell ids below n, and f2 = g2 + h2 <= 2 * n * mt, as
    # each is a simple path's terrain cost; overflow_risk reads the same mt.
    cb = (n - 1).bit_length()
    f2b = (2 * n * max_free_terrain(grid)).bit_length()
    sh1 = cb + f2b
    # rc1 <= 2 * DIAGONAL_STEP, rc2 <= 2 * mt < 1 << f2b and |j - i| < 1 << cb,
    # so |D| < (2 * DIAGONAL_STEP + 2) << sh1.
    kind = np.int64 if (2 * DIAGONAL_STEP + 2) << sh1 <= 2**63 else object
    h1k, h2k, terrk = h1.astype(kind), np.array(h2, dtype=kind), terr.astype(kind)
    rc1 = step.astype(kind)[d] + h1k[j] - h1k[i]
    rc2 = terrk[i] + h2k[j] - h2k[i]
    deltas = ((rc1 << sh1) + (rc2 << cb) + (j - i).astype(kind)).tolist()
    moves = [deltas[a:b] for a, b in zip(offsets, offsets[1:])]
    entry = _Entry(moves, frozenset(goal_ids), reach, h1, h2, cb, f2b)
    _memo[0] = (grid, goal_ids, entry)
    return entry


def heuristic(grid: GridMap, cell: Cell, goal) -> Vector | None:
    """The exact (path length, terrain cost) lower bounds from `cell` to the
    goal, each minimised on its own over all routes into the goal region.

    This is the heuristic moa_star uses, read through the same memo: calls
    on one map object and goal, and moa_star calls before them, share one
    pair of backward searches. Returns None when `cell` cannot reach the
    goal.
    """
    cell = require_free(grid, cell)
    region = GoalRegion.on(grid, goal)
    e = _heuristics(grid, region)
    i = cell[0] * grid.n_cols + cell[1]
    if not e.reach[i]:
        return None
    return (int(e.h1[i]), e.h2[i])


def moa_star(grid: GridMap, start: Cell, goal, *, collect_paths: bool = True):
    """Full Pareto front from `start`, and (optionally) every optimal path.

    Returns (front, paths) where paths is a list of (cells, vector) pairs;
    with collect_paths=False the list is empty. collect_paths follows the
    flag rule (grid._flag). The front always equals the database front at
    `start`, and on by-hand-checkable maps the path multiset matches
    enumerate_paths.
    """
    collect_paths = _flag(collect_paths, "collect_paths")
    start = require_free(grid, start)
    region = GoalRegion.on(grid, goal)
    if overflow_risk(grid):
        raise CostOverflowError("terrain costs could overflow a path sum; rescale the map")
    cols = grid.n_cols
    moves, goal_ids, reach, h1, h2, cb, f2b = _heuristics(grid, region)
    start_id = start[0] * cols + start[1]
    if not reach[start_id]:
        return (), []

    # A label is its key (f1 << sh1) | (f2 << cb) | cell, and a child is
    # key + D. Its low bits key & low_mask, (f2 << cb) | cell, order the
    # labels of one cell by f2, so each cell keeps the low bits of its last
    # accepted label in low_min: f2_min, with the cell id below it.
    sh1 = cb + f2b
    cmask = (1 << cb) - 1
    low_mask = (1 << sh1) - 1
    top = 1 << sh1  # above every low part
    low_min = [top] * len(moves)
    # The parent log: log[j] holds the (child, parent) pairs of the children
    # made at cell j, flat and in generation order.
    log = [[] for _ in moves] if collect_paths else None
    sols: list[int] = []
    # The latest solution has the lowest f2 found so far; pops are lex-ordered.
    # A label is cut when f2 > sol_f2, i.e. low >= sol_above, or f2 == sol_f2
    # (low >= sol_at) with another f1.
    sol_f1, sol_at, sol_above = -1, top, top
    heap = [(int(h1[start_id]) << sh1) | (h2[start_id] << cb) | start_id]
    while heap:
        key = heappop(heap)
        cell = key & cmask
        low = key & low_mask
        if low >= low_min[cell]:
            continue
        if low >= sol_at and (low >= sol_above or key >> sh1 != sol_f1):
            continue
        low_min[cell] = low
        if cell in goal_ids:
            # h is 0 here, so f == g and this vector is final. Equal-vector
            # solutions at other goal cells each keep their own label.
            sols.append(key)
            sol_f1 = key >> sh1
            sol_at = low >> cb << cb
            sol_above = sol_at + (1 << cb)
            continue
        for d in moves[cell]:
            child = key + d
            j = child & cmask
            low = child & low_mask
            # Both cuts come before the log (see the module docstring).
            if (low > (bar := low_min[j])
                    or (low >= sol_at and (low >= sol_above or child >> sh1 != sol_f1))):
                continue
            if collect_paths:
                pairs = log[j]
                pairs.append(child)
                pairs.append(key)
            if low < bar:
                heappush(heap, child)

    # Pop order makes the solution vectors canonical once equal ones merge.
    front = tuple(dict.fromkeys((key >> sh1, (key & low_mask) >> cb) for key in sols))
    paths: list[tuple[Path, Vector]] = []
    if collect_paths:
        up: dict[int, list[int]] = {}
        rc = list(product(range(grid.n_rows), range(cols)))  # (row, col) by flat id
        # At a goal cell f == g, so key order is (g, cell) order.
        for key in sorted(sols):
            g = (key >> sh1, (key & low_mask) >> cb)
            for path in _expand_paths(key, log, up, cmask):
                paths.append((tuple(map(rc.__getitem__, path)), g))
    return front, paths


def _expand_paths(key: int, log: list, up: dict, cmask: int):
    """All paths recorded by a solution key as flat ids, via back-pointer
    DFS over each label's parents: the parents of its (child, parent) pairs
    in its cell's log, in generation order, so its first parent comes first.
    `up` caches them by label. The start is the one label with none."""
    def parents(k):
        ps = up.get(k)
        if ps is None:
            pairs = log[k & cmask]
            ps = up[k] = list(compress(pairs[1::2], map(k.__eq__, pairs[::2])))
        return iter(ps) if ps else None

    chain = [key & cmask]
    it = parents(key)
    if it is None:
        yield tuple(chain)
        return
    stack = [it]
    while stack:
        parent = next(stack[-1], None)
        if parent is None:
            stack.pop()
            chain.pop()
            continue
        it = parents(parent)
        if it is None:
            yield tuple(reversed(chain + [parent & cmask]))
        else:
            chain.append(parent & cmask)
            stack.append(it)
