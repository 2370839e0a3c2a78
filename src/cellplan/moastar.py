"""Multi-objective A* over the same grid and cost convention as the database.

A bi-objective best-first search in the style of BOA* (Hernández et al.,
"Simple and efficient bi-objective search algorithms via fast dominance
checks", Artificial Intelligence 2023), with NAMOA*'s equal-vector merging
(Mandow & Pérez de la Cruz, JACM 2010) so every distinct optimal path
survives.

The heuristic is exact per objective: two backward Dijkstras from the goal
cells give the shortest path length and the least terrain cost to go. Both
are consistent, so the open list pops labels in lexicographically
non-decreasing f = g + h order (ties: row-major cell). At a cell, a later
pop then has a g1 no smaller than every earlier one, so a single `g2_min`
per cell decides dominance: a popped label whose g2 is not below it is
dominated. A child whose (cell, g) already exists is merged into that label,
as a further parent, and only strictly worse vectors are cut. Solutions are
pruned against the latest, lowest-g2 solution, keeping equal vectors at
other goal cells.

A label is one int, key = (f1 << (cb + f2b)) | (f2 << cb) | cell, and
g = f - h at its cell; the open list is a heap of keys, and a (cell, g)
merges on sight, so no two entries tie. The widths hold because every label
is a simple path: cells below n take cb bits, f2 <= 2 * n * max terrain
takes f2b. A label a child would merge into was expanded only if every pop
since has had the child's f, so two cuts come before the merge lookup:
- g2 above its cell's g2_min: only a pop there with another g set that;
- cut by the solution front: only a solution with another f tightened it.

The heuristics never read the database, so MOA* stays an independent
cross-check of it. They depend only on the map and the goal, so the module
keeps a one-entry memo of the last ones built: the map (compared with `is`;
a GridMap is read-only) and its sorted goal ids, with the move lists, the
flat terrain, h1 and h2, and the key widths. Every start of one map and goal
after the first skips both Dijkstras; a call on another map or goal replaces
the entry, so the memo keeps one map's lists alive. A call that raises
stores nothing.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush

import numpy as np

from .grid import (
    Cell,
    CostOverflowError,
    GoalRegion,
    GridMap,
    Vector,
    max_free_terrain,
    move_mask,
    overflow_risk,
    require_free,
)

Path = tuple[Cell, ...]


def _cost_to_go(offsets, ids, steps, goal_ids: list[int], terr=None) -> list:
    """Backward Dijkstra from the goal cells: the least path length to go
    from every cell, or with `terr` the least terrain cost (a hop i -> j
    costs terr[i]); math.inf where no goal is reachable. The first three
    arguments are the move lists _heuristics makes, and moves are
    symmetric, so the moves of j list the cells that can step into j. Heap
    keys pack (cost, cell) into one int."""
    dist = [math.inf] * (len(offsets) - 1)
    shift = max(1, (len(dist) - 1).bit_length())
    mask = (1 << shift) - 1
    for g in goal_ids:
        dist[g] = 0
    heap = sorted(goal_ids)  # cost 0 packs to the bare cell id
    while heap:
        key = heappop(heap)
        j = key & mask
        d = key >> shift
        if d > dist[j]:
            continue
        for k in range(offsets[j], offsets[j + 1]):
            i = ids[k]
            nd = d + (steps[k] if terr is None else terr[i])
            if nd < dist[i]:
                dist[i] = nd
                heappush(heap, (nd << shift) | i)
    return dist


# The last (grid, goal ids, entry) that _heuristics built, replaced as one
# tuple so a reader never sees a half-replaced entry.
_memo: list = [None]


def _heuristics(grid: GridMap, region: GoalRegion):
    """The move lists, flat terrain, goal ids, both cost-to-go lists, h1
    and h2, and moa_star's key widths (cell bits, f2 bits), from the memo
    when it holds this map (by identity) and goal.

    The move lists are move_mask's allowed entries in CSR form (offsets,
    ids, steps): the moves of flat cell i are ids[offsets[i]:offsets[i + 1]]
    with their step lengths in steps, in NEIGHBOR_OFFSETS order, and the
    rows of obstacles are empty.

    Callers validate first, so a call that raises stores nothing. The entry
    is shared: callers must not change the lists.
    """
    cols = grid.n_cols
    goal_ids = sorted(r * cols + c for r, c in region.cells)
    memo = _memo[0]
    if memo is not None and memo[0] is grid and memo[1] == goal_ids:
        return memo[2]
    allowed, shift, step = move_mask(grid)
    offsets = [0, *np.cumsum(allowed.sum(axis=1)).tolist()]
    ids = (np.arange(len(allowed))[:, None] + shift)[allowed].tolist()
    moves = (offsets, ids, np.broadcast_to(step, allowed.shape)[allowed].tolist())
    terr = grid.terrain.ravel().tolist()
    h1 = _cost_to_go(*moves, goal_ids)
    h2 = _cost_to_go(*moves, goal_ids, terr)
    # Key field widths: cell ids below n, and f2 = g2 + h2 <= 2 * n * mt, as
    # each is a simple path's terrain cost; overflow_risk reads the same mt.
    n = len(terr)
    cb = (n - 1).bit_length()
    f2b = (2 * n * max_free_terrain(grid)).bit_length()
    entry = (moves, terr, goal_ids, h1, h2, cb, f2b)
    _memo[0] = (grid, goal_ids, entry)
    return entry


def heuristic(grid: GridMap, cell: Cell, goal) -> Vector | None:
    """The exact (path length, terrain cost) lower bounds from `cell` to the
    goal, each minimised on its own over all routes into the goal region.

    This is the heuristic moa_star uses, read through the same memo: calls
    on one map object and goal, and moa_star calls before them, share one
    pair of backward Dijkstras. Returns None when `cell` cannot reach the
    goal.
    """
    cell = require_free(grid, cell)
    region = GoalRegion.on(grid, goal)
    _moves, _terr, _goal_ids, h1, h2, _cb, _f2b = _heuristics(grid, region)
    i = cell[0] * grid.n_cols + cell[1]
    if h1[i] == math.inf:
        return None
    return (h1[i], h2[i])


def moa_star(grid: GridMap, start: Cell, goal, *, collect_paths: bool = True):
    """Full Pareto front from `start`, and (optionally) every optimal path.

    Returns (front, paths) where paths is a list of (cells, vector) pairs;
    with collect_paths=False the list is empty. The front always equals the
    database front at `start`, and on by-hand-checkable maps the path
    multiset matches enumerate_paths.
    """
    start = require_free(grid, start)
    region = GoalRegion.on(grid, goal)
    if overflow_risk(grid):
        raise CostOverflowError("terrain costs could overflow a path sum; rescale the map")
    cols = grid.n_cols
    (offsets, ids, steps), terr, goal_ids, h1, h2, cb, f2b = _heuristics(grid, region)
    goal_set = set(goal_ids)
    start_id = start[0] * cols + start[1]
    if h1[start_id] == math.inf:
        return (), []

    # A label is its key (f1 << sh1) | (f2 << cb) | cell, and g = f - h.
    sh1 = cb + f2b
    cmask = (1 << cb) - 1
    f2mask = (1 << f2b) - 1
    top = 1 << f2b  # above every f2, so above every g2
    g2_min = [top] * len(terr)
    start_key = (h1[start_id] << sh1) | (h2[start_id] << cb) | start_id
    # The first parent of each label (-1 for the start), and any merged later.
    creator = {start_key: -1}
    more: dict[int, list[int]] = {}
    sols: list[int] = []
    # The latest solution has the lowest g2 found so far; pops are lex-ordered.
    sol_f1, sol_g2 = -1, top
    heap = [start_key]
    while heap:
        key = heappop(heap)
        cell = key & cmask
        f2 = (key >> cb) & f2mask
        g2 = f2 - h2[cell]
        if g2 >= g2_min[cell]:
            continue
        f1 = key >> sh1
        if f2 > sol_g2 or (f2 == sol_g2 and f1 != sol_f1):
            continue
        g2_min[cell] = g2
        if cell in goal_set:
            # h is 0 here, so f == g and this vector is final. Equal-vector
            # solutions at other goal cells each keep their own label.
            sols.append(key)
            sol_f1, sol_g2 = f1, f2
            continue
        g1 = f1 - h1[cell]
        ng2 = g2 + terr[cell]
        for k in range(offsets[cell], offsets[cell + 1]):
            j = ids[k]
            # Both cuts come before the lookup (see the module docstring).
            if ng2 > g2_min[j]:
                continue
            nf1 = g1 + steps[k] + h1[j]
            nf2 = ng2 + h2[j]
            if nf2 > sol_g2 or (nf2 == sol_g2 and nf1 != sol_f1):
                continue
            child = (nf1 << sh1) | (nf2 << cb) | j
            if child in creator:
                more.setdefault(child, []).append(key)
            elif ng2 < g2_min[j]:
                creator[child] = key
                heappush(heap, child)

    # Pop order makes the solution vectors canonical once equal ones merge.
    front = tuple(dict.fromkeys((key >> sh1, (key >> cb) & f2mask) for key in sols))
    paths: list[tuple[Path, Vector]] = []
    if collect_paths:
        # At a goal cell f == g, so key order is (g, cell) order.
        for key in sorted(sols):
            g = (key >> sh1, (key >> cb) & f2mask)
            for path in _expand_paths(key, creator, more, cmask):
                paths.append((tuple(divmod(i, cols) for i in path), g))
    return front, paths


def _expand_paths(key: int, creator: dict, more: dict, cmask: int):
    """All paths recorded by a solution key as flat ids, via back-pointer
    DFS over each label's first parent, then its merged ones in order."""
    def parents(k):
        first = creator[k]
        if first < 0:
            return None
        return iter([first, *more.get(k, ())])

    chain = [key & cmask]
    up = parents(key)
    if up is None:
        yield tuple(chain)
        return
    stack = [up]
    while stack:
        parent = next(stack[-1], None)
        if parent is None:
            stack.pop()
            chain.pop()
            continue
        up = parents(parent)
        if up is None:
            yield tuple(reversed(chain + [parent & cmask]))
        else:
            chain.append(parent & cmask)
            stack.append(up)
