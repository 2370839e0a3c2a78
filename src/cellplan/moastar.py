"""Multi-objective A* over the same grid and cost convention as the database.

A bi-objective best-first search in the style of BOA* (Hernández et al.,
"Simple and efficient bi-objective search algorithms via fast dominance
checks", Artificial Intelligence 2023), with NAMOA*'s equal-vector merging
(Mandow & Pérez de la Cruz, JACM 2010) so every distinct optimal path
survives.

The heuristic is exact per objective: two backward Dijkstras from the goal
cells give the shortest path length and the least terrain cost to go. Both
are consistent, so the open list pops labels in lexicographically
non-decreasing f = g + h order (ties: row-major cell, then insertion order).
At a cell, a later pop then has a g1 no smaller than every earlier one, so a
single `g2_min` per cell decides dominance: a popped label whose g2 is not
below it is dominated. A label whose (cell, g) already exists is never
pruned: its parent is merged into the existing label, expanded or not, and
only strictly worse vectors are cut. Solutions are pruned against the
latest, lowest-g2 solution, keeping equal vectors at other goal cells.

The heuristics never read the database, so MOA* stays an independent
cross-check of it. They depend only on the map and the goal, so the module
keeps a one-entry memo of the last ones built: the map (compared with `is`;
a GridMap is read-only) and its sorted goal ids, with the move lists, the
flat terrain and h1 and h2. Every start of one map and goal after the first
skips both Dijkstras; a call on another map or goal replaces the entry, so
the memo keeps one map's lists alive. A call that raises stores nothing.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush

from .grid import (
    Cell,
    GoalRegion,
    GridMap,
    move_csr,
    overflow_risk,
    require_free,
)
from .pareto import CostOverflowError, Vector

Path = tuple[Cell, ...]


def _cost_to_go(offsets, ids, steps, goal_ids: list[int], terr=None) -> list:
    """Backward Dijkstra from the goal cells: the least path length to go
    from every cell, or with `terr` the least terrain cost (a hop i -> j
    costs terr[i]); math.inf where no goal is reachable. The first three
    arguments are move_csr as lists, and moves are symmetric, so the moves
    of j list the cells that can step into j. Heap keys pack (cost, cell)
    into one int."""
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
    """move_csr as lists, flat terrain, goal ids and both cost-to-go lists, h1
    and h2, from the memo when it holds this map (by identity) and goal.

    Callers validate first, so a call that raises stores nothing. The entry
    is shared: callers must not change the lists.
    """
    cols = grid.n_cols
    goal_ids = sorted(r * cols + c for r, c in region.cells)
    memo = _memo[0]
    if memo is not None and memo[0] is grid and memo[1] == goal_ids:
        return memo[2]
    moves = [a.tolist() for a in move_csr(grid)]
    terr = grid.terrain.ravel().tolist()
    h1 = _cost_to_go(*moves, goal_ids)
    h2 = _cost_to_go(*moves, goal_ids, terr)
    entry = (moves, terr, goal_ids, h1, h2)
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
    region = goal if isinstance(goal, GoalRegion) else GoalRegion(goal)
    cell = tuple(cell)
    require_free(grid, cell)
    region.validate_on(grid)
    _moves, _terr, _goal_ids, h1, h2 = _heuristics(grid, region)
    i = cell[0] * grid.n_cols + cell[1]
    if h1[i] == math.inf:
        return None
    return (h1[i], h2[i])


class _Label:
    __slots__ = ("cell", "g", "parents")

    def __init__(self, cell: int, g: Vector):
        self.cell = cell
        self.g = g
        self.parents: list[_Label] = []


def moa_star(grid: GridMap, start: Cell, goal, *, collect_paths: bool = True):
    """Full Pareto front from `start`, and (optionally) every optimal path.

    Returns (front, paths) where paths is a list of (cells, vector) pairs;
    with collect_paths=False the list is empty. The front always equals the
    database front at `start`, and on by-hand-checkable maps the path
    multiset matches enumerate_paths.
    """
    start = tuple(start)
    require_free(grid, start)
    region = goal if isinstance(goal, GoalRegion) else GoalRegion(goal)
    region.validate_on(grid)
    if overflow_risk(grid):
        raise CostOverflowError("terrain costs could overflow a path sum; rescale the map")
    cols = grid.n_cols
    (offsets, ids, steps), terr, goal_ids, h1, h2 = _heuristics(grid, region)
    goal_set = set(goal_ids)
    start_id = start[0] * cols + start[1]
    if h1[start_id] == math.inf:
        return (), []

    g2_min = [math.inf] * len(terr)
    start_label = _Label(start_id, (0, 0))
    labels: dict[tuple[int, Vector], _Label] = {(start_id, (0, 0)): start_label}
    sol_labels: list[_Label] = []
    # The latest solution has the lowest g2 found so far; pops are lex-ordered.
    sol_f1, sol_g2 = math.inf, math.inf
    seq = 0
    heap = [(h1[start_id], h2[start_id], start_id, seq, start_label)]
    while heap:
        f1, f2, cell, _s, lab = heappop(heap)
        g1, g2 = lab.g
        if g2 >= g2_min[cell] or f2 > sol_g2 or (f2 == sol_g2 and f1 != sol_f1):
            continue
        g2_min[cell] = g2
        if cell in goal_set:
            # h is 0 here, so g == f and this vector is final. Equal-vector
            # solutions at other goal cells each keep their own label.
            sol_labels.append(lab)
            sol_f1, sol_g2 = g1, g2
            continue
        ng2 = g2 + terr[cell]
        for k in range(offsets[cell], offsets[cell + 1]):
            j = ids[k]
            ng = (g1 + steps[k], ng2)
            child = labels.get((j, ng))
            if child is not None:
                child.parents.append(lab)
                continue
            nf1 = ng[0] + h1[j]
            nf2 = ng2 + h2[j]
            if ng2 >= g2_min[j] or nf2 > sol_g2 or (nf2 == sol_g2 and nf1 != sol_f1):
                continue
            child = _Label(j, ng)
            child.parents.append(lab)
            labels[(j, ng)] = child
            seq += 1
            heappush(heap, (nf1, nf2, j, seq, child))

    # Pop order makes the solution vectors canonical once equal ones merge.
    front = tuple(dict.fromkeys(lab.g for lab in sol_labels))
    paths: list[tuple[Path, Vector]] = []
    if collect_paths:
        for lab in sorted(sol_labels, key=lambda l: (l.g, l.cell)):
            for path in _expand_paths(lab):
                paths.append((tuple(divmod(i, cols) for i in path), lab.g))
    return front, paths


def _expand_paths(lab: _Label):
    """All paths recorded by a solution label as flat ids, via back-pointer DFS."""
    if not lab.parents:
        yield (lab.cell,)
        return
    chain = [lab.cell]
    stack = [iter(lab.parents)]
    while stack:
        parent = next(stack[-1], None)
        if parent is None:
            stack.pop()
            chain.pop()
            continue
        if not parent.parents:
            yield tuple(reversed(chain + [parent.cell]))
        else:
            chain.append(parent.cell)
            stack.append(iter(parent.parents))
