"""Multi-objective A* over the same grid and cost convention as the database.

Forward best-first search keeping, per cell, the non-dominated set of
cost-to-come vectors. Labels carry multiple back-pointers: a path that
reaches a cell with a vector already present merges into the existing label
instead of creating a new one, so every distinct optimal path survives while
only strictly dominated work is pruned. The open list pops lexicographically
smallest f = g + h first (ties: row-major cell, then insertion order), and
the heuristic (octile length lower bound, 0) is consistent, which makes pop
order monotone and closed labels permanently safe.
"""

from __future__ import annotations

from heapq import heappop, heappush

from .grid import (
    DIAGONAL_STEP,
    STRAIGHT_STEP,
    Cell,
    GoalRegion,
    GridMap,
    free_cells,
    neighbors,
    overflow_risk,
    require_free,
)
from .pareto import CostOverflowError, Vector, insert_front, strictly_dominated

Path = tuple[Cell, ...]


def _octile(a: Cell, b: Cell) -> int:
    dr = abs(a[0] - b[0])
    dc = abs(a[1] - b[1])
    lo = min(dr, dc)
    return DIAGONAL_STEP * lo + STRAIGHT_STEP * (max(dr, dc) - lo)


def heuristic(grid: GridMap, cell: Cell, goal) -> Vector:
    """(octile length lower bound to the nearest goal cell, 0).

    Obstacle-blind, hence admissible for path length; the terrain component
    is left at zero.
    """
    region = goal if isinstance(goal, GoalRegion) else GoalRegion(goal)
    cell = tuple(cell)
    require_free(grid, cell)
    return (min(_octile(cell, g) for g in region.cells), 0)


class _Label:
    __slots__ = ("cell", "g", "parents", "dead")

    def __init__(self, cell: Cell, g: Vector):
        self.cell = cell
        self.g = g
        self.parents: list[_Label] = []
        self.dead = False


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
    goal_cells = region.cells
    goal_sorted = region.sorted_cells()

    nbr: dict[Cell, list] = {}
    terr: dict[Cell, int] = {}
    for cell in free_cells(grid):
        nbr[cell] = neighbors(grid, cell)
        terr[cell] = int(grid.terrain[cell])

    h_cache: dict[Cell, int] = {}

    def h1(cell: Cell) -> int:
        v = h_cache.get(cell)
        if v is None:
            v = min(_octile(cell, g) for g in goal_sorted)
            h_cache[cell] = v
        return v

    start_label = _Label(start, (0, 0))
    cell_fronts: dict[Cell, list[Vector]] = {start: [(0, 0)]}
    labels: dict[tuple[Cell, Vector], _Label] = {(start, (0, 0)): start_label}
    sol_front: list[Vector] = []
    sol_labels: list[_Label] = []
    seq = 0
    heap = [(h1(start), 0, start[0], start[1], seq, start_label)]
    while heap:
        f1, f2, _r, _c, _s, lab = heappop(heap)
        if lab.dead:
            continue
        if strictly_dominated(sol_front, (f1, f2)):
            continue
        cell = lab.cell
        if cell in goal_cells:
            # h is 0 here, so g == f and this vector is final. Equal-vector
            # solutions at other goal cells each keep their own label.
            insert_front(sol_front, lab.g)
            sol_labels.append(lab)
            continue
        g1, g2 = lab.g
        tc = terr[cell]
        for j, dz in nbr[cell]:
            ng = (g1 + dz, g2 + tc)
            nf = (ng[0] + h1(j), ng[1])
            if strictly_dominated(sol_front, nf):
                continue
            fl = cell_fronts.get(j)
            if fl is None:
                fl = []
                cell_fronts[j] = fl
            status, removed = insert_front(fl, ng)
            if status == "dominated":
                continue
            if status == "present":
                labels[(j, ng)].parents.append(lab)
                continue
            for w in removed:
                dead = labels.pop((j, w))
                dead.dead = True
            child = _Label(j, ng)
            child.parents.append(lab)
            labels[(j, ng)] = child
            seq += 1
            heappush(heap, (nf[0], nf[1], j[0], j[1], seq, child))

    front = tuple(sol_front)
    paths: list[tuple[Path, Vector]] = []
    if collect_paths:
        for lab in sorted(sol_labels, key=lambda l: (l.g, l.cell)):
            for path in _expand_paths(lab):
                paths.append((path, lab.g))
    return front, paths


def _expand_paths(lab: _Label):
    """All paths recorded by a solution label, via back-pointer DFS."""
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
