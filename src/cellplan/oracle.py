"""Exhaustive ground truth for small maps.

Enumerates every simple path from a start cell into the goal region and
applies the dominance definition directly, with no shared machinery beyond
the grid primitives. Intentionally naive; the cell budget keeps it honest.
"""

from __future__ import annotations

from .grid import Cell, GoalRegion, GridMap, Vector, free_cells, neighbors, require_free
from .query import QueryResult


def _pairwise_front(vectors) -> tuple[Vector, ...]:
    """Non-dominated subset straight from the definition (quadratic scan)."""
    vs = sorted(set(vectors))
    out = []
    for v in vs:
        if not any(w != v and w[0] <= v[0] and w[1] <= v[1] for w in vs):
            out.append(v)
    return tuple(out)


def brute_force(grid: GridMap, start: Cell, goal, *, cell_budget: int = 20,
                include_paths: bool = False) -> QueryResult:
    """Exact front, counts, coverage (and optionally paths) by full enumeration.

    Walks every simple path from `start`, recording a candidate route each
    time the walk stands on a goal cell. Refuses maps with more free cells
    than `cell_budget`. The result only depends on the set of paths, never on
    the order they are visited in.
    """
    start = require_free(grid, start)
    region = GoalRegion.on(grid, goal)
    free = free_cells(grid)
    if len(free) > cell_budget:
        raise ValueError(
            f"map has {len(free)} free cells, exceeding the oracle budget of {cell_budget}")

    goal_cells = region.cells
    nbr = {cell: neighbors(grid, cell) for cell in free}
    terr = {cell: int(grid.terrain[cell]) for cell in nbr}

    hits: dict[Vector, int] = {}
    cover_by_vec: dict[Vector, set[Cell]] = {}
    paths_by_vec: dict[Vector, list] = {}

    path = [start]
    visited = {start}

    def extend(cell: Cell, f1: int, f2: int) -> None:
        if cell in goal_cells:
            vec = (f1, f2)
            hits[vec] = hits.get(vec, 0) + 1
            cover = cover_by_vec.get(vec)
            if cover is None:
                cover = set()
                cover_by_vec[vec] = cover
            cover.update(path)
            if include_paths:
                paths_by_vec.setdefault(vec, []).append(tuple(path))
        t = terr[cell]
        for j, dz in nbr[cell]:
            if j in visited:
                continue
            visited.add(j)
            path.append(j)
            extend(j, f1 + dz, f2 + t)
            path.pop()
            visited.remove(j)

    extend(start, 0, 0)

    front = _pairwise_front(hits)
    counts = {v: hits[v] for v in front}
    covered: set[Cell] = set()
    for v in front:
        covered |= cover_by_vec[v]
    paths = None
    if include_paths:
        paths = tuple((p, v) for v in front for p in sorted(paths_by_vec.get(v, ())))
    return QueryResult(start=start, front=front, counts=counts,
                       total_paths=sum(counts.values()),
                       coverage=frozenset(covered), paths=paths)
