"""Exhaustive ground truth for small maps.

Enumerates every simple path into the goal region and applies the
dominance definition directly, with no shared machinery beyond the grid
primitives. Intentionally naive; the cell budget keeps it honest.

The walk runs backwards: a simple path from a start into the goal, read
from its end, is a simple walk out of a goal cell. So one depth-first walk
out of each goal cell meets every (start, path) pair, and every cell it
stands on is the start of the path walked so far. A backward hop into cell
x adds the step and the terrain of x, the cell the forward hop departs.
Paths that pass through another goal cell count as well, and a start on a
goal cell has its one-cell path (0, 0). `_brute_force_all` answers for
every free start from one walk; `brute_force` takes its one start from the
same walk.
"""

from __future__ import annotations

from .grid import (Cell, GoalRegion, GridMap, Vector, _flag, _integer, free_cells, neighbors,
                   require_free)
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

    Refuses maps with more free cells than `cell_budget`, which follows the
    number rule (grid._integer) with a minimum of 1; `include_paths`
    follows the flag rule (grid._flag). The result only
    depends on the set of paths, never on the order they are visited in.
    """
    start = require_free(grid, start)
    return _brute_force_all(grid, goal, cell_budget=cell_budget,
                            include_paths=include_paths, starts=(start,))[start]


def _brute_force_all(grid: GridMap, goal, *, cell_budget: int = 20,
                     include_paths: bool = False, starts=None) -> dict[Cell, QueryResult]:
    """brute_force at each of `starts` (every free cell by default), all
    from one backward walk (see the module docstring)."""
    region = GoalRegion.on(grid, goal)
    cell_budget = _integer(cell_budget, "cell_budget", 1)
    include_paths = _flag(include_paths, "include_paths")
    free = free_cells(grid)
    if len(free) > cell_budget:
        raise ValueError(
            f"map has {len(free)} free cells, exceeding the oracle budget of {cell_budget}")

    # Each free cell has one bit; a walked path's cells are one int of bits.
    bit = {cell: 1 << i for i, cell in enumerate(free)}
    # Per cell, its moves as (neighbour, step, the neighbour's terrain and bit).
    moves = {cell: [(j, dz, int(grid.terrain[j]), bit[j]) for j, dz in neighbors(grid, cell)]
             for cell in free}
    # Per start, per vector: [path count, covered cells' bits, paths from the goal].
    hits: dict[Cell, dict[Vector, list]] = {s: {} for s in (free if starts is None else starts)}

    path: list[Cell] = []  # the walk so far: its goal cell first, the cell it stands on last

    def extend(cell: Cell, f1: int, f2: int, seen: int) -> None:
        at = hits.get(cell)
        if at is not None:
            hit = at.get((f1, f2))
            if hit is None:
                hit = at[(f1, f2)] = [0, 0, []]
            hit[0] += 1
            hit[1] |= seen
            if include_paths:
                hit[2].append(tuple(path))
        for j, dz, tz, b in moves[cell]:
            if seen & b:
                continue
            path.append(j)
            extend(j, f1 + dz, f2 + tz, seen | b)
            path.pop()

    for g in sorted(region.cells):
        path.append(g)
        extend(g, 0, 0, bit[g])
        path.pop()

    out = {}
    for start, at in hits.items():
        front = _pairwise_front(at)
        covered = 0
        for v in front:
            covered |= at[v][1]
        paths = None
        if include_paths:
            paths = tuple((p, v) for v in front for p in sorted(q[::-1] for q in at[v][2]))
        out[start] = QueryResult(start=start, front=front, counts={v: at[v][0] for v in front},
                                 total_paths=sum(at[v][0] for v in front),
                                 coverage=frozenset(c for c in free if covered & bit[c]),
                                 paths=paths)
    return out
