"""Queries over a built database: Pareto fronts, exact path counts, coverage,
and bounded path enumeration, plus the report renderers (JSON/CSV/ASCII/PGM).

All queries walk the (cell, vector) successor graph implied by the database:
a state (c, F) steps to (j, F') when F = F' + hop_cost(c, j). Path length
strictly decreases along every edge, so the graph is acyclic, every walked
path is simple, and counting is a plain DP.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import islice

from .cellmap import Database
from .grid import Cell, GridMap, _moves, neighbors, require_free
from .pareto import LabelSet, Vector

Path = tuple[Cell, ...]


@dataclass(frozen=True)
class QueryResult:
    """Everything a start cell query can report.

    `counts` maps each front vector to its exact optimal-path count (these
    are arbitrary-precision ints). `paths` is only populated by operations
    that enumerate.
    """

    start: Cell
    front: LabelSet
    counts: dict[Vector, int]
    total_paths: int
    coverage: frozenset[Cell] = frozenset()
    paths: tuple[tuple[Path, Vector], ...] | None = None


def pareto_front_at(db: Database, start: Cell) -> LabelSet:
    """The non-dominated cost vectors from `start`; empty if unreachable."""
    return db.front(start)


def successors(db: Database, grid: GridMap, cell: Cell, vector: Vector):
    """All one-hop decompositions of `vector` at `cell`, in row-major order.

    Each entry (j, F') satisfies vector == F' + hop_cost(cell, j) with F' in
    the label set of j. Non-empty for every non-goal vector of a consistent
    database; goal cells have no successors.
    """
    cell = tuple(cell)
    vector = tuple(vector)
    front = db.front(cell)
    if vector not in front:
        raise ValueError(f"vector {vector} is not in the label set of {cell}")
    if cell in db.goal.cells:
        return []
    t = int(grid.terrain[cell])
    out = []
    for j, dz in neighbors(grid, cell):
        w = (vector[0] - dz, vector[1] - t)
        if w[0] >= 0 and w[1] >= 0 and w in db.labels.get(j, ()):
            out.append((j, w))
    return out


def _successor_graph(db: Database, grid: GridMap, start: Cell):
    """Successor lists for every state reachable from (start, F), F in front."""
    goal_cells = db.goal.cells
    terr = grid.terrain
    cols = grid.n_cols
    obst = grid.obstacle.ravel().tolist()
    nbr_cache: dict[Cell, list] = {}
    set_cache: dict[Cell, set] = {}
    succ: dict[tuple[Cell, Vector], tuple] = {}
    stack = [(start, v) for v in db.front(start)]
    while stack:
        state = stack.pop()
        if state in succ:
            continue
        cell, vec = state
        if cell in goal_cells:
            succ[state] = ()
            continue
        nb = nbr_cache.get(cell)
        if nb is None:
            moves = _moves(obst, grid.n_rows, cols, grid.allow_corner_cut, *cell)
            nb = [(divmod(j, cols), dz) for j, dz in moves]
            nbr_cache[cell] = nb
        t = int(terr[cell])
        acc = []
        for j, dz in nb:
            w = (vec[0] - dz, vec[1] - t)
            if w[0] < 0 or w[1] < 0:
                continue
            sj = set_cache.get(j)
            if sj is None:
                sj = set(db.labels.get(j, ()))
                set_cache[j] = sj
            if w in sj:
                acc.append((j, w))
        if not acc:
            raise ValueError(
                f"label {vec} at {cell} has no decomposition; database does not match this map")
        succ[state] = tuple(acc)
        stack.extend(acc)
    return succ


def count_paths(db: Database, grid: GridMap, start: Cell) -> QueryResult:
    """Front at `start` with the exact optimal-path count per vector.

    A DP over (cell, vector) states in increasing-length order; nothing is
    enumerated, so counts may be astronomically large.
    """
    start = tuple(start)
    require_free(grid, start)
    front = db.front(start)
    if not front:
        return QueryResult(start=start, front=(), counts={}, total_paths=0)
    succ = _successor_graph(db, grid, start)
    counts: dict[tuple[Cell, Vector], int] = {}
    for state in sorted(succ, key=lambda s: s[1]):
        nxt = succ[state]
        counts[state] = 1 if not nxt else sum(counts[s] for s in nxt)
    per_vec = {v: counts[(start, v)] for v in front}
    return QueryResult(start=start, front=front, counts=per_vec,
                       total_paths=sum(per_vec.values()))


def coverage(db: Database, grid: GridMap, start: Cell) -> frozenset[Cell]:
    """Cells lying on at least one optimal path from `start`."""
    start = tuple(start)
    require_free(grid, start)
    if not db.front(start):
        raise ValueError(f"start {start} cannot reach the goal")
    succ = _successor_graph(db, grid, start)
    return frozenset(cell for cell, _vec in succ)


def enumerate_paths(db: Database, grid: GridMap, start: Cell, limit: int | None = None):
    """Optimal paths from `start` as (cells, vector) pairs, plus a truncation flag.

    Paths come out in deterministic order: front vectors in canonical order,
    then depth-first through row-major successors. With limit=None all paths
    are returned and the flag is False; otherwise at most `limit` paths are
    returned and the flag tells whether more exist.
    """
    start = tuple(start)
    require_free(grid, start)
    if limit is not None and limit < 1:
        raise ValueError("limit must be a positive integer")
    front = db.front(start)
    if not front:
        return [], False
    succ = _successor_graph(db, grid, start)
    gen = _walk_paths(succ, start, front)
    if limit is None:
        return list(gen), False
    out = list(islice(gen, limit))
    truncated = next(gen, None) is not None
    return out, truncated


def _walk_paths(succ, start: Cell, front: LabelSet):
    for vec in front:
        first = (start, vec)
        if not succ[first]:
            yield (start,), vec
            continue
        path = [start]
        stack = [iter(succ[first])]
        while stack:
            step = next(stack[-1], None)
            if step is None:
                stack.pop()
                path.pop()
                continue
            cell, w = step
            if not succ[(cell, w)]:
                yield tuple(path) + (cell,), vec
            else:
                path.append(cell)
                stack.append(iter(succ[(cell, w)]))


# --- report renderers ---

def render_report_json(start: Cell, front: LabelSet, *, counts=None,
                       total_paths=None, coverage_cells=None, paths=None,
                       truncated=None) -> bytes:
    """Canonical JSON report; sections not supplied are omitted."""
    payload: dict = {
        "start": list(start),
        "front": [list(v) for v in front],
    }
    if counts is not None:
        payload["counts"] = [
            {"vector": list(v), "count": str(counts[v])} for v in front
        ]
        payload["total_paths"] = int(total_paths)
    if coverage_cells is not None:
        payload["coverage"] = [list(c) for c in sorted(coverage_cells)]
    if paths is not None:
        payload["paths"] = [
            {"cells": [list(c) for c in cells], "vector": list(v)}
            for cells, v in paths
        ]
        payload["truncated"] = bool(truncated)
    return json.dumps(payload, separators=(",", ":")).encode("utf-8") + b"\n"


def render_front_csv(front: LabelSet) -> str:
    """Front as CSV with an f1,f2 header."""
    lines = ["f1,f2"]
    lines.extend(f"{a},{b}" for a, b in front)
    return "\n".join(lines) + "\n"


def render_coverage_ascii(grid: GridMap, start: Cell, goal_cells, covered) -> str:
    """Coverage as a character grid: S start, G goal, * covered, # obstacle, . free."""
    start = tuple(start)
    goal_cells = set(map(tuple, goal_cells))
    covered = set(map(tuple, covered))
    rows = []
    for r in range(grid.n_rows):
        line = []
        for c in range(grid.n_cols):
            cell = (r, c)
            if cell == start:
                line.append("S")
            elif cell in goal_cells:
                line.append("G")
            elif cell in covered:
                line.append("*")
            elif grid.obstacle[r, c]:
                line.append("#")
            else:
                line.append(".")
        rows.append("".join(line))
    return "\n".join(rows) + "\n"


def render_coverage_pgm(grid: GridMap, covered) -> bytes:
    """Coverage as binary PGM: covered 255, free 128, obstacle 0."""
    covered = set(map(tuple, covered))
    header = f"P5\n{grid.n_cols} {grid.n_rows}\n255\n".encode("ascii")
    pixels = bytearray()
    for r in range(grid.n_rows):
        for c in range(grid.n_cols):
            if (r, c) in covered:
                pixels.append(255)
            elif grid.obstacle[r, c]:
                pixels.append(0)
            else:
                pixels.append(128)
    return header + bytes(pixels)
