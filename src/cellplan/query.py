"""Queries over a built database: Pareto fronts, exact path counts, coverage,
and bounded path enumeration, plus the report renderers (JSON/CSV/ASCII/PGM).

All queries walk the (cell, vector) successor graph implied by the database:
a state (c, F) steps to (j, F') when F = F' + hop_cost(c, j). Path length
strictly decreases along every edge, so the graph is acyclic, every walked
path is simple, and counting is a plain DP. One private step expands a state,
for the graph and for `successors` alike, with the moves of `grid._moves`.
It reads each neighbour's label set as its slice of the database's f1 and f2
arrays: a graph turns each slice it meets into a dict once, and successors()
bisects the f1 slice.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import islice

from .cellmap import Database
from .grid import Cell, GridMap, _moves, require_free
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
    """The non-dominated cost vectors from `start`; empty if unreachable.
    Decodes one slice of the database's arrays."""
    return db.front(start)


def successors(db: Database, grid: GridMap, cell: Cell, vector: Vector):
    """All one-hop decompositions of `vector` at `cell`, in row-major order.

    Each entry (j, F') satisfies vector == F' + hop_cost(cell, j) with F' in
    the label set of j. Non-empty for every non-goal vector of a consistent
    database; goal cells have no successors. Each membership test bisects
    one cell's f1 slice; no label set is decoded.
    """
    cell = tuple(cell)
    vector = tuple(vector)
    i = db.index(cell)
    if i is None or _SortedSlice(*db.segment(i)).get(vector[0]) != vector[1]:
        raise ValueError(f"vector {vector} is not in the label set of {cell}")
    if cell in db.goal.cells:
        return []
    require_free(grid, cell)
    return _decomposer(db, grid, grid.obstacle.ravel(), _SortedSlice)(cell, vector)


class _SortedSlice:
    """One cell's label set as a lookup f1 -> f2 that bisects its f1 slice."""

    __slots__ = ("f1", "f2")

    def __init__(self, f1, f2):
        self.f1, self.f2 = f1, f2

    def get(self, w1: int):
        k = int(self.f1.searchsorted(w1))
        if k < self.f1.size and self.f1[k] == w1:
            return int(self.f2[k])
        return None


def _slice_dict(f1, f2) -> dict:
    """One cell's label set as a dict f1 -> f2 (f1 is unique within a set)."""
    return dict(zip(f1.tolist(), f2.tolist()))


def _decomposer(db: Database, grid: GridMap, obst, lookup):
    """The one expansion step behind successors() and the successor graph.

    Returns step(cell, vec): the row-major list of (j, F') with
    vec == F' + hop_cost(cell, j) and F' in the label set of j, for a free
    non-goal `cell`. `lookup(f1, f2)` turns a cell's slices into an object
    whose get(w1) is the f2 paired with w1, or None: a dict for a whole
    graph, which tests many vectors against each cell, a bisection for one
    call. Moves and lookups are cached per step function, so one graph
    computes each only once. `obst` is the row-major obstacle mask: a list
    for a whole graph (faster to index), the numpy view for one call (no
    list of every cell is built).
    """
    terr = grid.terrain
    rows, cols, cut = grid.n_rows, grid.n_cols, grid.allow_corner_cut
    move_cache: dict[Cell, list] = {}
    slice_cache: dict[int, object] = {}

    def step(cell: Cell, vec: Vector) -> list:
        moves = move_cache.get(cell)
        if moves is None:
            moves = [(j, divmod(j, cols), dz)
                     for j, dz in _moves(obst, rows, cols, cut, *cell)]
            move_cache[cell] = moves
        t = int(terr[cell])
        w2 = vec[1] - t
        out = []
        if w2 < 0:
            return out
        for j, nb, dz in moves:
            w1 = vec[0] - dz
            if w1 < 0:
                continue
            sj = slice_cache.get(j)
            if sj is None:
                sj = slice_cache[j] = lookup(*db.segment(j))
            if sj.get(w1) == w2:
                out.append((nb, (w1, w2)))
        return out

    return step


def _successor_graph(db: Database, grid: GridMap, start: Cell):
    """Successor lists for every state reachable from (start, F), F in front."""
    goal_cells = db.goal.cells
    step = _decomposer(db, grid, grid.obstacle.ravel().tolist(), _slice_dict)
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
        acc = step(cell, vec)
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
