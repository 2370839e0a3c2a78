"""Queries over a built database: Pareto fronts, exact path counts, coverage,
and bounded path enumeration, plus the report renderers (JSON/CSV/ASCII/PGM).

All queries walk the successor graph implied by the database. Its states are
label ids: row k of the database's f1 and f2 arrays is the state (c, F) with
F = (f1[k], f2[k]) in the label set of cell c. A state (c, F) steps to
(j, F') when c may move to j and F = F' + (step, terrain(c)), the hop's
length and the terrain of the cell it departs (see cellmap). Path length
strictly decreases along every edge, so the graph is acyclic, every walked
path is simple, and counting is a plain DP. One step, cellmap._Step,
expands a whole hop-frontier of states in numpy, for the graph and for
`successors` alike: it reads the move rule from one per-cell table of key
offsets, so a frontier's eight candidates per state are matched as one
block. verify_database runs on the same step and its one label match over
the database's sorted (cell, f1) key. The graph is the reached label ids
plus CSR successor lists (an offsets array and a flat array of successor
positions); a build marks the ids it reaches in one array of its own and
numbers them once, after its last hop-frontier.
enumerate_paths walks that graph depth-first one single-successor run at a
time (most states have exactly one successor): each run is made once, as a
tuple of cells, and a path is its branch prefix joined with a run that ends
at a goal state.

A database keeps a one-entry memo of its last query: the map (compared with
`is`; a GridMap is read-only) with its step, and the last start's graph. So
count_paths, coverage and enumerate_paths at one start build the graph once,
and successors builds the step once per map. Every query entry point but
pareto_front_at, the CLI's too, starts with _checked_front: the step, whose
making is the one check of a database against its map (a memo hit checks
nothing again), then the start. A step or graph that raises is never
stored, so a query on a database that does not match its map raises every
time. The memo entry is a query's only shared state: it is replaced whole,
never written after it is made, and every graph build makes its own
scratch, so threads may query one database at once.

The coverage pictures (ASCII and PGM) are drawn from whole arrays: the
map's obstacle mask, over which the covered cells, then the goal cells,
then the start are written. Their cells follow the one coordinate rule
(grid._cell), and a cell outside the map raises ValueError.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import islice
from typing import NamedTuple

import numpy as np

from .cellmap import Database, _Step
from .grid import Cell, GridMap, LabelSet, Vector, _cell, _integer, require_free

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
    Decodes one slice of the database's arrays, once Database.label_key has
    found the database in canonical form (ValueError otherwise). A start
    outside the map raises ValueError, as every start query does. It takes
    no map, so it cannot check the database against one, and an obstacle
    answers (); the CLI does not use it. A caller who holds the map should
    read count_paths(...).front."""
    db.label_key  # the canonical-form check; cached after the first call
    front = db.front(start)
    if not front and db.index(start) is None:
        raise ValueError(f"cell {_cell(start)} is out of bounds")
    return front


def successors(db: Database, grid: GridMap, cell: Cell, vector: Vector):
    """All one-hop decompositions of `vector` at `cell`, in row-major order.

    Each entry (j, F') has F' in the label set of j and vector == F' +
    (step, terrain(cell)), where step is the length of the move cell -> j.
    Each component of `vector` follows the number rule (grid._integer).
    Non-empty for every non-goal vector of a consistent database
    (ValueError otherwise); goal cells have no successors.
    """
    vector = tuple(vector)
    cell, front = _checked_front(db, grid, cell)
    try:
        vector = tuple(_integer(x, "vector") for x in vector)
    except ValueError as e:  # every label is a pair of integers
        raise ValueError(f"{e}, so {vector} is not in the label set of {cell}") from None
    if vector not in front:
        raise ValueError(f"vector {vector} is not in the label set of {cell}")
    if cell in db.goal.cells:
        return []
    step = db._query_memo[0].step
    i = db.index(cell)
    _degree, dst = step(np.array([db.offsets[i] + front.index(vector)]), np.array([i]))
    return list(zip(_decode(step.cells(dst), grid.n_cols),
                    zip(db.f1[dst].tolist(), db.f2[dst].tolist())))


class _Graph(NamedTuple):
    """The states reachable from a start, by position in discovery order
    (the start's front first, in canonical order): their label ids and
    row-major cells, and each one's successor positions
    succ[offsets[s]:offsets[s + 1]] in row-major move order."""

    ids: np.ndarray
    cells: np.ndarray
    offsets: np.ndarray
    succ: np.ndarray


class _Memo(NamedTuple):
    """A database's last query: a map, its step, and the successor graph of
    `start` on it (start and graph are None until a graph is built)."""

    grid: GridMap
    step: _Step
    start: Cell | None
    graph: _Graph | None


def _memo_step(db: Database, grid: GridMap) -> _Step:
    """The step of `grid`, from the database's memo when it holds this map."""
    memo = db._query_memo[0]
    if memo is not None and memo.grid is grid:
        return memo.step
    step = _Step(db, grid)
    db._query_memo[0] = _Memo(grid, step, None, None)
    return step


def _checked_front(db: Database, grid: GridMap, start: Cell) -> tuple[Cell, LabelSet]:
    """`start` as require_free reads it, a tuple of Python ints, and its
    front, once the database's memo holds the step of `grid` (made, and so
    checked, unless the memo holds this map already) and `start` is a free
    cell of it: every query's first step."""
    _memo_step(db, grid)
    start = require_free(grid, start)
    return start, db.front(start)


def _memo_graph(db: Database, start: Cell) -> _Graph:
    """The successor graph of `start` under the step _checked_front has
    just put in the database's memo: from the memo when it holds this start;
    otherwise built, and stored once it is."""
    memo = db._query_memo[0]
    if memo.start != start:
        memo = memo._replace(start=start, graph=_successor_graph(db, memo.step, start))
        db._query_memo[0] = memo
    return memo.graph


def _successor_graph(db: Database, step: _Step, start: Cell) -> _Graph:
    """The successor graph of every state reachable from (start, F), F in
    the front at `start`, found breadth-first one hop-frontier at a time.
    `seen` is this build's own: a zeroed array, mapped page by page as the
    build writes it, that marks each label id once it is reached. The states
    are numbered once, after the last hop-frontier, in the order they were
    found and so expanded: the edges come out grouped by state."""
    i = start[0] * step.n_cols + start[1]
    ids = np.arange(*db.offsets[i:i + 2].tolist())
    cells = np.full(ids.size, i)
    seen = np.zeros(step.key.size, dtype=step.key.dtype)
    seen[ids] = 1
    id_parts, cell_parts, degree_parts, dst_parts = [ids], [cells], [], []
    while ids.size:
        degree, dst = step(ids, cells)
        # The next frontier: each new label id once, where its last scatter won.
        fresh = dst[seen[dst] == 0]
        mark = np.arange(1, fresh.size + 1)
        seen[fresh] = mark
        ids = fresh[seen[fresh] == mark]
        cells = step.cells(ids)
        degree_parts.append(degree)
        dst_parts.append(dst)
        id_parts.append(ids)
        cell_parts.append(cells)
    ids = np.concatenate(id_parts)
    seen[ids] = np.arange(ids.size)  # each reached id's mark becomes its position
    offsets = np.zeros(ids.size + 1, dtype=np.int64)
    np.cumsum(np.concatenate(degree_parts), out=offsets[1:])
    return _Graph(ids, np.concatenate(cell_parts), offsets, seen[np.concatenate(dst_parts)])


def count_paths(db: Database, grid: GridMap, start: Cell) -> QueryResult:
    """Front at `start` with the exact optimal-path count per vector.

    A DP over the states in increasing path length, in Python ints; nothing
    is enumerated, so counts may be astronomically large.
    """
    start, front = _checked_front(db, grid, start)
    if not front:
        return QueryResult(start=start, front=(), counts={}, total_paths=0)
    graph = _memo_graph(db, start)
    off, succ = graph.offsets.tolist(), graph.succ.tolist()
    counts = [1] * len(graph.ids)  # goal states keep their one path
    for s in np.argsort(db.f1[graph.ids], kind="stable").tolist():
        a, b = off[s], off[s + 1]
        if b - a == 1:  # most states have a single successor
            counts[s] = counts[succ[a]]
        elif a < b:
            counts[s] = sum([counts[t] for t in succ[a:b]])
    per_vec = dict(zip(front, counts))
    return QueryResult(start=start, front=front, counts=per_vec,
                       total_paths=sum(per_vec.values()))


def coverage(db: Database, grid: GridMap, start: Cell) -> frozenset[Cell]:
    """Cells lying on at least one optimal path from `start`."""
    start, front = _checked_front(db, grid, start)
    if not front:
        raise ValueError(f"start {start} cannot reach the goal")
    graph = _memo_graph(db, start)
    return frozenset(_decode(np.unique(graph.cells), grid.n_cols))


def _decode(cells: np.ndarray, n_cols: int) -> list[Cell]:
    """(row, col) tuples of row-major cell ids."""
    rows, cols = np.divmod(cells, n_cols)
    return list(zip(rows.tolist(), cols.tolist()))


def enumerate_paths(db: Database, grid: GridMap, start: Cell, limit: int | None = None):
    """Optimal paths from `start` as (cells, vector) pairs, plus a truncation flag.

    Paths come out in deterministic order: front vectors in canonical order,
    then depth-first through row-major successors. With limit=None all paths
    are returned and the flag is False; otherwise at most `limit` paths are
    returned and the flag tells whether more exist. A limit follows the
    number rule (grid._integer) with a minimum of 1.
    """
    start, front = _checked_front(db, grid, start)
    limit = None if limit is None else _integer(limit, "limit", 1)
    if not front:
        return [], False
    gen = _walk_paths(_memo_graph(db, start), grid.n_cols, front)
    if limit is None:
        return list(gen), False
    out = list(islice(gen, limit))
    truncated = next(gen, None) is not None
    return out, truncated


def _walk_paths(graph: _Graph, n_cols: int, front: LabelSet):
    """Depth-first over the graph's successor lists, from the front's states,
    one run at a time. The run of a state is its cells up to the first state
    without exactly one successor, the run's end; most states have one. Each
    run is made once, on first entry, and a path is its branch prefix joined
    with the run that ends at a goal state. The states of one map cell share
    one (row, col) tuple, made when a run first reaches the cell."""
    off, succ, ids = graph.offsets.tolist(), graph.succ.tolist(), graph.cells.tolist()
    cells: dict[int, Cell] = {}
    runs: dict[int, tuple[Path, int]] = {}

    def run(t: int) -> tuple[Path, int]:
        got = runs.get(t)
        if got is None:
            part, end = [], t
            while True:
                i = ids[end]
                cell = cells.get(i)
                if cell is None:
                    cell = cells[i] = divmod(i, n_cols)
                part.append(cell)
                if off[end + 1] - off[end] != 1:
                    break
                end = succ[off[end]]
            got = runs[t] = (tuple(part), end)
        return got

    for s, vec in enumerate(front):
        prefix, end = run(s)
        if off[end] == off[end + 1]:
            yield prefix, vec
            continue
        stack = [(iter(succ[off[end]:off[end + 1]]), prefix)]
        while stack:
            branches, prefix = stack[-1]
            t = next(branches, None)
            if t is None:
                stack.pop()
                continue
            part, end = run(t)
            a, b = off[end], off[end + 1]
            if a == b:
                yield prefix + part, vec
            else:
                stack.append((iter(succ[a:b]), prefix + part))


# --- report renderers ---

_COMPACT = json.JSONEncoder(separators=(",", ":"))


def render_report_json(start: Cell, front: LabelSet, *, counts=None,
                       total_paths=None, coverage_cells=None, paths=None,
                       truncated=None) -> bytes:
    """Canonical JSON report; sections not supplied are omitted.

    The bytes are json.dumps(payload, separators=(",", ":")) of the payload
    below, plus a newline. The paths are most of it, so they are encoded in
    parts by the same encoder: each distinct cell object once, and each path
    joined from those texts. Should any part fail, the whole payload is
    encoded the plain way instead, so every error is json.dumps's own.
    """
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
    if paths is None:
        return _COMPACT.encode(payload).encode("utf-8") + b"\n"
    paths = list(paths)
    try:
        text = _paths_text(paths)
    except (TypeError, ValueError):
        payload["paths"] = [
            {"cells": [list(c) for c in cells], "vector": list(v)}
            for cells, v in paths
        ]
        payload["truncated"] = bool(truncated)
        return _COMPACT.encode(payload).encode("utf-8") + b"\n"
    tail = ',"truncated":true}' if truncated else ',"truncated":false}'
    head = _COMPACT.encode(payload)[:-1]  # the payload always holds start and front
    return f'{head},"paths":{text}{tail}\n'.encode("utf-8")


def _paths_text(paths) -> str:
    """The JSON text of the report's paths section, made in parts: each
    distinct cell object (enumerate_paths shares one per map cell) written
    once, into a table by identity, and each path's cells joined from it in
    C. The paths are held as tuples throughout, so no id is reused."""
    paths = [(tuple(cells), list(v)) for cells, v in paths]
    texts: dict[int, str] = {}
    out = []
    for cells, v in paths:
        try:
            part = ",".join(map(texts.__getitem__, map(id, cells)))
        except KeyError:
            texts.update((id(c), _cell_text(c)) for c in cells if id(c) not in texts)
            part = ",".join(map(texts.__getitem__, map(id, cells)))
        out.append('{"cells":[' + part + '],"vector":' + _COMPACT.encode(v) + "}")
    return "[" + ",".join(out) + "]"


def _cell_text(cell) -> str:
    """The JSON text of one cell: formatted directly when it is two exact
    ints (a bool prints as true or false), else by the encoder."""
    if len(cell) == 2 and type(cell[0]) is int and type(cell[1]) is int:
        return "[%d,%d]" % (cell[0], cell[1])
    return _COMPACT.encode(list(cell))


def render_front_csv(front: LabelSet) -> str:
    """Front as CSV with an f1,f2 header."""
    lines = ["f1,f2"]
    lines.extend(f"{a},{b}" for a, b in front)
    return "\n".join(lines) + "\n"


def _indices(grid: GridMap, cells) -> tuple[np.ndarray, np.ndarray]:
    """The row and column index arrays of `cells`, each read by _cell, once
    every one is on the map (ValueError otherwise: numpy would wrap (-1, 0)
    onto the last row)."""
    cells = [_cell(c) for c in cells]
    for cell in cells:
        if not grid.in_bounds(cell):
            raise ValueError(f"cell {cell} is out of bounds")
    return tuple(np.array(cells, dtype=np.intp).reshape(-1, 2).T)


def render_coverage_ascii(grid: GridMap, start: Cell, goal_cells, covered) -> str:
    """Coverage as a character grid: S start, G goal, * covered, # obstacle, . free."""
    art = np.where(grid.obstacle, "#", ".")
    for cells, mark in ((covered, "*"), (goal_cells, "G"), ([start], "S")):  # later marks win
        art[_indices(grid, cells)] = mark
    return "\n".join(map("".join, art.tolist())) + "\n"


def render_coverage_pgm(grid: GridMap, covered) -> bytes:
    """Coverage as binary PGM: covered 255, free 128, obstacle 0."""
    covered = _indices(grid, covered)
    pixels = np.where(grid.obstacle, 0, 128).astype(np.uint8)
    pixels[covered] = 255
    return f"P5\n{grid.n_cols} {grid.n_rows}\n255\n".encode("ascii") + pixels.tobytes()
