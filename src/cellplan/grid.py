"""Grid world model: rectangular cell maps with terrain costs and obstacles.

Cells are addressed as 0-based (row, col) tuples. Every free cell carries a
non-negative integer terrain cost; obstacles are never traversed. Motion uses
the 8-neighborhood with integer step lengths (10 straight, 14 diagonal), so
all path costs stay exact.

Map file format (UTF-8 text):

    <n_rows> <n_cols>
    <token> ... <token>      one line per row, n_cols whitespace-separated tokens
    ...

where a token is either ``#`` (obstacle) or a non-negative decimal terrain
cost, read by _decimal. A trailing newline is required; there are no comments.

Costs are exact integer pairs: a Vector is (path length, terrain cost), and
a LabelSet (or front) is a deduplicated, mutually non-dominated tuple of
vectors in canonical order, path lengths strictly rising and terrain costs
strictly falling. Every component is at most MAX_COMPONENT; a map whose
path sums could pass it is refused up front (overflow_risk).
"""

from __future__ import annotations

import hashlib
import numbers
import random

import numpy as np

Cell = tuple[int, int]
Vector = tuple[int, int]
LabelSet = tuple[Vector, ...]

# Component ceiling for cost vectors. Python ints never wrap, so this is a
# declared storage width: maps whose worst-case path sums could pass it are
# rejected up front instead of silently producing out-of-range values.
MAX_COMPONENT = 2**63 - 1

STRAIGHT_STEP = 10
DIAGONAL_STEP = 14

# Row-major scan over the eight surrounding offsets. Everything downstream
# (neighbor lists, successor expansion, path enumeration) inherits this order,
# which is what keeps outputs reproducible byte for byte.
NEIGHBOR_OFFSETS: tuple[Cell, ...] = (
    (-1, -1), (-1, 0), (-1, 1),
    (0, -1), (0, 1),
    (1, -1), (1, 0), (1, 1),
)


class MapFormatError(ValueError):
    """Map text that does not follow the map file format."""


class CostOverflowError(OverflowError):
    """A cost component would exceed MAX_COMPONENT."""


class GridMap:
    """Rectangular grid with per-cell terrain cost and obstacle mask.

    Instances are read-only value objects. The constructor copies `terrain`
    and `obstacle` into arrays that cannot be written (the caller's arrays
    stay writeable), and no attribute can be set afterwards, so a map can
    key a cache by identity. The one private slot, `_digest`, is the cache
    map_digest fills on first use, or parse_map from canonical text.
    `allow_corner_cut` controls whether a diagonal move may pass an
    obstacle (allowed by default); without it a diagonal move is dropped
    when either of the two orthogonal cells it passes is an obstacle.
    """

    __slots__ = ("terrain", "obstacle", "allow_corner_cut", "_digest")

    def __init__(self, terrain, obstacle, allow_corner_cut: bool = True):
        terrain = np.array(terrain, dtype=np.int64, order="C")
        obstacle = np.array(obstacle, dtype=bool, order="C")
        if terrain.ndim != 2 or terrain.size == 0:
            raise ValueError("terrain must be a non-empty 2D array")
        if obstacle.shape != terrain.shape:
            raise ValueError("obstacle mask shape must match terrain shape")
        if (terrain < 0).any():
            raise ValueError("terrain costs must be non-negative")
        terrain.flags.writeable = False
        obstacle.flags.writeable = False
        object.__setattr__(self, "terrain", terrain)
        object.__setattr__(self, "obstacle", obstacle)
        object.__setattr__(self, "allow_corner_cut", bool(allow_corner_cut))
        object.__setattr__(self, "_digest", None)  # filled by map_digest

    def __setattr__(self, name, value):
        raise AttributeError(f"GridMap is read-only; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"GridMap is read-only; cannot delete {name!r}")

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild the map through the constructor,
        # so the copy is read-only too and fills its own digest cache.
        return (GridMap, (self.terrain, self.obstacle, self.allow_corner_cut))

    @property
    def n_rows(self) -> int:
        return self.terrain.shape[0]

    @property
    def n_cols(self) -> int:
        return self.terrain.shape[1]

    def in_bounds(self, cell: Cell) -> bool:
        r, c = cell
        return 0 <= r < self.n_rows and 0 <= c < self.n_cols

    def __eq__(self, other):
        if not isinstance(other, GridMap):
            return NotImplemented
        return (
            self.allow_corner_cut == other.allow_corner_cut
            and self.terrain.shape == other.terrain.shape
            and np.array_equal(self.terrain, other.terrain)
            and np.array_equal(self.obstacle, other.obstacle)
        )

    def __repr__(self):
        return f"GridMap({self.n_rows}x{self.n_cols}, free={self.terrain.size - int(self.obstacle.sum())})"


class GoalRegion:
    """Non-empty set of goal cells; the region may be disconnected.

    A cell's coordinates must be ints or numpy integers (see _cell). Regions
    are read-only values, like GridMap: they compare by their cells and are
    not hashable."""

    __slots__ = ("cells",)

    def __init__(self, cells):
        try:
            cs = frozenset(map(_cell, cells))
        except TypeError:  # not an iterable of pairs
            raise ValueError(f"a goal must be an iterable of cells, not {cells!r}") from None
        if not cs:
            raise ValueError("goal cell list must hold at least one cell")
        object.__setattr__(self, "cells", cs)

    def __setattr__(self, name, value):
        raise AttributeError(f"GoalRegion is read-only; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"GoalRegion is read-only; cannot delete {name!r}")

    def __reduce__(self):
        # As for GridMap: the default slot restore would go through __setattr__.
        return (GoalRegion, (self.cells,))

    @classmethod
    def on(cls, grid: GridMap, goal) -> GoalRegion:
        """`goal`, a GoalRegion or an iterable of cells, as a region checked
        free on `grid`: the one entry of every goal argument."""
        region = goal if isinstance(goal, GoalRegion) else cls(goal)
        for cell in sorted(region.cells):
            if not grid.in_bounds(cell):
                raise ValueError(f"goal cell {cell} is out of bounds")
            if grid.obstacle[cell]:
                raise ValueError(f"goal cell {cell} is an obstacle")
        return region

    def __eq__(self, other):
        if not isinstance(other, GoalRegion):
            return NotImplemented
        return self.cells == other.cells

    def __repr__(self):
        return f"GoalRegion({sorted(self.cells)})"


def _cell(cell) -> Cell:
    """`cell` as a (row, col) tuple of ints: the one coordinate rule for goal
    and start cells. _integer reads each coordinate, so a float or a bool
    raises ValueError rather than naming the cell it would round to."""
    r, c = cell
    return _integer(r), _integer(c)


def _integer(x, name: str | None = None, minimum: int | None = None) -> int:
    """`x`, an int or a numpy integer but not a bool, and at least `minimum`
    if one is given, as a Python int: the one number rule for coordinates,
    counts and dimensions. ValueError names `name`, or coordinates if None."""
    if (isinstance(x, bool) or not isinstance(x, (int, np.integer))
            or minimum is not None and x < minimum):
        if name is None:
            raise ValueError(f"cell coordinates must be integers, not {x!r}")
        least = "" if minimum is None else f" of at least {minimum}"
        raise ValueError(f"{name} must be an integer{least}, not {x!r}")
    return int(x)


def _decimal(text: str) -> int:
    """`text`, ASCII decimal digits only (ValueError otherwise), as an int: the
    one text rule for integers in map files and command-line arguments. Past
    19 significant digits, above MAX_COMPONENT, it reads MAX_COMPONENT + 1."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"expected ASCII decimal digits, not {text!r}")
    return int(text) if len(text.lstrip("0")) <= 19 else MAX_COMPONENT + 1


def _density(x, name: str) -> float:
    """`x`, a real number in [0, 1) but not a bool, as a float: the number
    rule for a density (ValueError naming `name` otherwise)."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real) or not 0 <= x < 1:
        raise ValueError(f"{name} must be a number in [0, 1), not {x!r}")
    return float(x)


def require_free(grid: GridMap, cell: Cell) -> Cell:
    """`cell` read by _cell, a (row, col) tuple of Python ints, once it is
    found an in-bounds free cell (ValueError otherwise): the one start check,
    whose tuple every caller keeps."""
    cell = _cell(cell)
    if not grid.in_bounds(cell):
        raise ValueError(f"cell {cell} is out of bounds")
    if grid.obstacle[cell]:
        raise ValueError(f"cell {cell} is an obstacle")
    return cell


def neighbors(grid: GridMap, cell: Cell) -> list[tuple[Cell, int]]:
    """Free 8-neighbors of `cell` with their step lengths, in row-major order.

    With allow_corner_cut=False a diagonal move is dropped when either of the
    two orthogonal cells it shares with `cell` is an obstacle, so paths cannot
    squeeze between two diagonally touching obstacles.
    """
    r, c = require_free(grid, cell)
    obst, rows, cols = grid.obstacle, grid.n_rows, grid.n_cols
    out = []
    for dr, dc in NEIGHBOR_OFFSETS:
        rr, cc = r + dr, c + dc
        if not (0 <= rr < rows and 0 <= cc < cols) or obst[rr, cc]:
            continue
        if dr and dc:
            if not grid.allow_corner_cut and (obst[r, cc] or obst[rr, c]):
                continue
            out.append(((rr, cc), DIAGONAL_STEP))
        else:
            out.append(((rr, cc), STRAIGHT_STEP))
    return out


def move_mask(grid: GridMap) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The move rule of every cell at once, as a direction mask (allowed, shift, step).

    allowed[i, d] tells whether flat cell i may move in direction
    NEIGHBOR_OFFSETS[d]; that move goes to cell i + shift[d] and is step[d]
    long. Rows of obstacles are all False. Each direction is one shifted copy
    of the free mask, framed by obstacles so that shifts never wrap. The
    rule is symmetric: allowed[i, d] == allowed[i + shift[d], 7 - d], the
    opposite direction. This is the rule's one whole-map form: the build
    kernel and the query step read it as it is, and MOA* packs its allowed
    entries into per-cell lists of move deltas. Not cached on the map.
    """
    rows, cols = grid.n_rows, grid.n_cols
    free = np.zeros((rows + 2, cols + 2), dtype=bool)
    here = free[1:-1, 1:-1]
    np.logical_not(grid.obstacle, out=here)

    def shifted(dr, dc):
        return free[1 + dr:1 + dr + rows, 1 + dc:1 + dc + cols]

    allowed = []
    for dr, dc in NEIGHBOR_OFFSETS:
        ok = here & shifted(dr, dc)
        if dr and dc and not grid.allow_corner_cut:
            ok &= shifted(0, dc) & shifted(dr, 0)
        allowed.append(ok.ravel())
    allowed = np.stack(allowed, axis=1)
    shift = np.array([dr * cols + dc for dr, dc in NEIGHBOR_OFFSETS])
    step = np.array([DIAGONAL_STEP if dr and dc else STRAIGHT_STEP
                     for dr, dc in NEIGHBOR_OFFSETS])
    return allowed, shift, step


def free_cells(grid: GridMap) -> list[Cell]:
    """All free cells in row-major order."""
    rows, cols = np.nonzero(~grid.obstacle)
    return list(zip(rows.tolist(), cols.tolist()))


def max_free_terrain(grid: GridMap) -> int:
    """The largest terrain cost of a free cell, 0 on a map with none."""
    free = grid.terrain[~grid.obstacle]
    return int(free.max()) if free.size else 0


def overflow_risk(grid: GridMap) -> bool:
    """True when a worst-case simple-path cost sum could exceed MAX_COMPONENT."""
    n = int(grid.terrain.size)
    mt = max_free_terrain(grid)
    return mt * n > MAX_COMPONENT or DIAGONAL_STEP * n > MAX_COMPONENT


def parse_map(data, allow_corner_cut: bool = True) -> GridMap:
    """Parse map file content (bytes or str) into a GridMap.

    The file format carries no corner-cut field; the policy is chosen at parse
    time and folded into map_digest. Raises MapFormatError on any malformed
    input: bad dimension line, row or token count mismatches, invalid tokens,
    a missing trailing newline, or terrain large enough to risk overflowing
    path-cost sums (a cost beyond int64 included). The first error is the
    one a token-by-token reading in row-major order would meet.

    Text in canonical form, the form serialize_map writes, also fills the
    map's digest cache from the text read, so map_digest does not serialize
    the map again. Canonical means the dimension line is exactly
    "<n_rows> <n_cols>", each row is its tokens joined by single spaces,
    and each token is "#" or the decimal form of its cost.
    """
    if isinstance(data, (bytes, bytearray)):
        raw = bytes(data)
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as e:
            raise MapFormatError(f"map is not valid UTF-8: {e}") from e
    else:
        text, raw = data, None
    if not text.endswith("\n"):
        raise MapFormatError("map text must end with a newline")
    lines = text.split("\n")
    header = lines[0].split()
    if len(header) != 2:
        raise MapFormatError(f"dimension line has {len(header)} tokens, expected 2")

    def read(tok: str, place: str) -> int:
        try:
            return _decimal(tok)
        except ValueError:
            raise MapFormatError(f"bad {place}") from None

    n_rows, n_cols = (read(tok, f"dimension token {tok!r}") for tok in header)
    if n_rows < 1 or n_cols < 1:
        raise MapFormatError("dimensions must be positive")
    # Messages name a dimension by its digits, as the file has it: past 19
    # of them, the value read is capped.
    rows_text, cols_text = (tok.lstrip("0") for tok in header)
    # After the trailing newline, split() leaves one final empty element.
    if len(lines) != n_rows + 2 or lines[-1] != "":
        raise MapFormatError(f"expected {rows_text} data rows")
    # Each row is one lookup per token in `values`, which checks and converts
    # each distinct token once, in row-major order of first appearance: "#"
    # is -1, the obstacle mark, and a cost above MAX_COMPONENT is stored as 0
    # and raised as an overflow risk once every row has parsed.
    rows = []
    values = {"#": -1}
    lookup = values.__getitem__
    too_big = False
    canonical = lines[0] == f"{n_rows} {n_cols}"
    for r in range(n_rows):
        line = lines[r + 1]
        toks = line.split()
        canonical = canonical and line == " ".join(toks)
        if len(toks) != n_cols:
            raise MapFormatError(f"row {r} has {len(toks)} tokens, expected {cols_text}")
        try:
            rows.append(np.fromiter(map(lookup, toks), np.int64, n_cols))
        except KeyError:
            for c, tok in enumerate(toks):
                if tok in values:
                    continue
                cost = read(tok, f"token {tok!r} at row {r}, column {c}")
                too_big |= cost > MAX_COMPONENT
                values[tok] = cost if cost <= MAX_COMPONENT else 0
            rows.append(np.fromiter(map(lookup, toks), np.int64, n_cols))
    terrain = np.stack(rows)  # sized by the rows read, not by the dimension line
    obstacle = terrain < 0
    terrain[obstacle] = 0
    grid = GridMap(terrain, obstacle, allow_corner_cut=allow_corner_cut)
    if too_big or overflow_risk(grid):
        raise MapFormatError("terrain costs could overflow a path sum; rescale the map")
    if canonical and all(tok == "#" or str(cost) == tok for tok, cost in values.items()):
        # The text is serialize_map(grid), byte for byte.
        digest = _text_digest(text.encode("utf-8") if raw is None else raw,
                              grid.allow_corner_cut)
        object.__setattr__(grid, "_digest", digest)
    return grid


def serialize_map(grid: GridMap) -> bytes:
    """Canonical map file bytes; parse_map(serialize_map(g)) == g.

    Each distinct value is formatted once, and each row is one join."""
    values = np.where(grid.obstacle, -1, grid.terrain).tolist()
    names = {v: str(v) for v in set().union(*values)}
    names[-1] = "#"
    rows = [f"{grid.n_rows} {grid.n_cols}"]
    rows.extend(" ".join(map(names.__getitem__, row)) for row in values)
    return ("\n".join(rows) + "\n").encode("utf-8")


def map_digest(grid: GridMap) -> str:
    """Content hash of a GridMap (map text plus the corner-cut flag).

    Computed once per map object and cached on it; the map is read-only,
    so the cache cannot go stale."""
    if grid._digest is None:
        object.__setattr__(grid, "_digest",
                           _text_digest(serialize_map(grid), grid.allow_corner_cut))
    return grid._digest


def _text_digest(text: bytes, allow_corner_cut: bool) -> str:
    """map_digest of the map whose serialize_map bytes are `text`."""
    h = hashlib.sha256(text)
    h.update(b"corner-cut=%d" % int(allow_corner_cut))
    return h.hexdigest()


def random_map(seed: int, n_rows: int, n_cols: int, obstacle_density: float,
               max_cost: int, *, allow_corner_cut: bool = True) -> GridMap:
    """Deterministic random map: same arguments give the same map anywhere.

    Each cell independently becomes an obstacle with probability
    `obstacle_density`; free cells draw a terrain cost uniformly from
    [0, max_cost]. At least one free cell is guaranteed: if the draw leaves
    none, cell (0, 0) is cleared with terrain 0.

    The draw rule is written here rather than borrowed from `randint`,
    because Python promises only `random()`'s sequence across versions.
    Cells are drawn in row-major order from `random.Random(seed)`: one
    `random()` per cell is the obstacle roll, and a free cell's cost is
    `getrandbits(k)` with `k = (max_cost + 1).bit_length()`, drawn again
    while above `max_cost`. That is the word sequence `randint(0, max_cost)`
    consumes on CPython 3.10 to 3.13, and equal arguments give equal maps on
    every supported Python. The seed, the sizes (at least 1), `max_cost` (at
    least 0) and `obstacle_density` follow the number rule (_integer, _density).
    """
    seed, max_cost = _integer(seed, "seed"), _integer(max_cost, "max_cost", 0)
    n_rows, n_cols = _integer(n_rows, "n_rows", 1), _integer(n_cols, "n_cols", 1)
    obstacle_density = _density(obstacle_density, "obstacle_density")
    if max(max_cost, DIAGONAL_STEP) * n_rows * n_cols > MAX_COMPONENT:  # as overflow_risk
        raise ValueError("the map is large enough to overflow a path sum")
    rng = random.Random(seed)
    roll, bits = rng.random, rng.getrandbits
    width = max_cost + 1
    k = width.bit_length()
    size = n_rows * n_cols
    blocked, costs = [False] * size, [0] * size  # row-major: each cell's roll, then its cost
    for i in range(size):
        if roll() < obstacle_density:
            blocked[i] = True
        else:
            r = bits(k)
            while r >= width:
                r = bits(k)
            costs[i] = r
    terrain = np.array(costs, dtype=np.int64).reshape(n_rows, n_cols)
    obstacle = np.array(blocked, dtype=bool).reshape(n_rows, n_cols)
    if obstacle.all():
        obstacle[0, 0] = False
        terrain[0, 0] = 0
    return GridMap(terrain, obstacle, allow_corner_cut=allow_corner_cut)
