"""Reproducible benchmark campaigns: database builds cross-checked against
MOA* on seeded random maps, plus a build-cost amortization table.

Everything except wall-clock readings is a pure function of the config, so
two runs of the same campaign agree byte for byte once timing fields are set
aside. Builds run build_database, the one build kernel.
"""

from __future__ import annotations

import json
import random
import statistics
import time
import warnings
from dataclasses import asdict, astuple, dataclass, fields
from pathlib import Path

from .cellmap import build_database
from .grid import GoalRegion, GridMap, _density, _integer, free_cells, random_map, serialize_map
from .moastar import moa_star

_MASK64 = (1 << 64) - 1


def _derive_seed(*parts: int) -> int:
    """Stable 63-bit sub-seed from integer parts (splitmix-style folding)."""
    x = 0x9E3779B97F4A7C15
    for p in parts:
        x ^= p & _MASK64
        x = (x * 0xBF58476D1CE4E5B9) & _MASK64
        x ^= x >> 31
        x = (x * 0x94D049BB133111EB) & _MASK64
        x ^= x >> 29
    return x >> 1


@dataclass(frozen=True)
class BenchConfig:
    """Campaign parameters. `dims` is cycled through map by map. Every field
    follows the number rule (grid._integer, grid._density) and is stored as
    a Python int or float, so asdict gives JSON."""

    seed: int
    n_maps: int
    dims: tuple[tuple[int, int], ...]
    obstacle_density: float
    max_cost: int
    starts_per_map: int

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(
            tuple(_integer(x, "bad bench config: dims", 1) for x in d) for d in self.dims))
        for name, minimum in (("seed", None), ("n_maps", 1), ("max_cost", 0),
                              ("starts_per_map", 1)):
            value = _integer(getattr(self, name), f"bad bench config: {name}", minimum)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "obstacle_density", _density(
            self.obstacle_density, "bad bench config: obstacle_density"))
        if not self.dims:
            raise ValueError("dims must not be empty")
        for d in self.dims:
            if len(d) != 2:
                raise ValueError(f"bad dims entry {d!r}")
            if d[0] * d[1] < 2:
                raise ValueError("dims must allow a distinct start and goal")

    @classmethod
    def from_dict(cls, obj: dict) -> "BenchConfig":
        """The config a JSON object names, checked as every config is (see
        __post_init__); a missing field or a value of the wrong shape raises
        ValueError too."""
        try:
            return cls(**{f.name: obj[f.name] for f in fields(cls)})
        except (KeyError, TypeError) as e:
            raise ValueError(f"bad bench config: {e}") from e


@dataclass
class MapRecord:
    map_id: int
    dims: tuple[int, int]
    seed: int
    regenerated: int
    n_free_cells: int
    front_size: int
    fronts_equal: bool
    build_time: float
    moa_time_single_start: float


# Timing keys, named here so report consumers can mask them when comparing
# runs for determinism.
TIMING_FIELDS = ("build_time", "moa_time_single_start", "time_ratio_stats")

# A record's fields in order, its dims split into rows and cols.
_CSV_COLUMNS = ("map_id", "rows", "cols", *(f.name for f in fields(MapRecord)[2:]))


@dataclass
class BenchReport:
    config: BenchConfig
    records: list[MapRecord]
    maps_passed: int
    total: int
    time_ratio_stats: dict[str, float]

    @property
    def all_passed(self) -> bool:
        return self.maps_passed == self.total

    def to_dict(self) -> dict:
        return {
            "config": asdict(self.config),
            "records": [asdict(r) for r in self.records],
            "aggregate": {
                "maps_passed": self.maps_passed,
                "total": self.total,
                "time_ratio_stats": dict(self.time_ratio_stats),
            },
        }

    def to_json_bytes(self) -> bytes:
        return json.dumps(self.to_dict(), separators=(",", ":")).encode("utf-8") + b"\n"

    def to_csv_str(self) -> str:
        lines = [",".join(_CSV_COLUMNS)]
        for r in self.records:
            map_id, dims, *rest = astuple(r)
            lines.append(",".join(map(str, (map_id, *dims, *rest))))
        return "\n".join(lines) + "\n"


def _cold_moa(grid: GridMap, starts, region: GoalRegion):
    """MOA*'s front at each start and the time it took. Each run is cold, on
    an equal map made outside the timer that moastar's memo does not hold,
    so it pays for its heuristics as a lone single-start query would."""
    fronts, times = [], []
    for s in starts:
        cold = GridMap(grid.terrain, grid.obstacle, grid.allow_corner_cut)
        t0 = time.perf_counter()
        front, _ = moa_star(cold, s, region, collect_paths=False)
        times.append(time.perf_counter() - t0)
        fronts.append(front)
    return fronts, times


def _pick_starts_and_goal(cfg: BenchConfig, map_id: int, cells: list):
    rng = random.Random(_derive_seed(cfg.seed, 2, map_id))
    goal = cells[rng.randrange(len(cells))]
    candidates = [c for c in cells if c != goal]
    k = min(cfg.starts_per_map, len(candidates))
    return rng.sample(candidates, k), goal


def run_campaign(cfg: BenchConfig, *, reproducer_dir=None) -> BenchReport:
    """Run the full campaign: build once per map, MOA* once per start.

    Each start is timed cold (_cold_moa), so `moa_time_single_start`
    includes the heuristics.

    Each map gets a derived sub-seed; maps with fewer than two free cells are
    regenerated under a further derived seed (the attempt count is recorded).
    When a front comparison fails and `reproducer_dir` is set, the offending
    map is dumped there as a map file plus a {start, goal, seed} sidecar.
    """
    records: list[MapRecord] = []
    for map_id in range(cfg.n_maps):
        dims = cfg.dims[map_id % len(cfg.dims)]
        attempt = 0
        while True:
            seed = _derive_seed(cfg.seed, 1, map_id, attempt)
            grid = random_map(seed, dims[0], dims[1], cfg.obstacle_density, cfg.max_cost)
            cells = free_cells(grid)
            if len(cells) >= 2:
                break
            attempt += 1
        starts, goal = _pick_starts_and_goal(cfg, map_id, cells)
        region = GoalRegion([goal])

        t0 = time.perf_counter()
        db = build_database(grid, region)
        build_time = time.perf_counter() - t0

        fronts, moa_times = _cold_moa(grid, starts, region)
        equal = True
        for s, front in zip(starts, fronts):
            if front != db.front(s):
                equal = False
                if reproducer_dir is not None:
                    _dump_reproducer(reproducer_dir, map_id, grid, s, goal, seed)
        records.append(MapRecord(
            map_id=map_id,
            dims=(dims[0], dims[1]),
            seed=seed,
            regenerated=attempt,
            n_free_cells=len(cells),
            front_size=max(map(len, fronts)),
            fronts_equal=equal,
            build_time=build_time,
            moa_time_single_start=sum(moa_times) / len(moa_times),
        ))
    ratios = [r.build_time / max(r.moa_time_single_start, 1e-12) for r in records]
    stats = {
        "min": min(ratios),
        "median": statistics.median(ratios),
        "max": max(ratios),
    }
    passed = sum(1 for r in records if r.fronts_equal)
    return BenchReport(config=cfg, records=records, maps_passed=passed,
                       total=len(records), time_ratio_stats=stats)


def _dump_reproducer(directory, map_id: int, grid: GridMap, start, goal, seed: int):
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / f"map{map_id:04d}.map").write_bytes(serialize_map(grid))
    sidecar = {"start": list(start), "goal": list(goal), "seed": seed}
    (directory / f"map{map_id:04d}.json").write_text(
        json.dumps(sidecar, separators=(",", ":")) + "\n", encoding="utf-8")


def amortization_table(grid: GridMap, goal, sample_starts: int) -> dict:
    """Measured break-even comparison: one database build vs repeated MOA*.

    MOA* and front-lookup times are measured on `sample_starts` starts taken
    evenly across the free non-goal cells (clamped with a warning if the map
    has fewer), then extrapolated linearly to n_starts in {1, 10, 100, all}.
    `sample_starts` follows the number rule (grid._integer) with a minimum
    of 1. Each start is timed cold (_cold_moa), as in run_campaign.
    """
    region = GoalRegion.on(grid, goal)
    sample_starts = _integer(sample_starts, "sample_starts", 1)
    cells = [c for c in free_cells(grid) if c not in region.cells]
    if not cells:
        raise ValueError("map has no free non-goal cells to start from")
    if sample_starts > len(cells):
        warnings.warn(
            f"sample_starts clamped from {sample_starts} to {len(cells)}",
            stacklevel=2)
        sample_starts = len(cells)
    picked = [cells[i * len(cells) // sample_starts] for i in range(sample_starts)]

    t0 = time.perf_counter()
    db = build_database(grid, region)
    build_time = time.perf_counter() - t0

    moa_times = _cold_moa(grid, picked, region)[1]
    mean_moa = sum(moa_times) / len(moa_times)

    # Front lookups are near-instant; time a batch for resolution.
    reps = 200
    t0 = time.perf_counter()
    for _ in range(reps):
        for s in picked:
            db.front(s)
    mean_query = (time.perf_counter() - t0) / (reps * len(picked))

    total = len(cells)
    rows = []
    for n in sorted({1, 10, 100, total}):
        if n > total:
            continue
        rows.append({
            "n_starts": n,
            "est_moa_total_time": n * mean_moa,
            "db_build_plus_query_time": build_time + n * mean_query,
        })
    return {
        "build_time": build_time,
        "mean_moa_time": mean_moa,
        "mean_query_time": mean_query,
        "sampled_starts": len(picked),
        "n_free_non_goal_cells": total,
        "rows": rows,
    }
