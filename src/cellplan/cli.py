"""Command-line interface.

Subcommands: genmap, build, query, compare, oracle, bench. Machine-readable
output goes to stdout (JSON unless another format is chosen), diagnostics to
stderr. Exit codes: 0 success / comparison equal, 1 comparison mismatch,
2 usage or validation error (an overflow-prone map or no memory included),
4 map/database digest mismatch. Integer arguments follow grid._decimal.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
from pathlib import Path

from .bench import BenchConfig, run_campaign
from .cellmap import (
    Database,
    DigestMismatchError,
    build_database,
    load_database,
    save_database,
)
from .grid import (
    GoalRegion,
    GridMap,
    _decimal,
    free_cells,  # unused here; the benchmark's traced runs wrap cli.free_cells by name
    map_digest,  # unused here; the benchmark's traced runs wrap cli.map_digest by name
    parse_map,
    random_map,
    serialize_map,
)
from .moastar import moa_star
from .query import (
    _checked_front,
    count_paths,
    coverage,
    enumerate_paths,
    render_coverage_ascii,
    render_coverage_pgm,
    render_front_csv,
    render_report_json,
)

_REGRESSION_GATE_MEDIAN = 10.0


def _parse_cell(text: str):
    try:
        r, c = map(_decimal, text.split(","))
    except ValueError:
        raise ValueError(f"expected r,c but got {text!r}") from None
    return r, c


def _parse_goal_args(args, grid: GridMap) -> GoalRegion:
    """Each argument is a cell r,c or an inclusive rectangle r1,c1:r2,c2; union all.

    A rectangle must lie inside `grid`; it is checked before it is expanded.
    """
    cells = set()
    for arg in args:
        if ":" in arg:
            lo, _, hi = arg.partition(":")
            r1, c1 = _parse_cell(lo)
            r2, c2 = _parse_cell(hi)
            if not (r1 <= r2 < grid.n_rows and c1 <= c2 < grid.n_cols):
                raise ValueError(f"bad rectangle {arg!r}: corners out of order or outside the map")
            cells.update(itertools.product(range(r1, r2 + 1), range(c1, c2 + 1)))
        else:
            cells.add(_parse_cell(arg))
    return GoalRegion(cells)


def _read_map(path: str, allow_corner_cut: bool = True) -> GridMap:
    return parse_map(Path(path).read_bytes(), allow_corner_cut=allow_corner_cut)


def _read_db(path: str) -> Database:
    return load_database(Path(path).read_bytes())


def _emit(data: bytes, out_path) -> None:
    if out_path:
        Path(out_path).write_bytes(data)
    else:
        stream = getattr(sys.stdout, "buffer", sys.stdout)
        stream.write(data)
        stream.flush()


def cmd_genmap(args) -> int:
    grid = random_map(args.seed, args.rows, args.cols, args.density, args.max_cost)
    _emit(serialize_map(grid), args.output)
    return 0


def cmd_build(args) -> int:
    grid = _read_map(args.map, not args.no_corner_cut)
    region = _parse_goal_args(args.goal, grid)
    db = build_database(grid, region)
    Path(args.output).write_bytes(save_database(db))
    info = {"iterations": db.iterations, "free_cells": int((~grid.obstacle).sum())}
    print(json.dumps(info, separators=(",", ":")))
    return 0


def cmd_query(args) -> int:
    db = _read_db(args.db)
    grid = _read_map(args.map, not args.no_corner_cut)
    start, front = _checked_front(db, grid, _parse_cell(args.start))

    want_cov = args.coverage or args.format in ("ascii", "pgm")
    covered = coverage(db, grid, start) if (want_cov and front) else frozenset()
    result_counts = total = None
    if args.count:
        res = count_paths(db, grid, start)
        result_counts, total = res.counts, res.total_paths
    paths = truncated = None
    if args.paths is not False:
        paths, truncated = enumerate_paths(db, grid, start, args.paths)

    if args.format == "json":
        data = render_report_json(
            start, front,
            counts=result_counts, total_paths=total,
            coverage_cells=covered if want_cov else None,
            paths=paths, truncated=truncated)
    elif args.format == "csv":
        data = render_front_csv(front).encode("utf-8")
    elif args.format == "ascii":
        data = render_coverage_ascii(grid, start, db.goal.cells, covered).encode("utf-8")
    else:
        data = render_coverage_pgm(grid, covered)
    _emit(data, args.output)
    return 0


def cmd_compare(args) -> int:
    grid = _read_map(args.map, not args.no_corner_cut)
    region = _parse_goal_args(args.goal, grid)
    start = _parse_cell(args.start)
    # MOA* checks the start and the goal before a database is built or read.
    moa_front, moa_paths = moa_star(grid, start, region, collect_paths=args.paths)
    db = _read_db(args.db) if args.db else build_database(grid, region)
    _start, db_front = _checked_front(db, grid, start)
    if db.goal != region:
        raise ValueError("database goal region does not match --goal")
    diff = {
        "start": list(start),
        "front_db": [list(v) for v in db_front],
        "front_moa": [list(v) for v in moa_front],
        "only_db": [list(v) for v in db_front if v not in moa_front],
        "only_moa": [list(v) for v in moa_front if v not in db_front],
    }
    equal = db_front == moa_front
    if args.paths:
        db_paths, _ = enumerate_paths(db, grid, start)
        paths_equal = sorted(db_paths) == sorted(moa_paths)
        diff["paths_db_count"] = len(db_paths)
        diff["paths_moa_count"] = len(moa_paths)
        diff["paths_equal"] = paths_equal
        equal = equal and paths_equal
    diff["equal"] = equal
    print(json.dumps(diff, separators=(",", ":")))
    return 0 if equal else 1


def cmd_oracle(args) -> int:
    from .oracle import brute_force

    grid = _read_map(args.map, not args.no_corner_cut)
    region = _parse_goal_args(args.goal, grid)
    start = _parse_cell(args.start)
    res = brute_force(grid, start, region, cell_budget=args.budget,
                      include_paths=args.paths)
    data = render_report_json(
        start, res.front, counts=res.counts, total_paths=res.total_paths,
        coverage_cells=res.coverage,
        paths=res.paths if args.paths else None,
        truncated=False if args.paths else None)
    _emit(data, args.output)
    return 0


def cmd_bench(args) -> int:
    cfg = BenchConfig.from_dict(json.loads(Path(args.config).read_text(encoding="utf-8")))
    report = run_campaign(cfg, reproducer_dir=args.reproducer_dir)
    if args.format == "json":
        data = report.to_json_bytes()
    else:
        data = report.to_csv_str().encode("utf-8")
    _emit(data, args.output)
    if not report.all_passed:
        print(f"{report.total - report.maps_passed} of {report.total} maps "
              "had a front mismatch", file=sys.stderr)
        return 1
    if args.regression_gate:
        median = report.time_ratio_stats["median"]
        if median > _REGRESSION_GATE_MEDIAN:
            print(f"regression gate: median build/search ratio {median:.2f} "
                  f"exceeds {_REGRESSION_GATE_MEDIAN}", file=sys.stderr)
            return 1
    return 0


def _integer_arg(text: str) -> int:
    """An integer argument by the text rule, _decimal. Its refusal is an
    ArgumentTypeError, whose message argparse prints as it is; for a
    ValueError it would print the type function's own name."""
    try:
        return _decimal(text)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def _seed(text: str) -> int:
    """A seed by the text rule, within the 19 significant digits _decimal reads exactly."""
    seed, digits = _integer_arg(text), len(text.lstrip("0"))
    if digits > 19:
        raise argparse.ArgumentTypeError(f"expected at most 19 significant digits, not {digits}")
    return seed


def _density_arg(text: str) -> float:
    """A density: ASCII decimal digits with at most one point. random_map's
    number rule refuses a value outside [0, 1)."""
    digits = text.replace(".", "", 1)
    if not (digits.isascii() and digits.isdigit()):
        raise argparse.ArgumentTypeError(
            f"expected ASCII decimal digits with at most one point, not {text!r}")
    return float(text)


def _paths_limit(text: str) -> int | None:
    """A path limit by the text rule, or None (unbounded) for the literal 'all'."""
    return None if text == "all" else _integer_arg(text)


def _add_corner_flag(p) -> None:
    p.add_argument("--no-corner-cut", action="store_true",
                   help="forbid a diagonal move when either orthogonal cell it passes "
                        "is an obstacle")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="cellplan",
        description="Multi-objective grid path planning with a cell-mapping database.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("genmap", help="generate a seeded random map file")
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--rows", type=_integer_arg, required=True)
    p.add_argument("--cols", type=_integer_arg, required=True)
    p.add_argument("--density", type=_density_arg, default=0.0)
    p.add_argument("--max-cost", type=_integer_arg, default=0)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_genmap)

    p = sub.add_parser("build", help="build a database for a goal region")
    p.add_argument("-m", "--map", required=True)
    p.add_argument("--goal", action="append", required=True,
                   help="cell r,c or rectangle r1,c1:r2,c2; repeatable, united")
    p.add_argument("-o", "--output", required=True)
    _add_corner_flag(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("query", help="query a built database at a start cell")
    p.add_argument("-d", "--db", required=True)
    p.add_argument("-m", "--map", required=True)
    p.add_argument("--start", required=True)
    p.add_argument("--count", action="store_true")
    p.add_argument("--coverage", action="store_true")
    p.add_argument("--paths", type=_paths_limit, nargs="?", const=1000, default=False,
                   help="enumerate up to N paths (default 1000; 'all' for unbounded)")
    p.add_argument("--format", choices=("json", "csv", "ascii", "pgm"), default="json")
    p.add_argument("-o", "--output", default=None)
    _add_corner_flag(p)
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("compare", help="check MOA* against the database front")
    p.add_argument("-m", "--map", required=True)
    p.add_argument("--goal", action="append", required=True)
    p.add_argument("--start", required=True)
    p.add_argument("--db", default=None,
                   help="use this database instead of building one")
    p.add_argument("--paths", action="store_true",
                   help="also compare full optimal path sets")
    _add_corner_flag(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("oracle", help="brute-force result on a small map")
    p.add_argument("-m", "--map", required=True)
    p.add_argument("--goal", action="append", required=True)
    p.add_argument("--start", required=True)
    p.add_argument("--budget", type=_integer_arg, default=20)
    p.add_argument("--paths", action="store_true")
    p.add_argument("-o", "--output", default=None)
    _add_corner_flag(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("bench", help="run a benchmark campaign from a config file")
    p.add_argument("-c", "--config", required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--reproducer-dir", default=None)
    p.add_argument("--regression-gate", action="store_true")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DigestMismatchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 4
    except (ValueError, OSError, MemoryError) as e:
        print(f"error: {'out of memory' if isinstance(e, MemoryError) else e}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
