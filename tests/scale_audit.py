"""Scale audit: the build, its file, the verifier and a query past 117x117.

For each side s (117, 234, 351 and 468 by default) of the map
random_map(9, s, s, 0.15, 9), with goal = the last free cell, prints one
row: the stored labels, in all and per cell of the map, the build's
iterations, the largest front, the build's time (the min of BUILDS
untraced builds) and ns per label, tracemalloc's peak during one more
build per stored label, the saved file's bytes per label, one
verify_database's time and its ratio to the build, and load_database
plus count_paths at (0,0).

    python tests/scale_audit.py [SIDE ...]

Exits 0 when every database verifies, 1 otherwise. pytest does not collect
this file. Each side's database and bytes are dropped before the next side
is built, so the process holds one size at a time. Its peak RSS, about
2.4 GB, is verify_database's at 468, which tracemalloc puts near 2 GB.
"""

from __future__ import annotations

import gc
import sys
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from cellplan import (  # noqa: E402
    build_database,
    count_paths,
    free_cells,
    load_database,
    random_map,
    save_database,
    verify_database,
)

SIDES = (117, 234, 351, 468)
BUILDS = 3  # untraced builds per side; the table shows the fastest
HEADER = ("| side | labels | per cell | largest front | iterations | build | ns/label "
          "| peak B/label | file B/label | verify | verify/build | load+count (0,0) |")


def timed(fn, *args):
    """fn(*args) and its wall time in seconds."""
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def traced_peak(fn, *args) -> int:
    """tracemalloc's peak above the start while fn(*args) runs, in bytes;
    the result is dropped before tracing stops."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def row(side: int) -> tuple[str, bool]:
    """One table row for `side`, and whether its database verified."""
    grid = random_map(9, side, side, 0.15, 9)
    goal = [free_cells(grid)[-1]]
    peak = traced_peak(build_database, grid, goal)
    build_s = float("inf")
    for _ in range(BUILDS):
        db = None  # the last build's database is freed before the next one runs
        db, seconds = timed(build_database, grid, goal)
        build_s = min(build_s, seconds)
    labels, largest, iterations = int(db.f1.size), int(db.counts.max()), db.iterations
    raw = save_database(db)
    ok, verify_s = timed(verify_database, db, grid)
    del db
    _, query_s = timed(lambda: count_paths(load_database(raw), grid, (0, 0)))
    fields = (side, f"{labels:,}", f"{labels / grid.terrain.size:.1f}", largest, iterations,
              _seconds(build_s), f"{build_s / labels * 1e9:.0f}", f"{peak / labels:.2f}",
              f"{len(raw) / labels:.2f}", _seconds(verify_s), f"{verify_s / build_s:.1f}",
              _seconds(query_s))
    return "| " + " | ".join(str(f) for f in fields) + " |", ok


def _seconds(s: float) -> str:
    return f"{s * 1e3:.0f} ms" if s < 1 else f"{s:.2f} s"


def main(argv: list[str]) -> int:
    print(HEADER)
    print("|---" * HEADER.count(" | ") + "|---|")
    failed = []
    for side in [int(a) for a in argv] or SIDES:
        line, ok = row(side)
        print(line, flush=True)
        if not ok:
            failed.append(side)
        gc.collect()  # this side's arrays go before the next side is built
    if failed:
        print(f"verify_database refused the database at side {failed}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
