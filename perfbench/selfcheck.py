"""Show that the benchmark's correctness gates catch a wrong answer.

    python3 perfbench/selfcheck.py

Builds a small map's database with `cellplan build`, then copies the file
with one label vector perturbed (a goal neighbour's terrain cost raised by
one, so every optimal path through that cell is now wrong). The same gates
the workloads use run on both files:

- build:  load + verify_database of the written file;
- query:  one query round (library queries, CLI queries, front lookups);
- search: MOA* fronts against the database fronts.

The intact file must give an error rate of 0 and the perturbed one a
nonzero error rate on every gate. Exits 0 when both hold, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from common import OUT, call_cli, require_package
from workloads import Run, check_database, cross_check, query_database, search_starts

SIZE = 30
SEED = 1


def perturb(raw: bytes, cell) -> bytes:
    """The same database bytes with the first vector at `cell` one terrain unit dearer."""
    payload = json.loads(raw)
    key = f"{cell[0]},{cell[1]}"
    f1, f2 = payload["labels"][key][0]
    payload["labels"][key][0] = [f1, f2 + 1]
    return json.dumps(payload, separators=(",", ":")).encode("utf-8") + b"\n"


def gate_errors(cp, cli, work, grid, map_path, db_path, cell) -> dict:
    """Error rate of each gate on the database file at `db_path`."""
    rates = {}
    problem, _db = check_database(cp, grid, db_path.read_bytes())
    rates["build"] = 0.0 if problem is None else 1.0
    db = cp.load_database(db_path.read_bytes())
    for name in ("query", "search"):
        run = Run(cp=cp, cli=cli, seed=SEED, seconds=0.001, work=work)
        if name == "query":
            query_database(run, grid, db, map_path, db_path)
        else:
            starts = search_starts(db, SEED, 0) + [cell]
            cross_check(run, grid, db, starts)
        rates[name] = run.tally.failed / run.tally.attempted
    return rates


def main() -> int:
    cp = require_package()
    import cellplan.cli

    work = OUT / f"tmp-selfcheck-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        grid = cp.random_map(SEED, SIZE, SIZE, 0.15, 9)
        goal = cp.free_cells(grid)[-1]
        map_path, db_path, bad_path = work / "s.map", work / "s.db", work / "bad.db"
        map_path.write_bytes(cp.serialize_map(grid))
        rc, _out, err = call_cli(cellplan.cli, ["build", "-m", str(map_path), "--goal",
                                                f"{goal[0]},{goal[1]}", "-o", str(db_path)])
        if rc != 0:
            print(f"error: cellplan build exited {rc}: {err}", file=sys.stderr)
            return 1
        cell = cp.neighbors(grid, goal)[0][0]
        bad_path.write_bytes(perturb(db_path.read_bytes(), cell))
        good = gate_errors(cp, cellplan.cli, work, grid, map_path, db_path, cell)
        bad = gate_errors(cp, cellplan.cli, work, grid, map_path, bad_path, cell)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ok = True
    for gate in ("build", "query", "search"):
        caught = good[gate] == 0 and bad[gate] > 0
        ok = ok and caught
        print(f"{gate:6} error_rate intact {good[gate]:.4f}  perturbed {bad[gate]:.4f}  "
              f"{'caught' if caught else 'NOT CAUGHT'}")
    print(f"perturbed vector at {cell}: " + ("every gate caught it" if ok else "a gate missed it"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
