"""The three benchmark workloads: `build`, `query` and `search`.

Each workload is a closed loop with one client in one thread: the next call
starts only after the previous one returned. Calls go through public entry
points only: `cellplan.cli.main` for user commands and the package's library
functions for everything else. Every answer is checked after its timer
stopped; a failed check counts the call as failed and its time as +inf.

A workload function fills a `Run` and returns nothing. In a timed run it
records samples for the end-to-end metrics; in a traced run it also wraps
the layers (see `common.Tracer`) and alternates traced and untraced commands
so the tracing overhead can be measured.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import random
import subprocess
import sys
import tracemalloc
from contextlib import nullcontext, suppress
from dataclasses import dataclass, field
from pathlib import Path

from common import (
    Stopwatch,
    Tally,
    Timings,
    Tracer,
    call_cli,
    derive_seed,
    median,
    peak_rss_mb,
    perf,
)

REF_MAP = (9, 117, 117, 0.15, 9)   # random_map arguments of the reference map
QUERY_STRATA = 50                  # library queries per query round
QUERY_CLI_EVERY = 10               # one CLI query per this many library queries
QUERY_PATHS = 100                  # enumerate_paths limit, as in `--paths 100`
FRONT_PASSES = 20                  # passes over every free cell per front batch
SEARCH_MAPS = 56                   # maps in the search campaign
SEARCH_DIM = 48
SEARCH_DENSITY = 0.2
SEARCH_MAX_COST = 9
SEARCH_STARTS = 5                  # MOA* starts per campaign map, one per distance group
GATE_START = 60                    # shortest path length of a gate's cross-check start
MIN_BUILDS = 3                     # `cellplan build` calls per build run, at least
SETUP_REPEATS = 5                  # map set-ups before each build
SEARCH_SETUPS = 7                  # campaign set-ups per pass, spread over the pass
BUILD_SETUPS = 4                   # set-ups per query run, each a database build
TRACE_PAIRS = 4                    # untraced/traced `cellplan query` pairs in a traced run
TRACE_BUILD_PAIRS = 2              # the same for the 117x117 `cellplan build`, 4-5 s a call
SETUP_TIMEOUT_S = 170
CHILD = Path(__file__).resolve().parent / "child.py"


@dataclass
class Run:
    cp: object                      # the cellplan package
    cli: object                     # cellplan.cli
    seed: int
    seconds: float
    work: Path
    tracer: Tracer | None = None
    tally: Tally = field(default_factory=Tally)
    t: Timings = field(default_factory=Timings)
    values: dict = field(default_factory=dict)   # non-timing measurements
    layers: dict = field(default_factory=dict)   # per-layer metrics (traced runs)
    deadline: float = 0.0

    def setup(self, fn):
        """Run one set-up and time it as a `setup` sample.

        Set-ups repeat between measured calls, so their median spans the
        whole run rather than one moment of it. A set-up's time extends the
        measuring window, which it does not count against.
        """
        gc.collect()
        t0 = perf()
        sw = self.stopwatch()
        out = fn()
        self.add_setup(sw.stop(), perf() - t0)
        return out

    def add_setup(self, seconds: float, wall: float) -> None:
        """Record one set-up of `seconds`; its `wall` seconds extend the measuring window."""
        self.t.add("setup", seconds)
        self.deadline += wall

    def stopwatch(self) -> Stopwatch:
        """A timed run measures at the reference speed; a traced run in wall
        seconds, the clock of its spans."""
        return Stopwatch(scaled=self.tracer is None)

    def start_clock(self) -> None:
        self.deadline = perf() + self.seconds

    def measuring(self) -> bool:
        """True while a timed run's window lasts; a traced run makes fixed work only."""
        return self.tracer is None and perf() < self.deadline

    def cli_timed(self, argv, traced: bool = False):
        """One in-process CLI call after a full collection: (rc, stdout, stderr, seconds)."""
        gc.collect()
        with self.tracer.active() if traced else nullcontext():
            sw = self.stopwatch()
            rc, out, err = call_cli(self.cli, argv)
            dt = sw.stop()
        return rc, out, err, dt

    def command(self, name: str, argv):
        """Time one workload command: (rc, stdout, stderr, sample key).

        A traced run alternates untraced and traced calls, recorded under
        `name` and `name.traced`. The key lets a later check fail the sample.
        """
        traced = self.tracer is not None and self.t.count(name + ".traced") < self.t.count(name)
        rc, out, err, dt = self.cli_timed(argv, traced=traced)
        key = name + ".traced" if traced else name
        self.t.add(key, dt)
        return rc, out, err, (key, self.t.count(key) - 1)

    def fail(self, key) -> None:
        name, i = key
        self.t.samples[name][i] = math.inf

    def library(self):
        """Context in which library calls are traced (a no-op in timed runs)."""
        return nullcontext() if self.tracer is None else self.tracer.active()


# --- inputs -------------------------------------------------------------------

def _transform(rows, k: int):
    """One of the 8 symmetries of a rectangle: k%4 quarter turns, then a mirror if k >= 4."""
    for _ in range(k % 4):
        rows = [list(r) for r in zip(*rows[::-1])]
    return [r[::-1] for r in rows] if k >= 4 else rows


def reference_map(cp, seed: int):
    """The reference map under the symmetry the seed picks, and its goal.

    The reference map is `random_map(9, 117, 117, 0.15, 9)` with the last
    free cell as goal. Its 8 symmetric images need exactly the same work
    (11,643 free cells, 430,123 labels, 187 iterations), so the seed varies
    the input without varying its size.
    """
    base = cp.random_map(*REF_MAP)
    goal = cp.free_cells(base)[-1]
    k = seed % 8
    ids = _transform([[r * base.n_cols + c for c in range(base.n_cols)]
                      for r in range(base.n_rows)], k)
    gid = goal[0] * base.n_cols + goal[1]
    goal = next((r, c) for r, row in enumerate(ids) for c, v in enumerate(row) if v == gid)
    grid = cp.GridMap(_transform(base.terrain.tolist(), k),
                      _transform(base.obstacle.tolist(), k))
    return grid, goal


def write_map(cp, grid, path: Path) -> None:
    path.write_bytes(cp.serialize_map(grid))


def campaign_map(cp, seed: int, i: int):
    """Map `i` of the search campaign and its goal.

    As in `cellplan.bench.run_campaign`, the goal is a uniformly random free
    cell. A goal that fewer than SEARCH_STARTS other cells can reach would
    leave a distance group empty, so the map is then drawn again.
    """
    attempt = 0
    while True:
        grid = cp.random_map(derive_seed(seed, 3, i, attempt), SEARCH_DIM, SEARCH_DIM,
                             SEARCH_DENSITY, SEARCH_MAX_COST)
        cells = cp.free_cells(grid)
        rng = random.Random(derive_seed(seed, 4, i, attempt))
        goal = cells[rng.randrange(len(cells))] if cells else None
        if goal is not None and _reaches(cp, grid, goal, SEARCH_STARTS):
            return grid, goal
        attempt += 1


def _reaches(cp, grid, goal, k: int) -> bool:
    """True when at least k free cells other than `goal` connect to it.

    Moves are symmetric, so the cells `goal` reaches are the cells that reach it.
    """
    seen, todo = {goal}, [goal]
    while todo and len(seen) <= k:
        for cell, _step in cp.neighbors(grid, todo.pop()):
            if cell not in seen:
                seen.add(cell)
                todo.append(cell)
    return len(seen) > k


def strata(db, k: int):
    """Reachable non-goal cells cut into k groups of equal size by shortest path length."""
    cells = sorted((ls[0][0], cell) for cell, ls in db.labels.items()
                   if cell not in db.goal.cells)
    n = len(cells)
    return [[c for _, c in cells[j * n // k:(j + 1) * n // k]] for j in range(k)]


def goal_arg(goal) -> str:
    return f"{goal[0]},{goal[1]}"


def warm_up(run: Run) -> None:
    """Untimed CLI build on a small map, so imports and first-call costs are paid."""
    cp = run.cp
    grid = cp.random_map(derive_seed(run.seed, 9), 24, 24, 0.15, 9)
    mp, dbp = run.work / "warm.map", run.work / "warm.db"
    write_map(cp, grid, mp)
    call_cli(run.cli, ["build", "-m", str(mp), "--goal", goal_arg(cp.free_cells(grid)[-1]),
                       "-o", str(dbp)])


# --- checks -------------------------------------------------------------------

def load_checked(cp, data: bytes):
    """(problem, database): the file must load."""
    try:
        return None, cp.load_database(data)
    except ValueError as e:
        return f"written database does not load: {e}", None


def check_database(cp, grid, data: bytes, loaded=None):
    """(problem, database): the file must load and pass verify_database.

    `loaded` is the result of `load_checked` when the caller already loaded it.
    """
    problem, db = loaded or load_checked(cp, data)
    if db is not None and not cp.verify_database(db, grid):
        return "written database fails verify_database", None
    return problem, db


def check_build(rc: int, stdout: bytes, verdict) -> str | None:
    """`cellplan build` must exit 0, write a file that passes `check_database`
    (whose (problem, database) is `verdict`), and report its iterations."""
    problem, db = verdict
    if rc != 0:
        return f"cellplan build exited {rc}"
    if problem:
        return problem
    try:
        iterations = json.loads(stdout).get("iterations")
    except (ValueError, AttributeError):
        return "cellplan build printed no JSON object"
    if iterations != db.iterations:
        return f"build reported {iterations} iterations, database holds {db.iterations}"
    return None


def library_query(cp, db, grid, start):
    """The library answer at `start`: (count result, coverage, paths, truncated)."""
    res = cp.count_paths(db, grid, start)
    cov = cp.coverage(db, grid, start)
    paths, truncated = cp.enumerate_paths(db, grid, start, QUERY_PATHS)
    return res, cov, paths, truncated


def check_library_query(db, start, answer) -> str | None:
    res, cov, paths, truncated = answer
    front = db.front(start)
    if not front or res.front != front or set(res.counts) != set(front):
        return f"{start}: front {res.front} differs from the database front {front}"
    if res.total_paths != sum(res.counts.values()) or min(res.counts.values()) < 1:
        return f"{start}: counts do not sum to total_paths {res.total_paths}"
    if start not in cov or not (cov & db.goal.cells):
        return f"{start}: coverage misses the start or the goal"
    if len(paths) != min(QUERY_PATHS, res.total_paths) or truncated != (res.total_paths > len(paths)):
        return f"{start}: {len(paths)} paths, truncated={truncated}, total {res.total_paths}"
    for cells, vec in paths:
        if cells[0] != start or cells[-1] not in db.goal.cells or vec not in front \
                or not cov.issuperset(cells):
            return f"{start}: path {cells[:3]}... with {vec} is not an optimal path"
    return None


def cli_query(run: Run, grid, db, map_path: Path, db_path: Path, start, sample=None) -> None:
    """`cellplan query --count --coverage --paths 100` at `start`, checked against the library.

    With a `sample` name the call is a timed workload command; without one it
    is a check, traced in a traced run.
    """
    argv = ["query", "-d", str(db_path), "-m", str(map_path), "--start", goal_arg(start),
            "--count", "--coverage", "--paths", str(QUERY_PATHS)]
    if sample:
        rc, out, _err, key = run.command(sample, argv)
    else:
        rc, out, _err, _dt = run.cli_timed(argv, traced=run.tracer is not None)
        key = None
    try:
        answer = library_query(run.cp, db, grid, start)
        problem = (check_library_query(db, start, answer)
                   or check_cli_query(rc, out, start, answer))
    except ValueError as e:
        problem = f"{start}: {e}"
    if run.tally.record(problem):
        _query_counts(run, answer)
    elif key:
        run.fail(key)


def _query_counts(run: Run, answer) -> None:
    run.t.add("front_size", len(answer[0].front))
    run.t.add("coverage_cells", len(answer[1]))


def near_start(db, seed: int, target: int):
    """A seeded pick among the 10 reachable non-goal cells whose shortest path
    length is nearest `target`."""
    cells = [(ls[0][0], cell) for cell, ls in db.labels.items() if cell not in db.goal.cells]
    nearest = sorted(cells, key=lambda fc: (abs(fc[0] - target), fc))[:10]
    return random.Random(derive_seed(seed, 6, target)).choice(nearest)[1]


def check_cli_query(rc: int, stdout: bytes, start, answer) -> str | None:
    """`cellplan query --count --coverage --paths 100` must print the library's answer."""
    if rc != 0:
        return f"cellplan query at {start} exited {rc}"
    res, cov, paths, truncated = answer
    try:
        got = json.loads(stdout)
    except ValueError as e:
        return f"cellplan query at {start} printed no JSON: {e}"
    want = {
        "front": [list(v) for v in res.front],
        "total_paths": res.total_paths,
        "counts": [{"vector": list(v), "count": str(res.counts[v])} for v in res.front],
        "coverage": [list(c) for c in sorted(cov)],
        "paths": [{"cells": [list(c) for c in cs], "vector": list(v)} for cs, v in paths],
        "truncated": truncated,
    }
    for key, value in want.items():
        if got.get(key) != value:
            return f"cellplan query at {start}: {key} differs from the library answer"
    return None




# --- build --------------------------------------------------------------------

def run_build(run: Run) -> None:
    """`cellplan build` of the reference map, repeated for the run's seconds.

    The workload's request is the `build_database` call each build makes,
    timed by a wrapper at the name `cellplan.cli` binds.
    """
    cp = run.cp
    map_path, db_path = run.work / "ref.map", run.work / "ref.db"

    def make_map():
        grid, goal = reference_map(cp, run.seed)
        write_map(cp, grid, map_path)
        return grid, goal

    grid, goal = run.setup(make_map)
    warm_up(run)
    argv = ["build", "-m", str(map_path), "--goal", goal_arg(goal), "-o", str(db_path)]
    calls = []   # (rc, stdout, sample keys, content digest)
    files = {}   # content digest -> bytes; each distinct file is verified once
    n_min = 2 * TRACE_BUILD_PAIRS if run.tracer else MIN_BUILDS
    kernel = run.cli.build_database

    def timed_kernel(*args, **kwargs):
        sw = run.stopwatch()
        try:
            return kernel(*args, **kwargs)
        finally:
            run.t.add("kernel", sw.stop())

    run.cli.build_database = timed_kernel
    try:
        run.start_clock()
        while len(calls) < n_min or run.measuring():
            for _ in range(SETUP_REPEATS):
                run.setup(make_map)
            before = run.t.count("kernel")
            rc, out, _err, key = run.command("build", argv)
            if run.t.count("kernel") == before:   # the build never reached the kernel
                run.t.add("kernel", math.inf)
            keys = [key] + [("kernel", i) for i in range(before, run.t.count("kernel"))]
            data = db_path.read_bytes() if rc == 0 else b""
            digest = hashlib.sha256(data).hexdigest()
            files.setdefault(digest, data)
            calls.append((rc, out, keys, digest))
    finally:
        run.cli.build_database = kernel
    run.values["peak_rss_mb"] = peak_rss_mb()

    with run.library():
        verdicts = {d: check_database(cp, grid, data) for d, data in files.items()}
    for rc, out, keys, digest in calls:
        if not run.tally.record(check_build(rc, out, verdicts[digest])):
            for key in keys:
                run.fail(key)
    data = files[calls[0][3]]
    run.values["db_mb"] = len(data) / 1e6
    _, first = verdicts[calls[0][3]]
    if first is None:
        return
    # Read the written file back through `cellplan query` and check it
    # against MOA* at one start, after the timed builds.
    db_path.write_bytes(data)
    start = near_start(first, run.seed, GATE_START)
    cli_query(run, grid, first, map_path, db_path, start)
    cross_check(run, grid, first, [start])
    run.values["db_bytes_per_label"] = len(data) / database_counts(first)[0]
    if run.tracer:
        _record_counts(run, [database_counts(db) for _p, db in verdicts.values() if db])
        _load_peak(run, data)


# --- query --------------------------------------------------------------------

def _setup_database(run: Run, map_path: Path, db_path: Path, goal) -> str | None:
    """`cellplan build` of the reference map, the query workload's set-up,
    timed as a `setup` sample: the problem, or None when the build exited 0.

    A timed run builds in a child process (`child.py`), which times the
    command at the reference speed on its own CPU and keeps the build's
    memory out of this process's peak RSS. A traced run builds in-process,
    so the build's layers are traced.
    """
    argv = ["build", "-m", str(map_path), "--goal", goal_arg(goal), "-o", str(db_path)]
    if run.tracer:
        rc, _out, err, _dt = run.setup(lambda: run.cli_timed(argv, traced=True))
        return None if rc == 0 else f"set-up build exited {rc}: {err.strip()}"
    t0 = perf()
    try:
        proc = subprocess.run([sys.executable, str(CHILD), *argv],
                              capture_output=True, timeout=SETUP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        run.add_setup(math.inf, perf() - t0)
        return f"set-up build ran over {SETUP_TIMEOUT_S} s"
    try:
        got = json.loads(proc.stdout.decode("utf-8").strip().splitlines()[-1])
        rc, seconds, err = got["rc"], got["seconds"], got["stderr"]
    except (ValueError, IndexError, KeyError):
        rc, seconds = proc.returncode or -1, math.inf
        err = proc.stderr.decode("utf-8", "replace")
    run.add_setup(seconds if rc == 0 else math.inf, perf() - t0)
    return None if rc == 0 else f"set-up build exited {rc}: {err.strip()}"


def run_query(run: Run) -> None:
    """Reads of the reference database: library queries, front lookups, CLI queries."""
    cp = run.cp
    map_path, db_path = run.work / "ref.map", run.work / "ref.db"
    grid, goal = reference_map(cp, run.seed)
    write_map(cp, grid, map_path)
    problem = _setup_database(run, map_path, db_path, goal)
    if problem:
        run.tally.record(problem)
        return
    warm_up(run)
    raw = db_path.read_bytes()
    with run.library():
        problem, db = load_checked(cp, raw)
    if problem:
        run.tally.record(problem)
        return
    run.values["db_mb"] = len(raw) / 1e6
    run.values["db_bytes_per_label"] = len(raw) / database_counts(db)[0]
    grid = cp.parse_map(map_path.read_bytes())
    again = run.work / "again.db"

    def setup_again(rounds_done: int) -> None:
        """Set-ups 2.. of a timed run, one after each of the first rounds.

        Each must write the same bytes as the first."""
        if run.tracer is None and rounds_done < BUILD_SETUPS:
            problem = _setup_database(run, map_path, again, goal)
            run.tally.record(problem or (None if again.read_bytes() == raw else
                                         "a repeated set-up build wrote different bytes"))

    rounds = query_database(run, grid, db, map_path, db_path, setup_again)
    for k in range(rounds + 1, BUILD_SETUPS):   # runs too short for BUILD_SETUPS rounds
        setup_again(k)
    # The database read must itself be right: a fixed point, and equal to
    # MOA* at one start. Both run after the timed rounds.
    with run.library():
        ok = cp.verify_database(db, grid)
    run.tally.record(None if ok else "the queried database fails verify_database")
    cross_check(run, grid, db, [near_start(db, run.seed, GATE_START)])
    if run.tracer:
        _record_counts(run, [database_counts(db)])
        _load_peak(run, raw)


def query_database(run: Run, grid, db, map_path: Path, db_path: Path,
                   after_round=None) -> int:
    """Query rounds against a loaded database `db` and its file `db_path`.

    A round is one library query in each of QUERY_STRATA groups of starts
    (shuffled), a CLI query every QUERY_CLI_EVERY library queries, and one
    batch of front lookups. Rounds repeat for the run's seconds; a traced
    run makes TRACE_PAIRS rounds, so it times that many CLI pairs.
    `after_round(rounds_done)` runs after each round. Returns the rounds made.
    """
    cp = run.cp
    groups = strata(db, QUERY_STRATA)
    free = cp.free_cells(grid)
    n_labels = sum(len(ls) for ls in db.labels.values())
    rng = random.Random(derive_seed(run.seed, 2))

    def pick(j):
        return rng.choice(groups[j])

    def lib_query(start):
        gc.collect()
        sw = run.stopwatch()
        try:
            with run.library():
                answer = library_query(cp, db, grid, start)
            problem = None
        except ValueError as e:
            answer, problem = None, f"{start}: {e}"
        dt = sw.stop()
        if answer is not None:
            problem = check_library_query(db, start, answer)
        ok = run.tally.record(problem)
        run.t.add("lib", dt, ok)
        if ok:
            _query_counts(run, answer)

    def front_batch():
        front_at = cp.pareto_front_at
        gc.collect()
        sw = run.stopwatch()
        seen = 0
        for _ in range(FRONT_PASSES):
            for cell in free:
                seen += len(front_at(db, cell))
        dt = sw.stop()
        expected = FRONT_PASSES * n_labels
        ok = run.tally.record(None if seen == expected else
                              f"front lookups returned {seen} labels, expected {expected}")
        run.t.add("fronts", dt, ok)

    gc.freeze()   # the long-lived database stays out of every later collection
    try:
        # Warm-up of the read path, untimed; the checked calls below report failures.
        with suppress(ValueError):
            library_query(cp, db, grid, pick(QUERY_STRATA // 2))
        call_cli(run.cli, ["query", "-d", str(db_path), "-m", str(map_path),
                           "--start", goal_arg(pick(QUERY_STRATA // 2)), "--count"])
        run.start_clock()
        rounds = 0
        while rounds < (TRACE_PAIRS if run.tracer else 1) or run.measuring():
            order = list(range(QUERY_STRATA))
            rng.shuffle(order)
            for k, j in enumerate(order):
                if k % QUERY_CLI_EVERY == 0:
                    cli_query(run, grid, db, map_path, db_path,
                              pick(rng.randrange(QUERY_STRATA)), sample="cli")
                lib_query(pick(j))
            front_batch()
            rounds += 1
            if after_round:
                after_round(rounds)
    finally:
        gc.unfreeze()
    run.values["peak_rss_mb"] = peak_rss_mb()
    run.values["fronts_per_s"] = FRONT_PASSES * len(free) / median(run.t.samples["fronts"])
    return rounds


# --- search -------------------------------------------------------------------

def run_search(run: Run) -> None:
    """The MOA* campaign: per map one `cellplan build`, a load, and MOA* from several starts.

    Whole passes over the same campaign repeat while another pass fits in
    the run's seconds; there is always one, and a traced run makes just
    one. So every run of a seed samples the same maps and starts however
    fast the machine is.
    """
    cp = run.cp

    def make_maps():
        maps = []
        for i in range(SEARCH_MAPS):
            grid, goal = campaign_map(cp, run.seed, i)
            write_map(cp, grid, run.work / f"c{i}.map")
            maps.append((grid, goal))
        return maps

    maps = run.setup(make_maps)
    warm_up(run)
    counts, sizes = [], []
    passes, pass_wall = 0, 0.0
    run.start_clock()
    while passes < 1 or (run.measuring() and perf() + pass_wall < run.deadline):
        t0 = perf()
        pass_s = 0.0
        for i, (grid, goal) in enumerate(maps):
            if i % (SEARCH_MAPS // SEARCH_SETUPS) == 0:
                run.setup(make_maps)   # the same maps and files again
            db, map_s = search_map(run, i, grid, goal)
            pass_s += map_s
            if db is not None and passes == 0:
                counts.append(database_counts(db))
                last_good = run.work / f"c{i}.db"
                sizes.append(last_good.stat().st_size)
        run.t.add("pass", pass_s)
        passes += 1
        pass_wall = perf() - t0
    run.values["peak_rss_mb"] = peak_rss_mb()
    run.values["moastar_share"] = sum(run.t.samples.get("moa", ())) / sum(run.t.samples["pass"])
    if not counts:
        return
    run.values["db_mb"] = sum(sizes) / 1e6
    run.values["db_bytes_per_label"] = sum(sizes) / sum(c[0] for c in counts)
    if run.tracer:
        _record_counts(run, counts)
        _load_peak(run, last_good.read_bytes())


def search_map(run: Run, i: int, grid, goal):
    """Build, load and cross-check campaign map `i`: (database or None, timed seconds)."""
    cp = run.cp
    map_path, db_path = run.work / f"c{i}.map", run.work / f"c{i}.db"
    argv = ["build", "-m", str(map_path), "--goal", goal_arg(goal), "-o", str(db_path)]
    rc, out, _err, key = run.command("build", argv)
    map_s = run.t.samples[key[0]][key[1]]
    if run.tracer:   # the same build again, traced, for the overhead figure
        rc, out, _err, key = run.command("build", argv)
    data = db_path.read_bytes() if rc == 0 else b""
    gc.collect()
    sw = run.stopwatch()
    with run.library():
        loaded = load_checked(cp, data)
    map_s += sw.stop()
    with run.library():
        verdict = check_database(cp, grid, data, loaded)
    db = verdict[1]
    if not run.tally.record(check_build(rc, out, verdict)):
        run.fail(key)
        return None, map_s
    starts = search_starts(db, run.seed, i)
    map_s += cross_check(run, grid, db, starts)
    if i == 0:   # one `cellplan query` check per pass, after the timed calls
        cli_query(run, grid, db, map_path, db_path, starts[0])
    return db, map_s


def search_starts(db, seed: int, i: int):
    """The MOA* starts of campaign map `i`: one seeded pick in each of the
    SEARCH_STARTS distance groups of `strata`.

    Each pick is a uniform start within its group, so the starts follow the
    distance distribution of uniform starts, far ones included, with less
    seed-to-seed spread in how many far searches a campaign gets.
    """
    rng = random.Random(derive_seed(seed, 5, i))
    return [rng.choice(group) for group in strata(db, SEARCH_STARTS)]


def cross_check(run: Run, grid, db, starts) -> float:
    """MOA* from each start must reach the database front; returns the seconds MOA* took."""
    total = 0.0
    for s in starts:
        gc.collect()
        sw = run.stopwatch()
        try:
            with run.library():
                front, _paths = run.cp.moa_star(grid, s, db.goal, collect_paths=False)
        except ValueError as e:
            front = f"error {e}"
        dt = sw.stop()
        total += dt
        ok = run.tally.record(None if front == db.front(s) else
                              f"start {s}: MOA* front {front} differs from "
                              f"the database front {db.front(s)}")
        run.t.add("moa", dt, ok)
        if ok:
            run.t.add("moa_front_size", len(front))
    return total


# --- per-layer measurements of a traced run -----------------------------------

def database_counts(db) -> tuple[int, int, int]:
    """Exact work counts of one database: labels, largest front, iterations."""
    sizes = [len(ls) for ls in db.labels.values()]
    return sum(sizes), max(sizes), db.iterations


def _record_counts(run: Run, counts) -> None:
    """Per-layer counts: the median over the databases the workload built or read.

    `counts` is never empty: a workload returns before this when no database checked out.
    """
    for j, name in enumerate(("cellmap.labels", "cellmap.max_front", "cellmap.iterations")):
        run.layers[name] = median([c[j] for c in counts])


def _load_peak(run: Run, data: bytes) -> None:
    """Peak traced allocation of one load_database call, in MB."""
    gc.collect()
    tracemalloc.start()
    try:
        run.cp.load_database(data)
        run.layers["cellmap.load_database_peak_mb"] = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


# Per workload: the sample names of its CLI command and of its library
# request, and the span the command opens in a traced run.
SAMPLES = {"build": ("build", "kernel", "cli.build"), "query": ("cli", "lib", "cli.query"),
           "search": ("build", "moa", "cli.build")}


def layer_metrics(run: Run, workload: str) -> dict:
    """Per-layer metrics from the spans of a traced run; 0 where a layer made no call."""
    tr = run.tracer

    def span_median(name, scale=1.0):
        xs = tr.durations(name)
        return median(xs) * scale if xs else 0.0

    own = tr.self_times()

    def self_median(name):
        xs = [own[i] for i, s in enumerate(tr.spans) if s[0] == name]
        return median(xs) if xs else 0.0

    # Set by `_record_counts` and `_load_peak`; +inf when the workload failed first.
    m = dict.fromkeys(("cellmap.labels", "cellmap.max_front", "cellmap.iterations",
                       "cellmap.load_database_peak_mb"), math.inf)
    m.update(run.layers)
    m["cellmap.build_database_s"] = span_median("cellmap.build_database")
    m["cellmap.save_database_s"] = span_median("cellmap.save_database")
    m["cellmap.load_database_s"] = span_median("cellmap.load_database")
    m["cellmap.verify_database_s"] = span_median("cellmap.verify_database")
    build_s = m["cellmap.build_database_s"]
    m["cellmap.labels_per_s"] = m["cellmap.labels"] / build_s if build_s else 0.0
    m["grid.parse_map_ms"] = span_median("grid.parse_map", 1e3)
    m["grid.map_digest_ms"] = span_median("grid.map_digest", 1e3)
    m["query.count_paths_ms"] = span_median("query.count_paths", 1e3)
    m["query.coverage_ms"] = span_median("query.coverage", 1e3)
    m["query.enumerate_paths_ms"] = span_median("query.enumerate_paths", 1e3)
    m["query.render_ms"] = span_median("query.render_report_json", 1e3)
    m["query.coverage_cells"] = run.t.stat("coverage_cells")
    m["query.front_size"] = run.t.stat("front_size")
    m["moastar.moa_star_ms"] = span_median("moastar.moa_star", 1e3)
    m["moastar.front_size"] = run.t.stat("moa_front_size")
    m["cli.build_self_s"] = self_median("cli.build")
    m["cli.query_self_s"] = self_median("cli.query")

    name, _request, root = SAMPLES[workload]
    untraced = run.t.stat(name)
    m["trace.overhead_pct"] = (100.0 * (run.t.stat(name + ".traced") / untraced - 1.0)
                               if untraced else math.inf)
    by_layer = tr.self_by_root(root)
    run.values["command_untraced_s"] = untraced
    run.values["self_s_by_layer"] = {
        layer: median([d.get(layer, 0.0) for d in by_layer])
        for layer in sorted({k for d in by_layer for k in d})}
    return m


WORKLOADS = {"build": run_build, "query": run_query, "search": run_search}
