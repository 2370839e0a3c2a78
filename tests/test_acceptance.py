"""End-to-end acceptance checks, one numbered criterion per test.

Each test prints exactly one machine-greppable verdict line to the real
stdout (bypassing capture), so a plain `pytest -v` run shows a PASS/FAIL
line per criterion even when everything is green. All comparisons are exact
integer equality; the only tolerances anywhere are the two wall-clock
bounds in criteria 6 and 7, which are asserted as hard limits.

The map corpora for criteria 1 and 2 are module-scoped fixtures so that
criterion 3 can re-verify every database they built.
"""

import heapq
import json
import random
import time
from collections import Counter
from contextlib import contextmanager

import pytest

import cellplan.cli as cli
from cellplan import (
    amortization_table,
    build_database,
    count_paths,
    coverage,
    enumerate_paths,
    free_cells,
    load_database,
    moa_star,
    neighbors,
    pareto_front_at,
    parse_map,
    random_map,
    render_front_csv,
    render_report_json,
    save_database,
    serialize_map,
    verify_database,
)
from cellplan.bench import TIMING_FIELDS
from cellplan.oracle import _brute_force_all
from conftest import TEXT_2X3, nondominated, reference_build


class _Verdicts:
    """Prints one PASS/FAIL line per criterion through pytest's capture."""

    def __init__(self, capsys):
        self._capsys = capsys

    def _emit(self, num: int, status: str, text: str) -> None:
        with self._capsys.disabled():
            print(f"\n[criterion {num}] {status}: {text}", flush=True)

    def info(self, num: int, text: str) -> None:
        self._emit(num, "info", text)

    @contextmanager
    def __call__(self, num: int, text: str):
        try:
            yield
        except BaseException:
            self._emit(num, "FAIL", text)
            raise
        self._emit(num, "PASS", text)


@pytest.fixture
def criterion(capsys):
    return _Verdicts(capsys)


# --- criterion 1: database results equal brute-force enumeration ---

# Dims are sized per density so regenerated maps land in the 2..18
# free-cell window the enumeration oracle can afford.
C1_DIMS = {0.0: ((2, 6), (3, 4)), 0.2: ((4, 4),), 0.35: ((4, 5), (5, 5))}
C1_DENSITIES = (0.0, 0.2, 0.35)
C1_MAX_COSTS = (0, 2, 5)
C1_SEEDS = 24


def _small_map(density: float, max_cost: int, seed: int):
    dims = C1_DIMS[density][seed % len(C1_DIMS[density])]
    tries = 0
    while True:
        g = random_map(7919 * seed + tries, dims[0], dims[1], density, max_cost)
        if 2 <= len(free_cells(g)) <= 18:
            return g
        tries += 1


@pytest.fixture(scope="module")
def c1_corpus():
    corpus = []
    idx = 0
    for density in C1_DENSITIES:
        for max_cost in C1_MAX_COSTS:
            for seed in range(C1_SEEDS):
                g = _small_map(density, max_cost, seed)
                fc = free_cells(g)
                # every fifth map gets a two-cell goal region
                if idx % 5 == 0 and len(fc) >= 3:
                    goal = [fc[0], fc[-1]]
                else:
                    goal = [fc[-1]]
                corpus.append((g, goal, build_database(g, goal)))
                idx += 1
    return corpus


def test_criterion_1_oracle_equivalence(criterion, c1_corpus):
    with criterion(1, "front/counts/coverage/paths equal brute-force "
                      "enumeration for every free start on 216 small maps"):
        assert len(c1_corpus) == 216 >= 200
        for g, goal, db in c1_corpus:
            oracle = _brute_force_all(g, goal, cell_budget=18, include_paths=True)
            for start in free_cells(g):
                want = oracle[start]
                got = count_paths(db, g, start)
                assert got.front == want.front
                assert got.counts == want.counts
                assert got.total_paths == want.total_paths
                if want.front:
                    assert coverage(db, g, start) == want.coverage
                else:
                    # coverage is defined only for reachable starts and
                    # must refuse otherwise; the oracle saw no path either
                    assert want.coverage == frozenset()
                    with pytest.raises(ValueError):
                        coverage(db, g, start)
                paths, truncated = enumerate_paths(db, g, start)
                assert truncated is False
                assert sorted(paths) == sorted(want.paths)


# --- criterion 2: best-first search front equals the database front ---

C2_DIMS = ((10, 10), (20, 20), (30, 30), (40, 40))
C2_SEEDS = 25


@pytest.fixture(scope="module")
def c2_corpus():
    corpus = []
    for dims in C2_DIMS:
        for seed in range(C2_SEEDS):
            g = random_map(104729 * seed + dims[0], dims[0], dims[1], 0.25, 3)
            fc = free_cells(g)
            goal = [fc[len(fc) // 2]]
            corpus.append((g, goal, build_database(g, goal)))
    return corpus


def test_criterion_2_search_front_matches_database(criterion, c2_corpus):
    # MOA* keeps every optimal path and never reads the database, so its
    # paths are an independent check of the whole of phase two: the count of
    # paths per front vector, the cells they cover, and the paths themselves.
    with criterion(2, "MOA* front, per-vector path counts, coverage and "
                      "full path list equal the database's on 100 maps "
                      "up to 40x40, 5 seeded starts each"):
        assert len(c2_corpus) == 100
        checked = 0
        for i, (g, goal, db) in enumerate(c2_corpus):
            fc = free_cells(g)
            assert len(fc) >= 5
            for start in random.Random(i).sample(fc, 5):
                front, paths = moa_star(g, start, goal, collect_paths=True)
                assert front == pareto_front_at(db, start)
                counts = Counter(vector for _cells, vector in paths)
                assert counts == count_paths(db, g, start).counts
                if front:
                    assert ({cell for cells, _vector in paths for cell in cells}
                            == coverage(db, g, start))
                else:
                    assert paths == []
                enumerated, truncated = enumerate_paths(db, g, start)
                assert not truncated
                assert sorted(paths) == sorted(enumerated)
                checked += 1
        assert checked == 500


# --- criterion 3: every built database is a stable fixed point ---

def test_criterion_3_fixed_point_holds_everywhere(criterion, c1_corpus, c2_corpus):
    with criterion(3, "all 316 databases from criteria 1-2 verify as fixed "
                      "points (one more sweep changes nothing) and took at "
                      "most one iteration per free cell"):
        corpora = c1_corpus + c2_corpus
        assert len(corpora) == 316
        for g, _goal, db in corpora:
            # verify_database holds exactly when one more synchronous sweep
            # would change nothing: every stored label is a one-hop
            # candidate from a neighbour's label (or a goal seed), and no
            # candidate beats the labels stored at its cell. It checks this
            # with a binary search per candidate, without running a sweep.
            assert verify_database(db, g) is True
            assert db.iterations <= len(free_cells(g))


# --- criterion 4: the build equals the synchronous sweep byte for byte ---

def test_criterion_4_schedules_agree(criterion):
    with criterion(4, "the build and the sweep reference produce byte-identical "
                      "databases on 50 30x30 maps"):
        for seed in range(50):
            g = random_map(seed, 30, 30, 0.25, 5)
            fc = free_cells(g)
            goal = [fc[seed % len(fc)]]
            assert (save_database(build_database(g, goal))
                    == save_database(reference_build(g, goal)))


# --- criterion 5: zero terrain cost degenerates to octile shortest paths ---

def _octile_dists(g, sources):
    """Plain single-objective Dijkstra over step lengths, for cross-checking."""
    dist = {}
    heap = [(0, s) for s in sources]
    heapq.heapify(heap)
    while heap:
        d, cell = heapq.heappop(heap)
        if cell in dist:
            continue
        dist[cell] = d
        for nxt, w in neighbors(g, cell):
            if nxt not in dist:
                heapq.heappush(heap, (d + w, nxt))
    return dist


def test_criterion_5_zero_terrain_reduces_to_shortest_path(criterion):
    with criterion(5, "with all-zero terrain the front at every free cell "
                      "is exactly ((octile shortest distance, 0),) on 20 "
                      "connected 25x25 maps"):
        built = 0
        seed = 0
        while built < 20:
            g = random_map(3571 * seed, 25, 25, 0.15, 0)
            seed += 1
            fc = free_cells(g)
            goal = [fc[0]]
            dist = _octile_dists(g, goal)
            if len(dist) != len(fc):
                continue  # a free cell is walled off; take the next seed
            db = build_database(g, goal)
            for cell in fc:
                assert pareto_front_at(db, cell) == ((dist[cell], 0),)
            built += 1


# --- criterion 6: a 117x117 map builds quickly and exports its front ---

def test_criterion_6_large_map_builds_fast_and_exports(criterion, tmp_path):
    with criterion(6, "117x117 map builds in under 60s; the front is "
                      "mutually non-dominated, total path count >= front "
                      "size, and JSON/CSV exports are emitted"):
        g = random_map(9, 117, 117, 0.15, 9)
        fc = free_cells(g)
        goal = [fc[-1]]
        t0 = time.perf_counter()
        db = build_database(g, goal)
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0
        start = next(c for c in fc if c not in db.goal.cells and db.front(c))
        front = pareto_front_at(db, start)
        assert front and nondominated(front) == front
        res = count_paths(db, g, start)
        assert res.total_paths >= len(front)
        report = render_report_json(start, front, counts=res.counts,
                                    total_paths=res.total_paths)
        (tmp_path / "front.json").write_bytes(report)
        (tmp_path / "front.csv").write_text(render_front_csv(front))
        parsed = json.loads((tmp_path / "front.json").read_bytes())
        assert [tuple(v) for v in parsed["front"]] == list(front)
        csv_lines = (tmp_path / "front.csv").read_text().splitlines()
        assert csv_lines[0] == "f1,f2"
        assert len(csv_lines) == len(front) + 1
        criterion.info(6, f"build {elapsed:.2f}s, |front|={len(front)}, "
                          f"total_paths={res.total_paths}")


# --- criterion 7: one build amortizes over per-start searches ---

def test_criterion_7_one_build_amortizes_over_repeated_searches(criterion):
    with criterion(7, "on a 60x60 map, build-plus-lookup total time beats "
                      "extrapolated per-start search time at n_starts = "
                      "all free cells"):
        g = random_map(60, 60, 60, 0.2, 4)
        fc = free_cells(g)
        table = amortization_table(g, [fc[-1]], 6)
        total = table["n_free_non_goal_cells"]
        all_row = next(r for r in table["rows"] if r["n_starts"] == total)
        assert all_row["db_build_plus_query_time"] < all_row["est_moa_total_time"]
        ratio = table["build_time"] / table["mean_moa_time"]
        # the ratio itself is reported, not gated; the bench CLI enforces
        # its soft median gate only behind --regression-gate
        criterion.info(7, f"build/single-search time ratio: {ratio:.2f} "
                          f"over {total} candidate starts")


# --- criterion 8: repeat CLI runs are byte-identical ---

def _strip_timing(report: dict) -> dict:
    out = json.loads(json.dumps(report))
    for rec in out["records"]:
        for key in TIMING_FIELDS:
            rec.pop(key, None)
    for key in TIMING_FIELDS:
        out["aggregate"].pop(key, None)
    return out


def test_criterion_8_cli_runs_are_deterministic(criterion, tmp_path, capsys):
    with criterion(8, "every CLI subcommand run twice emits byte-identical "
                      "machine output (bench timing fields excluded)"):
        # genmap
        gen = []
        for tag in ("a", "b"):
            p = tmp_path / f"map_{tag}.map"
            assert cli.main(["genmap", "--seed", "13", "--rows", "9",
                             "--cols", "7", "--density", "0.25",
                             "--max-cost", "4", "-o", str(p)]) == 0
            gen.append(p.read_bytes())
        assert gen[0] == gen[1]
        map_path = tmp_path / "map_a.map"
        goal_cell = free_cells(parse_map(gen[0]))[-1]
        goal_arg = f"{goal_cell[0]},{goal_cell[1]}"
        start_cell = free_cells(parse_map(gen[0]))[0]
        start_arg = f"{start_cell[0]},{start_cell[1]}"
        capsys.readouterr()

        # build: both the database file and the stats line must repeat
        builds, stats = [], []
        for tag in ("a", "b"):
            p = tmp_path / f"db_{tag}.json"
            assert cli.main(["build", "-m", str(map_path), "--goal", goal_arg,
                             "-o", str(p)]) == 0
            stats.append(capsys.readouterr().out)
            builds.append(p.read_bytes())
        assert builds[0] == builds[1] and stats[0] == stats[1]
        db_path = tmp_path / "db_a.json"

        # query with every report section enabled
        queries = []
        for tag in ("a", "b"):
            p = tmp_path / f"query_{tag}.json"
            assert cli.main(["query", "-d", str(db_path), "-m", str(map_path),
                             "--start", start_arg, "--count", "--coverage",
                             "--paths", "all", "-o", str(p)]) == 0
            queries.append(p.read_bytes())
        assert queries[0] == queries[1]

        # compare writes its diff report to stdout
        diffs = []
        for tag in ("a", "b"):
            assert cli.main(["compare", "-m", str(map_path), "--goal", goal_arg,
                             "--start", start_arg, "--db", str(db_path)]) == 0
            diffs.append(capsys.readouterr().out)
        assert diffs[0] == diffs[1]

        # oracle needs a small map
        small = tmp_path / "small.map"
        small.write_text(TEXT_2X3)
        oracles = []
        for tag in ("a", "b"):
            p = tmp_path / f"oracle_{tag}.json"
            assert cli.main(["oracle", "-m", str(small), "--goal", "0,2",
                             "--start", "0,0", "--paths", "-o", str(p)]) == 0
            oracles.append(p.read_bytes())
        assert oracles[0] == oracles[1]

        # bench, compared modulo its timing fields
        cfg = tmp_path / "bench.json"
        cfg.write_text(json.dumps({
            "seed": 2, "n_maps": 2, "dims": [[7, 7]],
            "obstacle_density": 0.2, "max_cost": 2, "starts_per_map": 2,
        }))
        reports = []
        for tag in ("a", "b"):
            p = tmp_path / f"bench_{tag}.json"
            assert cli.main(["bench", "-c", str(cfg), "-o", str(p)]) == 0
            reports.append(json.loads(p.read_bytes()))
        assert _strip_timing(reports[0]) == _strip_timing(reports[1])


# --- criterion 9: file formats round-trip ---

def test_criterion_9_formats_round_trip(criterion):
    with criterion(9, "map text and database bytes survive save-load-save "
                      "byte-identically on 50 random instances"):
        for seed in range(50):
            rows = 3 + seed % 6
            cols = 3 + (seed * 7) % 6
            density = C1_DENSITIES[seed % 3]
            max_cost = (0, 2, 5, 9)[seed % 4]
            g = random_map(seed, rows, cols, density, max_cost)
            text = serialize_map(g)
            assert serialize_map(parse_map(text)) == text
            fc = free_cells(g)
            db = build_database(g, [fc[0]])
            raw = save_database(db)
            assert save_database(load_database(raw)) == raw
