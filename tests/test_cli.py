"""Command-line interface tests, driven in-process through cli.main."""

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cellplan.cli as cli
from cellplan import (
    build_database,
    load_database,
    parse_map,
    random_map,
    save_database,
    serialize_map,
    verify_database,
)
from cellplan.bench import BenchReport, MapRecord
from cellplan.cellmap import CONVENTION_TAG, _header_bytes
from conftest import (
    GOAL_2X3,
    KEY_EDITS_2X3,
    LOADER_EDITS_2X3,
    TEXT_2X3,
    db_from_labels,
    reference_build,
    with_labels,
)

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture
def map_file(tmp_path):
    p = tmp_path / "m.map"
    p.write_text(TEXT_2X3)
    return p


@pytest.fixture
def db_file(tmp_path, map_file, capsys):
    p = tmp_path / "m.db"
    assert cli.main(["build", "-m", str(map_file), "--goal", "0,2",
                     "-o", str(p)]) == 0
    capsys.readouterr()
    return p


def out_json(capsys):
    return json.loads(capsys.readouterr().out)


def test_genmap_writes_deterministic_file(tmp_path, capsys):
    a = tmp_path / "a.map"
    b = tmp_path / "b.map"
    base = ["genmap", "--seed", "7", "--rows", "4", "--cols", "4",
            "--density", "0.25", "--max-cost", "2"]
    assert cli.main(base + ["-o", str(a)]) == 0
    assert cli.main(base + ["-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    parse_map(a.read_bytes())


def test_genmap_to_stdout(capsys):
    assert cli.main(["genmap", "--seed", "3", "--rows", "2", "--cols", "2"]) == 0
    text = capsys.readouterr().out
    assert parse_map(text).n_rows == 2


def test_genmap_rejects_bad_density(capsys):
    rc = cli.main(["genmap", "--seed", "1", "--rows", "3", "--cols", "3",
                   "--density", "1.5", "-o", "/dev/null"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_genmap_unwritable_path(capsys):
    rc = cli.main(["genmap", "--seed", "1", "--rows", "2", "--cols", "2",
                   "-o", "/no/such/dir/x.map"])
    assert rc == 2


def test_build_reports_stats(map_file, tmp_path, capsys):
    out = tmp_path / "m.db"
    assert cli.main(["build", "-m", str(map_file), "--goal", "0,2",
                     "-o", str(out)]) == 0
    info = out_json(capsys)
    assert info == {"iterations": 3, "free_cells": 6}
    db = load_database(out.read_bytes())
    assert db.front((0, 0)) == ((20, 5), (28, 0))


def test_build_goal_rectangles_and_union(tmp_path, capsys):
    m = tmp_path / "m.map"
    m.write_text("3 3\n0 0 0\n0 0 0\n0 0 0\n")
    out = tmp_path / "m.db"
    assert cli.main(["build", "-m", str(m), "--goal", "0,0:1,1",
                     "--goal", "2,2", "-o", str(out)]) == 0
    db = load_database(out.read_bytes())
    assert sorted(db.goal.cells) == [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)]


def test_build_rejects_bad_goals(map_file, tmp_path):
    out = tmp_path / "m.db"
    base = ["build", "-m", str(map_file), "-o", str(out)]
    assert cli.main(base + ["--goal", "9,9"]) == 2
    assert cli.main(base + ["--goal", "1,1:0,0"]) == 2
    assert cli.main(base + ["--goal", "nope"]) == 2


def test_build_schedules_agree(map_file, tmp_path):
    # The CLI's build equals the sweep reference byte for byte.
    out = tmp_path / "m.db"
    assert cli.main(["build", "-m", str(map_file), "--goal", "0,2", "-o", str(out)]) == 0
    ref = reference_build(parse_map(map_file.read_bytes()), [GOAL_2X3])
    assert out.read_bytes() == save_database(ref)


@pytest.mark.parametrize("sub", ["build", "compare", "oracle"])
def test_goal_rectangle_outside_map(sub, map_file, tmp_path, capsys):
    # About 10^12 cells: rejected from its corners, never expanded.
    argv = [sub, "-m", str(map_file), "--goal", "0,0:999999,999999"]
    argv += ["-o", str(tmp_path / "x.db")] if sub == "build" else ["--start", "0,0"]
    assert cli.main(argv) == 2
    assert "outside the map" in capsys.readouterr().err
    assert not (tmp_path / "x.db").exists()


def test_overflow_risk_map_exits_2(tmp_path, capsys):
    # Every token fits int64, but a path sum could pass MAX_COMPONENT: the
    # map is malformed input, refused before any command does its work.
    m, out = tmp_path / "big.map", tmp_path / "x.out"
    for text in ("2 2\n4611686018427387904 1\n1 1\n",
                 "1 3\n0 0 3074457345618258603\n"):
        m.write_text(text)
        for command, *rest in (["build", "-o", str(out)],
                               ["compare", "--start", "0,0"],
                               ["oracle", "--start", "0,0", "-o", str(out)]):
            assert cli.main([command, "-m", str(m), "--goal", "0,1", *rest]) == 2
            captured = capsys.readouterr()
            assert captured.err == ("error: terrain costs could overflow a path sum; "
                                    "rescale the map\n")
            assert captured.out == "" and not out.exists()


def test_build_rejects_terrain_beyond_int64(tmp_path, capsys):
    m = tmp_path / "big.map"
    m.write_text("1 2\n99999999999999999999 1\n")
    rc = cli.main(["build", "-m", str(m), "--goal", "0,1", "-o", str(tmp_path / "x.db")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: terrain costs could overflow a path sum")
    assert not (tmp_path / "x.db").exists()


def test_query_json_full_report(map_file, db_file, capsys):
    rc = cli.main(["query", "-d", str(db_file), "-m", str(map_file),
                   "--start", "0,0", "--count", "--coverage", "--paths"])
    assert rc == 0
    payload = out_json(capsys)
    assert payload["front"] == [[20, 5], [28, 0]]
    assert payload["total_paths"] == 2
    assert payload["coverage"] == [[0, 0], [0, 1], [0, 2], [1, 1]]
    assert payload["truncated"] is False
    assert len(payload["paths"]) == 2


def test_query_count_coverage_paths_golden(tmp_path, capsys, graph_builds):
    # Two front vectors, 3 and 4 optimal paths, the listing truncated at 5.
    # Each call loads its own database and builds the start's graph once.
    map_file, db = GOLDEN / "query_5x6.map", tmp_path / "q.db"
    assert cli.main(["build", "-m", str(map_file), "--goal", "4,5", "-o", str(db)]) == 0
    capsys.readouterr()
    want = (GOLDEN / "query_5x6_count_coverage_paths5.json").read_text()
    argv = ["query", "-d", str(db), "-m", str(map_file), "--start", "0,0",
            "--count", "--coverage", "--paths", "5"]
    for calls in (1, 2):
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == want
        assert len(graph_builds) == calls


@pytest.mark.parametrize("edit, message", KEY_EDITS_2X3)
def test_query_rejects_noncanonical_keys(map_file, db_file, edit, message, capsys):
    db_file.write_bytes(edit(db_file.read_bytes()))
    rc = cli.main(["query", "-d", str(db_file), "-m", str(map_file),
                   "--start", "0,0"])
    assert rc == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("edit, message", LOADER_EDITS_2X3)
def test_query_rejects_edits(map_file, db_file, edit, message, capsys):
    db_file.write_bytes(edit(db_file.read_bytes()))
    rc = cli.main(["query", "-d", str(db_file), "-m", str(map_file),
                   "--start", "0,0"])
    assert rc == 2
    assert message in capsys.readouterr().err


def test_query_rejects_noncanonical_label_order(map_file, db_file, capsys):
    db_file.write_bytes(with_labels(db_file.read_bytes(), 0, [(28, 0), (20, 5)]))
    rc = cli.main(["query", "-d", str(db_file), "-m", str(map_file),
                   "--start", "0,0"])
    assert rc == 2
    assert "canonical order" in capsys.readouterr().err


def test_query_paths_limit_and_all(map_file, db_file, capsys):
    rc = cli.main(["query", "-d", str(db_file), "-m", str(map_file),
                   "--start", "0,0", "--paths", "1"])
    assert rc == 0
    assert out_json(capsys)["truncated"] is True
    rc = cli.main(["query", "-d", str(db_file), "-m", str(map_file),
                   "--start", "0,0", "--paths", "all"])
    assert rc == 0
    assert out_json(capsys)["truncated"] is False


@pytest.mark.parametrize("flag", ["--rows", "--paths"])
def test_zero_count_is_a_usage_error(flag, map_file, db_file, capsys):
    argv = (["genmap", "--seed", "1", "--rows", "2", "--cols", "2"] if flag == "--rows" else
            ["query", "-d", str(db_file), "-m", str(map_file), "--start", "0,0", "--paths", "1"])
    argv[argv.index(flag) + 1] = "0"
    # The text rule reads "0"; the library's number rule refuses it.
    assert cli.main(argv) == 2
    name = "n_rows" if flag == "--rows" else "limit"
    assert f"error: {name} must be an integer of at least 1, not 0" in capsys.readouterr().err


def test_query_csv(map_file, db_file, capsys):
    rc = cli.main(["query", "-d", str(db_file), "-m", str(map_file),
                   "--start", "0,0", "--format", "csv"])
    assert rc == 0
    assert capsys.readouterr().out == "f1,f2\n20,5\n28,0\n"


def test_query_ascii_implies_coverage(map_file, db_file, capsys):
    rc = cli.main(["query", "-d", str(db_file), "-m", str(map_file),
                   "--start", "0,0", "--format", "ascii"])
    assert rc == 0
    assert capsys.readouterr().out == "S*G\n.*.\n"


def test_query_pgm_output_file(map_file, db_file, tmp_path):
    out = tmp_path / "cov.pgm"
    rc = cli.main(["query", "-d", str(db_file), "-m", str(map_file),
                   "--start", "0,0", "--format", "pgm", "-o", str(out)])
    assert rc == 0
    data = out.read_bytes()
    assert data.startswith(b"P5\n3 2\n255\n")
    assert data.endswith(bytes([255, 255, 255, 128, 255, 128]))


def test_query_unreachable_start_is_success(tmp_path, capsys):
    m = tmp_path / "m.map"
    m.write_text("3 3\n0 # 0\n# # 0\n0 0 0\n")
    db = tmp_path / "m.db"
    assert cli.main(["build", "-m", str(m), "--goal", "2,2", "-o", str(db)]) == 0
    capsys.readouterr()
    rc = cli.main(["query", "-d", str(db), "-m", str(m), "--start", "0,0"])
    assert rc == 0
    assert out_json(capsys) == {"start": [0, 0], "front": []}


def test_query_digest_mismatch(tmp_path, db_file, capsys):
    other = tmp_path / "other.map"
    other.write_text("2 3\n0 4 0\n0 0 0\n")
    rc = cli.main(["query", "-d", str(db_file), "-m", str(other),
                   "--start", "0,0"])
    assert rc == 4
    assert "digest" in capsys.readouterr().err


@pytest.fixture
def transposed_db(tmp_path, map_file, capsys):
    """The 2x3 map's database for goal (0,0), its header claiming 3x2 cells.
    The checksum covers only the payload, so the file loads."""
    p = tmp_path / "t.db"
    assert cli.main(["build", "-m", str(map_file), "--goal", "0,0", "-o", str(p)]) == 0
    capsys.readouterr()
    blob = p.read_bytes()
    end = blob.index(b"\n")
    header = json.loads(blob[:end])
    p.write_bytes(_header_bytes({**header, "n_rows": 3, "n_cols": 2}) + blob[end + 1:])
    load_database(p.read_bytes())
    return p


@pytest.mark.parametrize("argv", [
    pytest.param(["query", "--start", "1,0"], id="query-json"),  # read (0,2)'s front
    pytest.param(["query", "--start", "1,2"], id="query-json-off-database"),  # empty
    pytest.param(["query", "--start", "1,0", "--format", "csv"], id="query-csv"),
    # An empty front: no coverage to compute, so no query step either.
    pytest.param(["query", "--start", "1,2", "--format", "ascii"], id="query-ascii"),
    pytest.param(["query", "--start", "1,2", "--format", "pgm", "-o", "OUT"], id="query-pgm"),
    # Off the map but inside the claimed 3x2: the database is refused before the start.
    pytest.param(["query", "--start", "2,0", "--count"], id="query-count"),
    pytest.param(["compare", "--goal", "0,0", "--start", "1,0"], id="compare-db"),
])
def test_database_of_another_shape_is_refused(argv, map_file, transposed_db, tmp_path, capsys):
    command, *rest = argv
    out = tmp_path / "out"
    rest = [str(out) if a == "OUT" else a for a in rest]
    db_flag = "-d" if command == "query" else "--db"
    rc = cli.main([command, "-m", str(map_file), db_flag, str(transposed_db), *rest])
    captured = capsys.readouterr()
    assert rc == 2
    assert "database covers 3x2 cells, the map 2x3" in captured.err
    assert captured.out == "" and not out.exists()


def test_database_of_another_convention_is_refused(map_file, db_file, capsys):
    tag = CONVENTION_TAG.encode()
    db_file.write_bytes(db_file.read_bytes().replace(
        tag, b"len1-1/terrain-of-entered-cell/goal-zero"))
    db = load_database(db_file.read_bytes())
    assert verify_database(db, parse_map(map_file.read_bytes())) is False
    rc = cli.main(["query", "-d", str(db_file), "-m", str(map_file),
                   "--start", "0,0", "--count"])
    assert rc == 2
    assert "convention" in capsys.readouterr().err


def test_query_rejects_obstacle_start(tmp_path, capsys):
    m = tmp_path / "m.map"
    m.write_text("2 2\n0 #\n0 0\n")
    db = tmp_path / "m.db"
    assert cli.main(["build", "-m", str(m), "--goal", "0,0", "-o", str(db)]) == 0
    capsys.readouterr()
    assert cli.main(["query", "-d", str(db), "-m", str(m), "--start", "0,1"]) == 2


def test_query_missing_file_exit(tmp_path):
    assert cli.main(["query", "-d", str(tmp_path / "nope.db"),
                     "-m", str(tmp_path / "nope.map"), "--start", "0,0"]) == 2


def test_compare_agreement(map_file, capsys):
    rc = cli.main(["compare", "-m", str(map_file), "--goal", "0,2",
                   "--start", "0,0", "--paths"])
    assert rc == 0
    diff = out_json(capsys)
    assert diff["equal"] is True
    assert diff["front_db"] == diff["front_moa"] == [[20, 5], [28, 0]]
    assert diff["paths_equal"] is True


def test_compare_tampered_database(map_file, tmp_path, capsys):
    grid = parse_map(TEXT_2X3)
    db = build_database(grid, [GOAL_2X3])
    labels = dict(db.labels)
    labels[(0, 0)] = labels[(0, 0)][:1]  # drop one optimal vector
    tampered = tmp_path / "bad.db"
    tampered.write_bytes(save_database(
        db_from_labels(labels, 2, 3, goal=db.goal, map_digest=db.map_digest,
                       iterations=db.iterations)))
    rc = cli.main(["compare", "-m", str(map_file), "--goal", "0,2",
                   "--start", "0,0", "--db", str(tampered)])
    assert rc == 1
    diff = out_json(capsys)
    assert diff["equal"] is False
    assert diff["only_moa"] == [[28, 0]]


def test_compare_db_goal_must_match(map_file, db_file):
    rc = cli.main(["compare", "-m", str(map_file), "--goal", "0,0",
                   "--start", "1,2", "--db", str(db_file)])
    assert rc == 2


def test_compare_refuses_a_bad_start_before_building(tmp_path, monkeypatch, capsys):
    m = tmp_path / "m.map"
    m.write_text("2 2\n0 #\n0 0\n")
    built = []
    monkeypatch.setattr(cli, "build_database", lambda *a: built.append(a))
    for start in ("0,1", "5,5"):  # an obstacle, a cell off the map
        assert cli.main(["compare", "-m", str(m), "--goal", "0,0", "--start", start]) == 2
    assert not built


def test_compare_db_map_is_checked_before_its_goal(tmp_path, db_file):
    other = tmp_path / "other.map"
    other.write_text("2 3\n0 4 0\n0 0 0\n")
    rc = cli.main(["compare", "-m", str(other), "--goal", "0,0",
                   "--start", "1,2", "--db", str(db_file)])
    assert rc == 4


def test_compare_unreachable_start(tmp_path, capsys):
    m = tmp_path / "m.map"
    m.write_text("3 3\n0 # 0\n# # 0\n0 0 0\n")
    rc = cli.main(["compare", "-m", str(m), "--goal", "2,2", "--start", "0,0"])
    assert rc == 0
    diff = out_json(capsys)
    assert diff["front_db"] == diff["front_moa"] == []


def test_oracle_report(map_file, capsys):
    rc = cli.main(["oracle", "-m", str(map_file), "--goal", "0,2",
                   "--start", "0,0", "--paths"])
    assert rc == 0
    payload = out_json(capsys)
    assert payload["front"] == [[20, 5], [28, 0]]
    assert payload["total_paths"] == 2
    assert payload["coverage"] == [[0, 0], [0, 1], [0, 2], [1, 1]]
    assert len(payload["paths"]) == 2


def test_oracle_budget_exit(tmp_path, capsys):
    m = tmp_path / "big.map"
    m.write_bytes(serialize_map(random_map(3, 6, 5, 0.0, 0)))
    rc = cli.main(["oracle", "-m", str(m), "--goal", "0,0", "--start", "5,4"])
    assert rc == 2
    assert "budget" in capsys.readouterr().err


def test_missing_required_flag_is_usage_error(map_file, capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["build", "-m", str(map_file), "-o", "/dev/null"])
    assert err.value.code == 2
    capsys.readouterr()


def test_main_runs_again_and_again_in_one_process(map_file, tmp_path, capsys):
    """One parser serves every call: a call's options never leak into the
    next, and a failed call leaves the next one working."""
    assert cli._build_parser() is cli._build_parser()
    db = tmp_path / "again.db"
    query = ["query", "-d", str(db), "-m", str(map_file), "--start", "0,0"]
    assert cli.main(["build", "-m", str(map_file), "--goal", "0,2", "-o", str(db)]) == 0
    assert out_json(capsys) == {"iterations": 3, "free_cells": 6}
    assert cli.main(query + ["--count", "--paths", "1"]) == 0
    report = out_json(capsys)
    assert report["total_paths"] == 2 and len(report["paths"]) == 1 and report["truncated"]
    with pytest.raises(SystemExit) as err:
        cli.main(["query", "-d", str(db)])
    assert err.value.code == 2
    capsys.readouterr()
    assert cli.main(query[:-1] + ["2,2"]) == 2  # outside the map
    assert "error:" in capsys.readouterr().err
    assert cli.main(query) == 0
    assert out_json(capsys) == {"start": [0, 0], "front": [[20, 5], [28, 0]]}
    assert cli.main(["genmap", "--seed", "3", "--rows", "2", "--cols", "2"]) == 0
    assert parse_map(capsys.readouterr().out).n_rows == 2
    assert cli.main(query + ["--format", "csv"]) == 0
    assert capsys.readouterr().out == "f1,f2\n20,5\n28,0\n"
    assert cli.main(query + ["--paths"]) == 0
    report = out_json(capsys)
    assert "counts" not in report and len(report["paths"]) == 2 and not report["truncated"]


def test_bench_runs_and_gates(tmp_path, capsys):
    cfg = tmp_path / "camp.json"
    cfg.write_text(json.dumps({
        "seed": 1, "n_maps": 2, "dims": [[8, 8]], "obstacle_density": 0.2,
        "max_cost": 2, "starts_per_map": 3}))
    out = tmp_path / "rep.json"
    rc = cli.main(["bench", "-c", str(cfg), "-o", str(out),
                   "--regression-gate"])
    assert rc == 0
    payload = json.loads(out.read_bytes())
    assert payload["aggregate"]["maps_passed"] == 2
    rc = cli.main(["bench", "-c", str(cfg), "--format", "csv"])
    assert rc == 0
    assert capsys.readouterr().out.startswith("map_id,rows,cols,")


def test_bench_bad_config(tmp_path):
    cfg = tmp_path / "camp.json"
    cfg.write_text(json.dumps({"seed": 1}))
    assert cli.main(["bench", "-c", str(cfg)]) == 2


def test_bench_config_with_a_float_field_exits_2(tmp_path, capsys):
    cfg = tmp_path / "camp.json"
    cfg.write_text(json.dumps({"seed": 1, "n_maps": 2.7, "dims": [[4, 4]],
                               "obstacle_density": 0.2, "max_cost": 2, "starts_per_map": 1}))
    assert cli.main(["bench", "-c", str(cfg)]) == 2
    assert "n_maps must be an integer" in capsys.readouterr().err


def _bench_reporting(monkeypatch, tmp_path, *, fronts_equal=True, median=1.0):
    """A campaign config file, with cli.run_campaign made to report one map
    with these fronts and this build/search time ratio, so the exit code is
    tested without a campaign that fails or runs slow."""
    def run_campaign(cfg, *, reproducer_dir=None):
        record = MapRecord(map_id=0, dims=(4, 4), seed=1, regenerated=0, n_free_cells=16,
                           front_size=1, fronts_equal=fronts_equal, build_time=median,
                           moa_time_single_start=1.0)
        return BenchReport(config=cfg, records=[record], maps_passed=int(fronts_equal),
                           total=1, time_ratio_stats=dict.fromkeys(("min", "median", "max"),
                                                                   median))

    monkeypatch.setattr(cli, "run_campaign", run_campaign)
    cfg = tmp_path / "camp.json"
    cfg.write_text(json.dumps({"seed": 1, "n_maps": 1, "dims": [[4, 4]],
                               "obstacle_density": 0.0, "max_cost": 1, "starts_per_map": 1}))
    return cfg


@pytest.mark.parametrize("gate", [[], ["--regression-gate"]], ids=["plain", "gated"])
def test_bench_front_mismatch_exits_1(monkeypatch, tmp_path, capsys, gate):
    cfg = _bench_reporting(monkeypatch, tmp_path, fronts_equal=False)
    assert cli.main(["bench", "-c", str(cfg)] + gate) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out)["aggregate"]["maps_passed"] == 0
    assert "1 of 1 maps had a front mismatch" in captured.err


@pytest.mark.parametrize("median, gated_exit", [(10.0, 0), (10.5, 1), (11.0, 1)])
def test_bench_regression_gate(monkeypatch, tmp_path, capsys, median, gated_exit):
    # The gate fails a campaign whose median build/search ratio is above 10,
    # and only under --regression-gate.
    cfg = _bench_reporting(monkeypatch, tmp_path, median=median)
    assert cli.main(["bench", "-c", str(cfg)]) == 0
    assert capsys.readouterr().err == ""
    assert cli.main(["bench", "-c", str(cfg), "--regression-gate"]) == gated_exit
    err = capsys.readouterr().err
    if gated_exit:
        assert f"median build/search ratio {median:.2f} exceeds 10" in err
    else:
        assert err == ""


@pytest.mark.parametrize("argv", [
    ["query", "-d", "{db}", "-m", "{map}", "--start", "a,b"],
    ["build", "-m", "{map}", "--goal", "1,x", "-o", "{out}"],
    ["compare", "-m", "{map}", "--goal", "0,2", "--start", "0,b"],
    ["oracle", "-m", "{map}", "--goal", "1,x", "--start", "0,0"],
], ids=["query-start", "build-goal", "compare-start", "oracle-goal"])
def test_non_integer_cell_argument_exits_2(argv, map_file, db_file, tmp_path, capsys):
    paths = {"db": db_file, "map": map_file, "out": tmp_path / "out.db"}
    assert cli.main([a.format(**paths) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "expected r,c" in captured.err
    assert not (tmp_path / "out.db").exists()


# Texts the one text rule (grid._decimal) refuses: digits of other scripts, an
# underscore, a sign, a space, and nothing.
_NOT_DECIMAL = ["\uff13", "\u0663", "0_1", "+1", " 1", "1 ", "-0", ""]

# Every integer the command line reads: an argv with "{}" where the text
# goes, and a canonical integer there that the command accepts.
_INTEGER_ARGS = {
    "seed": (["genmap", "--seed", "{}", "--rows", "2", "--cols", "2", "-o", "{out}"], "1"),
    "rows": (["genmap", "--seed", "1", "--rows", "{}", "--cols", "2", "-o", "{out}"], "1"),
    "cols": (["genmap", "--seed", "1", "--rows", "2", "--cols", "{}", "-o", "{out}"], "1"),
    "max-cost": (["genmap", "--seed", "1", "--rows", "2", "--cols", "2", "--max-cost", "{}",
                  "-o", "{out}"], "1"),
    "budget": (["oracle", "-m", "{map}", "--goal", "0,2", "--start", "0,0", "--budget", "{}",
                "-o", "{out}"], "6"),
    "paths": (["query", "-d", "{db}", "-m", "{map}", "--start", "0,0", "--paths", "{}",
               "-o", "{out}"], "1"),
    "start-row": (["query", "-d", "{db}", "-m", "{map}", "--start", "{},0", "-o", "{out}"], "1"),
    "start-col": (["query", "-d", "{db}", "-m", "{map}", "--start", "0,{}", "-o", "{out}"], "1"),
    "goal-first-corner": (["build", "-m", "{map}", "--goal", "{},0:1,1", "-o", "{out}"], "0"),
    "goal-second-corner": (["build", "-m", "{map}", "--goal", "0,0:1,{}", "-o", "{out}"], "1"),
}


@pytest.mark.parametrize("text", _NOT_DECIMAL, ids=["fullwidth", "arabic-indic", "underscore",
                                                    "plus", "space-before", "space-after",
                                                    "minus-zero", "empty"])
@pytest.mark.parametrize("arg", sorted(_INTEGER_ARGS))
def test_every_integer_argument_follows_the_text_rule(arg, text, map_file, db_file, tmp_path):
    """int() would take all but the first two texts of the ids; every
    integer flag and cell coordinate refuses them all with exit 2, and
    writes no output. The refusal says what was expected, and names no
    private function, as argparse does for a type function that raises
    ValueError ("invalid _seed value")."""
    out = tmp_path / "out"
    template, good = _INTEGER_ARGS[arg]
    paths = {"db": db_file, "map": map_file, "out": out}
    rc, err = _run([a.replace("{}", text).format(**paths) for a in template])
    assert rc == 2, (arg, text, err)
    assert "error:" in err and "expected" in err and "invalid" not in err, err
    assert not re.search(r"(?<![\w/])_[A-Za-z]", err), err
    assert not out.exists()
    assert _run([a.replace("{}", good).format(**paths) for a in template])[0] == 0
    assert out.exists()


def test_seed_longer_than_19_digits_is_refused(tmp_path, capsys):
    """_decimal reads every text past 19 significant digits as one value, so
    --seed refuses them rather than give two seeds one map. Leading zeros are
    not significant, and the sign a seed cannot carry loses no map."""
    out = tmp_path / "out.map"
    genmap = ["genmap", "--rows", "3", "--cols", "3", "--density", "0.3", "--max-cost", "5",
              "-o", str(out), "--seed"]
    for seed in ["1" * 20, "9" * 5000, "9223372036854775808" + "0"]:
        rc, err = _run(genmap + [seed])
        assert rc == 2 and "at most 19 significant digits" in err
        assert not out.exists()
    for seed in ["9" * 19, "0" * 30 + "9" * 19, "9223372036854775808"]:
        assert cli.main(genmap + [seed]) == 0
        assert parse_map(out.read_bytes()) == random_map(int(seed), 3, 3, 0.3, 5)
    assert random_map(-5, 3, 3, 0.3, 5) == random_map(5, 3, 3, 0.3, 5)


def test_out_of_memory_exits_2(monkeypatch, tmp_path, capsys):
    def no_memory(*args):
        raise MemoryError

    monkeypatch.setattr(cli, "random_map", no_memory)
    out = tmp_path / "out.map"
    assert cli.main(["genmap", "--seed", "1", "--rows", "100000000000", "--cols", "1",
                     "-o", str(out)]) == 2
    assert capsys.readouterr() == ("", "error: out of memory\n")
    assert not out.exists()


@pytest.mark.parametrize("rows", ["9" * 20, "9223372036854775807"])
def test_map_too_large_to_draw_exits_2(rows, tmp_path, capsys):
    # Refused before a cell is drawn: such a map could overflow a path sum.
    assert cli.main(["genmap", "--seed", "1", "--rows", rows, "--cols", "1"]) == 2
    assert "error: the map is large enough to overflow a path sum" in capsys.readouterr().err


def test_no_corner_cut_flag(tmp_path, capsys):
    m = tmp_path / "pinch.map"
    m.write_text("2 2\n0 #\n# 0\n")
    db = tmp_path / "pinch.db"
    assert cli.main(["build", "-m", str(m), "--goal", "1,1",
                     "--no-corner-cut", "-o", str(db)]) == 0
    capsys.readouterr()
    # Reading the map without the flag yields a different digest.
    assert cli.main(["query", "-d", str(db), "-m", str(m),
                     "--start", "0,0"]) == 4
    capsys.readouterr()
    rc = cli.main(["query", "-d", str(db), "-m", str(m),
                   "--no-corner-cut", "--start", "0,0"])
    assert rc == 0
    assert out_json(capsys) == {"start": [0, 0], "front": []}


def test_parse_cell_and_goal_args():
    assert cli._parse_cell("3,4") == (3, 4)
    with pytest.raises(ValueError):
        cli._parse_cell("3;4")
    grid = random_map(0, 4, 4, 0.0, 0)
    region = cli._parse_goal_args(["0,0:1,1", "3,3"], grid)
    assert sorted(region.cells) == [(0, 0), (0, 1), (1, 0), (1, 1), (3, 3)]
    with pytest.raises(ValueError, match="outside the map"):
        cli._parse_goal_args(["0,0:4,3"], grid)


# --- fuzz: every map file and argument is answered or refused with its code ---

_COSTS = st.sampled_from(["0", "1", "5", "#"])
# Malformed tokens, and costs whose path sums could pass MAX_COMPONENT on all
# but the smallest maps (the last one does not fit int64 at all).
_ODD_TOKENS = st.sampled_from(["x", "07", "-1", "1.5", "\uff10", "3074457345618258603",
                               "4611686018427387904", "99999999999999999999"])
_MAP_FLAWS = st.sampled_from([None, None, None, None, "token", "token", "short-row",
                              "long-row", "missing-row", "extra-row", "no-newline"])
_CELL = st.builds("{},{}".format, st.integers(0, 2), st.integers(0, 2))
_CELLS = st.one_of(_CELL, _CELL, st.sampled_from(
    ["0,0:1,1", "0,0:2,2", "1,1:0,0", "0,0:9,9", "3,3", "-1,0", "a,b", "0,0,0", "",
     "\uff10,0", "0_0,1", "+0,0", "0, 1", "-0,0", "0,0:\u0661,1"]))


@st.composite
def _map_texts(draw):
    """Map text of at most 3x3 cells, well formed or with one flaw."""
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    table = [[draw(_COSTS) for _ in range(cols)] for _ in range(rows)]
    flaw = draw(_MAP_FLAWS)
    if flaw == "token":
        table[draw(st.integers(0, rows - 1))][draw(st.integers(0, cols - 1))] = draw(_ODD_TOKENS)
    elif flaw == "short-row":
        table[-1] = table[-1][:-1]
    elif flaw == "long-row":
        table[0] = table[0] + ["0"]
    elif flaw == "missing-row":
        table = table[:-1]
    elif flaw == "extra-row":
        table = table + [["0"] * cols]
    end = "" if flaw == "no-newline" else "\n"
    return "\n".join([f"{rows} {cols}"] + [" ".join(row) for row in table]) + end


def _run(argv) -> tuple[int, str]:
    """cli.main's exit code (argparse's SystemExit code included) and stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as e:
            rc = e.code
    return rc, err.getvalue()


@settings(max_examples=100, deadline=2000)
@given(text=_map_texts(), goals=st.lists(_CELLS, min_size=1, max_size=2), start=_CELLS,
       query_paths=st.sampled_from([None, None, "1", "all", "0", "x"]),
       query_format=st.sampled_from(["json", "csv", "ascii", "pgm", "xml"]),
       query_flags=st.sets(st.sampled_from(["--count", "--coverage"])),
       compare_paths=st.booleans(), oracle_paths=st.booleans(),
       no_corner_cut=st.lists(st.booleans(), min_size=4, max_size=4))
def test_every_map_and_argument_gets_a_documented_exit(
        text, goals, start, query_paths, query_format, query_flags, compare_paths,
        oracle_paths, no_corner_cut):
    """Each command either answers or refuses with a documented exit code and
    a message on stderr; none of them raises."""
    with tempfile.TemporaryDirectory() as tmp:
        m, db, out = (str(Path(tmp) / name) for name in ("m.map", "m.db", "out"))
        Path(m).write_bytes(text.encode("utf-8"))
        goal_args = [a for g in goals for a in ("--goal", g)]
        flag = [["--no-corner-cut"] if on else [] for on in no_corner_cut]
        query = ["query", "-d", db, "-m", m, "--start", start, "--format", query_format,
                 *sorted(query_flags), "-o", out, *flag[1]]
        if query_paths is not None:
            query += ["--paths", query_paths]
        compare = ["compare", "-m", m, *goal_args, "--start", start, *flag[2]]
        compare += ["--paths"] if compare_paths else []
        oracle = ["oracle", "-m", m, *goal_args, "--start", start, "-o", out, *flag[3]]
        oracle += ["--paths"] if oracle_paths else []
        for argv in (["build", "-m", m, *goal_args, "-o", db, *flag[0]], query,
                     compare, compare + ["--db", db], oracle):
            rc, err = _run(argv)
            assert rc in (0, 1, 2, 4), (argv, rc, err)
            assert (rc in (2, 4)) == ("error:" in err), (argv, rc, err)
