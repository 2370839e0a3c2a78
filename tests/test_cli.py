"""Command-line interface tests, driven in-process through cli.main."""

import json

import pytest

import cellplan.cli as cli
from cellplan import (
    CostOverflowError,
    Database,
    build_database,
    load_database,
    parse_map,
    random_map,
    save_database,
    serialize_map,
)
from conftest import GOAL_2X3, KEY_EDITS_2X3, LOADER_EDITS_2X3, TEXT_2X3


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
    # The CLI has no schedule option; its output equals the library's sweep reference.
    out = tmp_path / "m.db"
    assert cli.main(["build", "-m", str(map_file), "--goal", "0,2", "-o", str(out)]) == 0
    ref = build_database(parse_map(map_file.read_bytes()), [GOAL_2X3], schedule="sweep")
    assert out.read_bytes() == save_database(ref)


@pytest.mark.parametrize("sub", ["build", "compare", "oracle"])
def test_goal_rectangle_outside_map(sub, map_file, tmp_path, capsys):
    # About 10^12 cells: rejected from its corners, never expanded.
    argv = [sub, "-m", str(map_file), "--goal", "0,0:999999,999999"]
    argv += ["-o", str(tmp_path / "x.db")] if sub == "build" else ["--start", "0,0"]
    assert cli.main(argv) == 2
    assert "outside the map" in capsys.readouterr().err
    assert not (tmp_path / "x.db").exists()


def test_build_overflow_exit_code(map_file, tmp_path, monkeypatch):
    def boom(*a, **kw):
        raise CostOverflowError("cost component exceeds the storage width")

    monkeypatch.setattr(cli, "build_database", boom)
    rc = cli.main(["build", "-m", str(map_file), "--goal", "0,2",
                   "-o", str(tmp_path / "x.db")])
    assert rc == 3


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


@pytest.mark.parametrize("old, new", KEY_EDITS_2X3)
def test_query_rejects_noncanonical_keys(map_file, db_file, old, new, capsys):
    db_file.write_bytes(db_file.read_bytes().replace(old, new))
    rc = cli.main(["query", "-d", str(db_file), "-m", str(map_file),
                   "--start", "0,0"])
    assert rc == 2
    assert "label key" in capsys.readouterr().err


@pytest.mark.parametrize("old, new, message", LOADER_EDITS_2X3)
def test_query_rejects_edits(map_file, db_file, old, new, message, capsys):
    db_file.write_bytes(db_file.read_bytes().replace(old, new))
    rc = cli.main(["query", "-d", str(db_file), "-m", str(map_file),
                   "--start", "0,0"])
    assert rc == 2
    assert message in capsys.readouterr().err


def test_query_rejects_noncanonical_label_order(map_file, db_file, capsys):
    blob = db_file.read_bytes()
    assert blob.count(b"[[20,5],[28,0]]") == 1
    db_file.write_bytes(blob.replace(b"[[20,5],[28,0]]", b"[[28,0],[20,5]]"))
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
        Database(labels=labels, goal=db.goal, map_digest=db.map_digest,
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
