"""Benchmark harness tests: config validation, campaign determinism,
reproducer dumps on failure, and the amortization table."""

import json
from dataclasses import asdict

import pytest

import cellplan.bench as bench
from cellplan import BenchConfig, GoalRegion, amortization_table, parse_map, run_campaign
from cellplan.bench import TIMING_FIELDS, _derive_seed


def small_cfg(**kw):
    args = dict(seed=1, n_maps=2, dims=((8, 8),), obstacle_density=0.2,
                max_cost=2, starts_per_map=3)
    args.update(kw)
    return BenchConfig(**args)


@pytest.mark.parametrize("kw", [
    dict(n_maps=0),
    dict(dims=()),
    dict(dims=((0, 3),)),
    dict(dims=((1, 1),)),
    dict(dims=((2, 3, 4),)),
    dict(dims=((5,),)),
    dict(obstacle_density=1.0),
    dict(obstacle_density=-0.5),
    dict(max_cost=-1),
    dict(starts_per_map=0),
])
def test_config_validation(kw):
    with pytest.raises(ValueError):
        small_cfg(**kw)


def test_config_dict_roundtrip():
    cfg = small_cfg(dims=((8, 8), (4, 12)))
    assert BenchConfig.from_dict(asdict(cfg)) == cfg
    with pytest.raises(ValueError):
        BenchConfig.from_dict({"seed": 1})


@pytest.mark.parametrize("field, value", [
    ("seed", 1.9), ("n_maps", 2.7), ("dims", [[4.5, 4]]), ("dims", [[4, True]]),
    ("max_cost", True), ("starts_per_map", 3.0), ("seed", "1"),
])
def test_config_dict_refuses_non_int_fields(field, value):
    """An integer field that holds a float, a bool or a string is refused,
    not truncated into another campaign."""
    obj = {**asdict(small_cfg()), field: value}
    with pytest.raises(ValueError, match=f"bad bench config: {field} must be an integer"):
        BenchConfig.from_dict(obj)


@pytest.mark.parametrize("value", [False, "0.2", None])
def test_config_dict_refuses_a_density_that_is_not_a_number(value):
    obj = {**asdict(small_cfg()), "obstacle_density": value}
    with pytest.raises(ValueError, match="obstacle_density must be a number"):
        BenchConfig.from_dict(obj)
    assert BenchConfig.from_dict({**obj, "obstacle_density": 0}).obstacle_density == 0.0


@pytest.mark.parametrize("field, value", [
    ("seed", 1.0), ("n_maps", 2.0), ("dims", ((4, 4.0),)), ("dims", ((True, 4),)),
    ("max_cost", False), ("starts_per_map", True),
])
def test_config_refuses_non_int_fields(field, value):
    """A config built directly is checked as one read from a file: a float
    or a bool in an integer field is refused, not run as the int it equals."""
    with pytest.raises(ValueError, match=f"bad bench config: {field} must be an integer"):
        small_cfg(**{field: value})


def test_config_reads_density_as_a_float():
    cfg = small_cfg(obstacle_density=0, dims=[[8, 8]])
    assert type(cfg.obstacle_density) is float and cfg.dims == ((8, 8),)
    with pytest.raises(ValueError, match="obstacle_density must be a number"):
        small_cfg(obstacle_density=True)


def strip_timing(report_dict):
    out = json.loads(json.dumps(report_dict))
    for rec in out["records"]:
        for key in TIMING_FIELDS:
            rec.pop(key, None)
    for key in TIMING_FIELDS:
        out["aggregate"].pop(key, None)
    return out


def test_campaign_deterministic_modulo_timing():
    cfg = small_cfg()
    a = run_campaign(cfg)
    b = run_campaign(cfg)
    assert strip_timing(a.to_dict()) == strip_timing(b.to_dict())
    assert a.all_passed and b.all_passed
    # CSV rows match too, once the trailing timing columns are cut.
    cut = lambda s: [",".join(line.split(",")[:-2]) for line in s.splitlines()]
    assert cut(a.to_csv_str()) == cut(b.to_csv_str())


def test_campaign_checks_every_start():
    rep = run_campaign(small_cfg())
    assert rep.total == 2
    assert rep.maps_passed == 2
    assert all(rec.fronts_equal for rec in rep.records)
    assert all(rec.front_size >= 1 for rec in rep.records)
    stats = rep.time_ratio_stats
    assert stats["min"] <= stats["median"] <= stats["max"]


def test_campaign_cycles_dims():
    rep = run_campaign(small_cfg(n_maps=3, dims=((4, 6), (5, 5))))
    assert [rec.dims for rec in rep.records] == [(4, 6), (5, 5), (4, 6)]


def test_campaign_regenerates_too_small_maps():
    cfg = BenchConfig(seed=0, n_maps=1, dims=((1, 2),),
                      obstacle_density=0.9, max_cost=2, starts_per_map=1)
    rep = run_campaign(cfg)
    assert rep.records[0].regenerated == 64
    assert rep.records[0].n_free_cells >= 2


def test_mismatch_dumps_reproducer(tmp_path, monkeypatch):
    real = bench.moa_star

    def lying_moa(grid, start, goal, **kw):
        front, paths = real(grid, start, goal, **kw)
        return ((1, 1),) + front, paths

    monkeypatch.setattr(bench, "moa_star", lying_moa)
    rep = run_campaign(small_cfg(n_maps=1), reproducer_dir=tmp_path)
    assert not rep.all_passed
    assert rep.maps_passed == 0
    map_files = sorted(tmp_path.glob("*.map"))
    sidecars = sorted(tmp_path.glob("*.json"))
    assert map_files and sidecars
    parse_map(map_files[0].read_bytes())
    side = json.loads(sidecars[0].read_text())
    assert set(side) == {"start", "goal", "seed"}
    assert side["seed"] == rep.records[0].seed


def test_report_json_bytes_shape():
    blob = run_campaign(small_cfg(n_maps=1)).to_json_bytes()
    payload = json.loads(blob)
    assert set(payload) == {"config", "records", "aggregate"}
    assert blob.endswith(b"\n")


def test_derive_seed_is_stable():
    assert _derive_seed(1, 2, 3) == _derive_seed(1, 2, 3)
    assert _derive_seed(1, 2, 3) != _derive_seed(1, 2, 4)
    assert 0 <= _derive_seed(2**63, 7) < 2**63


def test_amortization_rows():
    g = parse_map("4 4\n" + "0 0 0 0\n" * 4)
    table = amortization_table(g, GoalRegion([(0, 0)]), 3)
    assert table["n_free_non_goal_cells"] == 15
    assert [row["n_starts"] for row in table["rows"]] == [1, 10, 15]
    first = table["rows"][0]
    assert first["est_moa_total_time"] == pytest.approx(table["mean_moa_time"])
    for row in table["rows"]:
        assert row["db_build_plus_query_time"] > 0
        assert row["est_moa_total_time"] > 0


def test_amortization_clamps_with_warning():
    g = parse_map("2 2\n0 0\n0 0\n")
    with pytest.warns(UserWarning, match="clamped"):
        table = amortization_table(g, GoalRegion([(0, 0)]), 50)
    assert table["sampled_starts"] == 3


def test_amortization_needs_a_start():
    g = parse_map("1 1\n0\n")
    with pytest.raises(ValueError, match="non-goal"):
        amortization_table(g, GoalRegion([(0, 0)]), 1)
    with pytest.raises(ValueError, match="at least 1"):
        amortization_table(parse_map("1 2\n0 0\n"), GoalRegion([(0, 0)]), 0)


@pytest.mark.parametrize("sample_starts", [2.5, 2.0, True])
def test_amortization_sample_starts_must_be_an_int(sample_starts):
    g = parse_map("1 3\n0 0 0\n")
    with pytest.raises(ValueError, match="sample_starts must be an integer"):
        amortization_table(g, GoalRegion([(0, 0)]), sample_starts)


def test_campaign_times_cold_starts(dijkstra_calls):
    rep = run_campaign(small_cfg(starts_per_map=3))
    assert len(dijkstra_calls) == 2 * 3 * rep.total


def test_amortization_times_cold_starts(dijkstra_calls):
    g = parse_map("4 4\n" + "0 1 0 2\n" * 4)
    table = amortization_table(g, GoalRegion([(0, 0)]), 5)
    assert table["sampled_starts"] == 5
    assert len(dijkstra_calls) == 2 * 5
