"""BENCHMARK.json, the result schema and the names in between."""

import copy

from bench import spec as benchspec
from bench.workloads import WORKLOADS


def test_benchmark_json_is_well_formed():
    bench = benchspec.load()
    assert benchspec.validate_spec(bench) == []
    assert sorted(bench) == ["command", "end_to_end", "paths", "per_layer",
                             "run_seconds", "workloads"]
    assert 1 <= bench["run_seconds"] <= 60
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
    assert len(bench["per_layer"]) <= 128
    assert all(len(w["why"]) <= 200 for w in bench["workloads"])


def test_workload_table_matches_benchmark_json():
    bench = benchspec.load()
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)


def test_bad_names_and_units_are_caught():
    bench = benchspec.load()
    bad = copy.deepcopy(bench)
    bad["per_layer"][0]["name"] = "has space"
    bad["per_layer"][1]["unit"] = "milli seconds"
    bad["end_to_end"] = [m for m in bad["end_to_end"]
                         if m["name"] != "setup_s"]
    errors = benchspec.validate_spec(bad)
    assert any("bad name" in e for e in errors)
    assert any("bad unit" in e for e in errors)
    assert any("setup_s" in e for e in errors)


def _result(bench, traced):
    return {"correct": True, "attempted": 3, "failed": 0,
            "metrics": {m["name"]: {"value": 1.5, "unit": m["unit"]}
                        for m in benchspec.metrics(bench, traced)}}


def test_result_schema_accepts_a_full_result():
    bench = benchspec.load()
    for traced in (False, True):
        assert benchspec.validate_result(_result(bench, traced), bench,
                                         traced) == []


def test_result_schema_rejects_what_the_driver_would():
    bench = benchspec.load()
    good = _result(bench, False)
    assert benchspec.validate_result(_result(bench, True), bench, False)
    for mutate in (
        lambda r: r.update(extra=1),
        lambda r: r.update(attempted=0),
        lambda r: r.update(failed=0.5),
        lambda r: r["metrics"].pop("setup_s"),
        lambda r: r["metrics"]["setup_s"].update(value=None),
        lambda r: r["metrics"]["setup_s"].update(value=float("nan")),
        lambda r: r["metrics"]["setup_s"].update(unit="ms"),
    ):
        bad = copy.deepcopy(good)
        mutate(bad)
        assert benchspec.validate_result(bad, bench, False), mutate
