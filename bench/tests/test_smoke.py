"""``run.py --smoke`` end to end: all five workloads, both run kinds."""

import json
import subprocess
import sys
import time

from bench import spec as benchspec
from bench.host import ROOT, nproc
from bench.workloads import WORKLOADS

RUN = [sys.executable, str(ROOT / "bench" / "run.py")]


def _run(args, tmp_path):
    out = tmp_path / "set.json"
    t0 = time.perf_counter()
    proc = subprocess.run(RUN + args + ["--smoke", "--out", str(out)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(out.read_text()), proc.stdout, time.perf_counter() - t0


def test_smoke_set_runs_all_five_workloads_in_under_a_minute(tmp_path):
    bench = benchspec.load()
    result, stdout, took = _run([], tmp_path)
    assert took < 60.0
    assert list(result["summary"]) == list(WORKLOADS)
    assert result["host"]["nproc"] == nproc()
    for rec in result["runs"]:
        w = WORKLOADS[rec["workload"]]
        if nproc() < w.min_cores:
            assert rec["status"] == "skipped" and rec["reason"]
            continue
        assert rec["status"] == "ok"
        assert rec["failed"] == 0, rec["checks"]
        assert rec["steps"] <= 80           # 20 steps, or 4 jobs of <= 20
        assert all(rec["metrics"][m["name"]] > 0
                   for m in bench["end_to_end"])
        assert rec["params"] and rec["dropped"] == []
        names = {c["name"] for c in rec["checks"]}
        assert {"finite_state", "no_live_context", "no_shm_leak"} <= names
    if nproc() >= 2:
        assert [c["ok"] for c in result["cross_checks"]] == [True]
    last = json.loads(stdout.strip().splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0
    assert not (ROOT / ".bench_work").exists()


def test_single_workload_prints_the_contract_line(tmp_path):
    bench = benchspec.load()
    for traced in (False, True):
        _, stdout, _ = _run(["--workload", "single-athread-small",
                             "--trace", str(int(traced))], tmp_path)
        last = json.loads(stdout.strip().splitlines()[-1])
        assert benchspec.validate_result(last, bench, traced) == []
        assert last["correct"] is True
        # every metric is printed by name with its unit
        for m in benchspec.metrics(bench, traced):
            assert f"  {m['name']} = " in stdout


def test_traced_smoke_reports_every_layer_metric_or_null(tmp_path):
    bench = benchspec.load()
    result, _, _ = _run(["--traced"], tmp_path)
    listed = {m["name"] for m in bench["per_layer"]}
    for rec in result["runs"]:
        if rec["status"] != "ok":
            continue
        assert rec["failed"] == 0, rec["checks"]
        assert set(rec["metrics"]) <= listed
        closed = rec["metrics"]["model.budget_closed_frac"]
        assert closed is not None and 0.5 < closed <= 1.0
    by = {r["workload"]: r["metrics"] for r in result["runs"]
          if r["status"] == "ok"}
    assert by["single-athread-small"]["backends.dma_bytes_per_step"] > 0
    assert by["single-serial-medium"]["graph.launches_per_replay"] is None
    assert by["serve-ensemble-small"]["share.misses"] == 4
    assert by["serve-ensemble-small"]["restart.load_ms_p50"] > 0
    if "ranks2-process-small" in by:
        assert by["ranks2-process-small"]["procworld.spawn_ms"] > 0
        assert by["ranks2-process-small"]["procworld.shm_segments_leaked"] == 0


def test_without_the_program_sources_it_fails_without_a_result(tmp_path):
    bare = tmp_path / "bare"
    (bare / "bench").mkdir(parents=True)
    for path in (ROOT / "bench").glob("*.py"):
        (bare / "bench" / path.name).write_text(path.read_text())
    (bare / "BENCHMARK.json").write_text(
        (ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "single-athread-small",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
