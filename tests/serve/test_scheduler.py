"""ServeScheduler: admission, sharing, timeouts, leaks, artifacts."""

from __future__ import annotations

import json
import os
import threading

import numpy as np
import pytest

from repro.errors import AdmissionError
from repro.kokkos.context import ExecutionContext
from repro.ocean import LICOMKpp, demo
from repro.ocean.model import STATE_FIELDS
from repro.parallel.shm import SEGMENT_PREFIX, _SHM_DIR
from repro.serve import JobSpec, JobStatus, ServeScheduler
from repro.trace import validate_chrome_trace

from .programs import boom, ring, wedge


def read_probes(path):
    """A job's ``probes.jsonl`` as row dicts; a trailing partial line
    (a write the process died inside) is skipped."""
    rows = []
    with open(path) as fh:
        for line in fh:
            try:
                rows.append(json.loads(line))
            except json.JSONDecodeError:
                break
    return rows

WAIT = 300.0


def _shm_segments():
    try:
        entries = os.listdir(_SHM_DIR)
    except OSError:
        return []
    return sorted(e for e in entries if e.startswith(SEGMENT_PREFIX))


def _opened_since(before):
    """Contexts open now that ``before`` (an earlier ``live_contexts()``)
    does not hold.  The audit compares identities, not counts: the live
    set is weak, so an unclosed stray of some earlier test disappears
    whenever the collector runs -- between two counts, if it likes.
    Holding ``before`` also keeps such strays alive until the test ends.
    """
    return [c for c in ExecutionContext.live_contexts()
            if not any(c is b for b in before)]


def _bitwise(a, b):
    return all(np.array_equal(a["state"][f], b["state"][f])
               for f in STATE_FIELDS)


@pytest.fixture()
def sched(tmp_path):
    s = ServeScheduler(workers=2, artifacts=tmp_path / "artifacts")
    yield s
    s.shutdown()


class TestAdmission:
    def test_every_accepted_job_has_a_quote(self, sched):
        job = sched.submit(JobSpec(name="quoted", steps=3))
        assert job.quote is not None
        assert job.quote.eta_seconds > 0
        assert job.quote.cost_unit_seconds > 0
        assert job.quote.machine == "gpu_workstation"
        assert job.wait(WAIT) and job.status is JobStatus.DONE

    def test_quote_scales_with_steps_and_ranks(self, sched):
        small = sched.submit(JobSpec(name="small", steps=2))
        big = sched.submit(JobSpec(name="big", steps=8))
        assert big.quote.eta_seconds == pytest.approx(
            4 * small.quote.eta_seconds)
        wide = sched.submit(JobSpec(name="wide", steps=2, ranks=2,
                                    timeout=WAIT))
        assert wide.quote.units == 2
        sched.wait_all(WAIT)

    def test_over_budget_rejected_with_quote_in_error(self, tmp_path):
        s = ServeScheduler(workers=1, budget=1.0e-9,
                           artifacts=tmp_path / "a")
        try:
            with pytest.raises(AdmissionError, match="over budget"):
                s.submit(JobSpec(name="pricey", steps=4))
            rejected = [j for j in s.jobs.values()
                        if j.status is JobStatus.REJECTED]
            assert len(rejected) == 1
            assert "unit-seconds" in rejected[0].error
            # the pool keeps serving after a rejection
            s.budget = None
            ok = s.submit(JobSpec(name="cheap", steps=1))
            assert ok.wait(WAIT) and ok.status is JobStatus.DONE
        finally:
            s.shutdown()

    def test_submit_many_returns_the_rejected_record_in_place(self, sched):
        """A batch keeps its order: the over-budget job comes back as
        the REJECTED record the scheduler lists, a malformed spec (no
        record was made) is left out."""
        first = sched.submit(JobSpec(name="cheap", steps=1))
        sched.budget = 2.0 * first.quote.cost_unit_seconds
        jobs = sched.submit_many([JobSpec(name="cheap2", steps=1),
                                  JobSpec(name="pricey", steps=400),
                                  JobSpec(name="bad", ranks=0),
                                  JobSpec(name="cheap3", steps=1)])
        assert [j.spec.name for j in jobs] == ["cheap2", "pricey", "cheap3"]
        assert jobs[1].status is JobStatus.REJECTED
        assert sched.jobs[jobs[1].id] is jobs[1]
        assert sorted(sched.jobs) == [0, 1, 2, 3]
        assert sched.wait_all(WAIT)

    def test_malformed_spec_rejected_before_queue(self, sched):
        with pytest.raises(AdmissionError):
            sched.submit(JobSpec(name="bad", ranks=0))

    def test_submit_after_shutdown_refused(self, tmp_path):
        s = ServeScheduler(workers=1, artifacts=tmp_path / "a")
        s.shutdown()
        with pytest.raises(AdmissionError, match="shut down"):
            s.submit(JobSpec(name="late"))


class TestSharing:
    def test_identical_pair_shares_engine_bitwise(self, sched):
        """The acceptance gate: two same-signature jobs, one engine,
        >= 1 cache hit, each bitwise identical to a solo run."""
        a = sched.submit(JobSpec(name="pair0", steps=4))
        b = sched.submit(JobSpec(name="pair1", steps=4))
        assert sched.wait_all(WAIT)
        assert a.status is JobStatus.DONE and b.status is JobStatus.DONE
        assert a.spec.shareable and b.spec.shareable
        stats = sched.cache.stats()
        assert stats["hits"] >= 1
        assert stats["engines"] == 1
        assert _bitwise(a.result, b.result)

        solo = LICOMKpp(demo("tiny"))
        try:
            solo.run_steps(4)
            for f in STATE_FIELDS:
                np.testing.assert_array_equal(
                    a.result["state"][f],
                    getattr(solo.state, f).cur.raw, err_msg=f)
        finally:
            solo.close()

    def test_shared_engine_reports_graph_replays(self, sched):
        a = sched.submit(JobSpec(name="g0", steps=3))
        b = sched.submit(JobSpec(name="g1", steps=3))
        assert sched.wait_all(WAIT)
        # the engine's sealed graphs replayed across both jobs
        graphs = b.result["graphs"] + a.result["graphs"]
        assert any(g["replays"] >= 1 for g in graphs)
        assert all(g["sealed"] for g in graphs)

    def test_different_signatures_get_different_engines(self, sched):
        a = sched.submit(JobSpec(name="dbl", steps=2))
        b = sched.submit(JobSpec(name="sgl", steps=2, precision="single"))
        assert sched.wait_all(WAIT)
        stats = sched.cache.stats()
        assert stats["engines"] == 2 and stats["hits"] == 0

    def test_concurrent_engines_keep_private_ledgers(self, tmp_path):
        """Two engines stepped by two workers at once: each engine's
        launch count equals the same spec served alone — nothing of the
        neighbour's lands in its ledger."""
        specs = [JobSpec(name="ser", steps=5),
                 JobSpec(name="ath", steps=5, backend="athread", seed=7)]

        def served(batch, workers, tag):
            with ServeScheduler(workers=workers,
                                artifacts=tmp_path / tag) as s:
                jobs = s.submit_many(batch)
                assert s.wait_all(WAIT)
                assert all(j.status is JobStatus.DONE for j in jobs)
                ledgers = {sig: eng.model.context.inst
                           for sig, eng in s.cache._engines.items()}
                return {sig: inst.total_launches
                        for sig, inst in ledgers.items()}, ledgers

        solo = {}
        for spec in specs:
            counts, _ = served([spec], 1, f"solo-{spec.name}")
            solo.update(counts)
        together, ledgers = served(specs, 2, "pair")
        assert len({id(inst) for inst in ledgers.values()}) == 2
        assert together == solo
        assert all(n > 0 for n in together.values())


class TestRunToken:
    def test_workers_step_one_at_a_time_and_write_outside_the_token(
            self, sched, monkeypatch):
        """Two workers, four engines: never two workers inside
        ``step()`` at once (they would only trade the GIL), while the
        checkpoint and final-state writes run without the token so they
        overlap the other worker's stepping."""
        from repro.serve import scheduler as sched_module

        guard = threading.Lock()
        inside = {"now": 0, "peak": 0, "steps": 0}
        step = LICOMKpp.step

        def counted_step(model):
            with guard:
                inside["now"] += 1
                inside["steps"] += 1
                inside["peak"] = max(inside["peak"], inside["now"])
            try:
                return step(model)
            finally:
                with guard:
                    inside["now"] -= 1

        writes = []

        def outside_token(fn, label):
            def wrapped(*args, **kwargs):
                writes.append(
                    (label, sched._run.owner == threading.get_ident()))
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(LICOMKpp, "step", counted_step)
        monkeypatch.setattr(sched_module, "save_restart", outside_token(
            sched_module.save_restart, "checkpoint"))
        monkeypatch.setattr(np, "savez_compressed", outside_token(
            np.savez_compressed, "archive"))

        jobs = sched.submit_many([
            JobSpec(name=f"sig{i}", steps=6, seed=20 + i,
                    checkpoint_every=3, save_final=True)
            for i in range(4)])
        assert sched.wait_all(WAIT)
        assert all(j.status is JobStatus.DONE for j in jobs)
        assert sched.cache.stats()["engines"] == 4
        assert inside["steps"] == 4 * 6
        assert inside["peak"] == 1
        # save_restart compresses through numpy too: 8 checkpoints, and
        # 8 + 4 archive writes, none of them by the token's holder
        assert [w for w in writes if w[0] == "checkpoint"] \
            == [("checkpoint", False)] * 8
        assert [w for w in writes if w[0] == "archive"] \
            == [("archive", False)] * 12
        assert sched._run.owner is None


class TestTimeouts:
    def test_deadline_fails_job_not_scheduler(self, sched):
        slow = sched.submit(JobSpec(name="slow", steps=100000,
                                    size="small", timeout=0.3))
        assert slow.wait(WAIT)
        assert slow.status is JobStatus.FAILED
        assert "JobTimeout" in slow.error
        after = sched.submit(JobSpec(name="after", steps=1))
        assert after.wait(WAIT) and after.status is JobStatus.DONE

    def test_wedged_program_surfaces_communication_error(self, sched):
        """The per-job timeout reaches SimWorld: a deadlocked program
        dies with CommunicationError instead of wedging the pool."""
        stuck = sched.submit(JobSpec(name="stuck", steps=0, ranks=2,
                                     program=wedge, timeout=2.0))
        assert stuck.wait(WAIT)
        assert stuck.status is JobStatus.FAILED
        assert "CommunicationError" in stuck.error
        after = sched.submit(JobSpec(name="after", steps=1))
        assert after.wait(WAIT) and after.status is JobStatus.DONE

    def test_program_job_roundtrip(self, sched):
        job = sched.submit(JobSpec(name="ring", steps=0, ranks=3,
                                   program=ring, args=(10,), timeout=WAIT))
        assert job.wait(WAIT) and job.status is JobStatus.DONE
        assert sorted(job.result["results"]) == [10, 11, 12]


class TestLeaks:
    @pytest.fixture(autouse=True)
    def stray_context(self):
        """An unclosed context in a reference cycle, dropped just before
        the test: open until the cycle collector next runs, which is
        what an earlier test's leftovers look like to the audit."""
        stray = ExecutionContext("serial")
        stray.cycle = stray

    def test_failing_process_job_leaves_no_segments_or_contexts(
            self, tmp_path):
        """The leak audit gate: a failed process-mode job leaves no shm
        segments and no live contexts once the scheduler shuts down."""
        segments_before = _shm_segments()
        contexts_before = ExecutionContext.live_contexts()
        s = ServeScheduler(workers=1, artifacts=tmp_path / "a")
        try:
            bad = s.submit(JobSpec(name="bad", steps=0, ranks=2,
                                   mode="process", program=boom,
                                   timeout=60.0))
            assert bad.wait(WAIT)
            assert bad.status is JobStatus.FAILED
            assert "RuntimeError" in bad.error \
                or "RemoteRankError" in bad.error
        finally:
            report = s.shutdown()
        assert _shm_segments() == segments_before
        assert _opened_since(contexts_before) == []
        assert report["cache"]["engines"] == 0

    def test_failed_single_rank_job_closes_engine_on_shutdown(
            self, tmp_path):
        contexts_before = ExecutionContext.live_contexts()
        s = ServeScheduler(workers=1, artifacts=tmp_path / "a")
        try:
            j = s.submit(JobSpec(name="t", steps=10**6, size="small",
                                 timeout=0.2))
            assert j.wait(WAIT) and j.status is JobStatus.FAILED
        finally:
            s.shutdown()
        assert _opened_since(contexts_before) == []


class TestArtifacts:
    def test_probe_stream_rows(self, sched):
        job = sched.submit(JobSpec(name="probed", steps=4, probe_every=2))
        assert job.wait(WAIT) and job.status is JobStatus.DONE
        rows = read_probes(job.artifacts / "probes.jsonl")
        assert [r["step"] for r in rows] == [2, 4]
        for r in rows:
            assert np.isfinite(r["ke"]) and np.isfinite(r["sst_max"])
        assert job.result["probe_rows"] == 2

    def test_trace_export_is_valid_chrome_trace(self, sched):
        job = sched.submit(JobSpec(name="traced", steps=2, trace=True))
        assert job.wait(WAIT) and job.status is JobStatus.DONE
        trace = json.loads((job.artifacts / "trace.json").read_text())
        assert validate_chrome_trace(trace) == []
        names = {e.get("name") for e in trace["traceEvents"]}
        assert any("step" in (n or "") for n in names)

    def test_final_state_saved(self, sched):
        job = sched.submit(JobSpec(name="saved", steps=2))
        assert job.wait(WAIT) and job.status is JobStatus.DONE
        with np.load(job.artifacts / "final.npz") as data:
            for f in STATE_FIELDS:
                np.testing.assert_array_equal(
                    data[f], job.result["state"][f])


class TestMultiRank:
    def test_thread_world_job_matches_solo_distributed(self, sched):
        job = sched.submit(JobSpec(name="mr", steps=2, ranks=2,
                                   timeout=WAIT))
        assert job.wait(WAIT) and job.status is JobStatus.DONE
        assert job.result["ranks"] == 2
        from repro.ocean.model import run_distributed
        results, _ = run_distributed(demo("tiny"), 2, 2)
        np.testing.assert_array_equal(
            job.result["state"]["t"], results[0].state["t"])


class TestStatus:
    def test_status_summary(self, sched):
        a = sched.submit(JobSpec(name="one", steps=1))
        assert a.wait(WAIT)
        st = sched.status()
        assert st["counts"].get("done") == 1
        row = st["jobs"][0]
        assert row["name"] == "one" and "quote" in row
        # the whole status dict is JSON-serialisable (CLI contract)
        json.dumps(st)
