"""JobSpec validation, signatures, and jobspec-file loading."""

from __future__ import annotations

import json

import pytest

from repro.errors import AdmissionError
from repro.serve import JobSpec, JobStatus, load_jobspecs, spec_from_dict


class TestValidation:
    def test_defaults_are_valid(self):
        JobSpec(name="ok").validate()

    @pytest.mark.parametrize("kwargs", [
        {"name": ""},
        {"name": "a/b"},
        {"name": "x", "steps": 0},
        {"name": "x", "ranks": 0},
        {"name": "x", "mode": "fork"},
        {"name": "x", "timeout": 0.0},
        {"name": "x", "timeout": -1.0},
        {"name": "x", "probe_every": -1},
        {"name": "x", "checkpoint_every": -2},
    ])
    def test_malformed_specs_rejected(self, kwargs):
        with pytest.raises(AdmissionError):
            JobSpec(**kwargs).validate()

    def test_program_job_needs_no_steps(self):
        JobSpec(name="p", steps=0, program=len).validate()

    def test_undecomposable_rank_count_rejected(self):
        # choose_process_grid(109, 180, 64) picks 8 x 8, whose top row
        # the tripolar fold cannot pair up; a worker would fail later
        with pytest.raises(AdmissionError, match="tripolar-fold partner"):
            JobSpec(name="big", size="large", ranks=64).validate()

    def test_decomposable_rank_count_admitted(self):
        JobSpec(name="big", size="large", ranks=60).validate()   # 6 x 10

    def test_demo_jobspec_file_admits_every_job(self):
        """examples/jobs_demo.json loads whole; its priced-out job is
        refused by the budget, not by the decomposition."""
        from pathlib import Path

        from repro.perfmodel import quote_job

        path = Path(__file__).resolve().parents[2] / "examples" / "jobs_demo.json"
        specs = {s.name: s for s in load_jobspecs(path)}
        big = specs["priced-out"]
        quote = quote_job(big.config(), machine=big.machine, units=big.ranks,
                          steps=big.steps, precision=big.precision)
        assert quote.cost_unit_seconds > 1e4     # README's --budget 1e4


class TestSignature:
    def test_identical_specs_share(self):
        a = JobSpec(name="a", steps=4, checkpoint_every=2)
        b = JobSpec(name="b", steps=9, timeout=5.0)
        # steps / cadences / timeouts are per-job, not engine shape
        assert a.share_signature() == b.share_signature()

    @pytest.mark.parametrize("kwargs", [
        {"size": "small"},
        {"backend": "openmp"},
        {"precision": "single"},
        {"backend": "athread"},
        {"n_passive": 1},
        {"seed": 7},
        {"trace": True},
    ])
    def test_engine_shaping_fields_split(self, kwargs):
        base = JobSpec(name="a")
        other = JobSpec(name="b", **kwargs)
        assert base.share_signature() != other.share_signature()

    def test_shareable(self):
        assert JobSpec(name="a").shareable
        assert not JobSpec(name="a", ranks=2).shareable
        assert not JobSpec(name="a", mode="process").shareable
        assert not JobSpec(name="a", program=len).shareable


class TestJobspecFile:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "jobs.json"
        path.write_text(json.dumps({"jobs": [
            {"name": "m0", "steps": 2},
            {"name": "m1", "steps": 3, "precision": "single",
             "args": [1, 2]},
        ]}))
        specs = load_jobspecs(path)
        assert [s.name for s in specs] == ["m0", "m1"]
        assert specs[1].precision == "single"
        assert specs[1].args == (1, 2)

    def test_bare_list_accepted(self, tmp_path):
        path = tmp_path / "jobs.json"
        path.write_text(json.dumps([{"name": "solo"}]))
        assert load_jobspecs(path)[0].name == "solo"

    def test_unknown_key_rejected(self):
        with pytest.raises(AdmissionError, match="unknown keys"):
            spec_from_dict({"name": "x", "stepz": 4})

    def test_retired_jit_key_rejected(self):
        # the compiled tier is part of the sealed graph, not a spec field
        with pytest.raises(AdmissionError, match=r"unknown keys \['jit'\]"):
            spec_from_dict({"name": "x", "jit": True})

    def test_retired_graph_key_rejected(self):
        # every job steps the sealed graph; there is no path to choose
        with pytest.raises(AdmissionError, match=r"unknown keys \['graph'\]"):
            spec_from_dict({"name": "x", "graph": True})

    def test_nameless_rejected(self):
        with pytest.raises(AdmissionError, match="without a name"):
            spec_from_dict({"steps": 4})

    def test_non_list_file_rejected(self, tmp_path):
        path = tmp_path / "jobs.json"
        path.write_text(json.dumps({"jobs": 3}))
        with pytest.raises(AdmissionError):
            load_jobspecs(path)


def test_job_status_values():
    assert {s.value for s in JobStatus} == {
        "pending", "running", "done", "failed", "rejected"}


class TestServeCli:
    def test_malformed_jobspec_file_is_one_error_line(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "jobs.json"
        path.write_text(json.dumps([{"name": "zero", "steps": 0}]))
        code = main(["serve", "--jobs", str(path),
                     "--artifacts", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "error: job 'zero': steps must be >= 1\n"
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()   # nothing was served
