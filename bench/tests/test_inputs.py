"""Knob-tolerant builders and the seeded job stream."""

import dataclasses

from bench.inputs import build_tolerant, serve_job, serve_signatures


@dataclasses.dataclass
class Inner:
    depth: float = 2.0


@dataclasses.dataclass
class Params:
    graph: bool = False
    precision: str = "double"
    inner: Inner = dataclasses.field(default_factory=Inner)


def test_deleted_knobs_are_dropped_not_raised():
    obj, effective, dropped = build_tolerant(
        Params, graph=True, jit=True, arena=True)
    assert obj.graph is True
    assert dropped == ["arena", "jit"]
    assert effective == {"graph": True, "precision": "double",
                         "inner": {"depth": 2.0}}


def test_effective_params_record_defaults_too():
    _, effective, dropped = build_tolerant(Params)
    assert dropped == [] and effective["graph"] is False


def test_real_dataclasses_accept_what_the_workloads_ask():
    from repro.ocean.model import ModelParams
    from repro.serve import JobSpec
    from bench.workloads import PRODUCTION

    params, effective, dropped = build_tolerant(
        ModelParams, trace=False, **PRODUCTION)
    assert not dropped and effective["graph"] is True
    spec, _, dropped = build_tolerant(JobSpec, **serve_job(3, 0))
    assert not dropped
    spec.validate()


def test_job_stream_is_a_function_of_seed_and_index():
    assert serve_job(5, 11) == serve_job(5, 11)
    assert [serve_job(5, i) for i in range(12)] == \
        [serve_job(5, i) for i in range(12)]
    assert any(serve_job(5, i) != serve_job(6, i) for i in range(12))


def test_first_eight_jobs_visit_every_signature_once():
    for seed in (1, 2, 3):
        first = {(j["backend"], j["precision"], j["seed"])
                 for j in (serve_job(seed, i) for i in range(8))}
        assert first == set(serve_signatures(seed))
        later = [serve_job(seed, i) for i in range(8, 60)]
        assert {j["steps"] for j in later} == {10, 20}
        assert all((j["backend"], j["precision"], j["seed"]) in first
                   for j in later)
