"""Phase timers on the production path and on the eager oracle.

The step's timer regions (GPTL-style, §VI-C) are phase marks on the
node route, so a replayed step reports its phases exactly as an eager
step does: every phase counts once per step (canuto once per its
cadence), the phases cover the step, a traced replay nests one span per
phase in its ``graph_replay``, and a replay that raises leaves no region
open.
"""

import re

import pytest

from repro.cli import main
from repro.kokkos import LaunchGraph
from repro.ocean import LICOMKpp, ModelParams, demo

#: The step's phases, in entry order (canuto runs on its cadence).
PHASES = ["eos_pressure", "canuto", "w_diag", "momentum", "barotropic",
          "tracer", "filter"]


@pytest.mark.parametrize("graph", [True, False], ids=["sealed", "eager"])
@pytest.mark.parametrize("backend", ["athread", "serial"])
def test_every_step_reports_its_phases(backend, graph):
    steps = 8
    m = LICOMKpp(demo("small"), backend=backend,
                 params=ModelParams(graph=graph, canuto_every=2))
    try:
        m.run_steps(steps)
        if graph:
            # the startup graph and six leapfrog (phase, canuto) graphs
            assert sum(g.replays for g in m._graphs.values()) == steps - 7
    finally:
        m.close()
    t = m.timers
    assert t.count("step") == steps
    assert {p: t.count(p) for p in PHASES} == {
        p: steps // 2 if p == "canuto" else steps for p in PHASES}
    covered = sum(t.total(p) for p in PHASES)
    assert covered <= t.total("step")
    assert covered >= 0.98 * t.total("step")


def test_traced_replay_nests_one_span_per_phase():
    m = LICOMKpp(demo("tiny"), params=ModelParams(trace=True))
    try:
        m.run_steps(5)      # four captures, then one replay
        spans = m.context.tracer.closed_spans()
    finally:
        m.close()
    replay, = [s for s in spans if s.name == "graph_replay"]
    end = replay.ts + replay.dur
    inside = [s for s in spans if s.cat == "timer" and s.tid == replay.tid
              and replay.ts <= s.ts and s.ts + s.dur <= end]
    assert sorted(s.name for s in inside) == sorted(["step", *PHASES])
    step, = [s for s in inside if s.name == "step"]
    assert step.depth == replay.depth + 1
    assert all(s.depth == step.depth + 1 for s in inside if s is not step)


def test_a_replay_that_raises_leaves_no_region_open():
    m = LICOMKpp(demo("tiny"), params=ModelParams(trace=True))
    try:
        m.run_steps(4)      # every variant sealed: the next step replays
        assert len(m._graphs) == 4
        real = m.halo.update_many

        def broken(fields, phase=None):
            raise RuntimeError("planted exchange failure")

        m.halo.update_many = broken
        with pytest.raises(RuntimeError, match="planted"):
            m.step()
        assert m.context.tracer.open_depth() == 0
        m.halo.update_many = real
        m.step()
    finally:
        m.close()
    t = m.timers
    # the failed replay entered and left every phase before the first
    # exchange (halo_momentum, after momentum); the rest only in the
    # five good steps
    assert t.count("step") == 6
    assert {p: t.count(p) for p in PHASES} == {
        p: 6 if PHASES.index(p) <= PHASES.index("momentum") else 5
        for p in PHASES}


def test_run_timers_counts_every_step(capsys, monkeypatch):
    replays = []
    replay = LaunchGraph.replay
    monkeypatch.setattr(LaunchGraph, "replay",
                        lambda g: (replays.append(g), replay(g)))
    # half a day is six steps: four captures, then two replays
    assert main(["run", "--size", "tiny", "--days", "0.5", "--timers"]) == 0
    counts = dict(re.findall(r"^\s*(\w+)\s+(\d+)\s+\d",
                             capsys.readouterr().out, re.M))
    assert int(counts["step"]) == 4 + len(replays) > 4
    assert {p: counts[p] for p in PHASES} == {p: counts["step"] for p in PHASES}
