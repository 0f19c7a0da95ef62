"""Scratch belongs to an arena, not to the thread that takes it.

A model's arena is used by one thread at a time, whichever thread steps
the model: an engine warmed on one thread and stepped on another holds
one set of scratch, and the second thread allocates nothing.  The only
concurrent bodies, an OpenMP launch's chunks, each run on their own
chunk arena (``Workspace.chunk``), bound once when the plan is built:
chunk 0 on the model's arena, chunk ``c`` on ``ws.chunk(c)``.
"""

import hashlib
import threading
from dataclasses import dataclass

import numpy as np

from repro.kokkos import (
    ExecutionContext,
    Instrumentation,
    OpenMPBackend,
    RangePolicy,
    SerialBackend,
    Workspace,
)
from repro.ocean import LICOMKpp, demo
from repro.ocean.model import ModelParams

#: startup and the three leapfrog phase captures, then the first replay
WARMUP = 5


def _state_hash(model) -> str:
    h = hashlib.sha256()
    st = model.state
    for fld in [st.t, st.s, st.u, st.v, st.ssh, *st.passive]:
        for lvl in (fld.old, fld.cur, fld.new):
            h.update(np.ascontiguousarray(lvl.raw).tobytes())
    return h.hexdigest()


def _on_thread(fn) -> None:
    """Run ``fn`` on a fresh daemon thread and re-raise what it raised."""
    errors = []

    def body():
        try:
            fn()
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)

    t = threading.Thread(target=body, daemon=True)
    t.start()
    t.join(timeout=120)
    assert not t.is_alive(), "stepping thread did not finish"
    if errors:
        raise errors[0]


def test_a_second_thread_steps_on_the_same_scratch():
    m = LICOMKpp(demo("small"), backend="athread")
    try:
        m.run_steps(WARMUP)
        ws, led = m.domain.workspace, m.context.inst.workspace
        allocations, held = led.allocations, ws.pooled_nbytes()
        requests = led.requests
        _on_thread(lambda: m.run_steps(3))
        assert led.requests > requests
        assert led.allocations == allocations
        assert ws.pooled_nbytes() == held
    finally:
        m.close()


def test_openmp_chunks_own_their_arenas():
    oracle = LICOMKpp(demo("small"), backend="serial",
                      params=ModelParams(graph=False))
    oracle.run_steps(WARMUP + 3)
    ctx = ExecutionContext("openmp", threads=3)
    try:
        m = LICOMKpp(demo("small"), backend=ctx)
        m.run_steps(WARMUP)
        ws, led = m.domain.workspace, ctx.inst.workspace
        allocations = led.allocations
        m.run_steps(3)
        assert led.allocations == allocations   # replays allocate nothing
        assert _state_hash(m) == _state_hash(oracle)
        one, two = ws.chunk(1), ws.chunk(2)
        assert len({id(ws), id(one), id(two)}) == 3
        assert one.pooled_nbytes() > 0 and two.pooled_nbytes() > 0
        assert ws.pooled_nbytes() > one.pooled_nbytes() + two.pooled_nbytes()
    finally:
        ctx.close()
        oracle.close()
    assert ws.pooled_nbytes() == 0
    assert one.pooled_nbytes() == 0 and two.pooled_nbytes() == 0


@dataclass
class _Domain:
    workspace: Workspace


class _Probe:
    """Records, per chunk start, the arenas its body saw (direct and
    through a bound dataclass) and takes scratch from both."""

    def __init__(self, ws: Workspace, dom: _Domain, seen: dict) -> None:
        self.ws, self.dom, self.seen = ws, dom, seen

    def _visit(self, s: slice) -> None:
        self.seen[s.start] = (self.ws, self.dom.workspace)
        self.ws.take("a", (s.stop - s.start,))
        self.dom.workspace.take("b", (s.stop - s.start,))

    def apply(self, slices) -> None:
        self._visit(slices[0])

    def reduce_apply(self, slices) -> float:
        self._visit(slices[0])
        return 1.0


def test_each_chunk_binds_its_own_arena():
    ws = Workspace(inst=Instrumentation())
    seen: dict = {}
    probe = _Probe(ws, _Domain(ws), seen)
    space = OpenMPBackend(threads=3)
    try:
        space.parallel_for("probe", RangePolicy(0, 9), probe)
        want = {0: (ws, ws), 3: (ws.chunk(1),) * 2, 6: (ws.chunk(2),) * 2}
        assert seen == want
        allocations = ws.inst.workspace.allocations
        seen.clear()
        assert space.parallel_reduce("probe", RangePolicy(0, 9), probe) == 3.0
        assert seen == want
        assert ws.inst.workspace.allocations == allocations
    finally:
        space.shutdown()
    # the launch bound copies: the functor and its domain keep the arena
    assert probe.ws is ws and probe.dom.workspace is ws


def test_a_single_chunk_binds_nothing_new():
    ws = Workspace(inst=Instrumentation())
    seen: dict = {}
    SerialBackend().parallel_for("probe", RangePolicy(0, 9),
                                 _Probe(ws, _Domain(ws), seen))
    assert seen == {0: (ws, ws)}
    assert ws.pooled_nbytes() == 2 * 9 * 8
