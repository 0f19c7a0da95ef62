"""LaunchGraph capture/replay, workspace arena and thread utilities.

Unit-level coverage for the step-graph machinery: capture discipline,
launch fusion (bitwise-identical to the eager sequence, dependent
stencil chains included), the unfused replay on ``run_for``-intercepting
spaces, the athread sealed plan's batched DMA/LDM accounting, the workspace arena's
allocation counting and the ``REPRO_NUM_THREADS`` override of the OpenMP backend.  Model-level
bitwise replay tests live in ``tests/ocean/test_graph_replay.py``.
"""

import numpy as np
import pytest

from repro.kokkos import (
    AthreadBackend,
    DeviceBackend,
    Instrumentation,
    MDRangePolicy,
    OpenMPBackend,
    SerialBackend,
    View,
    kokkos_register_for,
)
from repro.kokkos.graph import ExchangeNode, LaunchGraph, RotateNode
from repro.kokkos.workspace import Workspace
from tests.conftest import FakeHalo, intercepting


@kokkos_register_for("graphtest_scale", ndim=2)
class ScaleFunctor:
    """x *= a (elementwise, fusible)."""

    flops_per_point = 1.0
    bytes_per_point = 16.0
    stencil_halo = 0

    def __init__(self, x: View, a: float) -> None:
        self.x = x
        self.a = a

    def __call__(self, j: int, i: int) -> None:
        self.x.data[j, i] *= self.a

    def apply(self, slices) -> None:
        idx = tuple(slices)
        self.x.data[idx] *= self.a


@kokkos_register_for("graphtest_shift", ndim=2)
class ShiftFunctor:
    """x += b (elementwise, fusible)."""

    flops_per_point = 1.0
    bytes_per_point = 16.0
    stencil_halo = 0

    def __init__(self, x: View, b: float) -> None:
        self.x = x
        self.b = b

    def __call__(self, j: int, i: int) -> None:
        self.x.data[j, i] += self.b

    def apply(self, slices) -> None:
        idx = tuple(slices)
        self.x.data[idx] += self.b


@kokkos_register_for("graphtest_stencil", ndim=2)
class StencilFunctor:
    """out = x shifted east (stencil_halo=1)."""

    flops_per_point = 1.0
    bytes_per_point = 16.0
    stencil_halo = 1

    def __init__(self, x: View, out: View) -> None:
        self.x = x
        self.out = out

    def apply(self, slices) -> None:
        sj, si = slices
        shifted = slice(si.start + 1, si.stop + 1)
        self.out.data[sj, si] = self.x.data[sj, shifted]


def _record_sequence(graph: LaunchGraph, x: View, events: list) -> None:
    """The reference three-launch sequence used by the fusion tests: an
    exchange of ``x`` (logged into ``events``) separates the last launch."""
    pol = MDRangePolicy([(0, x.shape[0]), (0, x.shape[1])])
    graph.add_kernel("scale", pol, ScaleFunctor(x, 1.5))
    graph.add_kernel("shift", pol, ShiftFunctor(x, 2.0))
    graph.add(ExchangeNode("halo_x", graph.space, FakeHalo(events),
                           [(x, 1.0, 0.0)]))
    graph.add_kernel("scale2", pol, ScaleFunctor(x, 0.5))


#: space factories for the dependent-chain fusion matrix
CHAIN_SPACES = {
    "serial": lambda: SerialBackend(inst=Instrumentation()),
    "openmp": lambda: OpenMPBackend(threads=3, inst=Instrumentation()),
    "athread": lambda: AthreadBackend(inst=Instrumentation()),
    "cuda": lambda: DeviceBackend("cuda", inst=Instrumentation()),
}


def _chain(space, graph: bool):
    """scale writes x, the stencil reads x one column east: a dependent
    chain.  Runs it eagerly or sealed; returns (x, out) host arrays."""
    mem = space.memory_space
    start = np.random.default_rng(11).normal(size=(32, 50))
    x = View("x", data=start.copy(), space=mem)
    out = View("out", data=np.zeros((32, 50)), space=mem)
    pol = MDRangePolicy([(0, 32), (0, 48)])
    launches = [("scale", ScaleFunctor(x, 2.0)),
                ("stencil", StencilFunctor(x, out))]
    if graph:
        g = LaunchGraph(space)
        for label, functor in launches:
            g.add_kernel(label, pol, functor)
        g.seal()
        g.replay()
    else:
        g = None
        for label, functor in launches:
            space.parallel_for(label, pol, functor)
    return g, x.raw.copy(), out.raw.copy()


class TestLaunchGraph:
    def test_capture_seal_replay_and_fusion(self):
        be = SerialBackend(inst=Instrumentation())
        rng = np.random.default_rng(7)
        start = rng.normal(size=(6, 5))

        # eager reference: the same math without a graph
        ref = start * 1.5
        ref = ref + 2.0
        ref = ref * 0.5

        x = View("x", data=start.copy())
        events: list = []
        g = LaunchGraph(be)
        _record_sequence(g, x, events)
        assert g.captured_launches == 3
        g.seal()
        # the two adjacent launches fuse; the exchange breaks the run,
        # leaving the third launch on its own
        assert g.fused_groups == 1
        assert g.launches_per_replay == 2
        g.replay()
        assert events == [("halo2", [(x.raw, 1.0, 0.0)])]
        assert g.replays == 1
        np.testing.assert_array_equal(x.data, ref)

    def test_fusion_off_keeps_launches(self):
        # no argument turns fusion off; a space that intercepts run_for
        # does: its graph replays every captured launch under its own
        # label, so the interceptor never sees a fused[...] composite
        for backend in ("serial", "athread"):
            be = intercepting(backend)
            x = View("x", data=np.ones((4, 4)))
            g = LaunchGraph(be)
            _record_sequence(g, x, [])
            g.seal()
            assert g.fused_groups == 0
            assert g.launches_per_replay == 3
            assert g.jit_coverage == 0.0
            g.replay()
            assert be.seen == ["scale", "shift", "scale2"]
            np.testing.assert_array_equal(x.data, (1.5 + 2.0) * 0.5)

    def test_dependent_stencil_chain_not_fused_without_jit(self):
        # a run_for-replaying space seals unfused (its tier is eager:
        # the interceptor sees every launch), so the dependent chain
        # stays two launches — and matches the eager sequence bitwise
        for backend in ("serial", "athread"):
            _, ref_x, ref_out = _chain(CHAIN_SPACES[backend](), graph=False)
            be = intercepting(backend)
            g, x, out = _chain(be, graph=True)
            assert g.fused_groups == 0
            assert g.launches_per_replay == 2
            assert g.compiled_launches == 0
            assert be.seen == ["scale", "stencil"]
            np.testing.assert_array_equal(x, ref_x)
            np.testing.assert_array_equal(out, ref_out)

    def test_dependent_stencil_chain_fuses_with_jit(self):
        # the sealed sweep runs each part whole-range (one stage barrier
        # per part on the threaded pool), so the chain fuses into one
        # launch and stays bitwise identical to the eager sequence
        for backend, make in CHAIN_SPACES.items():
            _, ref_x, ref_out = _chain(make(), graph=False)
            be = make()
            g, x, out = _chain(be, graph=True)
            assert g.fused_groups == 1, backend
            assert g.launches_per_replay == 1, backend
            assert g.compiled_launches == 1, backend
            np.testing.assert_array_equal(x, ref_x, err_msg=backend)
            np.testing.assert_array_equal(out, ref_out, err_msg=backend)
            fused = be.inst.kernels["fused[scale+stencil]"]
            assert fused.launches == 1, backend
            if backend == "athread":
                # one fused launch staging the union working set — the
                # ledger the exec-generated tier recorded for this chain
                assert be.dma.total_count == 128
                assert be.dma.total_bytes == 81920.0
                assert be.ldm_high_water() == 1536
                assert be.last_distribution == (64, 1)
                assert fused.tiles == 64

    def test_sealed_graph_rejects_recording(self):
        be = SerialBackend(inst=Instrumentation())
        x = View("x", data=np.ones((3, 3)))
        pol = MDRangePolicy([(0, 3), (0, 3)])
        g = LaunchGraph(be)
        g.add_kernel("scale", pol, ScaleFunctor(x, 2.0))
        g.seal()
        with pytest.raises(RuntimeError, match="sealed"):
            g.add_kernel("scale", pol, ScaleFunctor(x, 2.0))
        with pytest.raises(RuntimeError, match="sealed"):
            g.add(RotateNode(be, ()))

    def test_replay_requires_seal(self):
        g = LaunchGraph(SerialBackend(inst=Instrumentation()))
        with pytest.raises(RuntimeError, match="seal"):
            g.replay()

    @pytest.mark.parametrize("backend", ["cuda", "serial"])
    def test_exchange_node_stages_ghost_rings_on_device(self, backend):
        # no GPU-aware MPI: each field's ghost ring, levels * 2h(ly+lx)
        # elements, goes down to the host and back; host spaces copy none
        space = CHAIN_SPACES[backend]()
        mem = space.memory_space
        u = View("u", (3, 6, 5), space=mem)
        eta = View("eta", (6, 5), dtype=np.float32, space=mem)
        halo = FakeHalo(halo=2)
        nodes = [ExchangeNode("halo_u", space, halo, [(u, -1.0, 0.0)]),
                 ExchangeNode("halo_eta", space, halo, [(eta, 1.0, 0.0)])]
        for node in nodes:
            node.run()
        assert [phase for phase, _ in halo.log] == ["halo3", "halo2"]
        staged = 3 * 2 * 2 * (6 + 5) * 8 + 2 * 2 * (6 + 5) * 4
        tr = space.inst.transfers
        want = (staged, 2) if backend == "cuda" else (0, 0)
        assert (tr.d2h_bytes, tr.d2h_count) == want
        assert (tr.h2d_bytes, tr.h2d_count) == want


class TestAthreadPlanAccounting:
    """A sealed plan's batched ledger matches the eager path exactly."""

    def _sweep(self, be: AthreadBackend, x: View, graph: bool) -> None:
        pol = MDRangePolicy([(0, x.shape[0]), (0, x.shape[1])])
        if not graph:
            be.parallel_for("scale", pol, ScaleFunctor(x, 1.5))
            be.parallel_for("shift", pol, ShiftFunctor(x, 2.0))
            return
        g = LaunchGraph(be)
        g.add_kernel("scale", pol, ScaleFunctor(x, 1.5))
        g.add(RotateNode(be, ()))   # keeps the two launches separate
        g.add_kernel("shift", pol, ShiftFunctor(x, 2.0))
        g.seal()
        g.replay()

    def test_ledgers_match_eager(self):
        start = np.random.default_rng(3).normal(size=(32, 48))
        results = {}
        for graph in (False, True):
            be = AthreadBackend(inst=Instrumentation())
            x = View("x", data=start.copy())
            self._sweep(be, x, graph)
            results[graph] = (
                x.data.copy(), be.dma.get_count, be.dma.put_count,
                be.dma.get_bytes, be.dma.put_bytes, be.ldm_high_water(),
                be.last_distribution,
            )
        eager, replay = results[False], results[True]
        np.testing.assert_array_equal(eager[0], replay[0])
        assert eager[1] == replay[1]          # DMA descriptor counts
        assert eager[2] == replay[2]
        assert eager[3] == pytest.approx(replay[3])   # DMA volumes
        assert eager[4] == pytest.approx(replay[4])
        assert eager[5] == replay[5]          # LDM high water
        assert eager[6] == replay[6]          # tile distribution

    def test_replay_skips_per_tile_ledger_calls(self):
        be = AthreadBackend(inst=Instrumentation())
        x = View("x", data=np.zeros((32, 48)))
        self._sweep(be, x, graph=True)
        ntiles = be.last_distribution[0]
        assert ntiles > 1
        # batched accounting: one descriptor per tile is still recorded,
        # per launch in a single call; counts equal tiles exactly
        assert be.dma.get_count == 2 * ntiles


class TestWorkspace:
    def test_warm_take_reuses_buffer_and_counts(self):
        inst = Instrumentation()
        ws = Workspace(enabled=True, inst=inst)
        a = ws.take("buf", (4, 3))
        b = ws.take("buf", (4, 3))
        assert a is b
        assert inst.workspace.allocations == 1
        assert inst.workspace.requests == 2
        assert inst.workspace.hit_rate == pytest.approx(0.5)

    def test_distinct_keys_and_shapes_get_distinct_buffers(self):
        ws = Workspace(enabled=True, inst=Instrumentation())
        assert ws.take("a", (4,)) is not ws.take("b", (4,))
        assert ws.take("a", (4,)) is not ws.take("a", (5,))
        assert ws.take("a", (4,), np.float64) is not \
            ws.take("a", (4,), np.float32)

    def test_disabled_workspace_allocates_every_take(self):
        inst = Instrumentation()
        ws = Workspace(enabled=False, inst=inst)
        a = ws.take("buf", (4, 3))
        b = ws.take("buf", (4, 3))
        assert a is not b
        assert inst.workspace.allocations == 2
        assert inst.workspace.requests == 2

    def test_fill_and_clear(self):
        ws = Workspace(enabled=True, inst=Instrumentation())
        a = ws.take("buf", (3,), fill=7.0)
        np.testing.assert_array_equal(a, np.full(3, 7.0))
        ws.clear()
        assert ws.take("buf", (3,)) is not a

    def test_int_shape_normalised(self):
        ws = Workspace(enabled=True, inst=Instrumentation())
        assert ws.take("buf", 5).shape == (5,)
        assert ws.take("buf", (5,)) is ws.take("buf", 5)

    def test_take_view_shares_one_buffer_across_shapes(self):
        inst = Instrumentation()
        ws = Workspace(enabled=True, inst=inst)
        big = ws.take_view("tmp", (2, 3, 4))
        small = ws.take_view("tmp", (3, 5), np.dtype(np.float64))
        assert small.shape == (3, 5) and small.flags.c_contiguous
        assert np.shares_memory(big, small)
        # a larger request replaces the buffer; dtypes never share
        grown = ws.take_view("tmp", (5, 6))
        assert not np.shares_memory(grown, big)
        assert ws.take_view("tmp", (2, 3, 4), np.float32).dtype == np.float32
        assert inst.workspace.allocations == 3
        assert inst.workspace.requests == 4
        # each request counts the bytes of the view it hands out, not the
        # size of the shared buffer behind it
        assert inst.workspace.bytes_served == (24 + 15 + 30) * 8 + 24 * 4
        assert ws.pooled_nbytes() == 30 * 8 + 24 * 4
        # a disabled arena allocates every view
        off = Workspace(enabled=False, inst=Instrumentation())
        assert not np.shares_memory(off.take_view("tmp", (4,)),
                                    off.take_view("tmp", (4,)))


class TestOpenMPThreadOverride:
    def test_env_override_honoured(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_THREADS", "3")
        be = OpenMPBackend(inst=Instrumentation())
        assert be.concurrency == 3

    def test_explicit_arg_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_THREADS", "3")
        be = OpenMPBackend(threads=2, inst=Instrumentation())
        assert be.concurrency == 2

    @pytest.mark.parametrize("bad", ["zero", "0", "-4", "2.5"])
    def test_invalid_values_rejected(self, monkeypatch, bad):
        monkeypatch.setenv("REPRO_NUM_THREADS", bad)
        with pytest.raises(ValueError, match="REPRO_NUM_THREADS"):
            OpenMPBackend(inst=Instrumentation())

    def test_unset_env_uses_capped_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_NUM_THREADS", raising=False)
        be = OpenMPBackend(inst=Instrumentation())
        assert 1 <= be.concurrency <= 8
