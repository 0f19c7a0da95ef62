"""ExecutionContext: per-rank ownership of backends, ledgers, arenas."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.errors import RegistrationError
from repro.kokkos import (
    DictRegistry,
    ExecutionContext,
    Instrumentation,
    LaunchGraph,
    RangePolicy,
    SerialBackend,
    View,
    default_registry,
    kokkos_register_for,
)


@kokkos_register_for("ctxtest_scale", ndim=1)
class ScaleFunctor:
    flops_per_point = 1.0
    bytes_per_point = 16.0

    def __init__(self, a, x):
        self.a, self.x = a, x

    def __call__(self, i):
        self.x[i] = self.a * self.x[i]


class TestExecutionContext:
    def test_owns_fresh_ledger_and_space(self):
        ctx = ExecutionContext("serial")
        assert ctx.space.inst is ctx.inst
        x = View("x", 8)
        ctx.space.parallel_for("scale", RangePolicy(0, 8), ScaleFunctor(2.0, x))
        assert ctx.inst.total_launches == 1

    def test_two_contexts_have_disjoint_ledgers(self):
        a = ExecutionContext("serial")
        b = ExecutionContext("athread")
        x, y = View("x", 8), View("y", 8)
        a.space.parallel_for("scale", RangePolicy(0, 8), ScaleFunctor(2.0, x))
        b.space.parallel_for("scale", RangePolicy(0, 8), ScaleFunctor(2.0, y))
        b.space.parallel_for("scale", RangePolicy(0, 8), ScaleFunctor(2.0, y))
        assert a.inst is not b.inst
        assert a.inst.kernels["scale"].launches == 1
        assert b.inst.kernels["scale"].launches == 2

    def test_adopt_preserves_space_ledger(self):
        inst = Instrumentation()
        space = SerialBackend(inst=inst)
        ctx = ExecutionContext(space)
        assert ctx.space is space
        assert ctx.inst is inst
        x = View("x", 4)
        ctx.space.parallel_for("scale", RangePolicy(0, 4), ScaleFunctor(2.0, x))
        assert inst.total_launches == 1

    def test_context_manager_closes(self):
        with ExecutionContext("serial") as ctx:
            assert not ctx.closed
        assert ctx.closed
        ctx.close()  # idempotent

    def test_bitwise_identical_across_contexts(self):
        data = np.arange(16, dtype=np.float64)
        results = []
        for _ in range(2):
            ctx = ExecutionContext("serial")
            x = View("x", data=data.copy())
            ctx.space.parallel_for("scale", RangePolicy(0, 16),
                                   ScaleFunctor(3.0, x))
            results.append(np.array(x.data))
        assert np.array_equal(results[0], results[1])


class TestRegistrationTable:
    """One import-time table, shared by every context."""

    def test_is_a_hash_map_shared_by_every_athread_context(self):
        table = default_registry()
        assert isinstance(table, DictRegistry)
        a, b = ExecutionContext("athread"), ExecutionContext("athread", rank=1)
        assert a.space.registry is table
        assert b.space.registry is table
        assert table.lookup(ScaleFunctor).name == "ctxtest_scale"

    def test_unregistered_still_raises(self):
        class Unregistered:
            def __call__(self, i):
                pass

        with pytest.raises(RegistrationError):
            default_registry().lookup(Unregistered)
        ctx = ExecutionContext("athread")
        x = View("x", 4)
        with pytest.raises(RegistrationError):         # eager launch
            ctx.space.parallel_for("u", RangePolicy(0, 4), Unregistered())
        graph = LaunchGraph(ctx.space)
        graph.add_kernel("u", RangePolicy(0, 4), Unregistered())
        with pytest.raises(RegistrationError):         # and at seal()
            graph.seal()
        assert np.all(x.data == 0.0)


class TestWorkspaceLifetime:
    def test_context_releases_all_thread_pools_on_close(self):
        ctx = ExecutionContext("serial")
        ws = ctx.make_workspace()
        took = threading.Barrier(5)
        hold = threading.Event()

        def worker():
            ws.take("scratch", (64,))
            took.wait()         # live threads => distinct thread ids
            hold.wait()

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        ws.take("scratch", (64,))
        took.wait()
        assert ws.pooled_nbytes() == 5 * 64 * 8   # one pool per thread
        hold.set()
        for t in threads:
            t.join()
        ctx.close()
        assert ws.pooled_nbytes() == 0
        assert ws.released

    def test_take_after_release_still_works(self):
        ctx = ExecutionContext("serial")
        ws = ctx.make_workspace()
        a = ws.take("k", (8,), fill=1.0)
        ctx.close()
        b = ws.take("k", (8,), fill=2.0)      # eager allocation now
        assert b is not a
        assert np.all(b == 2.0)
        assert ws.pooled_nbytes() == 0        # nothing re-pooled

    def test_clear_drops_only_current_thread(self):
        ws = ExecutionContext("serial").make_workspace()
        ws.take("k", (8,))
        done = threading.Event()

        def worker():
            ws.take("k", (8,))
            done.set()

        t = threading.Thread(target=worker)
        t.start()
        t.join()
        assert done.is_set()
        assert ws.pooled_nbytes() == 2 * 8 * 8
        ws.clear()
        assert ws.pooled_nbytes() == 8 * 8    # other thread's pool survives


class TestInstrumentationThreadSafety:
    def test_record_launch_is_exact_under_contention(self):
        inst = Instrumentation()
        n_threads, n_launches = 8, 2000

        def worker():
            for _ in range(n_launches):
                inst.record_launch("hot", points=10, tiles=2,
                                   flops_per_point=1.0, bytes_per_point=8.0)

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        k = inst.kernels["hot"]
        assert k.launches == n_threads * n_launches
        assert k.tiles == 2 * n_threads * n_launches
        assert k.points == 10 * n_threads * n_launches
        assert k.flops == pytest.approx(10.0 * n_threads * n_launches)

    def test_merge_from_sums_everything(self):
        a, b = Instrumentation(), Instrumentation()
        a.record_launch("k", points=5, flops_per_point=2.0)
        b.record_launch("k", points=7, flops_per_point=2.0)
        b.record_launch("other", points=1)
        a.transfers.record_h2d(100.0)
        b.transfers.record_dma(50.0)
        a.record_workspace_take(64.0, allocated=True)
        merged = Instrumentation().merge_from(a).merge_from(b)
        assert merged.kernels["k"].points == 12
        assert merged.kernels["k"].launches == 2
        assert merged.kernels["other"].launches == 1
        assert merged.total_points == 13
        assert merged.transfers.h2d_bytes == 100.0
        assert merged.transfers.dma_count == 1
        assert merged.workspace.allocations == 1
        # inputs untouched
        assert a.kernels["k"].points == 5
