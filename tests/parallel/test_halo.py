"""Halo updates vs the topology oracle; pack strategies; 3-D methods."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CommunicationError
from repro.ocean.localdomain import local_with_halo
from repro.parallel import (
    BlockDecomposition,
    HaloUpdater,
    PACKERS,
    SimWorld,
    SingleComm,
    exchange2d,
    exchange3d,
    pack_kernel,
    pack_naive,
    pack_sliced,
)


def _run_exchange2d(g, decomp, sign=1.0, packer="sliced"):
    """Exchange on every rank; return local arrays."""
    def prog(comm):
        loc = decomp.scatter_global(g, comm.rank)
        exchange2d(comm, decomp, comm.rank, loc, sign=sign, packer=packer)
        return loc

    if decomp.size == 1:
        loc = decomp.scatter_global(g, 0)
        exchange2d(SingleComm(), decomp, 0, loc, sign=sign, packer=packer)
        return [loc]
    return SimWorld.run(prog, decomp.size)


def _run_exchange3d(g, decomp, sign=1.0, method="transposed"):
    def prog(comm):
        loc = decomp.scatter_global(g, comm.rank)
        exchange3d(comm, decomp, comm.rank, loc, sign=sign, method=method)
        return loc

    if decomp.size == 1:
        loc = decomp.scatter_global(g, 0)
        exchange3d(SingleComm(), decomp, 0, loc, sign=sign, method=method)
        return [loc]
    return SimWorld.run(prog, decomp.size)


class TestExchange2D:
    @pytest.mark.parametrize("npy,npx", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 4)])
    def test_matches_topology_oracle(self, npy, npx, rng):
        ny, nx = 24, 32
        g = rng.standard_normal((ny, nx))
        d = BlockDecomposition(ny, nx, npy, npx)
        for r, loc in enumerate(_run_exchange2d(g, d)):
            expect = local_with_halo(g, d, r)
            assert np.array_equal(loc, expect), f"rank {r}"

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_fold_sign(self, sign, rng):
        ny, nx = 16, 16
        g = rng.standard_normal((ny, nx))
        d = BlockDecomposition(ny, nx, 2, 2)
        for r, loc in enumerate(_run_exchange2d(g, d, sign=sign)):
            expect = local_with_halo(g, d, r, sign=sign)
            assert np.array_equal(loc, expect)

    @pytest.mark.parametrize("packer", sorted(PACKERS))
    def test_all_packers_identical(self, packer, rng):
        ny, nx = 16, 20
        g = rng.standard_normal((ny, nx))
        d = BlockDecomposition(ny, nx, 2, 2)
        ref = _run_exchange2d(g, d, packer="sliced")
        got = _run_exchange2d(g, d, packer=packer)
        for a, b in zip(ref, got):
            assert np.array_equal(a, b)

    def test_south_fill_value(self, rng):
        ny, nx = 16, 16
        g = rng.standard_normal((ny, nx))
        d = BlockDecomposition(ny, nx, 2, 2)

        def prog(comm):
            loc = d.scatter_global(g, comm.rank)
            exchange2d(comm, d, comm.rank, loc, fill=-7.0)
            return loc

        locs = SimWorld.run(prog, 4)
        # bottom-row ranks get the fill value in their southern ghost rows
        assert np.all(locs[0][:2, 2:-2] == -7.0)

    def test_wrong_shape_raises(self):
        d = BlockDecomposition(16, 16, 1, 1)
        with pytest.raises(CommunicationError):
            exchange2d(SingleComm(), d, 0, np.zeros((5, 5)))

    def test_interior_unchanged(self, rng):
        ny, nx = 16, 16
        g = rng.standard_normal((ny, nx))
        d = BlockDecomposition(ny, nx, 2, 2)
        for r, loc in enumerate(_run_exchange2d(g, d)):
            b = d.block(r)
            assert np.array_equal(loc[2:-2, 2:-2], g[b.j0:b.j1, b.i0:b.i1])


class TestExchange3D:
    @pytest.mark.parametrize("method", ["per_level", "transposed"])
    def test_matches_oracle(self, method, rng):
        ny, nx, nz = 16, 20, 4
        g = rng.standard_normal((nz, ny, nx))
        d = BlockDecomposition(ny, nx, 2, 2)
        for r, loc in enumerate(_run_exchange3d(g, d, method=method)):
            expect = local_with_halo(g, d, r)
            assert np.array_equal(loc, expect)

    def test_methods_bitwise_identical(self, rng):
        ny, nx, nz = 12, 16, 5
        g = rng.standard_normal((nz, ny, nx))
        d = BlockDecomposition(ny, nx, 2, 2)
        a = _run_exchange3d(g, d, method="per_level")
        b = _run_exchange3d(g, d, method="transposed")
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_transposed_uses_fewer_messages(self, rng):
        ny, nx, nz = 12, 16, 6
        g = rng.standard_normal((nz, ny, nx))
        counts = {}
        for method in ("per_level", "transposed"):
            d = BlockDecomposition(ny, nx, 2, 2)

            def prog(comm):
                loc = d.scatter_global(g, comm.rank)
                exchange3d(comm, d, comm.rank, loc, method=method)

            world = SimWorld(4)
            import threading
            threads = [
                threading.Thread(target=prog, args=(world.comm(r),)) for r in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            counts[method] = world.traffic.messages
        assert counts["transposed"] * nz == counts["per_level"]

    def test_unknown_method(self):
        d = BlockDecomposition(16, 16, 1, 1)
        loc = np.zeros((3,) + d.local_shape(0))
        with pytest.raises(CommunicationError):
            exchange3d(SingleComm(), d, 0, loc, method="magic")

    def test_requires_3d(self):
        d = BlockDecomposition(16, 16, 1, 1)
        with pytest.raises(CommunicationError):
            exchange3d(SingleComm(), d, 0, np.zeros(d.local_shape(0)))


class TestPackers:
    def test_pack_naive_equals_sliced(self, rng):
        arr = rng.standard_normal((10, 12))
        rows, cols = slice(1, 9), slice(2, 4)
        assert np.array_equal(pack_naive(arr, rows, cols), pack_sliced(arr, rows, cols))

    def test_pack_kernel_equals_sliced(self, rng):
        arr = rng.standard_normal((10, 12))
        rows, cols = slice(0, 10), slice(8, 10)
        from repro.kokkos import SerialBackend

        space = SerialBackend()
        assert np.array_equal(pack_kernel(arr, rows, cols, space),
                              pack_sliced(arr, rows, cols))
        assert space.inst.kernels["halo_pack"].launches == 1

    def test_pack_is_contiguous_copy(self, rng):
        arr = rng.standard_normal((8, 8))
        out = pack_sliced(arr, slice(0, 8), slice(2, 4))
        assert out.flags["C_CONTIGUOUS"]
        out[0, 0] = 99.0
        assert arr[0, 2] != 99.0


class TestHaloUpdater:
    def test_counts_updates(self, rng):
        d = BlockDecomposition(16, 16, 1, 1)
        u = HaloUpdater(SingleComm(), d)
        arr2 = d.scatter_global(rng.standard_normal((16, 16)), 0)
        arr3 = d.scatter_global(rng.standard_normal((3, 16, 16)), 0)
        u.update2d(arr2)
        u.update3d(arr3)
        u.update3d(arr3)
        assert u.updates2d == 1
        assert u.updates3d == 2

    def test_matches_free_function(self, rng):
        g = rng.standard_normal((16, 16))
        d = BlockDecomposition(16, 16, 1, 1)
        a = d.scatter_global(g, 0)
        b = a.copy()
        HaloUpdater(SingleComm(), d).update2d(a)
        exchange2d(SingleComm(), d, 0, b)
        assert np.array_equal(a, b)


class TestExchangeEvents:
    def test_record_events_logs_each_update(self, rng):
        d = BlockDecomposition(16, 16, 1, 1)
        u = HaloUpdater(SingleComm(), d)
        arr2 = d.scatter_global(rng.standard_normal((16, 16)), 0)
        arr3 = d.scatter_global(rng.standard_normal((3, 16, 16)), 0)
        u.update2d(arr2)                    # before recording: nothing kept
        assert u.events is None
        u.record_events()
        u.update2d(arr2)
        u.update3d(arr3)
        u.update_many([arr2, arr3], phase="tracer")
        assert [e.kind for e in u.events] == ["2d", "3d", "fused"]
        fused = u.events[-1]
        assert fused.fields == 2 and fused.phase == "tracer"
        assert fused.shapes == (arr2.shape, arr3.shape)
        assert fused.messages >= 0          # exact diff of the send counter
        u.record_events(False)
        u.update2d(arr2)
        assert u.events is None             # hot path back to zero recording

    def test_event_recording_does_not_change_results(self, rng):
        g = rng.standard_normal((16, 16))
        d = BlockDecomposition(16, 16, 1, 1)
        a, b = d.scatter_global(g, 0), d.scatter_global(g, 0)
        u = HaloUpdater(SingleComm(), d)
        u.record_events()
        u.update2d(a)
        exchange2d(SingleComm(), d, 0, b)
        assert np.array_equal(a, b)
        assert len(u.events) == 1


@settings(max_examples=20, deadline=None)
@given(
    ny=st.integers(10, 30),
    nx=st.integers(10, 30),
    npx=st.sampled_from([1, 2]),
    npy=st.sampled_from([1, 2]),
    sign=st.sampled_from([1.0, -1.0]),
    seed=st.integers(0, 99),
)
def test_property_exchange_matches_oracle(ny, nx, npy, npx, sign, seed):
    """For any grid size / 1-2 rank splits / sign, the exchanged halo
    equals the independent topology oracle."""
    from repro.errors import DecompositionError

    rng = np.random.default_rng(seed)
    g = rng.standard_normal((ny, nx))
    try:
        d = BlockDecomposition(ny, nx, npy, npx)
    except DecompositionError:
        return
    for r, loc in enumerate(_run_exchange2d(g, d, sign=sign)):
        assert np.array_equal(loc, local_with_halo(g, d, r, sign=sign))
