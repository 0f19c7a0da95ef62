"""The halo exchange vs the topology oracle, one field (one level) at a
time: K=1 of the fused exchange, driven through ``update_many``."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.errors import CommunicationError, DecompositionError
from repro.experiments.variants import pack_naive, pack_sliced
from repro.ocean.localdomain import local_with_halo
from repro.parallel import (
    BlockDecomposition,
    FusedHaloExchange,
    HaloUpdater,
    SimWorld,
    SingleComm,
)


def _run_update(g, decomp, sign=1.0, fill=0.0, per_level=False):
    """Halo-update ``g``'s block on every rank; return local arrays.

    ``per_level`` updates a 3-D field as one 2-D exchange per level (the
    unaggregated message shape) instead of one exchange for the slab.
    """
    def prog(comm):
        loc = decomp.scatter_global(g, comm.rank)
        hu = HaloUpdater(comm, decomp)
        for level in (loc if per_level else [loc]):
            hu.update_many([(level, sign, fill)])
        return loc

    if decomp.size == 1:
        return [prog(SingleComm())]
    return SimWorld.run(prog, decomp.size)


class TestExchange2D:
    @pytest.mark.parametrize("npy,npx", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 4)])
    def test_matches_topology_oracle(self, npy, npx, rng):
        ny, nx = 24, 32
        g = rng.standard_normal((ny, nx))
        d = BlockDecomposition(ny, nx, npy, npx)
        for r, loc in enumerate(_run_update(g, d)):
            expect = local_with_halo(g, d, r)
            assert np.array_equal(loc, expect), f"rank {r}"

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_fold_sign(self, sign, rng):
        ny, nx = 16, 16
        g = rng.standard_normal((ny, nx))
        d = BlockDecomposition(ny, nx, 2, 2)
        for r, loc in enumerate(_run_update(g, d, sign=sign)):
            expect = local_with_halo(g, d, r, sign=sign)
            assert np.array_equal(loc, expect)

    def test_south_fill_value(self, rng):
        ny, nx = 16, 16
        g = rng.standard_normal((ny, nx))
        d = BlockDecomposition(ny, nx, 2, 2)
        locs = _run_update(g, d, fill=-7.0)
        # bottom-row ranks get the fill value in their southern ghost rows
        assert np.all(locs[0][:2, 2:-2] == -7.0)

    def test_wrong_shape_raises(self):
        d = BlockDecomposition(16, 16, 1, 1)
        with pytest.raises(CommunicationError):
            HaloUpdater(SingleComm(), d).update_many([np.zeros((5, 5))])

    def test_interior_unchanged(self, rng):
        ny, nx = 16, 16
        g = rng.standard_normal((ny, nx))
        d = BlockDecomposition(ny, nx, 2, 2)
        for r, loc in enumerate(_run_update(g, d)):
            b = d.block(r)
            assert np.array_equal(loc[2:-2, 2:-2], g[b.j0:b.j1, b.i0:b.i1])


class TestExchange3D:
    @pytest.mark.parametrize("method", ["per_level", "transposed"])
    def test_matches_oracle(self, method, rng):
        ny, nx, nz = 16, 20, 4
        g = rng.standard_normal((nz, ny, nx))
        d = BlockDecomposition(ny, nx, 2, 2)
        locs = _run_update(g, d, per_level=(method == "per_level"))
        for r, loc in enumerate(locs):
            expect = local_with_halo(g, d, r)
            assert np.array_equal(loc, expect)

    def test_methods_bitwise_identical(self, rng):
        ny, nx, nz = 12, 16, 5
        g = rng.standard_normal((nz, ny, nx))
        d = BlockDecomposition(ny, nx, 2, 2)
        a = _run_update(g, d, per_level=True)
        b = _run_update(g, d)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_transposed_uses_fewer_messages(self, rng):
        """Per-level message count == nz x the one-message-per-neighbour
        count, read from the world's traffic ledger."""
        ny, nx, nz = 12, 16, 6
        g = rng.standard_normal((nz, ny, nx))
        d = BlockDecomposition(ny, nx, 2, 2)
        counts = {}
        for per_level in (True, False):
            def prog(comm):
                loc = d.scatter_global(g, comm.rank)
                hu = HaloUpdater(comm, d)
                for level in (loc if per_level else [loc]):
                    hu.update_many([level])
                comm.barrier()     # all ranks done before reading the total
                return comm.world.traffic.messages

            counts[per_level] = SimWorld.run(prog, 4)[0]
        assert counts[False] * nz == counts[True]

    def test_requires_3d(self):
        """A field above 3-D is rejected: the exchange takes a 2-D level
        or a 3-D slab, nothing else."""
        d = BlockDecomposition(16, 16, 1, 1)
        with pytest.raises(CommunicationError):
            HaloUpdater(SingleComm(), d).update_many(
                [np.zeros((2, 3) + d.local_shape(0))])


class TestPackers:
    def test_pack_naive_equals_sliced(self, rng):
        arr = rng.standard_normal((10, 12))
        rows, cols = slice(1, 9), slice(2, 4)
        assert np.array_equal(pack_naive(arr, rows, cols), pack_sliced(arr, rows, cols))

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
        u.update_many([arr2])
        u.update_many([arr3, arr3])
        assert u.updates2d == 1
        assert u.updates3d == 2
        assert u.fused_exchanges == 2

    def test_matches_free_function(self, rng):
        """The updater adds counting only: same ghosts as driving its
        exchange object directly."""
        g = rng.standard_normal((16, 16))
        d = BlockDecomposition(16, 16, 1, 1)
        a = d.scatter_global(g, 0)
        b = a.copy()
        HaloUpdater(SingleComm(), d).update_many([a])
        FusedHaloExchange(SingleComm(), d, 0).exchange([b])
        assert np.array_equal(a, b)


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
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((ny, nx))
    try:
        d = BlockDecomposition(ny, nx, npy, npx)
    except DecompositionError:
        return
    for r, loc in enumerate(_run_update(g, d, sign=sign)):
        assert np.array_equal(loc, local_with_halo(g, d, r, sign=sign))


@settings(max_examples=30, deadline=None)
@given(
    ny=st.integers(16, 29),
    nx=st.integers(16, 33),
    npy=st.integers(1, 3),
    npx=st.integers(1, 3),
    fold=st.booleans(),
    dtypes=st.sampled_from([("f4",), ("f8",), ("f8", "f4")]),
    sign=st.sampled_from([1.0, -1.0]),
    fill=st.sampled_from([0.0, -7.0, 1.25]),
    rounds=st.integers(1, 3),
    seed=st.integers(0, 99),
)
def test_property_uneven_mixed_exchange_matches_oracle(
        ny, nx, npy, npx, fold, dtypes, sign, fill, rounds, seed):
    """Non-divisible and odd decompositions, fold on/off, one or two
    dtype groups, 2-D and 3-D fields in one exchange, fresh data each
    round: every rank equals the oracle, and the buffer pool stops
    allocating after round 1."""
    try:
        d = BlockDecomposition(ny, nx, npy, npx, north_fold=fold)
    except DecompositionError:
        assume(False)
    rng = np.random.default_rng(seed)
    shapes = [(ny, nx), (3, ny, nx)]
    # globals[round][field]; a 2-D and a 3-D field per dtype group, the
    # 3-D one crossing the fold with the opposite sign
    globals_ = [[rng.standard_normal(shape).astype(dt)
                 for dt in dtypes for shape in shapes] for _ in range(rounds)]
    signs = [sign, -sign] * len(dtypes)

    def prog(comm):
        hu = HaloUpdater(comm, d)
        locs = [d.scatter_global(g, comm.rank) for g in globals_[0]]
        snapshots, allocations = [], []
        for gs in globals_:
            for loc, g in zip(locs, gs):
                loc[...] = d.scatter_global(g, comm.rank)   # ghosts zeroed
            hu.update_many([(a, s, fill) for a, s in zip(locs, signs)])
            snapshots.append([a.copy() for a in locs])
            allocations.append(hu.pool.allocations)
        return snapshots, allocations

    for r, (snapshots, allocations) in enumerate(SimWorld.run(prog, d.size)):
        for gs, got in zip(globals_, snapshots):
            for g, s, a in zip(gs, signs, got):
                assert a.dtype == g.dtype
                assert np.array_equal(
                    a, local_with_halo(g, d, r, sign=s, fill=fill)), f"rank {r}"
        assert allocations == allocations[:1] * rounds
