"""Fused multi-field halo exchange: bitwise identity, pooling, traffic.

Every rank's fields must equal the message-free topology oracle
(:func:`local_with_halo`) — including tripolar-fold sign flips and
closed-boundary fills — while the exchange sends one message per
neighbour per phase (per dtype group) and reaches a zero-allocation
steady state.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CommunicationError
from repro.ocean import LICOMKpp, demo
from repro.ocean.localdomain import local_with_halo
from repro.ocean.model import ModelParams
from repro.parallel import (
    BlockDecomposition,
    BufferPool,
    FieldSpec,
    FusedHaloExchange,
    HaloUpdater,
    SimWorld,
    as_field_specs,
)

NZ = 4


def _fields(rank, decomp, n2=2, n3=2, dtype=np.float64):
    ly, lx = decomp.local_shape(rank)
    rng = np.random.default_rng(100 + rank)
    out = [rng.standard_normal((ly, lx)).astype(dtype) for _ in range(n2)]
    out += [rng.standard_normal((NZ, ly, lx)).astype(dtype) for _ in range(n3)]
    return out


def _globals(decomp, n2=2, n3=2, dtype=np.float64):
    rng = np.random.default_rng(100)
    ny, nx = decomp.ny, decomp.nx
    out = [rng.standard_normal((ny, nx)).astype(dtype) for _ in range(n2)]
    out += [rng.standard_normal((NZ, ny, nx)).astype(dtype) for _ in range(n3)]
    return out


def _assert_fused_matches_oracle(decomp, globals_, signs, fills, rounds=1):
    """Fused-exchange the scattered ``globals_`` on every rank and compare
    each field with the oracle's halo-filled block."""

    def prog(comm):
        locs = [decomp.scatter_global(g, comm.rank) for g in globals_]
        fx = FusedHaloExchange(comm, decomp, comm.rank)
        for _ in range(rounds):
            fx.exchange(
                [FieldSpec(a, s, f) for a, s, f in zip(locs, signs, fills)]
            )
        return locs

    for r, locs in enumerate(SimWorld.run(prog, decomp.size)):
        for a, g, s, f in zip(locs, globals_, signs, fills):
            assert a.dtype == g.dtype
            assert np.array_equal(a, local_with_halo(g, decomp, r, s, f)), \
                f"rank {r}"


class TestBitwiseIdentity:
    @pytest.mark.parametrize("npy,npx", [(1, 2), (2, 1), (2, 2), (3, 4)])
    @pytest.mark.parametrize("fold", [True, False])
    def test_matches_per_field(self, npy, npx, fold):
        d = BlockDecomposition(16, 24, npy, npx, north_fold=fold)
        signs, fills = [1.0, -1.0, 1.0, -1.0], [0.0, 7.5, -2.0, 1.25]
        _assert_fused_matches_oracle(d, _globals(d), signs, fills, rounds=2)

    def test_matches_topology_oracle(self):
        ny, nx = 16, 24
        g2 = np.random.default_rng(0).standard_normal((ny, nx))
        g3 = np.random.default_rng(1).standard_normal((NZ, ny, nx))
        d = BlockDecomposition(ny, nx, 2, 2)

        def prog(comm):
            l2 = d.scatter_global(g2, comm.rank)
            l3 = d.scatter_global(g3, comm.rank)
            FusedHaloExchange(comm, d, comm.rank).exchange([l2, l3])
            return l2, l3

        for r, (l2, l3) in enumerate(SimWorld.run(prog, 4)):
            assert np.array_equal(l2, local_with_halo(g2, d, r)), f"rank {r}"
            assert np.array_equal(l3, local_with_halo(g3, d, r)), f"rank {r}"

    @settings(max_examples=10, deadline=None)
    @given(
        npy=st.integers(1, 2),
        npx=st.integers(1, 2),
        sign=st.sampled_from([1.0, -1.0]),
        fill=st.floats(-5.0, 5.0, allow_nan=False),
    )
    def test_property_fold_identity(self, npy, npx, sign, fill):
        """Any (grid, sign, fill): fused == oracle."""
        d = BlockDecomposition(16, 24, npy, npx, north_fold=True)
        _assert_fused_matches_oracle(d, _globals(d), [sign] * 4, [fill] * 4)

    def test_mixed_dtypes_split_into_groups(self):
        d = BlockDecomposition(16, 24, 2, 2)
        globals_ = (_globals(d, n2=1, n3=1)
                    + _globals(d, n2=1, n3=1, dtype=np.float32))
        _assert_fused_matches_oracle(d, globals_, [1.0] * 4, [0.0] * 4)


class TestBufferPool:
    def test_zero_allocations_at_steady_state(self):
        d = BlockDecomposition(16, 24, 2, 2)

        def prog(comm):
            fs = _fields(comm.rank, d)
            fx = FusedHaloExchange(comm, d, comm.rank)
            specs = [FieldSpec(a) for a in fs]
            fx.exchange(specs)
            after_first = fx.pool.allocations
            for _ in range(5):
                fx.exchange(specs)
            return after_first, fx.pool.allocations, fx.pool.reuses

        for first, final, reuses in SimWorld.run(prog, 4):
            assert final == first, "steady state must not allocate"
            assert reuses >= 5 * first

    def test_pool_reuses_matching_buffers(self):
        pool = BufferPool()
        a = pool.acquire("ns", 64, np.float64)
        pool.release("ns", a)
        b = pool.acquire("ns", 64, np.float64)
        assert b is a
        assert pool.allocations == 1 and pool.reuses == 1
        # different kind, size or dtype => fresh allocation
        assert pool.acquire("ew", 64, np.float64) is not None
        assert pool.allocations == 2
        assert not any(pool._free.values())


class TestFieldSpecs:
    def test_rejects_bad_rank(self):
        with pytest.raises(CommunicationError):
            FieldSpec(np.zeros(5))

    def test_rejects_empty(self):
        with pytest.raises(CommunicationError):
            as_field_specs([])

    def test_accepts_tuples_and_arrays(self):
        a = np.zeros((4, 4))
        specs = as_field_specs([a, (a, -1.0), (a, 1.0, 9.0), FieldSpec(a)])
        assert [s.sign for s in specs] == [1.0, -1.0, 1.0, 1.0]
        assert specs[2].fill == 9.0

    def test_shape_mismatch_raises(self):
        d = BlockDecomposition(16, 24, 2, 2)

        def prog(comm):
            fx = FusedHaloExchange(comm, d, comm.rank)
            try:
                fx.exchange([np.zeros((3, 3))])
            except CommunicationError:
                return True
            return False

        assert all(SimWorld.run(prog, 4))


class TestHaloUpdaterFusion:
    def test_update_many_counts_and_matches(self):
        d = BlockDecomposition(16, 24, 2, 2)
        globals_ = _globals(d)

        def prog(comm):
            fs = [d.scatter_global(g, comm.rank) for g in globals_]
            hu = HaloUpdater(comm, d, comm.rank)
            hu.update_many([(a, 1.0, 0.0) for a in fs], phase="test")
            return fs, hu.updates2d, hu.updates3d, hu.fused_exchanges

        for r, (fs, u2, u3, fx) in enumerate(SimWorld.run(prog, 4)):
            for a, g in zip(fs, globals_):
                assert np.array_equal(a, local_with_halo(g, d, r))
            assert (u2, u3, fx) == (2, 2, 1)

    def test_message_reduction_at_least_3x(self):
        # one tracer stage of the model with 4 passive tracers: six 3-D
        # fields travel as one message per neighbour instead of six
        d = BlockDecomposition(16, 24, 2, 2)

        def messages(fused: bool) -> int:
            def prog(comm):
                fs = _fields(comm.rank, d, n2=0, n3=6)
                hu = HaloUpdater(comm, d, comm.rank)
                if fused:
                    hu.update_many(fs, phase="halo3")
                else:
                    for a in fs:
                        hu.update_many([a], phase="halo3")
                comm.barrier()     # all ranks done before reading the total
                return comm.world.traffic.messages

            return SimWorld.run(prog, 4)[0]

        per_field, fused = messages(False), messages(True)
        assert per_field / fused >= 3.0, (per_field, fused)


class TestModelTraffic:
    def test_fused_phases_ledgered(self):
        # nsub=2 so 2-D barotropic traffic does not dwarf the fused 3-D
        # updates
        cfg = dataclasses.replace(demo("tiny"), dt_barotropic=3600.0)
        d = BlockDecomposition(cfg.ny, cfg.nx, 2, 2)

        def prog(comm):
            m = LICOMKpp(cfg, comm=comm, decomp=d,
                         params=ModelParams(n_passive=1))
            m.run_steps(1)
            comm.barrier()     # all ranks done before snapshotting
            led = comm.world.traffic
            return ({k: list(v) for k, v in led.by_phase.items()},
                    led.size_histogram())

        by_phase, hist = SimWorld.run(prog, 4)[0]
        assert by_phase["halo3"][0] > 0 and by_phase["halo2"][0] > 0
        assert sum(hist.values()) == sum(p[0] for p in by_phase.values())
