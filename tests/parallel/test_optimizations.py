"""Halo transposes (Fig. 5) and canuto load balance (Fig. 4)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.variants import GHOST_HALO_TRANSPOSES, REAL_HALO_TRANSPOSES
from repro.parallel import (
    BlockDecomposition,
    SimWorld,
    balanced_column_compute,
    imbalance_stats,
    local_ocean_columns,
    naive_column_compute,
    partition_evenly,
)


class TestTransposes:
    @pytest.mark.parametrize("name", sorted(REAL_HALO_TRANSPOSES))
    def test_real_halo_shape_and_values(self, name, rng):
        halo = rng.standard_normal((7, 2, 13))
        out = REAL_HALO_TRANSPOSES[name](halo)
        assert out.shape == (2, 13, 7)
        assert np.array_equal(out, np.moveaxis(halo, 0, -1))

    @pytest.mark.parametrize("name", sorted(GHOST_HALO_TRANSPOSES))
    def test_ghost_halo_shape_and_values(self, name, rng):
        buf = rng.standard_normal((2, 13, 7))
        out = GHOST_HALO_TRANSPOSES[name](buf)
        assert out.shape == (7, 2, 13)
        assert np.array_equal(out, np.moveaxis(buf, -1, 0))

    @pytest.mark.parametrize("rname", sorted(REAL_HALO_TRANSPOSES))
    @pytest.mark.parametrize("gname", sorted(GHOST_HALO_TRANSPOSES))
    def test_roundtrip(self, rname, gname, rng):
        halo = rng.standard_normal((5, 2, 9))
        assert np.array_equal(
            GHOST_HALO_TRANSPOSES[gname](REAL_HALO_TRANSPOSES[rname](halo)), halo
        )

    def test_output_contiguous(self, rng):
        halo = rng.standard_normal((5, 2, 9))
        for fn in REAL_HALO_TRANSPOSES.values():
            assert fn(halo).flags["C_CONTIGUOUS"]

    @settings(max_examples=20, deadline=None)
    @given(nz=st.integers(1, 30), n=st.integers(1, 40), h=st.integers(1, 3))
    def test_property_roundtrip_any_shape(self, nz, n, h):
        rng = np.random.default_rng(nz * 97 + n)
        halo = rng.standard_normal((nz, h, n))
        v = REAL_HALO_TRANSPOSES["blocked"](halo)
        assert np.array_equal(GHOST_HALO_TRANSPOSES["blocked"](v), halo)


class TestLoadBalance:
    def _setup(self):
        ny, nx = 12, 16
        mask = np.zeros((ny, nx), dtype=bool)
        mask[2:10, 1:9] = True  # all ocean in the western half
        d = BlockDecomposition(ny, nx, 2, 2)
        return d, mask

    def test_balanced_equals_naive_results(self):
        d, mask = self._setup()
        fn = lambda c: float(c[0] * 1000 + c[1])

        def prog(comm):
            return (
                naive_column_compute(comm, d, mask, fn),
                balanced_column_compute(comm, d, mask, fn),
            )

        for naive, balanced in SimWorld.run(prog, d.size):
            assert naive == balanced

    def test_every_rank_gets_its_columns(self):
        d, mask = self._setup()

        def prog(comm):
            res = balanced_column_compute(comm, d, mask, lambda c: 1.0)
            mine = local_ocean_columns(d, comm.rank, mask)
            return set(res) == set(mine)

        assert all(SimWorld.run(prog, d.size))

    def test_partition_evenly_properties(self):
        shares = partition_evenly(10, 3)
        assert shares[0][0] == 0 and shares[-1][1] == 10
        sizes = [hi - lo for lo, hi in shares]
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == 10

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(0, 1000), r=st.integers(1, 64))
    def test_property_partition(self, n, r):
        shares = partition_evenly(n, r)
        assert len(shares) == r
        covered = sum(hi - lo for lo, hi in shares)
        assert covered == n
        assert all(shares[i][1] == shares[i + 1][0] for i in range(r - 1))

    def test_imbalance_stats_speedup(self):
        d, mask = self._setup()
        s = imbalance_stats(d, mask)
        assert s.naive_max == 28
        assert s.balanced_max == 16
        assert s.speedup == pytest.approx(28 / 16)
        assert s.imbalance_factor == pytest.approx(28 / 16)

    def test_imbalance_stats_uniform(self):
        d = BlockDecomposition(16, 16, 2, 2)
        s = imbalance_stats(d, np.ones((16, 16), dtype=bool))
        assert s.speedup == pytest.approx(1.0)
