"""Halo transposes (Fig. 5), canuto load balance (Fig. 4), overlap (§V-D)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.variants import GHOST_HALO_TRANSPOSES, REAL_HALO_TRANSPOSES
from repro.parallel import (
    BlockDecomposition,
    SimWorld,
    SingleComm,
    balanced_column_compute,
    boundary_strip,
    imbalance_stats,
    interior_core,
    local_ocean_columns,
    naive_column_compute,
    overlap_time,
    overlapped_update_fused,
    partition_evenly,
)
from tests.conftest import halo_update


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


class TestOverlap:
    def test_interior_plus_boundary_covers_owned_region(self):
        d = BlockDecomposition(20, 24, 2, 2)
        ly, lx = d.local_shape(0)
        seen = np.zeros((ly, lx), dtype=int)
        seen[interior_core(d, 0)] += 1
        for strip in boundary_strip(d, 0):
            seen[strip] += 1
        h = d.halo
        assert np.all(seen[h:-h, h:-h] == 1)   # owned cells exactly once
        assert np.all(seen[:h, :] == 0)        # ghosts untouched

    def test_overlapped_update_equals_plain(self, rng):
        """Like real kernels, the compute reads one array and writes
        another, so region-by-region application is order-independent."""
        ny, nx = 16, 20
        g = rng.standard_normal((ny, nx))
        d = BlockDecomposition(ny, nx, 1, 1)
        h = d.halo
        ly, lx = d.local_shape(0)

        def make_smooth(out):
            def smooth(arr, region):
                jj, ii = region[-2], region[-1]
                out[jj, ii] = 0.2 * (
                    arr[jj, ii]
                    + arr[jj.start - 1:jj.stop - 1, ii]
                    + arr[jj.start + 1:jj.stop + 1, ii]
                    + arr[jj, ii.start - 1:ii.stop - 1]
                    + arr[jj, ii.start + 1:ii.stop + 1]
                )
            return smooth

        # plain: exchange first, then compute everywhere at once
        plain_in = d.scatter_global(g, 0)
        halo_update(SingleComm(), d, plain_in)
        plain_out = np.zeros((ly, lx))
        make_smooth(plain_out)(plain_in, (slice(h, ny + h), slice(h, nx + h)))

        over_in = d.scatter_global(g, 0)
        halo_update(SingleComm(), d, over_in)  # ghosts valid like a model step
        over_out = np.zeros((ly, lx))
        overlapped_update_fused(SingleComm(), d, 0, [over_in],
                                make_smooth(over_out))
        jj, ii = slice(h, ny + h), slice(h, nx + h)
        assert np.allclose(plain_out[jj, ii], over_out[jj, ii])

    def test_overlap_time_model(self):
        assert overlap_time(10.0, 2.0, 4.0, overlapped=False) == 16.0
        assert overlap_time(10.0, 2.0, 4.0, overlapped=True) == 12.0
        # comm-bound case
        assert overlap_time(3.0, 2.0, 8.0, overlapped=True) == 10.0

    def test_overlap_never_slower(self):
        for ti, tb, tc in [(1, 1, 1), (5, 0, 3), (0.1, 2, 9)]:
            assert overlap_time(ti, tb, tc, True) <= overlap_time(ti, tb, tc, False)
