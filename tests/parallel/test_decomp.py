"""Block decomposition: coverage, topology, tripolar fold, land analysis."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DecompositionError
from repro.parallel import BlockDecomposition, choose_process_grid, imbalance_stats


class TestBasics:
    def test_blocks_partition_domain(self):
        d = BlockDecomposition(30, 40, 3, 4)
        seen = np.zeros((30, 40), dtype=int)
        for b in map(d.block, range(d.size)):
            seen[b.j0:b.j1, b.i0:b.i1] += 1
        assert np.all(seen == 1)

    def test_rank_layout(self):
        d = BlockDecomposition(20, 20, 2, 2)
        b = d.block(3)
        assert (b.py, b.px) == (1, 1)
        assert d.rank_of(1, 1) == 3

    def test_local_shape_includes_halo(self):
        d = BlockDecomposition(20, 24, 2, 2, halo=2)
        assert d.local_shape(0) == (10 + 4, 12 + 4)

    def test_interior_slices(self):
        d = BlockDecomposition(20, 24, 1, 1, halo=2)
        h = d.halo
        arr = np.zeros(d.local_shape(0))
        assert arr[h:-h, h:-h].shape == (20, 24)

    def test_too_many_ranks_rejected(self):
        with pytest.raises(DecompositionError):
            BlockDecomposition(4, 4, 8, 1)

    def test_block_smaller_than_halo_rejected(self):
        with pytest.raises(DecompositionError):
            BlockDecomposition(6, 40, 6, 1, halo=2)  # 1-row blocks < halo

    def test_invalid_process_grid(self):
        with pytest.raises(DecompositionError):
            BlockDecomposition(8, 8, 0, 1)


class TestNeighbors:
    def test_east_west_cyclic(self):
        d = BlockDecomposition(16, 32, 1, 4)
        nb = d.neighbors(0)
        assert nb["e"] == 1
        assert nb["w"] == 3
        nb_last = d.neighbors(3)
        assert nb_last["e"] == 0

    def test_south_closed(self):
        d = BlockDecomposition(16, 16, 2, 2)
        assert d.neighbors(0)["s"] is None
        assert d.neighbors(2)["s"] == 0

    def test_north_interior(self):
        d = BlockDecomposition(16, 16, 2, 2)
        assert d.neighbors(0)["n"] == 2
        assert d.neighbors(0)["fold"] is None

    def test_fold_partner_mirrors(self):
        d = BlockDecomposition(16, 32, 2, 4)
        for b in d.top_row_blocks():
            partner = d.neighbors(b.rank)["fold"]
            pb = d.block(partner)
            assert (pb.i0, pb.i1) == (32 - b.i1, 32 - b.i0)

    def test_fold_self_partner_when_single_column(self):
        d = BlockDecomposition(16, 16, 2, 1)
        top = d.top_row_blocks()[0]
        assert d.neighbors(top.rank)["fold"] == top.rank

    def test_no_fold_when_disabled(self):
        d = BlockDecomposition(16, 16, 2, 2, north_fold=False)
        top = d.top_row_blocks()[0]
        assert d.neighbors(top.rank)["fold"] is None


class TestScatterGather:
    def test_roundtrip_2d(self, rng):
        d = BlockDecomposition(12, 20, 2, 2)
        g = rng.standard_normal((12, 20))
        locals_ = [d.scatter_global(g, r) for r in range(d.size)]
        assert np.array_equal(d.gather_global(locals_), g)

    def test_roundtrip_3d(self, rng):
        d = BlockDecomposition(12, 20, 2, 2)
        g = rng.standard_normal((3, 12, 20))
        locals_ = [d.scatter_global(g, r) for r in range(d.size)]
        assert np.array_equal(d.gather_global(locals_), g)

    def test_scatter_fills_halo_with_zeros(self, rng):
        d = BlockDecomposition(12, 20, 2, 2)
        loc = d.scatter_global(rng.standard_normal((12, 20)), 0)
        assert np.all(loc[:2, :] == 0.0)
        assert np.all(loc[:, :2] == 0.0)

    def test_gather_wrong_count(self):
        d = BlockDecomposition(12, 20, 2, 2)
        with pytest.raises(DecompositionError):
            d.gather_global([np.zeros(d.local_shape(0))])

    def test_scatter_bad_ndim(self):
        d = BlockDecomposition(12, 20, 1, 1)
        with pytest.raises(DecompositionError):
            d.scatter_global(np.zeros(12), 0)


class TestLandAnalysis:
    def test_land_blocks(self):
        d = BlockDecomposition(16, 16, 2, 2, north_fold=False)
        mask = np.zeros((16, 16), dtype=bool)
        mask[:8, :8] = True  # ocean only in block 0
        # a land block is a rank without ocean points
        counts = d.ocean_points_per_rank(mask)
        assert list(np.flatnonzero(counts == 0)) == [1, 2, 3]

    def test_points_per_rank(self):
        d = BlockDecomposition(16, 16, 2, 2, north_fold=False)
        mask = np.ones((16, 16), dtype=bool)
        assert np.array_equal(d.ocean_points_per_rank(mask), [64] * 4)

    def test_imbalance_uniform_is_one(self):
        d = BlockDecomposition(16, 16, 2, 2, north_fold=False)
        stats = imbalance_stats(d, np.ones((16, 16), dtype=bool))
        assert stats.imbalance_factor == pytest.approx(1.0)

    def test_imbalance_grows_with_asymmetry(self):
        d = BlockDecomposition(16, 16, 2, 2, north_fold=False)
        mask = np.zeros((16, 16), dtype=bool)
        mask[:8, :8] = True
        mask[8:, 8:] = True
        mask[0, 8:] = True  # tiny extra load on one block
        assert imbalance_stats(d, mask).imbalance_factor > 1.5


class TestChooseProcessGrid:
    def test_exact_factorisation(self):
        npy, npx = choose_process_grid(100, 200, 8)
        assert npy * npx == 8

    def test_prefers_square_blocks(self):
        npy, npx = choose_process_grid(100, 200, 4)
        # 200/npx should be close to 100/npy
        assert abs((100 / npy) - (200 / npx)) < 60

    def test_single_rank(self):
        assert choose_process_grid(10, 10, 1) == (1, 1)

    def test_impossible(self):
        with pytest.raises(DecompositionError):
            choose_process_grid(2, 2, 64)


@settings(max_examples=40, deadline=None)
@given(
    ny=st.integers(8, 60),
    nx=st.integers(8, 60),
    npy=st.integers(1, 4),
    npx=st.integers(1, 4),
)
def test_property_partition_and_topology(ny, nx, npy, npx):
    """Any feasible decomposition covers the grid once and has a
    consistent mutual neighbour topology."""
    try:
        d = BlockDecomposition(ny, nx, npy, npx)
    except DecompositionError:
        return  # infeasible sizes are allowed to raise
    seen = np.zeros((ny, nx), dtype=int)
    for b in map(d.block, range(d.size)):
        seen[b.j0:b.j1, b.i0:b.i1] += 1
    assert np.all(seen == 1)
    for r in range(d.size):
        nb = d.neighbors(r)
        assert d.neighbors(nb["e"])["w"] == r
        assert d.neighbors(nb["w"])["e"] == r
        if nb["n"] is not None:
            assert d.neighbors(nb["n"])["s"] == r
        if nb["fold"] is not None:
            # the fold is an involution
            assert d.neighbors(nb["fold"])["fold"] == r
