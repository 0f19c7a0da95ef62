"""Policies and the paper's tile-distribution equations (Eq. 1-2)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kokkos import MDRangePolicy, RangePolicy, iter_tiles, tiles_per_cpe, total_tiles
from repro.kokkos.policy import as_md, tile_volume


class TestRangePolicy:
    def test_basic(self):
        p = RangePolicy(2, 10)
        assert p.size == 8
        assert p.ndim == 1
        assert p.ranges == ((2, 10),)

    def test_reversed_range_rejected(self):
        with pytest.raises(ValueError):
            RangePolicy(5, 2)

    def test_empty_allowed(self):
        assert RangePolicy(3, 3).size == 0


class TestMDRangePolicy:
    def test_int_shorthand(self):
        p = MDRangePolicy([4, 5])
        assert p.ranges == ((0, 4), (0, 5))
        assert p.size == 20

    def test_pair_ranges(self):
        p = MDRangePolicy([(1, 3), (2, 6)])
        assert p.extents == (2, 4)

    def test_tile_rank_mismatch(self):
        with pytest.raises(ValueError):
            MDRangePolicy([4, 4], tile=(2,))

    def test_nonpositive_tile(self):
        with pytest.raises(ValueError):
            MDRangePolicy([4], tile=(0,))

    def test_empty_dims_rejected(self):
        with pytest.raises(ValueError):
            MDRangePolicy([])

    def test_with_tile(self):
        p = MDRangePolicy([8, 8], tile=(2, 4))
        assert p.tile == (2, 4)

    def test_as_md_from_int(self):
        assert as_md(7).ranges == ((0, 7),)

    def test_as_md_from_range_policy(self):
        assert as_md(RangePolicy(1, 5)).ranges == ((1, 5),)

    def test_as_md_passthrough(self):
        p = MDRangePolicy([3])
        assert as_md(p) is p


class TestPaperEquations:
    def test_eq1_exact_division(self):
        # 100 x 64 with 10 x 8 tiles -> 10 * 8 = 80 tiles
        assert total_tiles((100, 64), (10, 8)) == 80

    def test_eq1_ceiling(self):
        # ceil(10/3) * ceil(7/2) = 4 * 4 = 16
        assert total_tiles((10, 7), (3, 2)) == 16

    def test_eq2_balanced(self):
        assert tiles_per_cpe(128, 64) == 2

    def test_eq2_ceiling(self):
        assert tiles_per_cpe(65, 64) == 2
        assert tiles_per_cpe(64, 64) == 1
        assert tiles_per_cpe(1, 64) == 1


class TestIterTiles:
    def test_tiles_cover_range_exactly(self):
        ranges = ((0, 10), (3, 10))
        seen = np.zeros((10, 10), dtype=int)
        for sj, si in iter_tiles(ranges, (3, 4)):
            seen[sj, si] += 1
        expected = np.zeros((10, 10), dtype=int)
        expected[0:10, 3:10] = 1
        assert np.array_equal(seen, expected)

    def test_tile_volume(self):
        assert tile_volume((slice(0, 3), slice(2, 7))) == 15


@settings(max_examples=50, deadline=None)
@given(
    ext=st.tuples(st.integers(1, 20), st.integers(1, 20), st.integers(1, 6)),
    tile=st.tuples(st.integers(1, 7), st.integers(1, 7), st.integers(1, 3)),
)
def test_property_tiles_partition_domain(ext, tile):
    """Tiles from Eq. 1 tiling cover every point exactly once."""
    ranges = tuple((0, e) for e in ext)
    seen = np.zeros(ext, dtype=int)
    count = 0
    for slices in iter_tiles(ranges, tile):
        seen[slices] += 1
        count += 1
    assert np.all(seen == 1)
    assert count == total_tiles(ext, tile)


@settings(max_examples=50, deadline=None)
@given(total=st.integers(0, 10_000), ncpe=st.integers(1, 64))
def test_property_eq2_is_balanced(total, ncpe):
    """Eq. 2: no CPE gets more than num_tile_per_cpe tiles under the
    round-robin sweep, and all tiles are assigned."""
    per = tiles_per_cpe(total, ncpe)
    counts = [0] * ncpe
    for t in range(total):
        counts[t % ncpe] += 1
    assert max(counts, default=0) <= per
    assert sum(counts) == total
