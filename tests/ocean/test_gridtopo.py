"""Grid, vertical grid, topography, configurations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.ocean import (
    EARTH_RADIUS,
    MARIANA_DEPTH,
    PAPER_CONFIGS,
    WEAK_SCALING_CONFIGS,
    demo,
    land_mask,
    levels_from_depth,
    make_grid,
    make_topography,
    make_vertical_grid,
)


class TestVerticalGrid:
    def test_uniform(self):
        v = make_vertical_grid(10, 5000.0, stretch=1.0)
        assert np.allclose(v.dz, 500.0)
        assert v.total_depth == pytest.approx(5000.0)

    def test_stretched_sums_to_depth(self):
        v = make_vertical_grid(30, 5000.0, stretch=4.0)
        assert v.dz.sum() == pytest.approx(5000.0)
        assert v.dz[-1] / v.dz[0] == pytest.approx(4.0)

    def test_monotone_interfaces(self):
        v = make_vertical_grid(20, 11000.0, stretch=6.0)
        assert np.all(np.diff(v.z_w) > 0)
        assert np.all((v.z_t > v.z_w[:-1]) & (v.z_t < v.z_w[1:]))

    def test_single_level(self):
        v = make_vertical_grid(1, 100.0)
        assert v.nz == 1
        assert v.dz[0] == 100.0

    @pytest.mark.parametrize("bad", [
        dict(nz=0, depth=100.0),
        dict(nz=5, depth=-1.0),
        dict(nz=5, depth=100.0, stretch=-1.0),
    ])
    def test_invalid(self, bad):
        with pytest.raises(ConfigurationError):
            make_vertical_grid(**bad)


class TestGrid:
    def test_shapes(self):
        g = make_grid(24, 36, 5)
        assert g.shape2d == (24, 36)
        assert g.nz == 5
        assert g.lat_t.size == 24 and g.lon_t.size == 36

    def test_metrics_positive(self):
        g = make_grid(24, 36, 5)
        assert np.all(g.dx_t > 0) and np.all(g.dx_u > 0)
        assert g.dy > 0
        assert np.all(g.area_t > 0)

    def test_coriolis_sign(self):
        g = make_grid(24, 36, 5)
        north = g.lat_u > 5
        south = g.lat_u < -5
        assert np.all(g.f_u[north] > 0)
        assert np.all(g.f_u[south] < 0)

    def test_resolution(self):
        g = make_grid(24, 360, 5)
        assert 360.0 / g.nx == pytest.approx(1.0)
        assert g.resolution_km == pytest.approx(2 * np.pi * EARTH_RADIUS / 360 / 1000)

    def test_cos_floor_protects_polar_rows(self):
        g = make_grid(40, 80, 3, lat_min=-78, lat_max=87)
        nominal = 2 * np.pi * EARTH_RADIUS / 80
        assert g.dx_t.min() >= nominal * np.cos(np.deg2rad(66.0)) * 0.999

    def test_min_dx(self):
        g = make_grid(24, 36, 5)
        assert g.min_dx() == pytest.approx(min(g.dx_t.min(), g.dy))

    def test_invalid_latitudes(self):
        with pytest.raises(ConfigurationError):
            make_grid(24, 36, 5, lat_min=50, lat_max=20)

    def test_too_small(self):
        with pytest.raises(ConfigurationError):
            make_grid(2, 36, 5)


class TestTopography:
    def test_land_mask_has_continents_and_caps(self):
        g = make_grid(48, 96, 5)
        land = land_mask(g)
        frac = land.mean()
        assert 0.2 < frac < 0.5  # Earth-like land fraction
        assert land[0, :].all()        # Antarctic cap
        assert land[-1, :].all()       # Arctic land under the fold

    def test_topography_depths(self):
        g = make_grid(48, 96, 10)
        topo = make_topography(g)
        assert topo.max_depth <= MARIANA_DEPTH
        assert topo.depth[topo.kmt == 0].max() == 0.0
        assert 0.4 < topo.ocean_fraction < 0.8

    def test_trench_reaches_challenger_deep(self):
        g = make_grid(48, 96, 20, depth=11000.0, stretch=6.0)
        topo = make_topography(g, with_trench=True)
        assert topo.max_depth > 10000.0  # the paper's full-depth claim

    def test_no_trench_by_default(self):
        g = make_grid(48, 96, 10)
        topo = make_topography(g, with_trench=False)
        assert topo.max_depth < 10000.0

    def test_kmt_consistent_with_depth(self):
        g = make_grid(32, 64, 8)
        topo = make_topography(g)
        z_w = g.vert.z_w
        ocean = topo.kmt > 0
        k = topo.kmt[ocean]
        # the kmt-th interface must not be deeper than... the column is
        # at least as deep as all retained full levels (up to min_levels)
        assert np.all(k >= 2)
        assert np.all(k <= g.nz)

    def test_masks_nested(self):
        g = make_grid(32, 64, 8)
        topo = make_topography(g)
        # deeper levels are ocean only where shallower ones are
        for k in range(1, g.nz):
            assert not np.any(topo.mask_t[k] & ~topo.mask_t[0])
        # U mask requires all four surrounding T cells
        assert not np.any(topo.mask_u & ~topo.mask_t)

    def test_flat_variant_is_mostly_ocean(self):
        g = make_grid(32, 64, 8)
        topo = make_topography(g, flat=True)
        assert topo.ocean_fraction > 0.85
        mid = topo.depth[g.shape2d[0] // 2]
        assert np.allclose(mid, g.vert.total_depth)

    def test_deterministic(self):
        g = make_grid(32, 64, 8)
        a = make_topography(g, seed=7)
        b = make_topography(g, seed=7)
        assert np.array_equal(a.depth, b.depth)

    def test_levels_from_depth_land(self):
        g = make_grid(32, 64, 8)
        depth = np.zeros(g.shape2d)
        assert np.all(levels_from_depth(g, depth) == 0)


class TestConfigs:
    def test_table3_values(self):
        c = PAPER_CONFIGS["km_1km"]
        assert (c.nx, c.ny, c.nz) == (36000, 22018, 80)
        assert (c.dt_barotropic, c.dt_baroclinic, c.dt_tracer) == (2.0, 20.0, 20.0)
        c2 = PAPER_CONFIGS["km_2km_fulldepth"]
        assert (c2.nx, c2.ny, c2.nz) == (18000, 11511, 244)
        assert c2.full_depth
        coarse = PAPER_CONFIGS["coarse_100km"]
        assert (coarse.nx, coarse.ny, coarse.nz) == (360, 218, 30)
        eddy = PAPER_CONFIGS["eddy_10km"]
        assert (eddy.nx, eddy.ny, eddy.nz) == (3600, 2302, 55)

    def test_table4_values(self):
        assert len(WEAK_SCALING_CONFIGS) == 6
        last_cfg, gpus, cores = WEAK_SCALING_CONFIGS[-1]
        assert gpus == 15360
        assert cores == 38366250
        assert last_cfg.nz == 80
        for cfg, _, _ in WEAK_SCALING_CONFIGS:
            assert cfg.dt_baroclinic == 20.0

    def test_grid_points(self):
        c = PAPER_CONFIGS["km_1km"]
        assert c.grid_points == 36000 * 22018 * 80
        assert c.grid_points > 63e9  # the paper's "> 63 billion grid points"

    def test_substeps(self):
        assert PAPER_CONFIGS["coarse_100km"].barotropic_substeps == 12
        assert PAPER_CONFIGS["eddy_10km"].barotropic_substeps == 20
        assert PAPER_CONFIGS["km_1km"].barotropic_substeps == 10

    def test_steps_per_day(self):
        assert PAPER_CONFIGS["coarse_100km"].steps_per_day == 60
        assert PAPER_CONFIGS["km_1km"].steps_per_day == 4320

    def test_demo_sizes(self):
        for size in ("tiny", "small", "medium", "large"):
            c = demo(size)
            assert c.barotropic_substeps >= 1
        with pytest.raises(ConfigurationError):
            demo("giant")

    def test_bad_substep_ratio(self):
        from repro.ocean.config import ModelConfig

        with pytest.raises(ConfigurationError):
            ModelConfig("bad", 1.0, 16, 16, 2, 7.0, 20.0, 20.0)
