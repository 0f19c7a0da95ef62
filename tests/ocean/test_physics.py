"""EOS, forcing, Canuto stability functions, local domain plumbing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ocean import (
    ForcingParams,
    demo,
    density_linear,
    make_forcing,
    make_grid,
    make_topography,
    stability_functions,
)
from repro.ocean.eos import RHO0
from repro.ocean.forcing import restoring_sss, restoring_sst, wind_stress_zonal
from repro.ocean.localdomain import local_with_halo, make_local_domain
from repro.ocean.vmix_canuto import (
    KAPPA_CONVECTIVE,
    KAPPA_H_BACKGROUND,
    MIN_CANUTO_LEVELS,
    canuto_column_mask,
)
from repro.parallel import BlockDecomposition


class TestEOS:
    def test_reference_point(self):
        assert density_linear(10.0, 35.0) == pytest.approx(RHO0)

    def test_warmer_is_lighter(self):
        assert density_linear(20.0, 35.0) < density_linear(10.0, 35.0)

    def test_saltier_is_denser(self):
        assert density_linear(10.0, 36.0) > density_linear(10.0, 35.0)

    def test_array_input(self):
        t = np.array([0.0, 10.0, 20.0])
        rho = density_linear(t, 35.0)
        assert rho.shape == (3,)
        assert np.all(np.diff(rho) < 0)

    @settings(max_examples=30, deadline=None)
    @given(t=st.floats(-2, 32), s=st.floats(30, 40))
    def test_property_linear_eos_bounds(self, t, s):
        rho = density_linear(t, s)
        assert 1015.0 < rho < 1035.0


class TestForcing:
    def test_trades_are_easterly(self):
        tau = wind_stress_zonal(np.array([10.0, -10.0]))
        assert np.all(tau < 0)

    def test_westerlies_at_midlatitudes(self):
        tau = wind_stress_zonal(np.array([45.0, -45.0]))
        assert np.all(tau > 0)

    def test_sst_profile_warm_equator(self):
        p = ForcingParams()
        sst = restoring_sst(np.array([0.0, 60.0, 85.0]), p)
        assert sst[0] > sst[1] > sst[2]
        assert sst[0] == pytest.approx(p.t_equator)

    def test_sss_salty_subtropics(self):
        s = restoring_sss(np.array([25.0, 0.0, 60.0]))
        assert s[0] > s[1]
        assert s[0] > s[2]

    def test_make_forcing_shapes(self):
        g = make_grid(24, 36, 4)
        f = make_forcing(g)
        assert f.taux_u.shape == g.shape2d
        assert f.sst_star.shape == g.shape2d
        assert f.gamma_t > f.gamma_s  # SST restores faster than SSS


def _stability(ri):
    return stability_functions(ri, out=(np.empty_like(ri), np.empty_like(ri)))


class TestCanutoFunctions:
    def test_neutral_value(self):
        s_m, s_h = _stability(np.array([0.0]))
        assert s_m[0] == 1.0 and s_h[0] == 1.0

    def test_monotone_decreasing(self):
        ri = np.linspace(0.0, 10.0, 50)
        s_m, s_h = _stability(ri)
        assert np.all(np.diff(s_m) < 0)
        assert np.all(np.diff(s_h) < 0)

    def test_heat_cut_off_faster(self):
        s_m, s_h = _stability(np.array([1.0, 5.0]))
        assert np.all(s_h < s_m)

    def test_unstable_branch_saturates(self):
        s_m, s_h = _stability(np.array([-2.0]))
        assert s_m[0] == 1.0 and s_h[0] == 1.0

    def test_column_mask_excludes_shallow(self):
        cfg = demo("tiny")
        grid = make_grid(cfg.ny, cfg.nx, cfg.nz)
        topo = make_topography(grid)
        d = make_local_domain(grid, topo, BlockDecomposition(cfg.ny, cfg.nx, 1, 1), 0)
        mask = canuto_column_mask(d)
        assert mask.shape == (d.ly, d.lx)
        assert not mask[d.kmt < MIN_CANUTO_LEVELS].any()

    def test_model_kappa_within_bounds(self, tiny_model_session):
        kap = tiny_model_session.state.kappa_h.raw
        assert np.all(kap >= 0.0)
        assert np.all(kap <= KAPPA_CONVECTIVE + 1e-12)


class TestLocalWithHalo:
    def test_zonal_wrap(self, rng):
        g = rng.standard_normal((12, 16))
        d = BlockDecomposition(12, 16, 1, 1)
        loc = local_with_halo(g, d, 0)
        assert np.array_equal(loc[2:-2, 0], g[:, -2])
        assert np.array_equal(loc[2:-2, -1], g[:, 1])

    def test_south_fill(self, rng):
        g = rng.standard_normal((12, 16))
        d = BlockDecomposition(12, 16, 1, 1)
        loc = local_with_halo(g, d, 0, fill=-3.0)
        assert np.all(loc[:2, :] == -3.0)

    def test_fold_mirror(self, rng):
        g = rng.standard_normal((12, 16))
        d = BlockDecomposition(12, 16, 1, 1)
        loc = local_with_halo(g, d, 0, sign=-1.0)
        # first ghost row above the top = -flip(row ny-1)
        expect = -g[11, ::-1]
        got = loc[-2, 2:-2]
        # the ghost row covers global columns 0..15 mirrored
        assert np.allclose(got, expect)

    def test_3d(self, rng):
        g = rng.standard_normal((3, 12, 16))
        d = BlockDecomposition(12, 16, 2, 2)
        loc = local_with_halo(g, d, 1)
        b = d.block(1)
        assert np.array_equal(loc[:, 2:-2, 2:-2], g[:, b.j0:b.j1, b.i0:b.i1])

    def test_bad_ndim(self):
        d = BlockDecomposition(12, 16, 1, 1)
        with pytest.raises(ValueError):
            local_with_halo(np.zeros(5), d, 0)


class TestLocalDomain:
    def test_shapes(self):
        cfg = demo("tiny")
        grid = make_grid(cfg.ny, cfg.nx, cfg.nz)
        topo = make_topography(grid)
        d = make_local_domain(grid, topo, BlockDecomposition(cfg.ny, cfg.nx, 1, 1), 0)
        assert d.mask_t.shape == (cfg.nz, cfg.ny + 4, cfg.nx + 4)
        assert d.dx_t.shape == (cfg.ny + 4,)
        assert d.dz.shape == (cfg.nz,)

    def test_column_depth_u_nonnegative_and_bounded(self):
        cfg = demo("tiny")
        grid = make_grid(cfg.ny, cfg.nx, cfg.nz)
        topo = make_topography(grid)
        d = make_local_domain(grid, topo, BlockDecomposition(cfg.ny, cfg.nx, 1, 1), 0)
        hu = d.column_depth_u()
        assert np.all(hu >= 0.0)
        assert hu.max() <= topo.depth.max()

    def test_metric_rows_mirror_across_fold(self):
        cfg = demo("tiny")
        grid = make_grid(cfg.ny, cfg.nx, cfg.nz)
        topo = make_topography(grid)
        d = make_local_domain(grid, topo, BlockDecomposition(cfg.ny, cfg.nx, 1, 1), 0)
        # ghost row above the fold uses the mirrored source row's metric
        assert d.dx_t[-1] == pytest.approx(grid.dx_t[-2])
        assert d.dx_t[-2] == pytest.approx(grid.dx_t[-1])
