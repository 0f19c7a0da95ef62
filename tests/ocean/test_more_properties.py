"""Additional property-based tests: tridiagonal solver, Canuto kernel,
vertical diffusion maximum principle, EOS kernels across backends."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kokkos import AthreadBackend, MDRangePolicy, SerialBackend, View
from repro.kokkos.workspace import Workspace
from repro.ocean import demo, make_grid, make_topography
from repro.ocean.kernel_utils import thomas_solve
from repro.ocean.kernels_vdiff import VerticalTracerDiffusionFunctor
from repro.ocean.localdomain import make_local_domain
from repro.ocean.vmix_canuto import (
    CanutoMixFunctor,
    KAPPA_CONVECTIVE,
    KAPPA_H_BACKGROUND,
    KAPPA_M_BACKGROUND,
)
from repro.parallel import BlockDecomposition


def _domain(flat=True):
    cfg = demo("tiny")
    grid = make_grid(cfg.ny, cfg.nx, cfg.nz)
    topo = make_topography(grid, flat=flat)
    return make_local_domain(grid, topo, BlockDecomposition(cfg.ny, cfg.nx, 1, 1), 0)


@settings(max_examples=40, deadline=None)
@given(
    nz=st.integers(2, 24),
    seed=st.integers(0, 500),
    cols=st.integers(1, 4),
)
def test_property_thomas_solves_dd_systems(nz, seed, cols):
    """Random diagonally-dominant tridiagonal systems solved to machine
    precision against the dense reference (column-parallel)."""
    rng = np.random.default_rng(seed)
    lower = -rng.uniform(0.0, 0.45, (nz, cols, 1))
    upper = -rng.uniform(0.0, 0.45, (nz, cols, 1))
    lower[0] = upper[-1] = 0.0
    diag = 1.0 - lower - upper + rng.uniform(0.0, 0.5, (nz, cols, 1))
    rhs = rng.standard_normal((nz, cols, 1))
    x = thomas_solve(lower, diag, upper, rhs, Workspace())
    for c in range(cols):
        a = np.zeros((nz, nz))
        for k in range(nz):
            a[k, k] = diag[k, c, 0]
            if k:
                a[k, k - 1] = lower[k, c, 0]
            if k < nz - 1:
                a[k, k + 1] = upper[k, c, 0]
        ref = np.linalg.solve(a, rhs[:, c, 0])
        assert np.allclose(x[:, c, 0], ref, rtol=1e-9, atol=1e-12)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 200), dt_hours=st.floats(0.5, 24.0))
def test_property_vertical_diffusion_maximum_principle(seed, dt_hours):
    """Implicit vertical diffusion never creates new column extrema."""
    dom = _domain()
    rng = np.random.default_rng(seed)
    t0 = (10.0 + 5.0 * rng.standard_normal((dom.nz, dom.ly, dom.lx))) * dom.mask_t
    tr = View("t", data=t0.copy())
    kap = View("k", (dom.nz, dom.ly, dom.lx))
    kap.raw[...] = rng.uniform(1e-5, 5e-2)
    pol = MDRangePolicy([(0, dom.ly), (0, dom.lx)])
    SerialBackend().parallel_for(
        "vdiff", pol,
        VerticalTracerDiffusionFunctor(tr, kap, np.zeros((dom.ly, dom.lx)),
                                       0.0, dom, dt_hours * 3600.0))
    m = dom.mask_t > 0
    # per-column bounds
    for j in range(2, dom.ly - 2, 5):
        for i in range(2, dom.lx - 2, 7):
            col_m = m[:, j, i]
            if not col_m.any():
                continue
            before = t0[col_m, j, i]
            after = tr.raw[col_m, j, i]
            assert after.max() <= before.max() + 1e-9
            assert after.min() >= before.min() - 1e-9


class TestCanutoKernelProperties:
    def _run(self, u3, v3, rho3, dom):
        u = View("u", data=u3)
        v = View("v", data=v3)
        rho = View("rho", data=rho3)
        km = View("km", (dom.nz, dom.ly, dom.lx))
        kh = View("kh", (dom.nz, dom.ly, dom.lx))
        h = dom.halo
        pol = MDRangePolicy([(h, dom.ly - h), (h, dom.lx - h)])
        SerialBackend().parallel_for(
            "canuto", pol, CanutoMixFunctor(u, v, rho, km, kh, dom))
        return km.raw, kh.raw

    def test_kappa_bounded(self, rng):
        dom = _domain()
        shape = (dom.nz, dom.ly, dom.lx)
        km, kh = self._run(rng.standard_normal(shape) * 0.1,
                           rng.standard_normal(shape) * 0.1,
                           (1025.0 + rng.standard_normal(shape)) * dom.mask_t,
                           dom)
        h = dom.halo
        inner = (slice(0, dom.nz - 1), slice(h, -h), slice(h, -h))
        assert km[inner].max() <= KAPPA_CONVECTIVE + 1e-12
        assert kh[inner].max() <= KAPPA_CONVECTIVE + 1e-12
        assert km[inner].min() >= 0.0

    def test_stable_stratification_weak_mixing(self, dom_cache={}):
        """Strongly stable columns at depth get near-background kappa."""
        dom = _domain()
        shape = (dom.nz, dom.ly, dom.lx)
        rho = np.zeros(shape)
        for k in range(dom.nz):
            rho[k] = 1020.0 + 5.0 * k   # strongly stable
        rho *= dom.mask_t
        km, kh = self._run(np.zeros(shape), np.zeros(shape), rho, dom)
        h = dom.halo
        j, i = dom.ly // 2, dom.lx // 2
        # the deepest interface is far below MIXING_DEPTH: background only
        k_deep = dom.nz - 2
        assert kh[k_deep, j, i] < 5.0 * KAPPA_H_BACKGROUND

    def test_unstable_column_convects(self):
        dom = _domain()
        shape = (dom.nz, dom.ly, dom.lx)
        rho = np.zeros(shape)
        for k in range(dom.nz):
            rho[k] = 1030.0 - 2.0 * k   # inverted: lighter below
        rho *= dom.mask_t
        km, kh = self._run(np.zeros(shape), np.zeros(shape), rho, dom)
        j, i = dom.ly // 2, dom.lx // 2
        assert km[0, j, i] == pytest.approx(KAPPA_CONVECTIVE)
        assert kh[0, j, i] == pytest.approx(KAPPA_CONVECTIVE)

    def test_shear_enhances_mixing(self, rng):
        """Stronger shear (lower Ri) gives larger kappa at fixed N^2."""
        dom = _domain()
        shape = (dom.nz, dom.ly, dom.lx)
        rho = np.zeros(shape)
        for k in range(dom.nz):
            rho[k] = 1025.0 + 0.1 * k   # weakly stable
        rho *= dom.mask_t
        u_weak = np.zeros(shape)
        u_strong = np.zeros(shape)
        for k in range(dom.nz):
            u_weak[k] = 0.01 * k
            u_strong[k] = 0.5 * k
        km_w, _ = self._run(u_weak * dom.mask_u, np.zeros(shape), rho, dom)
        km_s, _ = self._run(u_strong * dom.mask_u, np.zeros(shape), rho, dom)
        j, i = dom.ly // 2, dom.lx // 2
        assert km_s[0, j, i] >= km_w[0, j, i]

    def test_athread_matches_serial(self, rng):
        dom = _domain()
        shape = (dom.nz, dom.ly, dom.lx)
        u3 = rng.standard_normal(shape) * 0.1
        v3 = rng.standard_normal(shape) * 0.1
        rho3 = (1025.0 + rng.standard_normal(shape)) * dom.mask_t
        km_s, kh_s = self._run(u3.copy(), v3.copy(), rho3.copy(), dom)

        u = View("u", data=u3)
        v = View("v", data=v3)
        rho = View("rho", data=rho3)
        km = View("km", shape)
        kh = View("kh", shape)
        h = dom.halo
        pol = MDRangePolicy([(h, dom.ly - h), (h, dom.lx - h)])
        AthreadBackend().parallel_for(
            "canuto", pol, CanutoMixFunctor(u, v, rho, km, kh, dom))
        assert np.array_equal(km.raw, km_s)
        assert np.array_equal(kh.raw, kh_s)
