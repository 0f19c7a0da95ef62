"""Scalar/momentum/vertical kernels: formulas, invariants, solver checks."""

import numpy as np
import pytest

from repro.kokkos import MDRangePolicy, SerialBackend, View
from repro.kokkos.workspace import Workspace
from repro.ocean import demo, density_linear
from repro.ocean.eos import RHO0
from repro.ocean.grid import GRAVITY
from repro.ocean.kernel_utils import thomas_solve
from repro.ocean.kernels_barotropic import AsselinFilterFunctor
from repro.ocean.kernels_momentum import (
    AddBarotropicFunctor,
    CoriolisRotationFunctor,
    DepthMeanFunctor,
)
from repro.ocean.kernels_scalar import EOSFunctor, PressureFunctor
from repro.ocean.kernels_vdiff import (
    VerticalFrictionFunctor,
    VerticalTracerDiffusionFunctor,
    _diffusion_matrix,
)
from repro.ocean.localdomain import make_local_domain
from repro.ocean.model import LICOMKpp
from repro.parallel import BlockDecomposition


@pytest.fixture()
def dom():
    cfg = demo("tiny")
    from repro.ocean import make_grid, make_topography

    grid = make_grid(cfg.ny, cfg.nx, cfg.nz)
    topo = make_topography(grid, flat=True)
    return make_local_domain(grid, topo, BlockDecomposition(cfg.ny, cfg.nx, 1, 1), 0)


def _full2(dom):
    return MDRangePolicy([(0, dom.ly), (0, dom.lx)])


def _full3(dom):
    return MDRangePolicy([(0, dom.nz), (0, dom.ly), (0, dom.lx)])


class TestEOSKernel:
    def test_matches_reference_eos(self, dom, rng):
        t = View("t", data=(10 + rng.standard_normal((dom.nz, dom.ly, dom.lx))))
        s = View("s", data=(35 + 0.1 * rng.standard_normal((dom.nz, dom.ly, dom.lx))))
        rho = View("rho", (dom.nz, dom.ly, dom.lx))
        SerialBackend().parallel_for("eos", _full3(dom),
                                     EOSFunctor(t, s, rho, dom))
        ref = density_linear(t.raw, s.raw) * dom.mask_t
        assert np.allclose(rho.raw, ref)

    def test_land_is_zero(self, dom):
        t = View("t", (dom.nz, dom.ly, dom.lx))
        s = View("s", (dom.nz, dom.ly, dom.lx))
        rho = View("rho", (dom.nz, dom.ly, dom.lx))
        SerialBackend().parallel_for("eos", _full3(dom),
                                     EOSFunctor(t, s, rho, dom))
        assert np.all(rho.raw[dom.mask_t == 0.0] == 0.0)


class TestPressureKernel:
    def test_increases_downward_for_dense_anomaly(self, dom):
        rho = View("rho", (dom.nz, dom.ly, dom.lx))
        rho.raw[...] = (RHO0 + 1.0) * dom.mask_t  # uniformly dense
        p = View("p", (dom.nz, dom.ly, dom.lx))
        SerialBackend().parallel_for("p", _full2(dom),
                                     PressureFunctor(rho, p, dom))
        col = p.raw[:, dom.ly // 2, dom.lx // 2]
        assert np.all(np.diff(col) > 0)

    def test_analytic_value_uniform_anomaly(self, dom):
        rho = View("rho", (dom.nz, dom.ly, dom.lx))
        drho = 2.0
        rho.raw[...] = (RHO0 + drho) * dom.mask_t
        p = View("p", (dom.nz, dom.ly, dom.lx))
        SerialBackend().parallel_for("p", _full2(dom),
                                     PressureFunctor(rho, p, dom))
        j, i = dom.ly // 2, dom.lx // 2
        expect = (GRAVITY / RHO0) * drho * dom.z_t  # g/rho0 * drho * depth
        assert np.allclose(p.raw[:, j, i], expect, rtol=1e-12)

    def test_zero_anomaly_gives_zero(self, dom):
        rho = View("rho", (dom.nz, dom.ly, dom.lx))
        rho.raw[...] = RHO0 * dom.mask_t
        p = View("p", (dom.nz, dom.ly, dom.lx))
        SerialBackend().parallel_for("p", _full2(dom),
                                     PressureFunctor(rho, p, dom))
        assert np.allclose(p.raw, 0.0)


class TestCoriolisKernel:
    def test_preserves_speed(self, dom, rng):
        """The Cayley rotation is exactly energy neutral for pure inertial
        motion (u* = u_old)."""
        shape = (dom.nz, dom.ly, dom.lx)
        u0 = rng.standard_normal(shape) * dom.mask_u
        v0 = rng.standard_normal(shape) * dom.mask_u
        u = View("u", data=u0.copy())
        v = View("v", data=v0.copy())
        uo = View("uo", data=u0.copy())
        vo = View("vo", data=v0.copy())
        SerialBackend().parallel_for(
            "cor", _full3(dom), CoriolisRotationFunctor(u, v, uo, vo, dom, 7200.0))
        speed0 = u0 ** 2 + v0 ** 2
        speed1 = u.raw ** 2 + v.raw ** 2
        assert np.allclose(speed1, speed0, rtol=1e-12)

    def test_rotates_clockwise_in_north(self, dom):
        shape = (dom.nz, dom.ly, dom.lx)
        j = dom.ly - 6  # well north
        assert dom.f_u[j] > 0
        u = View("u", shape)
        v = View("v", shape)
        u.raw[:, j, 5] = 1.0
        uo = View("uo", data=u.raw.copy())
        vo = View("vo", data=v.raw.copy())
        SerialBackend().parallel_for(
            "cor", _full3(dom), CoriolisRotationFunctor(u, v, uo, vo, dom, 3600.0))
        if dom.mask_u[0, j, 5] > 0:
            assert v.raw[0, j, 5] < 0.0  # eastward flow deflects south


class TestDepthMean:
    def test_uniform_profile(self, dom):
        fld = View("f", (dom.nz, dom.ly, dom.lx))
        fld.raw[...] = 3.0
        out = View("o", (dom.ly, dom.lx))
        SerialBackend().parallel_for("dm", _full2(dom), DepthMeanFunctor(fld, out, dom))
        ocean = dom.mask_u[0] > 0
        assert np.allclose(out.raw[ocean], 3.0)
        assert np.all(out.raw[dom.mask_u.sum(axis=0) == 0] == 0.0)

    def test_weighted_by_thickness(self, dom):
        fld = View("f", (dom.nz, dom.ly, dom.lx))
        fld.raw[0] = 1.0  # only the (thinnest) top level nonzero
        out = View("o", (dom.ly, dom.lx))
        SerialBackend().parallel_for("dm", _full2(dom), DepthMeanFunctor(fld, out, dom))
        j, i = dom.ly // 2, dom.lx // 2
        thick = (dom.mask_u[:, j, i] * dom.dz).sum()
        assert out.raw[j, i] == pytest.approx(dom.dz[0] / thick)

    def test_strip_then_add_is_identity(self, dom, rng):
        fld = View("f", data=rng.standard_normal((dom.nz, dom.ly, dom.lx)) * dom.mask_u)
        orig = fld.raw.copy()
        mean = View("m", (dom.ly, dom.lx))
        be = SerialBackend()
        be.parallel_for("dm", _full2(dom), DepthMeanFunctor(fld, mean, dom))
        be.parallel_for("strip", _full3(dom),
                        AddBarotropicFunctor(fld, mean, dom, sign=-1.0))
        # f - d is bitwise f + (-d): the historical negated-copy strip
        assert np.array_equal(
            fld.raw, dom.mask_u * (orig + (-mean.raw)[None, :, :]))
        # stripped field has zero depth mean
        check = View("c", (dom.ly, dom.lx))
        be.parallel_for("dm2", _full2(dom), DepthMeanFunctor(fld, check, dom))
        assert np.allclose(check.raw, 0.0, atol=1e-12)
        be.parallel_for("add", _full3(dom), AddBarotropicFunctor(fld, mean, dom))
        assert np.allclose(fld.raw, orig, atol=1e-12)


class TestAsselin:
    def test_formula(self, rng):
        shape = (3, 4, 5)
        o = View("o", data=rng.standard_normal(shape))
        c = View("c", data=rng.standard_normal(shape))
        n = View("n", data=rng.standard_normal(shape))
        c0 = c.raw.copy()
        SerialBackend().parallel_for(
            "ass", MDRangePolicy([3, 4, 5]), AsselinFilterFunctor(o, c, n, 0.1, Workspace()))
        expect = c0 + 0.1 * (n.raw - 2 * c0 + o.raw)
        assert np.allclose(c.raw, expect)

    def test_steady_state_unchanged(self):
        shape = (2, 3, 3)
        o = View("o", shape)
        c = View("c", shape)
        n = View("n", shape)
        for vw in (o, c, n):
            vw.raw[...] = 5.0
        SerialBackend().parallel_for(
            "ass", MDRangePolicy([2, 3, 3]), AsselinFilterFunctor(o, c, n, 0.1, Workspace()))
        assert np.allclose(c.raw, 5.0)


class TestThomasSolver:
    def test_matches_dense_solve(self, rng):
        nz = 12
        lower = rng.uniform(-0.3, 0.0, (nz, 1, 1))
        upper = rng.uniform(-0.3, 0.0, (nz, 1, 1))
        diag = 1.0 - lower - upper
        rhs = rng.standard_normal((nz, 1, 1))
        x = thomas_solve(lower, diag, upper, rhs, Workspace())
        a = np.zeros((nz, nz))
        for k in range(nz):
            a[k, k] = diag[k, 0, 0]
            if k > 0:
                a[k, k - 1] = lower[k, 0, 0]
            if k < nz - 1:
                a[k, k + 1] = upper[k, 0, 0]
        ref = np.linalg.solve(a, rhs[:, 0, 0])
        assert np.allclose(x[:, 0, 0], ref, rtol=1e-10)

    def test_identity_system(self, rng):
        nz = 5
        z = np.zeros((nz, 2, 2))
        d = np.ones((nz, 2, 2))
        rhs = rng.standard_normal((nz, 2, 2))
        assert np.allclose(thomas_solve(z, d, z, rhs, Workspace()), rhs)


class TestVerticalDiffusion:
    def test_conserves_column_content(self, dom, rng):
        """Zero-flux boundaries (no restoring): sum(T dz) unchanged."""
        tr = View("t", data=(10 + rng.standard_normal((dom.nz, dom.ly, dom.lx))) * dom.mask_t)
        kap = View("k", (dom.nz, dom.ly, dom.lx))
        kap.raw[...] = 1e-3
        before = (tr.raw * dom.dz[:, None, None] * dom.mask_t).sum(axis=0)
        SerialBackend().parallel_for(
            "vdiff", _full2(dom),
            VerticalTracerDiffusionFunctor(tr, kap, np.zeros((dom.ly, dom.lx)),
                                           0.0, dom, 7200.0))
        after = (tr.raw * dom.dz[:, None, None] * dom.mask_t).sum(axis=0)
        assert np.allclose(after, before, rtol=1e-10)

    def test_standalone_domain_counts_scratch_in_its_own_arena(self, dom, rng):
        """A domain no model wired an arena into owns a disabled
        workspace: the kernel's temporaries are counted there, and no
        ExecutionContext is opened behind the caller's back."""
        from repro.kokkos import ExecutionContext

        # identities, not counts: a stray of an earlier test may be
        # collected between two live_count() readings
        before = ExecutionContext.live_contexts()
        assert not dom.workspace.enabled
        tr = View("t", data=(10 + rng.standard_normal((dom.nz, dom.ly, dom.lx))) * dom.mask_t)
        kap = View("k", (dom.nz, dom.ly, dom.lx))
        kap.raw[...] = 1e-3
        space = SerialBackend()
        space.parallel_for(
            "vdiff", _full2(dom),
            VerticalTracerDiffusionFunctor(tr, kap, np.zeros((dom.ly, dom.lx)),
                                           0.0, dom, 7200.0))
        stats = dom.workspace.inst.workspace
        assert stats.requests > 0 and stats.allocations == stats.requests
        assert space.inst.workspace.requests == 0
        assert all(any(c is b for b in before)
                   for c in ExecutionContext.live_contexts())

    def test_diffusion_reduces_column_variance(self, dom, rng):
        tr = View("t", data=(10 + rng.standard_normal((dom.nz, dom.ly, dom.lx))) * dom.mask_t)
        kap = View("k", (dom.nz, dom.ly, dom.lx))
        kap.raw[...] = 1e-2
        j, i = dom.ly // 2, dom.lx // 2
        var0 = np.var(tr.raw[:, j, i])
        SerialBackend().parallel_for(
            "vdiff", _full2(dom),
            VerticalTracerDiffusionFunctor(tr, kap, np.zeros((dom.ly, dom.lx)),
                                           0.0, dom, 86400.0))
        assert np.var(tr.raw[:, j, i]) < var0

    def test_restoring_pulls_surface_to_target(self, dom):
        tr = View("t", (dom.nz, dom.ly, dom.lx))
        tr.raw[...] = 10.0 * dom.mask_t
        kap = View("k", (dom.nz, dom.ly, dom.lx))
        star = np.full((dom.ly, dom.lx), 20.0)
        SerialBackend().parallel_for(
            "vdiff", _full2(dom),
            VerticalTracerDiffusionFunctor(tr, kap, star, 1.0 / 3600.0, dom, 7200.0))
        j, i = dom.ly // 2, dom.lx // 2
        assert 10.0 < tr.raw[0, j, i] <= 20.0
        assert tr.raw[1, j, i] == pytest.approx(10.0)  # only the top level restored

    def test_wind_accelerates_surface(self, dom):
        u = View("u", (dom.nz, dom.ly, dom.lx))
        v = View("v", (dom.nz, dom.ly, dom.lx))
        kap = View("k", (dom.nz, dom.ly, dom.lx))
        taux = np.full((dom.ly, dom.lx), 0.1)
        tauy = np.zeros((dom.ly, dom.lx))
        SerialBackend().parallel_for(
            "vfric", _full2(dom),
            VerticalFrictionFunctor(u, v, kap, taux, tauy, dom, 3600.0))
        j, i = dom.ly // 2, dom.lx // 2
        assert u.raw[0, j, i] > 0.0
        assert abs(v.raw[0, j, i]) < 1e-15

    def test_bottom_drag_decelerates(self, dom):
        u = View("u", (dom.nz, dom.ly, dom.lx))
        u.raw[...] = 1.0 * dom.mask_u
        v = View("v", (dom.nz, dom.ly, dom.lx))
        kap = View("k", (dom.nz, dom.ly, dom.lx))
        zero = np.zeros((dom.ly, dom.lx))
        SerialBackend().parallel_for(
            "vfric", _full2(dom),
            VerticalFrictionFunctor(u, v, kap, zero, zero, dom, 86400.0,
                                    bottom_drag=1e-4))
        j, i = dom.ly // 2, dom.lx // 2
        kb = int(dom.kmt[j, i]) - 1
        assert 0.0 < u.raw[kb, j, i] < 1.0

    def test_diffusion_matrix_land_rows_identity(self, dom):
        kap = np.full((dom.nz, 2, 2), 1e-3)
        mask = np.ones((dom.nz, 2, 2))
        mask[2:, 0, 0] = 0.0  # column with 2 active levels
        lower, diag, upper = _diffusion_matrix(kap, mask, dom.dz, dom.z_t,
                                               3600.0, Workspace())
        assert np.all(diag[2:, 0, 0] == 1.0)
        assert np.all(lower[2:, 0, 0] == 0.0)
        assert np.all(upper[2:, 0, 0] == 0.0)
        # the interface between active level 1 and dead level 2 is closed
        assert upper[1, 0, 0] == 0.0
