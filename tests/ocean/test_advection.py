"""The two-step shape-preserving advection scheme (Yu 1994 / FCT).

Property-based guarantees from the paper's scheme description:
shape preservation (no new extrema) and conservation (flux form).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kokkos import MDRangePolicy, SerialBackend, View
from repro.ocean import demo, make_grid, make_topography
from repro.ocean.kernels_scalar import WFunctor
from repro.ocean.kernels_tracer import (
    AdvectPredictorFunctor,
    FCTApplyFunctor,
    FCTLimitFunctor,
    TracerHDiffusionFunctor,
)
from repro.ocean.localdomain import make_local_domain
from repro.parallel import BlockDecomposition, SingleComm
from tests.conftest import halo_update


def _flat_domain(ny=20, nx=28, nz=4):
    """Flat-bottom mostly-ocean domain for clean advection tests."""
    cfg = demo("tiny")
    grid = make_grid(ny, nx, nz)
    topo = make_topography(grid, flat=True)
    decomp = BlockDecomposition(ny, nx, 1, 1)
    dom = make_local_domain(grid, topo, decomp, 0)
    return grid, topo, decomp, dom


def _solenoidal_velocity(dom, rng, amplitude=0.3):
    """Divergence-free horizontal flow from a random streamfunction.

    psi lives at cell centers; u = -dpsi/dy, v = +dpsi/dx at corners
    gives exactly zero discrete divergence for the B-grid operators used
    by the model (the corner-average face velocities of a streamfunction
    field cancel in the flux divergence).
    """
    ly, lx = dom.ly, dom.lx
    psi = rng.standard_normal((ly, lx))
    # smooth it a little
    for _ in range(2):
        psi = 0.25 * (np.roll(psi, 1, 0) + np.roll(psi, -1, 0)
                      + np.roll(psi, 1, 1) + np.roll(psi, -1, 1))
    psi *= amplitude * dom.dy
    u2 = np.zeros((ly, lx))
    v2 = np.zeros((ly, lx))
    # corner (j,i) sits between centers (j,i),(j,i+1),(j+1,i),(j+1,i+1)
    u2[:-1, :-1] = -(psi[1:, :-1] + psi[1:, 1:] - psi[:-1, :-1] - psi[:-1, 1:]) / (2 * dom.dy)
    dxu = dom.dx_u[:, None]
    v2[:-1, :-1] = (psi[:-1, 1:] + psi[1:, 1:] - psi[:-1, :-1] - psi[1:, :-1]) / (2 * dxu[:-1])
    u = np.repeat(u2[None, :, :], dom.nz, axis=0)
    v = np.repeat(v2[None, :, :], dom.nz, axis=0)
    # zero at the domain edges so no flux enters through the fold/south
    for a in (u, v):
        a[:, :3, :] = 0.0
        a[:, -3:, :] = 0.0
    # make the ghost columns wrap-consistent: flux pairs at the zonal
    # seam must be computed from identical data on both sides
    halo_update(SingleComm(), dom.decomp, u, sign=-1.0)
    halo_update(SingleComm(), dom.decomp, v, sign=-1.0)
    return u, v


def _advect_once(dom, decomp, t0, u, v, dt, comm=None):
    """One full two-step advection update; returns T_new."""
    comm = comm or SingleComm()
    be = SerialBackend()
    nz, ly, lx = dom.nz, dom.ly, dom.lx
    h = dom.halo

    tv = View("t", data=t0.copy())
    uv = View("u", data=u.copy())
    vv = View("v", data=v.copy())
    wv = View("w", (nz + 1, ly, lx))
    tstar = View("tstar", (nz, ly, lx))
    rp = View("rp", (nz, ly, lx))
    rm = View("rm", (nz, ly, lx))
    tnew = View("tnew", (nz, ly, lx))
    aflux = (View("a_e", (nz, ly, lx)), View("a_n", (nz, ly, lx)),
             View("a_t", (nz + 1, ly, lx)))

    p_int2 = MDRangePolicy([(h, ly - h), (h, lx - h)])
    p_int2g = MDRangePolicy([(h - 1, ly - h + 1), (h - 1, lx - h + 1)])
    be.parallel_for("w", p_int2g, WFunctor(uv, vv, wv, dom))
    be.parallel_for("pred", p_int2,
                    AdvectPredictorFunctor(tv, uv, vv, wv, tstar, dom, dt))
    halo_update(comm, decomp, tstar.raw)
    be.parallel_for("lim", p_int2,
                    FCTLimitFunctor(tv, tstar, uv, vv, wv, rp, rm, *aflux,
                                    dom, dt))
    halo_update(comm, decomp, rp.raw, fill=1.0)
    halo_update(comm, decomp, rm.raw, fill=1.0)
    be.parallel_for("apply", p_int2,
                    FCTApplyFunctor(tstar, uv, vv, wv, rp, rm, *aflux, tnew,
                                    dom, dt))
    return tnew.raw, wv.raw


def _tracer_mass(dom, t):
    jj, ii = dom.interior
    vol = (dom.dx_t[jj.start:jj.stop] * dom.dy)[None, :, None] * dom.dz[:, None, None]
    return float(np.sum(t[:, jj, ii] * dom.mask_t[:, jj, ii] * vol))


def _surface_exchange(dom, w, t, dt):
    """Mass leaving through the linear free surface: dt * sum(w0 A T0).

    The split-explicit model carries the volume change in ssh; the
    tracer budget closes once this term is added back."""
    jj, ii = dom.interior
    area = (dom.dx_t[jj.start:jj.stop] * dom.dy)[:, None]
    flux = w[0, jj, ii] * area * t[0, jj, ii] * dom.mask_t[0, jj, ii]
    return dt * float(flux.sum())


class TestAdvectionBasics:
    def test_uniform_field_is_invariant(self, rng):
        grid, topo, decomp, dom = _flat_domain()
        u, v = _solenoidal_velocity(dom, rng)
        t0 = 5.0 * dom.mask_t
        tn, _ = _advect_once(dom, decomp, t0, u, v, dt=3600.0)
        jj, ii = dom.interior
        m = dom.mask_t[:, jj, ii] > 0
        assert np.allclose(tn[:, jj, ii][m], 5.0, atol=1e-12)

    def test_zero_velocity_is_identity(self, rng):
        grid, topo, decomp, dom = _flat_domain()
        t0 = rng.standard_normal((dom.nz, dom.ly, dom.lx)) * dom.mask_t
        halo_update(SingleComm(), decomp, t0)
        zeros = np.zeros_like(t0)
        tn, _ = _advect_once(dom, decomp, t0, zeros, zeros, dt=3600.0)
        jj, ii = dom.interior
        assert np.allclose(tn[:, jj, ii], t0[:, jj, ii])

    def test_conserves_tracer_mass(self, rng):
        grid, topo, decomp, dom = _flat_domain()
        u, v = _solenoidal_velocity(dom, rng)
        t0 = (10.0 + rng.standard_normal((dom.nz, dom.ly, dom.lx))) * dom.mask_t
        halo_update(SingleComm(), decomp, t0)
        before = _tracer_mass(dom, t0)
        tn, w = _advect_once(dom, decomp, t0, u, v, dt=3600.0)
        after = _tracer_mass(dom, tn) + _surface_exchange(dom, w, t0, 3600.0)
        assert after == pytest.approx(before, rel=1e-10)

    def test_shape_preservation_single_step(self, rng):
        grid, topo, decomp, dom = _flat_domain()
        u, v = _solenoidal_velocity(dom, rng, amplitude=0.5)
        t0 = rng.uniform(0.0, 30.0, (dom.nz, dom.ly, dom.lx)) * dom.mask_t
        halo_update(SingleComm(), decomp, t0)
        tn, _ = _advect_once(dom, decomp, t0, u, v, dt=3600.0)
        jj, ii = dom.interior
        m = dom.mask_t[:, jj, ii] > 0
        tol = 1e-9
        assert tn[:, jj, ii][m].max() <= t0.max() + tol
        assert tn[:, jj, ii][m].min() >= t0[:, jj, ii][m].min() - tol

    def test_transports_downstream(self):
        """A blob in a uniform eastward flow moves east, not west."""
        grid, topo, decomp, dom = _flat_domain()
        u = np.zeros((dom.nz, dom.ly, dom.lx))
        v = np.zeros_like(u)
        u[:, 4:-4, :] = 1.0 * dom.mask_u[:, 4:-4, :]
        jj, ii = dom.interior
        jmid = dom.ly // 2
        imid = dom.lx // 2
        t0 = np.zeros((dom.nz, dom.ly, dom.lx))
        t0[:, jmid, imid] = 1.0
        halo_update(SingleComm(), decomp, t0)
        dt = 0.4 * dom.dx_t.min() / 1.0
        tn, _ = _advect_once(dom, decomp, t0, u, v, dt=dt)
        assert tn[0, jmid, imid + 1] > tn[0, jmid, imid - 1]

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 200), dt_hours=st.floats(0.2, 1.5))
    def test_property_shape_preserving_and_conservative(self, seed, dt_hours):
        """For random smooth solenoidal flows and random positive fields:
        no new extrema, exact mass conservation."""
        rng = np.random.default_rng(seed)
        grid, topo, decomp, dom = _flat_domain()
        u, v = _solenoidal_velocity(dom, rng, amplitude=0.4)
        t0 = rng.uniform(5.0, 25.0, (dom.nz, dom.ly, dom.lx)) * dom.mask_t
        halo_update(SingleComm(), decomp, t0)
        before = _tracer_mass(dom, t0)
        tn, w = _advect_once(dom, decomp, t0, u, v, dt=dt_hours * 3600.0)
        jj, ii = dom.interior
        m = dom.mask_t[:, jj, ii] > 0
        assert tn[:, jj, ii][m].max() <= t0.max() + 1e-9
        assert tn[:, jj, ii][m].min() >= 0.0 - 1e-9
        total = _tracer_mass(dom, tn) + _surface_exchange(dom, w, t0, dt_hours * 3600.0)
        assert total == pytest.approx(before, rel=1e-9)


class TestHorizontalDiffusion:
    def test_conserves_and_smooths(self, rng):
        grid, topo, decomp, dom = _flat_domain()
        t0 = (10.0 + rng.standard_normal((dom.nz, dom.ly, dom.lx))) * dom.mask_t
        halo_update(SingleComm(), decomp, t0)
        tin = View("tin", data=t0.copy())
        tnew = View("tnew", data=t0.copy())
        h = dom.halo
        p_int2 = MDRangePolicy([(h, dom.ly - h), (h, dom.lx - h)])
        kappa = 0.02 * dom.dx_t.min() ** 2 / 3600.0
        SerialBackend().parallel_for(
            "hdiff", p_int2,
            TracerHDiffusionFunctor(tin, tnew, dom, 3600.0, kappa))
        before = _tracer_mass(dom, t0)
        after = _tracer_mass(dom, tnew.raw)
        assert after == pytest.approx(before, rel=1e-10)
        jj, ii = dom.interior
        m = dom.mask_t[:, jj, ii] > 0
        assert np.var(tnew.raw[:, jj, ii][m]) < np.var(t0[:, jj, ii][m])
