"""Physics validation on idealized setups: wave speeds, geostrophy, channel."""

import numpy as np
import pytest

from repro.kokkos import MDRangePolicy, SerialBackend
from repro.ocean import LICOMKpp, demo
from repro.ocean.grid import GRAVITY
from tests.ocean.idealized import (
    channel_topography,
    gravity_wave_speed,
    impose_geostrophic_state,
    impose_ssh_bump,
    make_channel_model,
    quiesce,
)
from repro.parallel import BlockDecomposition, SimWorld


class TestChannelSetup:
    def test_channel_is_reentrant_strip(self):
        m = make_channel_model("tiny")
        kmt = m.topo.kmt
        lat = m.grid.lat_t
        inside = (lat > -65.0) & (lat < -35.0)
        assert np.all(kmt[inside, :] > 0)       # all-ocean strip
        assert np.all(kmt[~inside, :] == 0)     # walls everywhere else

    def test_channel_runs_stable(self):
        m = make_channel_model("tiny")
        m.run_days(2.0)
        assert not m.state.has_nan()

    def test_channel_develops_zonal_jet(self):
        """Westerlies over a re-entrant channel drive eastward transport."""
        m = make_channel_model("tiny")
        m.run_days(4.0)
        d = m.domain
        h = d.halo
        u = m.state.u.cur.raw[0, h:-h, h:-h]
        mask = d.mask_u[0, h:-h, h:-h]
        mean_u = u[mask > 0].mean()
        assert mean_u > 0.0  # net eastward (ACC-like) flow

    def test_channel_multirank_identical(self):
        cfg_size = "tiny"
        ref = make_channel_model(cfg_size)
        ref.run_steps(4)
        cfg = demo(cfg_size)
        d = BlockDecomposition(cfg.ny, cfg.nx, 1, 2, north_fold=False)

        def prog(comm):
            m = make_channel_model(cfg_size, comm=comm, decomp=d)
            m.run_steps(4)
            return m.state.u.cur.raw

        res = SimWorld.run(prog, 2)
        g = d.gather_global(res)
        assert np.array_equal(g, ref.state.u.cur.raw[:, 2:-2, 2:-2])


class TestGravityWaves:
    def test_bump_radiates_at_sqrt_gH(self):
        """An SSH bump's wavefront travels at ~sqrt(gH) through the
        barotropic subcycle."""
        m = make_channel_model("small")
        quiesce(m)
        impose_ssh_bump(m, amplitude=0.5, radius_deg=5.0, lat0=-50.0)
        ssh0 = np.abs(m.state.ssh.cur.raw.copy())
        m.run_steps(1)
        ssh1 = np.abs(m.state.ssh.cur.raw)
        # after dt the anomaly region must have expanded: count cells
        # above a small threshold
        thresh = 0.005
        grew = (ssh1 > thresh).sum() > (ssh0 > thresh).sum()
        assert grew

        # quantitative check: the barotropic signal reaches a point at
        # distance ~ c*dt but not one at 3*c*dt
        c = gravity_wave_speed(m.grid.vert.total_depth)
        dt = m.config.dt_baroclinic
        reach = c * dt
        d = m.domain
        h = d.halo
        lat_idx = np.argmin(np.abs(m.grid.lat_t + 50.0))
        dx = m.grid.dx_t[lat_idx]
        i0 = h + np.argmin(np.abs(np.mod(m.grid.lon_t, 360.0) - 180.0))
        cells = int(reach / dx)
        far = 4 * cells + 4
        if i0 + far < d.lx - h:
            assert abs(m.state.ssh.cur.raw[h + lat_idx, i0 + far]) < 1e-4

    def test_wave_speed_helper(self):
        assert gravity_wave_speed(4000.0) == pytest.approx(
            np.sqrt(GRAVITY * 4000.0))


class TestGeostrophicBalance:
    def _balanced(self):
        m = make_channel_model("small", lat_south=-68.0, lat_north=-30.0)
        quiesce(m)
        impose_geostrophic_state(m, eta0=0.2, lat0=-50.0, width_deg=12.0)
        return m

    def test_balanced_state_is_quasi_steady(self):
        """A geostrophically balanced front barely evolves over a few
        steps (drift << signal over the cells the balance was imposed
        on; wall-adjacent corners adjust, as they must)."""
        m = self._balanced()
        u0 = m.state.u.cur.raw.copy()
        speed0 = np.abs(u0).max()
        assert speed0 > 0.005  # the front carries a real current
        m.run_steps(4)
        sel = np.abs(u0) > 1e-4
        du = m.state.u.cur.raw - u0
        rel = np.linalg.norm(du[sel]) / np.linalg.norm(u0[sel])
        assert rel < 0.25

    def test_balanced_flow_stays_zonal(self):
        """Geostrophy keeps v ~ 0; the meridional response is tiny."""
        m = self._balanced()
        speed0 = np.abs(m.state.u.cur.raw).max()
        m.run_steps(4)
        assert np.abs(m.state.v.cur.raw).max() < 0.05 * speed0

    def test_unbalanced_state_radiates(self):
        """The same SSH front WITHOUT its balancing current launches a
        meridional (gravity/inertial) response an order of magnitude
        larger — geostrophy is what the balanced test verifies."""
        balanced = self._balanced()
        balanced.run_steps(4)
        v_bal = np.abs(balanced.state.v.cur.raw).max()

        unbalanced = self._balanced()
        unbalanced.state.u.set_initial(
            np.zeros_like(unbalanced.state.u.cur.raw))
        unbalanced.run_steps(4)
        v_unbal = np.abs(unbalanced.state.v.cur.raw).max()
        assert v_unbal > 5.0 * v_bal
