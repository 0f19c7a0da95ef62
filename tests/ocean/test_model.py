"""Full-model integration: stability, portability, distribution, diagnostics."""

import numpy as np
import pytest

from repro.errors import StabilityError
from repro.ocean import (
    LICOMKpp,
    ModelParams,
    ModelState,
    demo,
    rossby_number,
    rossby_stats,
    sst_stats,
    temperature_section,
)
from repro.parallel import BlockDecomposition, SimWorld


class TestStateManagement:
    def test_leapfrog_rotation(self):
        st = ModelState(2, 6, 6)
        st.t.cur.raw[...] = 1.0
        st.t.new.raw[...] = 2.0
        old, cur, new = st.t.old, st.t.cur, st.t.new
        buffers = [v.raw for v in st.t.levels]
        st.rotate()
        assert st.phase == 1
        assert np.all(st.t.old.raw == 1.0)
        assert np.all(st.t.cur.raw == 2.0)
        # roles move, views keep their buffers: recycled, not copied
        assert (st.t.old, st.t.cur, st.t.new) == (cur, new, old)
        assert all(v.raw is b for v, b in zip(st.t.levels, buffers))
        st.rotate()
        st.rotate()
        assert st.phase == 0 and (st.t.old, st.t.cur, st.t.new) == \
            (old, cur, new)

    def test_set_initial(self):
        st = ModelState(2, 6, 6)
        st.u.set_initial(np.full((2, 6, 6), 3.0))
        assert np.all(st.u.old.raw == 3.0)
        assert np.all(st.u.cur.raw == 3.0)

    def test_has_nan(self):
        st = ModelState(2, 6, 6)
        assert not st.has_nan()
        st.v.cur.raw[0, 0, 0] = np.nan
        assert st.has_nan()


class TestModelStep:
    def test_single_step_advances_clock(self, tiny_model):
        tiny_model.step()
        assert tiny_model.nstep == 1
        assert tiny_model.time_seconds == tiny_model.config.dt_baroclinic

    def test_run_days_step_count(self, tiny_model):
        tiny_model.run_days(1.0)
        assert tiny_model.nstep == tiny_model.config.steps_per_day

    def test_fields_stay_finite(self, tiny_model):
        tiny_model.run_steps(8)
        assert not tiny_model.state.has_nan()

    def test_wind_spins_up_circulation(self, tiny_model):
        ke0 = tiny_model.kinetic_energy()
        tiny_model.run_steps(12)
        assert tiny_model.kinetic_energy() > ke0

    def test_sst_stays_physical(self, tiny_model):
        tiny_model.run_steps(12)
        sst = tiny_model.sst()
        assert np.nanmin(sst) > -5.0
        assert np.nanmax(sst) < 40.0

    def test_velocity_masked_on_land(self, tiny_model):
        tiny_model.run_steps(6)
        u = tiny_model.state.u.cur.raw
        h = tiny_model.domain.halo
        inner = (slice(None), slice(h, -h), slice(h, -h))
        land = tiny_model.domain.mask_u[inner] == 0.0
        assert np.all(u[inner][land] == 0.0)

    def test_nan_check_raises(self):
        m = LICOMKpp(demo("tiny"), params=ModelParams(check_every=1))
        m.state.t.cur.raw[0, 5, 5] = np.nan
        with pytest.raises(StabilityError):
            m.step()

    def test_timers_populated(self, tiny_model):
        tiny_model.run_steps(2)
        for name in ("step", "tracer", "barotropic", "momentum"):
            assert tiny_model.timers.count(name) >= 2

    def test_instrumentation_populated(self, tiny_model):
        tiny_model.run_steps(1)
        inst = tiny_model.space.inst
        assert "advect_tracer_apply" in inst.kernels
        assert "canuto_mixing" in inst.kernels
        assert inst.kernels["advect_tracer_apply"].bytes > 0

    def test_momentum_advection_toggle(self):
        m = LICOMKpp(demo("tiny"), params=ModelParams(advect_momentum=False))
        m.run_steps(4)
        assert not m.state.has_nan()

    def test_flat_bottom_variant(self):
        m = LICOMKpp(demo("tiny"), flat_bottom=True)
        m.run_steps(4)
        assert not m.state.has_nan()

    def test_halo_update_counts_per_step(self, tiny_model):
        before3 = tiny_model.halo.updates3d
        before2 = tiny_model.halo.updates2d
        tiny_model.step()
        tiny_model.step()  # second step: regular leapfrog
        assert tiny_model.halo.updates3d - before3 == 28  # 14 per step
        nsub = tiny_model.config.barotropic_substeps
        # eta per sub-step; gx, gy, ub and vb once per step
        assert tiny_model.halo.updates2d - before2 == 2 * (nsub + 4) == 20


class TestPortability:
    @pytest.mark.parametrize("backend", ["openmp", "athread"])
    def test_backends_bitwise_identical(self, backend):
        cfg = demo("tiny")
        ref = LICOMKpp(cfg)
        ref.run_steps(4)
        other = LICOMKpp(cfg, backend=backend)
        other.run_steps(4)
        for fld in ("u", "v", "t", "s", "ssh"):
            a = getattr(ref.state, fld).cur.raw
            b = getattr(other.state, fld).cur.raw
            assert np.array_equal(a, b), fld

    def test_device_backend_runs_and_ledgers_copies(self):
        cfg = demo("tiny")
        m = LICOMKpp(cfg, backend="cuda")
        m.run_steps(2)
        assert not m.state.has_nan()
        tr = m.space.inst.transfers
        assert tr.d2h_bytes > 0 and tr.h2d_bytes > 0

    def test_device_matches_serial(self):
        cfg = demo("tiny")
        ref = LICOMKpp(cfg)
        ref.run_steps(3)
        dev = LICOMKpp(cfg, backend="hip")
        dev.run_steps(3)
        assert np.array_equal(ref.state.t.cur.raw, dev.state.t.cur.raw)


class TestDistributed:
    @pytest.mark.parametrize("npy,npx", [(2, 2), (1, 2)])
    def test_multirank_bitwise_equals_single(self, npy, npx):
        cfg = demo("tiny")
        ref = LICOMKpp(cfg)
        ref.run_steps(4)
        d = BlockDecomposition(cfg.ny, cfg.nx, npy, npx)

        def prog(comm):
            m = LICOMKpp(cfg, comm=comm, decomp=d)
            m.run_steps(4)
            return (m.state.t.cur.raw, m.state.u.cur.raw, m.state.ssh.cur.raw)

        res = SimWorld.run(prog, d.size)
        h = 2
        for idx, name in ((0, "t"), (1, "u"), (2, "ssh")):
            g = d.gather_global([r[idx] for r in res])
            r = getattr(ref.state, name).cur.raw[..., h:-h, h:-h]
            assert np.array_equal(g, r), name


class TestDiagnostics:
    def test_rossby_number_shape_and_masking(self, tiny_model_session):
        ro = rossby_number(tiny_model_session)
        cfg = tiny_model_session.config
        assert ro.shape == (cfg.ny, cfg.nx)
        # the equatorial band is masked
        lat = tiny_model_session.grid.lat_t
        assert np.isnan(ro[np.abs(lat) < 5.0, :]).all()

    def test_rossby_stats_finite(self, tiny_model_session):
        s = rossby_stats(tiny_model_session)
        assert np.isfinite(s.rms)
        assert s.p99 >= s.p90 >= 0.0
        assert 0.0 <= s.submesoscale_fraction <= 1.0

    def test_sst_stats_structure(self, tiny_model_session):
        s = sst_stats(tiny_model_session)
        assert s.tropical_mean > s.polar_mean  # warm pool, cold poles
        assert s.meridional_gradient > 5.0
        assert s.frontal_sharpness >= 0.0

    def test_temperature_section(self, tiny_model_session):
        lat, z, t = temperature_section(tiny_model_session, 180.0)
        cfg = tiny_model_session.config
        assert t.shape == (cfg.ny, cfg.nz)
        ocean_vals = t[np.isfinite(t)]
        assert ocean_vals.size > 0
        assert ocean_vals.max() < 40.0

    def test_surface_speed(self, tiny_model_session):
        sp = tiny_model_session.surface_speed()
        assert np.all(sp >= 0.0)
        assert sp.max() < 5.0

    def test_tracer_content_positive(self, tiny_model_session):
        assert tiny_model_session.tracer_content("t") > 0.0
        assert tiny_model_session.tracer_content("s") > 0.0
