"""Passive (dye) tracers: the in-situ shape-preservation guarantee."""

import numpy as np
import pytest

from repro.ocean import LICOMKpp, ModelParams, demo
from repro.parallel import BlockDecomposition, SimWorld


class TestPassiveTracers:
    def test_dye_initialised_in_unit_range(self):
        m = LICOMKpp(demo("tiny"), params=ModelParams(n_passive=1))
        m.release_dye(0, lon=200.0, lat=0.0, radius_deg=25.0)
        dye = m.state.passive[0].cur.raw
        assert dye.min() == 0.0
        assert dye.max() == 1.0

    def test_dye_stays_in_bounds(self):
        """The full model step is strictly bounds-preserving for tracers
        (diffuse-then-advect FCT + implicit vertical operator)."""
        m = LICOMKpp(demo("tiny"), params=ModelParams(n_passive=1))
        m.release_dye(0, lon=200.0, lat=0.0, radius_deg=25.0)
        m.run_steps(20)
        dye = m.state.passive[0].cur.raw
        assert dye.min() >= -1e-12
        assert dye.max() <= 1.0 + 1e-12

    def test_dye_spreads(self):
        m = LICOMKpp(demo("tiny"), params=ModelParams(n_passive=1))
        m.release_dye(0, lon=200.0, lat=0.0, radius_deg=20.0)
        cells0 = int((m.state.passive[0].cur.raw > 1e-6).sum())
        m.run_days(2.0)
        cells1 = int((m.state.passive[0].cur.raw > 1e-6).sum())
        assert cells1 > cells0

    def test_multiple_tracers_independent(self):
        m = LICOMKpp(demo("tiny"), params=ModelParams(n_passive=2))
        m.release_dye(0, lon=100.0, lat=20.0, radius_deg=15.0)
        # tracer 1 left at zero
        m.run_steps(6)
        assert m.state.passive[0].cur.raw.max() > 0.0
        assert np.allclose(m.state.passive[1].cur.raw, 0.0)

    def test_no_passive_by_default(self):
        m = LICOMKpp(demo("tiny"))
        assert m.state.passive == []
        with pytest.raises(ValueError):
            m.release_dye(0)

    def test_passive_included_in_leapfrog_fields(self):
        m = LICOMKpp(demo("tiny"), params=ModelParams(n_passive=1))
        assert "ptracer0" in m.state.leapfrog_fields()

    def test_dye_multirank_bitwise(self):
        cfg = demo("tiny")
        params = ModelParams(n_passive=1)
        ref = LICOMKpp(cfg, params=params)
        ref.release_dye(0, lon=200.0, lat=0.0, radius_deg=25.0)
        ref.run_steps(4)
        d = BlockDecomposition(cfg.ny, cfg.nx, 2, 2)

        def prog(comm):
            m = LICOMKpp(cfg, comm=comm, decomp=d, params=params)
            m.release_dye(0, lon=200.0, lat=0.0, radius_deg=25.0)
            m.run_steps(4)
            return m.state.passive[0].cur.raw

        res = SimWorld.run(prog, 4)
        g = d.gather_global(res)
        assert np.array_equal(g, ref.state.passive[0].cur.raw[:, 2:-2, 2:-2])
