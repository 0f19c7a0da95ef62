"""Restart/history I/O, mixed precision, MOC/streamfunction diagnostics, CLI."""

import numpy as np
import pytest

from repro.errors import OceanError
from repro.ocean import (
    HistoryAccumulator,
    LICOMKpp,
    ModelParams,
    barotropic_streamfunction,
    demo,
    io_cost_estimate,
    load_restart,
    meridional_overturning,
    restart_nbytes,
    save_restart,
)
from repro.ocean.config import PAPER_CONFIGS


class TestRestart:
    def test_exact_continuation(self, tmp_path):
        """A restarted run must be bitwise identical to an uninterrupted one."""
        cfg = demo("tiny")
        a = LICOMKpp(cfg)
        a.run_steps(5)
        path = save_restart(a, tmp_path / "rst.npz")
        a.run_steps(5)

        b = LICOMKpp(cfg)
        load_restart(b, path)
        assert b.nstep == 5
        b.run_steps(5)
        for fld in ("u", "v", "t", "s", "ssh"):
            assert np.array_equal(
                getattr(a.state, fld).cur.raw, getattr(b.state, fld).cur.raw
            ), fld

    def test_clock_restored(self, tmp_path):
        cfg = demo("tiny")
        a = LICOMKpp(cfg)
        a.run_steps(3)
        path = save_restart(a, tmp_path / "rst.npz")
        b = LICOMKpp(cfg)
        load_restart(b, path)
        assert b.time_seconds == a.time_seconds
        assert b.nstep == 3

    def test_suffix_appended(self, tmp_path):
        a = LICOMKpp(demo("tiny"))
        path = save_restart(a, tmp_path / "noext")
        assert path.suffix == ".npz"
        assert path.exists()

    def test_grid_mismatch_rejected(self, tmp_path):
        a = LICOMKpp(demo("tiny"))
        path = save_restart(a, tmp_path / "rst.npz")
        b = LICOMKpp(demo("small"))
        with pytest.raises(OceanError, match="grid"):
            load_restart(b, path)

    def test_restart_nbytes_scales(self):
        small = restart_nbytes(PAPER_CONFIGS["coarse_100km"])
        big = restart_nbytes(PAPER_CONFIGS["km_1km"])
        assert big > small * 1000
        # the 1-km restart is multiple terabytes — the SViii I/O argument
        assert big > 4e12

    def test_io_cost_estimate(self):
        est = io_cost_estimate(PAPER_CONFIGS["km_1km"], sypd=1.05)
        assert est["restart_bytes"] > 4e12
        assert est["write_seconds"] > 0
        assert 0.0 < est["wall_fraction"] < 10.0


class TestHistory:
    def test_means_accumulate(self):
        m = LICOMKpp(demo("tiny"))
        hist = HistoryAccumulator(m)
        m.run_steps(2)
        hist.sample()
        sst1 = m.state.t.cur.raw[0].copy()
        m.run_steps(2)
        hist.sample()
        sst2 = m.state.t.cur.raw[0]
        means = hist.means()
        assert hist.samples == 2
        assert np.allclose(means["sst"], 0.5 * (sst1 + sst2))

    def test_flush_roundtrip(self, tmp_path):
        m = LICOMKpp(demo("tiny"))
        hist = HistoryAccumulator(m)
        m.run_steps(1)
        hist.sample()
        path = tmp_path / "hist.npz"
        hist.flush(path)
        with np.load(path) as data:
            assert int(data["samples"]) == 1
            assert data["ssh"].shape == m.state.ssh.cur.shape
        assert hist.samples == 0

    def test_flush_empty_raises(self, tmp_path):
        hist = HistoryAccumulator(LICOMKpp(demo("tiny")))
        with pytest.raises(OceanError):
            hist.flush(tmp_path / "empty.npz")


class TestMixedPrecision:
    def test_single_precision_runs_stable(self):
        m = LICOMKpp(demo("tiny"), params=ModelParams(precision="single"))
        m.run_steps(8)
        assert not m.state.has_nan()
        assert m.state.t.cur.dtype == np.float32

    def test_single_tracks_double(self):
        """fp32 trajectory stays close to fp64 over a short run."""
        ms = LICOMKpp(demo("tiny"), params=ModelParams(precision="single"))
        md = LICOMKpp(demo("tiny"))
        ms.run_steps(8)
        md.run_steps(8)
        err = np.abs(ms.state.t.cur.raw - md.state.t.cur.raw).max()
        assert err < 1e-3

    def test_memory_halves(self):
        ms = LICOMKpp(demo("tiny"), params=ModelParams(precision="single"))
        md = LICOMKpp(demo("tiny"))
        assert ms.state.memory_bytes() * 2 == md.state.memory_bytes()

    def test_invalid_precision(self):
        with pytest.raises(ValueError):
            LICOMKpp(demo("tiny"), params=ModelParams(precision="half"))

    def test_perfmodel_projection(self):
        """SViii: mixed precision helps the bandwidth-bound Sunway most."""
        from repro.perfmodel import policy_projection

        cfg = PAPER_CONFIGS["km_1km"]
        _, _, sp_sunway = policy_projection(cfg, "new_sunway", 590250, "single")
        _, _, sp_orise = policy_projection(cfg, "orise", 16000, "single")
        assert 1.2 < sp_sunway < 2.0
        assert 1.0 < sp_orise < sp_sunway


class TestCirculationDiagnostics:
    @pytest.fixture(scope="class")
    def model(self):
        m = LICOMKpp(demo("small"))
        m.run_days(2.0)
        return m

    def test_moc_shape_and_units(self, model):
        lat, z, psi = meridional_overturning(model)
        assert psi.shape == (lat.size, z.size)
        assert np.isfinite(psi).all()
        # bounded: the demo's coarse cells produce large transient
        # overturning during geostrophic adjustment, but not unbounded
        assert 0.0 < np.abs(psi).max() < 5000.0

    def test_moc_vanishes_at_rest(self):
        m = LICOMKpp(demo("tiny"))
        _, _, psi = meridional_overturning(m)
        assert np.allclose(psi, 0.0)

    def test_barotropic_streamfunction(self, model):
        psi = barotropic_streamfunction(model)
        cfg = model.config
        assert psi.shape == (cfg.ny, cfg.nx)
        vals = psi[np.isfinite(psi)]
        assert vals.size > 0
        # the wind-driven gyres produce a nonzero circulation
        assert np.abs(vals).max() > 0.0


class TestCLI:
    def test_info(self, capsys):
        from repro.cli import main

        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "SW26010" in out
        assert "63 billion" in out

    def test_run_with_restart(self, tmp_path, capsys):
        from repro.cli import main

        rst = str(tmp_path / "cli_rst.npz")
        assert main(["run", "--size", "tiny", "--days", "0.2",
                     "--restart-out", rst]) == 0
        assert main(["run", "--size", "tiny", "--days", "0.2",
                     "--restart-in", rst]) == 0
        out = capsys.readouterr().out
        assert "restarted from" in out

    def test_experiments_fig7(self, capsys):
        from repro.cli import main

        assert main(["experiments", "fig7"]) == 0
        assert "LICOMK++" in capsys.readouterr().out

    def test_experiments_validation(self, capsys):
        from repro.cli import main

        assert main(["experiments", "validation"]) == 0
        assert "fig7_kokkos_sypd" in capsys.readouterr().out

    def test_experiments_unknown(self, capsys):
        from repro.cli import main

        assert main(["experiments", "fig99"]) == 2

    def test_run_single_precision(self, capsys):
        from repro.cli import main

        assert main(["run", "--size", "tiny", "--days", "0.1",
                     "--precision", "single", "--timers"]) == 0
        assert "step" in capsys.readouterr().out


class TestCLIExperiments:
    @pytest.mark.parametrize("which,needle", [
        ("breakdown", "compute3"),
        ("schedule", "chosen"),
        ("table5", "paper SYPD"),
        ("fig9", "weak scaling"),
        ("fig2", "this work"),
    ])
    def test_artifact_producers(self, which, needle, capsys):
        from repro.cli import main

        assert main(["experiments", which]) == 0
        assert needle in capsys.readouterr().out
