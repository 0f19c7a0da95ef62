"""Restart I/O, mixed precision, CLI."""

import numpy as np
import pytest

from repro.errors import OceanError
from repro.ocean import (
    LICOMKpp,
    ModelParams,
    demo,
    load_restart,
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

    def test_restart_at_an_odd_phase_resumes_sealed(self, tmp_path):
        """Step 7 is leapfrog phase 1; a fresh model starts at phase 0
        and seals its own graphs, and resumes bit-exact."""
        cfg = demo("small")
        a = LICOMKpp(cfg)
        a.run_steps(7)
        assert a.state.phase == 1
        path = save_restart(a, tmp_path / "rst.npz")
        a.run_steps(5)

        b = LICOMKpp(cfg)
        load_restart(b, path)
        b.run_steps(5)
        assert b._graph_captures == 3 and b.nstep == a.nstep
        for fld, lf in a.state.leapfrog_fields().items():
            other = b.state.leapfrog_fields()[fld]
            for role in ("old", "cur", "new"):
                assert np.array_equal(getattr(lf, role).raw,
                                      getattr(other, role).raw), (fld, role)

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
        def nbytes(state):
            return sum(v.nbytes for f in state.leapfrog_fields().values()
                       for v in (f.old, f.cur, f.new))

        assert nbytes(ms.state) * 2 == nbytes(md.state)

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
