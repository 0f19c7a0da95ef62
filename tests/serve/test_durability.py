"""Durability: atomic checkpoints, hard kills, bit-exact resume."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

import repro.ocean.restart as restart_mod
from repro.ocean import LICOMKpp, demo
from repro.ocean.model import STATE_FIELDS
from repro.ocean.restart import load_restart, save_restart
from repro.serve import JobSpec, JobStatus, ServeScheduler

WAIT = 300.0


def _tmp_litter(directory):
    return [p for p in os.listdir(directory) if p.endswith(".tmp")]


class TestAtomicSave:
    def test_save_normalises_suffix_and_leaves_no_temp(self, tmp_path):
        model = LICOMKpp(demo("tiny"))
        try:
            model.run_steps(1)
            out = save_restart(model, tmp_path / "ckpt")
            assert out == tmp_path / "ckpt.npz" and out.exists()
            assert _tmp_litter(tmp_path) == []
        finally:
            model.close()

    def test_crash_mid_write_keeps_previous_checkpoint(
            self, tmp_path, monkeypatch):
        """A writer that dies mid-archive must not corrupt the file."""
        model = LICOMKpp(demo("tiny"))
        try:
            model.run_steps(1)
            ckpt = save_restart(model, tmp_path / "ckpt.npz")
            good = dict(np.load(ckpt))

            model.run_steps(1)
            real = np.savez_compressed

            def dies_mid_write(fh, **arrays):
                fh.write(b"\x50\x4b partial garbage")  # half a zip header
                raise KeyboardInterrupt("killed mid-checkpoint")

            monkeypatch.setattr(restart_mod.np, "savez_compressed",
                                dies_mid_write)
            with pytest.raises(KeyboardInterrupt):
                save_restart(model, ckpt)
            monkeypatch.setattr(restart_mod.np, "savez_compressed", real)

            # previous checkpoint intact, bitwise, and no temp litter
            assert _tmp_litter(tmp_path) == []
            with np.load(ckpt) as data:
                for key in good:
                    np.testing.assert_array_equal(data[key], good[key])
            fresh = LICOMKpp(demo("tiny"))
            try:
                load_restart(fresh, ckpt)
                assert fresh.nstep == 1
            finally:
                fresh.close()
        finally:
            model.close()

    def test_sigkill_mid_write_subprocess(self, tmp_path):
        """A real SIGKILL against a checkpoint-writing process: the
        surviving file always loads (old complete or new complete)."""
        script = (
            "import sys\n"
            "from repro.ocean import LICOMKpp, demo\n"
            "from repro.ocean.restart import save_restart\n"
            "m = LICOMKpp(demo('tiny'))\n"
            "m.run_steps(1)\n"
            "save_restart(m, sys.argv[1])\n"
            "print('first', flush=True)\n"
            "while True:\n"
            "    save_restart(m, sys.argv[1])\n"
        )
        ckpt = tmp_path / "ckpt.npz"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [os.environ.get("PYTHONPATH"), "src"])))
        proc = subprocess.Popen(
            [sys.executable, "-c", script, str(ckpt)],
            stdout=subprocess.PIPE, env=env, cwd=os.getcwd())
        try:
            assert proc.stdout.readline().strip() == b"first"
            time.sleep(0.2)  # let it into the rewrite loop
            proc.send_signal(signal.SIGKILL)
            proc.wait(30)
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup
                proc.kill()
        assert ckpt.exists()
        model = LICOMKpp(demo("tiny"))
        try:
            load_restart(model, ckpt)  # must never see a torn file
            assert model.nstep == 1
        finally:
            model.close()


class TestKillAndResume:
    def _solo_state(self, steps):
        model = LICOMKpp(demo("tiny"))
        try:
            model.run_steps(steps)
            return {f: getattr(model.state, f).cur.raw.copy()
                    for f in STATE_FIELDS}
        finally:
            model.close()

    def test_cooperative_interrupt_resumes_bitwise(self, tmp_path):
        """Serve-level resume: a checkpointed job continued under a new
        submission is bitwise identical to the uninterrupted run."""
        sched = ServeScheduler(workers=1, artifacts=tmp_path)
        try:
            first = sched.submit(JobSpec(name="kr", steps=3,
                                         checkpoint_every=1))
            assert first.wait(WAIT) and first.status is JobStatus.DONE
            second = sched.submit(JobSpec(name="kr", steps=6,
                                          checkpoint_every=1, resume=True))
            assert second.wait(WAIT) and second.status is JobStatus.DONE
            assert second.result["resumed_from"] == 3
        finally:
            sched.shutdown()
        solo = self._solo_state(6)
        for f in STATE_FIELDS:
            np.testing.assert_array_equal(
                second.result["state"][f], solo[f], err_msg=f)

    def test_hard_kill_resumes_bitwise(self, tmp_path):
        """The acceptance gate: run with periodic checkpoints, SIGKILL
        the serving process mid-run, resume from the latest checkpoint,
        and match the uninterrupted run bit for bit."""
        steps = 8
        script = (
            "import sys\n"
            "from repro.serve import JobSpec, ServeScheduler\n"
            "s = ServeScheduler(workers=1, artifacts=sys.argv[1])\n"
            "job = s.submit(JobSpec(name='kr', steps=%d,"
            " checkpoint_every=1))\n"
            "job.wait(600)\n"
            "s.shutdown()\n" % steps
        )
        ckpt = tmp_path / "kr" / "checkpoint.npz"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [os.environ.get("PYTHONPATH"), "src"])))
        proc = subprocess.Popen([sys.executable, "-c", script,
                                 str(tmp_path)], env=env, cwd=os.getcwd())
        try:
            # kill as soon as at least two checkpoints have landed
            deadline = time.monotonic() + WAIT
            nstep = 0
            while time.monotonic() < deadline and proc.poll() is None:
                if ckpt.exists():
                    try:
                        with np.load(ckpt) as data:
                            nstep = int(data["meta"][1])
                    except Exception:
                        nstep = 0  # raced the replace; retry
                    if 2 <= nstep < steps:
                        break
                time.sleep(0.02)
            assert proc.poll() is None, \
                "job finished before the kill; slow the loop down"
            proc.send_signal(signal.SIGKILL)
            proc.wait(30)
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup
                proc.kill()

        sched = ServeScheduler(workers=1, artifacts=tmp_path)
        try:
            resumed = sched.submit(JobSpec(name="kr", steps=steps,
                                           checkpoint_every=1, resume=True))
            assert resumed.wait(WAIT) and resumed.status is JobStatus.DONE
            assert 2 <= resumed.result["resumed_from"] < steps
        finally:
            sched.shutdown()
        solo = self._solo_state(steps)
        for f in STATE_FIELDS:
            np.testing.assert_array_equal(
                resumed.result["state"][f], solo[f], err_msg=f)
