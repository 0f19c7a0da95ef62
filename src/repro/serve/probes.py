"""Streaming probe rows: append-and-flush JSONL diagnostics per job.

nengo-mpi streams probe samples to per-probe save files as the
simulation advances rather than holding them in memory; this module is
that pattern for serving jobs.  Each sampled step appends **one line of
JSON** to the job's ``probes.jsonl`` and flushes, so a killed job's
diagnostics are readable up to its last completed sample — the probe
stream is the job's flight recorder, not a post-hoc report.

Rows carry the standard scalar diagnostics (SST extrema, kinetic
energy, SSH RMS) plus the step/clock counters; a reader parses the
file line by line and stops at a trailing partial line (a write the
process died inside).
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Dict, Union

import numpy as np


class ProbeStream:
    """Append-with-flush JSONL sink for one job's scalar diagnostics."""

    def __init__(self, path: Union[str, pathlib.Path],
                 append: bool = False) -> None:
        self.path = pathlib.Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "a" if append else "w")
        self.rows_written = 0

    def sample(self, model) -> Dict[str, Any]:
        """Append one row for the model's current state and flush it."""
        sst = model.sst()
        ssh = model.local_interior(model.state.ssh.cur.raw)
        row = {
            "step": int(model.nstep),
            "time_days": float(model.time_seconds / 86400.0),
            "sst_min": float(np.nanmin(sst)),
            "sst_max": float(np.nanmax(sst)),
            "ke": float(model.kinetic_energy()),
            "ssh_rms": float(np.sqrt(np.mean(ssh * ssh))),
        }
        self.write_row(row)
        return row

    def write_row(self, row: Dict[str, Any]) -> None:
        self._fh.write(json.dumps(row) + "\n")
        self._fh.flush()
        self.rows_written += 1

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "ProbeStream":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
