"""Restart I/O.

The paper times "the whole application excluding I/O and initialization"
(§II) and calls out I/O capability as the next bottleneck at 1 km
(§VIII).  This module provides the functional I/O layer the real model
has:

* **Restart files** — the full prognostic state (both leapfrog levels,
  mixing coefficients, the step/clock counters) in a single compressed
  ``.npz``.  Restarting must be *exact*: a run continued from a restart
  is bitwise identical to an uninterrupted run (enforced by tests).
  Exactness includes dtype: every field round-trips at its allocated
  width (a mixed-precision run writes fp32 tracers and fp64 barotropic
  fields), and loading into a model whose precision policy allocates a
  different width raises :class:`~repro.errors.OceanError` instead of
  silently widening or rounding.
"""

from __future__ import annotations

import os
import pathlib
import tempfile
from typing import Dict, Optional, Union

import numpy as np

from ..errors import OceanError
from .model import LICOMKpp

#: Restart format version (checked on load).
RESTART_VERSION = 1

_PROGNOSTIC = ("u", "v", "t", "s", "ssh")
_EXTRA_VIEWS = ("ub", "vb", "kappa_m", "kappa_h")


def save_restart(model: LICOMKpp, path: Union[str, pathlib.Path]) -> pathlib.Path:
    """Write the model's full prognostic state to ``path`` (.npz).

    The write is **atomic**: the archive is assembled in a temporary
    file in the same directory and renamed into place with
    :func:`os.replace`, so a crash or SIGKILL mid-checkpoint (exactly
    what ``repro.serve``'s kill-and-resume does) can never leave a
    truncated or corrupt restart — readers see either the previous
    complete checkpoint or the new one, nothing in between.
    """
    path = pathlib.Path(path)
    if path.suffix != ".npz":
        # numpy appends .npz when a *name* lacks it; with a file object
        # we write exactly where told, so normalise the name up front
        path = path.with_name(path.name + ".npz")
    arrays: Dict[str, np.ndarray] = {}
    for name in _PROGNOSTIC:
        fld = getattr(model.state, name)
        arrays[f"{name}_old"] = fld.old.raw
        arrays[f"{name}_cur"] = fld.cur.raw
    for name in _EXTRA_VIEWS:
        arrays[name] = getattr(model.state, name).raw
    # the policy that allocated these dtypes, for actionable mismatch
    # errors on load (the arrays themselves carry the per-field dtypes)
    arrays["policy"] = np.array(
        [f"{fam}={dt}" for fam, dt in model.policy.signature()])
    arrays["meta"] = np.array([
        RESTART_VERSION,
        model.nstep,
        model.time_seconds,
        model.config.nx,
        model.config.ny,
        model.config.nz,
        model.rank,
    ], dtype=np.float64)
    fd, tmpname = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            np.savez_compressed(fh, **arrays)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmpname, path)
    except BaseException:
        try:
            os.unlink(tmpname)
        except OSError:
            pass
        raise
    return path


def _check_dtype(name: str, src: np.ndarray, dst: np.ndarray,
                 file_policy: Optional[str]) -> None:
    """Refuse a silent cast: restart loads are bitwise or they fail."""
    if src.dtype == dst.dtype:
        return
    hint = f" (file written with policy {file_policy})" if file_policy else ""
    raise OceanError(
        f"restart field {name!r} is {src.dtype.name} but the model "
        f"allocates {dst.dtype.name}{hint}; restarts are bit-exact, so "
        "the restarting run must use the precision policy that wrote "
        "the file")


def load_restart(model: LICOMKpp, path: Union[str, pathlib.Path]) -> None:
    """Restore a model's state from a restart file (exact continuation).

    Raises
    ------
    OceanError
        On version, grid-shape or per-field dtype mismatch (a mixed
        restart never silently widens into an fp64 model, nor an fp64
        restart silently rounds into a narrow one).
    """
    with np.load(pathlib.Path(path)) as data:
        meta = data["meta"]
        if int(meta[0]) != RESTART_VERSION:
            raise OceanError(
                f"restart version {int(meta[0])} != supported {RESTART_VERSION}"
            )
        if tuple(int(x) for x in meta[3:6]) != (
            model.config.nx, model.config.ny, model.config.nz
        ):
            raise OceanError(
                "restart grid does not match the model configuration: "
                f"file {tuple(int(x) for x in meta[3:6])}, model "
                f"{(model.config.nx, model.config.ny, model.config.nz)}"
            )
        fpol = None
        if "policy" in data.files:
            fpol = ", ".join(str(x) for x in data["policy"])
        for name in _PROGNOSTIC:
            fld = getattr(model.state, name)
            _check_dtype(name, data[f"{name}_cur"], fld.cur.raw, fpol)
            fld.old.raw[...] = data[f"{name}_old"]
            fld.cur.raw[...] = data[f"{name}_cur"]
            fld.new.raw[...] = 0.0
        for name in _EXTRA_VIEWS:
            dst = getattr(model.state, name).raw
            _check_dtype(name, data[name], dst, fpol)
            dst[...] = data[name]
        model.nstep = int(meta[1])
        model.time_seconds = float(meta[2])
