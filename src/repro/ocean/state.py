"""Prognostic model state with leapfrog time levels.

Holds every prognostic field at the three leapfrog time levels (old,
current, new) plus diagnostic work arrays.  Fields are
:class:`~repro.kokkos.view.View` objects allocated in the execution
space's memory space, so the same state drives all backends; glue code
(halo exchange, diagnostics) goes through ``.raw`` at well-defined
host<->device copy points that the model ledgers explicitly (the
"daily memory copies" included in the paper's timed region).

Array convention: 3-D fields are ``(nz, ly, lx)`` and 2-D fields
``(ly, lx)`` where ``(ly, lx)`` is the *local* (halo-included) shape.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..kokkos import HostSpace, MemorySpace, View
from .precision import PrecisionPolicy, resolve_precision


class LeapfrogField:
    """One prognostic field at three time levels (old / cur / new).

    ``levels`` are the field's three views, each bound to one buffer for
    life; which level plays which role is the model-wide leapfrog phase
    (:meth:`ModelState.rotate`): at phase ``p`` old, cur and new are
    ``levels[p]``, ``levels[p + 1]`` and ``levels[p + 2]`` (mod 3).
    """

    __slots__ = ("name", "levels", "old", "cur", "new")

    def __init__(self, name: str, shape: Tuple[int, ...], space: MemorySpace,
                 dtype=np.float64) -> None:
        self.name = name
        self.levels = tuple(View(f"{name}_{i}", shape, dtype=dtype, space=space)
                            for i in range(3))
        self.set_phase(0)

    def set_phase(self, phase: int) -> None:
        """Give the three levels their roles at leapfrog ``phase``."""
        lv = self.levels
        self.old, self.cur, self.new = \
            lv[phase % 3], lv[(phase + 1) % 3], lv[(phase + 2) % 3]

    def set_initial(self, value: np.ndarray) -> None:
        """Initialise both old and cur levels to ``value``."""
        self.old.raw[...] = value
        self.cur.raw[...] = value
        self.new.raw[...] = 0.0


class ModelState:
    """All prognostic and key diagnostic fields of LICOMK++.

    Parameters
    ----------
    nz, ly, lx:
        Local array extents (``ly``/``lx`` include halos).
    space:
        Memory space for the views (host for serial/openmp/athread,
        device for cuda/hip).
    dtype:
        Uniform dtype for every field (the historical interface).
        Ignored when ``policy`` is given.
    policy:
        A :class:`~repro.ocean.precision.PrecisionPolicy` (or anything
        :func:`~repro.ocean.precision.resolve_precision` accepts):
        each field is allocated at its kernel family's dtype.
    """

    def __init__(self, nz: int, ly: int, lx: int, space: MemorySpace = HostSpace,
                 dtype=np.float64, n_passive: int = 0,
                 policy: Optional[PrecisionPolicy] = None) -> None:
        self.nz, self.ly, self.lx = nz, ly, lx
        self.space = space
        if policy is None:
            dt = np.dtype(dtype)
            policy = resolve_precision(
                {fam: dt for fam in ("tracer", "momentum", "vmix",
                                     "barotropic", "eos", "scan")})
        self.policy = policy
        fd = policy.field_dtype
        #: Representative dtype (tracer family) — the historical
        #: uniform-precision attribute.
        self.dtype = fd("t")
        s3 = (nz, ly, lx)
        s2 = (ly, lx)
        # prognostic leapfrog fields
        self.u = LeapfrogField("u", s3, space, fd("u"))    # zonal velocity [m/s]
        self.v = LeapfrogField("v", s3, space, fd("v"))    # meridional velocity [m/s]
        self.t = LeapfrogField("temp", s3, space, fd("t"))  # potential temperature [C]
        self.s = LeapfrogField("salt", s3, space, fd("s"))  # salinity [psu]
        self.ssh = LeapfrogField("ssh", s2, space, fd("ssh"))  # sea surface height [m]
        # barotropic (depth-mean) velocities [m/s]
        self.ub = View("ub", s2, dtype=fd("ub"), space=space)
        self.vb = View("vb", s2, dtype=fd("vb"), space=space)
        # diagnostics / work
        self.rho = View("rho", s3, dtype=fd("rho"), space=space)   # in-situ density
        self.p = View("press", s3, dtype=fd("p"), space=space)   # baroclinic pressure / rho0
        self.w = View("w", (nz + 1, ly, lx), dtype=fd("w"), space=space)  # interface w (positive up)
        self.kappa_h = View("kappa_h", s3, dtype=fd("kappa_h"), space=space)  # tracer mixing [m^2/s]
        self.kappa_m = View("kappa_m", s3, dtype=fd("kappa_m"), space=space)  # momentum mixing [m^2/s]
        # optional passive tracers (dye/age): advected and diffused like
        # T/S but unforced — LICOM's extra-tracer capability
        self.passive = [
            LeapfrogField(f"ptracer{i}", s3, space, fd("passive"))
            for i in range(n_passive)
        ]
        #: Leapfrog phase: which level of each field plays old / cur / new.
        self.phase = 0

    def leapfrog_fields(self) -> Dict[str, LeapfrogField]:
        out = {"u": self.u, "v": self.v, "t": self.t, "s": self.s, "ssh": self.ssh}
        for i, p in enumerate(self.passive):
            out[f"ptracer{i}"] = p
        return out

    def rotate(self, phase: Optional[int] = None) -> None:
        """Advance the leapfrog one step — old <- cur, cur <- new,
        new <- old on every field — or go to ``phase``.

        Only the roles move: every level keeps its buffer, so a launch
        graph sealed at one phase stays bound to the same views.
        """
        self.phase = (self.phase + 1) % 3 if phase is None else phase
        for f in self.leapfrog_fields().values():
            f.set_phase(self.phase)

    def has_nan(self) -> bool:
        """True when any current-level prognostic field contains NaN/Inf."""
        for f in self.leapfrog_fields().values():
            if not np.isfinite(f.cur.raw).all():
                return True
        return False
