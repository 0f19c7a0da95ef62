"""Scientific diagnostics: vorticity, Rossby number, spectra (Figs 1 & 6).

The paper's science-result figures rest on two diagnostics:

* the **Rossby number** ``Ro = zeta / f`` (vertical relative vorticity
  over the local Coriolis parameter), whose distribution broadening
  with resolution is the submesoscale signature of Fig. 6
  (``|Ro| ~ O(1)`` marks active submesoscale motions), and
* **SST structure** (Fig. 1): warm pool, meridional gradient, frontal
  sharpness.

All functions take a model (or raw fields + grid rows) and return plain
arrays/statistics so the experiment drivers and tests can assert the
paper's qualitative claims.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .grid import OMEGA
from .model import LICOMKpp


def relative_vorticity(
    u: np.ndarray,
    v: np.ndarray,
    dx_u: np.ndarray,
    dy: float,
) -> np.ndarray:
    """Vertical relative vorticity zeta = dv/dx - du/dy at T points.

    ``u``/``v`` are 2-D B-grid corner fields (one level, halo included);
    the curl is evaluated on the cell centers from the four surrounding
    corners.  Returns an array one point smaller on each high side.
    """
    dvdx = (v[:, 1:] - v[:, :-1]) / dx_u[:, None]
    dudy = (u[1:, :] - u[:-1, :]) / dy
    # average the two edge-centered differences to the T point
    dvdx_t = 0.5 * (dvdx[1:, :] + dvdx[:-1, :])
    dudy_t = 0.5 * (dudy[:, 1:] + dudy[:, :-1])
    return dvdx_t - dudy_t


def rossby_number(model: LICOMKpp, level: int = 0) -> np.ndarray:
    """Surface (or ``level``) Rossby number field over the local interior.

    Land points and the near-equatorial band (|f| too small for Ro to be
    meaningful) are returned as NaN, like the white regions of Fig. 6.
    """
    d = model.domain
    h = d.halo
    u = model.state.u.cur.raw[level]
    v = model.state.v.cur.raw[level]
    zeta = relative_vorticity(u, v, d.dx_u, d.dy)  # (ly-1, lx-1) at T pts
    # trim to the interior T cells
    zeta_int = zeta[h - 1:d.ly - h - 1, h - 1:d.lx - h - 1]
    f = d.f_t[h:d.ly - h]
    lat = d.lat_t[h:d.ly - h]
    ro = zeta_int / f[:, None]
    mask = model.local_interior(d.mask_t)[level]
    ro = np.where(mask > 0.0, ro, np.nan)
    ro[np.abs(lat) < 5.0, :] = np.nan
    return ro


@dataclass
class RossbyStats:
    """Distribution summary of |Ro| (the Fig. 6 resolution comparison)."""

    resolution_km: float
    rms: float
    p90: float
    p99: float
    max: float
    submesoscale_fraction: float   # fraction of points with |Ro| > 0.1


def rossby_stats(model: LICOMKpp, level: int = 0) -> RossbyStats:
    """Summarise the |Ro| distribution of a run."""
    ro = np.abs(rossby_number(model, level))
    vals = ro[np.isfinite(ro)]
    if vals.size == 0:
        vals = np.zeros(1)
    return RossbyStats(
        resolution_km=model.grid.resolution_km,
        rms=float(np.sqrt(np.mean(vals ** 2))),
        p90=float(np.percentile(vals, 90)),
        p99=float(np.percentile(vals, 99)),
        max=float(vals.max()),
        submesoscale_fraction=float(np.mean(vals > 0.1)),
    )


@dataclass
class SSTStats:
    """Fig. 1-style SST structure summary."""

    min: float
    max: float
    mean: float
    tropical_mean: float        # warm pool (|lat| < 15)
    polar_mean: float           # |lat| > 60
    meridional_gradient: float  # tropical - polar [C]
    frontal_sharpness: float    # p99 of |grad SST| [C / 100 km]


def sst_stats(model: LICOMKpp) -> SSTStats:
    """SST structure diagnostics over the local interior."""
    sst = model.sst()                     # NaN over land
    d = model.domain
    h = d.halo
    lat = d.lat_t[h:d.ly - h]
    tropical = np.abs(lat) < 15.0
    polar = np.abs(lat) > 60.0

    def nanmean(a) -> float:
        return float(np.nanmean(a)) if np.isfinite(a).any() else float("nan")

    dy_100km = d.dy / 1.0e5
    dx_100km = d.dx_t[h:d.ly - h] / 1.0e5
    gy = np.diff(sst, axis=0) / dy_100km
    gx = np.diff(sst, axis=1) / dx_100km[:, None]
    grads = np.concatenate([np.abs(gy).ravel(), np.abs(gx).ravel()])
    grads = grads[np.isfinite(grads)]
    return SSTStats(
        min=float(np.nanmin(sst)),
        max=float(np.nanmax(sst)),
        mean=nanmean(sst),
        tropical_mean=nanmean(sst[tropical, :]),
        polar_mean=nanmean(sst[polar, :]),
        meridional_gradient=nanmean(sst[tropical, :]) - nanmean(sst[polar, :]),
        frontal_sharpness=float(np.percentile(grads, 99)) if grads.size else 0.0,
    )


def temperature_section(
    model: LICOMKpp, lon_deg: float
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vertical temperature section along a meridian (Fig. 1f analog).

    Returns ``(lat, z_t, T(lat, z))`` with land as NaN.
    """
    d = model.domain
    h = d.halo
    i = h + int(np.argmin(np.abs(model.grid.lon_t - lon_deg)))
    t = model.state.t.cur.raw[:, h:d.ly - h, i].copy()
    m = d.mask_t[:, h:d.ly - h, i]
    t[m == 0.0] = np.nan
    return d.lat_t[h:d.ly - h], d.z_t.copy(), t.T
