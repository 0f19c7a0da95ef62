"""Idealized configurations for the physics tests: the re-entrant channel.

The paper's science lineage includes ISOM, the "fully mesoscale-resolving
idealized Southern Ocean model" (ref. [51]) built by the same group to
study multiscale eddy interactions.  This fixture provides the idealized
counterpart of the realistic global setup:

* a flat-bottom **re-entrant zonal channel** between two land walls
  (the Southern Ocean archetype: zonally periodic, no tripolar fold),
  driven by a single westerly jet;
* **analytic initial states** used by the physics-validation tests —
  a geostrophically balanced SSH/velocity pair and an SSH bump for
  gravity-wave timing.

These exercise the identical code paths as the realistic setup (same
kernels, same halo machinery with ``north_fold=False``) on textbook
problems whose answers are known analytically.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.parallel.comm import SimComm
from repro.parallel.decomp import BlockDecomposition
from repro.ocean.config import ModelConfig, demo
from repro.ocean.forcing import ForcingParams
from repro.ocean.grid import GRAVITY, Grid, make_grid
from repro.ocean.model import LICOMKpp, ModelParams
from repro.ocean.topography import Topography, levels_from_depth


def channel_topography(grid: Grid, lat_south: float = -65.0,
                       lat_north: float = -35.0) -> Topography:
    """Flat-bottom re-entrant channel between two latitude walls."""
    depth = np.full(grid.shape2d, grid.vert.total_depth)
    lat2 = grid.lat_t[:, None] * np.ones((1, grid.nx))
    depth[(lat2 <= lat_south) | (lat2 >= lat_north)] = 0.0
    kmt = levels_from_depth(grid, depth)
    k_idx = np.arange(grid.nz)[:, None, None]
    mask_t = k_idx < kmt[None, :, :]
    mask_u = (
        mask_t
        & np.roll(mask_t, -1, axis=2)
        & np.concatenate([mask_t[:, 1:, :], np.zeros_like(mask_t[:, :1, :])], axis=1)
        & np.concatenate(
            [np.roll(mask_t, -1, axis=2)[:, 1:, :],
             np.zeros_like(mask_t[:, :1, :])], axis=1)
    )
    return Topography(depth=depth, kmt=kmt, mask_t=mask_t, mask_u=mask_u)


def make_channel_model(
    size: str = "tiny",
    lat_south: float = -65.0,
    lat_north: float = -35.0,
    backend: str = "serial",
    comm: Optional[SimComm] = None,
    decomp: Optional[BlockDecomposition] = None,
    params: Optional[ModelParams] = None,
) -> LICOMKpp:
    """A wind-driven re-entrant channel model (Southern Ocean analog)."""
    cfg = demo(size)
    grid = make_grid(cfg.ny, cfg.nx, cfg.nz)
    topo = channel_topography(grid, lat_south, lat_north)
    if decomp is None:
        decomp = BlockDecomposition(cfg.ny, cfg.nx, 1, 1, north_fold=False)
    params = params or ModelParams()
    return LICOMKpp(cfg, backend=backend, comm=comm, decomp=decomp,
                    params=params, grid=grid, topo=topo)


def quiesce(model: LICOMKpp, t0: float = 10.0, s0: float = 35.0) -> None:
    """Put the model in a quiescent, unforced, unstratified state.

    Uniform tracers (no baroclinic pressure gradients), no wind, no
    surface restoring: the clean medium the wave/geostrophy validation
    tests need.
    """
    d = model.domain
    model.state.t.set_initial(t0 * d.mask_t)
    model.state.s.set_initial(s0 * d.mask_t)
    model.state.u.set_initial(np.zeros((d.nz, d.ly, d.lx)))
    model.state.v.set_initial(np.zeros((d.nz, d.ly, d.lx)))
    model.state.ssh.set_initial(np.zeros((d.ly, d.lx)))
    model.taux = np.zeros_like(model.taux)
    model.tauy = np.zeros_like(model.tauy)
    model.gamma_t = 0.0
    model.gamma_s = 0.0


def impose_ssh_bump(
    model: LICOMKpp, amplitude: float = 0.1, radius_deg: float = 8.0,
    lon0: float = 180.0, lat0: Optional[float] = None,
) -> None:
    """Overwrite SSH with a Gaussian bump (gravity-wave timing tests)."""
    d = model.domain
    grid = model.grid
    if lat0 is None:
        lat0 = float(np.mean([grid.lat_t[0], grid.lat_t[-1]]))
    lon = np.mod(grid.lon_t, 360.0)
    dlo = np.minimum(np.abs(lon - lon0), 360.0 - np.abs(lon - lon0))
    from repro.ocean.localdomain import local_with_halo

    lat2, lon2 = np.meshgrid(grid.lat_t, dlo, indexing="ij")
    bump = amplitude * np.exp(-((lon2 / radius_deg) ** 2
                                + ((lat2 - lat0) / radius_deg) ** 2))
    local = local_with_halo(bump, model.decomp, model.rank)
    local *= d.mask_t[0]
    model.state.ssh.set_initial(local)


def impose_geostrophic_state(
    model: LICOMKpp, eta0: float = 0.2, lat0: float = -50.0, width_deg: float = 6.0
) -> None:
    """A zonal SSH front with its exact geostrophic velocity.

    ``eta(lat) = eta0 * tanh((lat - lat0)/width)`` and
    ``u = -(g/f) d eta/dy`` at the corner rows; ``v = 0``.  In perfect
    geostrophic balance the state is steady; the validation test checks
    the model holds it to leading order.
    """
    from repro.ocean.localdomain import local_with_halo

    grid = model.grid
    d = model.domain
    phi = (grid.lat_t - lat0) / width_deg
    eta_row = eta0 * np.tanh(phi)
    eta2 = np.repeat(eta_row[:, None], grid.nx, axis=1)
    eta_local = local_with_halo(eta2, model.decomp, model.rank) * d.mask_t[0]
    model.state.ssh.set_initial(eta_local)

    # discrete geostrophic balance: use exactly the model's corner-point
    # SSH gradient operator, so -g/f * d eta/dy cancels the pressure
    # force the barotropic kernel computes
    eta = eta_local
    detady = np.zeros_like(eta)
    detady[:-1, :-1] = 0.5 * (
        (eta[1:, :-1] - eta[:-1, :-1]) + (eta[1:, 1:] - eta[:-1, 1:])
    ) / d.dy
    f_col = d.f_u[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        u_local = np.where(np.abs(f_col) > 1e-6,
                           -GRAVITY * detady / f_col, 0.0)
    u3 = np.repeat(u_local[None, :, :], d.nz, axis=0) * d.mask_u
    model.state.u.set_initial(u3)
    model.state.v.set_initial(np.zeros_like(u3))


def gravity_wave_speed(depth: float) -> float:
    """Analytic shallow-water wave speed sqrt(gH)."""
    return float(np.sqrt(GRAVITY * depth))
