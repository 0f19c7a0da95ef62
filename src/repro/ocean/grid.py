"""Global ocean grid: spherical, Arakawa-B staggered, tripolar-topology.

LICOMK++ "employs tripolar and Arakawa-B grids" (§V-A).  We build a
spherical latitude-longitude mesh whose *topology* is tripolar: zonally
periodic, closed at the southern (Antarctic) boundary, and folded at the
northern boundary where the two displaced poles sit over land (the fold
index mapping lives in :mod:`repro.parallel.decomp` /
:mod:`repro.parallel.halo`).  Geometrically we keep the mesh orthogonal
lat-lon — the displaced-pole metric distortion does not change any code
path exercised here and would only re-scale a handful of metric arrays.

Staggering (Arakawa B): tracers (T, S, density, SSH) live at cell
centers ``(j, i)``; both velocity components live at the cell's
*northeast corner* ``(j+1/2, i+1/2)``.  The Coriolis parameter is
evaluated at velocity points.

Vertical: ``nz`` levels, surface k=0, with optional stretching so the
full-depth (Mariana-capable) configuration concentrates resolution near
the surface yet reaches below 10 000 m.

Array convention everywhere: ``(nz, ny, nx)``, j increasing northward,
i increasing eastward, all SI units.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from ..errors import ConfigurationError

#: Earth radius [m].
EARTH_RADIUS = 6.371e6
#: Rotation rate [1/s].
OMEGA = 7.292e-5
#: Gravity [m/s^2].
GRAVITY = 9.806


@dataclass
class VerticalGrid:
    """Vertical discretisation: level thicknesses and interface depths."""

    dz: np.ndarray          # (nz,) level thicknesses [m]
    z_t: np.ndarray         # (nz,) level-center depths [m, positive down]
    z_w: np.ndarray         # (nz+1,) interface depths [m]

    @property
    def nz(self) -> int:
        return self.dz.size

    @property
    def total_depth(self) -> float:
        return float(self.z_w[-1])


def make_vertical_grid(
    nz: int, depth: float, stretch: float = 2.0
) -> VerticalGrid:
    """Build a stretched vertical grid.

    ``stretch`` is the ratio of the deepest to the shallowest level
    thickness; 1.0 gives uniform spacing.  Thicknesses grow
    geometrically, concentrating resolution near the surface like
    LICOM's eta-coordinate placement.
    """
    if nz < 1:
        raise ConfigurationError("need at least one vertical level")
    if depth <= 0:
        raise ConfigurationError("depth must be positive")
    if stretch <= 0:
        raise ConfigurationError("stretch must be positive")
    if nz == 1 or stretch == 1.0:
        dz = np.full(nz, depth / nz)
    else:
        r = stretch ** (1.0 / (nz - 1))
        weights = r ** np.arange(nz)
        dz = depth * weights / weights.sum()
    z_w = np.concatenate([[0.0], np.cumsum(dz)])
    z_t = 0.5 * (z_w[:-1] + z_w[1:])
    return VerticalGrid(dz=dz, z_t=z_t, z_w=z_w)


@dataclass
class Grid:
    """The full model grid with metric terms.

    Build with :func:`make_grid`; attributes are plain ndarrays so both
    the functor kernels and the diagnostics can consume them directly.
    """

    ny: int
    nx: int
    vert: VerticalGrid
    lat_t: np.ndarray      # (ny,) T-point latitudes [deg]
    lon_t: np.ndarray      # (nx,) T-point longitudes [deg]
    lat_u: np.ndarray      # (ny,) U-point (corner) latitudes [deg]
    dx_t: np.ndarray       # (ny,) zonal spacing at T rows [m]
    dx_u: np.ndarray       # (ny,) zonal spacing at U rows [m]
    dy: float              # meridional spacing [m]
    f_u: np.ndarray        # (ny,) Coriolis parameter at U rows [1/s]
    f_t: np.ndarray        # (ny,) Coriolis parameter at T rows [1/s]
    area_t: np.ndarray     # (ny,) T-cell horizontal areas [m^2]

    @property
    def nz(self) -> int:
        return self.vert.nz

    @property
    def shape2d(self) -> Tuple[int, int]:
        return (self.ny, self.nx)

    @property
    def resolution_km(self) -> float:
        """Nominal equatorial resolution in kilometres."""
        return float(2 * np.pi * EARTH_RADIUS / self.nx / 1000.0)

    def min_dx(self) -> float:
        """Smallest horizontal spacing [m] (CFL-relevant)."""
        return float(min(self.dx_t.min(), self.dy))


def make_grid(
    ny: int,
    nx: int,
    nz: int,
    lat_min: float = -78.0,
    lat_max: float = 87.0,
    depth: float = 5000.0,
    stretch: float = 2.0,
) -> Grid:
    """Construct the global grid.

    Latitude rows span ``[lat_min, lat_max]`` (the tripolar fold sits at
    ``lat_max``); longitudes cover the full circle.  Zonal spacing keeps
    a floor of ``cos(66 deg)`` so polar rows cannot drive the barotropic
    CFL to zero — the real tripolar grid achieves the same effect by
    displacing the poles onto land, which keeps northern cells from
    shrinking below roughly 0.4x the nominal spacing.
    """
    if ny < 4 or nx < 4:
        raise ConfigurationError(f"grid {ny}x{nx} too small")
    if not (-90.0 < lat_min < lat_max < 90.0):
        raise ConfigurationError("latitude range must satisfy -90 < min < max < 90")
    dlat = (lat_max - lat_min) / ny
    lat_t = lat_min + (np.arange(ny) + 0.5) * dlat
    lat_u = lat_min + (np.arange(ny) + 1.0) * dlat
    dlon = 360.0 / nx
    lon_t = (np.arange(nx) + 0.5) * dlon

    deg2rad = np.pi / 180.0
    coslat_floor = np.cos(66.0 * deg2rad)
    cos_t = np.maximum(np.cos(lat_t * deg2rad), coslat_floor)
    cos_u = np.maximum(np.cos(lat_u * deg2rad), coslat_floor)

    dy = EARTH_RADIUS * dlat * deg2rad
    dx_t = EARTH_RADIUS * cos_t * dlon * deg2rad
    dx_u = EARTH_RADIUS * cos_u * dlon * deg2rad
    f_u = 2.0 * OMEGA * np.sin(lat_u * deg2rad)
    f_t = 2.0 * OMEGA * np.sin(lat_t * deg2rad)
    area_t = dx_t * dy

    return Grid(
        ny=ny,
        nx=nx,
        vert=make_vertical_grid(nz, depth, stretch),
        lat_t=lat_t,
        lon_t=lon_t,
        lat_u=lat_u,
        dx_t=dx_t,
        dx_u=dx_u,
        dy=dy,
        f_u=f_u,
        f_t=f_t,
        area_t=area_t,
    )
