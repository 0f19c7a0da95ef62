"""Block-local grid, masks and global<->local array plumbing.

Each MPI rank owns one 2-D block (paper §V-D).  This module builds the
rank's view of the world: metric rows, Coriolis rows, land/ocean masks
and initial conditions — all *with halos already filled according to the
global topology* (zonal wrap, closed south, tripolar fold) — and the
static geometry the kernel bodies derive from them, built once per
domain (see :meth:`LocalDomain._derive`).  That makes
:func:`local_with_halo` the independent oracle the halo-exchange tests
compare against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

from ..kokkos.workspace import Workspace
from ..parallel.decomp import BlockDecomposition
from .grid import Grid
from .topography import Topography


def _row_map(decomp: BlockDecomposition, rank: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-local-row source mapping.

    Returns ``(src_j, folded, valid)``: for each of the ``ly`` local
    rows, the source global row, whether the row is reached through the
    tripolar fold (zonal mirror + optional sign flip), and whether it
    maps to any real row at all (False for rows south of the globe).
    """
    b = decomp.block(rank)
    h = decomp.halo
    ny = decomp.ny
    rows = np.arange(b.j0 - h, b.j1 + h)
    src = rows.copy()
    folded = np.zeros(rows.size, dtype=bool)
    valid = np.ones(rows.size, dtype=bool)
    south = rows < 0
    valid[south] = False
    src[south] = 0
    north = rows >= ny
    if decomp.north_fold:
        m = rows[north] - ny
        src[north] = ny - 1 - m
        folded[north] = True
    else:
        valid[north] = False
        src[north] = ny - 1
    return src, folded, valid


def local_with_halo(
    global_arr: np.ndarray,
    decomp: BlockDecomposition,
    rank: int,
    sign: float = 1.0,
    fill: float = 0.0,
) -> np.ndarray:
    """Extract ``rank``'s halo-included local array from a global one.

    Ghost cells are filled by the global topology: zonal wraparound,
    ``fill`` south of the domain, tripolar mirror (times ``sign``) north
    of it.  Supports 2-D ``(ny, nx)`` and 3-D ``(nz, ny, nx)`` inputs.
    """
    b = decomp.block(rank)
    h = decomp.halo
    nx = decomp.nx
    src_j, folded, valid = _row_map(decomp, rank)
    cols = np.arange(b.i0 - h, b.i1 + h) % nx
    mirror_cols = (nx - 1 - cols) % nx

    def extract2d(g: np.ndarray) -> np.ndarray:
        out = np.empty((src_j.size, cols.size), dtype=g.dtype)
        normal = ~folded & valid
        out[normal] = g[src_j[normal]][:, cols]
        if folded.any():
            out[folded] = sign * g[src_j[folded]][:, mirror_cols]
        if (~valid).any():
            out[~valid] = fill
        return out

    if global_arr.ndim == 2:
        return extract2d(global_arr)
    if global_arr.ndim == 3:
        return np.stack([extract2d(level) for level in global_arr])
    raise ValueError(f"local_with_halo expects 2-D/3-D arrays, got {global_arr.ndim}-D")


@dataclass
class LocalDomain:
    """Everything a rank needs to run its block of the model."""

    decomp: BlockDecomposition
    rank: int
    nz: int
    ly: int
    lx: int
    # metric rows (length ly) and verticals
    dx_t: np.ndarray
    dx_u: np.ndarray
    dy: float
    f_u: np.ndarray
    f_t: np.ndarray
    lat_t: np.ndarray
    dz: np.ndarray
    z_t: np.ndarray
    z_w: np.ndarray
    # geometry masks, halo-filled (float for kernel arithmetic)
    mask_t: np.ndarray      # (nz, ly, lx) 1.0 ocean / 0.0 land at T cells
    mask_u: np.ndarray      # (nz, ly, lx) at U corners
    kmt: np.ndarray         # (ly, lx) active levels
    depth_t: np.ndarray     # (ly, lx) column depth [m]
    # scratch arena kernel bodies draw temporaries from; the model wires
    # its context's arena in, a stand-alone domain owns a disabled one
    # (fresh allocation per request, identical numerics)
    workspace: Workspace = field(
        default_factory=lambda: Workspace(enabled=False))
    # geometry sliced for one launch range, keyed by builder and range
    # (see :meth:`range_geometry`)
    _range_cache: Dict[tuple, tuple] = field(default_factory=dict, repr=False)
    # cached narrow-precision clones of this domain, keyed by dtype
    # (see :meth:`at_dtype`); shared across the clones themselves
    _cast_cache: Dict[np.dtype, "LocalDomain"] = field(
        default_factory=dict, repr=False)
    # -- static geometry derived from the arrays above (see _derive) -----
    # arrays the kernel bodies slice instead of rebuilding per tile; each
    # domain derives its own from its own (possibly narrowed) metrics and
    # masks, so the bodies compute bitwise what their historical per-tile
    # expressions did
    area_t: np.ndarray = field(init=False, repr=False)     # (ly,) dx_t dy
    wet_t: np.ndarray = field(init=False, repr=False)      # bool, T cells
    open_e: np.ndarray = field(init=False, repr=False)     # bool, east faces
    open_n: np.ndarray = field(init=False, repr=False)     # bool, north faces

    def __post_init__(self) -> None:
        self._derive()

    def _derive(self) -> None:
        """Build the static geometry the kernel bodies read.

        Everything here depends on the grid alone, never on a kernel
        parameter such as ``dt`` or a diffusivity, and is computed with
        the expression (and at the dtype) the bodies used per tile:

        * ``area_t`` — T-cell area rows, ``dx_t * dy``;
        * ``wet_t`` — ``mask_t > 0``, the FCT envelope's wet test;
        * ``open_e`` / ``open_n`` — whether the ``mask_t`` product across
          each T cell's east / north face is non-zero (False past the
          array edge).

        The masks are 0 / 1, so a bool "open" multiplies a field exactly
        as the float product did.  Kernels whose declared
        ``bytes_per_point`` already counts every array they touch (depth
        mean, the vertical solves) keep building their geometry from the
        masks they read.
        """
        mt = self.mask_t
        self.area_t = self.dx_t * self.dy
        self.wet_t = mt > 0.0
        self.open_e = np.zeros(mt.shape, dtype=bool)
        self.open_e[:, :, :-1] = mt[:, :, :-1] * mt[:, :, 1:] != 0.0
        self.open_n = np.zeros(mt.shape, dtype=bool)
        self.open_n[:, :-1] = mt[:, :-1] * mt[:, 1:] != 0.0

    def range_geometry(self, build, sj: slice, si: slice, *args):
        """``build(self, sj, si, *args)``, built on the first launch over
        the horizontal range ``(sj, si)`` and reused by every later one.

        A launch range is fixed once a graph is sealed, so the rows and
        masks a body slices out of this domain can be sliced once instead
        of per call.  A copied domain (an observed sweep binds one over
        recorded arrays) starts with an empty cache and builds its own
        from its own arrays.
        """
        key = (build, sj.start, sj.stop, si.start, si.stop, args)
        got = self._range_cache.get(key)
        if got is None:
            got = self._range_cache[key] = build(self, sj, si, *args)
        return got

    def at_dtype(self, dtype) -> "LocalDomain":
        """This domain with every float geometry array cast to ``dtype``.

        The policy-driven cast point for static geometry: an fp32
        kernel family receives an fp32 clone of the domain (metrics,
        masks, verticals), so ``np.result_type(field, geometry)``
        collapses to the family dtype inside the sweeps and no fp64
        arithmetic sneaks into fp32 kernels.  Requesting ``float64``
        returns *this* domain unchanged (geometry is built in fp64), so
        uniform-fp64 runs are bitwise untouched.  Clones share the
        workspace arena (its keys carry dtype) and the integer ``kmt``;
        they are cached, so the cast cost is paid once per run.
        """
        dt = np.dtype(dtype)
        if dt == self.dx_t.dtype:
            return self
        clone = self._cast_cache.get(dt)
        if clone is None:
            clone = LocalDomain(
                decomp=self.decomp, rank=self.rank,
                nz=self.nz, ly=self.ly, lx=self.lx,
                dx_t=self.dx_t.astype(dt), dx_u=self.dx_u.astype(dt),
                dy=self.dy,
                f_u=self.f_u.astype(dt), f_t=self.f_t.astype(dt),
                lat_t=self.lat_t.astype(dt),
                dz=self.dz.astype(dt), z_t=self.z_t.astype(dt),
                z_w=self.z_w.astype(dt),
                mask_t=self.mask_t.astype(dt),
                mask_u=self.mask_u.astype(dt),
                kmt=self.kmt, depth_t=self.depth_t.astype(dt),
                workspace=self.workspace,
            )
            clone._cast_cache = self._cast_cache
            self._cast_cache[dt] = clone
        elif clone.workspace is not self.workspace:
            clone.workspace = self.workspace
        return clone

    @property
    def interior(self) -> Tuple[slice, slice]:
        h = self.decomp.halo
        return (slice(h, self.ly - h), slice(h, self.lx - h))

    @property
    def halo(self) -> int:
        return self.decomp.halo

    def column_depth_u(self) -> np.ndarray:
        """(ly, lx) water depth at U corners (min of 4 surrounding cells).

        Uses clamped (non-wrapping) shifts: the halo columns supply the
        neighbours, so the result is decomposition-independent for every
        corner the model actually reads (everything except the outermost
        ghost ring).
        """
        d = self.depth_t
        east = np.empty_like(d)
        east[:, :-1] = d[:, 1:]
        east[:, -1] = d[:, -1]
        north = np.empty_like(d)
        north[:-1] = d[1:]
        north[-1] = d[-1]
        north_east = np.empty_like(east)
        north_east[:-1] = east[1:]
        north_east[-1] = east[-1]
        return np.minimum(np.minimum(d, east), np.minimum(north, north_east))


def make_local_domain(
    grid: Grid,
    topo: Topography,
    decomp: BlockDecomposition,
    rank: int,
) -> LocalDomain:
    """Build the rank-local domain from global grid + topography."""
    b = decomp.block(rank)
    h = decomp.halo
    ly, lx = decomp.local_shape(rank)
    src_j, folded, valid = _row_map(decomp, rank)

    def rows(arr: np.ndarray) -> np.ndarray:
        out = arr[src_j].astype(float)
        out[~valid] = arr[0]
        return out

    mask_t = local_with_halo(topo.mask_t.astype(float), decomp, rank)
    mask_u = local_with_halo(topo.mask_u.astype(float), decomp, rank)
    kmt = local_with_halo(topo.kmt.astype(np.int32), decomp, rank).astype(np.int32)
    depth_t = local_with_halo(topo.depth, decomp, rank)

    return LocalDomain(
        decomp=decomp,
        rank=rank,
        nz=grid.nz,
        ly=ly,
        lx=lx,
        dx_t=rows(grid.dx_t),
        dx_u=rows(grid.dx_u),
        dy=grid.dy,
        f_u=rows(grid.f_u),
        f_t=rows(grid.f_t),
        lat_t=rows(grid.lat_t),
        dz=grid.vert.dz.copy(),
        z_t=grid.vert.z_t.copy(),
        z_w=grid.vert.z_w.copy(),
        mask_t=mask_t,
        mask_u=mask_u,
        kmt=kmt,
        depth_t=depth_t,
    )
