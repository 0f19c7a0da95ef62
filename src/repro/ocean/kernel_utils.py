"""Shared helpers for the ocean kernels (functor bodies).

Every hotspot kernel follows the same pattern: a functor holding state
:class:`~repro.kokkos.view.View` objects plus static geometry arrays,
with a vectorised ``apply(slices)`` tile body (the compiled inner loop
analog) and an elementwise ``operator()`` that runs ``apply`` on a
one-point tile — guaranteeing the two paths can never diverge.

The helpers here manipulate tile slices for stencil access: ``sh``
shifts a slice by an offset (neighbour access).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def sh(s: slice, d: int) -> slice:
    """Shift a slice by ``d`` (stencil neighbour access)."""
    return slice(s.start + d, s.stop + d)


def point_slices(idx: Tuple[int, ...]) -> Tuple[slice, ...]:
    """One-point tile slices for elementwise functor calls."""
    return tuple(slice(i, i + 1) for i in idx)


class TileFunctor:
    """Base for kernels whose ``operator()`` delegates to ``apply``."""

    flops_per_point = 10.0
    bytes_per_point = 64.0
    #: Widest horizontal stencil offset the body reads; origin-only by
    #: default.  Stencil kernels must override it (kernelcheck verifies
    #: the declaration against the observed footprint).
    stencil_halo = 0

    def __call__(self, *idx: int) -> None:
        self.apply(point_slices(idx))

    def apply(self, slices) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


def face_u_east(u: np.ndarray, sk: slice, sj: slice, si: slice) -> np.ndarray:
    """B-grid zonal velocity on the *east face* of T cells in the tile.

    The east face of T cell (j, i) is bounded by corners (j, i) and
    (j-1, i); the face-normal velocity is their average.
    """
    return 0.5 * (u[sk, sj, si] + u[sk, sh(sj, -1), si])


def face_u_west(u: np.ndarray, sk: slice, sj: slice, si: slice) -> np.ndarray:
    """Zonal velocity on the *west face* of T cells in the tile."""
    return 0.5 * (u[sk, sj, sh(si, -1)] + u[sk, sh(sj, -1), sh(si, -1)])


def face_v_north(v: np.ndarray, sk: slice, sj: slice, si: slice) -> np.ndarray:
    """Meridional velocity on the *north face* of T cells in the tile.

    The north face of T cell (j, i) is bounded by corners (j, i) and
    (j, i-1).
    """
    return 0.5 * (v[sk, sj, si] + v[sk, sj, sh(si, -1)])


def face_v_south(v: np.ndarray, sk: slice, sj: slice, si: slice) -> np.ndarray:
    """Meridional velocity on the *south face* of T cells in the tile."""
    return 0.5 * (v[sk, sh(sj, -1), si] + v[sk, sh(sj, -1), sh(si, -1)])


def t_at_u(t: np.ndarray, sk: slice, sj: slice, si: slice) -> np.ndarray:
    """Average a T-point field to U corners over the tile."""
    return 0.25 * (
        t[sk, sj, si]
        + t[sk, sj, sh(si, 1)]
        + t[sk, sh(sj, 1), si]
        + t[sk, sh(sj, 1), sh(si, 1)]
    )


def thomas_solve(
    lower: np.ndarray, diag: np.ndarray, upper: np.ndarray, rhs: np.ndarray,
    ws=None, key: str = "thomas",
) -> np.ndarray:
    """Vectorised Thomas tridiagonal solve along axis 0.

    All inputs are ``(nz, ...)``; ``lower[0]`` and ``upper[-1]`` are
    ignored.  Column-parallel over the trailing axes, which is exactly
    how the implicit vertical solves parallelise on every backend.

    With a :class:`~repro.kokkos.workspace.Workspace` passed as ``ws``,
    the sweep arrays and per-level temporaries come from the arena under
    ``key`` and the elimination runs through ``out=`` ufunc calls — the
    same operations in the same order, so the solution is bitwise
    identical to the allocating path.
    """
    nz = diag.shape[0]
    if ws is None:
        cp = np.empty_like(diag)
        dp = np.empty_like(rhs)
        x = np.empty_like(rhs)
        cp[0] = upper[0] / diag[0]
        dp[0] = rhs[0] / diag[0]
        for k in range(1, nz):
            denom = diag[k] - lower[k] * cp[k - 1]
            cp[k] = upper[k] / denom
            dp[k] = (rhs[k] - lower[k] * dp[k - 1]) / denom
        x[-1] = dp[-1]
        for k in range(nz - 2, -1, -1):
            x[k] = dp[k] - cp[k] * x[k + 1]
        return x
    cp = ws.take(f"{key}_cp", diag.shape, diag.dtype)
    dp = ws.take(f"{key}_dp", rhs.shape, rhs.dtype)
    x = ws.take(f"{key}_x", rhs.shape, rhs.dtype)
    lvl = np.result_type(lower.dtype, diag.dtype, rhs.dtype)
    num = ws.take(f"{key}_num", diag.shape[1:], lvl)
    den = ws.take(f"{key}_den", diag.shape[1:], lvl)
    tmp = ws.take(f"{key}_tmp", diag.shape[1:], lvl)
    np.divide(upper[0], diag[0], out=cp[0])
    np.divide(rhs[0], diag[0], out=dp[0])
    for k in range(1, nz):
        np.multiply(lower[k], cp[k - 1], out=num)
        np.subtract(diag[k], num, out=den)
        np.divide(upper[k], den, out=cp[k])
        np.multiply(lower[k], dp[k - 1], out=num)
        np.subtract(rhs[k], num, out=tmp)
        np.divide(tmp, den, out=dp[k])
    x[-1] = dp[-1]
    for k in range(nz - 2, -1, -1):
        np.multiply(cp[k], x[k + 1], out=num)
        np.subtract(dp[k], num, out=x[k])
    return x
