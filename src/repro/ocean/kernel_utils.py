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


#: Arena keys (``Workspace.take_view``) the field-sized temporaries of
#: the elementwise and column bodies (EOS, pressure, w, Coriolis,
#: add/strip, Asselin, canuto) share.  Bodies run one at a time on a
#: thread, so one buffer per key and dtype serves every body and launch
#: shape, and the resident scratch stays a few fields.
FIELD_TMP = ("field_a", "field_b", "field_c", "field_d", "field_e")


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


def thomas_solve(
    lower: np.ndarray, diag: np.ndarray, upper: np.ndarray, rhs: np.ndarray,
    ws, key: str = "thomas",
) -> np.ndarray:
    """Vectorised Thomas tridiagonal solve along axis 0.

    All inputs are ``(nz, ...)``; ``lower[0]`` and ``upper[-1]`` are
    ignored.  Column-parallel over the trailing axes, which is exactly
    how the implicit vertical solves parallelise on every backend.

    The sweep arrays and per-level temporaries come from the
    :class:`~repro.kokkos.workspace.Workspace` ``ws`` under ``key``, and
    the elimination runs through ``out=`` ufunc calls.
    """
    nz = diag.shape[0]
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
