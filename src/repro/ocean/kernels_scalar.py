"""Scalar diagnostic kernels: equation of state, pressure, vertical velocity.

Each is a registered Kokkos-style functor (so the Athread backend can
dispatch it) with a vectorised tile body.  These are the "many small
kernels" of the paper's hotspot-dispersion observation: cheap
individually, collectively a large share of the step.
"""

from __future__ import annotations

import numpy as np

from ..kokkos import View, kokkos_register_for
from .eos import ALPHA_T, BETA_S, RHO0, S0, T0
from .grid import GRAVITY
from .kernel_utils import FIELD_TMP, TileFunctor, sh
from .localdomain import LocalDomain


@kokkos_register_for("eos_density", ndim=3)
class EOSFunctor(TileFunctor):
    """rho = rho0 (1 - alpha (T - T0) + beta (S - S0)), masked."""

    flops_per_point = 5.0
    bytes_per_point = 4 * 8.0
    #: Declared family boundary: under a mixed policy the EOS widens the
    #: fp32 tracer fields into the fp64 density — value-exact reads, so
    #: no explicit cast launch is needed (precision-promotion rule).
    precision_boundary = True

    def __init__(self, t: View, s: View, rho: View,
                 domain: LocalDomain) -> None:
        self.t = t
        self.s = s
        self.rho = rho
        self.dom = domain

    def apply(self, slices) -> None:
        sk, sj, si = slices
        ws = self.dom.workspace
        t = self.t.data[sk, sj, si]
        s = self.s.data[sk, sj, si]
        m = self.dom.mask_t[sk, sj, si]
        # (m rho0) ((1 - alpha (T - T0)) + beta (S - S0)), left to right
        # at the historical promotions: the bracket at the tracer dtype
        a = ws.take_view(FIELD_TMP[0], t.shape, t.dtype)
        np.subtract(t, T0, out=a)
        np.multiply(a, ALPHA_T, out=a)
        np.subtract(1.0, a, out=a)
        b = ws.take_view(FIELD_TMP[1], s.shape, s.dtype)
        np.subtract(s, S0, out=b)
        np.multiply(b, BETA_S, out=b)
        np.add(a, b, out=a)
        mr = ws.take_view(FIELD_TMP[2], m.shape, m.dtype)
        np.multiply(m, RHO0, out=mr)
        np.multiply(mr, a, out=self.rho.data[sk, sj, si])


@kokkos_register_for("baroclinic_pressure", ndim=2)
class PressureFunctor(TileFunctor):
    """Hydrostatic dynamic pressure / rho0 from the density anomaly.

    ``p[k] = (g/rho0) * (sum_{m<k} rho'_m dz_m + 0.5 rho'_k dz_k)`` with
    ``rho' = rho - rho0``.  A column scan, parallel over (j, i).
    """

    flops_per_point = 4.0
    bytes_per_point = 4 * 8.0   # rho + p + mask + dz columns
    #: Column cumsum: fp32 runs carry an accumulation-order hazard
    #: (precision-promotion WARNING); the mixed preset keeps eos fp64.
    accumulates = True

    def __init__(self, rho: View, p: View, domain: LocalDomain) -> None:
        self.rho = rho
        self.p = p
        self.dom = domain

    def apply(self, slices) -> None:
        sj, si = slices
        d = self.dom
        ws = d.workspace
        rho = self.rho.data[:, sj, si]
        m = d.mask_t[:, sj, si]
        dzc = d.dz.reshape(-1, 1, 1)
        # rho_a = (rho - rho0) m;  below = cumsum(rho_a dz) - rho_a dz;
        # p = (g / rho0) (below + (0.5 rho_a) dz) m
        rho_a = ws.take_view(FIELD_TMP[0], rho.shape, np.result_type(rho, m))
        np.subtract(rho, RHO0, out=rho_a)
        np.multiply(rho_a, m, out=rho_a)
        rdz = ws.take_view(FIELD_TMP[1], rho.shape, np.result_type(rho_a, dzc))
        np.multiply(rho_a, dzc, out=rdz)
        below = ws.take_view(FIELD_TMP[2], rho.shape, rdz.dtype)
        np.cumsum(rdz, axis=0, out=below)
        np.subtract(below, rdz, out=below)
        np.multiply(rho_a, 0.5, out=rho_a)
        np.multiply(rho_a, dzc, out=rdz)
        np.add(below, rdz, out=below)
        np.multiply(below, GRAVITY / RHO0, out=below)
        np.multiply(below, m, out=self.p.data[:, sj, si])


@kokkos_register_for("vertical_velocity", ndim=2)
class WFunctor(TileFunctor):
    """Diagnose w (positive up, at level-top interfaces) from continuity.

    ``w[k] = w[k+1] - dz_k * div_h(u)[k]`` integrated from the sea floor
    (``w = 0``) upward; a column scan parallel over (j, i).  The ``w``
    view holds ``nz + 1`` interfaces (index k = top of level k; index
    nz = sea floor, always 0).  Requires a valid one-wide halo on (u, v).
    """

    flops_per_point = 12.0
    bytes_per_point = 7 * 8.0   # u, v, w, masks + metric rows
    stencil_halo = 1            # face divergence reads ±1 corners
    #: Upward column integration of the divergence (a scan); the sum
    #: runs through an fp64 accumulator even when u/v/w are fp32, so
    #: the accumulation-order hazard does not apply.
    accumulates = True
    wide_accumulate = True

    def __init__(self, u: View, v: View, w: View, domain: LocalDomain) -> None:
        self.u = u
        self.v = v
        self.w = w
        self.dom = domain

    def apply(self, slices) -> None:
        sj, si = slices
        d = self.dom
        ws = d.workspace
        u = self.u.data
        v = self.v.data
        nz = d.nz
        sk = slice(0, nz)
        dy = d.dy
        dxu_n = d.dx_u[sj].reshape(1, -1, 1)
        dxu_s = d.dx_u[sh(sj, -1)].reshape(1, -1, 1)
        area = d.area_t[sj].reshape(1, -1, 1)
        dzc = d.dz.reshape(-1, 1, 1)
        shape = (nz, sj.stop - sj.start, si.stop - si.start)
        sjs, siw = sh(sj, -1), sh(si, -1)
        # B-grid face velocities 0.5 (corner + corner) times the face
        # length; divh = (fe - fw + fn - fs) / area * mask, left to right
        divh = ws.take_view(FIELD_TMP[0], shape,
                            np.result_type(u.dtype, v.dtype, dxu_n.dtype))
        face = ws.take_view(FIELD_TMP[1], shape, divh.dtype)
        for out, a, b, length, fold in (
                (divh, u[sk, sj, si], u[sk, sjs, si], dy, None),
                (face, u[sk, sj, siw], u[sk, sjs, siw], dy, np.subtract),
                (face, v[sk, sj, si], v[sk, sj, siw], dxu_n, np.add),
                (face, v[sk, sjs, si], v[sk, sjs, siw], dxu_s, np.subtract)):
            np.add(a, b, out=out)
            np.multiply(out, 0.5, out=out)
            np.multiply(out, length, out=out)
            if fold is not None:
                fold(divh, out, out=divh)
        np.divide(divh, area, out=divh)
        np.multiply(divh, d.mask_t[:, sj, si], out=divh)
        np.multiply(divh, dzc, out=divh)
        # integrate upward from the floor: w[k] = w[k+1] - dz_k * divh[k];
        # the running sum stays fp64 regardless of the field dtype
        # (wide_accumulate) and narrows only at the store (at fp64 it
        # reuses the spent face buffer)
        colsum = ws.take_view(FIELD_TMP[1], shape, np.float64)
        np.cumsum(divh[::-1], axis=0, dtype=np.float64, out=colsum)
        np.negative(colsum[::-1], out=self.w.data[:nz, sj, si])
        self.w.data[nz, sj, si] = 0.0
