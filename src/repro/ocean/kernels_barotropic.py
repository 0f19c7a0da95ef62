"""Barotropic (external-mode) kernels: forward-backward subcycling.

The split-explicit scheme integrates the depth-mean shallow-water
equations with the short barotropic step (Table III: 120 s at 100 km
down to 2 s at 1 km), many substeps per baroclinic step.  We use the
standard forward-backward pair:

1. continuity forward: ``eta <- eta - dt_b * div(H u_b)``
2. momentum backward: ``u_b <- R(f dt_b) u_b + dt_b (-g grad eta_new + G)``

where ``G`` is the (fixed over the subcycle) depth-mean baroclinic
forcing and ``R`` the exact Coriolis rotation.  Each substep needs a
fresh ``eta`` halo (and periodically a ``u_b`` halo) — the external
mode is the model's most communication-intensive phase, which is why
halo-update cost dominates scalability (§V-D).
"""

from __future__ import annotations

import numpy as np

from ..kokkos import View, kokkos_register_for
from .grid import GRAVITY
from .kernel_utils import TileFunctor, sh
from .localdomain import LocalDomain


@kokkos_register_for("barotropic_continuity", ndim=2)
class BarotropicContinuityFunctor(TileFunctor):
    """eta -= dt_b * div(H u_b), plus conservative eta smoothing.

    The Arakawa-B grid carries an eta checkerboard null mode (the
    4-point averages in grad/div annihilate it), so the continuity step
    includes a weak flux-form Laplacian on eta — land faces closed, so
    total volume is conserved exactly — that damps the mode without
    touching resolved gravity waves.  Needs valid (u_b, eta) halos.
    """

    flops_per_point = 24.0
    bytes_per_point = 10 * 8.0
    stencil_halo = 1        # corner transports + eta smoothing read ±1

    def __init__(
        self, ub: View, vb: View, eta_in: View, eta: View, hu: np.ndarray,
        domain: LocalDomain, dtb: float, eta_diff: float = 0.0,
    ) -> None:
        self.ub = ub
        self.vb = vb
        self.eta_in = eta_in  # snapshot read by the stencil (tile-order safe)
        self.eta = eta
        self.hu = hu          # (ly, lx) water depth at U corners
        self.dom = domain
        self.dtb = dtb
        self.eta_diff = eta_diff   # [m^2/s]

    def __call__(self, j: int, i: int) -> None:
        self.apply((slice(j, j + 1), slice(i, i + 1)))

    def apply(self, slices) -> None:
        sj, si = slices
        d = self.dom
        ub = self.ub.data
        vb = self.vb.data
        hu = self.hu
        dy = d.dy
        # volume transports at corners, on the tile plus its south/west
        # ring only (the four face averages below read offsets 0 and -1)
        ws = d.scratch()
        nj = sj.stop - sj.start
        ni = si.stop - si.start
        gj = slice(sj.start - 1, sj.stop)
        gi = slice(si.start - 1, si.stop)
        tdt = np.result_type(ub.dtype, hu.dtype)
        tu = ws.take("bc_tu", (nj + 1, ni + 1), tdt)
        np.multiply(ub[gj, gi], hu[gj, gi], out=tu)
        tv = ws.take("bc_tv", (nj + 1, ni + 1), tdt)
        np.multiply(vb[gj, gi], hu[gj, gi], out=tv)
        lj, ljm = slice(1, nj + 1), slice(0, nj)
        li, lim = slice(1, ni + 1), slice(0, ni)
        fe = 0.5 * (tu[lj, li] + tu[ljm, li]) * dy
        fw = 0.5 * (tu[lj, lim] + tu[ljm, lim]) * dy
        dxu_n = d.dx_u[sj].reshape(-1, 1)
        dxu_s = d.dx_u[sh(sj, -1)].reshape(-1, 1)
        fn = 0.5 * (tv[lj, li] + tv[lj, lim]) * dxu_n
        fs = 0.5 * (tv[ljm, li] + tv[ljm, lim]) * dxu_s
        area = (d.dx_t[sj] * dy).reshape(-1, 1)
        m = d.mask_t[0, sj, si]
        tend = -(fe - fw + fn - fs) / area
        if self.eta_diff:
            eta = self.eta_in.data
            mt = d.mask_t[0]
            dxt = d.dx_t[sj].reshape(-1, 1)
            open_e = mt[sj, si] * mt[sj, sh(si, 1)]
            open_w = mt[sj, si] * mt[sj, sh(si, -1)]
            open_n = mt[sj, si] * mt[sh(sj, 1), si]
            open_s = mt[sj, si] * mt[sh(sj, -1), si]
            ge = open_e * (eta[sj, sh(si, 1)] - eta[sj, si]) / dxt * dy
            gw = open_w * (eta[sj, si] - eta[sj, sh(si, -1)]) / dxt * dy
            gn = open_n * (eta[sh(sj, 1), si] - eta[sj, si]) / d.dy * dxu_n
            gs = open_s * (eta[sj, si] - eta[sh(sj, -1), si]) / d.dy * dxu_s
            tend = tend + self.eta_diff * (ge - gw + gn - gs) / area
        self.eta.data[sj, si] = self.eta_in.data[sj, si] + self.dtb * tend * m


@kokkos_register_for("barotropic_momentum", ndim=2)
class BarotropicMomentumFunctor(TileFunctor):
    """Rotate (u_b, v_b) by f dt_b then add -g grad(eta) + G (needs eta halo)."""

    flops_per_point = 24.0
    bytes_per_point = 10 * 8.0
    stencil_halo = 1        # grad(eta) averages the 4 surrounding cells

    def __init__(
        self, ub: View, vb: View, eta: View,
        gx: View, gy: View,
        domain: LocalDomain, dtb: float,
    ) -> None:
        self.ub = ub
        self.vb = vb
        self.eta = eta
        self.gx = gx
        self.gy = gy
        self.dom = domain
        self.dtb = dtb

    def __call__(self, j: int, i: int) -> None:
        self.apply((slice(j, j + 1), slice(i, i + 1)))

    def apply(self, slices) -> None:
        sj, si = slices
        d = self.dom
        eta = self.eta.data
        mu = d.mask_u[0, sj, si]
        dxu = d.dx_u[sj].reshape(-1, 1)
        detadx = 0.5 * (
            (eta[sj, sh(si, 1)] - eta[sj, si])
            + (eta[sh(sj, 1), sh(si, 1)] - eta[sh(sj, 1), si])
        ) / dxu
        detady = 0.5 * (
            (eta[sh(sj, 1), si] - eta[sj, si])
            + (eta[sh(sj, 1), sh(si, 1)] - eta[sj, sh(si, 1)])
        ) / d.dy
        cf, sf = d.coriolis_rotation(self.dtb)
        c = cf[sj].reshape(-1, 1)
        s = sf[sj].reshape(-1, 1)
        u = self.ub.data[sj, si]
        v = self.vb.data[sj, si]
        ur = u * c + v * s
        vr = v * c - u * s
        self.ub.data[sj, si] = mu * (
            ur + self.dtb * (-GRAVITY * detadx + self.gx.data[sj, si])
        )
        self.vb.data[sj, si] = mu * (
            vr + self.dtb * (-GRAVITY * detady + self.gy.data[sj, si])
        )


@kokkos_register_for("barotropic_gforce", ndim=2)
class GForceFunctor(TileFunctor):
    """G = (depth mean after - before the baroclinic update) / dt2.

    The depth-mean baroclinic forcing the subcycle holds fixed."""

    flops_per_point = 4.0
    bytes_per_point = 6 * 8.0

    def __init__(self, um: View, um_old: View, vm: View, vm_old: View,
                 gx: View, gy: View, dt2: float) -> None:
        self.um, self.um_old = um, um_old
        self.vm, self.vm_old = vm, vm_old
        self.gx, self.gy = gx, gy
        self.dt2 = dt2

    def apply(self, slices) -> None:
        sj, si = slices
        self.gx.data[sj, si] = (self.um.data[sj, si]
                                - self.um_old.data[sj, si]) / self.dt2
        self.gy.data[sj, si] = (self.vm.data[sj, si]
                                - self.vm_old.data[sj, si]) / self.dt2


@kokkos_register_for("asselin_filter", ndim=3)
class AsselinFilterFunctor(TileFunctor):
    """Robert-Asselin time filter: cur += alpha (new - 2 cur + old)."""

    flops_per_point = 4.0
    bytes_per_point = 4 * 8.0

    def __init__(self, old: View, cur: View, new: View, alpha: float = 0.1) -> None:
        self.old = old
        self.cur = cur
        self.new = new
        self.alpha = alpha

    def apply(self, slices) -> None:
        idx = tuple(slices)
        o = self.old.data[idx]
        c = self.cur.data[idx]
        n = self.new.data[idx]
        self.cur.data[idx] = c + self.alpha * (n - 2.0 * c + o)

