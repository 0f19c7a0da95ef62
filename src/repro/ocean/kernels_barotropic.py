"""Barotropic (external-mode) kernels: forward-backward subcycling.

The split-explicit scheme integrates the depth-mean shallow-water
equations with the short barotropic step (Table III: 120 s at 100 km
down to 2 s at 1 km), many substeps per baroclinic step.  We use the
standard forward-backward pair:

1. continuity forward: ``eta <- eta - dt_b * div(H u_b)``
2. momentum backward: ``u_b <- R(f dt_b) u_b + dt_b (-g grad eta_new + G)``

where ``G`` is the (fixed over the subcycle) depth-mean baroclinic
forcing and ``R`` the exact Coriolis rotation.  Each substep needs a
fresh ``eta`` halo — the external mode is the model's most
communication-intensive phase, which is why halo-update cost dominates
scalability (§V-D).  The ``u_b`` halo is exchanged once per step, after
the last substep: continuity reads ``u_b`` only on its tiles' south /
west ring, and momentum computes that ring itself (from an exchanged
``G``), bitwise as its owner does.
"""

from __future__ import annotations


import numpy as np

from ..kokkos import View, kokkos_register_for
from ..kokkos.workspace import Workspace
from .grid import GRAVITY
from .kernel_utils import FIELD_TMP, TileFunctor, sh
from .localdomain import LocalDomain


@kokkos_register_for("barotropic_continuity", ndim=2)
class BarotropicContinuityFunctor(TileFunctor):
    """eta -= dt_b * div(H u_b), plus conservative eta smoothing.

    The Arakawa-B grid carries an eta checkerboard null mode (the
    4-point averages in grad/div annihilate it), so the continuity step
    includes a weak flux-form Laplacian on eta — land faces closed, so
    total volume is conserved exactly — that damps the mode without
    touching resolved gravity waves.  Needs a valid eta halo, and
    (u_b, v_b) valid on the tile's south / west ring.
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
        # dtypes of the corner transports, the face fluxes and the
        # smoothing gradients (views keep their dtype when rebound)
        tdt = np.result_type(ub.dtype, hu.dtype)
        fdt = np.result_type(tdt, domain.dx_u.dtype)
        self.dtypes = (tdt, fdt, np.result_type(eta_in.dtype,
                                                domain.open_e.dtype, fdt))

    def apply(self, slices) -> None:
        sj, si = slices
        d = self.dom
        hu = self.hu
        dxu_sn, area, dxt, open_e, open_n, mask = d.range_geometry(
            _continuity_rows, sj, si)
        tdt, fdt, gdt = self.dtypes
        # volume transports at corners, on the tile plus its south/west
        # ring only (the four face averages below read offsets 0 and -1)
        ws = d.scratch()
        nj = sj.stop - sj.start
        ni = si.stop - si.start
        gj = slice(sj.start - 1, sj.stop)
        gi = slice(si.start - 1, si.stop)
        tu, tv = ws.take("bc_t", (2, nj + 1, ni + 1), tdt)
        np.multiply(self.ub.data[gj, gi], hu[gj, gi], out=tu)
        np.multiply(self.vb.data[gj, gi], hu[gj, gi], out=tv)
        shape = (nj, ni)
        # tend = -(fe - fw + fn - fs) / area, each face flux
        # 0.5 * (corner + corner) * metric, left to right.  The east and
        # west faces share one pass over the tile's nj x (ni + 1) u-faces
        # (fe = fu[:, 1:], fw = fu[:, :-1]), the north and south faces
        # one over its (nj + 1) x ni v-faces (metric dx_u of the face row)
        tend = ws.take("bc_tend", shape, fdt)
        fu = ws.take("bc_fu", (nj, ni + 1), fdt)
        np.add(tu[1:], tu[:-1], out=fu)
        np.multiply(fu, 0.5, out=fu)
        np.multiply(fu, d.dy, out=fu)
        fv = ws.take("bc_fv", (nj + 1, ni), fdt)
        np.add(tv[:, 1:], tv[:, :-1], out=fv)
        np.multiply(fv, 0.5, out=fv)
        np.multiply(fv, dxu_sn, out=fv)
        np.subtract(fu[:, 1:], fu[:, :-1], out=tend)
        np.add(tend, fv[1:], out=tend)
        np.subtract(tend, fv[:-1], out=tend)
        np.negative(tend, out=tend)
        np.divide(tend, area, out=tend)
        eta_in = self.eta_in.data
        if self.eta_diff:
            # tend += eta_diff * (ge - gw + gn - gs) / area, each
            # gradient open * (eta_hi - eta_lo) / metric * metric; one
            # pass per direction, over the faces both gradients share
            ge = ws.take("bc_ge", (nj, ni + 1), gdt)
            np.subtract(eta_in[sj, sh(gi, 1)], eta_in[sj, gi], out=ge)
            np.multiply(open_e, ge, out=ge)
            np.divide(ge, dxt, out=ge)
            np.multiply(ge, d.dy, out=ge)
            gn = ws.take("bc_gn", (nj + 1, ni), gdt)
            np.subtract(eta_in[sh(gj, 1), si], eta_in[gj, si], out=gn)
            np.multiply(open_n, gn, out=gn)
            np.divide(gn, d.dy, out=gn)
            np.multiply(gn, dxu_sn, out=gn)
            gsum = ws.take("bc_gsum", shape, gdt)
            np.subtract(ge[:, 1:], ge[:, :-1], out=gsum)
            np.add(gsum, gn[1:], out=gsum)
            np.subtract(gsum, gn[:-1], out=gsum)
            np.multiply(gsum, self.eta_diff, out=gsum)
            np.divide(gsum, area, out=gsum)
            np.add(tend, gsum, out=tend)
        np.multiply(tend, self.dtb, out=tend)
        np.multiply(tend, mask, out=tend)
        np.add(eta_in[sj, si], tend, out=self.eta.data[sj, si])


def _continuity_rows(d: LocalDomain, sj: slice, si: slice) -> tuple:
    """Continuity's geometry over one launch range: ``dx_u`` of the face
    rows ``sj.start - 1 .. sj.stop - 1`` and ``area_t`` / ``dx_t`` of
    the tile rows (columns), the open east / north faces the smoothing
    reads (one ring west / south included) and the T mask."""
    ey = slice(sj.start - 1, sj.stop)
    ex = slice(si.start - 1, si.stop)
    return (d.dx_u[ey].reshape(-1, 1), d.area_t[sj].reshape(-1, 1),
            d.dx_t[sj].reshape(-1, 1), d.open_e[0, sj, ex],
            d.open_n[0, ey, si], d.mask_t[0, sj, si])


@kokkos_register_for("barotropic_momentum", ndim=2)
class BarotropicMomentumFunctor(TileFunctor):
    """Rotate (u_b, v_b) by f dt_b then add -g grad(eta) + G.

    Reads eta at +1 and everything else on the launch range only, so
    run over the interior grown by one south / west ring (with valid
    eta and G there) it computes continuity's ring as the owner does.
    """

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

    def apply(self, slices) -> None:
        sj, si = slices
        d = self.dom
        eta = self.eta.data
        mu, metric, cs = d.range_geometry(_momentum_rows, sj, si, self.dtb)
        ws = d.scratch()
        nj = sj.stop - sj.start
        ni = si.stop - si.start
        dt = eta.dtype
        grad, uc, vc = ws.take("bm_w", (3, 2, nj, ni), dt)
        # grad[0] = 0.5 * ((e[j, i+1] - e[j, i]) + (e[j+1, i+1] - e[j+1, i]))
        #           / dx_u,
        # grad[1] = 0.5 * ((e[j+1, i] - e[j, i]) + (e[j+1, i+1] - e[j, i+1]))
        #           / dy:
        # one difference pass per direction feeds both of its terms
        ex = ws.take("bm_ex", (nj + 1, ni), dt)
        rj = slice(sj.start, sj.stop + 1)
        np.subtract(eta[rj, sh(si, 1)], eta[rj, si], out=ex)
        ey = ws.take("bm_ey", (nj, ni + 1), dt)
        ri = slice(si.start, si.stop + 1)
        np.subtract(eta[sh(sj, 1), ri], eta[sj, ri], out=ey)
        np.add(ex[:-1], ex[1:], out=grad[0])
        np.add(ey[:, :-1], ey[:, 1:], out=grad[1])
        np.multiply(grad, 0.5, out=grad)
        np.divide(grad, metric, out=grad)
        # dtb * (-g grad + G)
        np.multiply(grad, -GRAVITY, out=grad)
        np.add(grad[0], self.gx.data[sj, si], out=grad[0])
        np.add(grad[1], self.gy.data[sj, si], out=grad[1])
        np.multiply(grad, self.dtb, out=grad)
        # (u c + v s, v c - u s): u and v each times (c, s) in one pass
        np.multiply(self.ub.data[sj, si], cs, out=uc)
        np.multiply(self.vb.data[sj, si], cs, out=vc)
        np.add(uc[0], vc[1], out=uc[0])
        np.subtract(vc[0], uc[1], out=uc[1])
        np.add(uc, grad, out=uc)
        np.multiply(mu, uc[0], out=self.ub.data[sj, si])
        np.multiply(mu, uc[1], out=self.vb.data[sj, si])


def _momentum_rows(d: LocalDomain, sj: slice, si: slice, dtb: float) -> tuple:
    """Momentum's geometry over one launch range: the U mask, the
    gradient metrics ``(dx_u, dy)`` and the rotation rows ``(cos, sin)``,
    each pair stacked as ``(2, nj, 1)``."""
    metric = np.empty((2, sj.stop - sj.start, 1), d.dx_u.dtype)
    metric[0] = d.dx_u[sj].reshape(-1, 1)
    metric[1] = d.dy
    cf, sf = d.coriolis_rotation(dtb)
    cs = np.empty((2, sj.stop - sj.start, 1), cf.dtype)
    cs[0] = cf[sj].reshape(-1, 1)
    cs[1] = sf[sj].reshape(-1, 1)
    return d.mask_u[0, sj, si], metric, cs


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

    def __init__(self, old: View, cur: View, new: View, alpha: float,
                 ws: Workspace) -> None:
        self.old = old
        self.cur = cur
        self.new = new
        self.alpha = alpha
        self.ws = ws

    def apply(self, slices) -> None:
        asselin_into(self.old.data, self.cur.data, self.new.data,
                     tuple(slices), self.alpha, self.ws)


def asselin_into(old: np.ndarray, cur: np.ndarray, new: np.ndarray,
                 idx: tuple, alpha: float, ws: Workspace) -> None:
    """``cur[idx] = c + alpha * (n - 2.0 * c + o)`` in one arena temporary,
    left to right as written."""
    c = cur[idx]
    n = new[idx]
    o = old[idx]
    tmp = ws.take_view(FIELD_TMP[0], c.shape,
                       np.result_type(n.dtype, c.dtype, o.dtype))
    np.multiply(c, 2.0, out=tmp)
    np.subtract(n, tmp, out=tmp)
    np.add(tmp, o, out=tmp)
    np.multiply(tmp, alpha, out=tmp)
    np.add(c, tmp, out=c)

