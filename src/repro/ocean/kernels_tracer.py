"""Tracer transport: the two-step shape-preserving advection scheme.

This is the paper's ``advection_tracer`` hotspot (§V-C2): a 3-D stencil
kernel over many arrays with "enhanced logical complexity".  The scheme
(Yu 1994) is two-step flux-corrected transport:

1. **Predictor** — donor-cell (upstream) fluxes produce a monotone
   provisional field T*.
2. **Corrector** — antidiffusive fluxes (centered minus upstream,
   evaluated on T*) are limited Zalesak-style so no cell leaves the
   envelope of its own and its neighbours' {T, T*} values, then applied
   conservatively.

The limiter needs neighbour limiting factors, so the full update is
kernel -> halo(T*) -> kernel(R±) -> halo(R±) -> kernel(apply): three
extra 3-D halo updates per tracer per step — precisely the communication
pressure that makes the paper's 3-D-halo optimizations matter.

All kernels use 2-D (column-tile) policies: the vertical direction is
handled inside the tile, as LICOM structures its tracer loops.

Shape preservation and exact conservation (closed domain) are enforced
by the property-based tests.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..kokkos import View, kokkos_register_for
from .kernel_utils import TileFunctor, sh
from .localdomain import LocalDomain

_TINY = 1.0e-30


def _face_volumes(
    u: np.ndarray, v: np.ndarray, w: np.ndarray,
    dom: LocalDomain, sj: slice, si: slice,
):
    """Arena-backed volume transports through the tile's face sets.

    Returns ``(ue, vn, wt)`` in the arena's shared transport buffers.
    Each step mirrors the historical eager expression op by op, so the
    results are bitwise identical to eager allocation.  Geometry comes
    from the domain the model bound, which the precision policy has
    already cast to the tracer family's dtype (``LocalDomain.at_dtype``)
    — so for an fp32 tracer family ``result_type(field, dz)`` collapses
    to fp32 and the sweep never silently computes in fp64; under fp64
    policies the promotion is the historical no-op.
    """
    nz = dom.nz
    sk = slice(0, nz)
    ws = dom.scratch()
    dy = dom.dy
    dz = dom.dz.reshape(-1, 1, 1)
    nj = sj.stop - sj.start
    ni = si.stop - si.start
    vdt = u.dtype
    tdt = np.result_type(vdt, dz.dtype)

    sie = slice(si.start - 1, si.stop)
    face = ws.take("adv_face_e", (nz, nj, ni + 1), vdt)
    np.add(u[sk, sj, sie], u[sk, sh(sj, -1), sie], out=face)
    np.multiply(face, 0.5, out=face)
    np.multiply(face, dy, out=face)
    ue = ws.take("adv_ue", (nz, nj, ni + 1), tdt)
    np.multiply(face, dz, out=ue)

    sjn = slice(sj.start - 1, sj.stop)
    dxu = dom.dx_u[sjn].reshape(1, -1, 1)
    face_n = ws.take("adv_face_n", (nz, nj + 1, ni), vdt)
    np.add(v[sk, sjn, si], v[sk, sjn, sh(si, -1)], out=face_n)
    np.multiply(face_n, 0.5, out=face_n)
    vn = ws.take("adv_vn", (nz, nj + 1, ni), tdt)
    np.multiply(face_n, dxu, out=vn)
    np.multiply(vn, dz, out=vn)

    area = (dom.dx_t[sj] * dy).reshape(1, -1, 1)
    wt = ws.take("adv_wt", (nz + 1, nj, ni), tdt)
    np.multiply(w[:, sj, si], area, out=wt)
    return ue, vn, wt


def _vertical_donors(
    t: np.ndarray, dom: LocalDomain, sj: slice, si: slice,
):
    """(T_below, T_above) interface donor columns in arena buffers.

    Bitwise equal to the historical ``np.concatenate`` construction:
    ``T_below[k] = T[min(k, nz-1)]`` and ``T_above[k] = T[max(k-1, 0)]``.
    """
    nz = dom.nz
    ws = dom.scratch()
    nj = sj.stop - sj.start
    ni = si.stop - si.start
    tcol = t[:, sj, si]
    t_below = ws.take("adv_tbelow", (nz + 1, nj, ni), t.dtype)
    t_below[:nz] = tcol
    t_below[nz] = tcol[-1]
    t_above = ws.take("adv_tabove", (nz + 1, nj, ni), t.dtype)
    t_above[0] = tcol[0]
    t_above[1:] = tcol
    return t_below, t_above


def _upwind_fluxes(
    t: np.ndarray,          # tracer (nz, ly, lx), full array
    u: np.ndarray, v: np.ndarray,
    w: np.ndarray,          # (nz+1, ly, lx) interface velocity, positive up
    dom: LocalDomain,
    sj: slice, si: slice,
    tag: str = "up",
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Donor-cell fluxes for the faces of the cells in the (sj, si) tile.

    Returns ``(F_e, F_n, F_t)``:
    ``F_e`` (nz, nj, ni+1): east-face fluxes of cells ``si.start-1 .. si.stop-1``
    (so ``F_e[:, :, c]`` / ``F_e[:, :, c+1]`` are cell c's west/east faces);
    ``F_n`` (nz, nj+1, ni) likewise in j; ``F_t`` (nz+1, nj, ni) top-face
    fluxes, positive upward, ``F_t[nz] = 0`` at the sea floor.

    The returned arrays live in arena buffers keyed by ``tag`` (so the
    corrector can hold upwind and central fluxes simultaneously).
    """
    nz = dom.nz
    sk = slice(0, nz)
    ws = dom.scratch()
    ue, vn, wt = _face_volumes(u, v, w, dom, sj, si)
    # east faces of cells si.start-1 .. si.stop-1  <=> west+east of the tile
    sie = slice(si.start - 1, si.stop)
    t_w = t[sk, sj, sie]
    t_e = t[sk, sj, sh(sie, 1)]
    pos = ws.take("adv_pos", ue.shape, ue.dtype)
    np.maximum(ue, 0.0, out=pos)
    np.multiply(pos, t_w, out=pos)
    neg = ws.take("adv_neg", ue.shape, ue.dtype)
    np.minimum(ue, 0.0, out=neg)
    np.multiply(neg, t_e, out=neg)
    f_e = ws.take(f"{tag}_fe", ue.shape, ue.dtype)
    np.add(pos, neg, out=f_e)

    sjn = slice(sj.start - 1, sj.stop)
    t_s = t[sk, sjn, si]
    t_n = t[sk, sh(sjn, 1), si]
    pos_n = ws.take("adv_pos_n", vn.shape, vn.dtype)
    np.maximum(vn, 0.0, out=pos_n)
    np.multiply(pos_n, t_s, out=pos_n)
    neg_n = ws.take("adv_neg_n", vn.shape, vn.dtype)
    np.minimum(vn, 0.0, out=neg_n)
    np.multiply(neg_n, t_n, out=neg_n)
    f_n = ws.take(f"{tag}_fn", vn.shape, vn.dtype)
    np.add(pos_n, neg_n, out=f_n)

    t_below, t_above = _vertical_donors(t, dom, sj, si)   # donors by w sign
    pos_t = ws.take("adv_pos_t", wt.shape, wt.dtype)
    np.maximum(wt, 0.0, out=pos_t)
    np.multiply(pos_t, t_below, out=pos_t)
    neg_t = ws.take("adv_neg_t", wt.shape, wt.dtype)
    np.minimum(wt, 0.0, out=neg_t)
    np.multiply(neg_t, t_above, out=neg_t)
    f_t = ws.take(f"{tag}_ft", wt.shape, wt.dtype)
    np.add(pos_t, neg_t, out=f_t)
    f_t[-1] = 0.0                                          # sea floor
    return f_e, f_n, f_t


def _central_fluxes(
    t: np.ndarray, u: np.ndarray, v: np.ndarray, w: np.ndarray,
    dom: LocalDomain, sj: slice, si: slice,
    tag: str = "ct",
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Second-order centered fluxes on the same face sets as above."""
    nz = dom.nz
    sk = slice(0, nz)
    ws = dom.scratch()
    ue, vn, wt = _face_volumes(u, v, w, dom, sj, si)
    sie = slice(si.start - 1, si.stop)
    tsum = ws.take("adv_tsum", ue.shape, t.dtype)
    np.add(t[sk, sj, sie], t[sk, sj, sh(sie, 1)], out=tsum)
    np.multiply(ue, 0.5, out=ue)
    f_e = ws.take(f"{tag}_fe", ue.shape, ue.dtype)
    np.multiply(ue, tsum, out=f_e)

    sjn = slice(sj.start - 1, sj.stop)
    tsum_n = ws.take("adv_tsum_n", vn.shape, t.dtype)
    np.add(t[sk, sjn, si], t[sk, sh(sjn, 1), si], out=tsum_n)
    np.multiply(vn, 0.5, out=vn)
    f_n = ws.take(f"{tag}_fn", vn.shape, vn.dtype)
    np.multiply(vn, tsum_n, out=f_n)

    t_below, t_above = _vertical_donors(t, dom, sj, si)
    tsum_t = ws.take("adv_tsum_t", wt.shape, t.dtype)
    np.add(t_below, t_above, out=tsum_t)
    np.multiply(wt, 0.5, out=wt)
    f_t = ws.take(f"{tag}_ft", wt.shape, wt.dtype)
    np.multiply(wt, tsum_t, out=f_t)
    f_t[-1] = 0.0
    return f_e, f_n, f_t


def _tile_volume(dom: LocalDomain, sj: slice, si: slice) -> np.ndarray:
    """(nz, nj, 1) cell volumes in the shared arena buffer."""
    dz = dom.dz.reshape(-1, 1, 1)
    area = (dom.dx_t[sj] * dom.dy).reshape(1, -1, 1)
    ws = dom.scratch()
    vol = ws.take("adv_vol", (dom.nz, sj.stop - sj.start, 1),
                  np.result_type(area.dtype, dz.dtype))
    np.multiply(area, dz, out=vol)
    return vol


def _apply_divergence(
    f_e: np.ndarray, f_n: np.ndarray, f_t: np.ndarray,
    dom: LocalDomain, sj: slice, si: slice, dt: float,
) -> np.ndarray:
    """-dt/V * flux divergence for the tile's cells (arena buffer)."""
    vol = _tile_volume(dom, sj, si)
    ws = dom.scratch()
    div = ws.take("adv_div", (f_e.shape[0], f_e.shape[1], f_e.shape[2] - 1),
                  f_e.dtype)
    np.subtract(f_e[:, :, 1:], f_e[:, :, :-1], out=div)
    np.add(div, f_n[:, 1:, :], out=div)
    np.subtract(div, f_n[:, :-1, :], out=div)
    np.add(div, f_t[:-1], out=div)
    np.subtract(div, f_t[1:], out=div)
    np.multiply(div, -dt, out=div)
    np.divide(div, vol, out=div)
    return div


@kokkos_register_for("advect_tracer_predictor", ndim=2)
class AdvectPredictorFunctor(TileFunctor):
    """Step 1: donor-cell predictor, T* = T - dt/V div F_up(T)."""

    flops_per_point = 45.0
    bytes_per_point = 10 * 8.0
    stencil_halo = 1        # upwind face fluxes read ±1 neighbours

    def __init__(
        self,
        t_in: View, u: View, v: View, w: View,
        t_star: View,
        domain: LocalDomain,
        dt: float,
    ) -> None:
        self.t_in = t_in
        self.u = u
        self.v = v
        self.w = w
        self.t_star = t_star
        self.dom = domain
        self.dt = dt

    def __call__(self, j: int, i: int) -> None:
        self.apply((slice(j, j + 1), slice(i, i + 1)))

    def apply(self, slices) -> None:
        sj, si = slices
        d = self.dom
        t = self.t_in.data
        f_e, f_n, f_t = _upwind_fluxes(
            t, self.u.data, self.v.data, self.w.data, d, sj, si
        )
        m = d.mask_t[:, sj, si]
        delta = _apply_divergence(f_e, f_n, f_t, d, sj, si, self.dt)
        out = d.scratch().take(
            "adv_out", delta.shape, np.result_type(t.dtype, delta.dtype))
        np.add(t[:, sj, si], delta, out=out)
        np.multiply(out, m, out=out)
        self.t_star.data[:, sj, si] = out


def _antidiffusive(
    t_star: np.ndarray, u: np.ndarray, v: np.ndarray, w: np.ndarray,
    dom: LocalDomain, sj: slice, si: slice,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A = F_central(T*) - F_upwind(T*) on the tile's face sets.

    The surface antidiffusive flux is zeroed: the limiter has no cell
    above the surface to police, and a zero flux keeps conservation.
    """
    fc = _central_fluxes(t_star, u, v, w, dom, sj, si, tag="ct")
    fu = _upwind_fluxes(t_star, u, v, w, dom, sj, si, tag="up")
    a_e, a_n, a_t = fc
    np.subtract(a_e, fu[0], out=a_e)
    np.subtract(a_n, fu[1], out=a_n)
    np.subtract(a_t, fu[2], out=a_t)
    a_t[0] = 0.0
    return a_e, a_n, a_t


def _local_bounds(
    t_old: np.ndarray, t_star: np.ndarray, mask: np.ndarray,
    dom: LocalDomain, sj: slice, si: slice,
) -> Tuple[np.ndarray, np.ndarray]:
    """Zalesak envelope: extrema of {T, T*} over self + 6 neighbours.

    Land neighbours are replaced by the cell's own T* so they cannot
    corrupt the envelope.

    Arena notes: every candidate is still evaluated in the historical
    ``np.stack`` order and folded with a running max/min (numpy's own
    ``maximum.reduce`` is the same sequential left fold, and max/min are
    selections, not arithmetic), so the results are bitwise identical.
    """
    ws = dom.scratch()
    own_star = t_star[:, sj, si]
    shape = own_star.shape
    dt = own_star.dtype
    cand = ws.take("fct_cand", shape, dt)
    vsh = ws.take("fct_vsh", shape, dt)
    msh = ws.take("fct_msh", shape, mask.dtype)
    wet = ws.take("fct_msk", shape, np.bool_)
    tmax = ws.take("fct_tmax", shape, dt)
    tmin = ws.take("fct_tmin", shape, dt)

    def nb_into(arr: np.ndarray, dj: int, di: int, dk: int = 0) -> None:
        """cand[:] = where(mask_nb > 0, arr_nb, own_star)."""
        ss = si if di == 0 else sh(si, di)
        vals = arr[:, sh(sj, dj), ss]
        msk = mask[:, sh(sj, dj), ss]
        if dk:
            if dk > 0:
                vsh[:-dk] = vals[dk:]
                vsh[-dk:] = vals[-1:]
                msh[:-dk] = msk[dk:]
                msh[-dk:] = msk[-1:]
            else:
                vsh[:1] = vals[:1]
                vsh[1:] = vals[:dk]
                msh[:1] = msk[:1]
                msh[1:] = msk[:dk]
            vals, msk = vsh, msh
        np.greater(msk, 0.0, out=wet)
        np.copyto(cand, own_star)
        np.copyto(cand, vals, where=wet)

    first = True
    for arr in (t_old, t_star):
        for dj, di, dk in ((0, 0, 0), (0, 1, 0), (0, -1, 0), (1, 0, 0),
                           (-1, 0, 0), (0, 0, 1), (0, 0, -1)):
            nb_into(arr, dj, di, dk)
            if first:
                np.copyto(tmax, cand)
                np.copyto(tmin, cand)
                first = False
            else:
                np.maximum(tmax, cand, out=tmax)
                np.minimum(tmin, cand, out=tmin)
    return tmax, tmin


@kokkos_register_for("advect_tracer_limits", ndim=2)
class FCTLimitFunctor(TileFunctor):
    """Step 2a: Zalesak limiting factors R+ (inflow) and R- (outflow)."""

    flops_per_point = 70.0
    bytes_per_point = 14 * 8.0
    stencil_halo = 1        # local min/max bounds over the 3x3 ring

    def __init__(
        self,
        t_old: View, t_star: View,
        u: View, v: View, w: View,
        r_plus: View, r_minus: View,
        domain: LocalDomain,
        dt: float,
    ) -> None:
        self.t_old = t_old
        self.t_star = t_star
        self.u = u
        self.v = v
        self.w = w
        self.r_plus = r_plus
        self.r_minus = r_minus
        self.dom = domain
        self.dt = dt

    def __call__(self, j: int, i: int) -> None:
        self.apply((slice(j, j + 1), slice(i, i + 1)))

    def apply(self, slices) -> None:
        sj, si = slices
        d = self.dom
        ws = d.scratch()
        ts = self.t_star.data
        a_e, a_n, a_t = _antidiffusive(
            ts, self.u.data, self.v.data, self.w.data, d, sj, si
        )
        tmax, tmin = _local_bounds(self.t_old.data, ts, d.mask_t, d, sj, si)
        vol = _tile_volume(d, sj, si)
        own = ts[:, sj, si]
        shape = own.shape
        # inflow / outflow positive parts (running-sum fold mirrors the
        # historical left-associated expression term by term)
        acc = ws.take("fct_pplus", shape, a_e.dtype)
        tmp = ws.take("fct_ptmp", shape, a_e.dtype)
        np.maximum(a_e[:, :, :-1], 0.0, out=acc)
        np.minimum(a_e[:, :, 1:], 0.0, out=tmp)
        np.subtract(acc, tmp, out=acc)
        np.maximum(a_n[:, :-1, :], 0.0, out=tmp)
        np.add(acc, tmp, out=acc)
        np.minimum(a_n[:, 1:, :], 0.0, out=tmp)
        np.subtract(acc, tmp, out=acc)
        np.maximum(a_t[1:], 0.0, out=tmp)
        np.add(acc, tmp, out=acc)
        np.minimum(a_t[:-1], 0.0, out=tmp)
        np.subtract(acc, tmp, out=acc)
        p_plus = acc
        acc = ws.take("fct_pminus", shape, a_e.dtype)
        np.maximum(a_e[:, :, 1:], 0.0, out=acc)
        np.minimum(a_e[:, :, :-1], 0.0, out=tmp)
        np.subtract(acc, tmp, out=acc)
        np.maximum(a_n[:, 1:, :], 0.0, out=tmp)
        np.add(acc, tmp, out=acc)
        np.minimum(a_n[:, :-1, :], 0.0, out=tmp)
        np.subtract(acc, tmp, out=acc)
        np.maximum(a_t[:-1], 0.0, out=tmp)
        np.add(acc, tmp, out=acc)
        np.minimum(a_t[1:], 0.0, out=tmp)
        np.subtract(acc, tmp, out=acc)
        p_minus = acc

        qdiff = ws.take("fct_qdiff", shape, own.dtype)
        q_plus = ws.take("fct_qplus", shape,
                         np.result_type(own.dtype, vol.dtype))
        np.subtract(tmax, own, out=qdiff)
        np.multiply(qdiff, vol, out=q_plus)
        np.divide(q_plus, self.dt, out=q_plus)
        q_minus = ws.take("fct_qminus", shape, q_plus.dtype)
        np.subtract(own, tmin, out=qdiff)
        np.multiply(qdiff, vol, out=q_minus)
        np.divide(q_minus, self.dt, out=q_minus)

        m = d.mask_t[:, sj, si]
        land = ws.take("fct_msk", shape, np.bool_)
        np.less_equal(m, 0.0, out=land)
        # q/(p + tiny) saturates to inf at fp32 when p ~ 0 (no incoming
        # flux); the minimum on the next line clamps it to the correct
        # limiter value 1, so the overflow is expected, not an error
        with np.errstate(over="ignore"):
            np.add(p_plus, _TINY, out=p_plus)
            np.divide(q_plus, p_plus, out=q_plus)
            np.minimum(q_plus, 1.0, out=q_plus)
            np.copyto(q_plus, 1.0, where=land)
            self.r_plus.data[:, sj, si] = q_plus
            np.add(p_minus, _TINY, out=p_minus)
            np.divide(q_minus, p_minus, out=q_minus)
            np.minimum(q_minus, 1.0, out=q_minus)
            np.copyto(q_minus, 1.0, where=land)
            self.r_minus.data[:, sj, si] = q_minus


@kokkos_register_for("advect_tracer_apply", ndim=2)
class FCTApplyFunctor(TileFunctor):
    """Step 2b: apply limited antidiffusive fluxes -> T_new.

    Requires valid halos on T*, R+ and R-.
    """

    flops_per_point = 80.0
    bytes_per_point = 16 * 8.0
    stencil_halo = 1        # antidiffusive face fluxes read ±1

    def __init__(
        self,
        t_star: View,
        u: View, v: View, w: View,
        r_plus: View, r_minus: View,
        t_new: View,
        domain: LocalDomain,
        dt: float,
    ) -> None:
        self.t_star = t_star
        self.u = u
        self.v = v
        self.w = w
        self.r_plus = r_plus
        self.r_minus = r_minus
        self.t_new = t_new
        self.dom = domain
        self.dt = dt

    def __call__(self, j: int, i: int) -> None:
        self.apply((slice(j, j + 1), slice(i, i + 1)))

    def apply(self, slices) -> None:
        sj, si = slices
        d = self.dom
        ws = d.scratch()
        ts = self.t_star.data
        rp = self.r_plus.data
        rm = self.r_minus.data
        a_e, a_n, a_t = _antidiffusive(
            ts, self.u.data, self.v.data, self.w.data, d, sj, si
        )
        # east faces: cells (si.start-1 .. si.stop-1) and their +1 neighbours
        sie = slice(si.start - 1, si.stop)
        rp_w = rp[:, sj, sie]
        rp_e = rp[:, sj, sh(sie, 1)]
        rm_w = rm[:, sj, sie]
        rm_e = rm[:, sj, sh(sie, 1)]
        c_e = ws.take("fct_ce", a_e.shape, rp.dtype)
        ctmp = ws.take("fct_cetmp", a_e.shape, rp.dtype)
        up = ws.take("fct_upe", a_e.shape, np.bool_)
        np.minimum(rp_w, rm_e, out=c_e)          # outflow-limited branch
        np.minimum(rp_e, rm_w, out=ctmp)         # inflow-limited branch
        np.greater(a_e, 0.0, out=up)
        np.copyto(c_e, ctmp, where=up)

        sjn = slice(sj.start - 1, sj.stop)
        rp_s = rp[:, sjn, si]
        rp_n = rp[:, sh(sjn, 1), si]
        rm_s = rm[:, sjn, si]
        rm_n = rm[:, sh(sjn, 1), si]
        c_n = ws.take("fct_cn", a_n.shape, rp.dtype)
        ctmp_n = ws.take("fct_cntmp", a_n.shape, rp.dtype)
        up_n = ws.take("fct_upn", a_n.shape, np.bool_)
        np.minimum(rp_s, rm_n, out=c_n)
        np.minimum(rp_n, rm_s, out=ctmp_n)
        np.greater(a_n, 0.0, out=up_n)
        np.copyto(c_n, ctmp_n, where=up_n)

        rp_col = rp[:, sj, si]
        rm_col = rm[:, sj, si]
        nz = d.nz
        rp_above = ws.take("fct_rpa", a_t.shape, rp.dtype)
        rp_above[0] = rp_col[0]
        rp_above[1:] = rp_col
        rm_above = ws.take("fct_rma", a_t.shape, rp.dtype)
        rm_above[0] = rm_col[0]
        rm_above[1:] = rm_col
        rp_here = ws.take("fct_rph", a_t.shape, rp.dtype)
        rp_here[:nz] = rp_col
        rp_here[nz] = rp_col[-1]
        rm_here = ws.take("fct_rmh", a_t.shape, rp.dtype)
        rm_here[:nz] = rm_col
        rm_here[nz] = rm_col[-1]
        # a_t[k] is the top face of cell k: positive-up flux leaves cell k
        # and enters cell k-1 (above)
        c_t = ws.take("fct_ct", a_t.shape, rp.dtype)
        ctmp_t = ws.take("fct_cttmp", a_t.shape, rp.dtype)
        up_t = ws.take("fct_upt", a_t.shape, np.bool_)
        np.minimum(rp_here, rm_above, out=c_t)
        np.minimum(rp_above, rm_here, out=ctmp_t)
        np.greater(a_t, 0.0, out=up_t)
        np.copyto(c_t, ctmp_t, where=up_t)
        c_t[0] = 0.0
        c_t[-1] = 0.0

        np.multiply(a_e, c_e, out=a_e)
        np.multiply(a_n, c_n, out=a_n)
        np.multiply(a_t, c_t, out=a_t)
        delta = _apply_divergence(a_e, a_n, a_t, d, sj, si, self.dt)
        m = d.mask_t[:, sj, si]
        out = ws.take(
            "adv_out", delta.shape, np.result_type(ts.dtype, delta.dtype))
        np.add(ts[:, sj, si], delta, out=out)
        np.multiply(out, m, out=out)
        self.t_new.data[:, sj, si] = out


@kokkos_register_for("tracer_hdiff", ndim=2)
class TracerHDiffusionFunctor(TileFunctor):
    """Conservative explicit horizontal Laplacian diffusion.

    ``T_new = T_old + dt/V * div(A_T * open_face * grad T_old)`` — flux
    form with land faces closed, so the operator conserves the tracer.
    """

    flops_per_point = 25.0
    bytes_per_point = 8 * 8.0
    stencil_halo = 1        # 5-point Laplacian

    def __init__(
        self,
        t_in: View, t_new: View,
        domain: LocalDomain,
        dt: float,
        diffusivity: float,
    ) -> None:
        self.t_in = t_in
        self.t_new = t_new
        self.dom = domain
        self.dt = dt
        self.kappa = diffusivity

    def __call__(self, j: int, i: int) -> None:
        self.apply((slice(j, j + 1), slice(i, i + 1)))

    def apply(self, slices) -> None:
        sj, si = slices
        d = self.dom
        ws = d.scratch()
        t = self.t_in.data
        m = d.mask_t
        dz = d.dz.reshape(-1, 1, 1)
        dy = d.dy
        nz = d.nz
        sk = slice(0, nz)
        nj = sj.stop - sj.start
        ni = si.stop - si.start

        sie = slice(si.start - 1, si.stop)
        dxt_row = d.dx_t[sj].reshape(1, -1, 1)
        open_e = ws.take("hd_open_e", (nz, nj, ni + 1), m.dtype)
        np.multiply(m[sk, sj, sie], m[sk, sj, sh(sie, 1)], out=open_e)
        coef = ws.take("hd_coef", (nz, 1, 1), dz.dtype)
        np.multiply(dz, self.kappa * dy, out=coef)
        tdiff = ws.take("hd_tdiff_e", open_e.shape, t.dtype)
        np.subtract(t[sk, sj, sh(sie, 1)], t[sk, sj, sie], out=tdiff)
        f_e = ws.take("hd_fe", open_e.shape,
                      np.result_type(coef.dtype, m.dtype, t.dtype))
        np.multiply(open_e, coef, out=f_e)
        np.multiply(f_e, tdiff, out=f_e)
        np.divide(f_e, dxt_row, out=f_e)

        sjn = slice(sj.start - 1, sj.stop)
        dxu = d.dx_u[sjn].reshape(1, -1, 1)
        open_n = ws.take("hd_open_n", (nz, nj + 1, ni), m.dtype)
        np.multiply(m[sk, sjn, si], m[sk, sh(sjn, 1), si], out=open_n)
        kdxu = ws.take("hd_kdxu", (1, nj + 1, 1), dxu.dtype)
        np.multiply(dxu, self.kappa, out=kdxu)
        coef_n = ws.take("hd_coef_n", (nz, nj + 1, 1),
                         np.result_type(dxu.dtype, dz.dtype))
        np.multiply(kdxu, dz, out=coef_n)
        tdiff_n = ws.take("hd_tdiff_n", open_n.shape, t.dtype)
        np.subtract(t[sk, sh(sjn, 1), si], t[sk, sjn, si], out=tdiff_n)
        f_n = ws.take("hd_fn", open_n.shape,
                      np.result_type(coef_n.dtype, m.dtype, t.dtype))
        np.multiply(open_n, coef_n, out=f_n)
        np.multiply(f_n, tdiff_n, out=f_n)
        np.divide(f_n, dy, out=f_n)

        vol = _tile_volume(d, sj, si)
        div = ws.take("hd_div", (nz, nj, ni), f_e.dtype)
        np.subtract(f_e[:, :, 1:], f_e[:, :, :-1], out=div)
        np.add(div, f_n[:, 1:, :], out=div)
        np.subtract(div, f_n[:, :-1, :], out=div)
        np.multiply(div, self.dt, out=div)
        np.divide(div, vol, out=div)
        np.multiply(div, m[:, sj, si], out=div)
        np.add(t[:, sj, si], div, out=div)
        self.t_new.data[:, sj, si] = div
