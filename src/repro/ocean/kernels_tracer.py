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

#: ``(dj, di, dk)`` of the cells whose {T, T*} bound the FCT envelope:
#: the cell itself, then east, west, north, south, below and above.
ZALESAK_NEIGHBOURS = ((0, 0, 0), (0, 1, 0), (0, -1, 0), (1, 0, 0),
                      (-1, 0, 0), (0, 0, 1), (0, 0, -1))


def _east_volumes(
    u: np.ndarray, dom: LocalDomain, sj: slice, sie: slice,
) -> np.ndarray:
    """Volume transports through the east faces of cells ``(sj, sie)``.

    The result lives in the arena's shared transport buffer.  Geometry
    comes from the domain the model bound, which the precision policy
    has already cast to the tracer family's dtype
    (``LocalDomain.at_dtype``) — so for an fp32 tracer family
    ``result_type(field, dz)`` collapses to fp32 and the sweep never
    silently computes in fp64.
    """
    nz = dom.nz
    ws = dom.workspace
    dz = dom.dz.reshape(-1, 1, 1)
    shape = (nz, sj.stop - sj.start, sie.stop - sie.start)
    sk = slice(0, nz)
    face = ws.take("adv_face_e", shape, u.dtype)
    np.add(u[sk, sj, sie], u[sk, sh(sj, -1), sie], out=face)
    np.multiply(face, 0.5, out=face)
    np.multiply(face, dom.dy, out=face)
    ue = ws.take("adv_ue", shape, np.result_type(u.dtype, dz.dtype))
    np.multiply(face, dz, out=ue)
    return ue


def _north_volumes(
    v: np.ndarray, dom: LocalDomain, sjn: slice, si: slice,
) -> np.ndarray:
    """Volume transports through the north faces of cells ``(sjn, si)``."""
    nz = dom.nz
    ws = dom.workspace
    dz = dom.dz.reshape(-1, 1, 1)
    shape = (nz, sjn.stop - sjn.start, si.stop - si.start)
    sk = slice(0, nz)
    face = ws.take("adv_face_n", shape, v.dtype)
    np.add(v[sk, sjn, si], v[sk, sjn, sh(si, -1)], out=face)
    np.multiply(face, 0.5, out=face)
    vn = ws.take("adv_vn", shape, np.result_type(v.dtype, dz.dtype))
    np.multiply(face, dom.dx_u[sjn].reshape(1, -1, 1), out=vn)
    np.multiply(vn, dz, out=vn)
    return vn


def _top_volumes(
    w: np.ndarray, dom: LocalDomain, sj: slice, si: slice,
) -> np.ndarray:
    """Volume transports through the top faces of the tile's columns."""
    ws = dom.workspace
    wt = ws.take("adv_wt", (dom.nz + 1, sj.stop - sj.start, si.stop - si.start),
                 np.result_type(w.dtype, dom.dz.dtype))
    np.multiply(w[:, sj, si], (dom.dx_t[sj] * dom.dy).reshape(1, -1, 1),
                out=wt)
    return wt


def _vertical_donors(
    t: np.ndarray, dom: LocalDomain, sj: slice, si: slice,
):
    """(T_below, T_above) interface donor columns in arena buffers:
    ``T_below[k] = T[min(k, nz-1)]`` and ``T_above[k] = T[max(k-1, 0)]``.
    """
    nz = dom.nz
    ws = dom.workspace
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


def _donor(vol: np.ndarray, t_lo: np.ndarray, t_hi: np.ndarray,
           ws, key: str) -> np.ndarray:
    """Donor-cell flux ``max(vol, 0) * t_lo + min(vol, 0) * t_hi`` through
    one face set (``t_lo`` / ``t_hi`` on the faces' low / high side)."""
    pos = ws.take("adv_pos", vol.shape, vol.dtype)
    np.maximum(vol, 0.0, out=pos)
    np.multiply(pos, t_lo, out=pos)
    neg = ws.take("adv_neg", vol.shape, vol.dtype)
    np.minimum(vol, 0.0, out=neg)
    np.multiply(neg, t_hi, out=neg)
    f = ws.take(key, vol.shape, vol.dtype)
    np.add(pos, neg, out=f)
    return f


def _antidiffusive_faces(vol: np.ndarray, t_lo: np.ndarray, t_hi: np.ndarray,
                         ws, key: str) -> np.ndarray:
    """Centred minus donor-cell flux through one face set: ``(0.5 vol)
    (t_lo + t_hi) - donor``, both read from the one ``vol``."""
    tsum = ws.take("adv_tsum", vol.shape, t_lo.dtype)
    np.add(t_lo, t_hi, out=tsum)
    a = ws.take(key, vol.shape, vol.dtype)
    np.multiply(vol, 0.5, out=a)
    np.multiply(a, tsum, out=a)
    np.subtract(a, _donor(vol, t_lo, t_hi, ws, "adv_donor"), out=a)
    return a


def _upwind_fluxes(
    t: np.ndarray,          # tracer (nz, ly, lx), full array
    u: np.ndarray, v: np.ndarray,
    w: np.ndarray,          # (nz+1, ly, lx) interface velocity, positive up
    dom: LocalDomain,
    sj: slice, si: slice,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Donor-cell fluxes for the faces of the cells in the (sj, si) tile.

    Returns ``(F_e, F_n, F_t)``:
    ``F_e`` (nz, nj, ni+1): east-face fluxes of cells ``si.start-1 .. si.stop-1``
    (so ``F_e[:, :, c]`` / ``F_e[:, :, c+1]`` are cell c's west/east faces);
    ``F_n`` (nz, nj+1, ni) likewise in j; ``F_t`` (nz+1, nj, ni) top-face
    fluxes, positive upward, ``F_t[nz] = 0`` at the sea floor.
    """
    sk = slice(0, dom.nz)
    ws = dom.workspace
    # east faces of cells si.start-1 .. si.stop-1  <=> west+east of the tile
    sie = slice(si.start - 1, si.stop)
    f_e = _donor(_east_volumes(u, dom, sj, sie),
                 t[sk, sj, sie], t[sk, sj, sh(sie, 1)], ws, "up_fe")
    sjn = slice(sj.start - 1, sj.stop)
    f_n = _donor(_north_volumes(v, dom, sjn, si),
                 t[sk, sjn, si], t[sk, sh(sjn, 1), si], ws, "up_fn")
    t_below, t_above = _vertical_donors(t, dom, sj, si)   # donors by w sign
    f_t = _donor(_top_volumes(w, dom, sj, si), t_below, t_above, ws, "up_ft")
    f_t[-1] = 0.0                                          # sea floor
    return f_e, f_n, f_t


def _antidiffusive_east(t: np.ndarray, u: np.ndarray, dom: LocalDomain,
                        sj: slice, sie: slice) -> np.ndarray:
    """A through the east faces of cells ``(sj, sie)``."""
    sk = slice(0, dom.nz)
    return _antidiffusive_faces(_east_volumes(u, dom, sj, sie),
                                t[sk, sj, sie], t[sk, sj, sh(sie, 1)],
                                dom.workspace, "fct_ae")


def _antidiffusive_north(t: np.ndarray, v: np.ndarray, dom: LocalDomain,
                         sjn: slice, si: slice) -> np.ndarray:
    """A through the north faces of cells ``(sjn, si)``."""
    sk = slice(0, dom.nz)
    return _antidiffusive_faces(_north_volumes(v, dom, sjn, si),
                                t[sk, sjn, si], t[sk, sh(sjn, 1), si],
                                dom.workspace, "fct_an")


def _tile_volume(dom: LocalDomain, sj: slice, si: slice) -> np.ndarray:
    """(nz, nj, 1) cell volumes in the shared arena buffer."""
    dz = dom.dz.reshape(-1, 1, 1)
    area = (dom.dx_t[sj] * dom.dy).reshape(1, -1, 1)
    ws = dom.workspace
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
    ws = dom.workspace
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

    def apply(self, slices) -> None:
        sj, si = slices
        d = self.dom
        t = self.t_in.data
        f_e, f_n, f_t = _upwind_fluxes(
            t, self.u.data, self.v.data, self.w.data, d, sj, si
        )
        m = d.mask_t[:, sj, si]
        delta = _apply_divergence(f_e, f_n, f_t, d, sj, si, self.dt)
        out = d.workspace.take(
            "adv_out", delta.shape, np.result_type(t.dtype, delta.dtype))
        np.add(t[:, sj, si], delta, out=out)
        np.multiply(out, m, out=out)
        self.t_star.data[:, sj, si] = out


def _antidiffusive(
    t_star: np.ndarray, u: np.ndarray, v: np.ndarray, w: np.ndarray,
    dom: LocalDomain, sj: slice, si: slice,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A = F_central(T*) - F_upwind(T*) on the tile's face sets.

    Each face set's volume transports and donors are built once and
    feed both fluxes.  The surface antidiffusive flux is zeroed: the
    limiter has no cell above the surface to police, and a zero flux
    keeps conservation.
    """
    a_e = _antidiffusive_east(t_star, u, dom, sj, slice(si.start - 1, si.stop))
    a_n = _antidiffusive_north(t_star, v, dom, slice(sj.start - 1, sj.stop), si)
    t_below, t_above = _vertical_donors(t_star, dom, sj, si)
    a_t = _antidiffusive_faces(_top_volumes(w, dom, sj, si), t_below, t_above,
                               dom.workspace, "fct_at")
    a_t[-1] = 0.0                                          # sea floor
    a_t[0] = 0.0
    return a_e, a_n, a_t


def _local_bounds(
    t_old: np.ndarray, t_star: np.ndarray,
    dom: LocalDomain, sj: slice, si: slice,
) -> Tuple[np.ndarray, np.ndarray]:
    """Zalesak envelope: extrema of {T, T*} over self + 6 neighbours.

    Land neighbours are replaced by the cell's own T* so they cannot
    corrupt the envelope; which neighbours are wet is static geometry
    (``LocalDomain.wet_t`` at the neighbour).  Every candidate is folded into a
    running max/min in :data:`ZALESAK_NEIGHBOURS` order, T before T*
    (max/min are selections, so the fold order only matters for the
    sign of zero, and it is fixed).
    """
    ws = dom.workspace
    own_star = t_star[:, sj, si]
    shape = own_star.shape
    dt = own_star.dtype
    buf = ws.take("fct_cand", shape, dt)
    tmax = ws.take("fct_tmax", shape, dt)
    tmin = ws.take("fct_tmin", shape, dt)
    first = True
    wet = dom.wet_t
    wcol = wet[:, sj, si]
    for star, arr in ((False, t_old), (True, t_star)):
        col = arr[:, sj, si]
        for n, (dj, di, dk) in enumerate(ZALESAK_NEIGHBOURS):
            if star and n == 0:         # T* of the cell itself, wet or not
                cand = own_star
            else:
                cand = buf
                np.copyto(cand, own_star)
                if dk > 0:              # the cell below, clamped at the floor
                    np.copyto(cand[:-1], col[1:], where=wcol[1:])
                    np.copyto(cand[-1], col[-1], where=wcol[-1])
                elif dk < 0:            # the cell above, clamped at the top
                    np.copyto(cand[0], col[0], where=wcol[0])
                    np.copyto(cand[1:], col[:-1], where=wcol[:-1])
                else:
                    nb = (slice(None), sh(sj, dj), sh(si, di))
                    np.copyto(cand, arr[nb], where=wet[nb])
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
    """Step 2a: Zalesak limiting factors R+ (inflow) and R- (outflow).

    Also stores the antidiffusive flux through each cell's own east,
    north and top faces into ``a_e`` / ``a_n`` (``(nz, ly, lx)``) and
    ``a_t`` (``(nz+1, ly, lx)``), so the apply step reads it instead of
    building it again.
    """

    flops_per_point = 70.0
    bytes_per_point = 14 * 8.0
    stencil_halo = 1        # local min/max bounds over the 3x3 ring

    def __init__(
        self,
        t_old: View, t_star: View,
        u: View, v: View, w: View,
        r_plus: View, r_minus: View,
        a_e: View, a_n: View, a_t: View,
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
        self.a_e = a_e
        self.a_n = a_n
        self.a_t = a_t
        self.dom = domain
        self.dt = dt

    def apply(self, slices) -> None:
        sj, si = slices
        d = self.dom
        ws = d.workspace
        ts = self.t_star.data
        a_e, a_n, a_t = _antidiffusive(
            ts, self.u.data, self.v.data, self.w.data, d, sj, si
        )
        self.a_e.data[:, sj, si] = a_e[:, :, 1:]
        self.a_n.data[:, sj, si] = a_n[:, 1:, :]
        self.a_t.data[:, sj, si] = a_t
        tmax, tmin = _local_bounds(self.t_old.data, ts, d, sj, si)
        vol = _tile_volume(d, sj, si)
        own = ts[:, sj, si]
        shape = own.shape
        # inflow P+ = sum of (positive part of each face flux into the
        # cell - negative part out of it), P- the reverse; each face
        # set's parts are built once (the arena copy a_e / a_n / a_t
        # takes the positive part in place; the signed flux was stored
        # into self.a_* above and must stay signed, the apply reads it)
        # and the sums fold face set by face set, in the historical
        # left-associated order
        p_plus = ws.take("fct_pplus", shape, a_e.dtype)
        p_minus = ws.take("fct_pminus", shape, a_e.dtype)
        for k, (a, into, out_of) in enumerate((
                (a_e, np.s_[:, :, :-1], np.s_[:, :, 1:]),
                (a_n, np.s_[:, :-1], np.s_[:, 1:]),
                (a_t, np.s_[1:], np.s_[:-1]))):
            neg = ws.take("adv_neg", a.shape, a.dtype)
            np.minimum(a, 0.0, out=neg)
            np.maximum(a, 0.0, out=a)
            if k == 0:
                np.subtract(a[into], neg[out_of], out=p_plus)
                np.subtract(a[out_of], neg[into], out=p_minus)
            else:
                np.add(p_plus, a[into], out=p_plus)
                np.subtract(p_plus, neg[out_of], out=p_plus)
                np.add(p_minus, a[out_of], out=p_minus)
                np.subtract(p_minus, neg[into], out=p_minus)

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

    Reads the antidiffusive flux the limiter stored for each cell's own
    faces; the tile's west column and south row of faces belong to the
    cells just outside it, so it builds those itself with the limiter's
    own helpers.  Requires valid halos on T*, R+ and R-, and the stored
    flux over the launch range.
    """

    flops_per_point = 80.0
    bytes_per_point = 16 * 8.0
    stencil_halo = 1        # antidiffusive face fluxes read ±1

    def __init__(
        self,
        t_star: View,
        u: View, v: View, w: View,
        r_plus: View, r_minus: View,
        a_e: View, a_n: View, a_t: View,
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
        self.a_e = a_e
        self.a_n = a_n
        self.a_t = a_t
        self.t_new = t_new
        self.dom = domain
        self.dt = dt

    def apply(self, slices) -> None:
        sj, si = slices
        d = self.dom
        ws = d.workspace
        ts = self.t_star.data
        rp = self.r_plus.data
        rm = self.r_minus.data
        nz = d.nz
        nj = sj.stop - sj.start
        ni = si.stop - si.start
        west = _antidiffusive_east(ts, self.u.data, d, sj,
                                   slice(si.start - 1, si.start))
        # the tile's face sets, in the buffers the limiter built them in
        a_e = ws.take("fct_ae", (nz, nj, ni + 1), west.dtype)
        a_e[:, :, :1] = west
        a_e[:, :, 1:] = self.a_e.data[:, sj, si]
        south = _antidiffusive_north(ts, self.v.data, d,
                                     slice(sj.start - 1, sj.start), si)
        a_n = ws.take("fct_an", (nz, nj + 1, ni), south.dtype)
        a_n[:, :1] = south
        a_n[:, 1:] = self.a_n.data[:, sj, si]
        a_t = self.a_t.data[:, sj, si]
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

        # a_t[k] is the top face of cell k: positive-up flux leaves cell k
        # and enters cell k-1 (above); the surface and floor faces carry
        # no limited flux
        rp_col = rp[:, sj, si]
        rm_col = rm[:, sj, si]
        c_t = ws.take("fct_ct", a_t.shape, rp.dtype)
        ctmp_t = ws.take("fct_cttmp", a_t.shape, rp.dtype)
        up_t = ws.take("fct_upt", a_t.shape, np.bool_)
        inner = slice(1, nz)
        np.minimum(rp_col[1:], rm_col[:-1], out=c_t[inner])
        np.minimum(rp_col[:-1], rm_col[1:], out=ctmp_t[inner])
        np.greater(a_t[inner], 0.0, out=up_t[inner])
        np.copyto(c_t[inner], ctmp_t[inner], where=up_t[inner])
        c_t[0] = 0.0
        c_t[-1] = 0.0

        np.multiply(a_e, c_e, out=a_e)
        np.multiply(a_n, c_n, out=a_n)
        np.multiply(a_t, c_t, out=c_t)
        delta = _apply_divergence(a_e, a_n, c_t, d, sj, si, self.dt)
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

    def apply(self, slices) -> None:
        sj, si = slices
        d = self.dom
        ws = d.workspace
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
        open_e = d.open_e[:, sj, sie]
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
        open_n = d.open_n[:, sjn, si]
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
