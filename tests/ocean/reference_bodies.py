"""Reference kernel bodies: the allocating expressions the arena-backed
bodies in ``repro.ocean`` replaced, kept verbatim as their oracle.

Each ``Ref*`` class subclasses a production functor and overrides only
``apply`` with the historical body, so a shallow copy of a live functor
re-classed to its reference runs the old expressions on the same views
and the same domain.  ``tests/ocean/test_body_identity.py`` demands the
two agree byte for byte.  The module-level helpers are the historical
ones, including the allocating ``ws is None`` paths of ``thomas_solve``
and ``_diffusion_matrix``.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.ocean.eos import ALPHA_T, BETA_S, RHO0, S0, T0
from repro.ocean.grid import GRAVITY
from repro.ocean.kernel_utils import sh
from repro.ocean.kernels_barotropic import (
    AsselinFilter2DFunctor,
    AsselinFilterFunctor,
    BarotropicContinuityFunctor,
    BarotropicMomentumFunctor,
)
from repro.ocean.kernels_momentum import (
    AddBarotropicFunctor,
    CoriolisRotationFunctor,
    DepthMeanFunctor,
)
from repro.ocean.kernels_scalar import EOSFunctor, PressureFunctor, WFunctor
from repro.ocean.kernels_tracer import (
    AdvectPredictorFunctor,
    FCTApplyFunctor,
    FCTLimitFunctor,
    TracerHDiffusionFunctor,
)
from repro.ocean.kernels_vdiff import (
    VerticalFrictionFunctor,
    VerticalTracerDiffusionFunctor,
)
from repro.ocean.localdomain import LocalDomain
from repro.ocean.vmix_canuto import (
    _B1,
    _B2,
    KAPPA_CONVECTIVE,
    KAPPA_H_BACKGROUND,
    KAPPA_M_BACKGROUND,
    MIN_CANUTO_LEVELS,
    MIXING_DEPTH,
    NU0_H,
    NU0_M,
    CanutoMixFunctor,
)


# --------------------------------------------------------------------------
# historical helpers
# --------------------------------------------------------------------------

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


def _diffusion_matrix(
    kappa: np.ndarray,   # (nz, nj, ni) interface coefficients (k = below level k)
    mask: np.ndarray,    # (nz, nj, ni)
    dz: np.ndarray,      # (nz,)
    z_t: np.ndarray,     # (nz,)
    dt: float,
    ws=None,
):
    """Build (lower, diag, upper) of (I - dt * d/dz(kappa d/dz)).

    The bands come from the workspace arena when one is passed; either
    path performs the identical operation sequence.
    """
    nz = dz.size
    dzc = dz.reshape(-1, 1, 1)
    dzw = np.diff(z_t).reshape(-1, 1, 1)  # (nz-1, 1, 1) center-to-center
    shape = kappa.shape
    # bands live at the family dtype (kappa and the domain's mask are
    # both policy-cast), so fp32 columns solve in fp32 end to end
    bdt = np.result_type(kappa.dtype, mask.dtype)
    if ws is None:
        lower = np.zeros(shape, dtype=bdt)
        upper = np.zeros(shape, dtype=bdt)
        # interface k sits between level k and k+1; open only if both ocean
        if nz > 1:
            open_iface = mask[:-1] * mask[1:]
            kap = kappa[:-1] * open_iface
            upper[:-1] = -dt * kap / (dzc[:-1] * dzw)  # couples level k to k+1
            lower[1:] = -dt * kap / (dzc[1:] * dzw)    # couples level k+1 to k
        diag = 1.0 - lower - upper
    else:
        lower = ws.take("vd_lower", shape, bdt, fill=0.0)
        upper = ws.take("vd_upper", shape, bdt, fill=0.0)
        if nz > 1:
            fshape = (nz - 1,) + shape[1:]
            open_iface = ws.take("vd_open", fshape, mask.dtype)
            np.multiply(mask[:-1], mask[1:], out=open_iface)
            kap = ws.take("vd_kap", fshape, bdt)
            np.multiply(kappa[:-1], open_iface, out=kap)
            np.multiply(kap, -dt, out=kap)
            dzp = ws.take("vd_dzp", dzw.shape, dzw.dtype)
            np.multiply(dzc[:-1], dzw, out=dzp)
            np.divide(kap, dzp, out=upper[:-1])
            np.multiply(dzc[1:], dzw, out=dzp)
            np.divide(kap, dzp, out=lower[1:])
        diag = ws.take("vd_diag", shape, bdt)
        np.subtract(1.0, lower, out=diag)
        np.subtract(diag, upper, out=diag)
    # land levels: identity rows
    land = mask == 0.0
    lower[land] = 0.0
    upper[land] = 0.0
    diag[land] = 1.0
    return lower, diag, upper


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
    ws = dom.workspace
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
    ws = dom.workspace
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
    ws = dom.workspace
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
    ws = dom.workspace
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


def stability_functions(ri: np.ndarray):
    """(S_m, S_h) rational stability functions of the Richardson number.

    ``S_m = 1 / (1 + B1 Ri)`` and ``S_h = 1 / (1 + B1 Ri + B2 Ri^2)``
    for ``Ri >= 0``; both saturate at 1 for unstable ``Ri < 0`` (the
    convective branch is handled separately).  The quadratic term gives
    heat the sharper cutoff the Canuto closure predicts.
    """
    rip = np.maximum(ri, 0.0)
    s_m = 1.0 / (1.0 + _B1 * rip)
    s_h = 1.0 / (1.0 + _B1 * rip + _B2 * rip * rip)
    return s_m, s_h


def sh_back(s: slice) -> slice:
    """Shift a tile slice one point back (for corner->center averages).

    ``t_at_u`` averages corners (j, i), (j, i+1), (j+1, i), (j+1, i+1);
    the T cell (j, i) is surrounded by corners (j-1..j, i-1..i), so the
    average must start one point back in each direction.
    """
    return slice(s.start - 1, s.stop - 1)


# --------------------------------------------------------------------------
# historical bodies
# --------------------------------------------------------------------------

class RefEOS(EOSFunctor):
    # the historical functor held the domain's arrays directly
    mask_t = property(lambda self: self.dom.mask_t)
    dz = property(lambda self: self.dom.dz)

    def apply(self, slices) -> None:
        sk, sj, si = slices
        t = self.t.data[sk, sj, si]
        s = self.s.data[sk, sj, si]
        m = self.mask_t[sk, sj, si]
        self.rho.data[sk, sj, si] = m * RHO0 * (
            1.0 - ALPHA_T * (t - T0) + BETA_S * (s - S0)
        )


class RefPressure(PressureFunctor):
    # the historical functor held the domain's arrays directly
    mask_t = property(lambda self: self.dom.mask_t)
    dz = property(lambda self: self.dom.dz)

    def apply(self, slices) -> None:
        sj, si = slices
        rho = self.rho.data[:, sj, si]
        m = self.mask_t[:, sj, si]
        dzc = self.dz.reshape(-1, 1, 1)
        rho_a = (rho - RHO0) * m
        below = np.cumsum(rho_a * dzc, axis=0) - rho_a * dzc
        self.p.data[:, sj, si] = (GRAVITY / RHO0) * (below + 0.5 * rho_a * dzc) * m


class RefW(WFunctor):
    def apply(self, slices) -> None:
        sj, si = slices
        d = self.dom
        u = self.u.data
        v = self.v.data
        sk = slice(0, d.nz)
        dy = d.dy
        dxu_n = d.dx_u[sj].reshape(1, -1, 1)
        dxu_s = d.dx_u[sh(sj, -1)].reshape(1, -1, 1)
        area = (d.dx_t[sj] * dy).reshape(1, -1, 1)
        dzc = d.dz.reshape(-1, 1, 1)
        fe = face_u_east(u, sk, sj, si) * dy
        fw = face_u_west(u, sk, sj, si) * dy
        fn = face_v_north(v, sk, sj, si) * dxu_n
        fs = face_v_south(v, sk, sj, si) * dxu_s
        divh = (fe - fw + fn - fs) / area * self.dom.mask_t[:, sj, si]
        # integrate upward from the floor: w[k] = w[k+1] - dz_k * divh[k];
        # the running sum stays fp64 regardless of the field dtype
        # (wide_accumulate) and narrows only at the store
        colsum = np.cumsum((divh * dzc)[::-1], axis=0,
                           dtype=np.float64)[::-1]
        self.w.data[: d.nz, sj, si] = -colsum
        self.w.data[d.nz, sj, si] = 0.0


class RefCoriolis(CoriolisRotationFunctor):
    def apply(self, slices) -> None:
        sk, sj, si = slices
        a = (0.5 * self.dom.f_u[sj] * self.dt2).reshape(1, -1, 1)
        m = self.dom.mask_u[sk, sj, si]
        us = self.u.data[sk, sj, si]
        vs = self.v.data[sk, sj, si]
        uo = self.u_old.data[sk, sj, si]
        vo = self.v_old.data[sk, sj, si]
        rhs_u = us + a * vo
        rhs_v = vs - a * uo
        denom = 1.0 + a * a
        self.u.data[sk, sj, si] = m * (rhs_u + a * rhs_v) / denom
        self.v.data[sk, sj, si] = m * (rhs_v - a * rhs_u) / denom


class RefDepthMean(DepthMeanFunctor):
    def apply(self, slices) -> None:
        sj, si = slices
        d = self.dom
        ws = d.workspace
        mu = d.mask_u[:, sj, si]
        dzc = d.dz.reshape(-1, 1, 1)
        # arena-backed (fld * mu) * dzc, same promotion and op order as
        # the historical eager expressions -> bitwise identical means
        wdt = np.result_type(mu.dtype, dzc.dtype)
        w = ws.take("dm_w", mu.shape, wdt)
        np.multiply(mu, dzc, out=w)
        shp2 = w.shape[1:]
        thick = ws.take("dm_thick", shp2, wdt)
        np.sum(w, axis=0, out=thick)
        fdt = np.result_type(self.fld.data.dtype, mu.dtype)
        ftdt = np.result_type(fdt, dzc.dtype)
        ft = ws.take("dm_ft", mu.shape, ftdt)
        np.multiply(self.fld.data[:, sj, si], mu, out=ft)
        np.multiply(ft, dzc, out=ft)
        total = ws.take("dm_total", shp2, ftdt)
        np.sum(ft, axis=0, out=total)
        # guarded division replaces the historical
        # ``where(thick > 0, total / maximum(thick, 1e-30), 0)`` — on wet
        # columns the quotient is the same expression, dry columns never
        # see a divide, and the result is bitwise identical
        wet = ws.take("dm_wet", shp2, np.bool_)
        np.greater(thick, 0.0, out=wet)
        np.maximum(thick, 1e-30, out=thick)
        q = ws.take("dm_q", shp2, np.result_type(ftdt, wdt))
        np.divide(total, thick, out=q, where=wet)
        mean = ws.take("dm_mean", shp2, q.dtype)
        mean[...] = 0.0
        np.copyto(mean, q, where=wet)
        self.out.data[sj, si] = mean


class RefAddBarotropic(AddBarotropicFunctor):
    def apply(self, slices) -> None:
        sk, sj, si = slices
        m = self.dom.mask_u[sk, sj, si]
        f = self.fld.data[sk, sj, si]
        d = self.delta2d.data[sj, si][None, :, :]
        self.fld.data[sk, sj, si] = m * (f - d if self.sign < 0 else f + d)


class RefContinuity(BarotropicContinuityFunctor):
    def apply(self, slices) -> None:
        sj, si = slices
        d = self.dom
        ub = self.ub.data
        vb = self.vb.data
        hu = self.hu
        dy = d.dy
        # volume transports at corners, on the tile plus its south/west
        # ring only (the four face averages below read offsets 0 and -1)
        ws = d.workspace
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


class RefMomentum(BarotropicMomentumFunctor):
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
        th = d.f_u * np.asarray(self.dtb, dtype=d.f_u.dtype)
        c = np.cos(th)[sj].reshape(-1, 1)
        s = np.sin(th)[sj].reshape(-1, 1)
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


class RefAsselin(AsselinFilterFunctor):
    def apply(self, slices) -> None:
        idx = tuple(slices)
        o = self.old.data[idx]
        c = self.cur.data[idx]
        n = self.new.data[idx]
        self.cur.data[idx] = c + self.alpha * (n - 2.0 * c + o)


class RefAsselin2D(AsselinFilter2DFunctor):
    apply = RefAsselin.apply


class RefCanuto(CanutoMixFunctor):
    def apply(self, slices) -> None:
        sj, si = slices
        d = self.dom
        nz = d.nz
        if nz < 2:
            self.kappa_m.data[:, sj, si] = KAPPA_M_BACKGROUND
            self.kappa_h.data[:, sj, si] = KAPPA_H_BACKGROUND
            return
        sk = slice(0, nz)
        # velocities averaged to T columns (B-grid corner -> center)
        ut = t_at_u(self.u.data, sk, sh_back(sj), sh_back(si))
        vt = t_at_u(self.v.data, sk, sh_back(sj), sh_back(si))
        rho = self.rho.data[:, sj, si]
        m = d.mask_t[:, sj, si]
        dzw = np.diff(d.z_t).reshape(-1, 1, 1)

        n2 = (GRAVITY / RHO0) * (rho[1:] - rho[:-1]) / dzw
        du = (ut[:-1] - ut[1:]) / dzw
        dv = (vt[:-1] - vt[1:]) / dzw
        s2 = du * du + dv * dv + 1.0e-12
        ri = n2 / s2
        s_m, s_h = stability_functions(ri)
        depth_factor = np.exp(-d.z_w[1:nz] / MIXING_DEPTH).reshape(-1, 1, 1)

        kap_m = KAPPA_M_BACKGROUND + NU0_M * s_m * depth_factor
        kap_h = KAPPA_H_BACKGROUND + NU0_H * s_h * depth_factor
        convective = n2 < 0.0
        kap_m = np.where(convective, KAPPA_CONVECTIVE, kap_m)
        kap_h = np.where(convective, KAPPA_CONVECTIVE, kap_h)

        # exclusions: land interfaces and too-shallow columns
        open_iface = m[:-1] * m[1:]
        shallow = (d.kmt[sj, si] < MIN_CANUTO_LEVELS)[None, :, :]
        kap_m = np.where(shallow, KAPPA_M_BACKGROUND, kap_m) * open_iface
        kap_h = np.where(shallow, KAPPA_H_BACKGROUND, kap_h) * open_iface

        self.kappa_m.data[:nz - 1, sj, si] = kap_m
        self.kappa_h.data[:nz - 1, sj, si] = kap_h
        self.kappa_m.data[nz - 1, sj, si] = 0.0
        self.kappa_h.data[nz - 1, sj, si] = 0.0


class RefHDiff(TracerHDiffusionFunctor):
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


class RefPredictor(AdvectPredictorFunctor):
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


class RefLimit(FCTLimitFunctor):
    def apply(self, slices) -> None:
        sj, si = slices
        d = self.dom
        ws = d.workspace
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


class RefApply(FCTApplyFunctor):
    def apply(self, slices) -> None:
        sj, si = slices
        d = self.dom
        ws = d.workspace
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


class RefFriction(VerticalFrictionFunctor):
    def apply(self, slices) -> None:
        sj, si = slices
        d = self.dom
        ws = d.workspace
        mu = d.mask_u[:, sj, si]
        kap = self.kappa_m.data[:, sj, si]
        lower, diag, upper = _diffusion_matrix(kap, mu, d.dz, d.z_t, self.dt,
                                               ws=ws)
        # linear bottom drag, implicit: add r*dt to the bottom-level diagonal
        kmt_u = np.sum(mu > 0.0, axis=0).astype(int)   # active levels per column
        nz = d.nz
        kb = np.clip(kmt_u - 1, 0, nz - 1)
        jj, ii = np.meshgrid(
            np.arange(diag.shape[1]), np.arange(diag.shape[2]), indexing="ij"
        )
        has_ocean = kmt_u > 0
        diag[kb[jj, ii], jj, ii] += np.where(has_ocean, self.bottom_drag * self.dt, 0.0)

        srow = ws.take("vf_srow", mu.shape[1:],
                       np.result_type(self.taux.dtype, mu.dtype))
        for fld, tau in ((self.u, self.taux), (self.v, self.tauy)):
            rhs = ws.take("vf_rhs", mu.shape,
                          np.result_type(fld.data.dtype, mu.dtype))
            np.multiply(fld.data[:, sj, si], mu, out=rhs)
            # surface momentum flux enters the top level
            np.multiply(tau[sj, si], self.dt, out=srow)
            np.divide(srow, RHO0 * d.dz[0], out=srow)
            np.multiply(srow, mu[0], out=srow)
            rhs[0] += srow
            sol = thomas_solve(lower, diag, upper, rhs, ws=ws, key="vf")
            np.multiply(sol, mu, out=sol)
            fld.data[:, sj, si] = sol


class RefVerticalDiffusion(VerticalTracerDiffusionFunctor):
    def apply(self, slices) -> None:
        sj, si = slices
        d = self.dom
        ws = d.workspace
        m = d.mask_t[:, sj, si]
        kap = self.kappa_h.data[:, sj, si]
        lower, diag, upper = _diffusion_matrix(kap, m, d.dz, d.z_t, self.dt,
                                               ws=ws)
        rhs = ws.take("vt_rhs", m.shape,
                      np.result_type(self.tr.data.dtype, m.dtype))
        np.multiply(self.tr.data[:, sj, si], m, out=rhs)
        g = self.gamma * self.dt
        srow = ws.take("vt_srow", m.shape[1:], m.dtype)
        np.multiply(m[0], g, out=srow)
        diag[0] += srow
        np.multiply(self.star[sj, si], g, out=srow)
        np.multiply(srow, m[0], out=srow)
        rhs[0] += srow
        sol = thomas_solve(lower, diag, upper, rhs, ws=ws, key="vt")
        np.multiply(sol, m, out=sol)
        self.tr.data[:, sj, si] = sol


#: production functor type -> its reference
REFERENCES = {cls.__mro__[1]: cls for cls in (
    RefEOS,
    RefPressure,
    RefW,
    RefCoriolis,
    RefDepthMean,
    RefAddBarotropic,
    RefContinuity,
    RefMomentum,
    RefAsselin,
    RefAsselin2D,
    RefCanuto,
    RefHDiff,
    RefPredictor,
    RefLimit,
    RefApply,
    RefFriction,
    RefVerticalDiffusion,
)}
