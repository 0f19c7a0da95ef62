"""Baroclinic momentum kernels (B-grid).

The momentum step is split into three kernels plus an implicit column
solve (see :mod:`repro.ocean.kernels_vdiff`):

1. :class:`BaroclinicTendencyFunctor` — leapfrog update with the
   baroclinic pressure gradient, centered momentum advection and
   horizontal Laplacian viscosity (no Coriolis, no surface pressure —
   the barotropic solver owns the latter).
2. :class:`CoriolisRotationFunctor` — semi-implicit (exact-rotation)
   Coriolis, unconditionally stable for any ``f dt``.
3. :class:`DepthMeanFunctor` — depth average over active levels, used
   to strip the barotropic mode off the 3-D velocity before the
   split-explicit subcycle and to re-add the subcycled mode after.
"""

from __future__ import annotations

import numpy as np

from ..kokkos import View, kokkos_register_for
from .kernel_utils import FIELD_TMP, TileFunctor, sh
from .localdomain import LocalDomain


@kokkos_register_for("baroclinic_tendency", ndim=3)
class BaroclinicTendencyFunctor(TileFunctor):
    """u_new = mask_u * (u_old + dt2 * (-adv + visc - dp/dx)) (and v).

    Stencil width 1 on (u, v, p); requires valid halos on all three.
    """

    flops_per_point = 60.0
    bytes_per_point = 12 * 8.0
    stencil_halo = 2        # biharmonic needs the Laplacian on a ±1
                            # ring, itself a ±1 stencil → ±2 total

    def __init__(
        self,
        u_old: View, v_old: View,
        u_cur: View, v_cur: View,
        w: View,
        p: View,
        u_new: View, v_new: View,
        domain: LocalDomain,
        dt2: float,
        visc: float,
        advect: bool = True,
        biharmonic: float = 0.0,
    ) -> None:
        self.u_old, self.v_old = u_old, v_old
        self.u_cur, self.v_cur = u_cur, v_cur
        self.w = w
        self.p = p
        self.u_new, self.v_new = u_new, v_new
        self.dom = domain
        self.dt2 = dt2
        self.visc = visc
        self.advect = advect
        self.biharmonic = biharmonic

    def apply(self, slices) -> None:
        sk, sj, si = slices
        d = self.dom
        ws = d.workspace
        uo = self.u_old.data
        vo = self.v_old.data
        u = self.u_cur.data
        v = self.v_cur.data
        p = self.p.data
        mu = d.mask_u[sk, sj, si]
        dxu = d.dx_u[sj].reshape(1, -1, 1)
        dy = d.dy
        shape = mu.shape
        fdt = u.dtype                              # prognostic-field dtype
        gdt = np.result_type(fdt, dxu.dtype)       # after geometry promotion
        # every chain below mirrors the historical left-associated
        # expression op by op (scalar factors commute bitwise)
        t1 = ws.take("bt_t1", shape, fdt)
        t2 = ws.take("bt_t2", shape, fdt)

        # -- baroclinic pressure gradient at U corners ----------------------
        np.subtract(p[sk, sj, sh(si, 1)], p[sk, sj, si], out=t1)
        np.subtract(p[sk, sh(sj, 1), sh(si, 1)], p[sk, sh(sj, 1), si], out=t2)
        np.add(t1, t2, out=t1)
        np.multiply(t1, 0.5, out=t1)
        dpdx = ws.take("bt_dpdx", shape, gdt)
        np.divide(t1, dxu, out=dpdx)
        np.subtract(p[sk, sh(sj, 1), si], p[sk, sj, si], out=t1)
        np.subtract(p[sk, sh(sj, 1), sh(si, 1)], p[sk, sj, sh(si, 1)], out=t2)
        np.add(t1, t2, out=t1)
        np.multiply(t1, 0.5, out=t1)
        dpdy = ws.take("bt_dpdy", shape, fdt)
        np.divide(t1, dy, out=dpdy)

        # -- horizontal viscosity ---------------------------------------------
        # evaluated on the LAGGED field: explicit diffusion under leapfrog
        # is unconditionally unstable when centered in time
        def lap_into(f, s0, s1, d0, out, a, b):
            """out = lap(f) over (s0, s1); a/b are field-dtype scratch."""
            np.multiply(f[sk, s0, s1], 2.0, out=a)
            np.subtract(f[sk, s0, sh(s1, 1)], a, out=b)
            np.add(b, f[sk, s0, sh(s1, -1)], out=b)
            np.divide(b, d0 ** 2, out=out)
            np.subtract(f[sk, sh(s0, 1), s1], a, out=b)
            np.add(b, f[sk, sh(s0, -1), s1], out=b)
            np.divide(b, dy ** 2, out=b)
            np.add(out, b, out=out)

        visc_u = ws.take("bt_viscu", shape, gdt)
        visc_v = ws.take("bt_viscv", shape, gdt)
        lap_into(uo, sj, si, dxu, visc_u, t1, t2)
        np.multiply(visc_u, self.visc, out=visc_u)
        lap_into(vo, sj, si, dxu, visc_v, t1, t2)
        np.multiply(visc_v, self.visc, out=visc_v)
        if self.biharmonic:
            # -A4 lap(lap(u)): the eddy-resolving scale-selective form;
            # the inner Laplacian is evaluated on the one-point-grown
            # region, so the width-2 stencil exactly fits the halo
            gj = slice(sj.start - 1, sj.stop + 1)
            gi = slice(si.start - 1, si.stop + 1)
            dxu_g = self.dom.dx_u[gj].reshape(1, -1, 1)
            gshape = (shape[0], shape[1] + 2, shape[2] + 2)
            g1 = ws.take("bt_g1", gshape, fdt)
            g2 = ws.take("bt_g2", gshape, fdt)
            lap_g = ws.take("bt_lapg", gshape, gdt)
            inner = (slice(None), slice(1, -1), slice(1, -1))
            l4 = ws.take("bt_l4", shape, gdt)
            l4b = ws.take("bt_l4b", shape, gdt)

            def lap_of_into(field, out, a, b):
                np.multiply(field[inner], 2.0, out=a)
                np.subtract(field[:, 1:-1, 2:], a, out=b)
                np.add(b, field[:, 1:-1, :-2], out=b)
                np.divide(b, dxu ** 2, out=out)
                np.subtract(field[:, 2:, 1:-1], a, out=b)
                np.add(b, field[:, :-2, 1:-1], out=b)
                np.divide(b, dy ** 2, out=b)
                np.add(out, b, out=out)

            for fld, visc_f in ((uo, visc_u), (vo, visc_v)):
                lap_into(fld, gj, gi, dxu_g, lap_g, g1, g2)
                lap_of_into(lap_g, l4, l4b, ws.take("bt_l4c", shape, gdt))
                np.multiply(l4, self.biharmonic, out=l4)
                np.subtract(visc_f, l4, out=visc_f)

        adv_u = None
        adv_v = None
        if self.advect:
            # centered advective form at U corners
            uc = u[sk, sj, si]
            vc = v[sk, sj, si]
            adt = np.result_type(fdt, gdt)
            np.subtract(u[sk, sj, sh(si, 1)], u[sk, sj, sh(si, -1)], out=t1)
            dudx = ws.take("bt_dudx", shape, gdt)
            np.divide(t1, 2 * dxu, out=dudx)
            dudy = ws.take("bt_dudy", shape, fdt)
            np.subtract(u[sk, sh(sj, 1), si], u[sk, sh(sj, -1), si], out=dudy)
            np.divide(dudy, 2 * dy, out=dudy)
            np.subtract(v[sk, sj, sh(si, 1)], v[sk, sj, sh(si, -1)], out=t1)
            dvdx = ws.take("bt_dvdx", shape, gdt)
            np.divide(t1, 2 * dxu, out=dvdx)
            dvdy = ws.take("bt_dvdy", shape, fdt)
            np.subtract(v[sk, sh(sj, 1), si], v[sk, sh(sj, -1), si], out=dvdy)
            np.divide(dvdy, 2 * dy, out=dvdy)
            adv_u = ws.take("bt_advu", shape, adt)
            adv_v = ws.take("bt_advv", shape, adt)
            np.multiply(dudx, uc, out=adv_u)
            np.multiply(dudy, vc, out=t1)
            np.add(adv_u, t1, out=adv_u)
            np.multiply(dvdx, uc, out=adv_v)
            np.multiply(dvdy, vc, out=t1)
            np.add(adv_v, t1, out=adv_v)
            nz = u.shape[0]
            if nz > 1 and sk.stop - sk.start > 0:
                w = self.w.data
                wq = ws.take("bt_wq", shape, w.dtype)
                np.add(w[sk, sj, si], w[sk, sj, sh(si, 1)], out=wq)
                np.add(wq, w[sk, sh(sj, 1), si], out=wq)
                np.add(wq, w[sk, sh(sj, 1), sh(si, 1)], out=wq)
                np.multiply(wq, 0.25, out=wq)
                dudz = ws.take("bt_dudz", shape, uc.dtype)
                dvdz = ws.take("bt_dvdz", shape, vc.dtype)
                ks = np.arange(sk.start, sk.stop)
                for local_k, k in enumerate(ks):
                    up = max(k - 1, 0)
                    dn = min(k + 1, nz - 1)
                    span = self.dom.z_t[dn] - self.dom.z_t[up]
                    # z positive down: du/dz(upward) = (u_up - u_down)/span
                    dudz[local_k] = (u[up, sj, si] - u[dn, sj, si]) / span
                    dvdz[local_k] = (v[up, sj, si] - v[dn, sj, si]) / span
                np.multiply(wq, dudz, out=t1)
                np.add(adv_u, t1, out=adv_u)
                np.multiply(wq, dvdz, out=t1)
                np.add(adv_v, t1, out=adv_v)

        acc = ws.take("bt_acc", shape, np.result_type(fdt, gdt))
        for adv_f, visc_f, dp_f, old_f, new_f in (
            (adv_u, visc_u, dpdx, uo, self.u_new),
            (adv_v, visc_v, dpdy, vo, self.v_new),
        ):
            if adv_f is None:
                # -0.0 + x is bitwise x, so the eager "-adv + visc" with
                # adv == 0.0 reduces to visc
                np.subtract(visc_f, dp_f, out=acc)
            else:
                np.negative(adv_f, out=acc)
                np.add(acc, visc_f, out=acc)
                np.subtract(acc, dp_f, out=acc)
            np.multiply(acc, self.dt2, out=acc)
            np.add(acc, old_f[sk, sj, si], out=acc)
            np.multiply(acc, mu, out=acc)
            new_f.data[sk, sj, si] = acc


@kokkos_register_for("coriolis_rotation", ndim=3)
class CoriolisRotationFunctor(TileFunctor):
    """Semi-implicit (Crank–Nicolson) Coriolis, unconditionally stable.

    The kernel receives the provisional field ``u* = u_old + dt2 * F``
    (already in ``u``/``v``) and solves

    ``(I - a J) u_new = u* + a J u_old``,  ``a = f dt2 / 2``,

    with ``J (u, v) = (v, -u)``.  This is the Cayley-transform rotation
    used by B-grid models: exactly energy-neutral for inertial motion
    and — unlike rotating the full updated field by ``f dt2`` — stable
    when coupled to leapfrogged pressure terms at high latitude where
    ``f dt2 > 1``.
    """

    flops_per_point = 14.0
    bytes_per_point = 6 * 8.0

    def __init__(
        self, u: View, v: View, u_old: View, v_old: View,
        domain: LocalDomain, dt2: float,
    ) -> None:
        self.u = u
        self.v = v
        self.u_old = u_old
        self.v_old = v_old
        self.dom = domain
        self.dt2 = dt2

    def apply(self, slices) -> None:
        sk, sj, si = slices
        d = self.dom
        ws = d.workspace
        a = (0.5 * d.f_u[sj] * self.dt2).reshape(1, -1, 1)
        denom = 1.0 + a * a
        m = d.mask_u[sk, sj, si]
        us = self.u.data[sk, sj, si]
        vs = self.v.data[sk, sj, si]
        uo = self.u_old.data[sk, sj, si]
        vo = self.v_old.data[sk, sj, si]
        shape = us.shape
        # rhs_u = us + a vo; rhs_v = vs - a uo;
        # u = m (rhs_u + a rhs_v) / denom; v = m (rhs_v - a rhs_u) / denom
        rhs_u = ws.take_view(FIELD_TMP[0], shape, np.result_type(us, a, vo))
        np.multiply(a, vo, out=rhs_u)
        np.add(us, rhs_u, out=rhs_u)
        rhs_v = ws.take_view(FIELD_TMP[1], shape, np.result_type(vs, a, uo))
        np.multiply(a, uo, out=rhs_v)
        np.subtract(vs, rhs_v, out=rhs_v)
        tmp = ws.take_view(FIELD_TMP[2], shape,
                           np.result_type(m, rhs_u, a, rhs_v))
        for rhs, other, op, dst in ((rhs_u, rhs_v, np.add, us),
                                    (rhs_v, rhs_u, np.subtract, vs)):
            np.multiply(a, other, out=tmp)
            op(rhs, tmp, out=tmp)
            np.multiply(m, tmp, out=tmp)
            np.divide(tmp, denom, out=dst)


@kokkos_register_for("depth_mean", ndim=2)
class DepthMeanFunctor(TileFunctor):
    """Depth-average a 3-D corner field over active levels into a 2-D field."""

    flops_per_point = 3.0
    bytes_per_point = 4 * 8.0   # fld + out + mask + dz columns
    #: Declared family boundary: the depth integral is a *scan*-family
    #: accumulation — fp32 velocities are widened on read and the sum
    #: runs at the scan dtype (value-exact, no cast launch needed).
    precision_boundary = True
    accumulates = True

    def __init__(self, fld: View, out: View, domain: LocalDomain) -> None:
        self.fld = fld
        self.out = out
        self.dom = domain

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
        mean = ws.take("dm_mean", shp2, np.result_type(ftdt, wdt))
        mean[...] = 0.0
        np.divide(total, thick, out=mean, where=wet)
        self.out.data[sj, si] = mean


@kokkos_register_for("add_barotropic", ndim=3)
class AddBarotropicFunctor(TileFunctor):
    """u3d = mask * (u3d ± field2d): attach (``sign=1``) the subcycled
    barotropic mode, or strip (``sign=-1``) the provisional depth mean.

    ``f - d`` is bitwise ``f + (-d)``, so stripping needs no negated
    copy of the mean."""

    flops_per_point = 2.0
    bytes_per_point = 3 * 8.0

    def __init__(self, fld: View, delta2d: View, domain: LocalDomain,
                 sign: float = 1.0) -> None:
        self.fld = fld
        self.delta2d = delta2d
        self.dom = domain
        self.sign = sign

    def apply(self, slices) -> None:
        sk, sj, si = slices
        m = self.dom.mask_u[sk, sj, si]
        f = self.fld.data[sk, sj, si]
        d = self.delta2d.data[sj, si][None, :, :]
        tmp = self.dom.workspace.take_view(FIELD_TMP[0], f.shape,
                                           np.result_type(f, d))
        (np.subtract if self.sign < 0 else np.add)(f, d, out=tmp)
        np.multiply(m, tmp, out=f)
