"""Implicit vertical friction and diffusion (column tridiagonal solves).

Vertical mixing coefficients are large in the mixed layer (the Canuto
scheme can return 1e-2 m^2/s and convective adjustment far more), so
the vertical operator is integrated implicitly — a Thomas solve per
column, parallel over (j, i), which is how LICOM structures it and why
the canuto/vdiff kernels are column-oriented (the Fig. 4 load-balance
story).

Boundary conditions: surface momentum flux = wind stress / rho0;
surface tracer flux = Newtonian restoring; linear bottom drag on
momentum; zero flux at the sea floor for tracers.
"""

from __future__ import annotations

import numpy as np

from ..kokkos import View, kokkos_register_for
from .eos import RHO0
from .kernel_utils import TileFunctor, thomas_solve
from .localdomain import LocalDomain


def _diffusion_matrix(
    kappa: np.ndarray,   # (nz, nj, ni) interface coefficients (k = below level k)
    mask: np.ndarray,    # (nz, nj, ni)
    dz: np.ndarray,      # (nz,)
    z_t: np.ndarray,     # (nz,)
    dt: float,
    ws,
):
    """Build (lower, diag, upper) of (I - dt * d/dz(kappa d/dz)) in the
    arena."""
    nz = dz.size
    dzc = dz.reshape(-1, 1, 1)
    dzw = np.diff(z_t).reshape(-1, 1, 1)  # (nz-1, 1, 1) center-to-center
    shape = kappa.shape
    # bands live at the family dtype (kappa and the domain's mask are
    # both policy-cast), so fp32 columns solve in fp32 end to end
    bdt = np.result_type(kappa.dtype, mask.dtype)
    lower = ws.take("vd_lower", shape, bdt)
    upper = ws.take("vd_upper", shape, bdt)
    if nz > 1:
        # interface k sits between level k and k+1; open only if both ocean
        fshape = (nz - 1,) + shape[1:]
        open_iface = ws.take("vd_open", fshape, mask.dtype)
        np.multiply(mask[:-1], mask[1:], out=open_iface)
        kap = ws.take("vd_kap", fshape, bdt)
        np.multiply(kappa[:-1], open_iface, out=kap)
        np.multiply(kap, -dt, out=kap)
        dzp = ws.take("vd_dzp", dzw.shape, dzw.dtype)
        np.multiply(dzc[:-1], dzw, out=dzp)
        np.divide(kap, dzp, out=upper[:-1])     # couples level k to k+1
        np.multiply(dzc[1:], dzw, out=dzp)
        np.divide(kap, dzp, out=lower[1:])      # couples level k+1 to k
    lower[0] = 0.0
    upper[-1] = 0.0
    diag = ws.take("vd_diag", shape, bdt)
    np.subtract(1.0, lower, out=diag)
    np.subtract(diag, upper, out=diag)
    # land levels: identity rows
    land = ws.take("vd_land", shape, np.bool_)
    np.equal(mask, 0.0, out=land)
    np.copyto(lower, 0.0, where=land)
    np.copyto(upper, 0.0, where=land)
    np.copyto(diag, 1.0, where=land)
    return lower, diag, upper


@kokkos_register_for("vertical_friction", ndim=2)
class VerticalFrictionFunctor(TileFunctor):
    """Implicit vertical friction on (u, v) with wind stress + bottom drag."""

    flops_per_point = 30.0
    bytes_per_point = 8 * 8.0

    def __init__(
        self,
        u: View, v: View,
        kappa_m: View,
        taux: np.ndarray, tauy: np.ndarray,   # (ly, lx) surface stress [N/m^2]
        domain: LocalDomain,
        dt: float,
        bottom_drag: float = 1.0e-6,          # linear drag rate [1/s]
    ) -> None:
        self.u = u
        self.v = v
        self.kappa_m = kappa_m
        self.taux = taux
        self.tauy = tauy
        self.dom = domain
        self.dt = dt
        self.bottom_drag = bottom_drag

    def apply(self, slices) -> None:
        sj, si = slices
        d = self.dom
        ws = d.workspace
        mu = d.mask_u[:, sj, si]
        kap = self.kappa_m.data[:, sj, si]
        lower, diag, upper = _diffusion_matrix(kap, mu, d.dz, d.z_t, self.dt,
                                               ws)
        # linear bottom drag, implicit: add r*dt (an fp64 increment,
        # narrowed at the store) to the diagonal at level (active levels
        # - 1) of every column with an active level
        bottom = ws.take("vf_bottom", mu.shape, np.bool_)
        np.greater(mu, 0.0, out=bottom)
        kb = ws.take("vf_kb", mu.shape[1:], np.intp)
        np.sum(bottom, axis=0, out=kb)
        np.subtract(kb, 1, out=kb)
        np.equal(np.arange(d.nz).reshape(-1, 1, 1), kb, out=bottom)
        np.add(diag, np.float64(self.bottom_drag * self.dt), out=diag,
               where=bottom)

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


@kokkos_register_for("vertical_tracer_diffusion", ndim=2)
class VerticalTracerDiffusionFunctor(TileFunctor):
    """Implicit vertical tracer diffusion with surface restoring.

    Restoring is treated implicitly too: the surface level obeys
    ``(1 + dt*gamma_eff) T0_new - diffusion = T0 + dt*gamma_eff*T*``
    with ``gamma_eff = gamma * (depth_scale/dz0)`` folded into gamma.
    """

    flops_per_point = 25.0
    bytes_per_point = 6 * 8.0

    def __init__(
        self,
        tr: View,
        kappa_h: View,
        star: np.ndarray,       # (ly, lx) restoring target
        gamma: float,           # restoring rate [1/s] applied to the top level
        domain: LocalDomain,
        dt: float,
    ) -> None:
        self.tr = tr
        self.kappa_h = kappa_h
        self.star = star
        self.gamma = gamma
        self.dom = domain
        self.dt = dt

    def apply(self, slices) -> None:
        sj, si = slices
        d = self.dom
        ws = d.workspace
        m = d.mask_t[:, sj, si]
        kap = self.kappa_h.data[:, sj, si]
        lower, diag, upper = _diffusion_matrix(kap, m, d.dz, d.z_t, self.dt,
                                               ws)
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
