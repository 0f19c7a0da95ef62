"""Canuto-style vertical mixing parameterization (paper §V-A, §V-C1).

LICOMK++ introduces the *canuto* scheme (Canuto et al. 2010; Huang et
al. 2014) for vertical mixing — the second most computationally
expensive kernel, evaluated column-wise over ocean points only, which
is what creates the sea-land load imbalance of Fig. 4.

We reproduce the scheme's computational structure faithfully and its
physics in simplified form (the full second-order closure needs TKE
prognostics unavailable here; the substitution is documented in
DESIGN.md):

* local gradient Richardson number ``Ri = N^2 / S^2`` at interfaces,
  from the density profile and the velocity shear;
* rational *stability functions* ``S_m(Ri)``, ``S_h(Ri)`` with the
  Canuto level-2 structure (monotone decreasing, ``S_h`` decaying
  faster than ``S_m``, finite at ``Ri = 0``, ~``1/Ri`` tails);
* a surface-intensified mixing-length scale;
* convective adjustment: large diffusivity wherever ``N^2 < 0``.

Columns shallower than :data:`MIN_CANUTO_LEVELS` are excluded (the red
points of Fig. 4).
"""

from __future__ import annotations

import numpy as np

from ..kokkos import View, kokkos_register_for
from .eos import RHO0
from .grid import GRAVITY
from .kernel_utils import FIELD_TMP, TileFunctor, sh
from .localdomain import LocalDomain

#: Columns with fewer active levels are excluded from the scheme.
MIN_CANUTO_LEVELS = 3

#: Background (always-on) diffusivities [m^2/s].
KAPPA_M_BACKGROUND = 1.0e-4
KAPPA_H_BACKGROUND = 1.0e-5

#: Neutral (Ri = 0) turbulent diffusivities [m^2/s].
NU0_M = 5.0e-3
NU0_H = 5.0e-3

#: Convective-adjustment diffusivity [m^2/s].
KAPPA_CONVECTIVE = 0.1

#: Mixing-length surface decay scale [m].
MIXING_DEPTH = 250.0

# Canuto level-2 style rational-function coefficients.
_B1 = 5.0
_B2 = 12.0   # S_h denominator is quadratic: faster heat cutoff
_C1 = 1.0


def stability_functions(ri: np.ndarray, out):
    """(S_m, S_h) rational stability functions of the Richardson number.

    ``S_m = 1 / (1 + B1 Ri)`` and ``S_h = 1 / (1 + B1 Ri + B2 Ri^2)``
    for ``Ri >= 0``; both saturate at 1 for unstable ``Ri < 0`` (the
    convective branch is handled separately).  The quadratic term gives
    heat the sharper cutoff the Canuto closure predicts.

    The functions are written into ``out=(s_m, s_h)``, two arrays of
    ``ri``'s shape; ``ri`` itself is never written.
    """
    s_m, s_h = out
    rip = np.maximum(ri, 0.0, out=s_m)
    np.multiply(rip, _B2, out=s_h)
    np.multiply(s_h, rip, out=s_h)          # (B2 Ri) Ri
    np.multiply(rip, _B1, out=s_m)
    np.add(s_m, 1.0, out=s_m)               # 1 + B1 Ri
    np.add(s_m, s_h, out=s_h)
    np.divide(1.0, s_m, out=s_m)
    np.divide(1.0, s_h, out=s_h)
    return s_m, s_h


def canuto_column_mask(domain: LocalDomain,
                       tile=(slice(None), slice(None))) -> np.ndarray:
    """True where the canuto scheme runs (Fig. 4 blue points), over the
    ``(sj, si)`` ``tile`` of the domain's (ly, lx) columns."""
    return domain.kmt[tile] >= MIN_CANUTO_LEVELS


@kokkos_register_for("canuto_mixing", ndim=2)
class CanutoMixFunctor(TileFunctor):
    """Fill ``kappa_m`` / ``kappa_h`` interface coefficients per column.

    Interface index convention: ``kappa[k]`` couples levels k and k+1
    (the last index is unused).  Requires valid (u, v) halos for the
    corner-to-center average.
    """

    flops_per_point = 90.0
    bytes_per_point = 10 * 8.0
    stencil_halo = 1        # corner->center (u, v) average reads -1..0

    def __init__(
        self,
        u: View, v: View, rho: View,
        kappa_m: View, kappa_h: View,
        domain: LocalDomain,
    ) -> None:
        self.u = u
        self.v = v
        self.rho = rho
        self.kappa_m = kappa_m
        self.kappa_h = kappa_h
        self.dom = domain

    def apply(self, slices) -> None:
        sj, si = slices
        d = self.dom
        nz = d.nz
        if nz < 2:
            self.kappa_m.data[:, sj, si] = KAPPA_M_BACKGROUND
            self.kappa_h.data[:, sj, si] = KAPPA_H_BACKGROUND
            return
        ws = d.workspace
        nzm = nz - 1
        shape = (nz, sj.stop - sj.start, si.stop - si.start)
        ishape = (nzm,) + shape[1:]
        # velocities averaged to T columns: the B-grid corners (j-1..j,
        # i-1..i) around T cell (j, i), 0.25 * (((sw + se) + nw) + ne)
        sjs, siw = sh(sj, -1), sh(si, -1)
        cols = []
        for key, f in ((FIELD_TMP[0], self.u.data), (FIELD_TMP[1], self.v.data)):
            c = ws.take_view(key, shape, f.dtype)
            np.add(f[:, sjs, siw], f[:, sjs, si], out=c)
            np.add(c, f[:, sj, siw], out=c)
            np.add(c, f[:, sj, si], out=c)
            np.multiply(c, 0.25, out=c)
            cols.append(c)
        ut, vt = cols
        rho = self.rho.data[:, sj, si]
        dzw = np.diff(d.z_t).reshape(-1, 1, 1)

        # N^2 = (g / rho0) (rho[k+1] - rho[k]) / dzw
        n2 = ws.take_view(FIELD_TMP[2], ishape, np.result_type(rho, dzw))
        np.subtract(rho[1:], rho[:-1], out=n2)
        np.multiply(n2, GRAVITY / RHO0, out=n2)
        np.divide(n2, dzw, out=n2)
        # S^2 = du du + dv dv + 1e-12;  Ri = N^2 / S^2
        du = ws.take_view(FIELD_TMP[3], ishape, np.result_type(ut, dzw))
        np.subtract(ut[:-1], ut[1:], out=du)
        np.divide(du, dzw, out=du)
        dv = ws.take_view(FIELD_TMP[4], ishape, np.result_type(vt, dzw))
        np.subtract(vt[:-1], vt[1:], out=dv)
        np.divide(dv, dzw, out=dv)
        np.multiply(du, du, out=du)
        np.multiply(dv, dv, out=dv)
        np.add(du, dv, out=du)
        np.add(du, 1.0e-12, out=du)
        convective = ws.take("cm_conv", ishape, np.bool_)
        np.less(n2, 0.0, out=convective)
        np.divide(n2, du, out=n2)       # Ri, in the spent N^2 buffer
        s_m, s_h = stability_functions(n2, out=(dv, du))

        # kappa = background + (nu0 S) depth_factor, convective where
        # N^2 < 0, background on too-shallow columns, zero across closed
        # interfaces (the mask product, in the spent u-column buffer)
        depth_factor = np.exp(-d.z_w[1:nz] / MIXING_DEPTH).reshape(-1, 1, 1)
        shallow = ~canuto_column_mask(d, (sj, si))[None, :, :]
        m = d.mask_t[:, sj, si]
        iface = ws.take_view(FIELD_TMP[0], ishape, m.dtype)
        np.multiply(m[:-1], m[1:], out=iface)
        for kap, stab, nu0, background in (
                (self.kappa_m, s_m, NU0_M, KAPPA_M_BACKGROUND),
                (self.kappa_h, s_h, NU0_H, KAPPA_H_BACKGROUND)):
            np.multiply(stab, nu0, out=stab)
            np.multiply(stab, depth_factor, out=stab)
            np.add(stab, background, out=stab)
            np.copyto(stab, KAPPA_CONVECTIVE, where=convective)
            np.copyto(stab, background, where=shallow)
            np.multiply(stab, iface, out=kap.data[:nzm, sj, si])
            kap.data[nzm, sj, si] = 0.0
