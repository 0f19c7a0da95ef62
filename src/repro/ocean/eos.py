"""Equation of state for seawater: the linear Boussinesq EOS.

The model's EOS kernel evaluates it in place; :func:`density_linear` is
its array-level reference (arrays of any matching shape, in-situ
density in kg/m^3), which the kernel tests compare against.
"""

from __future__ import annotations

import numpy as np

#: Reference density [kg/m^3].
RHO0 = 1025.0
#: Reference temperature [deg C] and salinity [psu].
T0 = 10.0
S0 = 35.0
#: Linear expansion/contraction coefficients.
ALPHA_T = 1.7e-4   # 1/K
BETA_S = 7.6e-4    # 1/psu


def density_linear(
    t: np.ndarray, s: np.ndarray, depth: np.ndarray | float = 0.0
) -> np.ndarray:
    """Linear EOS: rho = rho0 * (1 - alpha (T-T0) + beta (S-S0)).

    ``depth`` is accepted for signature compatibility and ignored
    (Boussinesq pressure effects drop out of the pressure gradient).
    """
    return RHO0 * (1.0 - ALPHA_T * (np.asarray(t) - T0) + BETA_S * (np.asarray(s) - S0))
