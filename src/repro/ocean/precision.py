"""``PrecisionPolicy``: per-kernel-family dtype selection (§VIII).

The paper's §VIII projects ~1.5× throughput from running the
bandwidth-bound tracer/momentum kernels in single precision while the
stiff barotropic solver, the equation of state and the depth-integral
reductions stay in fp64.  This module makes that an *executable* policy
rather than a flat projection: a frozen map from kernel family to NumPy
dtype, threaded from state allocation through kernel dispatch, sealed
graphs, halo wire formats and the performance model.

Families
--------
``tracer``
    T/S/passive advection-diffusion: the FCT suite, horizontal
    diffusion, the implicit vertical tracer solve and their work views.
``momentum``
    3-D velocity: baroclinic tendency, Coriolis rotation, vertical
    friction, the diagnostic vertical velocity ``w``.
``vmix``
    Canuto mixing coefficients (``kappa_m``/``kappa_h``).
``barotropic``
    The split-explicit free-surface subcycle (``eta``, ``ub``/``vb``,
    depth-mean work views) and ``ssh`` — kept wide because the
    subcycle's forward-backward iteration accumulates hundreds of
    sub-steps per baroclinic step.
``eos``
    Density and hydrostatic pressure (vertical ``cumsum``).
``scan``
    Depth-integral reductions (the depth-mean accumulations).  This is
    an *accumulation* dtype: fp32 fields may feed a scan, but the sum
    itself runs at the scan family's width.

Cast discipline
---------------
Narrowing casts (fp64 → fp32) never happen implicitly inside a sweep:
the model inserts explicit ``precision_cast`` launches at family
boundaries (they appear in launch graphs, lint reports and traces).
Widening reads (fp32 field into an fp64 sweep) are value-exact and are
declared by the consuming functor with ``precision_boundary = True`` so
the graphcheck ``precision-promotion`` rule can tell intent from
accident.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple, Union

import numpy as np

from ..errors import ConfigurationError
from ..kokkos.functor import kokkos_register_for

#: The kernel families a policy assigns dtypes to.
FAMILIES: Tuple[str, ...] = (
    "tracer", "momentum", "vmix", "barotropic", "eos", "scan",
)

#: Model field name -> family (state views, work views, forcing).
FIELD_FAMILIES: Dict[str, str] = {
    # prognostic / diagnostic state
    "u": "momentum", "v": "momentum", "w": "momentum",
    "t": "tracer", "s": "tracer", "passive": "tracer",
    "ssh": "barotropic", "ub": "barotropic", "vb": "barotropic",
    "rho": "eos", "p": "eos",
    "kappa_m": "vmix", "kappa_h": "vmix",
    # model work views
    "tstar": "tracer", "tdiff_work": "tracer",
    "rplus": "tracer", "rminus": "tracer",
    "eta": "barotropic", "eta_prev": "barotropic",
    "um": "barotropic", "vm": "barotropic",
    "um_old": "barotropic", "vm_old": "barotropic",
    "gx": "barotropic", "gy": "barotropic",
    # forcing arrays
    "taux": "momentum", "tauy": "momentum",
    "sst_star": "tracer", "sss_star": "tracer",
}

#: Kernel label -> family, for pricing and span labelling.  Labels not
#: listed (host glue, fused composites) have no single family.
KERNEL_FAMILIES: Dict[str, str] = {
    "eos_density": "eos",
    "baroclinic_pressure": "eos",
    "canuto_mixing": "vmix",
    "vertical_velocity": "momentum",
    "baroclinic_tendency": "momentum",
    "vertical_friction": "momentum",
    "coriolis_rotation": "momentum",
    "depth_mean_u_old": "scan", "depth_mean_v_old": "scan",
    "depth_mean_u_new": "scan", "depth_mean_v_new": "scan",
    "depth_mean_u_cur": "scan", "depth_mean_v_cur": "scan",
    "barotropic_gforce": "barotropic",
    "strip_barotropic_u": "momentum", "strip_barotropic_v": "momentum",
    "add_barotropic_u": "momentum", "add_barotropic_v": "momentum",
    "barotropic_continuity": "barotropic",
    "barotropic_momentum": "barotropic",
    "tracer_hdiff": "tracer",
    "advect_tracer_predictor": "tracer",
    "advect_tracer_limits": "tracer",
    "advect_tracer_apply": "tracer",
    "vertical_tracer_diffusion": "tracer",
    "asselin_filter": "momentum",      # u/v/t/s share one label; priced
                                       # at the wider of its operands
    "asselin_filter_ssh": "barotropic",
    "precision_cast": "momentum",
    "precision_cast_2d": "barotropic",
}

_F32 = np.dtype(np.float32)
_F64 = np.dtype(np.float64)

#: Named presets.  ``mixed`` is the paper's §VIII split: fp32 for the
#: bandwidth-bound tracer/momentum/vmix sweeps, fp64 for the barotropic
#: subcycle, the EOS and every depth-integral accumulation.
PRESETS: Dict[str, Dict[str, np.dtype]] = {
    "double": {fam: _F64 for fam in FAMILIES},
    "single": {fam: _F32 for fam in FAMILIES},
    "mixed": {
        "tracer": _F32, "momentum": _F32, "vmix": _F32,
        "barotropic": _F64, "eos": _F64, "scan": _F64,
    },
}

_ALLOWED_DTYPES = (_F32, _F64)


class PrecisionPolicy:
    """An immutable per-family dtype assignment.

    Construct via :func:`resolve_precision` (accepts preset names,
    ``{family: dtype}`` overrides, or an existing policy) rather than
    directly; equality and hashing follow the resolved dtype map, so
    two spellings of the same policy compare equal.
    """

    __slots__ = ("name", "_dtypes")

    def __init__(self, name: str, dtypes: Mapping[str, np.dtype]) -> None:
        resolved = {}
        for fam in FAMILIES:
            if fam not in dtypes:
                raise ConfigurationError(
                    f"precision policy {name!r}: missing family {fam!r}")
            dt = np.dtype(dtypes[fam])
            if dt not in _ALLOWED_DTYPES:
                raise ConfigurationError(
                    f"precision policy {name!r}: family {fam!r} must be "
                    f"float32 or float64, got {dt}")
            resolved[fam] = dt
        unknown = set(dtypes) - set(FAMILIES)
        if unknown:
            raise ConfigurationError(
                f"precision policy {name!r}: unknown families "
                f"{sorted(unknown)}; families are {list(FAMILIES)}")
        self.name = name
        self._dtypes = resolved

    # -- queries -----------------------------------------------------------

    def family_dtype(self, family: str) -> np.dtype:
        """The dtype assigned to ``family``."""
        try:
            return self._dtypes[family]
        except KeyError:
            raise ConfigurationError(
                f"unknown kernel family {family!r}; "
                f"families are {list(FAMILIES)}") from None

    def field_dtype(self, field: str) -> np.dtype:
        """The dtype a model field named ``field`` is allocated at."""
        fam = FIELD_FAMILIES.get(field)
        if fam is None:
            raise ConfigurationError(
                f"field {field!r} has no declared kernel family")
        return self._dtypes[fam]

    def kernel_dtype(self, label: str) -> Optional[np.dtype]:
        """The dtype of the kernel labelled ``label`` (None if unmapped)."""
        fam = KERNEL_FAMILIES.get(label)
        return None if fam is None else self._dtypes[fam]

    @property
    def uniform(self) -> bool:
        """True when every family shares one dtype (no cast boundaries)."""
        return len(set(self._dtypes.values())) == 1

    def dtypes(self) -> Dict[str, np.dtype]:
        """A copy of the family -> dtype map."""
        return dict(self._dtypes)

    def signature(self) -> Tuple[Tuple[str, str], ...]:
        """Hashable identity for binding signatures and cache keys."""
        return tuple((fam, self._dtypes[fam].str) for fam in FAMILIES)

    # -- dunder ------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PrecisionPolicy):
            return self._dtypes == other._dtypes
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.signature())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = ", ".join(f"{fam}={dt.name}"
                          for fam, dt in self._dtypes.items())
        return f"PrecisionPolicy({self.name!r}, {parts})"


class _CastBase:
    """Explicit dtype conversion at a kernel-family boundary.

    The only sanctioned way precision changes between families: a cast
    is its own launch, so it appears in captured graphs, lint reports
    and trace timelines instead of hiding inside a consuming sweep's
    arithmetic.  The assignment converts element-wise; fp32 → fp64 is
    value-exact, fp64 → fp32 rounds once, here, and nowhere else.
    """

    #: Intentional mixed-dtype kernel: exempt from the graphcheck
    #: precision-promotion rule.
    precision_boundary = True
    stencil_halo = 0
    flops_per_point = 0.0
    bytes_per_point = 2 * 8.0
    bytes_in_per_point = 8.0
    bytes_out_per_point = 8.0

    def __init__(self, src, dst) -> None:
        self.src = src
        self.dst = dst


@kokkos_register_for("precision_cast", ndim=3)
class CastFunctor(_CastBase):
    """3-D family-boundary cast (``dst[...] = src[...]``)."""

    def __call__(self, k: int, j: int, i: int) -> None:
        self.apply((slice(k, k + 1), slice(j, j + 1), slice(i, i + 1)))

    def apply(self, slices) -> None:
        sk, sj, si = slices
        self.dst.data[sk, sj, si] = self.src.data[sk, sj, si]


@kokkos_register_for("precision_cast_2d", ndim=2)
class CastFunctor2D(_CastBase):
    """2-D family-boundary cast (``dst[...] = src[...]``)."""

    def __call__(self, j: int, i: int) -> None:
        self.apply((slice(j, j + 1), slice(i, i + 1)))

    def apply(self, slices) -> None:
        sj, si = slices
        self.dst.data[sj, si] = self.src.data[sj, si]


PrecisionLike = Union[str, Mapping[str, object], PrecisionPolicy, None]


def resolve_precision(spec: PrecisionLike) -> PrecisionPolicy:
    """Normalise ``spec`` into a :class:`PrecisionPolicy`.

    Accepts a preset name (``"double"`` / ``"single"`` / ``"mixed"``),
    a mapping of per-family overrides applied on top of the ``mixed``
    preset when partial (or used verbatim when complete), an existing
    policy (returned as-is), or ``None`` (the fp64 default).

    Unknown preset names raise :class:`ValueError` to preserve the
    historical ``ModelParams.precision`` contract.
    """
    if spec is None:
        return PrecisionPolicy("double", PRESETS["double"])
    if isinstance(spec, PrecisionPolicy):
        return spec
    if isinstance(spec, str):
        preset = PRESETS.get(spec)
        if preset is None:
            raise ValueError(
                f"precision must be one of {sorted(PRESETS)} or a "
                f"per-family dtype mapping, got {spec!r}")
        return PrecisionPolicy(spec, preset)
    if isinstance(spec, Mapping):
        base = dict(PRESETS["mixed"]) if len(spec) < len(FAMILIES) else {}
        base.update({fam: np.dtype(dt) for fam, dt in spec.items()})
        return PrecisionPolicy("custom", base)
    raise ValueError(
        f"cannot resolve a precision policy from {type(spec).__name__}")
