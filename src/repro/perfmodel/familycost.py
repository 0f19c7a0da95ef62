"""Per-kernel-family cost shares: pricing a PrecisionPolicy honestly.

The paper's §VIII projection halves *all* memory traffic — the right
upper bound, but not what an actual
:class:`~repro.ocean.precision.PrecisionPolicy` does: under the
``mixed`` preset only the tracer/momentum/vmix sweeps narrow while the
barotropic subcycle, the EOS and the depth-integral scans stay fp64.

This module prices a policy from what the model actually executes.
:func:`measure_family_shares` runs the instrumented model once at fp64
and splits the byte/flop totals by kernel family
(:data:`~repro.ocean.precision.KERNEL_FAMILIES`); scaling each family's
share by its policy dtype width then yields a
:class:`~repro.perfmodel.kernelcost.StepProfile` the existing roofline
consumes unchanged (:func:`policy_profile`), plus the halo-volume-
weighted wire word size (:func:`policy_halo_word`).  The §VIII bound
is the uniform ``single`` policy: every share scales by one half and
the wire word is 4 bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from math import fsum
from typing import Dict, Mapping

from ..ocean.config import ModelConfig
from .kernelcost import DEFAULT_PROFILE, StepProfile

#: Labels whose traffic the step profile books as 2-D (per barotropic
#: substep) rather than 3-D — must match ``measure_step_profile``.
_BARO_2D_LABELS = ("barotropic_continuity", "barotropic_momentum")

#: Family charged for kernel labels with no ``KERNEL_FAMILIES`` entry
#: (fused composites, future kernels): priced at the widest dtype so an
#: unmapped kernel can only make the prediction pessimistic.
FALLBACK_FAMILY = "barotropic"


@dataclass(frozen=True)
class FamilyShares:
    """How one fp64 step's traffic splits across kernel families.

    * ``bytes3 / flops3`` — fraction of the 3-D byte/flop totals by
      family (each map sums to 1; the split matches
      ``measure_step_profile``'s 2-D/3-D bookkeeping).
    * ``halo3`` — 3-D halo updates per step by the family of the field
      being exchanged (2-D halos are all barotropic by construction).
    """

    bytes3: Mapping[str, float]
    flops3: Mapping[str, float]
    halo3: Mapping[str, int] = field(
        default_factory=lambda: dict(_DEFAULT_HALO3))

    def __post_init__(self) -> None:
        for name in ("bytes3", "flops3"):
            total = fsum(getattr(self, name).values())
            if not 0.999 < total < 1.001:
                raise ValueError(
                    f"FamilyShares.{name} must sum to 1, got {total}")


#: 3-D halo updates per step by field family: u/v before and after the
#: barotropic update (momentum), plus 5 per tracer for the
#: diffuse-then-advect FCT scheme (see ``DEFAULT_PROFILE.halo3_per_step``).
_DEFAULT_HALO3: Dict[str, int] = {"momentum": 4, "tracer": 10}

#: Frozen fp64 measurement (tiny demo, 4 steps, serial backend) — the
#: live counterpart is :func:`measure_family_shares`; the benchmark
#: suite re-measures and asserts agreement.
DEFAULT_FAMILY_SHARES = FamilyShares(
    bytes3={
        "tracer": 0.2392,
        "momentum": 0.5578,
        "vmix": 0.0221,
        "barotropic": 0.0129,
        "eos": 0.0646,
        "scan": 0.1034,
    },
    flops3={
        "tracer": 0.4312,
        "momentum": 0.4229,
        "vmix": 0.0792,
        "barotropic": 0.0051,
        "eos": 0.0308,
        "scan": 0.0308,
    },
)


def measure_family_shares(size: str = "tiny", steps: int = 4) -> FamilyShares:
    """Run the real (fp64) model and split its traffic by kernel family.

    Mirrors ``measure_step_profile``: warm up past the Euler start step,
    reset the instrumentation, run ``steps`` leapfrog steps, then group
    the per-kernel byte/flop totals by ``KERNEL_FAMILIES``.  Labels the
    profile books as 2-D barotropic traffic are excluded from the 3-D
    shares; unmapped labels fall back to :data:`FALLBACK_FAMILY`.
    """
    from ..kokkos import Instrumentation, SerialBackend
    from ..ocean import LICOMKpp, ModelParams, demo
    from ..ocean.precision import FAMILIES, KERNEL_FAMILIES

    inst = Instrumentation()
    # eager: each launch keeps its own label, which fusion would merge
    model = LICOMKpp(demo(size), backend=SerialBackend(inst=inst),
                     params=ModelParams(graph=False))
    model.run_steps(2)
    inst.reset()
    model.run_steps(steps)

    bytes3 = {fam: 0.0 for fam in FAMILIES}
    flops3 = {fam: 0.0 for fam in FAMILIES}
    for label, stats in inst.kernels.items():
        if label in _BARO_2D_LABELS:
            continue
        fam = KERNEL_FAMILIES.get(label, FALLBACK_FAMILY)
        bytes3[fam] += stats.bytes
        flops3[fam] += stats.flops
    tot_b = fsum(bytes3.values())
    tot_f = fsum(flops3.values())
    return FamilyShares(
        bytes3={fam: b / tot_b for fam, b in bytes3.items()},
        flops3={fam: f / tot_f for fam, f in flops3.items()},
    )


def _width(policy, family: str) -> float:
    """Family word size relative to fp64 (0.5 for fp32, 1.0 for fp64)."""
    return policy.family_dtype(family).itemsize / 8.0


def policy_profile(
    policy,
    profile: StepProfile = DEFAULT_PROFILE,
    shares: FamilyShares = DEFAULT_FAMILY_SHARES,
) -> StepProfile:
    """Reprice a step profile for ``policy`` from per-family byte shares.

    Memory traffic scales with each family's word width; flop counts,
    launch counts and halo-update counts are unchanged (narrowing does
    not change the arithmetic or the schedule, only the bytes moved —
    the paper's bandwidth-bound premise).  A uniform fp64 policy returns
    the profile untouched; a uniform fp32 policy halves ``bytes3`` and
    ``bytes2_sub`` exactly.
    """
    scale3 = fsum(frac * _width(policy, fam)
                  for fam, frac in shares.bytes3.items())
    scale2 = _width(policy, "barotropic")
    return replace(profile,
                   bytes3=profile.bytes3 * scale3,
                   bytes2_sub=profile.bytes2_sub * scale2)


def policy_halo_word(
    policy,
    cfg: ModelConfig,
    profile: StepProfile = DEFAULT_PROFILE,
    shares: FamilyShares = DEFAULT_FAMILY_SHARES,
) -> float:
    """Halo-volume-weighted mean wire word size [bytes] under ``policy``.

    The comm model prices all halo traffic with one ``word_bytes`` knob;
    under a mixed policy the 3-D tracer/momentum exchanges ship fp32
    while the 2-D barotropic subcycle stays fp64, so the effective word
    is the per-update boundary-volume weighted mean: each 3-D update
    moves ``nz`` points per boundary column, each of the
    ``nsub * halo2_per_sub`` 2-D updates moves one.
    """
    vol3 = {fam: n * cfg.nz for fam, n in shares.halo3.items()}
    vol2 = cfg.barotropic_substeps * profile.halo2_per_sub
    weighted = fsum(v * policy.family_dtype(fam).itemsize
                    for fam, v in vol3.items())
    weighted += vol2 * policy.family_dtype("barotropic").itemsize
    return weighted / (fsum(vol3.values()) + vol2)
