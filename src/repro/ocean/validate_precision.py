"""Physics-aware validation of a precision policy against fp64.

Making mixed precision *executable* (:mod:`repro.ocean.precision`) only
matters if the narrow trajectory is demonstrably close to the fp64 one.
This module runs the same demo configuration twice — once at the fp64
reference policy, once at the policy under test — and checks the
divergence against declared per-field budgets:

* **per-field error** — pointwise L∞ and relative L2 over the local
  interior for each prognostic field, budgeted per family (fp32 tracer
  fields tolerate more roundoff than the fp64 barotropic surface);
* **energy drift** — relative difference of the domain-summed kinetic
  energy, the integral most sensitive to momentum roundoff;
* **tracer-mass drift** — relative difference of the volume-integrated
  T and S content; the FCT scheme is conservative, so mass divergence
  beyond accumulated rounding means the policy broke conservation.

Budgets are derived from fp32 machine epsilon (~1.2e-7) amplified by
the step count: each leapfrog step compounds roundoff through ~10
dependent sweeps, so a ``steps``-step run is budgeted at
``BUDGET_SCALE * eps32 * steps`` relative error, with per-field
absolute floors sized to the demo state's dynamic range (T ~ 10 K,
u ~ 0.1 m/s, ssh ~ 1e-3 m).  The harness is wired to the CLI as
``python -m repro precision``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from .precision import PrecisionLike, resolve_precision

#: fp32 unit roundoff.
EPS32 = float(np.finfo(np.float32).eps)
#: Roundoff amplification per step: the number of dependent sweeps a
#: value passes through in one leapfrog step, with headroom for the
#: FCT limiter's division (calibrated against tiny/small demo runs).
BUDGET_SCALE = 50.0


@dataclass(frozen=True)
class FieldBudget:
    """Tolerances for one field: absolute L∞ floor + relative L2."""

    linf_floor: float
    rel_l2: float


#: Per-field budgets (keyed by state attribute).  The floors reflect
#: each field's dynamic range in the demo configurations; the relative
#: L2 term scales with ``EPS32 * BUDGET_SCALE * steps``.
DEFAULT_BUDGETS: Dict[str, FieldBudget] = {
    "t": FieldBudget(linf_floor=1.0e-4, rel_l2=1.0),
    "s": FieldBudget(linf_floor=1.0e-4, rel_l2=1.0),
    # velocities spin up from rest, so their relative norm is large
    # while the absolute error stays at fp32 roundoff of ~0.1 m/s flows
    "u": FieldBudget(linf_floor=1.0e-5, rel_l2=8.0),
    "v": FieldBudget(linf_floor=1.0e-5, rel_l2=8.0),
    "ssh": FieldBudget(linf_floor=5.0e-5, rel_l2=3.0),
}

#: Relative budgets for the integral diagnostics (x EPS32 x steps).
ENERGY_BUDGET_SCALE = 200.0
MASS_BUDGET_SCALE = 10.0


@dataclass
class FieldError:
    """Measured divergence of one field from the fp64 reference."""

    name: str
    dtype: str
    linf: float
    rel_l2: float
    linf_budget: float
    rel_l2_budget: float

    @property
    def ok(self) -> bool:
        return self.linf <= self.linf_budget and self.rel_l2 <= self.rel_l2_budget


@dataclass
class PrecisionReport:
    """Outcome of one policy-vs-fp64 validation run."""

    policy: str
    size: str
    steps: int
    fields: List[FieldError] = field(default_factory=list)
    energy_drift: float = 0.0
    energy_budget: float = 0.0
    mass_drift: Dict[str, float] = field(default_factory=dict)
    mass_budget: float = 0.0

    @property
    def ok(self) -> bool:
        return (all(f.ok for f in self.fields)
                and self.energy_drift <= self.energy_budget
                and all(d <= self.mass_budget for d in self.mass_drift.values()))

    def format(self) -> str:
        lines = [
            f"precision validation: policy={self.policy} size={self.size} "
            f"steps={self.steps}",
            f"{'field':<6} {'dtype':<8} {'Linf':>12} {'budget':>12} "
            f"{'rel L2':>12} {'budget':>12}  verdict",
        ]
        for f in self.fields:
            lines.append(
                f"{f.name:<6} {f.dtype:<8} {f.linf:>12.3e} "
                f"{f.linf_budget:>12.3e} {f.rel_l2:>12.3e} "
                f"{f.rel_l2_budget:>12.3e}  {'ok' if f.ok else 'FAIL'}")
        ok_e = self.energy_drift <= self.energy_budget
        lines.append(f"energy drift {self.energy_drift:.3e} "
                     f"(budget {self.energy_budget:.3e})  "
                     f"{'ok' if ok_e else 'FAIL'}")
        for which, d in sorted(self.mass_drift.items()):
            ok_m = d <= self.mass_budget
            lines.append(f"{which}-mass drift {d:.3e} "
                         f"(budget {self.mass_budget:.3e})  "
                         f"{'ok' if ok_m else 'FAIL'}")
        lines.append("PASS" if self.ok else "FAIL")
        return "\n".join(lines)


def _field_error(model_p, model_ref, name: str, steps: int,
                 budget: FieldBudget) -> FieldError:
    a = model_p.local_interior(getattr(model_p.state, name).cur.raw)
    b = model_ref.local_interior(getattr(model_ref.state, name).cur.raw)
    diff = a.astype(np.float64) - b
    linf = float(np.abs(diff).max())
    ref_norm = float(np.sqrt(np.sum(b * b)))
    rel_l2 = float(np.sqrt(np.sum(diff * diff))) / max(ref_norm, 1.0e-30)
    rel_budget = budget.rel_l2 * BUDGET_SCALE * EPS32 * steps
    return FieldError(
        name=name,
        dtype=a.dtype.name,
        linf=linf,
        rel_l2=rel_l2,
        linf_budget=budget.linf_floor * steps,
        rel_l2_budget=rel_budget,
    )


def validate_policy(
    policy: PrecisionLike = "mixed",
    size: str = "tiny",
    steps: int = 16,
    backend: str = "serial",
    budgets: Optional[Dict[str, FieldBudget]] = None,
) -> PrecisionReport:
    """Run fp64 and ``policy`` side by side and budget the divergence.

    Both models integrate the same demo configuration from the same
    initial state for ``steps`` baroclinic steps on ``backend``; the
    fp64 run uses the same code path (the double policy's graphs and
    kernels are unchanged by the policy machinery), so every divergence
    is attributable to the narrow dtypes alone.
    """
    from .config import demo
    from .model import LICOMKpp, ModelParams

    pol = resolve_precision(policy)
    budgets = dict(DEFAULT_BUDGETS if budgets is None else budgets)
    cfg = demo(size)
    ref = LICOMKpp(cfg, backend=backend, params=ModelParams(precision="double"))
    test = LICOMKpp(cfg, backend=backend, params=ModelParams(precision=pol))
    try:
        ref.run_steps(steps)
        test.run_steps(steps)

        report = PrecisionReport(policy=pol.name, size=size, steps=steps)
        for name, budget in budgets.items():
            report.fields.append(_field_error(test, ref, name, steps, budget))

        ke_ref = ref.kinetic_energy()
        report.energy_drift = abs(test.kinetic_energy() - ke_ref) / max(
            abs(ke_ref), 1.0e-30)
        report.energy_budget = ENERGY_BUDGET_SCALE * EPS32 * steps
        for which in ("t", "s"):
            m_ref = ref.tracer_content(which)
            report.mass_drift[which] = abs(
                test.tracer_content(which) - m_ref) / max(abs(m_ref), 1.0e-30)
        report.mass_budget = MASS_BUDGET_SCALE * EPS32 * steps
        return report
    finally:
        # a blown-up narrow run must not leak two models' arenas
        test.close()
        ref.close()
