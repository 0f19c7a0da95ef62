"""Kernel collection and orchestration.

:func:`run_kernelcheck` is the analyzer entry point used by both the
``python -m repro lint`` CLI subcommand and the pytest-collectable check
in ``tests/analysis``:

1. import the ocean kernel modules so their ``@kokkos_register_for``
   decorators populate the registration table;
2. build a :class:`~repro.analysis.footprint.KernelFootprint` per
   registered functor (filtered to first-party ``repro.*`` modules so
   ad-hoc test functors never pollute a lint run);
3. run the per-kernel rule families over each footprint.

Nothing here looks at the step code: its exchanges and rotate are
typed graph nodes that fence before they touch a launched result
(:mod:`repro.kokkos.graph`), and the schedule they form is checked on
the sealed graph by :mod:`repro.analysis.graphcheck`.
"""

from __future__ import annotations

import importlib
from typing import List, Optional

from .findings import Baseline, Finding, Report
from .footprint import KernelFootprint, build_footprint
from .rules import ALL_RULES, RuleConfig, run_rules

#: Modules whose import registers the first-party kernels.
OCEAN_KERNEL_MODULES = (
    "repro.ocean.kernels_scalar",
    "repro.ocean.kernels_momentum",
    "repro.ocean.kernels_barotropic",
    "repro.ocean.kernels_tracer",
    "repro.ocean.kernels_vdiff",
    "repro.ocean.vmix_canuto",
    "repro.ocean.model",
)

#: Only functors defined under this package are linted.
FIRST_PARTY = "repro."


# --------------------------------------------------------------------------
# kernel collection
# --------------------------------------------------------------------------


def collect_footprints(registry=None) -> List[KernelFootprint]:
    """Import kernel modules and footprint every registered functor.

    ``registry`` defaults to the process registration table; tests
    pass a private one.
    """
    from repro.kokkos.registry import default_registry

    for mod in OCEAN_KERNEL_MODULES:
        importlib.import_module(mod)

    footprints: List[KernelFootprint] = []
    reg = registry if registry is not None else default_registry()
    for entry in reg.entries():
        ft = entry.functor_type
        if not ft.__module__.startswith(FIRST_PARTY):
            continue
        if getattr(ft, "__kernelcheck_skip__", False):
            # composite bodies (e.g. the graph's FusedTileFunctor) delegate
            # to parts that are registered — and analyzed — individually
            continue
        footprints.append(
            build_footprint(entry.name, ft, entry.ndim, entry.kind))
    footprints.sort(key=lambda fp: fp.kernel)
    return footprints


# --------------------------------------------------------------------------
# orchestration
# --------------------------------------------------------------------------


def run_kernelcheck(baseline: Optional[Baseline] = None) -> Report:
    """Run every rule family over every registered first-party kernel."""
    footprints = collect_footprints()
    rule_config = RuleConfig()
    findings: List[Finding] = []
    for fp in footprints:
        findings.extend(run_rules(fp, rule_config))
    if baseline is not None:
        baseline.apply(findings)
    return Report(findings=findings, kernels_checked=len(footprints),
                  rules_run=list(ALL_RULES))
