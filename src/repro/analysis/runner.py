"""The lint matrix and the kernelcheck entry point.

:func:`lint_matrix` builds the configurations both verifiers read, once
per process: the demo model on its production path (the sealed graph),
stepped until every step variant (the startup forward step, then each
leapfrog phase) has sealed, and every part of every sealed graph observed
(:mod:`repro.analysis.observe`).  graphcheck walks those graphs;
:func:`run_kernelcheck` merges the observations per registered functor
type and runs the rule families over each:

1. import the ocean kernel modules so their ``@kokkos_register_for``
   decorators populate the registration table;
2. merge, per registered first-party functor type, the observations of
   every bound part into a
   :class:`~repro.analysis.footprint.KernelFootprint` — a registered
   type no matrix launch binds keeps no parts and is reported
   ``unobserved``;
3. run the per-kernel rule families over each footprint.
"""

from __future__ import annotations

import functools
import importlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..kokkos.graph import KernelNode, LaunchGraph
from .findings import Baseline, Finding, Report
from .footprint import KernelFootprint
from .observe import PartObservation, observe_node
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

# -- the lint matrix --------------------------------------------------------
#: The demo model of this size on every backend at its default
#: parameters, stepped this often (the startup graph and the three
#: leapfrog phase graphs seal) ...
SIZE = "tiny"
STEPS = 4
BACKENDS = ("serial", "openmp", "athread", "cuda")
#: ... plus these ``ModelParams`` variants on the first backend (the
#: graphs are backend-independent node lists).  "mixed" puts real cast
#: boundaries into the schedule for the precision-promotion rules; the
#: last variant runs the biharmonic, passive-tracer and no-momentum-
#: advection branches the defaults leave off, so every kernel line runs
#: under the matrix (tests/analysis/test_observe.py checks that).
VARIANTS = (
    ("precision=mixed", {"precision": "mixed"}),
    ("biharmonic+passive", {"biharmonic_factor": 0.002, "n_passive": 1,
                            "advect_momentum": False}),
)


@dataclass
class LintCase:
    """One matrix configuration: its sealed graphs in replay order (the
    startup graph, then one leapfrog period) and their observed parts
    (keyed as :func:`~repro.analysis.observe.observe_node` keys)."""

    tag: str
    backend: str
    graphs: List[LaunchGraph]
    observations: Dict = field(default_factory=dict)

    def parts(self) -> List[PartObservation]:
        return [obs for _, obs in self.observations.values()]


@functools.lru_cache(maxsize=None)
def lint_matrix() -> Tuple[LintCase, ...]:
    """Build, seal and observe every configuration of the lint matrix.

    Cached for the life of the process (about 1.4 s to build on the
    ``tiny`` size): the verifiers only read it, and tests that run both
    pay for it once.
    """
    from ..ocean.config import demo
    from ..ocean.model import LICOMKpp, ModelParams

    combos = [(b, f"backend={b}", {}) for b in BACKENDS]
    combos += [(BACKENDS[0], f"backend={BACKENDS[0]}, {tag}", over)
               for tag, over in VARIANTS]
    cases = []
    for backend, tag, over in combos:
        model = LICOMKpp(demo(SIZE), backend=backend,
                         params=ModelParams(check_every=0, **over))
        try:
            model.run_steps(STEPS)
            case = LintCase(tag, backend, [g for g in model._graphs.values()
                                           if g.sealed])
            for graph in case.graphs:
                for node in graph.nodes:
                    if isinstance(node, KernelNode):
                        observe_node(node, case.observations)
            cases.append(case)
        finally:
            model.close()
    return tuple(cases)


# --------------------------------------------------------------------------
# kernelcheck
# --------------------------------------------------------------------------


def kernel_footprints() -> List[KernelFootprint]:
    """One footprint per registered first-party functor type, merged
    from every part of the lint matrix that binds it."""
    from repro.kokkos.registry import default_registry

    for mod in OCEAN_KERNEL_MODULES:
        importlib.import_module(mod)
    parts: Dict[type, List[PartObservation]] = {}
    for case in lint_matrix():
        for obs in case.parts():
            parts.setdefault(obs.functor_type, []).append(obs)
    footprints = [
        KernelFootprint(e.name, e.functor_type, parts.get(e.functor_type, []))
        for e in default_registry().entries()
        if e.functor_type.__module__.startswith(FIRST_PARTY)
        # composite bodies (the graph's FusedTileFunctor) delegate to
        # parts that are registered — and observed — individually
        and not getattr(e.functor_type, "__kernelcheck_skip__", False)]
    footprints.sort(key=lambda fp: fp.kernel)
    return footprints


def run_kernelcheck(baseline: Optional[Baseline] = None) -> Report:
    """Run every rule family over every registered first-party kernel."""
    footprints = kernel_footprints()
    rule_config = RuleConfig()
    findings: List[Finding] = []
    for fp in footprints:
        findings.extend(run_rules(fp, rule_config))
    if baseline is not None:
        baseline.apply(findings)
    return Report(findings=findings, kernels_checked=len(footprints),
                  rules_run=list(ALL_RULES))
