"""repro.analysis — *kernelcheck*, the static analyzer for the
portability layer.

Walks every registered functor at the AST level and checks the
portability contract the paper's correctness story rests on: no
write-write races, stencil footprints inside the declared halo, strict
memory-space discipline (fences before host reads of launched results),
honest ``flops_per_point``/``bytes_per_point`` metadata, and
``apply``/``__call__`` alias safety.  See DESIGN.md §Static analysis.

Entry points:

* :func:`run_kernelcheck` — full run, returns a :class:`Report`
  (used by ``python -m repro lint`` and the CI/pytest checks);
* :func:`collect_footprints` / :func:`build_footprint` — stencil
  footprint extraction, also consumed by ``repro.perfmodel`` as an
  independent cross-check of the declared kernel costs.
"""

from .absint import KernelAnalysis, analyze_functor
from .findings import Baseline, Finding, Report, Severity
from .footprint import (
    KernelFootprint,
    StaticKernelCost,
    ViewFootprint,
    build_footprint,
    static_cost,
)
from .graphcheck import (
    GraphLintConfig,
    check_graph,
    run_graphcheck,
)
from .rules import ALL_RULES, GRAPH_RULES, RuleConfig, run_rules
from .runner import (
    DRIVER_MODULES,
    OCEAN_KERNEL_MODULES,
    LintConfig,
    collect_footprints,
    run_kernelcheck,
    scan_fence_discipline,
)

__all__ = [
    "ALL_RULES",
    "Baseline",
    "DRIVER_MODULES",
    "Finding",
    "GRAPH_RULES",
    "GraphLintConfig",
    "KernelAnalysis",
    "KernelFootprint",
    "LintConfig",
    "OCEAN_KERNEL_MODULES",
    "Report",
    "RuleConfig",
    "Severity",
    "StaticKernelCost",
    "ViewFootprint",
    "analyze_functor",
    "build_footprint",
    "check_graph",
    "collect_footprints",
    "run_graphcheck",
    "run_kernelcheck",
    "run_rules",
    "scan_fence_discipline",
    "static_cost",
]
