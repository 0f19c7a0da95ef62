"""repro.analysis — *kernelcheck*, the static analyzer for the
portability layer.

Walks every registered functor at the AST level and checks the
portability contract the paper's correctness story rests on: no
write-write races, stencil footprints inside the declared halo, strict
memory-space discipline inside functor classes, honest
``flops_per_point``/``bytes_per_point`` metadata, and
``apply``/``__call__`` alias safety.  *graphcheck* verifies the sealed
schedule those kernels run in — halo freshness, dead work and
precision boundaries, read off the typed exchange and rotate nodes
between the launches.  See DESIGN.md §Static analysis.

Entry points:

* :func:`run_kernelcheck` — full per-kernel run, returns a
  :class:`Report` (used by ``python -m repro lint`` and the CI/pytest
  checks);
* :func:`check_graph` / :func:`run_graphcheck` — one sealed graph's
  findings / the ``lint --graph`` report over the demo model's graphs;
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
from .graphcheck import check_graph, run_graphcheck
from .rules import ALL_RULES, GRAPH_RULES, RuleConfig, run_rules
from .runner import OCEAN_KERNEL_MODULES, collect_footprints, run_kernelcheck

__all__ = [
    "ALL_RULES",
    "Baseline",
    "Finding",
    "GRAPH_RULES",
    "KernelAnalysis",
    "KernelFootprint",
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
    "static_cost",
]
