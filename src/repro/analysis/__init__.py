"""repro.analysis — the two verifiers of the portability layer.

Both read what the code *did*, not what its source suggests: every
bound launch part of the lint matrix (the demo model's sealed step
graphs, :func:`lint_matrix`) is swept once over its launch range on
recorded copies (:mod:`repro.analysis.observe`), and the rules read
those records.

*kernelcheck* checks each registered functor against the portability
contract the paper's correctness story rests on: no write-write races,
reads inside the declared ``stencil_halo``, strict memory-space
discipline, honest ``flops_per_point``/``bytes_per_point`` metadata and
``apply`` alias safety.  *graphcheck* verifies the sealed schedule those
kernels run in — halo freshness, dead work and precision boundaries,
read off the typed exchange and rotate nodes between the launches.  See
DESIGN.md §2.8 and §2.13.

Entry points:

* :func:`run_kernelcheck` — the per-kernel report (``python -m repro
  lint`` and the pytest checks);
* :func:`check_graph` / :func:`run_graphcheck` — one sealed graph's
  findings / the ``lint --graph`` report over the lint matrix;
* :func:`observe_part` — one recorded sweep of a bound functor.
"""

from .findings import Baseline, Finding, Report, Severity
from .footprint import KernelFootprint
from .graphcheck import check_graph, run_graphcheck
from .observe import PartObservation, observe_part
from .rules import ALL_RULES, GRAPH_RULES, RuleConfig, run_rules
from .runner import (
    OCEAN_KERNEL_MODULES,
    kernel_footprints,
    lint_matrix,
    run_kernelcheck,
)

__all__ = [
    "ALL_RULES",
    "Baseline",
    "Finding",
    "GRAPH_RULES",
    "KernelFootprint",
    "OCEAN_KERNEL_MODULES",
    "PartObservation",
    "Report",
    "RuleConfig",
    "Severity",
    "check_graph",
    "kernel_footprints",
    "lint_matrix",
    "observe_part",
    "run_graphcheck",
    "run_kernelcheck",
    "run_rules",
]
