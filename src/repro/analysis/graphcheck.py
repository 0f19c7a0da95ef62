"""graphcheck — whole-schedule dataflow verifier for sealed launch graphs.

kernelcheck proves properties of one kernel body at a time; this module
proves properties of the *schedule*: it walks a sealed
:class:`~repro.kokkos.graph.LaunchGraph` — kernel launches, fused nodes,
and the two typed non-kernel nodes, whose ``run()`` does exactly what
the walk reads from them: an :class:`~repro.kokkos.graph.ExchangeNode`
refreshes the halos of its ``fields``, a
:class:`~repro.kokkos.graph.RotateNode` permutes the buffers of its
``triples`` (every piece of arithmetic is a launch) — and assigns every
buffer an abstract version per launch, from what each plan part's
observed sweep (:mod:`repro.analysis.observe`) read and wrote: state
is keyed by the buffers a part actually touched, at the boxes it
touched them.  A fused node is walked part
by part in capture order — which is how its sweep executes it — so
fusion needs no rule of its own.  The rule families (see DESIGN.md
§2.13):

``stale-halo``
    A stencil launch reads a view's boundary ring at a point where the
    schedule has written the interior since the last halo refresh and
    the read's reach extends into the stale inset.
``redundant-exchange`` / ``dead-store``
    Optimization findings: a halo refresh of a view nothing has written
    since its previous refresh, and a kernel write no later node ever
    reads before the next full overwrite.
``precision-promotion``
    A launch part touching fp32 and fp64 arrays without declaring a
    precision boundary, or accumulating at fp32.

There is no fence rule: both node types fence in their own ``run()``
before they touch a buffer, so a fence cannot be missing from a sealed
schedule (``tests/analysis/test_graphcheck.py::TestNodeFences``).

The walk runs :data:`PASSES` passes over the node list so steady-state
staleness wraps around the step boundary (a captured graph replays in a
loop); findings are emitted on the final pass only and deduplicated by
their stable ``rule:kernel:view`` key.

Entry points: :func:`check_graph` (all families, one sealed graph),
:func:`certify_precision` (its error-severity precision findings, for a
caller that wants the proof before replaying) and
:func:`run_graphcheck` (the ``python -m repro lint --graph`` driver:
verifies every sealed step graph of the lint matrix,
:func:`~repro.analysis.runner.lint_matrix`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..kokkos.graph import ExchangeNode, KernelNode, LaunchGraph, RotateNode
from ..kokkos.view import View
from .findings import Finding, Report, Severity
from .footprint import source_of
from .observe import Box, observe_node
from .rules import (
    GRAPH_RULES,
    RULE_DEAD_STORE,
    RULE_PRECISION,
    RULE_REDUNDANT_EXCHANGE,
    RULE_STALE_HALO,
)

__all__ = [
    "certify_precision",
    "check_graph",
    "check_precision",
    "run_graphcheck",
]


def _display(obj, fallback: str) -> str:
    if isinstance(obj, View):
        return obj.label
    return fallback


# --------------------------------------------------------------------------
# precision-promotion: mixed-dtype discipline over the sealed schedule
# --------------------------------------------------------------------------

_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


def check_precision(graph: LaunchGraph,
                    observations: Optional[Dict] = None) -> List[Finding]:
    """The ``precision-promotion`` rule family over one sealed graph.

    Every launch part must be *dtype-uniform* across the float arrays it
    touches (fields, work views, geometry) unless its functor declares
    ``precision_boundary = True`` — the marker for sanctioned family
    boundaries: explicit ``precision_cast`` launches and value-exact
    widening consumers (EOS, depth-mean scans).  Anything else touching
    fp32 *and* fp64 silently promotes the whole sweep to fp64 arithmetic
    (NumPy result-type rules), defeating the policy — an ERROR.

    Separately, a functor that declares ``accumulates = True`` (column
    scans, depth integrals) whose operands are all fp32 carries an
    accumulation-order hazard — the rounding of a long fp32 sum depends
    on evaluation order and its error grows with the level count — a
    WARNING (the ``mixed`` preset avoids it by running scans in fp64).
    A kernel whose running sum is explicitly fp64 internally declares
    ``wide_accumulate = True`` and is exempt: the hazard attaches to
    the accumulator width, not the operand width.

    The dtypes read are those of the arrays each part's observed sweep
    touched; ``observations`` is an :func:`~.observe.observe_node` cache.
    """
    findings: List[Finding] = []
    for node in graph.nodes:
        if not isinstance(node, KernelNode):
            continue
        for obs in observe_node(node, observations):
            label, ftype = obs.label, obs.functor_type
            file, line = source_of(obs.functor_type)
            dtypes = {name: b.dtype for name, b in obs.touched.items()
                      if b.dtype in _FLOAT_DTYPES}
            if not dtypes:
                continue
            distinct = set(dtypes.values())
            boundary = bool(getattr(ftype, "precision_boundary", False))
            if len(distinct) > 1 and not boundary:
                by_dt: Dict[np.dtype, List[str]] = {}
                for name, dt in sorted(dtypes.items()):
                    by_dt.setdefault(dt, []).append(name)
                desc = "; ".join(
                    f"{dt.name}: {', '.join(names)}"
                    for dt, names in sorted(by_dt.items(),
                                            key=lambda kv: kv[0].itemsize))
                findings.append(Finding(
                    rule=RULE_PRECISION, severity=Severity.ERROR,
                    kernel=label, view=None,
                    detail=(f"launch binds mixed float dtypes ({desc}) "
                            f"without declaring precision_boundary: NumPy "
                            f"promotion silently runs the fp32 operands "
                            f"at fp64 — insert an explicit precision_cast "
                            f"at the family boundary"),
                    file=file, line=line))
            if (getattr(ftype, "accumulates", False)
                    and not getattr(ftype, "wide_accumulate", False)
                    and distinct == {np.dtype(np.float32)}):
                findings.append(Finding(
                    rule=RULE_PRECISION, severity=Severity.WARNING,
                    kernel=label, view=None,
                    detail=("fp32 accumulation: a column scan / depth "
                            "integral sums at float32, so rounding depends "
                            "on accumulation order and grows with depth; "
                            "assign the scan family fp64 (the 'mixed' "
                            "preset) or sum through an explicit fp64 "
                            "accumulator (wide_accumulate = True)"),
                    file=file, line=line))
    return findings


def certify_precision(graph: LaunchGraph) -> List[Finding]:
    """Proof that no fp32 sweep of a sealed graph silently promotes to
    fp64: the error-severity precision findings (accumulation warnings
    are not among them)."""
    return [f for f in check_precision(graph)
            if f.severity >= Severity.ERROR]


# --------------------------------------------------------------------------
# dataflow walk: abstract versions, halo freshness, dead work
# --------------------------------------------------------------------------


class _VState:
    """Abstract per-buffer dataflow state (keyed by View identity)."""

    __slots__ = ("version", "refreshed_version", "ever_refreshed",
                 "stale_inset", "last_write", "write_read")

    def __init__(self) -> None:
        self.version = 0              # bumped on every write
        self.refreshed_version = 0    # version at the last halo refresh
        self.ever_refreshed = False
        #: Distance from the array edge within which data may be stale
        #: (0 = halo valid everywhere).
        self.stale_inset = 0
        self.last_write: Optional[str] = None   # launch part label
        self.write_read = True        # last write consumed by some read


#: Walks over the node list per check.  A captured graph replays in a
#: loop, so steady-state staleness wraps around the step boundary;
#: findings are emitted on the last pass only.
PASSES = 3


class _Walker:
    """One dataflow walk over a sealed graph's node list."""

    def __init__(self, graph: LaunchGraph,
                 observations: Optional[Dict] = None) -> None:
        self.graph = graph
        self.observations = {} if observations is None else observations
        self.states: Dict[int, _VState] = {}
        self.names: Dict[int, str] = {}
        self.findings: List[Finding] = []
        self.emit = False
        self._seen: set = set()

    # -- bookkeeping -------------------------------------------------------

    def _key(self, obj) -> int:
        return id(obj)

    def _state(self, obj, name: str) -> _VState:
        key = self._key(obj)
        st = self.states.get(key)
        if st is None:
            st = self.states[key] = _VState()
        self.names.setdefault(key, name)
        return st

    def _find(self, rule: str, severity: Severity, kernel: str,
              view: Optional[str], detail: str,
              file: Optional[str] = None, line: Optional[int] = None) -> None:
        if not self.emit:
            return
        f = Finding(rule=rule, severity=severity, kernel=kernel, view=view,
                    detail=detail, file=file, line=line)
        if f.key in self._seen:
            return
        self._seen.add(f.key)
        self.findings.append(f)

    # -- geometry helpers --------------------------------------------------

    @staticmethod
    def _edge(boxes: Sequence[Box], shape: Tuple[int, ...]) -> int:
        """How far inside the array edge ``boxes`` stay, over the
        horizontal (last two) dimensions.  A 1-D array (a metric row or
        a column profile) has no halo ring, so it never goes stale."""
        if len(shape) < 2:
            return 0
        return min(min(box[d][0], shape[d] - 1 - box[d][1])
                   for box in boxes for d in (-2, -1))

    # -- node semantics ----------------------------------------------------

    def walk(self) -> List[Finding]:
        for p in range(PASSES):
            self.emit = p == PASSES - 1
            for node in self.graph.nodes:
                if isinstance(node, KernelNode):
                    self._kernel(node)
                elif isinstance(node, ExchangeNode):
                    self._exchange(node)
                elif isinstance(node, RotateNode):
                    self._rotate(node)
                else:
                    raise TypeError(f"graphcheck cannot walk {node!r}")
        return self.findings

    def _kernel(self, node: KernelNode) -> None:
        for obs in observe_node(node, self.observations):
            touched = obs.touched
            input_stale = 0
            # reads first: they see the state before this part's writes
            for name, b in touched.items():
                reads = [a.box for a in obs.reads(name)]
                if not reads:
                    continue
                st = self._state(b.obj, _display(b.obj, name))
                st.write_read = True
                ext = obs.reach(name)
                edge = self._edge(reads, b.shape)
                if ext > 0 and edge < st.stale_inset:
                    self._find(
                        RULE_STALE_HALO, Severity.ERROR, obs.label,
                        self.names[self._key(b.obj)],
                        (f"stencil read (offsets up to {ext}) reaches "
                         f"within {edge} of the boundary, but "
                         f"the halo is stale within {st.stale_inset} "
                         f"(written by {st.last_write!r} after the "
                         f"last refresh)"),
                        *source_of(obs.functor_type))
                input_stale = max(input_stale, st.stale_inset)
            for name, b in touched.items():
                writes = [a.box for a in obs.writes(name)]
                if not writes:
                    continue
                st = self._state(b.obj, _display(b.obj, name))
                if (st.last_write is not None and not st.write_read
                        and not obs.reads(name)):
                    self._find(
                        RULE_DEAD_STORE, Severity.INFO, st.last_write,
                        self.names[self._key(b.obj)],
                        (f"write is never read before {obs.label!r} "
                         f"overwrites the view"),
                        *source_of(obs.functor_type))
                # distance from the array edge the write leaves untouched
                # (0 = the write covers the full horizontal extent)
                inset = self._edge(writes, b.shape)
                st.version += 1
                if inset > 0:
                    # interior-only write: the untouched boundary ring
                    # now holds out-of-date data
                    st.stale_inset = max(inset, st.stale_inset, input_stale)
                else:
                    # full-range point-local write: freshness is that of
                    # the inputs it was computed from
                    st.stale_inset = input_stale
                st.last_write = obs.label
                st.write_read = False

    def _exchange(self, node: ExchangeNode) -> None:
        for obj, _, _ in node.fields:
            st = self._state(obj, _display(obj, "halo-field"))
            if st.ever_refreshed and st.refreshed_version == st.version:
                self._find(
                    RULE_REDUNDANT_EXCHANGE, Severity.INFO, node.label,
                    self.names[self._key(obj)],
                    ("halo exchange of a view nothing has written since "
                     "its previous refresh: the messages carry no new "
                     "data"))
            st.write_read = True       # the exchange consumes the interior
            st.ever_refreshed = True
            st.refreshed_version = st.version
            st.stale_inset = 0

    def _rotate(self, node: RotateNode) -> None:
        for triple in node.triples:
            states = [self._state(obj, _display(obj, "rotated"))
                      for obj in triple]
            old, cur, new = (self._key(o) for o in triple)
            # View.rebind permutation: old<-cur, cur<-new, new<-old
            self.states[old], self.states[cur], self.states[new] = \
                states[1], states[2], states[0]
            for st in states:
                st.write_read = True   # recycled buffers are not dead


def check_graph(graph: LaunchGraph,
                observations: Optional[Dict] = None) -> List[Finding]:
    """All graphcheck findings for one sealed graph: the precision
    discipline plus the multi-pass dataflow walk (stale halos, redundant
    exchanges, dead stores).  Each part is observed once;
    ``observations`` (an :func:`~.observe.observe_node` cache) lets a
    caller share the sweeps."""
    if not graph.sealed:
        raise ValueError("check_graph needs a sealed LaunchGraph")
    observations = {} if observations is None else observations
    findings = check_precision(graph, observations)
    findings.extend(_Walker(graph, observations).walk())
    return findings


def run_graphcheck(backends: Optional[Sequence[str]] = None) -> Report:
    """Verify the lint matrix's sealed graphs
    (:func:`~repro.analysis.runner.lint_matrix`), optionally only the
    configurations on ``backends``.

    Identical findings from different configurations are reported once,
    tagged with the first configuration that hit them.  Returns a
    :class:`Report` with ``tool="graphcheck"``; the CLI's ``lint
    --graph`` mode renders it exactly like a kernelcheck report.
    """
    from .runner import lint_matrix

    report = Report(rules_run=list(GRAPH_RULES), tool="graphcheck")
    seen: Dict[str, Finding] = {}
    kernels = 0
    for case in lint_matrix():
        if backends is not None and case.backend not in backends:
            continue
        for graph in case.graphs:
            kernels += graph.launches_per_replay
            for f in check_graph(graph, case.observations):
                if f.key not in seen:
                    f.detail += f" [{case.tag}]"
                    seen[f.key] = f
                    report.findings.append(f)
    report.kernels_checked = kernels
    return report
