"""graphcheck — whole-schedule dataflow verifier for sealed launch graphs.

kernelcheck proves properties of one kernel body at a time; this module
proves properties of the *schedule*: it walks a sealed
:class:`~repro.kokkos.graph.LaunchGraph` — kernel launches, fused nodes,
and the two typed non-kernel nodes, whose ``run()`` does exactly what
the walk reads from them: an :class:`~repro.kokkos.graph.ExchangeNode`
refreshes the halos of its ``fields``, a
:class:`~repro.kokkos.graph.RotateNode` permutes the buffers of its
``triples`` (every piece of arithmetic is a launch) — and assigns every
``View`` an abstract version per launch, derived from the kernelcheck
footprints of each plan part.  A fused node is walked part
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
    A launch part binding fp32 and fp64 arrays without declaring a
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
builds the production-path demo model on every backend and verifies
each sealed step graph).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..kokkos.graph import ExchangeNode, KernelNode, LaunchGraph, RotateNode
from ..kokkos.view import View
from .findings import Finding, Report, Severity
from .footprint import build_footprint
from .rules import (
    GRAPH_RULES,
    RULE_DEAD_STORE,
    RULE_PRECISION,
    RULE_REDUNDANT_EXCHANGE,
    RULE_STALE_HALO,
)

__all__ = [
    "PartAccess",
    "certify_precision",
    "check_graph",
    "check_precision",
    "run_graphcheck",
]


# --------------------------------------------------------------------------
# footprint resolution: (label, functor) part -> concrete buffers
# --------------------------------------------------------------------------


def _resolve(functor, dotted: str):
    """Resolve a footprint view name (``w``, ``dom.mask_t``) on the
    bound functor instance; returns a View, an ndarray, or None."""
    obj = functor
    for name in dotted.split("."):
        obj = getattr(obj, name, None)
        if obj is None:
            return None
    if isinstance(obj, (View, np.ndarray)):
        return obj
    return None


def _buffer(obj) -> Optional[np.ndarray]:
    if isinstance(obj, View):
        return obj.raw
    if isinstance(obj, np.ndarray):
        return obj
    return None


def _display(obj, fallback: str) -> str:
    if isinstance(obj, View):
        return obj.label
    return fallback


@dataclass
class PartAccess:
    """One plan part's accesses, resolved to concrete buffers.

    ``targets`` maps footprint view names to the resolved View/ndarray;
    ``footprints`` holds the per-view :class:`ViewFootprint` records.
    ``unanalyzable`` is set when the body defeated the abstract
    interpreter or a written view could not be resolved.
    """

    label: str
    functor: object
    ndim: int
    targets: Dict[str, object] = field(default_factory=dict)
    footprints: Dict[str, object] = field(default_factory=dict)
    unanalyzable: Optional[str] = None
    file: Optional[str] = None
    line: Optional[int] = None


#: (functor_type, ndim) -> kernelcheck footprint (None on analyzer crash).
_FP_CACHE: Dict[Tuple[type, int], object] = {}


def part_footprint(ftype: type, ndim: int):
    """Cached kernelcheck footprint of one plan part.

    Returns ``None`` when the static analyzer itself fails (callers
    must stay conservative); a footprint whose ``error`` is set means
    the body resisted analysis.
    """
    key = (ftype, ndim)
    if key not in _FP_CACHE:
        try:
            _FP_CACHE[key] = build_footprint(
                ftype.__name__, ftype, ndim=ndim, kind="for")
        except Exception:
            _FP_CACHE[key] = None
    return _FP_CACHE[key]


def _part_access(label: str, functor, ndim: int) -> PartAccess:
    pa = PartAccess(label=label, functor=functor, ndim=ndim)
    fp = part_footprint(type(functor), ndim)
    if fp is None or fp.error is not None:
        pa.unanalyzable = fp.error if fp is not None else "no footprint"
        return pa
    pa.file, pa.line = fp.file, fp.line
    for name, vf in fp.views.items():
        obj = _resolve(functor, name)
        if obj is None:
            if vf.writes:
                pa.unanalyzable = f"cannot resolve written view {name!r}"
            continue
        pa.targets[name] = obj
        pa.footprints[name] = vf
    return pa


def _node_parts(node: KernelNode) -> List[PartAccess]:
    ndim = len(node.policy.extents)
    return [_part_access(label, functor, ndim)
            for label, functor in node.parts()]


# --------------------------------------------------------------------------
# precision-promotion: mixed-dtype discipline over the sealed schedule
# --------------------------------------------------------------------------

_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


def _part_float_dtypes(pa: PartAccess) -> Dict[str, np.dtype]:
    """Footprint view name -> float dtype for every resolved array."""
    out: Dict[str, np.dtype] = {}
    for name, obj in pa.targets.items():
        buf = _buffer(obj)
        if buf is not None and buf.dtype in _FLOAT_DTYPES:
            out[name] = buf.dtype
    return out


def check_precision(graph: LaunchGraph) -> List[Finding]:
    """The ``precision-promotion`` rule family over one sealed graph.

    Every launch part must be *dtype-uniform* across the float arrays it
    binds (fields, work views, geometry) unless its functor declares
    ``precision_boundary = True`` — the marker for sanctioned family
    boundaries: explicit ``precision_cast`` launches and value-exact
    widening consumers (EOS, depth-mean scans).  Anything else binding
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
    """
    findings: List[Finding] = []
    for node in graph.nodes:
        if not isinstance(node, KernelNode):
            continue
        ndim = len(node.policy.extents)
        for label, functor in node.parts():
            pa = _part_access(label, functor, ndim)
            dtypes = _part_float_dtypes(pa)
            if not dtypes:
                continue
            distinct = set(dtypes.values())
            boundary = bool(getattr(type(functor), "precision_boundary",
                                    False))
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
                    file=pa.file, line=pa.line))
            if (getattr(type(functor), "accumulates", False)
                    and not getattr(type(functor), "wide_accumulate", False)
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
                    file=pa.file, line=pa.line))
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

    def __init__(self, graph: LaunchGraph) -> None:
        self.graph = graph
        self.states: Dict[int, _VState] = {}
        self.names: Dict[int, str] = {}
        self.findings: List[Finding] = []
        self.emit = False
        self._seen: set = set()
        self._parts_cache: Dict[int, List[PartAccess]] = {}

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
    def _h_axes(ndim: int) -> Tuple[int, int]:
        return (ndim - 2, ndim - 1)

    def _margin(self, policy, shape: Tuple[int, ...], ax: int,
                ndim: int) -> int:
        """Distance from the loop range's edge to the array edge on one
        horizontal loop axis (loop axis ``ax`` maps to view dimension
        ``ax - ndim``, counting from the end).  Arrays with fewer
        dimensions than the loop (1-D column/row geometry) have no
        horizontal ring at all: unbounded margin."""
        idx = ax - ndim
        if -idx > len(shape):
            return 10 ** 9
        begin, end = policy.ranges[ax]
        dim = shape[idx]
        return max(0, min(int(begin), int(dim) - int(end)))

    def _read_reach(self, policy, shape, vf, ndim: int) -> int:
        """How far inside the array edge the read's footprint stays:
        ``min(margin - extent)`` over the horizontal loop axes the view
        is offset-indexed by.  A reach below the stale inset touches
        stale halo cells."""
        reach = None
        for ax in self._h_axes(ndim):
            rng = vf.offsets.get(ax)
            if rng is None:
                continue
            r = self._margin(policy, shape, ax, ndim) - rng.extent
            reach = r if reach is None else min(reach, r)
        return reach if reach is not None else 10 ** 9

    def _write_inset(self, policy, shape, ndim: int) -> int:
        """Distance from the array edge the launch range leaves
        untouched (0 = the write covers the full horizontal extent)."""
        if len(shape) < 2:
            return 0   # no horizontal ring to leave stale
        return min(self._margin(policy, shape, ax, ndim)
                   for ax in self._h_axes(ndim))

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

    def _parts(self, node: KernelNode) -> List[PartAccess]:
        key = id(node)
        got = self._parts_cache.get(key)
        if got is None:
            got = self._parts_cache[key] = _node_parts(node)
        return got

    def _kernel(self, node: KernelNode) -> None:
        ndim = len(node.policy.extents)
        for pa in self._parts(node):
            if pa.unanalyzable and not pa.targets:
                continue
            input_stale = 0
            # reads first: they see the state before this part's writes
            for name, vf in pa.footprints.items():
                if vf.reads == 0 and vf.aug_writes == 0:
                    continue
                obj = pa.targets[name]
                buf = _buffer(obj)
                st = self._state(obj, _display(obj, name))
                st.write_read = True
                ext = vf.horizontal_halo(ndim)
                if ext > 0 and buf is not None:
                    reach = self._read_reach(node.policy, buf.shape, vf, ndim)
                    if reach < st.stale_inset:
                        self._find(
                            RULE_STALE_HALO, Severity.ERROR, pa.label,
                            self.names[self._key(obj)],
                            (f"stencil read (offsets up to {ext}) reaches "
                             f"within {max(reach, 0)} of the boundary, but "
                             f"the halo is stale within {st.stale_inset} "
                             f"(written by {st.last_write!r} after the "
                             f"last refresh)"),
                            file=pa.file, line=pa.line)
                input_stale = max(input_stale, st.stale_inset)
            for name, vf in pa.footprints.items():
                if vf.writes == 0:
                    continue
                obj = pa.targets[name]
                buf = _buffer(obj)
                st = self._state(obj, _display(obj, name))
                reads_self = vf.reads > 0 or vf.aug_writes > 0
                if (st.last_write is not None and not st.write_read
                        and not reads_self):
                    self._find(
                        RULE_DEAD_STORE, Severity.INFO, st.last_write,
                        self.names[self._key(obj)],
                        (f"write is never read before {pa.label!r} "
                         f"overwrites the view"),
                        file=pa.file, line=pa.line)
                inset = 0
                if buf is not None:
                    inset = self._write_inset(node.policy, buf.shape, ndim)
                st.version += 1
                if inset > 0:
                    # interior-only write: the untouched boundary ring
                    # now holds out-of-date data
                    st.stale_inset = max(inset, st.stale_inset, input_stale)
                else:
                    # full-range point-local write: freshness is that of
                    # the inputs it was computed from
                    st.stale_inset = input_stale
                st.last_write = pa.label
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


def check_graph(graph: LaunchGraph) -> List[Finding]:
    """All graphcheck findings for one sealed graph: the precision
    discipline plus the multi-pass dataflow walk (stale halos, redundant
    exchanges, dead stores)."""
    if not graph.sealed:
        raise ValueError("check_graph needs a sealed LaunchGraph")
    findings = check_precision(graph)
    findings.extend(_Walker(graph).walk())
    return findings


# --------------------------------------------------------------------------
# lint driver: verify the demo model's step graphs on every backend
# --------------------------------------------------------------------------


#: The matrix :func:`run_graphcheck` builds: the demo model of this size
#: on its production path (``graph=True``), stepped until both step
#: variants (startup forward step, leapfrog) have sealed, on every
#: backend at the first precision preset; the other presets once each on
#: the first backend (the graphs are backend-independent node lists).
#: "mixed" exercises the precision-promotion rules on a schedule with
#: real cast boundaries.
BACKENDS = ("serial", "openmp", "athread", "cuda")
PRECISIONS = ("double", "mixed")
SIZE = "tiny"
STEPS = 2


def run_graphcheck(backends: Sequence[str] = BACKENDS) -> Report:
    """Build, seal and verify the demo model's launch graphs.

    Identical findings from different configurations are reported once,
    tagged with the first configuration that hit them.  Returns a
    :class:`Report` with ``tool="graphcheck"``; the CLI's ``lint
    --graph`` mode renders it exactly like a kernelcheck report.
    """
    from ..ocean.config import demo
    from ..ocean.model import LICOMKpp, ModelParams

    report = Report(rules_run=list(GRAPH_RULES), tool="graphcheck")
    seen: Dict[str, Finding] = {}
    kernels = 0
    combos = [(b, PRECISIONS[0]) for b in backends]
    combos += [(backends[0], p) for p in PRECISIONS[1:]]
    for backend, precision in combos:
        tag = f"backend={backend}, precision={precision}"
        model = LICOMKpp(
            demo(SIZE), backend=backend,
            params=ModelParams(graph=True, check_every=0,
                               precision=precision))
        try:
            model.run_steps(STEPS)
            for graph in model._graphs.values():
                if not graph.sealed:
                    continue
                kernels += graph.launches_per_replay
                for f in check_graph(graph):
                    if f.key not in seen:
                        f.detail += f" [{tag}]"
                        seen[f.key] = f
                        report.findings.append(f)
        finally:
            model.close()
    report.kernels_checked = kernels
    return report
