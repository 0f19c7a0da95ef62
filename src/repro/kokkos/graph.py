"""``LaunchGraph``: step-graph capture & replay with elementwise fusion.

The Kokkos-Graphs / CUDA-Graphs idiom, applied to the Python dispatch
path: the model records one baroclinic step's launch sequence — labels,
normalised policies and *bound functor instances* — then subsequent
steps ``replay()`` through per-backend :class:`~.backends.base.LaunchPlan`
objects with near-zero dispatch work.  Between launches a step has only
two other kinds of node, each typed by what it does: an
:class:`ExchangeNode` (one fused halo exchange, the paper's §V-D step)
and a :class:`PhaseNode` (entering or leaving one timer region).  Every
piece of step arithmetic is a launch, as in LICOMK++ where only the
exchange leaves the device.  A node's ``run()`` is the one entry point
for the eager step, the capture and every replay, and a node that
touches a buffer fences the space first — so the graph reproduces the
eager step exactly, times it the same way, and a node cannot forget its
fence.

A graph's views and their buffers are fixed: every replay runs the same
launches on the same arrays.  A step whose views differ (another
leapfrog phase binds the time levels to other roles) is another graph;
the owner keys its graphs by step variant, and stores a binding
signature (view identities + numeric parameters baked into functor
instances) on each sealed graph — when it no longer matches, the owner
drops the graph and re-captures.

On top of the recording, :meth:`LaunchGraph.seal` fuses every maximal
run of adjacent untiled ``parallel_for`` launches with identical
iteration ranges and no other node between them into one
launch — one spawn/join on the CPEs, one kernel launch on the GPU,
instead of N.
The fused launch's plan runs each part over the *whole range* before
the next part starts (:func:`repro.kokkos.jit.compile_sweep`), in
capture order: that is the eager launch sequence, so the fusion is
bitwise identical to it whether the parts are point-local, independent
stencils or a dependent stencil chain.  No legality analysis is needed
and none is run.

The one exception is observed, not configured: a space whose plans
replay through ``run_for`` (:meth:`ExecutionSpace.plan_type` is the
generic plan — a custom backend, or a subclass intercepting ``run_for``
such as a differential-testing wrapper) seals the captured launches
*unfused*, so the interceptor keeps seeing every launch under its own
label.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Dict, List, Optional, Sequence, Tuple

from .backends.base import (
    ExecutionSpace,
    _GenericPlan,
    functor_cost,
    staging_split,
)
from .functor import kokkos_register_for
from .jit import _part_stage
from .policy import MDRangePolicy, as_md

#: Shared no-op context: the traced paths allocate nothing when tracing
#: is off, keeping graph replay dispatch at its measured cost.
_NO_SPAN = nullcontext()


@kokkos_register_for("fused_launch", ndim=3)
class FusedTileFunctor:
    """N adjacent same-range launches sealed into one.

    Its body, :meth:`apply`, runs each of ``parts`` over the whole of
    the slices it is handed, in capture order — the eager launch
    sequence (the threaded OpenMP plan runs the parts as stages of its
    own, :func:`repro.kokkos.jit.compile_sweep`).  What it carries
    besides is the launch's metadata — ``labels`` for traces and
    graphcheck, cost declarations summed over the parts so the
    instrumentation and the Athread LDM sizing stay honest, and
    ``stencil_halo`` as the widest ring any part reads, so the Athread
    ledger stages (and the LDM fit proof covers) the union working set.
    """

    #: Composite: kernelcheck observes the parts individually.
    __kernelcheck_skip__ = True

    def __init__(self, parts: Sequence, labels: Sequence[str]) -> None:
        self.parts = list(parts)
        self.labels = list(labels)
        self.stencil_halo = max(
            max(0, int(getattr(p, "stencil_halo", 0))) for p in parts)
        (self.flops_per_point, self.bytes_per_point,
         self.bytes_in_per_point, self.bytes_out_per_point) = map(
            sum, zip(*(functor_cost(p) + staging_split(p) for p in parts)))
        self._stages = [_part_stage(p) for p in self.parts]

    def apply(self, slices) -> None:
        for stage in self._stages:
            stage(slices)


class KernelNode:
    """One recorded ``parallel_for`` (label, policy, bound functor)."""

    __slots__ = ("label", "policy", "functor", "plan")

    def __init__(self, label: str, policy: MDRangePolicy, functor) -> None:
        self.label = label
        self.policy = policy
        self.functor = functor
        self.plan = None

    def parts(self) -> List[Tuple[str, object]]:
        """Per-plan-part ``(label, functor)`` pairs.

        Fused nodes expose their member bodies; a plain launch is its
        own single part.  This is the unit the verifiers observe: one
        recorded sweep per part (``repro.analysis.observe``).
        """
        inner = getattr(self.functor, "parts", None)
        if inner:
            labels = getattr(self.functor, "labels", None) or \
                [self.label] * len(inner)
            return list(zip(labels, inner))
        return [(self.label, self.functor)]


class ExchangeNode:
    """One halo exchange of several fields: a step of the schedule.

    ``fields`` are ``(view, sign, fill)`` triples that travel together in
    one message per remote neighbour per phase, or one in-place copy
    where the neighbour is this rank (``halo2`` / ``halo3`` by the
    fields' rank).  :meth:`run` is all the node does, and all graphcheck
    reads from it: the fields' ghost cells are refreshed, nothing else.
    On a space that is not host-accessible each field's ghost ring is
    staged through the host (the paper's systems lack GPU-aware MPI,
    §V-D); the per-field byte counts are fixed at construction, and so
    is the ``(buffer, sign, fill)`` list handed to the halo updater.
    """

    __slots__ = ("label", "space", "halo", "fields", "phase", "staging",
                 "_buffers")

    def __init__(self, label: str, space: ExecutionSpace, halo,
                 fields: Sequence) -> None:
        self.label = label
        self.space = space
        self.halo = halo
        self.fields = tuple(fields)
        self.phase = f"halo{self.fields[0][0].ndim}"
        h = halo.decomp.halo
        #: Device staging bytes per field, each way (empty on host spaces).
        self.staging = () if space.memory_space.host_accessible else tuple(
            (v.shape[0] if v.ndim == 3 else 1) * 2 * h
            * (v.shape[-2] + v.shape[-1]) * float(v.raw.itemsize)
            for v, _, _ in self.fields)
        self._buffers = [(v.raw, sign, fill) for v, sign, fill in self.fields]

    def run(self) -> None:
        self.space.fence()   # the exchange packs results of in-flight launches
        if self.staging:
            tr = self.space.inst.transfers
            for nbytes in self.staging:
                tr.record_d2h(nbytes)
                tr.record_h2d(nbytes)
        # looked up per run: an instrumented updater may wrap the method
        self.halo.update_many(self._buffers, phase=self.phase)


class PhaseNode:
    """Enter or leave one timer region: a phase mark of the step.

    The model brackets each phase of its step with an entering and a
    leaving mark, so the eager step, the capture and every replay run
    the same ``TimerRegistry.start`` / ``stop`` calls — one attribution
    for ``timers.report()`` and the trace's ``timer`` spans.  A mark
    touches no buffer: it needs no fence, and graphcheck walks past it.
    """

    __slots__ = ("timers", "label", "enter")

    def __init__(self, timers, label: str, enter: bool) -> None:
        self.timers = timers
        self.label = label
        self.enter = enter

    def run(self) -> None:
        if self.enter:
            self.timers.start(self.label)
        else:
            self.timers.stop(self.label)


class LaunchGraph:
    """A captured launch sequence, sealable into a replayable plan list."""

    def __init__(self, space: ExecutionSpace) -> None:
        self.space = space
        self.nodes: List[object] = []
        self.sealed = False
        #: Binding signature the owner compares to decide re-capture.
        self.signature: Optional[tuple] = None
        self.replays = 0
        self.captured_launches = 0
        self.fused_groups = 0

    # -- capture -----------------------------------------------------------

    def add(self, node) -> None:
        """Record one node: a :class:`KernelNode`, :class:`ExchangeNode`
        or :class:`PhaseNode`."""
        if self.sealed:
            raise RuntimeError("cannot record into a sealed LaunchGraph")
        self.nodes.append(node)
        if isinstance(node, KernelNode):
            self.captured_launches += 1

    def add_kernel(self, label: str, policy, functor) -> None:
        self.add(KernelNode(label, as_md(policy), functor))

    # -- fusion ------------------------------------------------------------

    def _fuse_nodes(self, nodes: List[object]) -> List[object]:
        """Merge each maximal run of adjacent untiled same-range launches
        (no other node between them) into one fused node."""
        out: List[object] = []
        run: List[KernelNode] = []

        def flush() -> None:
            if len(run) > 1:
                out.append(KernelNode(
                    "fused[" + "+".join(n.label for n in run) + "]",
                    run[0].policy,
                    FusedTileFunctor([n.functor for n in run],
                                     [n.label for n in run])))
                self.fused_groups += 1
            else:
                out.extend(run)
            run.clear()

        for node in nodes:
            if isinstance(node, KernelNode) and node.policy.tile is None:
                if run and run[-1].policy.ranges != node.policy.ranges:
                    flush()
                run.append(node)
            else:
                flush()
                out.append(node)
        flush()
        return out

    # -- seal / replay -----------------------------------------------------

    def _span(self, name: str, **args):
        tr = getattr(self.space, "tracer", None)
        if tr is not None and tr.enabled:
            return tr.span(name, cat="graph", **args)
        return _NO_SPAN

    def seal(self) -> "LaunchGraph":
        """Fuse adjacent launches and prepare the space's launch plans.

        A space whose plans replay through ``run_for`` keeps the
        captured launches as they are (see the module docstring).
        """
        if self.sealed:
            return self
        with self._span("graph_seal", captured=self.captured_launches):
            if self.space.plan_type() is not _GenericPlan:
                self.nodes = self._fuse_nodes(self.nodes)
            for node in self.nodes:
                if isinstance(node, KernelNode):
                    node.plan = self.space.prepare_plan(
                        node.label, node.policy, node.functor)
        self.sealed = True
        return self

    def replay(self) -> None:
        """Re-execute the captured step through the cached plans."""
        if not self.sealed:
            raise RuntimeError("seal() the LaunchGraph before replay()")
        with self._span("graph_replay", launches=self.launches_per_replay,
                        fused_groups=self.fused_groups):
            run_plan = self.space.run_plan
            nodes = self.nodes
            try:
                for i, node in enumerate(nodes):
                    if isinstance(node, KernelNode):
                        run_plan(node.plan)
                    else:
                        node.run()
            except BaseException:
                # leave, innermost first, each phase this replay entered
                # and did not leave, as an eager ``with`` does: the timer
                # stack and the open spans stay balanced
                entered: List[PhaseNode] = []
                for node in nodes[:i]:
                    if isinstance(node, PhaseNode):
                        if node.enter:
                            entered.append(node)
                        else:
                            entered.pop()
                for node in reversed(entered):
                    node.timers.stop(node.label)
                raise
        self.replays += 1

    # -- introspection -----------------------------------------------------

    @property
    def launches_per_replay(self) -> int:
        """Kernel launches one replay issues (after fusion)."""
        return sum(1 for n in self.nodes if isinstance(n, KernelNode))

    def kernel_tiers(self) -> List[Tuple[str, str]]:
        """Per-kernel (label, execution tier) of the sealed graph."""
        return [(n.label, getattr(n.plan, "tier", "eager"))
                for n in self.nodes if isinstance(n, KernelNode)]

    @property
    def compiled_launches(self) -> int:
        """Launches per replay that run a body bound at seal (every launch
        on the concrete backends, none on a ``run_for``-replaying space)."""
        return sum(1 for _, tier in self.kernel_tiers() if tier != "eager")

    @property
    def jit_coverage(self) -> float:
        """Fraction of replayed launches that run a body bound at seal."""
        launches = self.launches_per_replay
        return self.compiled_launches / launches if launches else 0.0

    def stats(self) -> Dict[str, object]:
        """One sealed graph's vitals as a plain dict.

        The serving layer reports these per shared engine (how much work
        one sealed plan amortised across jobs); keys are stable and all
        values are JSON-serialisable.
        """
        return {
            "sealed": self.sealed,
            "captured_launches": self.captured_launches,
            "launches_per_replay": self.launches_per_replay,
            "fused_groups": self.fused_groups,
            "compiled_launches": self.compiled_launches,
            "jit_coverage": self.jit_coverage,
            "replays": self.replays,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        steps = len(self.nodes) - self.launches_per_replay
        return (f"LaunchGraph(launches={self.launches_per_replay}, "
                f"other_nodes={steps}, captured={self.captured_launches}, "
                f"fused_groups={self.fused_groups}, "
                f"compiled={self.compiled_launches}, sealed={self.sealed})")
