"""Execution-space interface and reduction operators.

An :class:`ExecutionSpace` is where kernels run.  The library ships four,
matching Table I of the paper (the intranode programming models of every
major TOP500 architecture):

==================  =======================  =============================
Backend             Paper programming model  Module
==================  =======================  =============================
``serial``          (reference)              :mod:`.serial`
``openmp``          OpenMP (ARM / x86 CPUs)  :mod:`.openmp`
``athread``         Athread (Sunway CPEs)    :mod:`.athread` (this work)
``cuda`` / ``hip``  CUDA / HIP (GPUs)        :mod:`.device`
==================  =======================  =============================

A launch has one implementation per backend, its :class:`LaunchPlan`:
an eager ``parallel_for`` builds the plan and runs it once, a sealed
:class:`~repro.kokkos.graph.LaunchGraph` builds it at seal and replays
it, so both paths run the same body and charge the same ledgers.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from ...errors import BackendError
from ..instrument import Instrumentation
from ..policy import MDRangePolicy, as_md
from ..spaces import HostSpace, MemorySpace
from ..view import View


class Reducer:
    """A reduction operator: identity element + combine functions."""

    def __init__(self, name: str, identity, combine: Callable, np_reduce: Callable):
        self.name = name
        self.identity = identity
        self.combine = combine
        self.np_reduce = np_reduce

    def reduce_array(self, arr) -> float:
        """Reduce a NumPy array (vectorised partial reductions)."""
        arr = np.asarray(arr)
        if arr.size == 0:
            return self.identity
        return self.np_reduce(arr)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Reducer({self.name})"


Sum = Reducer("Sum", 0.0, lambda a, b: a + b, np.sum)
Prod = Reducer("Prod", 1.0, lambda a, b: a * b, np.prod)
Min = Reducer("Min", np.inf, min, np.min)
Max = Reducer("Max", -np.inf, max, np.max)


def functor_views(functor) -> Tuple[View, ...]:
    """All :class:`View` attributes held by a functor instance."""
    found = []
    for value in vars(functor).values():
        if isinstance(value, View):
            found.append(value)
        elif isinstance(value, (list, tuple)):
            found.extend(v for v in value if isinstance(v, View))
    return tuple(found)


def functor_cost(functor) -> Tuple[float, float]:
    """(flops_per_point, bytes_per_point) declared by a functor."""
    flops = float(getattr(functor, "flops_per_point", 0.0))
    nbytes = float(getattr(functor, "bytes_per_point", 8.0))
    return flops, nbytes


def staging_split(functor) -> Tuple[float, float]:
    """(bytes_in_per_point, bytes_out_per_point) a tile stages per point.

    A functor that does not declare the split is taken to read two
    thirds of its ``bytes_per_point`` and write one third.
    """
    _, nbytes = functor_cost(functor)
    return (float(getattr(functor, "bytes_in_per_point", nbytes * 2.0 / 3.0)),
            float(getattr(functor, "bytes_out_per_point", nbytes / 3.0)))


def functor_dtype(functor) -> str:
    """Dtype tag of the views a launch binds: ``"f8"``, ``"f4"``, ``"f4+f8"``.

    The precision policy's footprint in the trace: every kernel span is
    labelled with the float width(s) it actually touched, so mixed runs
    show their cast boundaries (``f4+f8``) and the predicted timeline
    can price narrow sweeps at their real byte volume.
    """
    stack = [functor]
    kinds = set()
    while stack:
        f = stack.pop()
        kinds.update(v.raw.dtype.str[1:] for v in functor_views(f))
        # fused composites hold sub-functors, not views — recurse
        stack.extend(getattr(f, "parts", ()))
    return "+".join(sorted(kinds)) if kinds else "f8"


class LaunchPlan:
    """One launch with its dispatch work done once, ready to run.

    A plan is both launch paths of a backend: an eager ``parallel_for``
    builds one and runs it once (:meth:`ExecutionSpace.run_for`), a
    sealed graph builds one per node and replays it.  Plans hold the
    bound functor *instance*, whose views each keep one buffer for life:
    a replayed plan runs on the same arrays every time.

    A concrete backend's plan binds its launch body once, at
    construction (:func:`repro.kokkos.jit.compile_sweep`, or the
    registered callback on Athread); ``run()`` is that body plus the
    backend's ledger update.
    """

    __slots__ = ("space", "label", "policy", "functor",
                 "_points", "_flops", "_bytes", "_sweep")

    #: What serves the plan, as reports and traces name it: ``codegen``
    #: is a body bound at construction, ``eager`` is ``run_for``
    #: dispatch on every replay (:class:`_GenericPlan`).
    tier = "codegen"

    def __init__(self, space: "ExecutionSpace", label: str,
                 policy: MDRangePolicy, functor) -> None:
        self.space = space
        self.label = label
        self.policy = policy
        self.functor = functor
        self._points = policy.size
        self._flops, self._bytes = functor_cost(functor)

    def _record(self, tiles: int) -> None:
        self.space.inst.record_launch(
            self.label,
            points=self._points,
            tiles=tiles,
            flops_per_point=self._flops,
            bytes_per_point=self._bytes,
        )

    def run(self) -> None:
        raise NotImplementedError


class _GenericPlan(LaunchPlan):
    """Replay through the space's own ``run_for`` (an interceptor's)."""

    __slots__ = ()

    tier = "eager"

    def run(self) -> None:
        self.space.run_for(self.label, self.policy, self.functor)


def _kernel_span(tr, label: str, policy: MDRangePolicy, functor, **extra):
    """The ``kernel`` span of one launch: its size, cost and dtype, plus
    whatever a sealed plan adds (``fused``, ``jit``)."""
    flops, nbytes = functor_cost(functor)
    points = policy.size
    return tr.span(label, cat="kernel", points=points, flops=flops * points,
                   bytes=nbytes * points, dtype=functor_dtype(functor),
                   **extra)


class ExecutionSpace:
    """Base class for execution spaces (backends).

    A backend names its :class:`LaunchPlan` subclass in
    :attr:`plan_class`; that plan is the space's one launch, run once by
    an eager ``parallel_for`` and replayed by a sealed graph.
    """

    #: Backend identifier, e.g. ``"athread"``.
    name: str = "abstract"
    #: Intranode programming model the backend stands in for.
    programming_model: str = "n/a"
    #: Degree of parallelism the backend models.
    concurrency: int = 1
    #: Where this space wants its views allocated.
    memory_space: MemorySpace = HostSpace
    #: The plan every launch on this space builds.
    plan_class: type = LaunchPlan

    def __init__(self, inst: Optional[Instrumentation] = None) -> None:
        #: The ledger this space records into: the owner's when one is
        #: passed, otherwise a private one.
        self.inst = inst if inst is not None else Instrumentation()
        #: Optional :class:`repro.trace.Tracer` wired in by the owning
        #: :class:`~repro.kokkos.context.ExecutionContext`; every launch
        #: becomes a ``kernel`` span while it is enabled.
        self.tracer = None

    # -- launches ----------------------------------------------------------

    def run_for(self, label: str, policy: MDRangePolicy, functor) -> None:
        """The one eager launch: build the space's plan and run it once."""
        self.plan_class(self, label, policy, functor).run()

    def run_reduce(self, label: str, policy: MDRangePolicy, functor, reducer: Reducer):
        raise NotImplementedError

    def fence(self) -> None:
        """Wait for all outstanding work (the synchronous backends have
        none to wait for).  An exchange node calls it before it
        touches a buffer (:mod:`repro.kokkos.graph`)."""

    @staticmethod
    def _full_slices(policy: MDRangePolicy) -> Tuple[slice, ...]:
        return tuple(slice(b, e) for b, e in policy.ranges)

    def parallel_for(self, label: str, policy, functor) -> None:
        """Execute ``functor`` over ``policy`` (normalised)."""
        md = as_md(policy)
        tr = self.tracer
        if tr is None or not tr.enabled:
            self.run_for(label, md, functor)
            return
        with _kernel_span(tr, label, md, functor):
            self.run_for(label, md, functor)

    def parallel_reduce(self, label: str, policy, functor, reducer: Reducer = Sum):
        """Reduce ``functor`` contributions over ``policy``."""
        md = as_md(policy)
        tr = self.tracer
        if tr is None or not tr.enabled:
            return self.run_reduce(label, md, functor, reducer)
        with _kernel_span(tr, label, md, functor):
            return self.run_reduce(label, md, functor, reducer)

    # -- sealed launch plans (graph replay) --------------------------------

    def plan_type(self) -> type:
        """The :class:`LaunchPlan` subclass this space seals launches into.

        :attr:`plan_class` — unless a subclass overrides ``run_for`` (a
        differential-testing wrapper, say), which must keep seeing every
        launch: that space gets the generic plan, ``run_for`` per replay.
        """
        if type(self).run_for is not ExecutionSpace.run_for:
            return _GenericPlan
        return self.plan_class

    def prepare_plan(self, label: str, policy, functor) -> LaunchPlan:
        """Front-load a launch's dispatch work into a replayable plan.

        A :class:`LaunchPlan` bakes in everything ``parallel_for`` does
        besides the body — policy normalisation, memory-space checks,
        tiling, registry lookup — so :meth:`run_plan` is near-zero
        dispatch.
        """
        return self.plan_type()(self, label, as_md(policy), functor)

    def run_plan(self, plan: LaunchPlan) -> None:
        """Execute a plan produced by :meth:`prepare_plan`."""
        tr = self.tracer
        if tr is None or not tr.enabled:
            plan.run()
            return
        extra = {}
        labels = getattr(plan.functor, "labels", None)
        if labels:
            # a fused sweep replays as ONE launch: one span, with the
            # constituent kernel labels in the payload
            extra["fused"] = list(labels)
        if plan.tier != "eager":
            # swept vs run_for-dispatched launches are distinguishable in
            # Perfetto (and priced differently by the predicted timeline)
            extra["jit"] = plan.tier
        with _kernel_span(tr, plan.label, plan.policy, plan.functor, **extra):
            plan.run()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(concurrency={self.concurrency})"


def reduce_tile(functor, slices: Sequence[slice], reducer: Reducer):
    """Reduce a functor over one tile, preferring the vectorised body."""
    reduce_apply = getattr(functor, "reduce_apply", None)
    if reduce_apply is not None:
        return reduce_apply(tuple(slices))
    from ..functor import _iter_indices

    acc = reducer.identity
    point = getattr(functor, "reduce", functor)
    for idx in _iter_indices(slices):
        acc = reducer.combine(acc, point(*idx))
    return acc


def check_host_views(functor, backend_name: str) -> None:
    """Host backends refuse device-resident views (Kokkos access rules)."""
    bad = [v.label for v in functor_views(functor) if not v.space.host_accessible]
    if bad:
        raise BackendError(
            f"backend {backend_name!r} executes in host space but functor "
            f"{type(functor).__name__} holds device views: {bad}; "
            "deep_copy them to host mirrors first"
        )
