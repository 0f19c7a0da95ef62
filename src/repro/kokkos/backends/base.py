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


class ExecutionSpace:
    """Base class for execution spaces (backends)."""

    #: Backend identifier, e.g. ``"athread"``.
    name: str = "abstract"
    #: Intranode programming model the backend stands in for.
    programming_model: str = "n/a"
    #: Degree of parallelism the backend models.
    concurrency: int = 1
    #: Where this space wants its views allocated.
    memory_space: MemorySpace = HostSpace

    def __init__(self, inst: Optional[Instrumentation] = None) -> None:
        #: The ledger this space records into: the owner's when one is
        #: passed, otherwise a private one.
        self.inst = inst if inst is not None else Instrumentation()
        #: Optional :class:`repro.trace.Tracer` wired in by the owning
        #: :class:`~repro.kokkos.context.ExecutionContext`; every launch
        #: becomes a ``kernel`` span while it is enabled.
        self.tracer = None

    # -- required API ------------------------------------------------------

    def run_for(self, label: str, policy: MDRangePolicy, functor) -> None:
        raise NotImplementedError

    def run_reduce(self, label: str, policy: MDRangePolicy, functor, reducer: Reducer):
        raise NotImplementedError

    def fence(self) -> None:
        """Wait for all outstanding work (the synchronous backends have
        none to wait for).  Exchange and rotate graph nodes call it
        before they touch a buffer (:mod:`repro.kokkos.graph`)."""

    # -- shared helpers ----------------------------------------------------

    def _record(self, label: str, policy: MDRangePolicy, functor, tiles: int = 1) -> None:
        flops, nbytes = functor_cost(functor)
        self.inst.record_launch(
            label,
            points=policy.size,
            tiles=tiles,
            flops_per_point=flops,
            bytes_per_point=nbytes,
        )

    @staticmethod
    def _full_slices(policy: MDRangePolicy) -> Tuple[slice, ...]:
        return tuple(slice(b, e) for b, e in policy.ranges)

    def parallel_for(self, label: str, policy, functor) -> None:
        """Execute ``functor`` over ``policy`` (normalised)."""
        md = as_md(policy)
        tr = self.tracer
        if tr is not None and tr.enabled:
            flops, nbytes = functor_cost(functor)
            with tr.span(label, cat="kernel", points=md.size,
                         flops=flops * md.size, bytes=nbytes * md.size,
                         dtype=functor_dtype(functor)):
                self.run_for(label, md, functor)
        else:
            self.run_for(label, md, functor)

    # -- cached launch plans (graph replay) --------------------------------

    def plan_type(self) -> type:
        """The :class:`LaunchPlan` subclass this space seals launches into.

        The concrete backends name their sweeping plan — unless a
        subclass intercepts ``run_for`` (a differential-testing wrapper,
        say), which must keep seeing every launch.  Those, and any
        custom backend, get the generic plan: eager ``run_for`` per
        replay, so every space stays graph-compatible.
        """
        return _GenericPlan

    def prepare_plan(self, label: str, policy, functor) -> "LaunchPlan":
        """Front-load a launch's dispatch work into a replayable plan.

        A :class:`LaunchPlan` bakes in everything ``parallel_for`` would
        redo on every call — policy normalisation, memory-space checks,
        tiling, registry lookup — so :meth:`run_plan` is near-zero
        dispatch.
        """
        return self.plan_type()(self, label, as_md(policy), functor)

    def run_plan(self, plan: "LaunchPlan") -> None:
        """Execute a plan produced by :meth:`prepare_plan`."""
        tr = self.tracer
        if tr is None or not tr.enabled:
            plan.run()
            return
        args = {"points": plan._points,
                "flops": plan._flops * plan._points,
                "bytes": plan._bytes * plan._points,
                "dtype": functor_dtype(plan.functor)}
        labels = getattr(plan.functor, "labels", None)
        if labels:
            # a fused sweep replays as ONE launch: one span, with the
            # constituent kernel labels in the payload
            args["fused"] = list(labels)
        if plan.tier != "eager":
            # swept vs run_for-dispatched launches are distinguishable in
            # Perfetto (and priced differently by the predicted timeline)
            args["jit"] = plan.tier
        with tr.span(plan.label, cat="kernel", **args):
            plan.run()

    def parallel_reduce(self, label: str, policy, functor, reducer: Reducer = Sum):
        """Reduce ``functor`` contributions over ``policy``."""
        md = as_md(policy)
        tr = self.tracer
        if tr is not None and tr.enabled:
            flops, nbytes = functor_cost(functor)
            with tr.span(label, cat="kernel", points=md.size,
                         flops=flops * md.size, bytes=nbytes * md.size,
                         dtype=functor_dtype(functor)):
                return self.run_reduce(label, md, functor, reducer)
        return self.run_reduce(label, md, functor, reducer)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(concurrency={self.concurrency})"


class LaunchPlan:
    """One launch with its dispatch work done once, ready for replay.

    Plans hold the bound functor *instance*; rebindable views
    (:meth:`View.rebind`) let the same plan see advancing data, which is
    what makes replay survive the leapfrog rotation.

    A concrete backend's plan binds its launch body once, at
    construction, through :func:`repro.kokkos.jit.compile_sweep`;
    ``run()`` is that sweep plus the backend's ledger update.
    """

    __slots__ = ("space", "label", "policy", "functor",
                 "_points", "_flops", "_bytes", "_sweep")

    #: What serves the plan, as reports and traces name it: ``codegen``
    #: is a sweep bound at seal time, ``eager`` is ``run_for`` dispatch
    #: on every replay (:class:`_GenericPlan`).
    tier = "codegen"

    def __init__(self, space: ExecutionSpace, label: str,
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
    """Fallback plan: eager dispatch on every replay."""

    __slots__ = ()

    tier = "eager"

    def run(self) -> None:
        self.space.run_for(self.label, self.policy, self.functor)


def apply_tile(functor, slices: Sequence[slice]) -> None:
    """Run a functor over one tile, preferring the vectorised body."""
    apply = getattr(functor, "apply", None)
    if apply is not None:
        apply(tuple(slices))
        return
    from ..functor import _loop_elementwise

    _loop_elementwise(functor, slices)


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
