"""Functor protocol and the ``KOKKOS_REGISTER_*`` macro analogs.

A *functor* is a class whose instances hold views and expose:

``__call__(self, *idx)``
    The elementwise kernel body — Kokkos' ``operator()``.  Always
    required; it is the portable ground truth that backends and tests
    fall back to.

``apply(self, slices)`` (optional)
    A vectorised tile body: given a tuple of slices (one per loop
    dimension) it updates the functor's views over the whole tile using
    array operations.  Backends prefer it when present — it is the
    Python stand-in for the compiled inner loop, and the HPC guides'
    "vectorise your loops" rule.  Implementations must be equivalent to
    looping ``__call__`` over the tile (tests enforce this for the
    model's kernels).

``reduce(self, *idx) -> value`` / ``reduce_apply(self, slices) -> value``
    For ``parallel_reduce``: per-point contribution and vectorised
    partial reduction under the policy's reducer.

Cost-model metadata (used by the instrumentation and the machine model):

``flops_per_point`` / ``bytes_per_point``
    Declared floating-point work and memory traffic per iteration point.
    Ocean kernels declare honest stencil counts; the default (0 flops,
    8 bytes) under-counts and is fine for utility kernels.

The registration decorators mirror the paper's new Kokkos syntax
(``KOKKOS_REGISTER_FOR_1D(Arg1, Arg2)``): they create a *preset function*
that reinterprets the (Python) "template" functor and invokes its
``operator()`` on the CPEs, then insert it into the registration table
(:func:`~repro.kokkos.registry.default_registry`) so the Athread backend
can find it at launch time.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple

from .jit import _part_stage
from .registry import RegistryEntry, default_registry


class Functor:
    """Optional convenience base class for kernels.

    Deriving from it is not required — any object satisfying the functor
    protocol works — but it centralises the cost-model defaults.
    """

    #: Declared floating-point operations per iteration point.
    flops_per_point: float = 0.0
    #: Declared bytes moved per iteration point (reads + writes).
    bytes_per_point: float = 8.0
    #: Widest horizontal stencil offset (``±k`` on the last two loop
    #: axes) the kernel body reads.  The athread backend grows its LDM
    #: tiles by this ring, and ``repro.analysis`` checks it against the
    #: reach observed when the lint matrix sweeps the kernel, and
    #: against the domain halo width.
    stencil_halo: int = 0

    def __call__(self, *idx: int) -> None:  # pragma: no cover - abstract
        raise NotImplementedError(
            f"{type(self).__name__} must implement the elementwise operator()"
        )


def _make_preset(functor_type: type, kind: str) -> Callable:
    """Build the preset function for a functor class.

    The preset is what the registration macro generates in C++: a plain
    function the Athread runtime can call, which internally invokes the
    functor's overloaded ``operator()`` over the tile it is handed — its
    vectorised ``apply`` when it has one
    (:func:`repro.kokkos.jit._part_stage`).
    """

    if kind == "for":
        def preset(functor, slices: Sequence[slice]) -> None:
            _part_stage(functor)(tuple(slices))
        preset.__name__ = f"preset_for_{functor_type.__name__}"
        return preset

    def preset_reduce(functor, slices: Sequence[slice], combine):
        reduce_apply = getattr(functor, "reduce_apply", None)
        if reduce_apply is not None:
            return reduce_apply(tuple(slices))
        return _loop_reduce(functor, slices, combine)

    preset_reduce.__name__ = f"preset_reduce_{functor_type.__name__}"
    return preset_reduce


def _loop_elementwise(functor, slices: Sequence[slice]) -> None:
    """Reference elementwise sweep of a tile (row-major order)."""
    # Any empty range means zero iteration points: short-circuit before
    # dispatch so a huge outer range over an empty inner one costs
    # nothing (mirrors the parallel_scan empty-range fix).
    for s in slices:
        if s.stop <= s.start:
            return
    _recurse_for(functor, slices, ())


def _recurse_for(functor, slices: Sequence[slice], idx: Tuple[int, ...]) -> None:
    if not slices:
        functor(*idx)
        return
    head, rest = slices[0], slices[1:]
    if head.stop <= head.start:
        return
    for i in range(head.start, head.stop):
        _recurse_for(functor, rest, idx + (i,))


def _loop_reduce(functor, slices: Sequence[slice], combine):
    acc = None
    for idx in _iter_indices(slices):
        val = functor.reduce(*idx) if hasattr(functor, "reduce") else functor(*idx)
        acc = val if acc is None else combine(acc, val)
    return acc


def _iter_indices(slices: Sequence[slice]):
    if not slices:
        yield ()
        return
    head, rest = slices[0], slices[1:]
    for i in range(head.start, head.stop):
        for tail in _iter_indices(rest):
            yield (i,) + tail


def kokkos_register_for(name: str, ndim: int, registry=None) -> Callable[[type], type]:
    """Decorator form of ``KOKKOS_REGISTER_FOR_<ndim>D(name, Functor)``.

    Examples
    --------
    >>> @kokkos_register_for("my_axpy", ndim=1)
    ... class FunctorAXPY:
    ...     def __init__(self, a, x, y):
    ...         self.a, self.x, self.y = a, x, y
    ...     def __call__(self, i):
    ...         self.y[i] = self.a * self.x[i] + self.y[i]
    """

    def decorate(functor_type: type) -> type:
        reg = registry if registry is not None else default_registry()
        reg.register(
            RegistryEntry(
                name=name,
                functor_type=functor_type,
                kind="for",
                ndim=ndim,
                callback=_make_preset(functor_type, "for"),
            )
        )
        return functor_type

    return decorate


def kokkos_register_reduce(name: str, ndim: int, registry=None) -> Callable[[type], type]:
    """Decorator form of ``KOKKOS_REGISTER_REDUCE_<ndim>D(name, Functor)``."""

    def decorate(functor_type: type) -> type:
        reg = registry if registry is not None else default_registry()
        reg.register(
            RegistryEntry(
                name=name,
                functor_type=functor_type,
                kind="reduce",
                ndim=ndim,
                callback=_make_preset(functor_type, "reduce"),
            )
        )
        return functor_type

    return decorate


def register_functor_instance(
    functor, kind: str, ndim: int, name: Optional[str] = None, registry=None
) -> RegistryEntry:
    """Imperatively register ``type(functor)`` (macro call form)."""
    reg = registry if registry is not None else default_registry()
    ftype = type(functor)
    return reg.register(
        RegistryEntry(
            name=name or ftype.__name__,
            functor_type=ftype,
            kind=kind,
            ndim=ndim,
            callback=_make_preset(ftype, kind),
        )
    )
