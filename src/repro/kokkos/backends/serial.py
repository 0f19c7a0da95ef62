"""Serial reference backend.

Executes every kernel as one tile covering the whole range.  It is the
semantics oracle: every other backend must produce results identical to
Serial (the test suite enforces this), mirroring how Kokkos' Serial space
anchors correctness across devices.
"""

from __future__ import annotations

from .. import jit as _jit
from ..policy import MDRangePolicy
from .base import (
    ExecutionSpace,
    LaunchPlan,
    Reducer,
    apply_tile,
    check_host_views,
    reduce_tile,
)


class _SerialPlan(LaunchPlan):
    """Whole-range sweep with slices and checks precomputed."""

    __slots__ = ()

    def __init__(self, space, label, policy, functor) -> None:
        super().__init__(space, label, policy, functor)
        check_host_views(functor, space.name)
        self._sweep = _jit.compile_sweep(
            functor, [space._full_slices(policy)])

    def run(self) -> None:
        self._sweep()
        self._record(tiles=1)


class SerialBackend(ExecutionSpace):
    """Single-threaded host execution."""

    name = "serial"
    programming_model = "none"
    concurrency = 1

    def run_for(self, label: str, policy: MDRangePolicy, functor) -> None:
        check_host_views(functor, self.name)
        apply_tile(functor, self._full_slices(policy))
        self._record(label, policy, functor, tiles=1)

    def plan_type(self) -> type:
        if type(self).run_for is not SerialBackend.run_for:
            return super().plan_type()
        return _SerialPlan

    def run_reduce(self, label: str, policy: MDRangePolicy, functor, reducer: Reducer):
        check_host_views(functor, self.name)
        result = reduce_tile(functor, self._full_slices(policy), reducer)
        self._record(label, policy, functor, tiles=1)
        if result is None:
            result = reducer.identity
        return result
