"""Serial reference backend.

Executes every kernel as one tile covering the whole range.  It is the
semantics oracle: every other backend must produce results identical to
Serial (the test suite enforces this), mirroring how Kokkos' Serial space
anchors correctness across devices.  A launch is :class:`_SerialPlan`,
run once eagerly or replayed by a sealed graph.
"""

from __future__ import annotations

from .. import jit as _jit
from ..policy import MDRangePolicy
from .base import (
    ExecutionSpace,
    LaunchPlan,
    Reducer,
    check_host_views,
    functor_cost,
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
    plan_class = _SerialPlan

    def run_reduce(self, label: str, policy: MDRangePolicy, functor, reducer: Reducer):
        check_host_views(functor, self.name)
        result = reduce_tile(functor, self._full_slices(policy), reducer)
        flops, nbytes = functor_cost(functor)
        self.inst.record_launch(label, points=policy.size, tiles=1,
                                flops_per_point=flops, bytes_per_point=nbytes)
        if result is None:
            result = reducer.identity
        return result
