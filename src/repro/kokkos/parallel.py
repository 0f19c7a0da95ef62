"""Top-level Kokkos-style dispatch: parallel_for / parallel_reduce / scan.

Free-function spellings of the execution-space methods, mirroring
``Kokkos::parallel_for(label, policy, functor)``.  Every call names the
:class:`ExecutionSpace` it runs on — there is no process default space —
so each launch is counted in exactly one owner's ledger.  Application
code (the ocean model) never names a *backend*: it runs on whatever
space its :class:`~repro.kokkos.context.ExecutionContext` owns, which is
the whole point of performance portability.
"""

from __future__ import annotations

from .backends import ExecutionSpace, Reducer, Sum


def parallel_for(label: str, policy, functor, space: ExecutionSpace) -> None:
    """Execute ``functor`` in parallel over ``policy`` on ``space``.

    Parameters
    ----------
    label:
        Kernel name for profiling/instrumentation.
    policy:
        A :class:`~repro.kokkos.policy.RangePolicy`,
        :class:`~repro.kokkos.policy.MDRangePolicy`, an integer 1-D
        extent, or a sequence of ranges.
    functor:
        An object following the functor protocol.
    space:
        The execution space to run on.
    """
    space.parallel_for(label, policy, functor)


def parallel_reduce(label: str, policy, functor, reducer: Reducer = Sum, *,
                    space: ExecutionSpace):
    """Reduce ``functor`` contributions over ``policy`` with ``reducer``."""
    return space.parallel_reduce(label, policy, functor, reducer)


def parallel_scan(label: str, n: int, functor, space: ExecutionSpace):
    """Inclusive prefix scan over a 1-D range.

    The functor is called as ``functor(i, partial, final)`` like Kokkos:
    first a non-final sweep accumulating contributions, then a final
    sweep where the running prefix is handed back.  Returns the total.

    Like every other entry point, scans enforce the memory-space access
    discipline (host backends refuse device views), and an empty range
    returns the identity without invoking the functor or recording a
    launch.
    """
    from .backends.base import check_host_views

    if space.memory_space.host_accessible:
        check_host_views(functor, space.name)
    if n <= 0:
        return 0.0
    flops = float(getattr(functor, "flops_per_point", 1.0))
    nbytes = float(getattr(functor, "bytes_per_point", 16.0))
    tr = getattr(space, "tracer", None)
    sp = (tr.begin(label, cat="kernel", points=n, flops=flops * n,
                   bytes=nbytes * n)
          if tr is not None and tr.enabled else None)
    try:
        total = 0.0
        for final in (False, True):
            acc = 0.0
            for i in range(n):
                acc = functor(i, acc, final)
            total = acc
    finally:
        if sp is not None:
            tr.end(label)
    # record as one launch (cost model treats scans as bandwidth-bound)
    space.inst.record_launch(label, points=n, tiles=1,
                             flops_per_point=flops, bytes_per_point=nbytes)
    return total


def fence(space: ExecutionSpace) -> None:
    """Block until ``space`` is idle."""
    space.fence()
