"""OpenMP-analog host backend: a persistent thread pool over chunks.

Stands in for the OpenMP intranode model used on the ARM Taishan server
(and the Fortran LICOM3 baseline's threading).  The outermost policy
dimension is split into ``threads`` contiguous chunks executed
concurrently; NumPy array operations release the GIL for large tiles, so
real concurrency is obtained for the vectorised kernel bodies.  A
launch is :class:`_OpenMPPlan`, run once eagerly or replayed by a sealed
graph: each part of the launch is one stage — its chunks submitted to
the pool and joined — before the next part starts.  Each chunk runs on
its own scratch arena (:func:`~repro.kokkos.jit.bind_chunk`).

Reductions combine per-chunk partials in fixed chunk order, keeping
results deterministic run-to-run (unlike a racing atomic reduction).
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import List, Optional, Tuple

from .. import jit as _jit
from ..instrument import Instrumentation
from ..policy import MDRangePolicy
from .base import (
    ExecutionSpace,
    LaunchPlan,
    Reducer,
    check_host_views,
    functor_cost,
    reduce_tile,
)


def _default_threads() -> int:
    """Thread count when the constructor is not given one.

    Defaults to ``min(8, cpu_count)`` — enough to demonstrate scaling
    without oversubscribing CI runners.  The ``REPRO_NUM_THREADS``
    environment variable overrides the default (and its 8-thread cap)
    with any validated value >= 1, mirroring ``OMP_NUM_THREADS``.
    """
    env = os.environ.get("REPRO_NUM_THREADS")
    if env is not None and env.strip():
        try:
            n = int(env)
        except ValueError:
            raise ValueError(
                f"REPRO_NUM_THREADS must be an integer >= 1, got {env!r}"
            ) from None
        if n < 1:
            raise ValueError(f"REPRO_NUM_THREADS must be >= 1, got {n}")
        return n
    return max(1, min(8, os.cpu_count() or 1))


class _OpenMPPlan(LaunchPlan):
    """Chunk list and pool stages bound once; a run only submits and joins."""

    __slots__ = ("_nchunks",)

    def __init__(self, space, label, policy, functor) -> None:
        super().__init__(space, label, policy, functor)
        check_host_views(functor, space.name)
        chunks = space._chunks(policy)
        self._nchunks = len(chunks)
        # one stage barrier per fused part across the pool's threads
        submit = space._executor().submit if self._nchunks > 1 else None
        self._sweep = _jit.compile_sweep(functor, chunks, submit)

    def run(self) -> None:
        self._sweep()
        self._record(tiles=self._nchunks)


class OpenMPBackend(ExecutionSpace):
    """Host-parallel execution with a fixed thread count."""

    name = "openmp"
    programming_model = "OpenMP"
    plan_class = _OpenMPPlan

    def __init__(
        self,
        threads: Optional[int] = None,
        inst: Optional[Instrumentation] = None,
    ) -> None:
        super().__init__(inst)
        if threads is not None and int(threads) < 1:
            raise ValueError("threads must be >= 1")
        self.concurrency = int(threads) if threads is not None else _default_threads()
        self._pool: Optional[ThreadPoolExecutor] = None

    def _executor(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.concurrency, thread_name_prefix="omp"
            )
        return self._pool

    def shutdown(self) -> None:
        """Tear down the thread pool (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def _chunks(self, policy: MDRangePolicy) -> List[Tuple[slice, ...]]:
        (b0, e0), rest = policy.ranges[0], policy.ranges[1:]
        n = e0 - b0
        nchunks = min(self.concurrency, n) if n else 1
        tail = tuple(slice(b, e) for b, e in rest)
        out: List[Tuple[slice, ...]] = []
        for c in range(nchunks):
            lo = b0 + (n * c) // nchunks
            hi = b0 + (n * (c + 1)) // nchunks
            out.append((slice(lo, hi),) + tail)
        return out

    def run_reduce(self, label: str, policy: MDRangePolicy, functor, reducer: Reducer):
        check_host_views(functor, self.name)
        chunks = self._chunks(policy)
        if len(chunks) == 1:
            partials = [reduce_tile(functor, chunks[0], reducer)]
        else:
            pool = self._executor()
            futures = [
                pool.submit(reduce_tile, _jit.bind_chunk(functor, c), ch,
                            reducer)
                for c, ch in enumerate(chunks)
            ]
            partials = [f.result() for f in futures]
        flops, nbytes = functor_cost(functor)
        self.inst.record_launch(label, points=policy.size, tiles=len(chunks),
                                flops_per_point=flops, bytes_per_point=nbytes)
        acc = reducer.identity
        for p in partials:
            if p is not None:
                acc = reducer.combine(acc, p)
        return acc
