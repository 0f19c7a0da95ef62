"""``Workspace``: a keyed scratch-array arena for kernel apply bodies.

The vectorised ``apply`` bodies of the hottest kernels (tracer fluxes,
FCT limiter, baroclinic tendency, vertical solves) historically built
dozens of NumPy temporaries per tile, so small-grid throughput was
allocator-bound rather than bandwidth-bound — the Python analogue of
the per-launch spawn/join overhead the paper's registry redesign kills
on the CPEs (§V-B).  A :class:`Workspace` hands out *preallocated*
scratch arrays keyed by ``(key, shape, dtype)``; after the first step
every ``take`` is a dictionary hit and the apply bodies run with zero
steady-state allocations.

Contract
--------
* The returned buffer's contents are **undefined** (like ``np.empty``)
  unless ``fill=`` is given; callers must fully overwrite it, typically
  through ``out=``-style ufunc calls.
* Buffers are only valid until the next ``take`` with the same key —
  within one apply body use distinct keys for live temporaries.
* Pools are **per thread**, so concurrent tiles of the same functor on
  the OpenMP backend never share a buffer.  Unlike the historical
  ``threading.local`` pools, the per-thread pools are held in an
  ordinary dict keyed by thread id so the *owner* can enumerate and
  drop them: :meth:`release` frees every pool at once, and an
  :class:`~repro.kokkos.context.ExecutionContext` calls it from
  ``close()`` so SimWorld rank arenas never outlive their rank.

Every ``take`` is counted in :class:`~.instrument.Instrumentation`
(``requests`` vs actual ``allocations``), which is how the benchmark
and the allocation-regression test measure the win.  A disabled
workspace (``enabled=False``) allocates fresh on every request — the
eager-allocation baseline with identical numerics.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Tuple, Union

import numpy as np

from .instrument import Instrumentation

ShapeLike = Union[int, Tuple[int, ...]]


class Workspace:
    """Arena of reusable scratch arrays keyed by ``(key, shape, dtype)``."""

    def __init__(self, enabled: bool = True,
                 inst: Optional[Instrumentation] = None) -> None:
        self.enabled = enabled
        self.inst = inst if inst is not None else Instrumentation()
        # thread id -> pool.  Kept in a plain dict (not threading.local)
        # so release() can drop buffers owned by threads that no longer
        # exist — SimWorld rank threads die after every run, and
        # thread-local pools used to pin their arenas until the
        # Workspace itself was collected.
        self._pools: Dict[int, Dict[tuple, np.ndarray]] = {}
        self._pools_lock = threading.Lock()
        self._released = False

    def _pool(self) -> Dict[tuple, np.ndarray]:
        ident = threading.get_ident()
        pool = self._pools.get(ident)
        if pool is None:
            with self._pools_lock:
                pool = self._pools.setdefault(ident, {})
        return pool

    def take(self, key: str, shape: ShapeLike, dtype=np.float64,
             fill=None) -> np.ndarray:
        """Return a scratch array for ``key`` with the requested geometry.

        The same ``(key, shape, dtype)`` on the same thread returns the
        same buffer every time once the arena is warm.  The warm path is
        deliberately skinny — tiled backends issue tens of thousands of
        takes per step, so it keys on the caller's ``shape``/``dtype``
        objects verbatim (each call site passes a consistent form) and
        bumps the request counters without taking the stats lock; only
        the rare allocation goes through the locked recorder, so the
        ``allocations`` counter the tests pin stays exact.
        """
        if type(shape) is not tuple:
            shape = (int(shape),) if isinstance(shape, (int, np.integer)) \
                else tuple(shape)
        if not self.enabled or self._released:
            arr = np.empty(shape, np.dtype(dtype))
            self.inst.record_workspace_take(arr.nbytes, allocated=True)
        else:
            pool = self._pool()
            arr = pool.get((key, shape, dtype))
            if arr is None:
                arr = pool[(key, shape, dtype)] = np.empty(shape,
                                                           np.dtype(dtype))
                self.inst.record_workspace_take(arr.nbytes, allocated=True)
            else:
                inst = self.inst
                if inst.enabled:
                    ws = inst.workspace
                    ws.requests += 1
                    ws.bytes_served += arr.nbytes
        if fill is not None:
            arr[...] = fill
        return arr

    def clear(self) -> None:
        """Drop this thread's pooled buffers (tests / memory pressure)."""
        with self._pools_lock:
            self._pools.pop(threading.get_ident(), None)

    def release(self) -> None:
        """Drop *every* thread's pooled buffers and stop pooling.

        Called by the owning context's ``close()``.  Subsequent takes
        still work (eager allocation, identical numerics) so teardown
        order between a context and stragglers using its domain never
        matters; they just stop being cached.
        """
        with self._pools_lock:
            self._pools.clear()
            self._released = True

    @property
    def released(self) -> bool:
        return self._released

    def pooled_nbytes(self) -> int:
        """Total bytes currently held across all thread pools."""
        with self._pools_lock:
            return sum(arr.nbytes for pool in self._pools.values()
                       for arr in pool.values())
