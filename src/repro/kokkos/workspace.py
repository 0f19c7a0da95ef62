"""``Workspace``: a keyed scratch-array arena for kernel apply bodies.

The vectorised ``apply`` bodies of the hottest kernels (tracer fluxes,
FCT limiter, baroclinic tendency, vertical solves) historically built
dozens of NumPy temporaries per tile, so small-grid throughput was
allocator-bound rather than bandwidth-bound — the Python analogue of
the per-launch spawn/join overhead the paper's registry redesign kills
on the CPEs (§V-B).  A :class:`Workspace` hands out *preallocated*
scratch arrays keyed by ``(key, shape, dtype)`` (or, through
:meth:`Workspace.take_view`, one flat buffer per ``(key, dtype)`` that
every shape views); after the first step every ``take`` is a dictionary
hit.  The apply bodies draw every
temporary the size of a 3-D field from here (a tier-1 test holds each
launch of a warm eager step below one field of transient allocation);
what they still allocate per call is row- or column-sized.

Contract
--------
* The returned buffer's contents are **undefined** (like ``np.empty``)
  unless ``fill=`` is given; callers must fully overwrite it, typically
  through ``out=``-style ufunc calls.
* Buffers are only valid until the next ``take`` with the same key —
  within one apply body use distinct keys for live temporaries.
* An arena is used by **one thread at a time**, as a Sunway CPE owns its
  LDM: a model steps on one thread (each thread rank has its own
  context, and serve leases an engine to one job at a time), whichever
  thread that is.  The only concurrent bodies, an OpenMP launch's
  chunks, each run on their own arena: :meth:`chunk` ``c``, bound once
  when the plan is built (:func:`~repro.kokkos.jit.bind_chunk`).
  :meth:`release` frees the arena and its chunk arenas at once, and an
  :class:`~repro.kokkos.context.ExecutionContext` calls it from
  ``close()`` so SimWorld rank arenas never outlive their rank.

Every ``take`` is counted in :class:`~.instrument.Instrumentation`
(``requests`` vs actual ``allocations``), which is how the benchmark
and the allocation-regression test measure the win.  A disabled
workspace (``enabled=False``) allocates fresh on every request — the
eager-allocation baseline with identical numerics.
"""

from __future__ import annotations

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
        self._pool: Dict[tuple, np.ndarray] = {}
        self._chunks: Dict[int, Workspace] = {}

    def chunk(self, c: int) -> "Workspace":
        """The arena of concurrent chunk ``c``: this one for chunk 0, a
        child (same ``enabled`` and ledger) made on first use otherwise."""
        if c == 0:
            return self
        arena = self._chunks.get(c)
        if arena is None:
            arena = self._chunks[c] = Workspace(self.enabled, self.inst)
        return arena

    def take(self, key: str, shape: ShapeLike, dtype=np.float64,
             fill=None) -> np.ndarray:
        """Return a scratch array for ``key`` with the requested geometry.

        The same ``(key, shape, dtype)`` returns the same buffer every
        time once the arena is warm.  The warm path is deliberately
        skinny — a sealed ``small`` step makes 448 workspace requests — so
        it keys on the caller's ``shape``/``dtype`` objects verbatim
        (each call site passes a consistent form) and bumps the request
        counters without taking the stats lock; only the rare allocation
        goes through the locked recorder, so the ``allocations`` counter
        the tests pin stays exact.
        """
        if type(shape) is not tuple:
            shape = (int(shape),) if isinstance(shape, (int, np.integer)) \
                else tuple(shape)
        arr = self._pool.get((key, shape, dtype)) if self.enabled else None
        if arr is None:
            arr = np.empty(shape, np.dtype(dtype))
            if self.enabled:
                self._pool[(key, shape, dtype)] = arr
            self.inst.record_workspace_take(arr.nbytes, allocated=True)
        else:
            ws = self.inst.workspace
            ws.requests += 1
            ws.bytes_served += arr.nbytes
        if fill is not None:
            arr[...] = fill
        return arr

    def take_view(self, key: str, shape: Tuple[int, ...],
                  dtype=np.float64) -> np.ndarray:
        """A C-ordered ``shape`` view of one flat buffer per ``(key, dtype)``.

        Unlike :meth:`take`, every shape shares the buffer: it is
        replaced by a larger one whenever a request outgrows it, so once
        warm it holds the largest ``shape`` asked for, and bodies that
        run one after another over different launch ranges share it.
        The contract is :meth:`take`'s: contents undefined, valid until
        the next request of ``key``.
        """
        if not self.enabled:
            return self.take(key, shape, dtype)
        n = 1
        for extent in shape:
            n *= extent
        dtype = np.dtype(dtype)
        flat = self._pool.get((key, dtype))
        if flat is None or flat.size < n:
            flat = self._pool[(key, dtype)] = np.empty(n, dtype)
            self.inst.record_workspace_take(flat.nbytes, allocated=True)
        else:
            ws = self.inst.workspace
            ws.requests += 1
            ws.bytes_served += n * dtype.itemsize
        return flat[:n].reshape(shape)

    def release(self) -> None:
        """Drop this arena's and its chunk arenas' buffers and stop pooling.

        Called by the owning context's ``close()``.  Subsequent takes
        still work (eager allocation, identical numerics) so teardown
        order between a context and stragglers using its domain never
        matters; they just stop being cached.
        """
        self.enabled = False
        self._pool.clear()
        for arena in self._chunks.values():
            arena.release()

    def pooled_nbytes(self) -> int:
        """Total bytes held by this arena and its chunk arenas."""
        return (sum(arr.nbytes for arr in self._pool.values())
                + sum(a.pooled_nbytes() for a in self._chunks.values()))
