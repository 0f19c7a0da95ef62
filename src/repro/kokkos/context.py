"""``ExecutionContext``: per-rank ownership of the portability layer.

The paper's measurement story depends on per-rank attribution — its
job-level performance monitoring toolchain on the new Sunway system
(§VI-C) and the load-balance analysis only make sense when every rank's
kernel counts and traffic are separable.  So measurement and execution
state lives on an :class:`ExecutionContext` (or on an object a caller
built explicitly) and nowhere else: the only process-wide object of the
package is the import-time functor registration table
(:func:`~repro.kokkos.registry.default_registry`), which no lookup
mutates.

An :class:`ExecutionContext` is the session object that owns one rank's:

* backend instance (``.space``) and its :class:`Instrumentation`
  ledger (``.inst``) — kernel launches, H2D/D2H/DMA transfers and
  workspace counters all land in the owning context;
* the workspace arenas it handed out (``make_workspace``), released on
  :meth:`close` so rank threads never pin scratch memory after exit;
* the per-rank traffic ledger (``.traffic``) the simulated MPI endpoint
  records into, giving true per-rank message statistics alongside the
  world's shared ledger;
* a graph / launch-plan cache (``.graph_cache``) and a
  :class:`~repro.timing.TimerRegistry`.

Two models on different backends, each with its own context, can step
concurrently in one process with bitwise-identical results and disjoint
ledgers; :func:`repro.perfmodel.aggregate.aggregate` merges the
per-rank ledgers back into the single job-level view.
"""

from __future__ import annotations

import itertools
import threading
import weakref
from typing import Dict, List, Optional

from ..timing import TimerRegistry
from ..trace import Tracer
from .backends import ExecutionSpace, make_backend
from .instrument import Instrumentation
from .workspace import Workspace


class ExecutionContext:
    """One rank's session: backend, ledgers, arenas, graphs, timers.

    Parameters
    ----------
    backend:
        Backend name (``serial``/``openmp``/``athread``/``cuda``/
        ``hip``) — the context builds the space, records it into its
        own ledger and shuts it down on :meth:`close` — or an
        already-built :class:`ExecutionSpace`, adopted as-is: it keeps
        its instrumentation and its builder keeps its lifetime.
    inst / timers / tracer:
        Override the freshly-created per-context instances.
    rank:
        The owning rank (labels ledgers in multi-rank aggregation).
    trace:
        Enable span tracing immediately (see :meth:`enable_tracing`).
    backend_kwargs:
        Forwarded to :func:`make_backend` for named backends.
    """

    _ids = itertools.count()
    #: Every open context, weakly held.  The serving layer's leak audit
    #: (and its tests) ask "did that failed job leave a live context
    #: behind?" — ``close()`` discards the entry, garbage collection
    #: drops unclosed strays, so the set is exactly the open population.
    _live: "weakref.WeakSet[ExecutionContext]" = weakref.WeakSet()
    _live_lock = threading.Lock()

    def __init__(
        self,
        backend: object = "serial",
        *,
        inst: Optional[Instrumentation] = None,
        timers: Optional[TimerRegistry] = None,
        tracer: Optional[Tracer] = None,
        rank: int = 0,
        name: Optional[str] = None,
        trace: bool = False,
        **backend_kwargs,
    ) -> None:
        self.rank = int(rank)
        self.name = name if name is not None else f"ctx{next(self._ids)}"
        self.timers = timers if timers is not None else TimerRegistry()
        #: Per-rank span tracer (disabled — and free — until
        #: :meth:`enable_tracing` wires it into the owned recorders).
        self.tracer = tracer if tracer is not None else Tracer(
            rank=self.rank, name=f"{self.name} (rank {self.rank})")
        #: graph/launch-plan cache: scope key -> {variant key -> graph}
        self.graph_cache: Dict[object, dict] = {}
        self.closed = False
        self._workspaces: List[Workspace] = []
        self._null_ws: Optional[Workspace] = None
        self._traffic = None
        self._owns_space = not isinstance(backend, ExecutionSpace)
        if self._owns_space:
            self.inst = inst if inst is not None else Instrumentation()
            self.space: ExecutionSpace = make_backend(
                backend, inst=self.inst, **backend_kwargs)
        else:
            # adopt: the space keeps its ledger; the context reports it
            self.space = backend
            self.inst = inst if inst is not None else backend.inst
        if trace:
            self.enable_tracing()
        with ExecutionContext._live_lock:
            ExecutionContext._live.add(self)

    @classmethod
    def live_contexts(cls) -> "List[ExecutionContext]":
        """All contexts constructed but not yet closed (leak audit)."""
        with cls._live_lock:
            return [ctx for ctx in cls._live if not ctx.closed]

    @classmethod
    def live_count(cls) -> int:
        """Number of open contexts (see :meth:`live_contexts`)."""
        return len(cls.live_contexts())

    # -- tracing -------------------------------------------------------------

    def enable_tracing(self) -> Tracer:
        """Switch span tracing on and wire the tracer into every owned
        recorder: the backend dispatch path (kernel spans), the GPTL
        timers (step/phase spans), the host<->device transfer ledger and
        the Athread DMA engine (instant events).  Idempotent; the
        dispatch path keeps its zero-overhead guard while disabled.
        """
        tr = self.tracer
        tr.enabled = True
        self.timers.tracer = tr
        self.inst.transfers.tracer = tr
        self.space.tracer = tr
        dma = getattr(self.space, "dma", None)
        if dma is not None:
            dma.tracer = tr
        return tr

    def disable_tracing(self) -> None:
        """Stop recording (hooks stay wired; re-enable is one flag)."""
        self.tracer.enabled = False

    # -- ownership accessors -----------------------------------------------

    @property
    def traffic(self):
        """Per-rank message ledger (created lazily; see SimComm.ledger)."""
        if self._traffic is None:
            from ..parallel.comm import TrafficLedger

            self._traffic = TrafficLedger()
        return self._traffic

    def make_workspace(self) -> Workspace:
        """A scratch arena counted in this context's ledger and released
        when the context closes."""
        ws = Workspace(inst=self.inst)
        self._workspaces.append(ws)
        return ws

    @property
    def null_workspace(self) -> Workspace:
        """This context's disabled (eager-allocation) workspace."""
        if self._null_ws is None:
            self._null_ws = Workspace(enabled=False, inst=self.inst)
        return self._null_ws

    def attach_comm(self, comm) -> None:
        """Point ``comm``'s per-rank ledger at this context's traffic
        and its tracer at this context's timeline."""
        if getattr(comm, "ledger", None) is None:
            comm.ledger = self.traffic
        if getattr(comm, "tracer", None) is None:
            comm.tracer = self.tracer

    def export_rank_data(self) -> Dict[str, object]:
        """The context's measurement state as a small picklable dict.

        Contexts themselves do not cross process boundaries (they own a
        live backend, arenas, sealed plans); what a process-mode
        worker ships home is this bundle — the instrumentation ledger,
        the per-rank traffic ledger (if a comm ever attached) and the
        tracer with its recorded timeline.
        """
        return {
            "rank": self.rank,
            "name": self.name,
            "inst": self.inst,
            "traffic": self._traffic,
            "tracer": self.tracer,
        }

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Release owned resources: arenas, graph cache, backend pools.

        Idempotent.  The context object stays usable for *reading*
        ledgers after close (aggregation happens after the rank
        finishes); only cached resources are dropped.
        """
        if self.closed:
            return
        self.closed = True
        with ExecutionContext._live_lock:
            ExecutionContext._live.discard(self)
        for ws in self._workspaces:
            ws.release()
        if self._null_ws is not None:
            self._null_ws.release()
        self.graph_cache.clear()
        if self._owns_space:
            shutdown = getattr(self.space, "shutdown", None)
            if shutdown is not None:
                shutdown()

    def __enter__(self) -> "ExecutionContext":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"ExecutionContext({self.name!r}, rank={self.rank}, "
                f"backend={self.space.name}, closed={self.closed})")
