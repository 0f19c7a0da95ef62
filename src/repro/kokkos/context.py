"""``ExecutionContext``: per-rank ownership of the portability layer.

The paper's measurement story depends on per-rank attribution — its
job-level performance monitoring toolchain on the new Sunway system
(§VI-C) and the load-balance analysis only make sense when every rank's
kernel counts and traffic are separable.  Historically this layer
funnelled every rank through process-wide singletons
(``GLOBAL_INSTRUMENTATION``, ``GLOBAL_REGISTRY``, module-level
workspace state), so concurrent model instances commingled their
ledgers and SimWorld rank arenas leaked across runs.

An :class:`ExecutionContext` is the explicit session object that owns
one rank's copy of everything that used to be global:

* the backend instance (``.space``) and its :class:`Instrumentation`
  ledger (``.inst``) — kernel launches, H2D/D2H/DMA transfers and
  workspace counters all land in the owning context;
* a functor registry (``.registry``) — a :class:`ContextRegistry` whose
  misses fall back to the process-wide registration table, so
  import-time ``@kokkos_register_for`` decorators keep working while
  lookup state (LDM cache order, comparison counters) stays per rank;
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

:func:`default_context` is the deprecated compatibility shim: one
process-wide context wrapping the old globals, used when code does not
pass a context explicitly.  Library code should take the context as an
argument; the ``global-state`` kernelcheck rule flags direct singleton
reads outside this module and the shim's home modules.
"""

from __future__ import annotations

import itertools
import threading
import weakref
from typing import Dict, List, Optional

from ..timing import TimerRegistry
from ..trace import Tracer
from .backends import ExecutionSpace, make_backend
from .instrument import GLOBAL_INSTRUMENTATION, Instrumentation
from .registry import GLOBAL_REGISTRY, LinkedListRegistry, RegistryEntry
from .workspace import Workspace


class ContextRegistry(LinkedListRegistry):
    """A per-context functor registry with global fallback.

    Uses the paper's configuration (linked list + LDM hot-entry cache +
    SIMD matching) like the process-wide table, but owns its own LRU
    order and ``comparisons`` counter so concurrent contexts neither
    race on cache mutation nor skew each other's matching statistics.
    A lookup miss consults the ``base`` table (where import-time
    registration decorators put entries), caches the entry locally and
    returns it; an entry missing from both raises the same
    ``RegistrationError`` a real unregistered Athread launch hits.
    """

    def __init__(self, base: Optional[LinkedListRegistry] = None,
                 **kwargs) -> None:
        kwargs.setdefault("ldm_cache", True)
        kwargs.setdefault("simd_width", 8)
        super().__init__(**kwargs)
        self._base = base if base is not None else GLOBAL_REGISTRY

    def lookup(self, functor_type: type) -> RegistryEntry:
        from ..errors import RegistrationError

        try:
            return super().lookup(functor_type)
        except RegistrationError:
            entry = self._base.lookup(functor_type)  # raises if truly absent
            self.register(entry)
            return entry


class ExecutionContext:
    """One rank's session: backend, ledgers, arenas, graphs, timers.

    Parameters
    ----------
    backend:
        Backend name (``serial``/``openmp``/``athread``/``cuda``/
        ``hip``), an already-built :class:`ExecutionSpace` (adopted
        as-is, keeping its instrumentation), or ``None`` — in which
        case ``.space`` resolves lazily to the process default space
        (the :func:`default_context` shim configuration).
    inst / registry / timers / tracer:
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
        backend: Optional[object] = "serial",
        *,
        inst: Optional[Instrumentation] = None,
        registry: Optional[LinkedListRegistry] = None,
        timers: Optional[TimerRegistry] = None,
        tracer: Optional[Tracer] = None,
        rank: int = 0,
        name: Optional[str] = None,
        trace: bool = False,
        **backend_kwargs,
    ) -> None:
        self.rank = int(rank)
        self.name = name if name is not None else f"ctx{next(self._ids)}"
        self.registry = registry if registry is not None else ContextRegistry()
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
        self._owns_space = False
        self._space: Optional[ExecutionSpace] = None
        if backend is None:
            self.inst = inst if inst is not None else Instrumentation()
        elif isinstance(backend, ExecutionSpace):
            # adopt: the space keeps its ledger; the context reports it
            self._space = backend
            self.inst = inst if inst is not None else backend.inst
        else:
            self.inst = inst if inst is not None else Instrumentation()
            kwargs = dict(backend_kwargs)
            if str(backend).lower() == "athread":
                kwargs.setdefault("registry", self.registry)
            self._space = make_backend(backend, inst=self.inst, **kwargs)
            self._owns_space = True
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

        A context built with ``backend=None`` (the default-context shim)
        wires only its timers and ledger — the process default space is
        shared and stays untraced.
        """
        tr = self.tracer
        tr.enabled = True
        self.timers.tracer = tr
        self.inst.transfers.tracer = tr
        if self._space is not None:
            self._space.tracer = tr
            dma = getattr(self._space, "dma", None)
            if dma is not None:
                dma.tracer = tr
        return tr

    def disable_tracing(self) -> None:
        """Stop recording (hooks stay wired; re-enable is one flag)."""
        self.tracer.enabled = False

    # -- ownership accessors -----------------------------------------------

    @property
    def space(self) -> ExecutionSpace:
        """The context's execution space.

        A context built with ``backend=None`` (the default-context shim)
        delegates to the process default space at access time, so
        ``initialize()``-style code keeps working unchanged.
        """
        if self._space is not None:
            return self._space
        from .parallel import default_space

        return default_space()

    @classmethod
    def adopt(cls, space: ExecutionSpace, *, rank: int = 0,
              owns_space: bool = False, **kwargs) -> "ExecutionContext":
        """Wrap an existing backend in a context.

        The backend's instrumentation is preserved, so a default-built
        backend (recording into the process-wide ledger) behaves exactly
        as before contexts existed — the single-rank compatibility path.
        """
        ctx = cls(backend=space, rank=rank, **kwargs)
        ctx._owns_space = owns_space
        return ctx

    @property
    def jit_cache(self):
        """Per-context cache of compiled launch sweeps.

        Lives on the owned space (where :meth:`LaunchGraph.seal` looks
        it up), created lazily; because every context owns its space,
        ranks never share compilation state.  Cleared on :meth:`close`.
        """
        from .jit import JitCache

        space = self.space
        cache = getattr(space, "jit_cache", None)
        if cache is None:
            cache = space.jit_cache = JitCache()
        return cache

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
        live backend, arenas, compiled sweeps); what a process-mode
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
        space = self._space
        if space is None:
            # default-context shim: the process default space (if one
            # was ever built) carried this context's jit cache — clear
            # it too, so a fresh context re-warns about degradations
            # instead of inheriting the once-per-key silence
            from .parallel import peek_default_space

            space = peek_default_space()
        if space is not None:
            cache = getattr(space, "jit_cache", None)
            if cache is not None:
                cache.clear()
        if self._owns_space and self._space is not None:
            shutdown = getattr(self._space, "shutdown", None)
            if shutdown is not None:
                shutdown()

    def __enter__(self) -> "ExecutionContext":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        backend = self._space.name if self._space is not None else "<default>"
        return (f"ExecutionContext({self.name!r}, rank={self.rank}, "
                f"backend={backend}, closed={self.closed})")


_default_lock = threading.Lock()
_default: Optional[ExecutionContext] = None


def default_context() -> ExecutionContext:
    """The deprecated process-wide compatibility shim.

    Wraps the old globals — ``GLOBAL_INSTRUMENTATION``,
    ``GLOBAL_REGISTRY``, ``GLOBAL_TIMERS`` and the process default
    execution space — in one shared context, so code predating explicit
    contexts keeps exactly its old behaviour.  New code should build an
    :class:`ExecutionContext` per rank and pass it explicitly.
    """
    global _default
    if _default is None:
        with _default_lock:
            if _default is None:
                from ..timing import GLOBAL_TIMERS

                _default = ExecutionContext(
                    backend=None,
                    inst=GLOBAL_INSTRUMENTATION,
                    registry=GLOBAL_REGISTRY,
                    timers=GLOBAL_TIMERS,
                    name="default",
                )
    return _default
