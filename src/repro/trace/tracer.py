"""Span tracer: nestable, thread- and rank-labelled timeline events.

The paper explains its wins with per-kernel/per-phase breakdowns of the
daily loop (§VI-C); the aggregate counters of
:mod:`repro.kokkos.instrument` reproduce the *totals* but not the
*shape* of a step — launch, DMA, halo pack/post/wait/unpack, graph
replay — the way APEX traces do for HPX/Kokkos codes.  A
:class:`Tracer` records that shape: begin/end **spans** (nestable,
balanced per thread) and **instant events**, each carrying wall-clock
time relative to the tracer's epoch plus arbitrary counter payloads
(points, flops, bytes, message sizes).

One tracer belongs to one rank (one
:class:`~repro.kokkos.context.ExecutionContext`); events are labelled
with a dense per-thread lane index so a multi-threaded rank renders as
stacked lanes.  :mod:`repro.trace.export` turns one tracer per rank
into Chrome trace-event JSON (``pid`` = rank, ``tid`` = lane).

Disabled tracers are free: every hook in the library guards with
``if tracer is not None and tracer.enabled`` before building any event,
so ``trace=False`` stepping pays one attribute load per hook.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional

from ..errors import TraceError


class Span:
    """One closed or in-flight interval on a thread lane.

    ``ts`` and ``dur`` are seconds relative to the owning tracer's
    epoch; ``dur`` is ``None`` while the span is open.  ``depth`` is the
    nesting depth at begin time — spans are appended to the tracer in
    begin order, so (lane order, depth) reconstructs the tree without
    timestamps, which is what the predicted-timeline mode relies on.
    """

    __slots__ = ("name", "cat", "ts", "dur", "tid", "depth", "args")

    def __init__(self, name: str, cat: str, ts: float, tid: int,
                 depth: int, args: Dict[str, Any]) -> None:
        self.name = name
        self.cat = cat
        self.ts = ts
        self.dur: Optional[float] = None
        self.tid = tid
        self.depth = depth
        self.args = args

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "open" if self.dur is None else f"dur={self.dur:.6f}"
        return (f"Span({self.name!r}, cat={self.cat!r}, tid={self.tid}, "
                f"depth={self.depth}, {state})")


class Instant:
    """A zero-duration event (H2D/D2H copy, DMA descriptor, send)."""

    __slots__ = ("name", "cat", "ts", "tid", "args")

    def __init__(self, name: str, cat: str, ts: float, tid: int,
                 args: Dict[str, Any]) -> None:
        self.name = name
        self.cat = cat
        self.ts = ts
        self.tid = tid
        self.args = args

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Instant({self.name!r}, cat={self.cat!r}, tid={self.tid})"


class Tracer:
    """Per-rank event recorder with balanced, per-thread span stacks.

    Parameters
    ----------
    rank:
        The owning rank; becomes the Chrome-trace ``pid``.
    name:
        Process label shown in the viewer (defaults to ``rank<N>``).
    enabled:
        Start recording immediately.  A disabled tracer records nothing
        and its :meth:`span` context manager is a shared no-op.
    clock:
        Monotonic clock (injectable for tests).
    """

    def __init__(self, rank: int = 0, name: Optional[str] = None,
                 enabled: bool = False,
                 clock: Callable[[], float] = time.perf_counter) -> None:
        self.rank = int(rank)
        self.name = name if name is not None else f"rank{self.rank}"
        self.enabled = bool(enabled)
        self._clock = clock
        self.epoch = clock()
        #: All spans in begin order (open spans have ``dur is None``).
        self.spans: List[Span] = []
        #: All instant events in emission order.
        self.instants: List[Instant] = []
        self._lock = threading.Lock()
        self._stacks: Dict[int, List[Span]] = {}   # thread ident -> open spans
        self._lanes: Dict[int, int] = {}           # thread ident -> dense tid
        self._lane_names: Dict[int, str] = {}      # dense tid -> thread name

    # Tracers ride home in process-mode worker exit reports.  The lock
    # and the thread-ident keyed maps are process-local (idents mean
    # nothing in the parent); lane names and all events travel.
    def __getstate__(self) -> Dict[str, Any]:
        state = self.__dict__.copy()
        state.pop("_lock", None)
        state.pop("_stacks", None)
        state.pop("_lanes", None)
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()
        self._stacks = {}
        self._lanes = {}

    # -- recording ---------------------------------------------------------

    def _lane(self, ident: int) -> int:
        tid = self._lanes.get(ident)
        if tid is None:
            tid = self._lanes[ident] = len(self._lanes)
            self._lane_names[tid] = threading.current_thread().name
        return tid

    def begin(self, name: str, cat: str = "", **args: Any) -> Optional[Span]:
        """Open a span on the calling thread's lane."""
        if not self.enabled:
            return None
        now = self._clock() - self.epoch
        ident = threading.get_ident()
        with self._lock:
            tid = self._lane(ident)
            stack = self._stacks.setdefault(ident, [])
            sp = Span(name, cat, now, tid, len(stack), args)
            self.spans.append(sp)
            stack.append(sp)
        return sp

    def end(self, name: Optional[str] = None, **args: Any) -> Optional[Span]:
        """Close the innermost open span (checking ``name`` when given)."""
        if not self.enabled:
            return None
        now = self._clock() - self.epoch
        ident = threading.get_ident()
        with self._lock:
            stack = self._stacks.get(ident)
            if not stack:
                raise TraceError(
                    f"span end({name!r}) with no open span on this thread")
            sp = stack[-1]
            if name is not None and sp.name != name:
                raise TraceError(
                    f"span end({name!r}) does not match innermost open span "
                    f"({sp.name!r})")
            stack.pop()
            sp.dur = now - sp.ts
            if args:
                sp.args.update(args)
        return sp

    @contextmanager
    def span(self, name: str, cat: str = "", **args: Any) -> Iterator[Optional[Span]]:
        """Context manager: record the enclosed block as one span."""
        if not self.enabled:
            yield None
            return
        sp = self.begin(name, cat, **args)
        try:
            yield sp
        finally:
            # close *this* span even if enabled flipped or inner spans
            # leaked: pop until sp so the stack stays consistent
            ident = threading.get_ident()
            now = self._clock() - self.epoch
            with self._lock:
                stack = self._stacks.get(ident, [])
                while stack:
                    top = stack.pop()
                    top.dur = now - top.ts
                    if top is sp:
                        break

    def instant(self, name: str, cat: str = "", **args: Any) -> Optional[Instant]:
        """Record a zero-duration event on the calling thread's lane."""
        if not self.enabled:
            return None
        now = self._clock() - self.epoch
        ident = threading.get_ident()
        with self._lock:
            ev = Instant(name, cat, now, self._lane(ident), args)
            self.instants.append(ev)
        return ev

    # -- control / introspection -------------------------------------------

    def clear(self) -> None:
        """Drop all recorded events (lane assignments are kept)."""
        with self._lock:
            self.spans.clear()
            self.instants.clear()
            self._stacks.clear()

    def relabel(self, name: str, reset_epoch: bool = True) -> "Tracer":
        """Rename the timeline (and restart its clock) for a new owner.

        The serving layer leases one engine — one context, one tracer —
        to many jobs in turn; each lease relabels the tracer with the
        job's name so the exported timeline says whose steps these are,
        and resets the epoch so per-job traces all start near t=0.
        """
        self.name = name
        if reset_epoch:
            self.epoch = self._clock()
        return self

    def closed_spans(self) -> List[Span]:
        """All completed spans, in begin order."""
        return [s for s in self.spans if s.dur is not None]

    def lane_names(self) -> Dict[int, str]:
        """Dense lane index -> thread name (for viewer metadata)."""
        return dict(self._lane_names)

    def open_depth(self) -> int:
        """Open spans on the calling thread (0 = balanced)."""
        stack = self._stacks.get(threading.get_ident())
        return len(stack) if stack else 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Tracer(rank={self.rank}, name={self.name!r}, "
                f"enabled={self.enabled}, spans={len(self.spans)}, "
                f"instants={len(self.instants)})")
