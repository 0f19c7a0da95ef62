"""In-memory spans recorded from outside the program.

The traced run wraps the calls into each layer's public functions on
the instances the benchmark builds (:meth:`SpanLog.wrap`) and imports
the spans the program's own tracer already records
(:meth:`SpanLog.add_tracer`); nothing under ``src/`` is edited.  All
timestamps are ``time.perf_counter`` seconds, which on Linux is the
system-wide monotonic clock and therefore comparable across the rank
processes of a process world.

A span's *self time* is its duration minus the part of that interval
its child spans cover (:func:`self_times`); nesting is derived from
the timestamps on one lane — one thread of one run — so bench spans
and program spans interleave correctly without sharing a stack.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Any, Callable, Dict, List, Optional


class Span:
    """One closed interval: what ran, where, and (after
    :func:`self_times`) the index of the span that caused it."""

    __slots__ = ("name", "cat", "start", "end", "lane", "run", "parent",
                 "parts")

    def __init__(self, name: str, cat: str, start: float, end: float,
                 lane: str, run: Any, parts: Optional[tuple] = None) -> None:
        self.name = name
        self.cat = cat
        self.start = start
        self.end = end
        self.lane = lane
        self.run = run
        self.parent = -1
        #: Constituent kernel labels of a fused launch, else ``None``.
        self.parts = parts

    @property
    def dur(self) -> float:
        return self.end - self.start

    def as_row(self) -> Dict[str, Any]:
        return {"name": self.name, "cat": self.cat, "start": self.start,
                "end": self.end, "lane": self.lane, "run": self.run,
                "parent": self.parent}


class SpanLog:
    """The run's span list plus the wrappers that feed it."""

    def __init__(self, run: Any = 0) -> None:
        self.spans: List[Span] = []
        self.run = run
        self._undo: List[Callable[[], None]] = []

    def record(self, name: str, cat: str, start: float, end: float) -> None:
        self.spans.append(Span(name, cat, start, end,
                               threading.current_thread().name, self.run))

    def wrap(self, owner: Any, attr: str, name: str, cat: str,
             after: Optional[Callable[..., None]] = None) -> bool:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``owner`` is an instance the benchmark built, or — for the few
        layer entry points that are plain functions — the module whose
        namespace the caller resolves them in.  Returns ``False`` (and
        wraps nothing) when the attribute no longer exists, so a later
        change that deletes an entry point costs a metric, not the run.
        ``after(result, *args, **kwargs)`` runs after the span closed.
        """
        fn = getattr(owner, attr, None)
        if fn is None:
            return False
        record = self.record

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record(name, cat, t0, time.perf_counter())
            if after is not None:
                after(result, *args, **kwargs)
            return result

        had_own = attr in getattr(owner, "__dict__", {})
        setattr(owner, attr, wrapper)
        if had_own:
            self._undo.append(lambda: setattr(owner, attr, fn))
        else:
            self._undo.append(lambda: delattr(owner, attr))
        return True

    def unwrap_all(self) -> None:
        """Restore every attribute :meth:`wrap` replaced."""
        while self._undo:
            self._undo.pop()()

    def add_tracer(self, tracer: Any, since: int = 0) -> int:
        """Import the program tracer's closed spans from index ``since``.

        Returns the index to pass next time.  Uses only the tracer's
        public fields (``epoch``, ``spans`` with ``name/cat/ts/dur/tid/
        args``, ``lane_names()``).
        """
        lanes = tracer.lane_names()
        epoch = tracer.epoch
        spans = tracer.spans
        for s in spans[since:]:
            if s.dur is None:
                continue
            start = epoch + s.ts
            fused = s.args.get("fused")
            self.spans.append(Span(
                s.name, s.cat, start, start + s.dur,
                lanes.get(s.tid, str(s.tid)), self.run,
                tuple(fused) if fused else None))
        return len(spans)


def self_times(spans: List[Span]) -> List[float]:
    """Per-span self time; also sets every span's ``parent``.

    On one lane (one thread of one run) each instant belongs to the
    innermost span open at that instant — the one that started last.
    For properly nested spans that is the duration minus the children;
    for spans that merely overlap (or stick out past their parent) it
    still counts every instant once, so a lane's self times add up to
    the time its spans cover.  ``parent`` is the innermost span open
    when a span began, ``-1`` for a lane's roots.
    """
    lanes: Dict[Any, List[int]] = {}
    for i, s in enumerate(spans):
        lanes.setdefault((s.run, s.lane), []).append(i)
    own = [0.0] * len(spans)
    for idxs in lanes.values():
        idxs.sort(key=lambda i: (spans[i].start, -spans[i].end))
        stack: List[int] = []      # open spans, outermost first
        now = 0.0

        def advance(to: float) -> None:
            """Charge [now, to] to whichever span is innermost."""
            nonlocal now
            while stack and now < to:
                top = spans[stack[-1]]
                if top.end <= now:
                    stack.pop()
                    continue
                upto = min(top.end, to)
                own[stack[-1]] += upto - now
                now = upto
            now = to

        for i in idxs:
            s = spans[i]
            advance(s.start)
            while stack and spans[stack[-1]].end <= s.start:
                stack.pop()
            s.parent = stack[-1] if stack else -1
            stack.append(i)
        advance(float("inf"))
    return own
