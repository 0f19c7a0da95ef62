"""Hierarchical wall-clock timers in the style of GPTL.

The paper measures everything with the GPTL and C++ ``chrono`` libraries
(§VI-C).  This module provides the Python analog: named, nestable timers
with call counts, inclusive wall time, and a hierarchical report with
exclusive-time accounting.  The top-level daily loop of the ocean model
is timed with these, and I/O / initialization regions are excluded
exactly as in the paper.

Start times live on the *registry's* stack — one entry per ``start()``
call — not on the node, so re-entrant and recursive use of the same
name nests and accumulates correctly (``start("a"); start("a")`` opens
two independent intervals).

A registry can mirror every interval into a
:class:`repro.trace.Tracer` (set ``registry.tracer``): each start/stop
pair becomes a ``timer`` span on the tracer's timeline, which is how
the model's ``with timers.timer("step")`` blocks show up as the
step/phase containers of the exported Chrome trace.  With no tracer
attached (or a disabled one) the cost is a single attribute check.

Examples
--------
>>> t = TimerRegistry()
>>> with t.timer("step"):
...     with t.timer("baroclinic"):
...         pass
>>> t.count("step")
1
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Tuple


@dataclass
class TimerNode:
    """Accumulated statistics for one named timer."""

    name: str
    count: int = 0
    total: float = 0.0
    child_names: List[str] = field(default_factory=list)

    @property
    def mean(self) -> float:
        """Mean seconds per start/stop interval (0 when never run)."""
        return self.total / self.count if self.count else 0.0


class TimerRegistry:
    """A GPTL-like registry of named hierarchical timers.

    Timers nest: the registry tracks the active stack so that the report
    can show parent/child structure.  Re-entrant use of the same name is
    allowed and accumulates — each ``start`` pushes its own
    ``(name, t0)`` entry, so recursive regions never lose the outer
    interval.
    """

    def __init__(self, clock=time.perf_counter, tracer=None) -> None:
        self._clock = clock
        #: Optional :class:`repro.trace.Tracer` mirroring intervals as spans.
        self.tracer = tracer
        self._nodes: Dict[str, TimerNode] = {}
        #: Active intervals, innermost last: (name, start time, span emitted).
        self._stack: List[Tuple[str, float, bool]] = []

    def _node(self, name: str) -> TimerNode:
        node = self._nodes.get(name)
        if node is None:
            node = self._nodes[name] = TimerNode(name)
        return node

    def start(self, name: str) -> None:
        """Start the timer ``name`` (pushing it onto the nesting stack)."""
        self._node(name)
        if self._stack:
            parent = self._nodes[self._stack[-1][0]]
            # recursive self-nesting is legal but not a hierarchy edge
            if name != parent.name and name not in parent.child_names:
                parent.child_names.append(name)
        tr = self.tracer
        traced = tr is not None and tr.enabled
        if traced:
            tr.begin(name, cat="timer")
        self._stack.append((name, self._clock(), traced))

    def stop(self, name: str) -> float:
        """Stop timer ``name`` and return the elapsed interval in seconds."""
        if not self._stack:
            raise ValueError(f"timer stop({name!r}) with no active timer")
        top, t0, traced = self._stack[-1]
        if top != name:
            raise ValueError(
                f"timer stop({name!r}) does not match innermost active timer "
                f"({top!r} active)"
            )
        elapsed = self._clock() - t0
        self._stack.pop()
        node = self._nodes[name]
        node.count += 1
        node.total += elapsed
        if traced:
            self.tracer.end(name)
        return elapsed

    @contextmanager
    def timer(self, name: str) -> Iterator[TimerNode]:
        """Context manager: time the enclosed block under ``name``."""
        self.start(name)
        try:
            yield self._nodes[name]
        finally:
            self.stop(name)

    def total(self, name: str) -> float:
        """Total inclusive seconds accumulated by ``name`` (0 if unknown)."""
        node = self._nodes.get(name)
        return node.total if node else 0.0

    def count(self, name: str) -> int:
        """Number of completed start/stop intervals for ``name``."""
        node = self._nodes.get(name)
        return node.count if node else 0

    def exclusive(self, name: str) -> float:
        """Seconds in ``name`` not covered by its children (0 if unknown).

        GPTL-style: a child that also runs under another parent is
        subtracted with its *global* total, so exclusive times are exact
        when the call tree is a tree and approximate when a name is
        shared between parents (same as GPTL's own accounting).
        """
        node = self._nodes.get(name)
        if node is None:
            return 0.0
        children = sum(self._nodes[c].total for c in node.child_names
                       if c != name and c in self._nodes)
        return node.total - children

    def names(self) -> List[str]:
        """All timer names, in first-start order."""
        return list(self._nodes)

    def reset(self) -> None:
        """Forget all timers.  Active timers are discarded."""
        self._nodes.clear()
        self._stack.clear()

    def report(self, sort: bool = True) -> str:
        """Render a GPTL-style text report of all timers.

        Children are indented under their parents (a name observed under
        two parents appears under both, with its global totals), and the
        ``excl[s]`` column is the parent's total minus its children's —
        the time spent in the region itself.
        """
        lines = [f"{'timer':<32s} {'count':>8s} {'total[s]':>12s} "
                 f"{'mean[s]':>12s} {'excl[s]':>12s}"]

        def emit(name: str, depth: int, path: FrozenSet[str]) -> None:
            node = self._nodes[name]
            label = "  " * depth + node.name
            lines.append(
                f"{label:<32s} {node.count:>8d} {node.total:>12.6f} "
                f"{node.mean:>12.6f} {self.exclusive(name):>12.6f}"
            )
            kids = [c for c in node.child_names
                    if c in self._nodes and c != name and c not in path]
            if sort:
                kids.sort(key=lambda c: -self._nodes[c].total)
            for c in kids:
                emit(c, depth + 1, path | {name})

        is_child = {c for n in self._nodes.values() for c in n.child_names
                    if c != n.name}
        roots = [n for n in self._nodes if n not in is_child]
        if not roots and self._nodes:  # degenerate cyclic hierarchy
            roots = [next(iter(self._nodes))]
        if sort:
            roots.sort(key=lambda n: -self._nodes[n].total)
        for r in roots:
            emit(r, 0, frozenset())
        return "\n".join(lines)
