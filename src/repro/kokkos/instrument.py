"""Per-rank instrumentation counters.

The paper gathers floating-point statistics with a "job-level performance
monitoring and analysis toolchain" on the new Sunway system (§VI-C).  This
module is the analog: every backend records, per kernel label, the number
of launches, tiles executed, grid points visited, declared floating-point
operations and bytes moved, plus a transfer ledger for
host<->device copies (heterogeneous daily memory copies are part of the
timed region in the paper) and Athread DMA traffic.  An
:class:`Instrumentation` is the one place a rank counts: its backend,
arenas and transfers record into it and nowhere else, and a distributed
run carries it home once per rank.

These measured counts are what the machine performance model
(:mod:`repro.perfmodel`) multiplies by hardware specs to predict kernel
times on the paper's four systems.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, Optional


@dataclass
class KernelStats:
    """Accumulated execution statistics for one kernel label."""

    label: str
    launches: int = 0
    tiles: int = 0
    points: int = 0
    flops: float = 0.0
    bytes: float = 0.0

    @property
    def arithmetic_intensity(self) -> float:
        """Flops per byte moved (0 when no bytes were recorded)."""
        return self.flops / self.bytes if self.bytes else 0.0


@dataclass
class TransferLedger:
    """Bytes moved across memory-space boundaries.

    Host<->device copies (``h2d`` / ``d2h``) and Athread DMA between
    main memory and the CPEs' LDM, split into gets (main memory -> LDM)
    and puts (LDM -> main memory).  ``tracer`` is an optional
    :class:`repro.trace.Tracer` (wired in by the owning
    :class:`~repro.kokkos.context.ExecutionContext`); while it is
    enabled, every recorded transfer also lands on the timeline as an
    instant event carrying its byte count.
    """

    h2d_bytes: float = 0.0
    h2d_count: int = 0
    d2h_bytes: float = 0.0
    d2h_count: int = 0
    dma_get_bytes: float = 0.0
    dma_get_count: int = 0
    dma_put_bytes: float = 0.0
    dma_put_count: int = 0
    tracer: Optional[object] = field(default=None, repr=False, compare=False)

    def record_h2d(self, nbytes: float) -> None:
        self.h2d_bytes += nbytes
        self.h2d_count += 1
        tr = self.tracer
        if tr is not None and tr.enabled:
            tr.instant("H2D", cat="xfer", bytes=float(nbytes))

    def record_d2h(self, nbytes: float) -> None:
        self.d2h_bytes += nbytes
        self.d2h_count += 1
        tr = self.tracer
        if tr is not None and tr.enabled:
            tr.instant("D2H", cat="xfer", bytes=float(nbytes))

    def record_launch_dma(self, get_bytes: float, put_bytes: float,
                          count: int) -> None:
        """Record one Athread launch's DMA: ``count`` gets totalling
        ``get_bytes`` and ``count`` puts totalling ``put_bytes`` (one
        descriptor per tile and direction).  A trace sees one instant
        per direction."""
        self.dma_get_bytes += get_bytes
        self.dma_get_count += count
        self.dma_put_bytes += put_bytes
        self.dma_put_count += count
        tr = self.tracer
        if tr is not None and tr.enabled:
            tr.instant("dma_get", cat="xfer", bytes=float(get_bytes),
                       descriptors=int(count))
            tr.instant("dma_put", cat="xfer", bytes=float(put_bytes),
                       descriptors=int(count))

    @property
    def dma_bytes(self) -> float:
        """DMA bytes both ways."""
        return self.dma_get_bytes + self.dma_put_bytes

    @property
    def dma_count(self) -> int:
        """DMA descriptors both ways."""
        return self.dma_get_count + self.dma_put_count

    # Ledgers cross process boundaries in worker exit reports; the
    # tracer back-reference is rank-local wiring and does not travel.
    def __getstate__(self) -> Dict[str, object]:
        state = self.__dict__.copy()
        state["tracer"] = None
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)


@dataclass
class WorkspaceStats:
    """Scratch-arena traffic: requests served vs arrays actually allocated.

    A warm arena serves every request from its pool (``allocations``
    stays flat while ``requests`` grows); a disabled arena allocates on
    every request.  The ratio is the measurable allocation win of the
    ``out=``-rewritten apply bodies.
    """

    requests: int = 0
    allocations: int = 0
    bytes_served: float = 0.0
    bytes_allocated: float = 0.0

    @property
    def hit_rate(self) -> float:
        """Fraction of requests served without allocating."""
        if not self.requests:
            return 0.0
        return 1.0 - self.allocations / self.requests


@dataclass
class Instrumentation:
    """One rank's counters: kernel statistics, the transfer ledger
    (host<->device copies and Athread DMA) and workspace traffic."""

    kernels: Dict[str, KernelStats] = field(default_factory=dict)
    transfers: TransferLedger = field(default_factory=TransferLedger)
    workspace: WorkspaceStats = field(default_factory=WorkspaceStats)
    # One lock covers every mutating recorder: OpenMP tiles of one
    # launch take from the owning context's arena concurrently.
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False, compare=False)

    def kernel(self, label: str) -> KernelStats:
        """Get (creating if needed) the stats record for ``label``."""
        stats = self.kernels.get(label)
        if stats is None:
            stats = self.kernels[label] = KernelStats(label)
        return stats

    def record_launch(
        self,
        label: str,
        *,
        points: int,
        tiles: int = 1,
        flops_per_point: float = 0.0,
        bytes_per_point: float = 0.0,
    ) -> None:
        """Record one kernel launch touching ``points`` grid points."""
        with self._lock:
            stats = self.kernel(label)
            stats.launches += 1
            stats.tiles += tiles
            stats.points += points
            stats.flops += flops_per_point * points
            stats.bytes += bytes_per_point * points

    def record_workspace_take(self, nbytes: float, allocated: bool) -> None:
        """Record one scratch-arena request (thread-safe: OpenMP tiles)."""
        with self._lock:
            ws = self.workspace
            ws.requests += 1
            ws.bytes_served += nbytes
            if allocated:
                ws.allocations += 1
                ws.bytes_allocated += nbytes

    @property
    def total_launches(self) -> int:
        return sum(k.launches for k in self.kernels.values())

    def merge_from(self, other: "Instrumentation") -> "Instrumentation":
        """Accumulate ``other``'s counters into this ledger: per-rank
        ledgers fold into the job-level view (§VI-C); ``other`` is left
        untouched."""
        with self._lock:
            for label, k in other.kernels.items():
                mine = self.kernel(label)
                mine.launches += k.launches
                mine.tiles += k.tiles
                mine.points += k.points
                mine.flops += k.flops
                mine.bytes += k.bytes
            t, mt = other.transfers, self.transfers
            mt.h2d_bytes += t.h2d_bytes
            mt.h2d_count += t.h2d_count
            mt.d2h_bytes += t.d2h_bytes
            mt.d2h_count += t.d2h_count
            mt.dma_get_bytes += t.dma_get_bytes
            mt.dma_get_count += t.dma_get_count
            mt.dma_put_bytes += t.dma_put_bytes
            mt.dma_put_count += t.dma_put_count
            w, mw = other.workspace, self.workspace
            mw.requests += w.requests
            mw.allocations += w.allocations
            mw.bytes_served += w.bytes_served
            mw.bytes_allocated += w.bytes_allocated
        return self

    # Instrumentation rides home in process-mode worker reports; the
    # lock is process-local and is rebuilt on unpickle.
    def __getstate__(self) -> Dict[str, object]:
        state = self.__dict__.copy()
        state.pop("_lock", None)
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def reset(self) -> None:
        """Clear all statistics (the ledger and arena counters included)."""
        self.kernels.clear()
        self.transfers = TransferLedger(tracer=self.transfers.tracer)
        self.workspace = WorkspaceStats()

    def report(self) -> str:
        """Render a text table of all kernels sorted by byte traffic."""
        rows = sorted(self.kernels.values(), key=lambda k: -k.bytes)
        lines = [
            f"{'kernel':<40s} {'launches':>9s} {'points':>12s} "
            f"{'Mflops':>10s} {'MB':>10s} {'AI':>7s}"
        ]
        for k in rows:
            lines.append(
                f"{k.label:<40s} {k.launches:>9d} {k.points:>12d} "
                f"{k.flops / 1e6:>10.2f} {k.bytes / 1e6:>10.2f} "
                f"{k.arithmetic_intensity:>7.3f}"
            )
        return "\n".join(lines)
