"""Local Data Memory (LDM) and DMA models for the Sunway CPE.

Each CPE of the SW26010 Pro owns 256 kB of low-latency scratchpad shared
between software-managed LDM and a local data cache, fed by DMA from main
memory (§VI-A).  The Athread backend uses these models to

* size tiles so a tile's working set fits in LDM,
* account DMA traffic per kernel (get before compute, put after), and
* model the double-buffered pipeline the paper uses for
  ``advection_tracer`` ("a double-buffered technique that leverages the
  asynchronous mechanism ... between the CPE workload execution and DMA
  transfers", §V-C2): with two buffers, transfer of tile *k+1* overlaps
  compute of tile *k*, so steady-state time per tile is
  ``max(compute, transfer)`` instead of ``compute + transfer``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from ..errors import LDMError

#: Default per-CPE scratchpad capacity (bytes) of the SW26010 Pro.
SW26010_LDM_BYTES = 256 * 1024


@dataclass
class LDMAllocator:
    """A bump allocator over one CPE's scratchpad.

    Tracks live allocations by name; raises :class:`LDMError` when a
    request would exceed capacity — the same hard wall real CPE code
    hits when a tile's working set outgrows LDM.
    """

    capacity: int = SW26010_LDM_BYTES
    used: int = 0
    allocations: Dict[str, int] = field(default_factory=dict)
    high_water: int = 0

    def alloc(self, name: str, nbytes: int) -> None:
        if nbytes < 0:
            raise ValueError("allocation size must be non-negative")
        if name in self.allocations:
            raise LDMError(f"LDM allocation {name!r} already exists")
        if self.used + nbytes > self.capacity:
            raise LDMError(
                f"LDM overflow: {name!r} needs {nbytes} B but only "
                f"{self.capacity - self.used} of {self.capacity} B free"
            )
        self.allocations[name] = nbytes
        self.used += nbytes
        self.high_water = max(self.high_water, self.used)

    def free(self, name: str) -> None:
        nbytes = self.allocations.pop(name, None)
        if nbytes is None:
            raise LDMError(f"LDM free of unknown allocation {name!r}")
        self.used -= nbytes

    def reset(self) -> None:
        self.allocations.clear()
        self.used = 0


@dataclass
class DMAEngine:
    """Ledger of DMA transfers between main memory and LDM.

    ``bandwidth`` and ``latency`` are used only by the analytic cost
    helpers; functional execution just records volumes.
    """

    bandwidth: float = 51.2e9  # bytes/s, SW26010 Pro CG memory bandwidth
    latency: float = 1.0e-6    # seconds per DMA descriptor
    get_bytes: float = 0.0
    put_bytes: float = 0.0
    get_count: int = 0
    put_count: int = 0

    # Optional repro.trace.Tracer (class attribute, not a dataclass
    # field, so ledger equality and repr are unchanged); the owning
    # ExecutionContext assigns it when tracing is enabled.
    tracer = None

    def get(self, *nbytes: float) -> None:
        """Record one main-memory -> LDM transfer per size.

        Summed one by one, in order: an eager launch's per-tile sizes
        leave the ledger floats one record per tile would.  A trace sees
        one instant per call.
        """
        self.get_bytes = self._tally("dma_get", self.get_bytes, nbytes)
        self.get_count += len(nbytes)

    def put(self, *nbytes: float) -> None:
        """Record one LDM -> main-memory transfer per size, in order."""
        self.put_bytes = self._tally("dma_put", self.put_bytes, nbytes)
        self.put_count += len(nbytes)

    def _tally(self, name: str, total: float, nbytes) -> float:
        for b in nbytes:
            total += b
        tr = self.tracer
        if tr is not None and tr.enabled:
            tr.instant(name, cat="xfer", bytes=float(sum(nbytes)),
                       descriptors=len(nbytes))
        return total

    def get_batch(self, total_bytes: float, count: int) -> None:
        """Record ``count`` gets totalling ``total_bytes`` in one call.

        A sealed replay adds its schedule's pre-summed per-tile sizes;
        the totals match the eager path's up to float rounding.
        """
        self.get_bytes += total_bytes
        self.get_count += count
        tr = self.tracer
        if tr is not None and tr.enabled:
            tr.instant("dma_get", cat="xfer", bytes=float(total_bytes),
                       descriptors=int(count))

    def put_batch(self, total_bytes: float, count: int) -> None:
        """Record ``count`` puts totalling ``total_bytes`` in one call."""
        self.put_bytes += total_bytes
        self.put_count += count
        tr = self.tracer
        if tr is not None and tr.enabled:
            tr.instant("dma_put", cat="xfer", bytes=float(total_bytes),
                       descriptors=int(count))

    @property
    def total_bytes(self) -> float:
        return self.get_bytes + self.put_bytes

    @property
    def total_count(self) -> int:
        return self.get_count + self.put_count

    def transfer_time(self, nbytes: float) -> float:
        """Analytic time for one transfer of ``nbytes``."""
        return self.latency + nbytes / self.bandwidth

    def reset(self) -> None:
        self.get_bytes = self.put_bytes = 0.0
        self.get_count = self.put_count = 0


def double_buffered_time(
    compute_per_tile: float,
    transfer_per_tile: float,
    num_tiles: int,
    buffers: int = 2,
) -> float:
    """Pipeline time for ``num_tiles`` tiles with ``buffers`` DMA buffers.

    With a single buffer the stages serialise; with two or more, the
    steady-state per-tile cost is the max of the stages, plus the
    pipeline fill (one leading transfer) and drain (one trailing
    compute/put).

    Returns the total seconds for the tile sweep.
    """
    if num_tiles <= 0:
        return 0.0
    if buffers <= 1:
        return num_tiles * (compute_per_tile + transfer_per_tile)
    steady = max(compute_per_tile, transfer_per_tile)
    return transfer_per_tile + (num_tiles - 1) * steady + compute_per_tile


def haloed_tile_points(tile: Sequence[int], stencil_halo: int) -> int:
    """Points a CPE must stage for one tile including its stencil ring.

    A functor with ``stencil_halo = h`` reads ``+-h`` neighbours on the
    horizontal (last two) loop axes, so each DMA get must fetch the tile
    grown by ``2 h`` points per horizontal axis (a 1-D tile grows only
    its single axis).  ``h = 0`` is exactly the plain tile volume, and
    ``repro.analysis`` cross-checks declared halos against this model.
    """
    dims = [max(1, int(t)) for t in tile]
    h = max(0, int(stencil_halo))
    if h:
        for ax in range(max(0, len(dims) - 2), len(dims)):
            dims[ax] += 2 * h
    return math.prod(dims)


def max_tile_points(
    bytes_per_point: float,
    capacity: int = SW26010_LDM_BYTES,
    buffers: int = 2,
    reserve: int = 8 * 1024,
) -> int:
    """Largest tile (in points) whose working set fits in LDM.

    ``buffers`` working sets must fit simultaneously when double
    buffering; ``reserve`` bytes are kept for stack/locals, mirroring
    real CPE code budgets.
    """
    if bytes_per_point <= 0:
        bytes_per_point = 8.0
    usable = max(0, capacity - reserve)
    per_buffer = usable // max(1, buffers)
    return max(1, int(per_buffer // bytes_per_point))
