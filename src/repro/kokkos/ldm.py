"""Local Data Memory (LDM) and DMA cost models for the Sunway CPE.

Each CPE of the SW26010 Pro owns 256 kB of low-latency scratchpad shared
between software-managed LDM and a local data cache, fed by DMA from main
memory (§VI-A).  These models

* size tiles so a tile's working set fits in LDM (the Athread backend),
* price DMA transfers (:class:`DMAEngine`, for the CPE pipeline model;
  the traffic a launch moves is counted in its rank's transfer ledger),
  and
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
from typing import Dict, Sequence

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
    """Cost model of DMA between main memory and LDM.

    What a launch moves is counted in its rank's
    :class:`~repro.kokkos.instrument.TransferLedger`
    (:meth:`~repro.kokkos.instrument.TransferLedger.record_launch_dma`);
    this class only prices a transfer for the CPE pipeline model.
    """

    bandwidth: float = 51.2e9  # bytes/s, SW26010 Pro CG memory bandwidth
    latency: float = 1.0e-6    # seconds per DMA descriptor

    def transfer_time(self, nbytes: float) -> float:
        """Analytic time for one transfer of ``nbytes``."""
        return self.latency + nbytes / self.bandwidth


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
