"""Athread backend: the simulated Sunway SW26010 Pro core group.

This is the functional model of the paper's central innovation — Kokkos
enhanced with an Athread backend (§V-B).  It reproduces the mechanism,
not just the effect:

* **Registration + callback dispatch.**  Athread can only launch plain C
  functions, so functors must have been registered (the
  ``KOKKOS_REGISTER_FOR_*D`` macro analog in
  :mod:`repro.kokkos.functor`).  Launching an unregistered functor
  raises :class:`~repro.errors.RegistrationError`; registered functors
  are found through the registration table and executed via their
  preset callbacks.
* **Tile distribution (Eq. 1–2).**  The iteration space is cut into
  tiles; ``total_tile`` and ``num_tile_per_cpe`` follow the paper's
  equations, and tiles are swept ergodically across the 64 CPEs
  (``cpe = tile_index % num_cpe``).
* **LDM discipline.**  Each tile's working set is staged through the
  active CPE's 256 kB scratchpad: the backend sizes default tiles so
  two DMA buffers fit (double buffering), and raises
  :class:`~repro.errors.LDMError` when an explicit tile does not fit.
* **DMA accounting.**  Every tile performs a ``get`` (inputs) and a
  ``put`` (outputs); a launch charges its schedule's tile-order totals
  to the rank's transfer ledger in one
  :meth:`~repro.kokkos.instrument.TransferLedger.record_launch_dma`
  call, which the machine model converts to time on the 51.2 GB/s CG
  memory system.  The space itself keeps only the LDM model (per-CPE
  high water, the last tile distribution).

The tiles are bookkeeping around one offloaded loop body: a launch is
:class:`_AthreadPlan`, run once by an eager ``parallel_for`` or replayed
by a sealed graph, which runs the registered callback once over the
whole range and charges its cached :class:`TileSchedule`, so results
are bit-identical to the Serial backend — the property the paper relies
on when validating ports.  Reductions stay tiled: the order in which
per-tile partials combine fixes the float result.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, Optional, Tuple

from ...errors import LDMError, RegistrationError
from ..instrument import Instrumentation
from ..ldm import (
    LDMAllocator,
    SW26010_LDM_BYTES,
    haloed_tile_points,
    max_tile_points,
)
from ..policy import (
    MDRangePolicy,
    iter_tiles,
    tile_volume,
    tiles_per_cpe,
    total_tiles,
)
from ..registry import default_registry
from .base import (
    ExecutionSpace,
    LaunchPlan,
    Reducer,
    check_host_views,
    functor_cost,
    staging_split,
)

#: CPEs per core group on the SW26010 Pro.
SW26010_CPES_PER_CG = 64


class TileSchedule:
    """What one Athread launch charges, fixed by its shape and costs.

    ``get_total`` / ``put_total`` are the per-tile DMA sizes summed in
    tile order, which every launch adds to the ledger at once; ``peaks``
    pair each CPE with its largest tile working set.  Building one
    proves every tile fits its CPE's LDM.
    """

    __slots__ = ("tile", "full", "tiles", "distribution",
                 "get_total", "put_total", "peaks")

    def __init__(self, key: tuple, tile: Tuple[int, ...]) -> None:
        ranges, _, halo, bpp, bpp_in, bpp_out, buffers, num_cpes, capacity = key
        self.tile = tile
        self.full = tuple(slice(b, e) for b, e in ranges)
        self.tiles = total_tiles([e - b for b, e in ranges], tile)
        self.distribution = (self.tiles, tiles_per_cpe(self.tiles, num_cpes))
        peaks = {}
        self.get_total = self.put_total = 0.0
        for tidx, slices in enumerate(iter_tiles(ranges, tile)
                                      if self.tiles else ()):
            cpe = tidx % num_cpes
            vol = tile_volume(slices)
            staged = haloed_tile_points([s.stop - s.start for s in slices], halo)
            working = int(staged * bpp)
            if working * buffers > capacity:
                ring = (f" (stencil ring +-{halo} -> {staged} staged)"
                        if staged != vol else "")
                raise LDMError(
                    f"tile of {vol} points{ring} needs {working} B x {buffers} "
                    f"buffers which exceeds the {capacity} B LDM of CPE {cpe}; "
                    "use a smaller MDRangePolicy tile"
                )
            self.get_total += staged * bpp_in
            self.put_total += vol * bpp_out
            if working > peaks.get(cpe, 0):
                peaks[cpe] = working
        self.peaks = tuple(peaks.items())


#: Every schedule built in this process (at most 1024), by everything
#: it depends on; schedules are immutable, so Athread spaces share them.
_SCHEDULES: Dict[tuple, TileSchedule] = {}


class _AthreadPlan(LaunchPlan):
    """Registry lookup and the launch's :class:`TileSchedule` baked in.

    The body is the registered preset callback bound to the whole range
    (the §V-B dispatch).  A run calls it once, then charges the
    schedule: its DMA totals in one ledger call, its LDM peaks, its
    tile distribution and ``inst`` tiles — all after the body returns.
    The ledger is looked up on every run, as ``inst.reset()`` replaces
    it.
    """

    __slots__ = ("_sched",)

    def __init__(self, space, label, policy, functor) -> None:
        super().__init__(space, label, policy, functor)
        check_host_views(functor, space.name)
        callback = space._lookup_callback(functor, "for")
        self._sched = sched = space.schedule(policy, functor)
        self._sweep = partial(callback, functor, sched.full)

    def run(self) -> None:
        self._sweep()
        space, sched = self.space, self._sched
        space.inst.transfers.record_launch_dma(
            sched.get_total, sched.put_total, sched.tiles)
        if sched not in space._peaked:
            space._record_peaks(sched)
        space.last_distribution = sched.distribution
        self._record(tiles=sched.tiles)


class AthreadBackend(ExecutionSpace):
    """Simulated Sunway core group (1 MPE + 64 CPEs)."""

    name = "athread"
    programming_model = "Athread"
    plan_class = _AthreadPlan

    def __init__(
        self,
        num_cpes: int = SW26010_CPES_PER_CG,
        ldm_bytes: int = SW26010_LDM_BYTES,
        registry=None,
        double_buffer: bool = True,
        inst: Optional[Instrumentation] = None,
    ) -> None:
        super().__init__(inst)
        if num_cpes < 1:
            raise ValueError("num_cpes must be >= 1")
        self.concurrency = num_cpes
        self.num_cpes = num_cpes
        self.registry = registry if registry is not None else default_registry()
        self.double_buffer = double_buffer
        self.ldm = [LDMAllocator(ldm_bytes) for _ in range(num_cpes)]
        #: Schedules whose LDM peaks this space has recorded since the
        #: last :meth:`reset_counters`.
        self._peaked: set = set()
        #: Work-distribution record of the last launch (for tests/benches):
        #: (total_tiles, tiles_per_cpe).
        self.last_distribution: Tuple[int, int] = (0, 0)

    # -- tiling ------------------------------------------------------------

    def choose_tile(self, policy: MDRangePolicy, functor) -> Tuple[int, ...]:
        """Pick tile lengths for a launch.

        Honours an explicit ``policy.tile``.  Otherwise starts from the
        full extents and repeatedly halves the largest tile dimension
        until (a) the tile working set — including the functor's
        ``stencil_halo`` ring, which the DMA gets must also stage —
        fits in an LDM DMA buffer and (b) there are at least
        ``num_cpes`` tiles (so every CPE gets work when the range is
        large enough).
        """
        if policy.tile is not None:
            return policy.tile
        _, bpp = functor_cost(functor)
        halo = max(0, int(getattr(functor, "stencil_halo", 0)))
        buffers = 2 if self.double_buffer else 1
        cap = max_tile_points(bpp, self.ldm[0].capacity, buffers=buffers)
        tile = list(policy.extents)
        tile = [max(1, t) for t in tile]

        def vol() -> int:
            return haloed_tile_points(tile, halo)

        def ntiles() -> int:
            return total_tiles(policy.extents, tile)

        while (vol() > cap or ntiles() < min(self.num_cpes, policy.size)) and max(tile) > 1:
            i = max(range(len(tile)), key=lambda d: tile[d])
            tile[i] = max(1, tile[i] // 2)
        return tuple(tile)

    def schedule(self, policy: MDRangePolicy, functor) -> TileSchedule:
        """The launch's :class:`TileSchedule`, built once per process for
        everything it depends on; raises :class:`~repro.errors.LDMError`
        when a tile does not fit."""
        _, bpp = functor_cost(functor)
        bpp_in, bpp_out = staging_split(functor)
        halo = max(0, int(getattr(functor, "stencil_halo", 0)))
        key = (policy.ranges, policy.tile, halo, bpp, bpp_in, bpp_out,
               2 if self.double_buffer else 1, self.num_cpes,
               self.ldm[0].capacity)
        sched = _SCHEDULES.get(key)
        if sched is None:
            sched = TileSchedule(key, self.choose_tile(policy, functor))
            if len(_SCHEDULES) >= 1024:
                _SCHEDULES.clear()
            _SCHEDULES[key] = sched
        return sched

    def _record_peaks(self, sched: TileSchedule) -> None:
        """Each CPE allocates its largest tile buffer once, as CPE code
        holds one LDM buffer across its tiles; ``high_water`` only
        rises, so a space does so once per schedule per ledger lifetime."""
        for cpe, peak in sched.peaks:
            self.ldm[cpe].alloc("tile", peak)
            self.ldm[cpe].free("tile")
        self._peaked.add(sched)

    def _lookup_callback(self, functor, kind: str):
        entry = self.registry.lookup(type(functor))
        if entry.kind != kind:
            raise RegistrationError(
                f"functor {type(functor).__name__!r} is registered for "
                f"{entry.kind!r} but launched as {kind!r}"
            )
        return entry.callback

    # -- execution ---------------------------------------------------------

    def run_reduce(self, label: str, policy: MDRangePolicy, functor, reducer: Reducer):
        # tile by tile: the order the per-tile partials combine in fixes
        # the float result
        check_host_views(functor, self.name)
        callback = self._lookup_callback(functor, "reduce")
        sched = self.schedule(policy, functor)
        acc = reducer.identity
        for slices in iter_tiles(policy.ranges, sched.tile) if sched.tiles else ():
            part = callback(functor, slices, reducer.combine)
            if part is not None:
                acc = reducer.combine(acc, part)
        # one scalar per tile back to the MPE
        self.inst.transfers.record_launch_dma(
            sched.get_total,
            float(getattr(functor, "bytes_out_per_point", 8.0)) * sched.tiles,
            sched.tiles)
        if sched not in self._peaked:
            self._record_peaks(sched)
        self.last_distribution = sched.distribution
        flops, nbytes = functor_cost(functor)
        self.inst.record_launch(label, points=policy.size, tiles=sched.tiles,
                                flops_per_point=flops, bytes_per_point=nbytes)
        return acc

    # -- introspection -----------------------------------------------------

    def ldm_high_water(self) -> int:
        """Largest LDM occupancy seen on any CPE."""
        return max(a.high_water for a in self.ldm)

    def reset_counters(self) -> None:
        """Reset the LDM peaks (the DMA counts live in ``inst``)."""
        for a in self.ldm:
            a.reset()
            a.high_water = 0
        self._peaked.clear()
