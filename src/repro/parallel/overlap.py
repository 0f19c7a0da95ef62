"""Computation/communication overlap (paper §V-D).

The paper masks halo-exchange latency by computing block interiors while
boundary data is in flight.  Functionally (in the simulator) the overlap
is a scheduling discipline:

1. pack + post boundary sends,
2. compute the interior (which does not read ghost cells),
3. receive + unpack ghosts,
4. compute the boundary strip (which does).

:func:`overlapped_update_fused` drives that sequence on the split
:meth:`~.halo.FusedHaloExchange.begin` / ``finish`` exchange.
:func:`overlap_time` is the analytic counterpart used by the machine
model: with overlap the step costs ``max(t_interior, t_comm) +
t_boundary`` instead of ``t_interior + t_comm + t_boundary``.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .comm import SimComm
from .decomp import BlockDecomposition
from .halo import FusedHaloExchange, as_field_specs


def interior_core(
    decomp: BlockDecomposition, rank: int, depth: Optional[int] = None
) -> Tuple[slice, slice]:
    """Slices of the deep interior: owned cells whose stencils (width =
    halo) never touch ghost cells."""
    h = decomp.halo
    d = h if depth is None else depth
    ly, lx = decomp.local_shape(rank)
    return (slice(h + d, ly - h - d), slice(h + d, lx - h - d))


def boundary_strip(
    decomp: BlockDecomposition, rank: int, depth: Optional[int] = None
) -> Tuple[Tuple[slice, slice], ...]:
    """Slices covering the owned cells *not* in the deep interior."""
    h = decomp.halo
    d = h if depth is None else depth
    ly, lx = decomp.local_shape(rank)
    return (
        (slice(h, h + d), slice(h, lx - h)),              # south strip
        (slice(ly - h - d, ly - h), slice(h, lx - h)),    # north strip
        (slice(h + d, ly - h - d), slice(h, h + d)),      # west strip
        (slice(h + d, ly - h - d), slice(lx - h - d, lx - h)),  # east strip
    )


def overlapped_update_fused(
    comm: SimComm,
    decomp: BlockDecomposition,
    rank: int,
    fields: Sequence,
    compute_region: Callable[[np.ndarray, Tuple[slice, ...]], None],
    fx: Optional[FusedHaloExchange] = None,
) -> None:
    """Non-blocking overlap of a halo exchange with interior computation.

    Posts the phase-1 receives and sends first
    (:meth:`FusedHaloExchange.begin`), computes the deep interior of
    every field while those messages are genuinely in flight on the
    other rank threads, then completes the exchange and computes the
    boundary strips.

    ``fields`` is a sequence of arrays or ``(arr, sign, fill)`` tuples;
    ``compute_region(arr, region)`` is applied per field and must read
    at most ``halo``-wide stencils.  Pass a persistent ``fx`` to reuse
    its buffer pool across steps.
    """
    if fx is None:
        fx = FusedHaloExchange(comm, decomp, rank)
    specs = as_field_specs(fields)
    pending = fx.begin(specs)                       # halos now in flight
    core = interior_core(decomp, rank)
    for s in specs:
        region = (slice(None),) + core if s.arr.ndim == 3 else core
        compute_region(s.arr, region)
    fx.finish(pending)                              # wait + unpack + EW phase
    for strip in boundary_strip(decomp, rank):
        for s in specs:
            region = (slice(None),) + strip if s.arr.ndim == 3 else strip
            compute_region(s.arr, region)


def overlap_time(
    t_interior: float,
    t_boundary: float,
    t_comm: float,
    overlapped: bool = True,
) -> float:
    """Analytic per-step time with/without overlap.

    Without overlap the three phases serialize.  With overlap the
    exchange hides behind the interior computation.
    """
    if not overlapped:
        return t_interior + t_boundary + t_comm
    return max(t_interior, t_comm) + t_boundary
