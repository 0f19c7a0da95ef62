"""2-D and 3-D halo updates with pack/unpack strategies.

The halo update is the model's serial bottleneck (§V-D): its pack/unpack
cost does not shrink with more ranks (Amdahl), and the 3-D update — a
2-D update extended point-wise in the vertical — suffers "substantial
data access discontinuity" when the vertical is the innermost loop.

This module provides the functional halo machinery used by the model:

* :func:`exchange2d` / :func:`exchange3d` — correct halo updates on the
  tripolar topology of :class:`~repro.parallel.decomp.BlockDecomposition`
  (north-south + fold first over interior columns, then east-west over
  full rows so corners propagate).
* pack/unpack strategy functions — ``pack_naive`` (pure-Python element
  loops, the legacy-Fortran-shaped baseline), ``pack_sliced`` (the C++
  rewrite analog: one contiguous copy) and ``pack_kernel`` (the
  Kokkos-accelerated pack, dispatched through ``parallel_for``) — which
  the ablation benchmark compares.
* 3-D update methods — ``per_level`` (a 2-D exchange per level: many
  small messages, the unoptimized shape) and ``transposed`` (the Fig. 5
  optimization: real halo transposed to vertical-major, one message per
  neighbour, ghost halo transposed back).

All variants produce identical ghost values; the tests enforce it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..errors import CommunicationError
from .comm import SimComm
from .decomp import BlockDecomposition

# Message tags by direction of travel.
TAG_NORTHWARD = 11
TAG_SOUTHWARD = 12
TAG_FOLD = 13
TAG_EASTWARD = 14
TAG_WESTWARD = 15


# ---------------------------------------------------------------------------
# pack / unpack strategies
# ---------------------------------------------------------------------------

def pack_naive(arr: np.ndarray, rows: slice, cols: slice) -> np.ndarray:
    """Element-by-element pack (the unoptimized O(n) Fortran-shaped path)."""
    nrow = rows.stop - rows.start
    ncol = cols.stop - cols.start
    out = np.empty((nrow, ncol), dtype=arr.dtype)
    for jj in range(nrow):
        for ii in range(ncol):
            out[jj, ii] = arr[rows.start + jj, cols.start + ii]
    return out


def pack_sliced(arr: np.ndarray, rows: slice, cols: slice) -> np.ndarray:
    """Single contiguous copy (the C++-rewrite optimization)."""
    return np.ascontiguousarray(arr[rows, cols])


class _PackFunctor:
    """Kokkos pack kernel: buffer[j, i] = field[rows.start+j, cols.start+i].

    Registered lazily (first use) so importing this module does not pull
    in the full kokkos package.
    """

    flops_per_point = 0.0
    bytes_per_point = 16.0

    def __init__(self, field: np.ndarray, buffer: np.ndarray,
                 rows: slice, cols: slice) -> None:
        self.field = field
        self.buffer = buffer
        self.rows = rows
        self.cols = cols

    def __call__(self, j: int, i: int) -> None:
        self.buffer[j, i] = self.field[self.rows.start + j, self.cols.start + i]

    def apply(self, slices) -> None:
        sj, si = slices
        fj = slice(self.rows.start + sj.start, self.rows.start + sj.stop)
        fi = slice(self.cols.start + si.start, self.cols.start + si.stop)
        self.buffer[sj, si] = self.field[fj, fi]


_PACK_REGISTERED = False
_PACK_LOCK = threading.Lock()


def pack_kernel(arr: np.ndarray, rows: slice, cols: slice, space) -> np.ndarray:
    """Pack through the portability layer (the Kokkos-accelerated pack),
    as one launch on ``space`` counted in that space's ledger."""
    from ..kokkos import MDRangePolicy, parallel_for
    from ..kokkos.functor import register_functor_instance

    nrow = rows.stop - rows.start
    ncol = cols.stop - cols.start
    out = np.empty((nrow, ncol), dtype=arr.dtype)
    functor = _PackFunctor(arr, out, rows, cols)
    global _PACK_REGISTERED
    if not _PACK_REGISTERED:
        # Double-checked under the lock: rank threads pack concurrently
        # and registration must happen exactly once.
        with _PACK_LOCK:
            if not _PACK_REGISTERED:
                register_functor_instance(functor, "for", 2, name="halo_pack")
                _PACK_REGISTERED = True
    parallel_for("halo_pack", MDRangePolicy([nrow, ncol]), functor, space)
    return out


#: Packers :func:`exchange2d` can select by name (``pack_kernel`` needs
#: the caller's execution space, so it is called directly instead).
PACKERS = {
    "naive": pack_naive,
    "sliced": pack_sliced,
}


# ---------------------------------------------------------------------------
# 2-D exchange
# ---------------------------------------------------------------------------

def _fold_payload(arr: np.ndarray, h: int) -> np.ndarray:
    """Top real-halo rows ordered top-down (fold g = 0 first)."""
    return arr[-2 * h:-h][::-1].copy()


def exchange2d(
    comm: SimComm,
    decomp: BlockDecomposition,
    rank: int,
    arr: np.ndarray,
    sign: float = 1.0,
    fill: float = 0.0,
    packer: str = "sliced",
) -> np.ndarray:
    """Update the ghost halo of a local 2-D array in place.

    Parameters
    ----------
    sign:
        Multiplier applied to fold-crossing data (-1 for B-grid velocity
        components, +1 for scalars).
    fill:
        Value for the closed southern boundary's ghost rows.
    packer:
        Pack strategy name from :data:`PACKERS`.
    """
    h = decomp.halo
    ly, lx = decomp.local_shape(rank)
    if arr.shape != (ly, lx):
        raise CommunicationError(
            f"rank {rank}: local array shape {arr.shape} != expected {(ly, lx)}"
        )
    pack = PACKERS[packer]
    nb = decomp.neighbors(rank)

    # -- phase 1: north-south (+ fold), interior columns ------------------
    cols = slice(h, lx - h)
    if nb["n"] is not None:
        comm.send(pack(arr, slice(ly - 2 * h, ly - h), cols), nb["n"], TAG_NORTHWARD)
    elif nb["fold"] is not None:
        comm.send(_fold_payload(arr, h)[:, h:lx - h], nb["fold"], TAG_FOLD)
    if nb["s"] is not None:
        comm.send(pack(arr, slice(h, 2 * h), cols), nb["s"], TAG_SOUTHWARD)

    if nb["s"] is not None:
        arr[:h, cols] = comm.recv(nb["s"], TAG_NORTHWARD)
    else:
        arr[:h, :] = fill
    if nb["n"] is not None:
        arr[ly - h:, cols] = comm.recv(nb["n"], TAG_SOUTHWARD)
    elif nb["fold"] is not None:
        msg = comm.recv(nb["fold"], TAG_FOLD)
        arr[ly - h:, cols] = sign * msg[:, ::-1]
    else:
        arr[ly - h:, :] = fill

    # -- phase 2: east-west, full rows (corners propagate) -----------------
    rows = slice(0, ly)
    comm.send(pack(arr, rows, slice(lx - 2 * h, lx - h)), nb["e"], TAG_EASTWARD)
    comm.send(pack(arr, rows, slice(h, 2 * h)), nb["w"], TAG_WESTWARD)
    arr[:, :h] = comm.recv(nb["w"], TAG_EASTWARD)
    arr[:, lx - h:] = comm.recv(nb["e"], TAG_WESTWARD)
    return arr


# ---------------------------------------------------------------------------
# 3-D exchange
# ---------------------------------------------------------------------------

def exchange3d(
    comm: SimComm,
    decomp: BlockDecomposition,
    rank: int,
    arr: np.ndarray,
    sign: float = 1.0,
    fill: float = 0.0,
    method: str = "transposed",
) -> np.ndarray:
    """Update the ghost halo of a local ``(nz, ly, lx)`` array in place.

    ``method="per_level"`` performs one 2-D exchange per vertical level
    (the unoptimized path: message count scales with ``nz``).
    ``method="transposed"`` is the Fig. 5 optimization: each directional
    real halo is transposed to a vertical-major contiguous buffer, sent
    as a single message, and the received ghost halo is transposed back.
    """
    if arr.ndim != 3:
        raise CommunicationError(f"exchange3d expects 3-D arrays, got {arr.ndim}-D")
    if method == "per_level":
        for k in range(arr.shape[0]):
            exchange2d(comm, decomp, rank, arr[k], sign=sign, fill=fill)
        return arr
    if method != "transposed":
        raise CommunicationError(f"unknown 3-D halo method {method!r}")

    h = decomp.halo
    nz, ly, lx = arr.shape
    if (ly, lx) != decomp.local_shape(rank):
        raise CommunicationError(
            f"rank {rank}: local array shape {(ly, lx)} != expected "
            f"{decomp.local_shape(rank)}"
        )
    nb = decomp.neighbors(rank)

    def pack_vmajor(block3d: np.ndarray) -> np.ndarray:
        # horizontal-major (k, j, i) -> vertical-major (j, i, k), contiguous
        return np.ascontiguousarray(np.moveaxis(block3d, 0, -1))

    def unpack_vmajor(buf: np.ndarray) -> np.ndarray:
        return np.moveaxis(buf, -1, 0)

    cols = slice(h, lx - h)
    # -- phase 1: north-south (+ fold) -------------------------------------
    if nb["n"] is not None:
        comm.send(pack_vmajor(arr[:, ly - 2 * h:ly - h, cols]), nb["n"], TAG_NORTHWARD)
    elif nb["fold"] is not None:
        payload = arr[:, ly - 2 * h:ly - h, cols][:, ::-1, :]
        comm.send(pack_vmajor(payload), nb["fold"], TAG_FOLD)
    if nb["s"] is not None:
        comm.send(pack_vmajor(arr[:, h:2 * h, cols]), nb["s"], TAG_SOUTHWARD)

    if nb["s"] is not None:
        arr[:, :h, cols] = unpack_vmajor(comm.recv(nb["s"], TAG_NORTHWARD))
    else:
        arr[:, :h, :] = fill
    if nb["n"] is not None:
        arr[:, ly - h:, cols] = unpack_vmajor(comm.recv(nb["n"], TAG_SOUTHWARD))
    elif nb["fold"] is not None:
        buf = unpack_vmajor(comm.recv(nb["fold"], TAG_FOLD))
        arr[:, ly - h:, cols] = sign * buf[:, :, ::-1]
    else:
        arr[:, ly - h:, :] = fill

    # -- phase 2: east-west -------------------------------------------------
    comm.send(pack_vmajor(arr[:, :, lx - 2 * h:lx - h]), nb["e"], TAG_EASTWARD)
    comm.send(pack_vmajor(arr[:, :, h:2 * h]), nb["w"], TAG_WESTWARD)
    arr[:, :, :h] = unpack_vmajor(comm.recv(nb["w"], TAG_EASTWARD))
    arr[:, :, lx - h:] = unpack_vmajor(comm.recv(nb["e"], TAG_WESTWARD))
    return arr


@dataclass
class ExchangeEvent:
    """Metadata for one halo exchange the updater performed.

    The graphcheck declaration-consistency test replays a captured step
    with recording on and reconciles these events against the host
    nodes' declared ``halo_refresh`` sets — so the static schedule the
    verifier walks provably matches what the exchange layer did.

    ``messages`` is exact for fused exchanges (diffed from the fused
    path's send counter) and an upper-bound estimate of 4 per field for
    the per-field paths (N/fold + S + E + W; closed boundaries send
    fewer).
    """

    kind: str                       # "2d" | "3d" | "fused"
    phase: Optional[str]
    fields: int                     # member fields exchanged
    shapes: Tuple[Tuple[int, ...], ...]
    messages: int


class HaloUpdater:
    """Bundles (comm, decomp, rank) for convenient repeated updates.

    Besides the per-field :meth:`update2d` / :meth:`update3d`, the
    updater owns a :class:`~repro.parallel.halo_fused.FusedHaloExchange`
    (built lazily) whose persistent buffer pool makes repeated
    :meth:`update_many` calls allocation-free in steady state.

    Setting :attr:`events` to a list (see :meth:`record_events`) makes
    every update append an :class:`ExchangeEvent`; ``None`` (the
    default) keeps the hot path free of any recording work.
    """

    def __init__(
        self,
        comm: SimComm,
        decomp: BlockDecomposition,
        rank: Optional[int] = None,
        tracer=None,
    ) -> None:
        self.comm = comm
        self.decomp = decomp
        self.rank = comm.rank if rank is None else rank
        #: Optional span tracer handed to the fused fast path.
        self.tracer = tracer
        #: Count of halo updates performed (for the cost model).  Fused
        #: exchanges count each member field, so the step profile sees
        #: the same number of *semantic* updates either way.
        self.updates2d = 0
        self.updates3d = 0
        #: Count of fused exchanges (message-level events).
        self.fused_exchanges = 0
        #: Exchange-event log (None = recording off).
        self.events: Optional[List[ExchangeEvent]] = None
        self._fused = None

    def record_events(self, on: bool = True) -> None:
        """Switch the exchange-event log on (fresh list) or off."""
        self.events = [] if on else None

    @property
    def fused(self):
        """The lazily-built fused fast path (shares this updater's rank)."""
        if self._fused is None:
            from .halo_fused import FusedHaloExchange

            self._fused = FusedHaloExchange(self.comm, self.decomp, self.rank,
                                            tracer=self.tracer)
        return self._fused

    @property
    def pool(self):
        """The fused path's persistent buffer pool."""
        return self.fused.pool

    def update2d(self, arr: np.ndarray, sign: float = 1.0, fill: float = 0.0) -> np.ndarray:
        self.updates2d += 1
        if self.events is not None:
            self.events.append(ExchangeEvent("2d", None, 1, (arr.shape,), 4))
        return exchange2d(self.comm, self.decomp, self.rank, arr,
                          sign=sign, fill=fill)

    def update3d(self, arr: np.ndarray, sign: float = 1.0, fill: float = 0.0) -> np.ndarray:
        self.updates3d += 1
        if self.events is not None:
            self.events.append(ExchangeEvent("3d", None, 1, (arr.shape,), 4))
        return exchange3d(self.comm, self.decomp, self.rank, arr,
                          sign=sign, fill=fill)

    def update_many(self, fields, phase: Optional[str] = None) -> None:
        """Fused halo update of several fields at once.

        ``fields`` is a sequence of arrays or ``(arr, sign, fill)``
        tuples (2-D and 3-D may be mixed); all fields travel in one
        message per neighbour per phase.  Bitwise identical to calling
        :meth:`update2d` / :meth:`update3d` once per field.
        """
        from .halo_fused import as_field_specs

        specs = as_field_specs(fields)
        for s in specs:
            if s.arr.ndim == 2:
                self.updates2d += 1
            else:
                self.updates3d += 1
        self.fused_exchanges += 1
        fused = self.fused
        sent0 = fused.messages_sent
        fused.exchange(specs, phase=phase)
        if self.events is not None:
            self.events.append(ExchangeEvent(
                "fused", phase, len(specs),
                tuple(s.arr.shape for s in specs),
                fused.messages_sent - sent0))
