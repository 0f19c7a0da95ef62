"""The halo exchange: one round, every ghost from the rank that owns it.

The halo update is the model's serial bottleneck (§V-D): its pack/unpack
cost does not shrink with more ranks (Amdahl) and every message pays a
latency, so the paper aggregates, persists and posts first.  This module
is that exchange, and the only one — updating a single field is its K=1
case.

**Moves.**  :meth:`~repro.parallel.decomp.BlockDecomposition.ghost_moves`
derives each ghost cell's source by index arithmetic — zonal wrap,
closed south, the tripolar mirror with its sign — as a cell of the
interior of the rank that owns it, or a fill, and compresses the
sources into rectangular moves grouped by owner.  Corners come from
their owner's interior like any other ghost, so nothing propagates from
ghost to ghost across ranks and there is no second phase.  An exchange
is then:

* ``begin`` — post one receive per remote peer per dtype group; pack
  every move a peer needs from this rank, of every field in the group,
  back to back into one pooled buffer and hand it over as **one
  frame**; run the fills and this rank's own moves as in-place slice
  copies (a one-column grid's zonal wrap reads the ghost rows its own
  fold move has just written — local ghosts only).
* ``finish`` — wait once per frame and unpack it, sign included.

Every ghost therefore holds the interior as of ``begin``.  On a 1×2
world, where one peer is fold partner, east and west neighbour at
once, an exchange is one frame each way; on one rank it is three
copies and a fill.

**Logical ledgers, physical frames.**  The sender's comm ledger keeps
the paper's message schedule, which the network model and the A2
ablation price: one message per dtype group for each south, north or
fold side and for each of east and west — ``h`` rows of interior
columns, or ``h`` columns of full rows — whoever owns the neighbour.
A plan fixes that per-peer delta once and each exchange records it
into ``comm.traffic`` with one
:meth:`~repro.parallel.comm.TrafficLedger.record_batch` per peer, self
or remote.  The frames themselves go through the communicator's
un-ledgered ``_transmit`` (ownership moves with the buffer: no copy);
each emits one ``send`` trace instant.

**Persistence.**  Everything a field-set signature fixes — dtype groups,
frame layouts, ledger deltas — is resolved once per distinct ``(shape,
dtype)`` tuple (:class:`_Plan`, the analog of an MPI persistent
request).  A :class:`BufferPool` recycles frames: a received frame
returns to the local pool after unpacking, and because the frame a rank
sends a peer is the size of the one it gets back (the plan asserts it)
the pool reaches a fixed point after the first exchange.

The reference the tests compare every rank against is
:func:`repro.ocean.localdomain.local_with_halo`, which builds the
halo-filled block from the global array by its own index arithmetic.
:class:`HaloUpdater` is the model-facing handle that owns one exchange
and counts semantic updates for the cost model.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..errors import CommunicationError
from .comm import SimComm, TrafficLedger
from .decomp import BlockDecomposition

#: The tag of every halo frame: frames on one (source, destination)
#: channel arrive in the order they were sent, one per dtype group.
TAG_HALO = 11

#: Pool kind of halo frames.
FRAME = "frame"

#: Shared no-op context so the traced call sites allocate nothing when
#: tracing is disabled — the fused exchange is the model's hottest
#: host-side path.
_NO_SPAN = nullcontext()


class FieldSpec:
    """One field registered for a fused exchange.

    ``arr`` is the local halo-included array — 2-D ``(ly, lx)`` or 3-D
    ``(nz, ly, lx)``; ``sign`` multiplies fold-crossing data (-1 for
    B-grid velocity components); ``fill`` is the closed-boundary ghost
    value.
    """

    __slots__ = ("arr", "sign", "fill")

    def __init__(self, arr: np.ndarray, sign: float = 1.0, fill: float = 0.0) -> None:
        if arr.ndim not in (2, 3):
            raise CommunicationError(
                f"fused exchange expects 2-D/3-D fields, got {arr.ndim}-D"
            )
        self.arr = arr
        self.sign = sign
        self.fill = fill


def as_field_specs(fields: Sequence[Any]) -> List[FieldSpec]:
    """Normalise arrays / (arr, sign) / (arr, sign, fill) / FieldSpec."""
    specs: List[FieldSpec] = []
    for f in fields:
        if isinstance(f, FieldSpec):
            specs.append(f)
        elif isinstance(f, np.ndarray):
            specs.append(FieldSpec(f))
        else:
            specs.append(FieldSpec(*f))
    if not specs:
        raise CommunicationError("fused exchange needs at least one field")
    return specs


def _as_triples(fields: Sequence[Any]) -> List[tuple]:
    """``(arr, sign, fill)`` per field.

    Triples (what :class:`~repro.kokkos.graph.ExchangeNode` passes) go
    through untouched; anything else :func:`as_field_specs` accepts is
    normalised by it.  Dimensionality is checked once per signature,
    by the plan.
    """
    out = []
    for f in fields:
        if type(f) is not tuple or len(f) != 3:
            s = as_field_specs([f])[0]
            f = (s.arr, s.sign, s.fill)
        out.append(f)
    if not out:
        raise CommunicationError("fused exchange needs at least one field")
    return out


class BufferPool:
    """Free-lists of persistent message buffers.

    Keyed by ``(kind, element count, dtype)`` where ``kind`` names the
    traffic class (:data:`FRAME` for halo frames); acquire pops a
    recycled buffer when one fits, release returns one after use.  The
    counters let tests assert the zero-allocation steady state.  Own
    moves use no buffer, so a rank whose neighbours are all itself
    never touches its pool.
    """

    def __init__(self) -> None:
        self._free: Dict[Tuple[str, int, np.dtype], List[np.ndarray]] = {}
        #: Buffers created because no pooled one fit.
        self.allocations = 0
        #: Acquisitions served from the free-list.
        self.reuses = 0

    def acquire(self, kind: str, nelem: int, dtype) -> np.ndarray:
        key = (kind, int(nelem), np.dtype(dtype))
        stack = self._free.get(key)
        if stack:
            self.reuses += 1
            return stack.pop()
        self.allocations += 1
        return np.empty(int(nelem), dtype=dtype)

    def release(self, kind: str, buf: np.ndarray) -> None:
        if buf.ndim != 1:  # pragma: no cover - defensive
            buf = buf.reshape(-1)
        self._free.setdefault((kind, buf.size, buf.dtype), []).append(buf)


def _index(sl) -> tuple:
    """A move's ``(rows, cols)`` as an index shared by 2-D and 3-D fields."""
    return (Ellipsis,) + tuple(sl)


class _Plan(NamedTuple):
    """One exchange of one field-set signature, resolved once.

    * ``groups`` — ``[(dtype, [field index, ...]), ...]``: one frame per
      dtype group and remote peer;
    * ``sends`` / ``recvs`` — ``[(peer, group, elements, entries)]``, one
      per frame, where each entry ``(field index, index, offset,
      elements, shape, signed)`` places one move of one field in the
      frame: its source in this rank's array (sends) or its ghosts
      (recvs);
    * ``traffic`` — ``[(peer, messages, bytes, size histogram)]``: the
      logical schedule's ledger delta, for
      :meth:`TrafficLedger.record_batch`;
    * ``copy_bytes`` — bytes the own moves copy, for the trace;
    * ``n2d`` / ``n3d`` — the fields by rank, for the update counters.
    """

    groups: list
    sends: list
    recvs: list
    traffic: list
    copy_bytes: float
    n2d: int
    n3d: int


class _PendingExchange(NamedTuple):
    """In-flight state between :meth:`begin` and :meth:`finish`."""

    fields: list      # [(arr, sign, fill), ...]
    plan: _Plan
    requests: list    # one Request per plan.recvs frame


class FusedHaloExchange:
    """One-round aggregated halo exchange for a fixed (comm, decomp, rank).

    The ghost moves are derived once, at construction: ``fills`` and
    ``own`` run in place, ``recv_moves[peer]`` arrive in ``peer``'s
    frame, and ``send_moves[peer]`` (the moves of ``peer``'s map whose
    owner is this rank) are packed into the frame sent to it.
    """

    def __init__(
        self,
        comm: SimComm,
        decomp: BlockDecomposition,
        rank: Optional[int] = None,
        pool: Optional[BufferPool] = None,
        tracer=None,
    ) -> None:
        self.comm = comm
        self.decomp = decomp
        self.rank = me = comm.rank if rank is None else rank
        if pool is None:
            # Process-backed comms supply a shared-memory pool so the
            # frames are handed to peers by segment name (zero-copy)
            # instead of crossing a pipe.
            make = getattr(comm, "make_halo_pool", None)
            pool = make() if make is not None else BufferPool()
        self.pool = pool
        #: Optional :class:`repro.trace.Tracer`: while enabled, the
        #: post / pack / wait / unpack / copy steps are recorded as spans.
        self.tracer = tracer
        self.nb = decomp.neighbors(me)
        self.ly, self.lx = decomp.local_shape(me)
        self._plans: Dict[Tuple, _Plan] = {}
        self.fills: List[tuple] = []
        self.own: List[tuple] = []
        self.recv_moves: Dict[int, list] = {}
        for m in decomp.ghost_moves(me):
            if m.owner is None:
                self.fills.append(_index(m.dst))
            elif m.owner == me:
                self.own.append((_index(m.dst), _index(m.src), m.signed))
            else:
                self.recv_moves.setdefault(m.owner, []).append(m)
        self.send_moves: Dict[int, list] = {}
        for peer in range(decomp.size):
            if peer != me:
                mine = [m for m in decomp.ghost_moves(peer) if m.owner == me]
                if mine:
                    self.send_moves[peer] = mine

    # -- the plan -----------------------------------------------------------

    def _plan(self, fields: List[tuple]) -> _Plan:
        """The persistent plan for this field-set signature (cached)."""
        sig = tuple([(a.shape, a.dtype) for a, _, _ in fields])
        plan = self._plans.get(sig)
        if plan is None:
            plan = self._plans[sig] = self._build_plan(fields)
        return plan

    def _build_plan(self, fields: List[tuple]) -> _Plan:
        h, ly, lx, me = self.decomp.halo, self.ly, self.lx, self.rank
        groups: List[Tuple[np.dtype, List[int]]] = []
        index: Dict[np.dtype, int] = {}
        for i, (a, _, _) in enumerate(fields):
            if a.ndim not in (2, 3):
                raise CommunicationError(
                    f"fused exchange expects 2-D/3-D fields, got {a.ndim}-D")
            if a.shape[-2:] != (ly, lx):
                raise CommunicationError(
                    f"rank {me}: field shape {a.shape[-2:]} != "
                    f"expected {(ly, lx)}")
            if a.dtype not in index:
                index[a.dtype] = len(groups)
                groups.append((a.dtype, []))
            groups[index[a.dtype]][1].append(i)

        def frames(moves_by_peer, recv: bool) -> list:
            out = []
            for peer, moves in moves_by_peer.items():
                for g, (_, idxs) in enumerate(groups):
                    off, entries = 0, []
                    for m in moves:
                        rows, cols = m.dst
                        for i in idxs:
                            shape = fields[i][0].shape[:-2] + (
                                rows.stop - rows.start, cols.stop - cols.start)
                            n = int(np.prod(shape))
                            entries.append((i, _index(m.dst if recv else m.src),
                                            off, n, shape, m.signed))
                            off += n
                    out.append((peer, g, off, entries))
            return out

        sends = frames(self.send_moves, False)
        recvs = frames(self.recv_moves, True)
        if sorted(f[:3] for f in sends) != sorted(f[:3] for f in recvs):
            raise CommunicationError(
                f"rank {me}: halo frames are not symmetric, so the buffer "
                "pool would not reach a fixed point")

        # the logical schedule: one message per dtype group and side
        nb = self.nb
        sides = [(nb[k], lx - 2 * h, h) for k in ("s", "n", "fold")
                 if nb[k] is not None]
        sides += [(nb["e"], h, ly), (nb["w"], h, ly)]
        delta: Dict[int, TrafficLedger] = {}
        for dtype, idxs in groups:
            depth = sum(int(np.prod(fields[i][0].shape[:-2])) for i in idxs)
            for peer, ncols, nrows in sides:
                delta.setdefault(peer, TrafficLedger()).record(
                    me, peer, float(depth * ncols * nrows * dtype.itemsize))
        traffic = [(peer, d.messages, d.bytes, tuple(d.size_hist.items()))
                   for peer, d in delta.items()]
        copy_bytes = float(sum(
            a[dst].nbytes for a, _, _ in fields for dst, _, _ in self.own))
        n3d = sum(1 for a, _, _ in fields if a.ndim == 3)
        return _Plan(groups, sends, recvs, traffic, copy_bytes,
                     len(fields) - n3d, n3d)

    def _account(self, plan: _Plan, phase: Optional[str]) -> None:
        """Ledger the logical messages: one batch per peer."""
        me, ledger = self.rank, self.comm.traffic
        for peer, *batch in plan.traffic:
            ledger.record_batch(me, peer, *batch, phase=phase)

    def _span(self, name: str, **args):
        """A tracer span when tracing is live, the shared no-op otherwise."""
        tr = self.tracer
        if tr is not None and tr.enabled:
            return tr.span(name, cat="halo", **args)
        return _NO_SPAN

    # -- the exchange -------------------------------------------------------

    def begin(self, fields: Sequence[Any], phase: Optional[str] = None,
              ) -> _PendingExchange:
        """Post the receives, send one frame per peer and dtype group, run
        the fills and own moves; return a pending handle.

        Between ``begin`` and :meth:`finish` the caller may compute on
        the interior (cells whose stencils never read ghosts) while the
        frames are in flight.
        """
        fields = _as_triples(fields)
        plan = self._plan(fields)
        self._account(plan, phase)
        comm = self.comm

        # 1. post receives first (the MPI irecv-first discipline)
        requests = []
        if plan.recvs:
            with self._span("halo_post", fields=len(fields)):
                requests = [comm.irecv(peer, TAG_HALO)
                            for peer, _, _, _ in plan.recvs]

        # 2. pack + transmit: one frame per peer per dtype group
        for peer, g, total, entries in plan.sends:
            buf = self.pool.acquire(FRAME, total, plan.groups[g][0])
            with self._span("halo_pack", who=peer,
                            fields=len(plan.groups[g][1]),
                            bytes=float(buf.nbytes)):
                for i, src, off, n, shape, _ in entries:
                    buf[off:off + n].reshape(shape)[...] = fields[i][0][src]
            comm._transmit(buf, peer, TAG_HALO, phase=phase)

        # 3. fills and own moves, in place
        if self.fills or self.own:
            with self._span("halo_copy", who=self.rank,
                            bytes=plan.copy_bytes):
                for a, sign, fill in fields:
                    for dst in self.fills:
                        a[dst] = fill
                    for dst, src, signed in self.own:
                        if signed:
                            np.multiply(a[src], sign, out=a[dst])
                        else:
                            a[dst] = a[src]
        return _PendingExchange(fields, plan, requests)

    def finish(self, pending: _PendingExchange) -> None:
        """Wait for each frame and unpack it into the ghosts."""
        fields = pending.fields
        plan = pending.plan
        for (peer, g, total, entries), req in zip(plan.recvs,
                                                  pending.requests):
            with self._span("halo_wait", who=peer, src=peer, tag=TAG_HALO,
                            bytes=float(total * plan.groups[g][0].itemsize)):
                buf = req.wait()
            with self._span("halo_unpack", who=peer, bytes=float(buf.nbytes)):
                for i, dst, off, n, shape, signed in entries:
                    a, sign, _ = fields[i]
                    view = buf[off:off + n].reshape(shape)
                    if signed:
                        np.multiply(view, sign, out=a[dst])
                    else:
                        a[dst] = view
            self.pool.release(FRAME, buf)

    def exchange(self, fields: Sequence[Any], phase: Optional[str] = None) -> None:
        """One fused halo update of all ``fields``."""
        self.finish(self.begin(fields, phase=phase))


class HaloUpdater:
    """Bundles (comm, decomp, rank) for convenient repeated updates.

    The updater owns one :class:`FusedHaloExchange`, whose persistent
    plans and buffer pool make repeated :meth:`update_many` calls
    allocation-free in steady state.
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
        #: Optional span tracer handed to the exchange.
        self.tracer = tracer
        #: Count of halo updates performed (for the cost model).  An
        #: exchange counts each member field, so the step profile sees
        #: the number of *semantic* updates however they are grouped.
        self.updates2d = 0
        self.updates3d = 0
        #: Count of fused exchanges (message-level events).
        self.fused_exchanges = 0
        self._fused: Optional[FusedHaloExchange] = None

    @property
    def fused(self) -> FusedHaloExchange:
        """The lazily-built exchange (shares this updater's rank)."""
        if self._fused is None:
            self._fused = FusedHaloExchange(self.comm, self.decomp, self.rank,
                                            tracer=self.tracer)
        return self._fused

    @property
    def pool(self):
        """The exchange's persistent buffer pool."""
        return self.fused.pool

    def update_many(self, fields, phase: Optional[str] = None) -> None:
        """Halo update of one or several fields at once.

        ``fields`` is a sequence of arrays, ``(arr, sign)`` /
        ``(arr, sign, fill)`` tuples or :class:`FieldSpec` (2-D and 3-D
        may be mixed); all fields bound for one peer travel in one frame
        per dtype group (or in place, when the peer is this rank).
        """
        fx = self.fused
        pending = fx.begin(fields, phase=phase)
        plan = pending.plan
        self.updates2d += plan.n2d
        self.updates3d += plan.n3d
        self.fused_exchanges += 1
        fx.finish(pending)
