"""The halo exchange: fused multi-field updates with persistent plans.

The halo update is the model's serial bottleneck (§V-D): its pack/unpack
cost does not shrink with more ranks (Amdahl) and every message pays a
latency, so the paper aggregates, persists and posts first.  This module
is that exchange, and the only one — updating a single field is its K=1
case.

An exchange fills four ghost sides — south, north (the regular
neighbour or the tripolar fold), west and east — and the decomposition
fixes one action per side:

* **fill** — there is no neighbour (the closed southern boundary, or a
  northern one without a fold): the ghost rows take the field's
  ``fill`` value.
* **copy** — the neighbour is this rank (the zonal wrap of a one-column
  process grid, or a top-row block that is its own fold partner): the
  ghosts are copied from the field's own real halo, fold reversal and
  sign included — no buffer, no mailbox.  The copy still counts as the
  message the decomposition implies, in the world and per-rank traffic
  ledgers, so the network model sees the same traffic whoever owns the
  neighbour.
* **message** — all fields bound for one neighbour are packed
  back-to-back into a *single* contiguous buffer per dtype group and
  sent as one message, so a fused update of K fields costs one message
  per remote side instead of K.

The rest of the §V-D discipline applies to message sides:

* **Persistent plans** — everything fixed by a field-set signature
  (dtype groups, per-field buffer offsets and slab shapes, the copy
  sides and their ledger deltas) is resolved once per distinct
  ``(shape, dtype)`` tuple (:class:`_Plan`, the analog of an MPI
  persistent request), and the pack / unpack / copy slices once per
  exchange; no call re-derives either.
* **Persistent buffers** — a :class:`BufferPool` keyed by ``(neighbour
  kind, element count, dtype)`` recycles message buffers.  Received
  buffers return to the local pool after unpacking; halo traffic is
  symmetric (a rank's northern message has the shape of the one it
  receives from the north), so the pool reaches a fixed point after the
  first exchange and steady-state exchanges allocate nothing.
* **Zero-copy handoff** — buffers are sent with
  :meth:`~repro.parallel.comm.SimComm.send` ``move=True``: ownership
  transfers to the receiver instead of paying a second copy inside the
  communicator (the simulator analog of MPI persistent/ready sends).
* **True non-blocking structure** — receives are posted *first*
  (:meth:`~repro.parallel.comm.SimComm.irecv`), then sends, then waits;
  :meth:`FusedHaloExchange.begin` / :meth:`FusedHaloExchange.finish`
  split the exchange so interior computation can run while phase-1
  halos are in flight (see :mod:`.overlap`).  A copy side runs where
  its message would have been packed — phase 1 in ``begin``, phase 2
  in ``finish`` — so it reads the interior at the same moment.

The schedule on the tripolar topology of
:class:`~repro.parallel.decomp.BlockDecomposition` is north-south + fold
first over interior columns, then east-west over full rows so corners
propagate.  The reference the tests compare every rank against is
:func:`repro.ocean.localdomain.local_with_halo`, which builds the
halo-filled block from the global array by index arithmetic, without
messages — tripolar-fold sign flips and closed-boundary fills included.
:class:`HaloUpdater` is the model-facing handle that owns one exchange
and counts semantic updates for the cost model.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import CommunicationError
from .comm import Request, SimComm, TrafficLedger
from .decomp import BlockDecomposition

# Message tags by direction of travel.
TAG_NORTHWARD = 11
TAG_SOUTHWARD = 12
TAG_FOLD = 13
TAG_EASTWARD = 14
TAG_WESTWARD = 15

# The action a ghost side takes (module docstring).
FILL = "fill"
COPY = "copy"
MESSAGE = "message"

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


def _reversed(start: int, stop: int) -> slice:
    """``slice(start, stop)`` walked backwards."""
    return slice(stop - 1, start - 1 if start > 0 else None, -1)


class BufferPool:
    """Free-lists of persistent message buffers.

    Keyed by ``(kind, element count, dtype)`` where ``kind`` names the
    neighbour class (``"ns"``, ``"fold"``, ``"ew"``); acquire pops a
    recycled buffer when one fits, release returns one after use.  The
    counters let tests assert the zero-allocation steady state.  Copy
    sides use no buffer, so a rank whose neighbours are all itself
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
        self._free[(kind, buf.size, buf.dtype)] = \
            self._free.get((kind, buf.size, buf.dtype), [])
        self._free[(kind, buf.size, buf.dtype)].append(buf)

    def pooled_buffers(self) -> int:
        return sum(len(v) for v in self._free.values())


class _Plan:
    """One fused exchange of one field-set signature, resolved once.

    Built per distinct ``(shape, dtype)`` tuple of the fields:

    * ``groups`` — ``[(dtype, [field index, ...]), ...]``, one message
      per dtype group on every message side;
    * ``layout["ns" | "ew"][g]`` — ``(total_elements, [(field index,
      offset, nelem, slab_shape), ...])`` of group ``g``'s buffer on a
      north-south (or fold) / east-west side, so packing is a tight
      loop of contiguous-destination copies;
    * ``copies1`` / ``copies2`` — the copy sides of phase 1 / phase 2,
      one per side and dtype group: ``(who, nbytes, field indices,
      ghost index, source index, signed)``;
    * ``traffic`` — ``(messages, bytes, size histogram)`` of the copy
      sides' logical messages, for :meth:`TrafficLedger.record_batch`;
    * ``n2d`` / ``n3d`` — the fields by rank, for the update counters.
    """

    __slots__ = ("groups", "layout", "copies1", "copies2", "traffic",
                 "n2d", "n3d")

    def __init__(self, groups, layout, copies1, copies2, traffic,
                 n2d, n3d) -> None:
        self.groups = groups
        self.layout = layout
        self.copies1 = copies1
        self.copies2 = copies2
        self.traffic = traffic
        self.n2d = n2d
        self.n3d = n3d


class _PendingExchange:
    """In-flight state between :meth:`begin` and :meth:`finish`."""

    __slots__ = ("fields", "plan", "recvs", "phase")

    def __init__(self, fields, plan, recvs, phase) -> None:
        self.fields = fields      # [(arr, sign, fill), ...]
        self.plan = plan
        self.recvs = recvs        # [(who, pool kind, group, Request), ...]
        self.phase = phase


def _copy_side(fields, side) -> None:
    """Fill one side's ghosts of every field in one dtype group from the
    field's own real halo (times ``sign`` across the fold)."""
    _, _, idxs, ghost, src, signed = side
    for i in idxs:
        a, sign, _ = fields[i]
        if signed:
            np.multiply(a[src], sign, out=a[ghost])
        else:
            a[ghost] = a[src]


class FusedHaloExchange:
    """Aggregated two-phase halo exchange for a fixed (comm, decomp, rank).

    Phase 1 moves north-south (+ tripolar fold) data over interior
    columns; phase 2 moves east-west data over full rows so corners
    propagate.  ``south`` / ``north`` / ``east_west`` name each side's
    action (:data:`FILL`, :data:`COPY` or :data:`MESSAGE`).
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
        self.rank = comm.rank if rank is None else rank
        if pool is None:
            # Process-backed comms supply a shared-memory pool so the
            # packed slabs are handed to neighbours by segment name
            # (zero-copy) instead of crossing a pipe.
            make = getattr(comm, "make_halo_pool", None)
            pool = make() if make is not None else BufferPool()
        self.pool = pool
        #: Optional :class:`repro.trace.Tracer`: while enabled, the
        #: pack / post / wait / unpack / copy steps are recorded as spans.
        self.tracer = tracer
        self.nb = nb = decomp.neighbors(self.rank)
        self.h = h = decomp.halo
        self.ly, self.lx = ly, lx = decomp.local_shape(self.rank)
        self._plans: Dict[Tuple, _Plan] = {}

        # Slices shared by 2-D and 3-D fields (leading ``...``).
        cols = slice(h, lx - h)
        #: where -> the real-halo slab sent that way
        self._slab = {
            "n": (..., slice(ly - 2 * h, ly - h), cols),
            "fold": (..., _reversed(ly - 2 * h, ly - h), cols),
            "s": (..., slice(h, 2 * h), cols),
            "e": (..., slice(None), slice(lx - 2 * h, lx - h)),
            "w": (..., slice(None), slice(h, 2 * h)),
        }
        #: where -> the ghost cells a message from that side fills
        self._ghost = {
            "s": (..., slice(None, h), cols),
            "n": (..., slice(ly - h, None), cols),
            "fold": (..., slice(ly - h, None), cols),
            "w": (..., slice(None), slice(None, h)),
            "e": (..., slice(None), slice(lx - h, None)),
        }
        self._south_rows = (..., slice(None, h), slice(None))
        self._north_rows = (..., slice(ly - h, None), slice(None))
        #: the fold seen from this rank's own rows: both axes reversed
        self._fold_src = (..., _reversed(ly - 2 * h, ly - h),
                          _reversed(h, lx - h))

        me = self.rank
        self.south = FILL if nb["s"] is None else MESSAGE
        if nb["n"] is not None:
            self.north = MESSAGE
        elif nb["fold"] is None:
            self.north = FILL
        else:
            self.north = COPY if nb["fold"] == me else MESSAGE
        # e == rank exactly when w == rank (a one-column process grid)
        self.east_west = COPY if nb["e"] == me else MESSAGE
        #: phase-1 message sides in receive order (sends go in reverse):
        #: (who, pool kind, peer, receive tag, send tag)
        self._phase1: List[Tuple[str, str, int, int, int]] = []
        if self.south == MESSAGE:
            self._phase1.append(("s", "ns", nb["s"], TAG_NORTHWARD,
                                 TAG_SOUTHWARD))
        if nb["n"] is not None:
            self._phase1.append(("n", "ns", nb["n"], TAG_SOUTHWARD,
                                 TAG_NORTHWARD))
        elif self.north == MESSAGE:
            self._phase1.append(("fold", "fold", nb["fold"], TAG_FOLD,
                                 TAG_FOLD))

    # -- the plan -----------------------------------------------------------

    def _plan(self, fields: List[tuple]) -> _Plan:
        """The persistent plan for this field-set signature (cached)."""
        sig = tuple([(a.shape, a.dtype) for a, _, _ in fields])
        plan = self._plans.get(sig)
        if plan is None:
            plan = self._plans[sig] = self._build_plan(fields)
        return plan

    def _build_plan(self, fields: List[tuple]) -> _Plan:
        h, ly, lx = self.h, self.ly, self.lx
        groups: List[Tuple[np.dtype, List[int]]] = []
        index: Dict[np.dtype, int] = {}
        for i, (a, _, _) in enumerate(fields):
            if a.ndim not in (2, 3):
                raise CommunicationError(
                    f"fused exchange expects 2-D/3-D fields, got {a.ndim}-D")
            if a.shape[-2:] != (ly, lx):
                raise CommunicationError(
                    f"rank {self.rank}: field shape {a.shape[-2:]} != "
                    f"expected {(ly, lx)}")
            if a.dtype not in index:
                index[a.dtype] = len(groups)
                groups.append((a.dtype, []))
            groups[index[a.dtype]][1].append(i)
        layout: Dict[str, List[Tuple[int, list]]] = {}
        for lay, tail in (("ns", (h, lx - 2 * h)), ("ew", (ly, h))):
            per_group = []
            for _, idxs in groups:
                off, entries = 0, []
                for i in idxs:
                    shape = fields[i][0].shape[:-2] + tail
                    n = int(np.prod(shape))
                    entries.append((i, off, n, shape))
                    off += n
                per_group.append((off, entries))
            layout[lay] = per_group

        def nbytes(lay: str, g: int) -> float:
            return float(layout[lay][g][0] * groups[g][0].itemsize)

        copies1, copies2 = [], []
        for g, (_, idxs) in enumerate(groups):
            if self.north == COPY:
                copies1.append(("fold", nbytes("ns", g), idxs,
                                self._ghost["n"], self._fold_src, True))
            if self.east_west == COPY:
                copies2.append(("w", nbytes("ew", g), idxs,
                                self._ghost["w"], self._slab["e"], False))
                copies2.append(("e", nbytes("ew", g), idxs,
                                self._ghost["e"], self._slab["w"], False))
        # the copy sides' messages, as SimComm.send would ledger them
        delta = TrafficLedger()
        for side in copies1 + copies2:
            delta.record(self.rank, self.rank, side[1])
        traffic = (delta.messages, delta.bytes, tuple(delta.size_hist.items()))
        n3d = sum(1 for a, _, _ in fields if a.ndim == 3)
        return _Plan(groups, layout, copies1, copies2, traffic,
                     len(fields) - n3d, n3d)

    def _account(self, plan: _Plan, phase: Optional[str]) -> None:
        """Ledger the copy sides' logical messages: one batch per ledger,
        into the same ledgers a :meth:`SimComm.send` records in."""
        me = self.rank
        comm = self.comm
        comm.world.traffic.record_batch(me, me, *plan.traffic, phase=phase)
        if comm.ledger is not None:
            comm.ledger.record_batch(me, me, *plan.traffic, phase=phase)

    # -- sides --------------------------------------------------------------

    def _span(self, name: str, **args):
        """A tracer span when tracing is live, the shared no-op otherwise."""
        tr = self.tracer
        if tr is not None and tr.enabled:
            return tr.span(name, cat="halo", **args)
        return _NO_SPAN

    def _copy(self, fields, copies) -> None:
        tr = self.tracer
        if tr is not None and tr.enabled:
            for side in copies:
                with tr.span("halo_copy", cat="halo", who=side[0],
                             bytes=side[1]):
                    _copy_side(fields, side)
        else:
            for side in copies:
                _copy_side(fields, side)

    def _fill(self, fields, rows) -> None:
        for a, _, fill in fields:
            a[rows] = fill

    def _pack_and_send(self, fields, plan: _Plan, g: int, who: str,
                       kind: str, dest: int, tag: int,
                       phase: Optional[str]) -> None:
        total, entries = plan.layout["ew" if kind == "ew" else "ns"][g]
        buf = self.pool.acquire(kind, total, plan.groups[g][0])
        src = self._slab[who]
        with self._span("halo_pack", who=who, fields=len(entries),
                        bytes=float(buf.nbytes)):
            for i, off, n, shape in entries:
                buf[off:off + n].reshape(shape)[...] = fields[i][0][src]
        self.comm.send(buf, dest, tag, move=True, phase=phase)

    def _receive(self, fields, plan: _Plan, g: int, who: str, kind: str,
                 req: Request) -> None:
        """Wait for one fused message and unpack it into the ghosts."""
        total, entries = plan.layout["ew" if kind == "ew" else "ns"][g]
        with self._span("halo_wait", who=who, bytes=float(
                total * plan.groups[g][0].itemsize)):
            buf = req.wait()
        ghost = self._ghost[who]
        with self._span("halo_unpack", who=who, bytes=float(buf.nbytes)):
            for i, off, n, shape in entries:
                a, sign, _ = fields[i]
                slab = buf[off:off + n].reshape(shape)
                if who == "fold":
                    a[ghost] = sign * slab[..., ::-1]
                else:
                    a[ghost] = slab
        self.pool.release(kind, buf)

    # -- the exchange -------------------------------------------------------

    def begin(self, fields: Sequence[Any], phase: Optional[str] = None,
              ) -> _PendingExchange:
        """Post phase-1 receives and sends, run phase-1 copy sides;
        return a pending handle.

        Between ``begin`` and :meth:`finish` the caller may compute on
        the deep interior (cells whose stencils never read ghosts) while
        north-south halos are in flight.
        """
        fields = _as_triples(fields)
        plan = self._plan(fields)
        if plan.copies1 or plan.copies2:
            self._account(plan, phase)
        ngroups = len(plan.groups)
        comm = self.comm

        # 1. post receives first (the MPI irecv-first discipline)
        recvs: List[Tuple] = []
        if self._phase1:
            with self._span("halo_post", fields=len(fields)):
                for who, kind, peer, tag, _ in self._phase1:
                    for g in range(ngroups):
                        recvs.append((who, kind, g, comm.irecv(peer, tag)))

        # 2. pack + send (one message per neighbour per dtype group);
        # a self-fold copies where its message would be packed
        if plan.copies1:
            self._copy(fields, plan.copies1)
        for g in range(ngroups):
            for who, kind, peer, _, tag in reversed(self._phase1):
                self._pack_and_send(fields, plan, g, who, kind, peer, tag,
                                    phase)

        return _PendingExchange(fields, plan, recvs, phase)

    def finish(self, pending: _PendingExchange) -> None:
        """Complete phase 1, apply boundary fills, run phase 2."""
        fields = pending.fields
        plan = pending.plan

        # 3. wait + unpack phase 1 (requests were queued per group in
        # the same order the sender emitted them: FIFO per channel)
        for who, kind, g, req in pending.recvs:
            self._receive(fields, plan, g, who, kind, req)
        if self.south == FILL:
            self._fill(fields, self._south_rows)
        if self.north == FILL:
            self._fill(fields, self._north_rows)

        # 4. phase 2: east-west over full rows (corners propagate)
        if plan.copies2:
            self._copy(fields, plan.copies2)
            return
        ngroups = len(plan.groups)
        comm = self.comm
        nb = self.nb
        ew_recvs: List[Tuple[str, Request]] = []
        with self._span("halo_post", fields=len(fields)):
            for _ in range(ngroups):
                ew_recvs.append(("w", comm.irecv(nb["w"], TAG_EASTWARD)))
                ew_recvs.append(("e", comm.irecv(nb["e"], TAG_WESTWARD)))
        for g in range(ngroups):
            self._pack_and_send(fields, plan, g, "e", "ew",
                                nb["e"], TAG_EASTWARD, pending.phase)
            self._pack_and_send(fields, plan, g, "w", "ew",
                                nb["w"], TAG_WESTWARD, pending.phase)
        for i, (who, req) in enumerate(ew_recvs):
            self._receive(fields, plan, i // 2, who, "ew", req)

    def exchange(self, fields: Sequence[Any], phase: Optional[str] = None) -> None:
        """One fused two-phase halo update of all ``fields``."""
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
        may be mixed); all fields bound for one neighbour travel in one
        message per phase (or one copy, when the neighbour is this rank).
        """
        fx = self.fused
        pending = fx.begin(fields, phase=phase)
        plan = pending.plan
        self.updates2d += plan.n2d
        self.updates3d += plan.n3d
        self.fused_exchanges += 1
        fx.finish(pending)
