"""The halo exchange: fused multi-field updates with persistent buffers.

The halo update is the model's serial bottleneck (§V-D): its pack/unpack
cost does not shrink with more ranks (Amdahl) and every message pays a
latency, so the paper aggregates, persists and posts first.  This module
is that exchange, and the only one — updating a single field is its K=1
case:

* **Message fusion** — all registered fields bound for one neighbour are
  packed back-to-back into a *single* contiguous buffer and sent as one
  message per neighbour per exchange phase.  A fused update of K fields
  therefore costs 4 messages per rank instead of 4·K.
* **Persistent buffers and plans** — a :class:`BufferPool` keyed by
  ``(neighbour kind, element count, dtype)`` recycles message buffers,
  so steady-state exchanges perform zero allocations, and the message
  layout (per-field offsets and slab shapes) is precomputed once per
  field-set signature (:class:`_Plan`).  Received buffers are returned
  to the local pool after unpacking; because halo traffic is symmetric
  (a rank's northern message has the same shape as the one it receives
  from the north), the pool reaches a fixed point after the first
  exchange.
* **Zero-copy handoff** — buffers are sent with
  :meth:`~repro.parallel.comm.SimComm.send` ``move=True``: ownership
  transfers to the receiver instead of paying a second copy inside the
  communicator (the simulator analog of MPI persistent/ready sends).
* **True non-blocking structure** — receives are posted *first*
  (:meth:`~repro.parallel.comm.SimComm.irecv`), then sends, then waits;
  :meth:`FusedHaloExchange.begin` / :meth:`FusedHaloExchange.finish`
  split the exchange so interior computation can run while phase-1
  halos are in flight (see :mod:`.overlap`).

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
from .comm import Request, SimComm
from .decomp import BlockDecomposition

# Message tags by direction of travel.
TAG_NORTHWARD = 11
TAG_SOUTHWARD = 12
TAG_FOLD = 13
TAG_EASTWARD = 14
TAG_WESTWARD = 15

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


class BufferPool:
    """Free-lists of persistent message buffers.

    Keyed by ``(kind, element count, dtype)`` where ``kind`` names the
    neighbour class (``"ns"``, ``"fold"``, ``"ew"``); acquire pops a
    recycled buffer when one fits, release returns one after use.  The
    counters let tests assert the zero-allocation steady state.
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
    """Persistent fused-message layout for one field-set signature.

    Precomputed once per distinct ``(ndim, shape, dtype)`` tuple of the
    registered fields — the fused analog of an MPI persistent request.
    ``layout[where][g]`` is ``(total_elements, [(spec_index, offset,
    nelem, slab_shape), ...])`` for dtype group ``g``, so steady-state
    packing is a tight loop of contiguous-destination copies with no
    per-call shape arithmetic.
    """

    __slots__ = ("groups", "layout")

    def __init__(self, groups, layout) -> None:
        self.groups = groups      # [(dtype, [spec index, ...]), ...]
        self.layout = layout      # {where: [(total, entries), ...]}


class _PendingExchange:
    """In-flight state between :meth:`begin` and :meth:`finish`."""

    __slots__ = ("specs", "plan", "recvs", "phase")

    def __init__(self, specs, plan, recvs, phase) -> None:
        self.specs = specs
        self.plan = plan
        self.recvs = recvs        # [(who, kind, Request), ...] phase 1
        self.phase = phase


class FusedHaloExchange:
    """Aggregated two-phase halo exchange for a fixed (comm, decomp, rank).

    Phase 1 moves north-south (+ tripolar fold) data over interior
    columns; phase 2 moves east-west data over full rows so corners
    propagate.
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
        #: pack / post / wait / unpack phases are recorded as spans.
        self.tracer = tracer
        self.nb = decomp.neighbors(self.rank)
        self.h = decomp.halo
        self.ly, self.lx = decomp.local_shape(self.rank)
        self._plans: Dict[Tuple, _Plan] = {}

    # -- slab geometry ------------------------------------------------------

    def _check(self, spec: FieldSpec) -> None:
        shape = spec.arr.shape[-2:]
        if shape != (self.ly, self.lx):
            raise CommunicationError(
                f"rank {self.rank}: field shape {shape} != expected "
                f"{(self.ly, self.lx)}"
            )

    def _ns_shape(self, spec: FieldSpec) -> Tuple[int, ...]:
        h, lx = self.h, self.lx
        if spec.arr.ndim == 2:
            return (h, lx - 2 * h)
        return (spec.arr.shape[0], h, lx - 2 * h)

    def _ew_shape(self, spec: FieldSpec) -> Tuple[int, ...]:
        h, ly = self.h, self.ly
        if spec.arr.ndim == 2:
            return (ly, h)
        return (spec.arr.shape[0], ly, h)

    def _send_slab(self, spec: FieldSpec, where: str) -> np.ndarray:
        """The (possibly strided) view of ``spec.arr`` bound for ``where``.

        Fused messages keep the array's native layout (rows/columns
        innermost-contiguous) — both ends of a fused message are this
        class, so no vertical-major wire transform is needed and every
        pack/unpack copy streams along the fastest axis.
        """
        a = spec.arr
        h, ly, lx = self.h, self.ly, self.lx
        cols = slice(h, lx - h)
        if a.ndim == 2:
            if where == "n":
                return a[ly - 2 * h:ly - h, cols]
            if where == "fold":
                return a[ly - 2 * h:ly - h][::-1][:, cols]
            if where == "s":
                return a[h:2 * h, cols]
            if where == "e":
                return a[:, lx - 2 * h:lx - h]
            return a[:, h:2 * h]                      # "w"
        if where == "n":
            return a[:, ly - 2 * h:ly - h, cols]
        if where == "fold":
            return a[:, ly - 2 * h:ly - h, cols][:, ::-1, :]
        if where == "s":
            return a[:, h:2 * h, cols]
        if where == "e":
            return a[:, :, lx - 2 * h:lx - h]
        return a[:, :, h:2 * h]                       # "w"

    def _unpack_slab(self, spec: FieldSpec, where: str, slab: np.ndarray) -> None:
        """Write one received per-field slab into ``spec.arr``'s ghosts."""
        a = spec.arr
        h, ly, lx = self.h, self.ly, self.lx
        cols = slice(h, lx - h)
        if a.ndim == 2:
            if where == "s":
                a[:h, cols] = slab
            elif where == "n":
                a[ly - h:, cols] = slab
            elif where == "fold":
                a[ly - h:, cols] = spec.sign * slab[:, ::-1]
            elif where == "w":
                a[:, :h] = slab
            else:                                     # "e"
                a[:, lx - h:] = slab
            return
        if where == "s":
            a[:, :h, cols] = slab
        elif where == "n":
            a[:, ly - h:, cols] = slab
        elif where == "fold":
            a[:, ly - h:, cols] = spec.sign * slab[:, :, ::-1]
        elif where == "w":
            a[:, :, :h] = slab
        else:                                         # "e"
            a[:, :, lx - h:] = slab

    # -- fused message assembly ---------------------------------------------

    def _plan(self, specs: Sequence[FieldSpec]) -> _Plan:
        """The persistent layout for this field-set signature (cached)."""
        sig = tuple((s.arr.shape, s.arr.dtype) for s in specs)
        plan = self._plans.get(sig)
        if plan is None:
            groups: List[Tuple[np.dtype, List[int]]] = []
            index: Dict[np.dtype, int] = {}
            for i, s in enumerate(specs):
                dt = s.arr.dtype
                if dt not in index:
                    index[dt] = len(groups)
                    groups.append((dt, []))
                groups[index[dt]][1].append(i)
            layout: Dict[str, List[Tuple[int, list]]] = {}
            for where, shape_of in (("ns", self._ns_shape),
                                    ("ew", self._ew_shape)):
                per_group = []
                for _, idxs in groups:
                    off, entries = 0, []
                    for i in idxs:
                        shape = shape_of(specs[i])
                        n = 1
                        for d in shape:
                            n *= d
                        entries.append((i, off, n, shape))
                        off += n
                    per_group.append((off, entries))
                layout[where] = per_group
            plan = self._plans[sig] = _Plan(groups, layout)
        return plan

    def _span(self, name: str, **args):
        """A tracer span when tracing is live, the shared no-op otherwise."""
        tr = self.tracer
        if tr is not None and tr.enabled:
            return tr.span(name, cat="halo", **args)
        return _NO_SPAN

    def _group_nbytes(self, plan: _Plan, g: int, kind: str) -> float:
        """Wire bytes of one fused message (dtype group ``g``)."""
        total, _ = plan.layout["ew" if kind == "ew" else "ns"][g]
        return float(total * plan.groups[g][0].itemsize)

    def _pack_and_send(self, specs, plan: _Plan, g: int, where: str, kind: str,
                       dest: int, tag: int, phase: Optional[str]) -> None:
        dtype = plan.groups[g][0]
        total, entries = plan.layout["ew" if kind == "ew" else "ns"][g]
        buf = self.pool.acquire(kind, total, dtype)
        with self._span("halo_pack", who=where, fields=len(entries),
                        bytes=float(buf.nbytes)):
            for i, off, n, shape in entries:
                buf[off:off + n].reshape(shape)[...] = \
                    self._send_slab(specs[i], where)
        self.comm.send(buf, dest, tag, move=True, phase=phase)

    def _wait(self, req: Request, plan: _Plan, g: int, who: str,
              kind: str) -> np.ndarray:
        with self._span("halo_wait", who=who,
                        bytes=self._group_nbytes(plan, g, kind)):
            return req.wait()

    def _unpack_from(self, specs, plan: _Plan, g: int, where: str, kind: str,
                     buf: np.ndarray) -> None:
        with self._span("halo_unpack", who=where, bytes=float(buf.nbytes)):
            _, entries = plan.layout["ns" if where in ("s", "n", "fold") else "ew"][g]
            for i, off, n, shape in entries:
                self._unpack_slab(specs[i], where, buf[off:off + n].reshape(shape))
        self.pool.release(kind, buf)

    # -- the exchange -------------------------------------------------------

    def begin(self, fields: Sequence[Any], phase: Optional[str] = None,
              ) -> _PendingExchange:
        """Post phase-1 receives and sends; return a pending handle.

        Between ``begin`` and :meth:`finish` the caller may compute on
        the deep interior (cells whose stencils never read ghosts) while
        north-south halos are in flight.
        """
        specs = as_field_specs(fields)
        for s in specs:
            self._check(s)
        plan = self._plan(specs)
        ngroups = len(plan.groups)
        nb = self.nb
        comm = self.comm

        # 1. post receives first (the MPI irecv-first discipline)
        recvs: List[Tuple[str, str, Request]] = []
        with self._span("halo_post", fields=len(specs)):
            if nb["s"] is not None:
                for _ in range(ngroups):
                    recvs.append(("s", "ns", comm.irecv(nb["s"], TAG_NORTHWARD)))
            if nb["n"] is not None:
                for _ in range(ngroups):
                    recvs.append(("n", "ns", comm.irecv(nb["n"], TAG_SOUTHWARD)))
            elif nb["fold"] is not None:
                for _ in range(ngroups):
                    recvs.append(("fold", "fold",
                                  comm.irecv(nb["fold"], TAG_FOLD)))

        # 2. pack + send (one message per neighbour per dtype group)
        for g in range(ngroups):
            if nb["n"] is not None:
                self._pack_and_send(specs, plan, g, "n", "ns",
                                    nb["n"], TAG_NORTHWARD, phase)
            elif nb["fold"] is not None:
                self._pack_and_send(specs, plan, g, "fold", "fold",
                                    nb["fold"], TAG_FOLD, phase)
            if nb["s"] is not None:
                self._pack_and_send(specs, plan, g, "s", "ns",
                                    nb["s"], TAG_SOUTHWARD, phase)

        return _PendingExchange(specs, plan, recvs, phase)

    def finish(self, pending: _PendingExchange) -> None:
        """Complete phase 1, apply boundary fills, run phase 2."""
        specs = pending.specs
        plan = pending.plan
        ngroups = len(plan.groups)
        nb = self.nb
        comm = self.comm
        h, ly, lx = self.h, self.ly, self.lx

        # 3. wait + unpack phase 1 (requests were queued per group in
        # the same order the sender emitted them: FIFO per channel)
        it = iter(pending.recvs)
        if nb["s"] is not None:
            for g in range(ngroups):
                who, kind, req = next(it)
                self._unpack_from(specs, plan, g, who, kind,
                                  self._wait(req, plan, g, who, kind))
        else:
            for s in specs:
                s.arr[..., :h, :] = s.fill
        if nb["n"] is not None or nb["fold"] is not None:
            for g in range(ngroups):
                who, kind, req = next(it)
                self._unpack_from(specs, plan, g, who, kind,
                                  self._wait(req, plan, g, who, kind))
        else:
            for s in specs:
                s.arr[..., ly - h:, :] = s.fill

        # 4. phase 2: east-west over full rows (corners propagate)
        ew_recvs: List[Tuple[str, Request]] = []
        with self._span("halo_post", fields=len(specs)):
            for _ in range(ngroups):
                ew_recvs.append(("w", comm.irecv(nb["w"], TAG_EASTWARD)))
                ew_recvs.append(("e", comm.irecv(nb["e"], TAG_WESTWARD)))
        for g in range(ngroups):
            self._pack_and_send(specs, plan, g, "e", "ew",
                                nb["e"], TAG_EASTWARD, pending.phase)
            self._pack_and_send(specs, plan, g, "w", "ew",
                                nb["w"], TAG_WESTWARD, pending.phase)
        it2 = iter(ew_recvs)
        for g in range(ngroups):
            who, req = next(it2)
            self._unpack_from(specs, plan, g, who, "ew",
                              self._wait(req, plan, g, who, "ew"))
            who, req = next(it2)
            self._unpack_from(specs, plan, g, who, "ew",
                              self._wait(req, plan, g, who, "ew"))

    def exchange(self, fields: Sequence[Any], phase: Optional[str] = None) -> None:
        """One fused two-phase halo update of all ``fields``."""
        self.finish(self.begin(fields, phase=phase))


class HaloUpdater:
    """Bundles (comm, decomp, rank) for convenient repeated updates.

    The updater owns one :class:`FusedHaloExchange`, whose persistent
    buffer pool makes repeated :meth:`update_many` calls allocation-free
    in steady state.
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

        ``fields`` is a sequence of arrays or ``(arr, sign, fill)``
        tuples (2-D and 3-D may be mixed); all fields travel in one
        message per neighbour per phase.
        """
        specs = as_field_specs(fields)
        for s in specs:
            if s.arr.ndim == 2:
                self.updates2d += 1
            else:
                self.updates3d += 1
        self.fused_exchanges += 1
        self.fused.exchange(specs, phase=phase)
