"""Process-backed SimWorld: one OS process per rank, shm halo payloads.

Thread-mode :class:`~repro.parallel.comm.SimWorld` proves distributed
correctness but runs every rank under one GIL, so multi-rank runs never
get faster.  This module is the real-parallel substrate behind
``SimWorld(size, mode="process")``:

* **Workers** — one ``multiprocessing`` (spawn) process per rank.  Each
  rank builds its own :class:`~repro.kokkos.context.ExecutionContext`
  end to end — sealed graphs and tracer live worker-side.
* **Transport** — one pipe per rank as its inbox, written by the
  *sending thread* itself (a ``multiprocessing.Queue``'s feeder thread
  must first win the sender's GIL from the computing thread, which
  cost more than the exchange).  The write ends are non-blocking and
  carry only **bounded frames** (:data:`.wire.MAX_FRAME`: length
  prefix + frame <= ``PIPE_BUF``), so writes from several ranks and
  threads are atomic without a lock and land whole or not at all.
  Bulk data — the halo exchange's frames and ``move=True`` buffers —
  crosses as a shared-memory segment name (:mod:`.shm`); the receiver
  maps the same pages and unpacks in place.  Zero copies, zero
  pickling of field data.  An object frame too big for the pipe (a
  gather of global fields, an array sent without ``move=``) is staged
  in a pool slab and crosses the same way; the receiver decodes it
  from the slab and recycles the slab.  ``send`` stays *buffered*:
  when the destination pipe is full the sender makes MPI-style
  progress — drains its own inbox into the unexpected-message store,
  retries — and raises :class:`~repro.errors.CommunicationError` only
  after the world ``timeout``, or at once if that rank has exited.
* **Collectives** — :meth:`~repro.parallel.comm.SimComm._collective`,
  the one protocol both substrates run, over this transport: every rank
  sends rank 0 one small object frame, rank 0 applies the rank-ordered
  combine and sends the result back, so collective results are bitwise
  identical across modes.  Mismatched collective calls (one rank
  allreduces while another allgathers) are reported on every rank.
* **Exit rule** — a worker leaving its program, returned or raised,
  posts one exit frame to each peer; a receive from a rank whose exit
  frame has arrived, with nothing pending, raises
  :class:`~repro.errors.CommunicationError` at once (the thread-mode
  rule), instead of waiting out the world ``timeout``.
* **Failure** — worker exceptions come back as type name + message +
  full traceback *text* (raw exception objects rarely pickle usefully)
  and re-raise in the parent as
  :class:`~repro.errors.RemoteRankError`; a worker that dies without
  reporting (SIGKILL, OOM) is detected from its exit code.  The parent
  is the single shared-memory unlink authority: after the workers exit
  it removes every segment the world created — including those of
  killed workers, via a ``/dev/shm`` prefix sweep.

Each worker's comm ledger (:class:`~repro.parallel.comm.TrafficLedger`)
rides home once, in its exit report, and the parent folds it into its
rank's ``SimWorld.rank_traffic`` entry, so perfmodel load-imbalance
terms and the ``by_phase``/``size_hist`` counters are as exact as in
thread mode.  The rank's instrumentation and tracer ride home once too,
on the program's result (:class:`~repro.ocean.model.RankResult`).
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import queue
import select
import threading
import time
import traceback
import uuid
from collections import deque
from contextlib import suppress
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import CommunicationError, RemoteRankError
from .comm import (
    DEFAULT_TIMEOUT,
    SimComm,
    TrafficLedger,
    _primary_error,
)

#: Tag of the frame a worker leaving its program posts to every peer.
TAG_EXIT = (1 << 30) + 3
from .shm import SharedBufferPool, sweep_world_segments, unlink_segments
from .wire import (
    FLAG_MOVE,
    FLAG_OBJ,
    MAX_FRAME,
    ObjFrame,
    decode,
    encode_obj,
    encode_shm,
)

#: Worlds whose parent-side driver is currently between segment
#: creation and its finally-sweep.  Normally empty the moment
#: :func:`run_process_world` returns; a uid still here means a driver
#: thread was killed mid-run and its ``/dev/shm`` segments may be
#: orphaned — :func:`sweep_stray_worlds` (called by ``repro.serve``
#: shutdown) reclaims them.
_ACTIVE_UIDS: set = set()
_ACTIVE_LOCK = threading.Lock()


def sweep_stray_worlds() -> List[str]:
    """Sweep segments of any world whose driver never finished.

    Returns the segment names removed (empty on a healthy host).
    """
    with _ACTIVE_LOCK:
        uids = list(_ACTIVE_UIDS)
        _ACTIVE_UIDS.clear()
    swept: List[str] = []
    for uid in uids:
        swept.extend(sweep_world_segments(uid))
    return swept

#: Extra seconds the parent waits beyond the world timeout before
#: declaring unreported workers dead.
PARENT_GRACE = 30.0

#: Seconds the parent keeps waiting for stragglers once one rank has
#: failed (they are likely wedged on the failed rank's messages).
FAIL_FAST_GRACE = 5.0


class _RankWorldView:
    """The worker-side stand-in for a :class:`SimWorld`.

    Quacks enough like the real thing for :class:`SimComm` subclass
    code and callers reading ``comm.world.size`` / ``.timeout``; it
    holds a ledger for its own rank only (the whole world's traffic is
    the parent's to sum, after the launch).
    """

    def __init__(self, size: int, timeout: float, uid: str,
                 rank: int) -> None:
        self.size = size
        self.timeout = timeout
        self.uid = uid
        self.mode = "process"
        self.rank_traffic = {rank: TrafficLedger()}


class ProcComm(SimComm):
    """One rank's endpoint into a process-backed world.

    Supplies only the transport (:meth:`_put` / :meth:`_get`, the
    pipes and the shared-memory pool); ``send``, ``recv`` and every
    collective are :class:`SimComm`'s, so the numeric semantics are the
    thread-mode ones by construction.
    """

    def __init__(self, world: _RankWorldView, rank: int, inbox,
                 outboxes: Sequence, pool: SharedBufferPool) -> None:
        super().__init__(world, rank)  # type: ignore[arg-type]
        #: Read end of this rank's pipe; ``outboxes[r]`` is the
        #: non-blocking write end of rank ``r``'s.
        self._inbox = inbox
        self._outboxes = outboxes
        self._pool = pool
        #: MPI-style unexpected-message store: (src, tag) -> frames.
        self._pending: Dict[Tuple[int, int], deque] = {}
        #: Peers whose exit frame has arrived: nothing more will come.
        self._exited: set = set()
        #: The inbox registered once (``Connection.poll`` builds a new
        #: selector on every call).
        self._poller = select.poll()
        self._poller.register(inbox.fileno(), select.POLLIN)

    # -- pool plumbing -----------------------------------------------------

    def make_halo_pool(self) -> SharedBufferPool:
        """The rank's shared-memory pool, for FusedHaloExchange plans."""
        return self._pool

    # -- point to point ----------------------------------------------------

    def _put(self, obj: Any, dest: int, tag: int, move: bool) -> None:
        self._post(dest, self._encode(obj, tag, move))

    def _post(self, dest: int, frame: bytes) -> None:
        """Write one bounded frame into ``dest``'s inbox, from this thread.

        A full pipe must not turn the buffered send into a rendezvous
        (two ranks flooding each other would deadlock): while waiting
        for room the sender keeps draining its own inbox, which is what
        lets the peer's writes — and so the peer — move on.
        """
        out = self._outboxes[dest]
        timeout = self.world.timeout
        deadline = time.monotonic() + timeout
        while True:
            try:
                out.send_bytes(frame)  # atomic: len(frame) <= MAX_FRAME
                return
            except BlockingIOError:
                pass
            except BrokenPipeError:
                raise CommunicationError(
                    f"send to rank {dest} failed: the rank has exited"
                ) from None
            self._drain_nowait()
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise CommunicationError(
                    f"send to rank {dest} timed out after {timeout}s "
                    "(its inbox stayed full; deadlock?)")
            select.select([self._inbox], [out], [], remaining)

    def _encode(self, obj: Any, tag: int, move: bool) -> bytes:
        pool = self._pool
        if move and isinstance(obj, np.ndarray):
            # ownership handoff: the segment handle crosses, not bytes.
            seg = pool.handle_of(obj)
            if seg is None:
                # a move of an ordinary array: stage it into a slab once
                slab = pool.acquire("p2p", obj.size, obj.dtype)
                slab.reshape(obj.shape)[...] = obj
                seg, obj = pool.handle_of(slab), slab.reshape(obj.shape)
            return encode_shm(self.rank, tag, FLAG_MOVE, seg.name, seg.kind,
                              obj.dtype.str, obj.shape)
        # buffered small-object path: pickling is the copy
        frame = encode_obj(self.rank, tag, obj)
        if len(frame) <= MAX_FRAME:
            return frame
        # too big for one atomic pipe write: the frame crosses in a slab
        slab = pool.acquire_bytes(len(frame))
        slab[:len(frame)] = np.frombuffer(frame, np.uint8)
        seg = pool.handle_of(slab)
        return encode_shm(self.rank, tag, FLAG_OBJ, seg.name, seg.kind,
                          slab.dtype.str, slab.shape)

    def _deliver(self, fr) -> Any:
        if isinstance(fr, ObjFrame):
            return fr.body
        nelem = 1
        for d in fr.shape:
            nelem *= d
        canon = self._pool.adopt(fr.segment, fr.kind, nelem,
                                 np.dtype(fr.dtype))
        if fr.flags & FLAG_OBJ:
            obj = decode(canon).body  # the pickle ends itself; rest is slack
            self._pool.release(fr.kind, canon)
            return obj
        # FLAG_MOVE: receiver now owns the slab (keep-it recycling)
        return canon.reshape(fr.shape)

    def _readable(self, timeout: float) -> bool:
        """Whether the inbox has a frame (or hit EOF) within ``timeout`` s."""
        return bool(self._poller.poll(timeout * 1000.0))

    def _drain_nowait(self) -> None:
        """Move every frame already in the inbox to the pending store."""
        while self._readable(0.0):
            fr = decode(self._inbox.recv_bytes())
            if fr.tag == TAG_EXIT:
                self._exited.add(fr.src)
            else:
                self._pending.setdefault((fr.src, fr.tag), deque()).append(fr)

    def _get(self, source: int, tag: int) -> Any:
        key = (source, tag)
        timeout = self.world.timeout
        deadline = time.monotonic() + timeout
        while not self._pending.get(key):
            # a peer's frames precede its exit frame in the pipe, so an
            # exited source with nothing pending will send nothing more
            if source in self._exited:
                raise CommunicationError(
                    f"receive from rank {source} (tag {tag}) failed: "
                    "the rank has exited")
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not self._readable(remaining):
                raise CommunicationError(
                    f"receive timed out after {timeout}s (deadlock?)")
            self._drain_nowait()
        return self._deliver(self._pending[key].popleft())

    def _post_exit(self) -> None:
        """Tell every peer this rank has left its program (best effort:
        a peer that has already gone is skipped)."""
        frame = encode_obj(self.rank, TAG_EXIT, None)
        for dest in range(self.size):
            if dest != self.rank:
                with suppress(CommunicationError):
                    self._post(dest, frame)


# -- worker entry point ------------------------------------------------------


def _worker_main(rank: int, size: int, uid: str, timeout: float, inbox,
                 outboxes, report_q, program, args) -> None:
    """Spawn target: run one rank and put its report on ``report_q``.

    ``inbox`` is this rank's pipe read end; ``outboxes`` lists every
    rank's write end.
    """
    pool = SharedBufferPool(uid, rank)
    world = _RankWorldView(size, timeout, uid, rank)
    comm = ProcComm(world, rank, inbox, outboxes, pool)
    try:
        result = program(comm, *args)
        report: Dict[str, Any] = {"status": "ok", "rank": rank,
                                  "result": result}
    except BaseException as exc:  # noqa: BLE001 - shipped to the parent
        report = {
            "status": "error", "rank": rank,
            "exc_type": type(exc).__name__, "message": str(exc),
            "traceback": traceback.format_exc(),
        }
    comm._post_exit()
    # the rank's traffic crosses home here, once; a RankResult result
    # carries the rank's instrumentation and tracer, not this ledger
    report["traffic"] = comm.traffic
    report["segments"] = pool.created_names()
    pool.close()
    inbox.close()  # a later send to this rank fails instead of piling up
    try:
        payload = pickle.dumps(report, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:  # result or ledger failed to pickle
        fallback = {
            "status": "error", "rank": rank, "exc_type": "PicklingError",
            "message": f"rank report not picklable: {exc}",
            "traceback": None, "traffic": None,
            "segments": report["segments"],
        }
        payload = pickle.dumps(fallback, protocol=pickle.HIGHEST_PROTOCOL)
    report_q.put(payload)


# -- parent-side driver ------------------------------------------------------


@dataclass
class ProcessRunResult:
    """What a process world hands back to the parent."""

    results: List[Any]
    #: rank -> the ledger its worker carried home (ranks that reported).
    rank_traffic: Dict[int, TrafficLedger] = field(default_factory=dict)
    #: Per-rank error reports (empty on success).
    errors: List[RemoteRankError] = field(default_factory=list)
    #: Segments the post-run sweep had to remove (0 on clean shutdown
    #: of every pool; >0 means a worker died holding segments).
    swept_segments: List[str] = field(default_factory=list)


def run_process_world(
    program: Callable[[SimComm], Any],
    size: int,
    timeout: float = DEFAULT_TIMEOUT,
    args: Sequence = (),
    check: bool = True,
) -> ProcessRunResult:
    """Run ``program(comm, *args)`` on ``size`` out-of-process ranks,
    one worker process per rank.

    ``program`` must be a picklable module-level callable (spawn
    semantics); ``check=False`` returns the :class:`ProcessRunResult`
    with errors recorded instead of raising.
    """
    if size < 1:
        raise ValueError("world size must be >= 1")
    ctx = mp.get_context("spawn")
    uid = uuid.uuid4().hex[:10]
    with _ACTIVE_LOCK:
        _ACTIVE_UIDS.add(uid)
    inboxes, outboxes = zip(*(ctx.Pipe(duplex=False) for _ in range(size)))
    for out in outboxes:
        # O_NONBLOCK lives on the open file description, so every
        # worker inherits it with the descriptor
        os.set_blocking(out.fileno(), False)
    report_q = ctx.Queue()
    procs: List[Any] = []
    try:
        for rank in range(size):
            p = ctx.Process(
                target=_worker_main,
                args=(rank, size, uid, timeout, inboxes[rank], outboxes,
                      report_q, program, tuple(args)),
                name=f"rprworker{rank}",
            )
            p.start()
            procs.append(p)
    finally:
        # the workers hold their own copies now; a read end left open
        # here would hide a dead rank from the ranks sending to it
        for conn in (*inboxes, *outboxes):
            conn.close()

    reports: Dict[int, Dict[str, Any]] = {}
    suspect_since: Dict[int, float] = {}
    deadline = time.monotonic() + timeout + PARENT_GRACE
    fail_deadline: Optional[float] = None

    def note(rep: Dict[str, Any]) -> None:
        nonlocal fail_deadline
        reports[rep["rank"]] = rep
        if rep["status"] != "ok" and fail_deadline is None:
            fail_deadline = time.monotonic() + min(timeout, FAIL_FAST_GRACE)

    try:
        while len(reports) < size:
            try:
                note(pickle.loads(report_q.get(timeout=0.2)))
                continue
            except queue.Empty:
                pass
            now = time.monotonic()
            for rank, p in enumerate(procs):
                if p.exitcode is None or rank in reports:
                    continue
                # dead without a report: give the queue a moment to
                # surface an already-flushed report, then declare it
                since = suspect_since.setdefault(rank, now)
                if now - since >= 1.0:
                    note({"status": "died", "rank": rank,
                          "exitcode": p.exitcode})
            if now >= deadline or (fail_deadline and now >= fail_deadline):
                break
    finally:
        # last-chance drain: reports flushed while we decided to stop
        while True:
            try:
                rep = pickle.loads(report_q.get_nowait())
            except (queue.Empty, OSError, EOFError):
                break
            if reports.get(rep["rank"], {}).get("status") in (None, "died"):
                note(rep)
        for p in procs:
            if p.exitcode is None:
                p.terminate()
        for p in procs:
            p.join(5)
            if p.exitcode is None:  # pragma: no cover - last resort
                p.kill()
                p.join(5)
        for r in range(size):
            if r not in reports:
                reports[r] = {"status": "died", "rank": r, "exitcode": None}
        # the parent is the unlink authority: remove every segment the
        # world reported, then sweep the uid prefix for anything a
        # killed worker left behind
        created = [name for rep in reports.values()
                   for name in rep.get("segments") or ()]
        unlink_segments(created)
        swept = sweep_world_segments(uid)
        with _ACTIVE_LOCK:
            _ACTIVE_UIDS.discard(uid)

    results: List[Any] = [None] * size
    rank_traffic: Dict[int, TrafficLedger] = {}
    errors: List[RemoteRankError] = []
    for rank in range(size):
        rep = reports[rank]
        if rep.get("traffic") is not None:
            rank_traffic[rank] = rep["traffic"]
        if rep["status"] == "ok":
            results[rank] = rep["result"]
        elif rep["status"] == "error":
            errors.append(RemoteRankError(
                rank, rep["exc_type"], rep["message"],
                rep.get("traceback")))
        else:  # died
            code = rep.get("exitcode")
            detail = (f"worker exited with code {code} before reporting"
                      if code is not None else
                      "worker produced no report before the deadline")
            errors.append(RemoteRankError(rank, "WorkerDied", detail, None))

    outcome = ProcessRunResult(results=results, rank_traffic=rank_traffic,
                               errors=errors, swept_segments=swept)
    if check and errors:
        raise _primary_error(errors)
    return outcome

