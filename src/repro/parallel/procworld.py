"""Process-backed SimWorld: one OS process per worker, shm halo payloads.

Thread-mode :class:`~repro.parallel.comm.SimWorld` proves distributed
correctness but runs every rank under one GIL, so multi-rank runs never
get faster.  This module is the real-parallel substrate behind
``SimWorld(size, mode="process")``:

* **Workers** — ``multiprocessing`` (spawn) processes, each owning one
  or more ranks as decided by a :class:`~repro.parallel.decomp.Placement`
  (a worker with several ranks runs them as threads, the nengo-mpi
  split of a placement step feeding a dumb worker runtime).  Each rank
  builds its own :class:`~repro.kokkos.context.ExecutionContext` end to
  end — sealed graphs and tracer live worker-side.
* **Transport** — one pipe per rank as its inbox, written by the
  *sending thread* itself (a ``multiprocessing.Queue``'s feeder thread
  must first win the sender's GIL from the computing thread, which
  cost more than the exchange).  The write ends are non-blocking and
  carry only **bounded frames** (:data:`.wire.MAX_FRAME`: length
  prefix + frame <= ``PIPE_BUF``), so writes from several ranks and
  threads are atomic without a lock and land whole or not at all.
  Bulk data — the fused halo exchange's ``move=True`` pack buffers —
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
* **Collectives** — rank 0 coordinates: every rank contributes one
  small object frame, rank 0 applies the *same* rank-ordered combine
  closure thread mode uses and broadcasts the result, so collective
  results are bitwise identical across modes.  Mismatched collective
  calls (one rank allreduces while another bcasts) are detected and
  reported on every rank.
* **Failure** — worker exceptions come back as type name + message +
  full traceback *text* (raw exception objects rarely pickle usefully)
  and re-raise in the parent as
  :class:`~repro.errors.RemoteRankError`; a worker that dies without
  reporting (SIGKILL, OOM) is detected from its exit code.  The parent
  is the single shared-memory unlink authority: after the workers exit
  it removes every segment the world created — including those of
  killed workers, via a ``/dev/shm`` prefix sweep.

Per-rank :class:`~repro.parallel.comm.TrafficLedger`\\ s ride home in
each worker's exit report and merge into the world ledger, so perfmodel
load-imbalance terms and the ``by_phase``/``size_hist`` counters are as
exact as in thread mode.
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
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import CommunicationError, RemoteRankError
from .comm import (
    DEFAULT_TIMEOUT,
    Request,
    SimComm,
    TrafficLedger,
    _payload_nbytes,
)
from .decomp import Placement
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

#: Reserved tags for the collective rendezvous protocol (far above the
#: halo tags 11..15 and anything user programs plausibly pick).
TAG_COLL = (1 << 30) + 1
TAG_COLL_RESULT = (1 << 30) + 2

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
    code and callers reading ``comm.world.size`` / ``.timeout`` /
    ``.traffic``; its ledger records only this rank's sends and is
    merged into the parent's world ledger on exit.
    """

    def __init__(self, size: int, timeout: float, uid: str) -> None:
        self.size = size
        self.timeout = timeout
        self.uid = uid
        self.mode = "process"
        self.traffic = TrafficLedger()


class ProcComm(SimComm):
    """One rank's endpoint into a process-backed world.

    Inherits every collective's combine closure (and ``sendrecv`` /
    ``isend``) from :class:`SimComm`, so the numeric semantics are the
    thread-mode ones by construction; only the transport differs.
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

    # -- pool plumbing -----------------------------------------------------

    def make_halo_pool(self) -> SharedBufferPool:
        """The rank's shared-memory pool, for FusedHaloExchange plans."""
        return self._pool

    # -- point to point ----------------------------------------------------

    def send(self, obj: Any, dest: int, tag: int = 0, move: bool = False,
             phase: Optional[str] = None) -> None:
        if not (0 <= dest < self.size):
            raise CommunicationError(f"send to invalid rank {dest}")
        nbytes = _payload_nbytes(obj)
        self.world.traffic.record(self.rank, dest, nbytes, phase=phase)
        if self.ledger is not None:
            self.ledger.record(self.rank, dest, nbytes, phase=phase)
        tr = self.tracer
        if tr is not None and tr.enabled:
            tr.instant("send", cat="comm", dest=dest, tag=tag,
                       bytes=float(nbytes),
                       **({"phase": phase} if phase else {}))
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

    def _drain_nowait(self) -> None:
        while self._inbox.poll():
            fr = decode(self._inbox.recv_bytes())
            self._pending.setdefault((fr.src, fr.tag), deque()).append(fr)

    def _next_frame(self, deadline: float, timeout: float):
        """The next frame off the pipe, whoever sent it, by ``deadline``."""
        remaining = deadline - time.monotonic()
        if remaining <= 0 or not self._inbox.poll(remaining):
            raise CommunicationError(
                f"receive timed out after {timeout}s (deadlock?)")
        return decode(self._inbox.recv_bytes())

    def _take(self, source: int, tag: int, timeout: float) -> Any:
        key = (source, tag)
        q = self._pending.get(key)
        if q:
            return self._deliver(q.popleft())
        deadline = time.monotonic() + timeout
        while True:
            fr = self._next_frame(deadline, timeout)
            if (fr.src, fr.tag) == key:
                return self._deliver(fr)
            self._pending.setdefault((fr.src, fr.tag), deque()).append(fr)

    def _take_any(self, tag: int, timeout: float) -> Tuple[int, Any]:
        """Any-source receive on ``tag`` (the coordinator's gather)."""
        for (src, t), q in self._pending.items():
            if t == tag and q:
                return src, self._deliver(q.popleft())
        deadline = time.monotonic() + timeout
        while True:
            fr = self._next_frame(deadline, timeout)
            if fr.tag == tag:
                return fr.src, self._deliver(fr)
            self._pending.setdefault((fr.src, fr.tag), deque()).append(fr)

    def recv(self, source: int, tag: int = 0) -> Any:
        if not (0 <= source < self.size):
            raise CommunicationError(f"recv from invalid rank {source}")
        return self._take(source, tag, self.world.timeout)

    def irecv(self, source: int, tag: int = 0) -> Request:
        if not (0 <= source < self.size):
            raise CommunicationError(f"irecv from invalid rank {source}")
        timeout = self.world.timeout
        key = (source, tag)

        def poll() -> Tuple[bool, Any]:
            q = self._pending.get(key)
            if not q:
                self._drain_nowait()
                q = self._pending.get(key)
            if q:
                return True, self._deliver(q.popleft())
            return False, None

        return Request(fn=lambda: self._take(source, tag, timeout), poll=poll)

    # -- collectives: rank-0 coordinator -----------------------------------

    def _collective(self, name: str, value: Any,
                    combine: Callable[[List[Any]], Any]) -> Any:
        seq = self._next_seq()
        timeout = self.world.timeout
        if self.rank != 0:
            self._post(0, self._encode((seq, name, value), TAG_COLL, False))
            ok, payload = self._take(0, TAG_COLL_RESULT, timeout)
            if not ok:
                raise CommunicationError(payload)
            if self.ledger is not None:
                self.ledger.collectives += 1
            return payload

        # rank 0: gather one contribution per rank, combine in rank
        # order with the same closure thread mode runs, broadcast.
        entries: List[Optional[Tuple[int, str, Any]]] = [None] * self.size
        entries[0] = (seq, name, value)
        outstanding = self.size - 1
        try:
            while outstanding:
                src, body = self._take_any(TAG_COLL, timeout)
                if entries[src] is None:
                    outstanding -= 1
                entries[src] = body
        except CommunicationError:
            missing = [i for i, e in enumerate(entries) if e is None]
            msg = (f"collective {name!r} (epoch {seq}): ranks {missing} "
                   "called a different collective or none at all")
            self._broadcast_result(False, msg)
            raise CommunicationError(msg) from None
        mismatched = [i for i, e in enumerate(entries)
                      if e is not None and (e[0], e[1]) != (seq, name)]
        if mismatched:
            msg = (f"collective {name!r} (epoch {seq}): ranks {mismatched} "
                   "called a different collective or none at all")
            self._broadcast_result(False, msg)
            raise CommunicationError(msg)
        try:
            result = combine([e[2] for e in entries])  # type: ignore[index]
        except Exception as exc:
            self._broadcast_result(False, str(exc))
            raise
        self._broadcast_result(True, result)
        self.world.traffic.collectives += 1
        if self.ledger is not None:
            self.ledger.collectives += 1
        return result

    def _broadcast_result(self, ok: bool, payload: Any) -> None:
        undelivered = None
        for dst in range(1, self.size):
            try:
                self._post(dst, self._encode((ok, payload),
                                             TAG_COLL_RESULT, False))
            except CommunicationError as exc:
                undelivered = undelivered or exc  # still tell the rest
        if ok and undelivered is not None:
            raise undelivered


# -- worker entry point ------------------------------------------------------


def _run_rank(rank: int, size: int, uid: str, timeout: float, inbox,
              outboxes, program, args) -> Dict[str, Any]:
    pool = SharedBufferPool(uid, rank)
    world = _RankWorldView(size, timeout, uid)
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
    report["world_traffic"] = world.traffic
    report["rank_traffic"] = comm.ledger
    report["segments"] = pool.created_names()
    pool.close()
    inbox.close()  # a later send to this rank fails instead of piling up
    return report


def _worker_main(worker_id: int, ranks: Tuple[int, ...], size: int, uid: str,
                 timeout: float, inboxes, outboxes, report_q, program,
                 args) -> None:
    """Spawn target: run this worker's ranks (threads when several).

    ``inboxes`` maps this worker's own ranks to their pipes' read ends;
    ``outboxes`` lists every rank's write end.
    """
    reports: Dict[int, Dict[str, Any]] = {}

    def run_one(rank: int) -> None:
        reports[rank] = _run_rank(rank, size, uid, timeout, inboxes[rank],
                                  outboxes, program, args)

    if len(ranks) == 1:
        run_one(ranks[0])
    else:
        threads = [threading.Thread(target=run_one, args=(r,),
                                    name=f"rank{r}") for r in ranks]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    for rank in ranks:
        report = reports.get(rank) or {
            "status": "error", "rank": rank, "exc_type": "RuntimeError",
            "message": "rank thread produced no report", "traceback": None,
            "world_traffic": None, "rank_traffic": None, "segments": [],
        }
        try:
            payload = pickle.dumps(report, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:  # result or ledger failed to pickle
            fallback = {
                "status": "error", "rank": rank, "exc_type": "PicklingError",
                "message": f"rank report not picklable: {exc}",
                "traceback": None, "world_traffic": None,
                "rank_traffic": None, "segments": report.get("segments", []),
            }
            payload = pickle.dumps(fallback, protocol=pickle.HIGHEST_PROTOCOL)
        report_q.put(payload)


# -- parent-side driver ------------------------------------------------------


@dataclass
class ProcessRunResult:
    """What a process world hands back to the parent."""

    results: List[Any]
    #: Merged world ledger (sum of the per-rank world-view ledgers).
    traffic: TrafficLedger
    #: rank -> per-rank ledger (context-attached), for ranks that had one.
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
    placement: Optional[Placement] = None,
    check: bool = True,
) -> ProcessRunResult:
    """Run ``program(comm, *args)`` on ``size`` out-of-process ranks.

    ``program`` must be a picklable module-level callable (spawn
    semantics).  ``placement`` maps ranks onto worker processes
    (default: one process per rank); ``check=False`` returns the
    :class:`ProcessRunResult` with errors recorded instead of raising.
    """
    if size < 1:
        raise ValueError("world size must be >= 1")
    if placement is None:
        placement = Placement.one_per_rank(size)
    placement.validate(size)
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
    procs: List[Tuple[Any, Tuple[int, ...]]] = []
    try:
        for worker_id, ranks in enumerate(placement.groups):
            p = ctx.Process(
                target=_worker_main,
                args=(worker_id, tuple(ranks), size, uid, timeout,
                      {r: inboxes[r] for r in ranks}, outboxes,
                      report_q, program, tuple(args)),
                name=f"rprworker{worker_id}",
            )
            p.start()
            procs.append((p, tuple(ranks)))
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
            for idx, (p, ranks) in enumerate(procs):
                if p.exitcode is None or all(r in reports for r in ranks):
                    continue
                # dead without a report: give the queue a moment to
                # surface an already-flushed report, then declare it
                since = suspect_since.setdefault(idx, now)
                if now - since >= 1.0:
                    for r in ranks:
                        if r not in reports:
                            note({"status": "died", "rank": r,
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
        for p, _ in procs:
            if p.exitcode is None:
                p.terminate()
        for p, _ in procs:
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
    traffic = TrafficLedger()
    rank_traffic: Dict[int, TrafficLedger] = {}
    errors: List[RemoteRankError] = []
    for rank in range(size):
        rep = reports[rank]
        wl = rep.get("world_traffic")
        if wl is not None:
            traffic.merge_from(wl)
        rl = rep.get("rank_traffic")
        if rl is not None:
            rank_traffic[rank] = rl
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

    outcome = ProcessRunResult(results=results, traffic=traffic,
                               rank_traffic=rank_traffic, errors=errors,
                               swept_segments=swept)
    if check and errors:
        raise _primary_error(errors)
    return outcome


def _primary_error(errors: List[RemoteRankError]) -> RemoteRankError:
    """Root-cause preference, mirroring thread mode: a real program
    exception beats the collateral errors its peers report (receive
    timeouts on a dead rank's messages), and an unreported worker death
    beats those timeouts too — the kill is the cause, the wedged peers
    the symptom."""
    collateral = ("CommunicationError", "WorkerDied", "BrokenBarrierError")
    for err in errors:
        if err.exc_type not in collateral:
            return err
    for err in errors:
        if err.exc_type == "WorkerDied":
            return err
    return errors[0]
