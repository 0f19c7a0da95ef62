"""A deterministic in-process MPI substitute.

The paper's runs span 16 000 GPUs / 38 366 250 Sunway cores over MPI.
We replace MPI with :class:`SimWorld`: every rank is a Python thread
executing the same program against a :class:`SimComm` endpoint, with
mailbox-based point-to-point messaging and rank-ordered (deterministic)
collectives.  NumPy payloads are copied on send, so the semantics match
buffered MPI sends; message volumes are recorded in a traffic ledger the
network cost model consumes.

This gives the ocean model a real distributed-memory structure — blocks
only see their halo-exchanged neighbours' data — which the test suite
exploits: multi-rank runs must agree with single-rank runs bit for bit.

Examples
--------
>>> def program(comm):
...     comm.send(comm.rank, dest=(comm.rank + 1) % comm.size)
...     return comm.recv(source=(comm.rank - 1) % comm.size)
>>> SimWorld.run(program, size=3)
[2, 0, 1]
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from functools import lru_cache
from typing import (
    Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple,
)

import numpy as np

from ..errors import CommunicationError

#: Default seconds a blocking receive waits before declaring deadlock.
DEFAULT_TIMEOUT = 60.0


def _payload_nbytes(obj: Any) -> int:
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (bytes, bytearray)):
        return len(obj)
    if isinstance(obj, (int, float, complex, np.generic)):
        return 8
    if isinstance(obj, (tuple, list)):
        return sum(_payload_nbytes(x) for x in obj)
    return 64  # generic pickled-object estimate


def _copy_payload(obj: Any) -> Any:
    if isinstance(obj, np.ndarray):
        return obj.copy()
    if isinstance(obj, (list,)):
        return [_copy_payload(x) for x in obj]
    if isinstance(obj, tuple):
        return tuple(_copy_payload(x) for x in obj)
    if isinstance(obj, dict):
        return {k: _copy_payload(v) for k, v in obj.items()}
    return obj


@dataclass
class TrafficLedger:
    """Accumulated message counts/volumes, for the network model.

    Beyond the raw totals, the ledger keeps a power-of-two message-size
    histogram and per-phase counters so the network cost model (and
    ablation A2) can see the *shape* of the traffic — the fused halo
    exchange sends a few large messages where one exchange per field sends
    many small ones, and an alpha-beta model prices those differently.
    """

    messages: int = 0
    bytes: float = 0.0
    by_pair: Dict[Tuple[int, int], float] = field(default_factory=dict)
    collectives: int = 0
    #: phase name -> [message count, bytes] (phases are caller-declared,
    #: e.g. "halo3", "halo2", "fused_halo3").
    by_phase: Dict[str, List[float]] = field(default_factory=dict)
    #: log2 size bin -> message count; bin b holds 2**(b-1) <= n < 2**b.
    size_hist: Dict[int, int] = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False, compare=False)

    def record(self, src: int, dst: int, nbytes: float,
               phase: Optional[str] = None) -> None:
        with self._lock:
            self.messages += 1
            self.bytes += nbytes
            key = (src, dst)
            self.by_pair[key] = self.by_pair.get(key, 0.0) + nbytes
            b = max(0, int(nbytes)).bit_length()
            self.size_hist[b] = self.size_hist.get(b, 0) + 1
            if phase is not None:
                slot = self.by_phase.setdefault(phase, [0, 0.0])
                slot[0] += 1
                slot[1] += nbytes

    def record_batch(self, src: int, dst: int, messages: int, nbytes: float,
                     size_hist: Sequence[Tuple[int, int]],
                     phase: Optional[str] = None) -> None:
        """Count ``messages`` messages of ``nbytes`` bytes in all from
        ``src`` to ``dst`` at once; ``size_hist`` holds their ``(size
        bin, count)`` pairs.  The ledger ends as if each message had
        been :meth:`record`-ed (byte totals are whole numbers, so the
        sums are exact in any order)."""
        with self._lock:
            self.messages += messages
            self.bytes += nbytes
            key = (src, dst)
            self.by_pair[key] = self.by_pair.get(key, 0.0) + nbytes
            for b, n in size_hist:
                self.size_hist[b] = self.size_hist.get(b, 0) + n
            if phase is not None:
                slot = self.by_phase.setdefault(phase, [0, 0.0])
                slot[0] += messages
                slot[1] += nbytes

    def size_histogram(self) -> Dict[int, int]:
        """{upper-bound bytes (power of two): message count}, sorted."""
        return {2 ** b: n for b, n in sorted(self.size_hist.items())}

    def mean_message_bytes(self) -> float:
        """Average message size (0.0 with no traffic)."""
        return self.bytes / self.messages if self.messages else 0.0

    def reset(self) -> None:
        with self._lock:
            self.messages = 0
            self.bytes = 0.0
            self.by_pair.clear()
            self.collectives = 0
            self.by_phase.clear()
            self.size_hist.clear()

    def merge_from(self, other: "TrafficLedger") -> "TrafficLedger":
        """Fold another ledger's counters into this one (in place).

        Process mode uses this to merge each worker's per-rank ledger
        back into the world ledger on exit, so load-imbalance terms and
        the ``by_phase``/``size_hist`` shape counters stay exact.
        """
        with self._lock:
            self.messages += other.messages
            self.bytes += other.bytes
            for pair, nbytes in other.by_pair.items():
                self.by_pair[pair] = self.by_pair.get(pair, 0.0) + nbytes
            self.collectives += other.collectives
            for phase, (count, nbytes) in other.by_phase.items():
                slot = self.by_phase.setdefault(phase, [0, 0.0])
                slot[0] += count
                slot[1] += nbytes
            for b, n in other.size_hist.items():
                self.size_hist[b] = self.size_hist.get(b, 0) + n
        return self

    # Ledgers cross process boundaries (worker -> parent merge); the
    # lock is process-local state and is rebuilt on unpickle.
    def __getstate__(self) -> Dict[str, Any]:
        state = self.__dict__.copy()
        state.pop("_lock", None)
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()


class RunToken:
    """The right to run model code under the one interpreter lock.

    Threads of one interpreter never compute in parallel; left to the
    GIL they still interleave inside every small numpy call and pay its
    hand-back latency each time.  A thread holds the token while it
    computes and gives it up only where it blocks (:meth:`released`),
    so exactly one holder is runnable at a time.  A thread that does
    not own the token — a ``SingleComm`` caller, a helper thread inside
    a rank — passes straight through :meth:`released`.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: ``threading.get_ident()`` of the holder, ``None`` when free.
        self.owner: Optional[int] = None

    def __enter__(self) -> "RunToken":
        self._lock.acquire()
        self.owner = threading.get_ident()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.owner = None
        self._lock.release()

    @contextmanager
    def released(self) -> Iterator[None]:
        """Give the token up around a blocking wait; re-take it after
        (also when the wait raised: the holder's release stays balanced)."""
        if self.owner != threading.get_ident():
            yield
            return
        self.__exit__()
        try:
            yield
        finally:
            self.__enter__()


@lru_cache(maxsize=None)
def _world_cpu() -> Optional[int]:
    """The CPU this process's thread worlds share: the one the thread
    that launches the first of them runs on, read once per process.

    Only the token holder is runnable, so a hand-off to a rank parked on
    another, idle core pays that core's wake-up (about 190 µs on a
    2-vCPU KVM host, ~30 hand-offs per ``small`` step).  Taking the CPU
    where the kernel placed this process lets two processes' worlds land
    on two cores (on the lowest CPU both ran at half speed); taking it
    once keeps two worlds of one process, which share one GIL, on one
    core (on two cores they ran slower than unbound).  ``None`` where
    ``/proc`` cannot say.
    """
    try:
        with open("/proc/thread-self/stat") as f:
            # Field 39 ("processor"); the fields after the ")" that
            # closes the command name start at field 3.
            return int(f.read().rsplit(")", 1)[1].split()[36])
    except OSError:
        return None


class _Mailbox:
    """Blocking FIFO for one (src, dst, tag) channel."""

    def __init__(self, token: RunToken) -> None:
        self._items: deque = deque()
        self._cond = threading.Condition()
        self._token = token

    def put(self, item: Any) -> None:
        with self._cond:
            self._items.append(item)
            self._cond.notify_all()

    def get(self, timeout: float) -> Any:
        ok, item = self._pop()
        if ok:
            return item
        # Token first, condition second: the token is re-taken only after
        # the condition is dropped, or a sender holding it would block.
        with self._token.released(), self._cond:
            if not self._cond.wait_for(lambda: bool(self._items), timeout):
                raise CommunicationError(
                    f"receive timed out after {timeout}s (deadlock?)"
                )
            return self._items.popleft()

    def _pop(self) -> Tuple[bool, Any]:
        with self._cond:
            if self._items:
                return True, self._items.popleft()
            return False, None

    def poll(self) -> Tuple[bool, Any]:
        """Non-blocking probe: (True, item) if one is queued, else (False, None).

        A miss by the token owner hands the token round once, so a rank
        that spin-polls cannot starve the peer it is waiting for.
        """
        hit = self._pop()
        if not hit[0]:
            with self._token.released():
                time.sleep(0)
        return hit


class Request:
    """Handle for a non-blocking operation.

    ``wait()`` blocks until the operation completes and returns its
    result.  ``test()`` is a genuine non-blocking probe: it consults the
    mailbox without waiting and returns whether the operation has
    completed (caching the result for a later ``wait()``).
    """

    def __init__(self, fn: Optional[Callable[[], Any]] = None,
                 poll: Optional[Callable[[], Tuple[bool, Any]]] = None) -> None:
        self._fn = fn
        self._poll = poll
        self._done = fn is None and poll is None
        self._result: Any = None

    def wait(self) -> Any:
        if not self._done:
            if self._fn is not None:
                self._result = self._fn()
            self._done = True
        return self._result

    def test(self) -> bool:
        """Non-blocking completion probe: never waits on the mailbox."""
        if self._done:
            return True
        if self._poll is not None:
            ok, value = self._poll()
            if ok:
                self._result = value
                self._done = True
            return ok
        return False


class SimWorld:
    """The shared communication fabric for ``size`` simulated ranks.

    ``mode`` selects the execution substrate: ``"thread"`` (default)
    runs every rank as a thread inside this process over the in-memory
    mailboxes below; ``"process"`` spawns one OS process per rank and
    routes traffic over the shared-memory transport in
    :mod:`repro.parallel.procworld` — same program, same collective
    semantics, real multi-core parallelism.
    """

    def __init__(self, size: int, timeout: float = DEFAULT_TIMEOUT,
                 mode: str = "thread") -> None:
        if size < 1:
            raise ValueError("world size must be >= 1")
        if mode not in ("thread", "process"):
            raise ValueError(f"unknown world mode {mode!r}")
        self.size = size
        self.timeout = timeout
        self.mode = mode
        self.traffic = TrafficLedger()
        #: Per-rank ledgers merged back from workers (process mode only).
        self.rank_traffic: Dict[int, TrafficLedger] = {}
        self._failed = False
        #: Held by the one runnable rank thread of a thread-mode launch.
        self._token = RunToken()
        self._boxes: Dict[Tuple[int, int, int], _Mailbox] = {}
        self._boxes_lock = threading.Lock()
        self._barrier = threading.Barrier(size)
        self._coll_lock = threading.Lock()
        self._coll_slots: Dict[str, List[Any]] = {}
        self._coll_results: Dict[str, Any] = {}
        self._coll_seq = 0

    def comm(self, rank: int) -> "SimComm":
        if not (0 <= rank < self.size):
            raise ValueError(f"rank {rank} out of range for size {self.size}")
        return SimComm(self, rank)

    def _box(self, src: int, dst: int, tag: int) -> _Mailbox:
        key = (src, dst, tag)
        box = self._boxes.get(key)
        if box is None:
            with self._boxes_lock:
                box = self._boxes.get(key)
                if box is None:
                    box = self._boxes[key] = _Mailbox(self._token)
        return box

    # -- collective rendezvous --------------------------------------------

    def _barrier_wait(self) -> None:
        """Barrier wait honouring the world ``timeout``.

        A genuine timeout (one wedged rank, nobody failed yet) raises
        :class:`CommunicationError`; a barrier broken *because* another
        rank already failed re-raises ``BrokenBarrierError`` so
        :meth:`run` can keep preferring the root-cause exception.
        """
        try:
            with self._token.released():
                self._barrier.wait(self.timeout)
        except threading.BrokenBarrierError:
            if self._failed:
                raise
            raise CommunicationError(
                f"barrier wait timed out after {self.timeout}s (deadlock?)"
            ) from None

    def _collective(self, name: str, seq: int, rank: int, value: Any,
                    combine: Callable[[List[Any]], Any]) -> Any:
        """Gather one value per rank, apply ``combine`` once, return to all.

        All ranks must call collectives in the same order (standard MPI
        requirement).  ``seq`` is the caller's collective-call counter;
        it keys the epoch so back-to-back collectives never collide.
        """
        key = (name, seq)
        with self._coll_lock:
            slot = self._coll_slots.setdefault(key, [None] * self.size)
            slot[rank] = (True, value)
        self._barrier_wait()
        with self._coll_lock:
            if key not in self._coll_results:
                slot = self._coll_slots[key]
                missing = [i for i, v in enumerate(slot) if v is None]
                if missing:
                    raise CommunicationError(
                        f"collective {name!r} (epoch {seq}): ranks {missing} "
                        "called a different collective or none at all"
                    )
                values = [v[1] for v in slot]
                self._coll_results[key] = combine(values)
                self.traffic.collectives += 1
            result = self._coll_results[key]
        # Second barrier so cleanup cannot race the next epoch.
        self._barrier_wait()
        with self._coll_lock:
            self._coll_slots.pop(key, None)
            self._coll_results.pop(key, None)
        return result

    # -- program runner ----------------------------------------------------

    @staticmethod
    def run(
        program: Callable[["SimComm"], Any],
        size: int,
        timeout: float = DEFAULT_TIMEOUT,
        args: Sequence = (),
        mode: str = "thread",
    ) -> List[Any]:
        """Run ``program(comm, *args)`` on ``size`` ranks; return results.

        Exceptions raised on any rank are re-raised on the caller (the
        first by rank order), after all ranks have stopped.  With
        ``mode="process"`` the program must be a picklable module-level
        callable (spawn semantics).
        """
        world = SimWorld(size, timeout=timeout, mode=mode)
        return world.launch(program, args=args)

    def launch(
        self,
        program: Callable[["SimComm"], Any],
        args: Sequence = (),
    ) -> List[Any]:
        """Run ``program`` over this world's ranks on its substrate."""
        if self.mode == "process":
            from .procworld import run_process_world

            outcome = run_process_world(
                program, self.size, timeout=self.timeout, args=args,
            )
            self.traffic.merge_from(outcome.traffic)
            self.rank_traffic.update(outcome.rank_traffic)
            return outcome.results
        return self._launch_threads(program, args)

    def _launch_threads(
        self,
        program: Callable[["SimComm"], Any],
        args: Sequence,
    ) -> List[Any]:
        size = self.size
        results: List[Any] = [None] * size
        errors: List[Optional[BaseException]] = [None] * size
        cpu = _world_cpu() if hasattr(os, "sched_setaffinity") else None

        def target(rank: int) -> None:
            if cpu is not None:
                # Helper threads the rank starts inherit the binding.
                with suppress(OSError):     # CPU since disallowed: unbound
                    os.sched_setaffinity(0, {cpu})
            try:
                with self._token:
                    results[rank] = program(self.comm(rank), *args)
            except BaseException as exc:  # noqa: BLE001 - reported to caller
                errors[rank] = exc
                # Break barriers so other ranks fail fast instead of
                # hanging; flag first so their BrokenBarrierError is
                # recognised as collateral, not a timeout.
                self._failed = True
                self._barrier.abort()

        threads = [
            threading.Thread(target=target, args=(r,), name=f"rank{r}")
            for r in range(size)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # Prefer the root-cause error: when one rank fails, the others
        # die with collateral BrokenBarrierError (we abort the barrier so
        # they fail fast).  Only if *every* failure is a barrier break —
        # no underlying cause recorded — is one of those raised.
        primary = next(
            (e for e in errors
             if e is not None and not isinstance(e, threading.BrokenBarrierError)),
            None,
        )
        if primary is None:
            primary = next((e for e in errors if e is not None), None)
        if primary is not None:
            raise primary
        return results


class SimComm:
    """One rank's endpoint into a :class:`SimWorld`."""

    def __init__(self, world: SimWorld, rank: int) -> None:
        self.world = world
        self.rank = rank
        self._coll_seq = 0
        #: Optional per-rank traffic ledger.  The world's shared ledger
        #: always records every message; when an
        #: :class:`~repro.kokkos.context.ExecutionContext` attaches one
        #: here (``context.attach_comm``), this rank's sends and
        #: collective participations are *also* recorded per rank — the
        #: separable per-rank statistics the paper's job-level
        #: monitoring provides (§VI-C).
        self.ledger: Optional[TrafficLedger] = None
        #: Optional per-rank span tracer (``context.attach_comm``): while
        #: enabled, every send lands on the timeline as an instant event.
        self.tracer = None

    @property
    def size(self) -> int:
        return self.world.size

    def _next_seq(self) -> int:
        self._coll_seq += 1
        return self._coll_seq

    def _collective(self, name: str, value: Any,
                    combine: Callable[[List[Any]], Any]) -> Any:
        """Run one collective, counting it in the per-rank ledger too."""
        result = self.world._collective(name, self._next_seq(), self.rank,
                                        value, combine)
        if self.ledger is not None:
            self.ledger.collectives += 1
        return result

    # -- point to point ----------------------------------------------------

    def send(self, obj: Any, dest: int, tag: int = 0, move: bool = False,
             phase: Optional[str] = None) -> None:
        """Buffered send: the payload is copied and enqueued immediately.

        ``move=True`` is the zero-copy handoff: ownership of ``obj``
        transfers to the receiver and the sender must not touch it again.
        ``phase`` tags the message in the traffic ledger's per-phase
        counters.
        """
        if not (0 <= dest < self.size):
            raise CommunicationError(f"send to invalid rank {dest}")
        nbytes = _payload_nbytes(obj)
        self.world.traffic.record(self.rank, dest, nbytes, phase=phase)
        if self.ledger is not None:
            self.ledger.record(self.rank, dest, nbytes, phase=phase)
        self._transmit(obj, dest, tag, move, phase)

    def _transmit(self, obj: Any, dest: int, tag: int, move: bool = True,
                  phase: Optional[str] = None) -> None:
        """Hand ``obj`` to ``dest`` as one physical frame: traced, not
        ledgered (the halo exchange ledgers its logical messages itself).
        """
        self._trace_send(obj, dest, tag, phase)
        self.world._box(self.rank, dest, tag).put(
            obj if move else _copy_payload(obj))

    def _trace_send(self, obj: Any, dest: int, tag: int,
                    phase: Optional[str]) -> None:
        """The ``send`` instant of one frame, while tracing."""
        tr = self.tracer
        if tr is not None and tr.enabled:
            tr.instant("send", cat="comm", dest=dest, tag=tag,
                       bytes=float(_payload_nbytes(obj)),
                       **({"phase": phase} if phase else {}))

    def recv(self, source: int, tag: int = 0) -> Any:
        """Blocking receive from ``source``."""
        if not (0 <= source < self.size):
            raise CommunicationError(f"recv from invalid rank {source}")
        return self.world._box(source, self.rank, tag).get(self.world.timeout)

    def irecv(self, source: int, tag: int = 0) -> Request:
        """Post a non-blocking receive.

        The mailbox is materialised eagerly (the MPI "posted receive"),
        so ``test()`` is a real O(1) probe and ``wait()`` blocks only
        for in-flight data.
        """
        if not (0 <= source < self.size):
            raise CommunicationError(f"irecv from invalid rank {source}")
        box = self.world._box(source, self.rank, tag)
        timeout = self.world.timeout
        return Request(fn=lambda: box.get(timeout), poll=box.poll)

    # -- collectives ---------------------------------------------------------

    def barrier(self) -> None:
        self._collective("barrier", None, lambda vs: None)

    def allreduce(self, value: Any, op: str = "sum") -> Any:
        """Elementwise reduction over all ranks, combined in rank order."""
        def combine(values: List[Any]) -> Any:
            return _reduce_values(values, op)

        return self._collective(f"allreduce_{op}", value, combine)

    def allgather(self, obj: Any) -> List[Any]:
        return self._collective(
            "allgather", obj, lambda vs: [_copy_payload(v) for v in vs],
        )


def _reduce_values(values: List[Any], op: str) -> Any:
    if not values:
        raise CommunicationError("reduction over no values")
    ops = {
        "sum": lambda a, b: a + b,
        "max": np.maximum,
        "min": np.minimum,
        "prod": lambda a, b: a * b,
    }
    if op not in ops:
        raise CommunicationError(f"unknown reduction op {op!r}")
    fn = ops[op]
    acc = _copy_payload(values[0])
    for v in values[1:]:
        acc = fn(acc, v)
    return acc


class SingleComm(SimComm):
    """A size-1 communicator usable without spawning a world thread."""

    def __init__(self) -> None:
        super().__init__(SimWorld(1), 0)
