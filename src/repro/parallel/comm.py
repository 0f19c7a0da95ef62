"""A deterministic in-process MPI substitute.

The paper's runs span 16 000 GPUs / 38 366 250 Sunway cores over MPI.
We replace MPI with :class:`SimWorld`: every rank is a Python thread
executing the same program against a :class:`SimComm` endpoint, with
mailbox-based point-to-point messaging and rank-ordered (deterministic)
collectives that ride point-to-point through rank 0.  NumPy payloads
are copied on send, so the semantics match buffered MPI sends.  Each
rank's comm owns the one :class:`TrafficLedger` its messages are
counted in, on the sender, once (§VI-C's per-rank monitoring);
``SimWorld.traffic`` is their sum, taken when it is read, which the
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

#: Reserved tags for the collective rendezvous protocol (far above the
#: halo tag and anything user programs plausibly pick).
TAG_COLL = (1 << 30) + 1
TAG_COLL_RESULT = (1 << 30) + 2


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

        ``SimWorld.traffic`` sums the per-rank ledgers with it, and a
        process world folds each worker's ledger into its rank's, so
        load-imbalance terms and the ``by_phase``/``size_hist`` shape
        counters stay exact.
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

    # Ledgers cross process boundaries (in the worker's exit report);
    # the lock is process-local state and is rebuilt on unpickle.
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
    """Blocking FIFO for one (src, dst, tag) channel.

    ``exited`` is the world's set of ranks that have left their
    program: once ``src`` is in it, a ``get`` with nothing queued fails
    at once instead of waiting out the timeout.
    """

    def __init__(self, token: RunToken, exited: set, src: int,
                 tag: int) -> None:
        self._items: deque = deque()
        self._cond = threading.Condition()
        self._token = token
        self._exited = exited
        self._src = src
        self._tag = tag

    def put(self, item: Any) -> None:
        with self._cond:
            self._items.append(item)
            self._cond.notify_all()

    def wake(self) -> None:
        """Wake every waiter to re-check the sender's exit."""
        with self._cond:
            self._cond.notify_all()

    def get(self, timeout: float) -> Any:
        with self._cond:
            if self._items:
                return self._items.popleft()
        # Token first, condition second: the token is re-taken only after
        # the condition is dropped, or a sender holding it would block.
        with self._token.released(), self._cond:
            if not self._cond.wait_for(
                    lambda: self._items or self._src in self._exited,
                    timeout):
                raise CommunicationError(
                    f"receive timed out after {timeout}s (deadlock?)"
                )
            if not self._items:
                raise CommunicationError(
                    f"receive from rank {self._src} (tag {self._tag}) "
                    "failed: the rank has exited")
            return self._items.popleft()


class Request:
    """Handle for a posted receive.

    ``wait()`` blocks until the message has arrived and returns it; a
    second ``wait()`` returns the same message.
    """

    def __init__(self, fn: Callable[[], Any]) -> None:
        self._fn = fn
        self._done = False
        self._result: Any = None

    def wait(self) -> Any:
        if not self._done:
            self._result = self._fn()
            self._done = True
        return self._result


class SimWorld:
    """The shared communication fabric for ``size`` simulated ranks.

    ``mode`` selects the execution substrate: ``"thread"`` (default)
    runs every rank as a thread inside this process over the in-memory
    mailboxes below; ``"process"`` spawns one OS process per rank and
    routes traffic over the shared-memory transport in
    :mod:`repro.parallel.procworld` — same program, same collective
    protocol (:meth:`SimComm._collective`), real multi-core parallelism.
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
        #: Rank ``r``'s traffic, over every launch: the ledger of each
        #: comm this world hands rank ``r`` (thread mode), or the sum of
        #: the ledgers rank ``r``'s workers carried home (process mode).
        self.rank_traffic = [TrafficLedger() for _ in range(size)]
        #: Held by the one runnable rank thread of a thread-mode launch.
        self._token = RunToken()
        #: Ranks of the current thread-mode launch that left ``program``.
        self._exited: set = set()
        self._boxes: Dict[Tuple[int, int, int], _Mailbox] = {}
        self._boxes_lock = threading.Lock()

    def comm(self, rank: int) -> "SimComm":
        if not (0 <= rank < self.size):
            raise ValueError(f"rank {rank} out of range for size {self.size}")
        return SimComm(self, rank)

    @property
    def traffic(self) -> TrafficLedger:
        """The whole world's traffic: a fresh sum of :attr:`rank_traffic`.

        Every rank counts each collective it took part in, so the sum
        counts each one once, as rank 0 (which runs every collective's
        combine) saw it.  Read it after the launch returns: read from
        inside a program it misses what the other ranks have yet to send.
        """
        merged = TrafficLedger()
        for ledger in self.rank_traffic:
            merged.merge_from(ledger)
        merged.collectives = self.rank_traffic[0].collectives
        return merged

    def _box(self, src: int, dst: int, tag: int) -> _Mailbox:
        key = (src, dst, tag)
        box = self._boxes.get(key)
        if box is None:
            with self._boxes_lock:
                box = self._boxes.get(key)
                if box is None:
                    box = self._boxes[key] = _Mailbox(
                        self._token, self._exited, src, tag)
        return box

    def _exit(self, rank: int) -> None:
        """Mark ``rank`` as having left its program and wake the ranks
        parked on a message from it."""
        self._exited.add(rank)
        with self._boxes_lock:
            boxes = [b for (src, _, _), b in self._boxes.items()
                     if src == rank]
        for box in boxes:
            box.wake()

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

        Exceptions raised on any rank are re-raised on the caller after
        all ranks have stopped, the root cause first
        (:func:`_primary_error`).  With ``mode="process"`` the program
        must be a picklable module-level callable (spawn semantics).
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
            for rank, ledger in outcome.rank_traffic.items():
                self.rank_traffic[rank].merge_from(ledger)
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
        self._exited.clear()

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
            finally:
                self._exit(rank)

        threads = [
            threading.Thread(target=target, args=(r,), name=f"rank{r}")
            for r in range(size)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        failed = [e for e in errors if e is not None]
        if failed:
            raise _primary_error(failed)
        return results


def _primary_error(errors: Sequence[BaseException]) -> BaseException:
    """The root cause among a failed world's errors, for both substrates.

    A program's own exception beats the collateral its peers report
    (a receive from a rank that failed or exited, a timeout), and an
    unreported worker death beats those too — the kill is the cause,
    the wedged peers the symptom.  Else the first error.  Process ranks'
    errors are classified by the remote ``exc_type``.
    """
    kinds = [getattr(e, "exc_type", type(e).__name__) for e in errors]
    for err, kind in zip(errors, kinds):
        if kind not in ("CommunicationError", "WorkerDied"):
            return err
    if "WorkerDied" in kinds:
        return errors[kinds.index("WorkerDied")]
    return errors[0]


class SimComm:
    """One rank's endpoint into a :class:`SimWorld`."""

    def __init__(self, world: SimWorld, rank: int) -> None:
        self.world = world
        self.rank = rank
        self._coll_seq = 0
        #: This rank's traffic ledger, the only one its sends and
        #: collective participations are counted in — the separable
        #: per-rank statistics of the paper's job-level monitoring
        #: (§VI-C).  It is the world's ``rank_traffic[rank]``; a process
        #: worker carries it home in its exit report.
        self.traffic: TrafficLedger = world.rank_traffic[rank]
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
        """Run one collective through rank 0, on both substrates.

        Every other rank sends ``(seq, name, value)`` to rank 0 and
        waits for ``(ok, result)``.  Rank 0 receives the contributions
        in rank order, checks every rank called the same collective at
        the same epoch, applies ``combine`` once and sends the result to
        each rank (a copy each).  All ranks must call collectives in the
        same order (standard MPI requirement).
        """
        seq = self._next_seq()

        def named(transport: Callable[..., Any], *args: Any) -> Any:
            try:
                return transport(*args)
            except CommunicationError as exc:
                raise CommunicationError(
                    f"collective {name!r} (epoch {seq}): {exc}") from None

        if self.rank != 0:
            named(self._put, (seq, name, value), 0, TAG_COLL, False)
            ok, result = named(self._get, 0, TAG_COLL_RESULT)
            if not ok:
                raise CommunicationError(result)
        else:
            try:
                entries = [(seq, name, value)] + [
                    named(self._get, src, TAG_COLL)
                    for src in range(1, self.size)]
                mismatched = [r for r, e in enumerate(entries)
                              if e[:2] != (seq, name)]
                if mismatched:
                    raise CommunicationError(
                        f"collective {name!r} (epoch {seq}): ranks "
                        f"{mismatched} called a different collective")
                result = combine([e[2] for e in entries])
            except Exception as exc:
                self._broadcast_result(False, str(exc))
                raise
            self._broadcast_result(True, result)
        self.traffic.collectives += 1
        return result

    def _broadcast_result(self, ok: bool, payload: Any) -> None:
        """Rank 0 sends ``(ok, payload)`` to every other rank."""
        undelivered = None
        for dst in range(1, self.size):
            try:
                self._put((ok, payload), dst, TAG_COLL_RESULT, False)
            except CommunicationError as exc:
                undelivered = undelivered or exc  # still tell the rest
        if ok and undelivered is not None:
            raise undelivered

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
        self.traffic.record(self.rank, dest, _payload_nbytes(obj),
                            phase=phase)
        self._transmit(obj, dest, tag, move, phase)

    def _transmit(self, obj: Any, dest: int, tag: int, move: bool = True,
                  phase: Optional[str] = None) -> None:
        """Hand ``obj`` to ``dest`` as one physical frame: traced, not
        ledgered (the halo exchange ledgers its logical messages itself).
        """
        self._trace_send(obj, dest, tag, phase)
        self._put(obj, dest, tag, move)

    # The substrate's un-ledgered, un-traced frame transport; the
    # collectives ride it without touching the ledgers or the trace.

    def _put(self, obj: Any, dest: int, tag: int, move: bool) -> None:
        self.world._box(self.rank, dest, tag).put(
            obj if move else _copy_payload(obj))

    def _get(self, source: int, tag: int) -> Any:
        return self.world._box(source, self.rank, tag).get(self.world.timeout)

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
        return self._get(source, tag)

    def irecv(self, source: int, tag: int = 0) -> Request:
        """Post a non-blocking receive; its ``wait()`` is the receive."""
        if not (0 <= source < self.size):
            raise CommunicationError(f"irecv from invalid rank {source}")
        return Request(lambda: self._get(source, tag))

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
