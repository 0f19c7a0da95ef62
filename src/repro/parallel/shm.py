"""Shared-memory buffer pool for zero-copy cross-process halo traffic.

:class:`SharedBufferPool` is the process-mode drop-in for
:class:`~repro.parallel.halo.BufferPool`: same ``acquire`` /
``release`` contract and free-list keying, but every buffer lives in a
``multiprocessing.shared_memory`` segment, so a packed halo slab can be
handed to another rank by *name* — the receiver maps the same physical
pages and unpacks in place, and the ``move=`` ownership-handoff
semantics of :meth:`~repro.parallel.comm.SimComm.send` become a segment
handle crossing the wire instead of an array copy.

Ownership follows a **keep-it recycling** scheme: when a receiver is
done unpacking an adopted slab it releases it into *its own* free list
and uses it for its own later sends.  Because halo traffic is symmetric
(the message a rank sends north has the same shape as the one it
receives from the north), every rank's pool reaches a fixed point after
the first exchange and no credit/return messages are ever needed —
steady-state exchanges create no segments and copy no bytes beyond the
pack/unpack themselves.

Lifetime is managed explicitly, *not* by the interpreter's
``resource_tracker``: Python 3.11 registers every segment with the
tracker on both create and attach, which makes worker death unlink
segments other ranks still map (and spews warnings).  The pool
unregisters each segment right after construction; the parent of a
process world is the single unlink authority — it removes every
``rpr<uid>`` segment after the workers exit (:func:`sweep_world_segments`),
which also covers workers killed mid-run.
"""

from __future__ import annotations

import os
from multiprocessing import resource_tracker, shared_memory
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import CommunicationError
from .halo import BufferPool

#: Prefix of every segment name; the parent sweeps ``/dev/shm`` by it.
SEGMENT_PREFIX = "rpr"

#: Linux tmpfs where POSIX shared memory appears as files.
_SHM_DIR = "/dev/shm"

#: Free-list kind of the slabs that carry oversize object frames.
OBJ_KIND = "obj"


def _untrack(shm: shared_memory.SharedMemory) -> None:
    """Withdraw a freshly *created* segment from the resource tracker.

    The pool (and ultimately the world's parent process) owns segment
    lifetime; tracker-driven unlink on process exit would tear down
    segments peer ranks still have mapped.  Only creation registers a
    segment (3.11 semantics), so this is called after create only —
    unregistering after a plain attach just spews tracker KeyErrors.
    """
    try:
        resource_tracker.unregister(shm._name, "shared_memory")  # type: ignore[attr-defined]
    except Exception:  # pragma: no cover - tracker internals vary
        pass


def _track(shm: shared_memory.SharedMemory) -> None:
    """Re-register a segment so ``shm.unlink()``'s internal unregister
    finds it (unlink-after-attach would otherwise KeyError in the
    tracker daemon)."""
    try:
        resource_tracker.register(shm._name, "shared_memory")  # type: ignore[attr-defined]
    except Exception:  # pragma: no cover - tracker internals vary
        pass


class _Segment:
    """One mapped segment and its canonical element view.

    ``canon`` is the full-extent 1-D view kept alive for the pool's
    lifetime; every buffer the pool hands out is a view of it, so the
    base-address lookup in :meth:`SharedBufferPool.handle_of` is stable
    no matter how callers reshape the buffer.
    """

    __slots__ = ("name", "shm", "canon", "kind", "created")

    def __init__(self, name: str, shm: shared_memory.SharedMemory,
                 canon: np.ndarray, kind: str, created: bool) -> None:
        self.name = name
        self.shm = shm
        self.canon = canon
        self.kind = kind
        self.created = created


class SharedBufferPool(BufferPool):
    """A :class:`BufferPool` whose buffers live in shared memory.

    Parameters
    ----------
    uid:
        World identifier; segment names are ``rpr<uid>.<rank>.<n>`` so a
        parent can find (and sweep) everything its world created.
    rank:
        The owning rank (namespaces segment names per rank).
    """

    def __init__(self, uid: str, rank: int) -> None:
        super().__init__()
        self.uid = uid
        self.rank = rank
        self._segments: Dict[str, _Segment] = {}
        self._by_addr: Dict[int, _Segment] = {}
        self._counter = 0
        self.closed = False

    # -- BufferPool contract -------------------------------------------------

    def acquire(self, kind: str, nelem: int, dtype) -> np.ndarray:
        key = (kind, int(nelem), np.dtype(dtype))
        stack = self._free.get(key)
        if stack:
            self.reuses += 1
            return stack.pop()
        self.allocations += 1
        return self._create(kind, int(nelem), np.dtype(dtype))

    # release() is inherited: adopted slabs land in this pool's free
    # list (keep-it recycling) exactly like locally created ones.

    def acquire_bytes(self, nbytes: int) -> np.ndarray:
        """A ``uint8`` slab of at least ``nbytes`` for an oversize object.

        Object traffic is not symmetric the way halos are — a gather's
        contribution is smaller than the result that comes back — so
        capacities are powers of two and the smallest free slab that is
        large enough serves.  A rank then re-sends in the slabs it was
        handed and the pool still reaches a fixed point instead of
        creating a segment per call.
        """
        fits = [key[1] for key, stack in self._free.items()
                if stack and key[0] == OBJ_KIND and key[1] >= nbytes]
        size = min(fits) if fits else 1 << max(0, nbytes - 1).bit_length()
        return self.acquire(OBJ_KIND, size, np.uint8)

    # -- segment management ---------------------------------------------------

    def _create(self, kind: str, nelem: int, dtype: np.dtype) -> np.ndarray:
        name = f"{SEGMENT_PREFIX}{self.uid}.{self.rank}.{self._counter}"
        self._counter += 1
        shm = shared_memory.SharedMemory(
            name=name, create=True, size=max(1, nelem * dtype.itemsize))
        _untrack(shm)
        canon = np.ndarray((nelem,), dtype=dtype, buffer=shm.buf)
        seg = _Segment(name, shm, canon, kind, created=True)
        self._segments[name] = seg
        self._by_addr[canon.__array_interface__["data"][0]] = seg
        return canon

    def adopt(self, name: str, kind: str, nelem: int,
              dtype: np.dtype) -> np.ndarray:
        """Map a peer's segment (cached: re-adoption is a dict hit)."""
        seg = self._segments.get(name)
        if seg is None:
            try:
                shm = shared_memory.SharedMemory(name=name)
            except FileNotFoundError:
                raise CommunicationError(
                    f"rank {self.rank}: shared segment {name!r} vanished "
                    "(sender exited before delivery?)"
                ) from None
            canon = np.ndarray((nelem,), dtype=dtype, buffer=shm.buf)
            seg = _Segment(name, shm, canon, kind, created=False)
            self._segments[name] = seg
            self._by_addr[canon.__array_interface__["data"][0]] = seg
        if seg.canon.size != nelem or seg.canon.dtype != dtype:
            # same segment reused under a different element layout
            canon = np.ndarray((nelem,), dtype=dtype, buffer=seg.shm.buf)
            return canon
        return seg.canon

    def handle_of(self, buf: np.ndarray) -> Optional[_Segment]:
        """The segment backing ``buf`` (None for ordinary arrays).

        Keyed by base address, so any full-extent view of a pool buffer
        (the packed 1-D slab, or a reshape of it) resolves.
        """
        try:
            addr = buf.__array_interface__["data"][0]
        except (AttributeError, TypeError):
            return None
        return self._by_addr.get(addr)

    def segment_names(self) -> List[str]:
        """Names of all segments this pool currently maps."""
        return list(self._segments)

    def created_names(self) -> List[str]:
        """Names of the segments this pool itself created."""
        return [s.name for s in self._segments.values() if s.created]

    def close(self) -> None:
        """Drop every mapping (views first: ``shm.close`` needs no
        exported buffers).  Unlinking is the world parent's job."""
        if self.closed:
            return
        self.closed = True
        self._free.clear()
        self._by_addr.clear()
        segs = list(self._segments.values())
        self._segments.clear()
        for seg in segs:
            seg.canon = None  # type: ignore[assignment]
            try:
                seg.shm.close()
            except Exception:  # pragma: no cover - teardown best effort
                pass


def unlink_segments(names) -> List[str]:
    """Unlink the named segments; returns those actually removed."""
    removed = []
    for name in names:
        try:
            shm = shared_memory.SharedMemory(name=name)
        except FileNotFoundError:
            continue
        _track(shm)  # unlink() unregisters; make that a no-op, not noise
        try:
            shm.close()
            shm.unlink()
            removed.append(name)
        except FileNotFoundError:  # pragma: no cover - raced
            pass
    return removed


def list_world_segments(uid: str) -> List[str]:
    """Segment names of world ``uid`` still present on this host."""
    prefix = f"{SEGMENT_PREFIX}{uid}."
    try:
        entries = os.listdir(_SHM_DIR)
    except OSError:  # pragma: no cover - non-Linux fallback
        return []
    return sorted(e for e in entries if e.startswith(prefix))


def sweep_world_segments(uid: str) -> List[str]:
    """Unlink every leftover segment of world ``uid`` (parent-side).

    The backstop for SIGKILLed workers, which never ran their reports:
    anything matching the world prefix in ``/dev/shm`` is removed.
    Returns the names that were swept.
    """
    return unlink_segments(list_world_segments(uid))
