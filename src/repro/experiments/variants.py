"""The unoptimized variants the paper measures its optimizations against.

Nothing here is on the model's path: these are the objects of the A2
(§V-D, Fig. 5) and A3 (§V-B) ablations, imported only by
:mod:`.ablations`, ``benchmarks/`` and the tests.

**A3 — the linked-list functor registry.**  The paper deliberately chose
a linked list for the Athread registry ("a trade-off between the
temporal and spatial complexities while maintaining robustness", O(n)
lookup), then accelerated the matching with two Sunway features.  The
ablation compares them with the hash map the backends actually consult
(:class:`repro.kokkos.registry.DictRegistry`):

* :class:`LinkedListRegistry` — plain O(n) scan (the baseline).
* ``LinkedListRegistry(ldm_cache=True)`` — a small LRU cache of hot
  entries consulted before the scan, the analog of keeping hot entries
  in LDM ("leveraged ... Local Data Memory (LDM) to reduce memory
  latency").
* ``LinkedListRegistry(simd_width=8)`` — keys compared in vector
  batches against a packed hash array ("SIMD vectorization for
  accelerated kernel matching").  The packed array is rebuilt lazily
  after registrations.

The linked-list variants expose their comparison count (the
architectural metric the Sunway optimizations target).

**A2 — pack strategies.**  ``pack_naive`` (pure-Python element loops,
the legacy-Fortran-shaped baseline) and ``pack_sliced`` (the C++ rewrite
analog: one contiguous copy).

**A2 — halo transposes (Fig. 5).**  The 3-D halo update moves
``(nz, halo, n)`` slabs whose fastest-varying storage axis is horizontal
while the communication wants them vertical-major.  The paper introduces
(a) a transpose of the *real* halo from horizontal-major to vertical-
major order before the exchange, and (b) a transpose of the *ghost* halo
back after it, implemented with shared memory on GPUs and with LDM +
SIMD on Sunway CPEs.  Three implementations of each direction:

* ``naive`` — triple element loop in the discontiguous order (the
  pre-optimization access pattern).
* ``blocked`` — cache-tiled copy, the CPE LDM/SIMD strategy analog:
  small blocks are staged and written back contiguously.
* ``vectorized`` — one strided ``moveaxis`` + contiguous materialise,
  the GPU shared-memory transpose analog.
"""

from __future__ import annotations

import threading
from typing import Hashable, List, Optional

import numpy as np

from ..errors import RegistrationError
from ..kokkos.registry import RegistryEntry


# ---------------------------------------------------------------------------
# A3 — linked-list functor registry
# ---------------------------------------------------------------------------

class _Node:
    __slots__ = ("entry", "next")

    def __init__(self, entry: RegistryEntry, nxt: Optional["_Node"]) -> None:
        self.entry = entry
        self.next = nxt


class LinkedListRegistry:
    """The paper's linked-list functor registry.

    Parameters
    ----------
    ldm_cache:
        Keep the most recently matched entries in a small LRU cache
        consulted before the list scan (the LDM hot-entry cache).
    simd_width:
        When > 1, the list scan is replaced by a vectorised sweep over a
        packed array of key hashes in batches of ``simd_width``.
    cache_size:
        LDM cache capacity (entries); 8 fits comfortably in LDM.
    """

    def __init__(
        self, ldm_cache: bool = False, simd_width: int = 1, cache_size: int = 8
    ) -> None:
        if simd_width < 1:
            raise ValueError("simd_width must be >= 1")
        if cache_size < 1:
            raise ValueError("cache_size must be >= 1")
        self._head: Optional[_Node] = None
        self._size = 0
        self.ldm_cache = ldm_cache
        self.simd_width = simd_width
        self.cache_size = cache_size
        #: Number of key comparisons performed (one per list node visited,
        #: one per vector batch, one per LDM-cache slot probed).
        self.comparisons = 0
        self._cache: List[RegistryEntry] = []
        self._packed_dirty = True
        self._hash_array = np.empty(0, dtype=np.int64)
        self._entry_list: List[RegistryEntry] = []
        # register/lookup mutate shared structure (LRU cache order, the
        # packed hash array, comparison counters), and one instance may
        # be handed to backends that launch from different threads
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return self._size

    # -- registration -------------------------------------------------------

    def register(self, entry: RegistryEntry) -> RegistryEntry:
        """Insert ``entry`` at the head of the list.

        Re-registering the same functor type replaces the old entry, so
        repeated imports are idempotent.
        """
        with self._lock:
            node = self._head
            while node is not None:
                if node.entry.key == entry.key:
                    node.entry = entry
                    break
                node = node.next
            else:
                self._head = _Node(entry, self._head)
                self._size += 1
            self._packed_dirty = True
            self._cache = [e for e in self._cache if e.key != entry.key]
        return entry

    def entries(self) -> List[RegistryEntry]:
        """All entries in list order (head first)."""
        out = []
        node = self._head
        while node is not None:
            out.append(node.entry)
            node = node.next
        return out

    # -- lookup ---------------------------------------------------------------

    def _cache_probe(self, key: Hashable) -> Optional[RegistryEntry]:
        for i, entry in enumerate(self._cache):
            self.comparisons += 1
            if entry.key == key:
                if i:  # LRU: move to the cache front
                    self._cache.insert(0, self._cache.pop(i))
                return entry
        return None

    def _cache_insert(self, entry: RegistryEntry) -> None:
        self._cache.insert(0, entry)
        del self._cache[self.cache_size:]

    def _rebuild_packed(self) -> None:
        self._entry_list = self.entries()
        self._hash_array = np.array(
            [hash(e.key) for e in self._entry_list], dtype=np.int64
        ) if self._entry_list else np.empty(0, dtype=np.int64)
        self._packed_dirty = False

    def _scan(self, key: Hashable) -> Optional[RegistryEntry]:
        if self.simd_width > 1:
            if self._packed_dirty:
                self._rebuild_packed()
            h = hash(key)
            w = self.simd_width
            arr = self._hash_array
            for lo in range(0, arr.size, w):
                self.comparisons += 1  # one vector compare per batch
                matches = np.nonzero(arr[lo:lo + w] == h)[0]
                for m in matches:
                    entry = self._entry_list[lo + int(m)]
                    if entry.key == key:
                        return entry
            return None
        node = self._head
        while node is not None:
            self.comparisons += 1
            if node.entry.key == key:
                return node.entry
            node = node.next
        return None

    def lookup(self, functor_type: type) -> RegistryEntry:
        """Find the entry registered for ``functor_type``.

        Raises
        ------
        RegistrationError
            When the functor was never registered — the same failure a
            real Athread launch of an unregistered template functor hits.
        """
        with self._lock:
            if self.ldm_cache:
                hit = self._cache_probe(functor_type)
                if hit is not None:
                    return hit
            entry = self._scan(functor_type)
            if entry is None:
                raise RegistrationError(
                    f"functor {functor_type.__name__!r} is not registered for "
                    "the Athread backend; add @kokkos_register_for(...)"
                )
            if self.ldm_cache:
                self._cache_insert(entry)
            return entry

    def contains(self, functor_type: type) -> bool:
        try:
            self.lookup(functor_type)
            return True
        except RegistrationError:
            return False

    def clear(self) -> None:
        with self._lock:
            self._head = None
            self._size = 0
            self.comparisons = 0
            self._cache.clear()
            self._packed_dirty = True


# ---------------------------------------------------------------------------
# A2 — pack strategies
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


# ---------------------------------------------------------------------------
# A2 — halo transposes (Fig. 5)
# ---------------------------------------------------------------------------

_BLOCK = 32  # tile edge for the blocked transpose (fits LDM comfortably)


def transpose_real_halo_naive(halo: np.ndarray) -> np.ndarray:
    """(nz, h, n) horizontal-major -> (h, n, nz) vertical-major, element loop."""
    nz, h, n = halo.shape
    out = np.empty((h, n, nz), dtype=halo.dtype)
    for k in range(nz):
        for j in range(h):
            for i in range(n):
                out[j, i, k] = halo[k, j, i]
    return out


def transpose_real_halo_blocked(halo: np.ndarray, block: int = _BLOCK) -> np.ndarray:
    """Blocked (LDM/SIMD-style) transpose to vertical-major order."""
    nz, h, n = halo.shape
    out = np.empty((h, n, nz), dtype=halo.dtype)
    for i0 in range(0, n, block):
        i1 = min(i0 + block, n)
        for k0 in range(0, nz, block):
            k1 = min(k0 + block, nz)
            # stage a (k-block, h, i-block) tile, emit transposed
            tile = halo[k0:k1, :, i0:i1]
            out[:, i0:i1, k0:k1] = np.transpose(tile, (1, 2, 0))
    return out


def transpose_real_halo_vectorized(halo: np.ndarray) -> np.ndarray:
    """Whole-slab strided transpose (GPU shared-memory analog)."""
    return np.ascontiguousarray(np.moveaxis(halo, 0, -1))


def transpose_ghost_halo_naive(buf: np.ndarray) -> np.ndarray:
    """(h, n, nz) vertical-major -> (nz, h, n) horizontal-major, element loop."""
    h, n, nz = buf.shape
    out = np.empty((nz, h, n), dtype=buf.dtype)
    for j in range(h):
        for i in range(n):
            for k in range(nz):
                out[k, j, i] = buf[j, i, k]
    return out


def transpose_ghost_halo_blocked(buf: np.ndarray, block: int = _BLOCK) -> np.ndarray:
    """Blocked (LDM/SIMD-style) transpose back to horizontal-major order."""
    h, n, nz = buf.shape
    out = np.empty((nz, h, n), dtype=buf.dtype)
    for i0 in range(0, n, block):
        i1 = min(i0 + block, n)
        for k0 in range(0, nz, block):
            k1 = min(k0 + block, nz)
            tile = buf[:, i0:i1, k0:k1]
            out[k0:k1, :, i0:i1] = np.transpose(tile, (2, 0, 1))
    return out


def transpose_ghost_halo_vectorized(buf: np.ndarray) -> np.ndarray:
    """Whole-slab strided transpose back (GPU shared-memory analog)."""
    return np.ascontiguousarray(np.moveaxis(buf, -1, 0))


REAL_HALO_TRANSPOSES = {
    "naive": transpose_real_halo_naive,
    "blocked": transpose_real_halo_blocked,
    "vectorized": transpose_real_halo_vectorized,
}

GHOST_HALO_TRANSPOSES = {
    "naive": transpose_ghost_halo_naive,
    "blocked": transpose_ghost_halo_blocked,
    "vectorized": transpose_ghost_halo_vectorized,
}
