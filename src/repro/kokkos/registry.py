"""Functor registration and lookup for the Athread dispatch path.

The Sunway Athread API only accepts plain C functions, so real Kokkos
template functors cannot be launched directly on CPEs.  The paper solves
this with *functional registration and callbacks* (§V-B *Innovations*):
every functor class is registered under a preset function name via the
``KOKKOS_REGISTER_FOR_1D(name, Functor)`` macro; at kernel-launch time
the Athread backend looks the functor up and invokes the preset, which
calls the functor's ``operator()``.

The table the backends consult (:func:`default_registry`) is a plain
hash map: written by the registration decorators at import time, never
mutated by a lookup, so every rank thread reads it without a lock.

The paper deliberately chose a **linked list** for the registry ("a
trade-off between the temporal and spatial complexities while
maintaining robustness", O(n) lookup), then accelerated the matching
with two Sunway features.  Those are modelled here as the objects of
the A3 ablation, which builds its own instances and compares them with
the hash map:

* :class:`LinkedListRegistry` — plain O(n) scan (the baseline).
* ``LinkedListRegistry(ldm_cache=True)`` — a small LRU cache of hot
  entries consulted before the scan, the analog of keeping hot entries
  in LDM ("leveraged ... Local Data Memory (LDM) to reduce memory
  latency").
* ``LinkedListRegistry(simd_width=8)`` — keys compared in vector
  batches against a packed hash array ("SIMD vectorization for
  accelerated kernel matching").  The packed array is rebuilt lazily
  after registrations.
* :class:`DictRegistry` — hash map (O(1): one probe per lookup).

The linked-list variants expose their comparison count (the
architectural metric the Sunway optimizations target) for the ablation.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Hashable, List, Optional

import numpy as np

from ..errors import RegistrationError


@dataclass
class RegistryEntry:
    """One registered preset function.

    Attributes
    ----------
    name:
        The user-chosen preset-function name (``Arg1`` of the macro).
    functor_type:
        The functor class (``Arg2`` of the macro).
    kind:
        ``"for"`` or ``"reduce"`` — which parallel construct the preset
        implements.
    ndim:
        Rank of the loop the preset was generated for.
    callback:
        The preset function itself: invoked by the backend to run the
        functor over a tile.
    """

    name: str
    functor_type: type
    kind: str
    ndim: int
    callback: Optional[Callable] = None

    @property
    def key(self) -> Hashable:
        return self.functor_type


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


class DictRegistry:
    """Hash-map registry: one probe per lookup, and a lookup mutates
    nothing, so concurrent readers need no lock."""

    def __init__(self) -> None:
        self._map: dict = {}

    def __len__(self) -> int:
        return len(self._map)

    def register(self, entry: RegistryEntry) -> RegistryEntry:
        self._map[entry.key] = entry
        return entry

    def entries(self) -> List[RegistryEntry]:
        return list(self._map.values())

    def lookup(self, functor_type: type) -> RegistryEntry:
        try:
            return self._map[functor_type]
        except KeyError:
            raise RegistrationError(
                f"functor {functor_type.__name__!r} is not registered for the "
                "Athread backend; add @kokkos_register_for(...)"
            ) from None

    def contains(self, functor_type: type) -> bool:
        return functor_type in self._map

    def clear(self) -> None:
        self._map.clear()


_REGISTRATIONS = DictRegistry()


def default_registry() -> DictRegistry:
    """The import-time registration table.

    ``@kokkos_register_for`` decorators land here, and every Athread
    backend built without an explicit ``registry=`` resolves its preset
    callbacks through it.  It is the one process-wide object of the
    package: written at import, read-only afterwards.
    """
    return _REGISTRATIONS
