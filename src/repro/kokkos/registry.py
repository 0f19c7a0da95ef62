"""Functor registration and lookup for the Athread dispatch path.

The Sunway Athread API only accepts plain C functions, so real Kokkos
template functors cannot be launched directly on CPEs.  The paper solves
this with *functional registration and callbacks* (§V-B *Innovations*):
every functor class is registered under a preset function name via the
``KOKKOS_REGISTER_FOR_1D(name, Functor)`` macro; at kernel-launch time
the Athread backend looks the functor up and invokes the preset, which
calls the functor's ``operator()``.

The table the backends consult (:func:`default_registry`) is a plain
hash map (:class:`DictRegistry`, one probe per lookup): written by the
registration decorators at import time, never mutated by a lookup, so
every rank thread reads it without a lock.  The paper's own choice — a
linked list accelerated with an LDM hot-entry cache and SIMD matching —
is the object of the A3 ablation and lives in
:mod:`repro.experiments.variants`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, List, Optional

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
