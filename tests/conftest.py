"""Shared fixtures for the test suite."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.kokkos import make_backend
from repro.ocean import LICOMKpp, demo
from repro.parallel import HaloUpdater


def intercepting(backend: str):
    """The ``backend`` space with ``run_for`` wrapped by a label-logging
    pass-through (the shape of a differential-testing wrapper): sealed
    graphs on it replay every captured launch through ``run_for``."""
    base = type(make_backend(backend))

    class Intercepting(base):
        def run_for(self, label, policy, functor):
            self.seen.append(label)
            super().run_for(label, policy, functor)

    space = Intercepting(kind=backend) if backend == "cuda" else Intercepting()
    space.seen = []
    return space


class FakeHalo:
    """Stands in for a :class:`HaloUpdater` under an ``ExchangeNode``:
    each ``update_many`` is logged as ``(phase, fields)`` into ``log``
    (shared with the caller when given) instead of exchanged."""

    def __init__(self, log=None, halo: int = 1) -> None:
        self.log = [] if log is None else log
        self.decomp = SimpleNamespace(halo=halo)

    def update_many(self, fields, phase=None) -> None:
        self.log.append((phase, list(fields)))


def halo_update(comm, decomp, arr, sign=1.0, fill=0.0):
    """Per-field halo update in place: the K=1 case of the one exchange."""
    HaloUpdater(comm, decomp).update_many([(arr, sign, fill)])


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def tiny_model_session():
    """A tiny model stepped a few times (shared, read-only)."""
    model = LICOMKpp(demo("tiny"))
    model.run_steps(4)
    return model


@pytest.fixture()
def tiny_model():
    """A fresh tiny model (mutable per-test)."""
    return LICOMKpp(demo("tiny"))
