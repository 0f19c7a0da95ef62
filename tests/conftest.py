"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ocean import LICOMKpp, demo


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
