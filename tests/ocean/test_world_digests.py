"""Pinned state digests of rank worlds.

Every schedule change must leave a rank world's state bitwise where it
was.  ``run_distributed(demo("small"), ranks, 16)`` on serial ranks is
hashed by one recipe (sha256 over each rank's ``STATE_FIELDS`` arrays,
halos included, fields in sorted order, rank by rank; 16-hex prefix)
and compared with the pins, double and mixed, on the 1x2 world (thread
and process ranks), 2x2, 1x3 and 2x1.
"""

import hashlib

import numpy as np
import pytest

from repro.ocean import ModelParams, demo
from repro.ocean.model import STATE_FIELDS, run_distributed
from repro.parallel.decomp import BlockDecomposition

STEPS = 16

#: ``(npy, npx) -> {precision: digest}``
PINS = {
    (1, 2): {"double": "3808fd29f043e521", "mixed": "2b7b610740c4c821"},
    (2, 2): {"double": "3f601081b7e22fa2", "mixed": "3bbe7e17ff5ebc78"},
    (1, 3): {"double": "5b7ae57a67d7ce8a", "mixed": "99978ea0ef7cb639"},
    (2, 1): {"double": "e8320a6c0441007a", "mixed": "40e43b1ec8a2ddac"},
}


def world_digest(npy: int, npx: int, precision: str = "double",
                 mode: str = "thread") -> str:
    """The recipe's digest of ``small`` stepped 16 times on an
    ``npy x npx`` world of serial ranks."""
    cfg = demo("small")
    results, _ = run_distributed(
        cfg, npy * npx, STEPS, mode=mode,
        decomp=BlockDecomposition(cfg.ny, cfg.nx, npy, npx),
        params=ModelParams(precision=precision))
    h = hashlib.sha256()
    for r in results:
        for f in sorted(STATE_FIELDS):
            h.update(np.ascontiguousarray(r.state[f]).tobytes())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("precision", ["double", "mixed"])
@pytest.mark.parametrize("world,mode", [
    ((1, 2), "thread"), ((1, 2), "process"), ((2, 2), "thread"),
    ((1, 3), "thread"), ((2, 1), "thread")],
    ids=["1x2-thread", "1x2-process", "2x2", "1x3", "2x1"])
def test_rank_world_state_matches_its_pin(world, mode, precision):
    assert world_digest(*world, precision, mode) == PINS[world][precision]
