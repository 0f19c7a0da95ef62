"""Bitwise identity: process-backed ranks vs thread-backed ranks.

The whole point of ``mode="process"`` is that it changes *where* ranks
run, not *what* they compute: multi-step tiny-grid integrations must
produce bit-for-bit identical prognostic fields on both substrates, on
the serial and the openmp backend, and the merged traffic ledgers must
agree exactly.
"""

import os

import numpy as np
import pytest

from repro.ocean import demo
from repro.ocean.model import STATE_FIELDS, run_distributed
from repro.parallel.shm import SEGMENT_PREFIX

STEPS = 3
RANKS = 2


def _assert_identical(tres, pres):
    assert len(tres) == len(pres) == RANKS
    for tr, pr in zip(tres, pres):
        assert tr.rank == pr.rank
        assert tr.nstep == pr.nstep == STEPS
        for fld in STATE_FIELDS:
            t, p = tr.state[fld], pr.state[fld]
            assert t.dtype == p.dtype and t.shape == p.shape
            assert np.array_equal(t, p), \
                f"rank {tr.rank} field {fld} differs between modes"


@pytest.mark.parametrize("backend", ["serial", "openmp"])
def test_process_mode_bitwise_identical(backend):
    cfg = demo("tiny")
    tres, tworld = run_distributed(cfg, RANKS, STEPS, backend=backend,
                                   mode="thread")
    pres, pworld = run_distributed(cfg, RANKS, STEPS, backend=backend,
                                   mode="process")
    _assert_identical(tres, pres)
    t, p = tworld.traffic, pworld.traffic
    assert (t.messages, t.bytes, t.collectives) == \
        (p.messages, p.bytes, p.collectives)
    assert t.by_pair == p.by_pair
    assert t.by_phase == p.by_phase
    assert t.size_hist == p.size_hist


def test_process_mode_ships_rank_measurement_state():
    cfg = demo("tiny")
    pres, pworld = run_distributed(cfg, RANKS, STEPS, backend="serial",
                                   mode="process")
    # instrumentation, per-rank traffic and tracers crossed the process
    # boundary intact
    for r in pres:
        assert r.inst is not None and r.inst.total_launches > 0
        assert r.traffic is not None and r.traffic.messages > 0
        assert r.tracer is not None
    from tests.ledgers import merge_traffic

    merged = merge_traffic(pworld.rank_traffic.values())
    assert merged.messages == pworld.traffic.messages
    assert merged.bytes == pworld.traffic.bytes
    assert merged.by_pair == pworld.traffic.by_pair


def test_process_mode_leaves_no_shm_segments():
    cfg = demo("tiny")
    run_distributed(cfg, RANKS, 1, backend="serial", mode="process")
    try:
        leaks = [e for e in os.listdir("/dev/shm")
                 if e.startswith(SEGMENT_PREFIX)]
    except OSError:
        pytest.skip("no /dev/shm on this platform")
    assert leaks == []
