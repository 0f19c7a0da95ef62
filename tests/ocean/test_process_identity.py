"""Bitwise identity: process-backed ranks vs thread-backed ranks.

The whole point of ``mode="process"`` is that it changes *where* ranks
run, not *what* they compute: multi-step tiny-grid integrations must
produce bit-for-bit identical prognostic fields on both substrates, on
the serial and the openmp backend, and the per-rank and world traffic
ledgers must agree exactly, as must each rank's instrumentation (kernel
counts, transfers including Athread DMA, workspace traffic), which its
:class:`~repro.ocean.model.RankResult` carries home.
"""

import os

import numpy as np
import pytest

from repro.ocean import demo
from repro.ocean.model import STATE_FIELDS, run_distributed
from repro.parallel.shm import SEGMENT_PREFIX
from tests.ledgers import assert_same_ledger

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
    # each rank's ledger as its world keeps it, then the world's sum;
    # every rank takes part in every collective the world counts once
    for tr, pr in zip(tres, pres):
        tled = tworld.rank_traffic[tr.rank]
        assert tled.messages > 0
        assert_same_ledger(tled, pworld.rank_traffic[pr.rank])
        assert tled.collectives == tworld.traffic.collectives
    assert_same_ledger(tworld.traffic, pworld.traffic)


def test_rank_instrumentation_is_the_same_on_both_substrates():
    # the Athread DMA a rank charges lands in its context's ledger and
    # crosses home on its RankResult, from a thread or a worker process
    cfg = demo("tiny")
    tres, _ = run_distributed(cfg, RANKS, STEPS, backend="athread",
                              mode="thread")
    pres, _ = run_distributed(cfg, RANKS, STEPS, backend="athread",
                              mode="process")
    _assert_identical(tres, pres)
    for tr, pr in zip(tres, pres):
        t, p = tr.inst, pr.inst
        assert t.kernels == p.kernels
        # every field: h2d / d2h and the DMA get / put split
        assert t.transfers == p.transfers
        assert t.transfers.dma_get_bytes > 0
        assert t.transfers.dma_put_bytes > 0
        assert t.workspace == p.workspace


def test_process_mode_ships_rank_measurement_state():
    cfg = demo("tiny")
    pres, pworld = run_distributed(cfg, RANKS, STEPS, backend="serial",
                                   mode="process")
    # instrumentation and tracers crossed the process boundary on the
    # results, each rank's traffic in its exit report
    for r in pres:
        assert r.inst is not None and r.inst.total_launches > 0
        assert pworld.rank_traffic[r.rank].messages > 0
        assert r.tracer is not None


def test_process_mode_leaves_no_shm_segments():
    cfg = demo("tiny")
    run_distributed(cfg, RANKS, 1, backend="serial", mode="process")
    try:
        leaks = [e for e in os.listdir("/dev/shm")
                 if e.startswith(SEGMENT_PREFIX)]
    except OSError:
        pytest.skip("no /dev/shm on this platform")
    assert leaks == []
