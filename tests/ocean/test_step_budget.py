"""What a sealed single-rank step costs the host, and what it ledgers.

A sealed replay should do the arithmetic and little else: on one rank
every halo side is a fill or a copy (no packing, no mailbox), and the
Athread plans' LDM peaks are applied once per ledger lifetime.  The
call budget counts Python and C calls over one sealed ``small`` step —
deterministic, so it only ever goes down.  The ledgers must still read
exactly what the message-per-side exchange wrote: the network model and
the machine model consume them.
"""

import sys

import pytest

from repro.ocean import LICOMKpp, demo
from repro.ocean.model import ModelParams

#: Python + C calls per sealed ``small`` step (sys.setprofile ``call``
#: and ``c_call`` events) after the warm-up.
CALL_BUDGET = 6500
WARMUP = 4


def _count_calls(fn) -> int:
    n = 0

    def prof(frame, event, arg):
        nonlocal n
        if event == "call" or event == "c_call":
            n += 1

    sys.setprofile(prof)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return n


@pytest.mark.parametrize("backend,precision", [
    ("athread", "double"), ("athread", "mixed"), ("serial", "double")])
def test_sealed_small_step_call_budget(backend, precision):
    m = LICOMKpp(demo("small"), backend=backend,
                 params=ModelParams(graph=True, precision=precision))
    try:
        for _ in range(WARMUP):
            m.step()
        calls = _count_calls(m.step)
    finally:
        m.close()
    assert calls <= CALL_BUDGET, calls


#: 16 steps of the 1x1 ``small`` athread model: every side is the rank
#: itself or a wall, and each self side still counts as one message.
LEDGER = {
    "double": dict(
        bytes=3563520.0,
        by_phase={"halo2": [1152, 1069056.0], "halo3": [288, 2494464.0]},
        size_hist={10: 576, 11: 576, 13: 160, 14: 112, 15: 16},
        dma=(175202303.99999884, 47553877.33333331, 56518, 56518)),
    "mixed": dict(
        bytes=2316288.0,
        by_phase={"halo2": [1152, 1069056.0], "halo3": [288, 1247232.0]},
        size_hist={10: 576, 11: 576, 12: 160, 13: 112, 14: 16},
        dma=(178823167.99999833, 51174741.333333306, 60892, 60892)),
}


@pytest.mark.parametrize("precision", sorted(LEDGER))
def test_single_rank_ledgers(precision):
    want = LEDGER[precision]
    m = LICOMKpp(demo("small"), backend="athread",
                 params=ModelParams(graph=True, precision=precision))
    try:
        m.run_steps(16)
        for led in (m.comm.world.traffic, m.context.traffic):
            assert led.messages == 1440
            assert led.bytes == want["bytes"]
            assert led.by_pair == {(0, 0): want["bytes"]}
            assert led.by_phase == want["by_phase"]
            assert led.size_hist == want["size_hist"]
            assert led.collectives == 0
        halo = m.halo
        assert (halo.updates2d, halo.updates3d, halo.fused_exchanges) == \
            (576, 224, 480)
        # self sides need no message buffers
        assert (halo.pool.allocations, halo.pool.reuses) == (0, 0)
        space = m.context.space
        dma = space.dma
        assert (dma.get_bytes, dma.put_bytes, dma.get_count,
                dma.put_count) == want["dma"]
        assert space.ldm_high_water() == 40320
    finally:
        m.close()


def _ldm_after_reset_and_replay(steps):
    m = LICOMKpp(demo("small"), backend="athread",
                 params=ModelParams(graph=True))
    try:
        m.run_steps(steps)
        space = m.context.space
        space.reset_counters()
        assert space.ldm_high_water() == 0
        m.step()                      # one replay of the sealed graph
        return [a.high_water for a in space.ldm]
    finally:
        m.close()


def test_reset_counters_rearms_ldm_peaks():
    # a long-lived model's replay after a reset records the same peaks
    # as a young one's: reset_counters re-arms every sealed plan
    old = _ldm_after_reset_and_replay(16)
    young = _ldm_after_reset_and_replay(WARMUP)
    assert max(old) == 40320
    assert old == young
