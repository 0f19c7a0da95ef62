"""What a sealed single-rank step costs the host, and what it ledgers.

A sealed replay should do the arithmetic and little else: on one rank
every ghost is a fill or an in-place copy (no packing, no mailbox), and the
Athread plans' LDM peaks are applied once per ledger lifetime.  The
call budget counts Python and C calls over one sealed ``small`` step —
deterministic, so it only ever goes down — and holds an eager Athread
step to twice the calls of an eager serial one.  The ledgers must still read
exactly what the message-per-side exchange wrote, on one rank and on
two: the network model and the machine model consume them.  The kernel bodies draw their
temporaries from the arena, so no launch of a warm eager step allocates
as much as one 3-D field.
"""

import sys
import tracemalloc

import pytest

from repro.kokkos import SerialBackend
from repro.ocean import LICOMKpp, demo
from repro.ocean.model import ModelParams

#: Python + C calls per sealed ``small`` step (sys.setprofile ``call``
#: and ``c_call`` events) after the warm-up: the startup and the three
#: leapfrog phase captures (the startup step fills the model's one
#: arena; no later step allocates scratch), then the first replay.
CALL_BUDGET = 3500
WARMUP = 5


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
                 params=ModelParams(precision=precision))
    try:
        for _ in range(WARMUP):
            m.step()
        calls = _count_calls(m.step)
    finally:
        m.close()
    assert calls <= CALL_BUDGET, calls


def test_eager_athread_step_costs_what_a_serial_one_does():
    # an Athread launch is one whole-range callback plus its cached tile
    # schedule's ledger update, eager as on replay: no per-tile Python
    calls = {}
    for backend in ("serial", "athread"):
        m = LICOMKpp(demo("small"), backend=backend,
                     params=ModelParams(graph=False))
        try:
            for _ in range(WARMUP):
                m.step()
            calls[backend] = _count_calls(m.step)
        finally:
            m.close()
    assert calls["athread"] <= 2 * calls["serial"], calls


#: 16 steps of the 1x1 ``small`` athread model: every side is the rank
#: itself or a wall, and each self side still counts as one message.
#: Every launch, capture and replay alike, adds its tile schedule's DMA
#: totals once per direction; steps 0-3 are captures (eager, unfused).
LEDGER = {
    "double": dict(
        messages=912, bytes=2969600.0,
        by_phase={"halo2": [624, 415744.0], "halo3": [288, 2553856.0]},
        size_hist={10: 576, 11: 48, 13: 160, 14: 112, 15: 16},
        dma=(178571263.99999964, 47958357.33333324, 62908, 62908)),
    # the fp64 depth-mean force is a dtype group of its own beside the
    # fp32 u / v in halo_momentum: one more message per step
    "mixed": dict(
        messages=960, bytes=1722368.0,
        by_phase={"halo2": [624, 415744.0], "halo3": [336, 1306624.0]},
        size_hist={10: 576, 11: 96, 12: 160, 13: 112, 14: 16},
        dma=(182192127.99999967, 51579221.3333332, 67768, 67768)),
}


@pytest.mark.parametrize("precision", sorted(LEDGER))
def test_single_rank_ledgers(precision):
    want = LEDGER[precision]
    m = LICOMKpp(demo("small"), backend="athread",
                 params=ModelParams(precision=precision))
    try:
        m.run_steps(16)
        for led in (m.comm.world.traffic, m.context.traffic):
            assert led.messages == want["messages"]
            assert led.bytes == want["bytes"]
            assert led.by_pair == {(0, 0): want["bytes"]}
            assert led.by_phase == want["by_phase"]
            assert led.size_hist == want["size_hist"]
            assert led.collectives == 0
        halo = m.halo
        assert (halo.updates2d, halo.updates3d, halo.fused_exchanges) == \
            (256, 224, 304)
        # self sides need no message buffers
        assert (halo.pool.allocations, halo.pool.reuses) == (0, 0)
        t = m.context.inst.transfers
        assert (t.dma_get_bytes, t.dma_put_bytes, t.dma_get_count,
                t.dma_put_count) == want["dma"]
        assert m.context.space.ldm_high_water() == 40320
    finally:
        m.close()


#: 16 steps of ``small`` athread, sealed, on two thread ranks (1x2): the
#: one peer is fold partner, east and west neighbour, and the ledgers
#: count the logical schedule (a fold, an east and a west message per
#: dtype group per exchange), not the one frame that carries it.
RANK_LEDGER = dict(
    messages=912, bytes=2355200.0,
    by_phase={"halo2": [624, 329728.0], "halo3": [288, 2025472.0]},
    size_hist={9: 192, 10: 400, 11: 32, 13: 240, 14: 48})


def test_two_rank_ledgers():
    from repro.ocean.model import run_distributed

    results, world = run_distributed(demo("small"), 2, 16, backend="athread")
    want = RANK_LEDGER
    for r in results:
        led = world.rank_traffic[r.rank]
        assert (led.messages, led.bytes) == (want["messages"], want["bytes"])
        assert led.by_pair == {(r.rank, 1 - r.rank): want["bytes"]}
        assert led.by_phase == want["by_phase"]
        assert led.size_hist == want["size_hist"]
        assert led.collectives == 0
    led = world.traffic
    assert (led.messages, led.bytes) == (2 * want["messages"],
                                         2 * want["bytes"])
    assert led.by_pair == {(0, 1): want["bytes"], (1, 0): want["bytes"]}
    assert led.by_phase == {k: [2 * n, 2 * b]
                            for k, (n, b) in want["by_phase"].items()}
    assert led.size_hist == {k: 2 * n for k, n in want["size_hist"].items()}
    assert led.collectives == 0


#: Halo exchanges per ``small`` step, each one ``record_batch`` per peer:
#: six outside the barotropic sub-cycle, one ``halo_eta`` per each of its
#: 12 sub-steps and one ``halo_ubvb`` after them.
EXCHANGES = 19


def _counting_batches(monkeypatch):
    """Patch ``TrafficLedger.record_batch`` to log the ledger of each call."""
    from repro.parallel import TrafficLedger

    calls = []
    record_batch = TrafficLedger.record_batch

    def counted(self, *args, **kwargs):
        calls.append(id(self))
        record_batch(self, *args, **kwargs)

    monkeypatch.setattr(TrafficLedger, "record_batch", counted)
    return calls


def test_a_sealed_step_ledgers_each_exchange_once(monkeypatch):
    calls = _counting_batches(monkeypatch)
    m = LICOMKpp(demo("small"))
    try:
        m.run_steps(2)                # capture the startup and steady graphs
        del calls[:]
        m.step()                      # one replay
        assert m.context.traffic is m.comm.traffic
        assert m.comm.traffic is m.comm.world.rank_traffic[0]
        assert calls == [id(m.comm.traffic)] * EXCHANGES
    finally:
        m.close()


def test_two_thread_ranks_ledger_each_exchange_once(monkeypatch):
    from repro.ocean.model import run_distributed

    calls = _counting_batches(monkeypatch)
    steps = 3
    results, world = run_distributed(demo("small"), 2, steps)
    # one peer per rank (1x2): a batch per exchange, into its own ledger
    assert len(calls) == 2 * EXCHANGES * steps
    for r in results:
        assert calls.count(id(world.rank_traffic[r.rank])) == \
            EXCHANGES * steps


def _ldm_after_reset_and_replay(steps):
    m = LICOMKpp(demo("small"), backend="athread")
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


class _PeakBackend(SerialBackend):
    """Serial backend recording each label's transient allocation peak
    (tracemalloc, bytes above what was held when the launch began)."""

    def __init__(self) -> None:
        super().__init__()
        self.peaks = None

    def run_for(self, label, policy, functor):
        if self.peaks is None:
            return super().run_for(label, policy, functor)
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        try:
            return super().run_for(label, policy, functor)
        finally:
            peak = tracemalloc.get_traced_memory()[1] - held
            self.peaks[label] = max(self.peaks.get(label, 0), peak)


def test_eager_launches_allocate_no_field_sized_temporary():
    backend = _PeakBackend()
    m = LICOMKpp(demo("medium"), backend=backend,
                 params=ModelParams(graph=False))
    try:
        m.run_steps(2)                  # warm the arena (both step variants)
        d = m.domain
        field = d.nz * d.ly * d.lx * 8
        backend.peaks = {}
        tracemalloc.start()
        try:
            m.step()
        finally:
            tracemalloc.stop()
    finally:
        m.close()
    assert len(backend.peaks) >= 20
    over = {label: round(peak / field, 2)
            for label, peak in backend.peaks.items() if peak >= field}
    assert over == {}
