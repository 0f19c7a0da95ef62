"""Per-rank ledger aggregation and the rank_imbalance scaling term."""

from __future__ import annotations

import pytest

from repro.kokkos import ExecutionContext, Instrumentation
from repro.ocean.config import PAPER_CONFIGS
from repro.perfmodel import predict_step_time, predict_sypd
from tests.ledgers import aggregate

CFG = PAPER_CONFIGS["coarse_100km"]


def _ranked_insts(points=(100, 100)):
    insts = []
    for p in points:
        inst = Instrumentation()
        inst.record_launch("step", points=p, flops_per_point=2.0,
                           bytes_per_point=24.0)
        insts.append(inst)
    return insts


class TestAggregate:
    def test_sums_kernels_transfers_workspace(self):
        a, b = _ranked_insts((100, 60))
        a.transfers.record_h2d(1000.0)
        b.transfers.record_d2h(500.0)
        a.record_workspace_take(256.0, allocated=True)
        merged = aggregate([a, b])
        assert merged.kernels["step"].launches == 2
        assert merged.kernels["step"].points == 160
        assert merged.kernels["step"].flops == pytest.approx(320.0)
        assert merged.transfers.h2d_bytes == 1000.0
        assert merged.transfers.d2h_count == 0 + 1
        assert merged.workspace.allocations == 1
        # pure sum, inputs untouched
        assert a.kernels["step"].points == 100

    def test_accepts_contexts_and_instrumentations_mixed(self):
        ctx = ExecutionContext("serial")
        ctx.inst.record_launch("step", points=7)
        bare = Instrumentation()
        bare.record_launch("step", points=3)
        merged = aggregate([ctx, bare])
        assert merged.kernels["step"].points == 10

    def test_rejects_unresolvable(self):
        with pytest.raises(TypeError):
            aggregate([object()])


class TestRankImbalanceTerm:
    def test_unit_imbalance_reproduces_balanced_prediction(self):
        base = predict_step_time(CFG, "orise", 64)
        assert predict_step_time(CFG, "orise", 64, rank_imbalance=1.0) == base

    def test_imbalance_slows_the_step(self):
        base = predict_step_time(CFG, "orise", 64)
        skewed = predict_step_time(CFG, "orise", 64, rank_imbalance=1.3)
        assert skewed > base
        # compute scales by the factor; comm may grow too (overlap model
        # sees a longer compute window), so the bound is one-sided
        assert skewed >= base * 1.0

    def test_sypd_passthrough(self):
        fast = predict_sypd(CFG, "orise", 64, rank_imbalance=1.0)
        slow = predict_sypd(CFG, "orise", 64, rank_imbalance=1.5)
        assert slow < fast

    def test_rejects_sub_unity(self):
        with pytest.raises(ValueError):
            predict_step_time(CFG, "orise", 64, rank_imbalance=0.9)
