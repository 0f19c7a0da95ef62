"""Concurrent model instances and per-rank ledger separation.

The ExecutionContext acceptance story: two models on different backends
step concurrently in one process with bitwise-identical results and
disjoint ledgers whose merged totals equal the same models stepped one
after the other; multi-rank SimWorld runs expose true per-rank
statistics that never bleed between ranks.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.kokkos import ExecutionContext
from repro.ocean import LICOMKpp, demo
from repro.parallel import BlockDecomposition, SimWorld
from repro.perfmodel import aggregate, measured_load_imbalance

STATE_FIELDS = ("u", "v", "t", "s", "ssh")
STEPS = 2


def _state_snapshot(model):
    out = {}
    for fld in STATE_FIELDS:
        view = getattr(model.state, fld).cur
        out[fld] = np.array(view.raw, copy=True)
    return out


def _ledger_snapshot(inst):
    kernels = {label: (k.launches, k.tiles, k.points, k.flops, k.bytes)
               for label, k in inst.kernels.items()}
    t = inst.transfers
    transfers = (t.h2d_bytes, t.h2d_count, t.d2h_bytes, t.d2h_count,
                 t.dma_bytes, t.dma_count)
    w = inst.workspace
    workspace = (w.requests, w.allocations, w.bytes_served, w.bytes_allocated)
    return kernels, transfers, workspace


class TestConcurrentInstances:
    def test_back_to_back_models_own_disjoint_ledgers(self):
        """Every model built from a backend *name* gets a private
        context, single-rank included: the second model's ledger starts
        empty and ends equal to the first's, not at the running sum."""
        first = LICOMKpp(demo("tiny"))
        second = LICOMKpp(demo("tiny"))
        assert first.context is not second.context
        assert first.context.inst is not second.context.inst
        first.run_steps(3)
        assert second.context.inst.total_launches == 0
        second.run_steps(3)
        assert first.context.inst.total_launches > 0
        assert (second.context.inst.total_launches
                == first.context.inst.total_launches)
        assert (_ledger_snapshot(second.context.inst)
                == _ledger_snapshot(first.context.inst))
        first.close()
        second.close()

    def test_parallel_threads_bitwise_equal_sequential_with_disjoint_ledgers(self):
        cfg = demo("tiny")

        # -- reference workload: the two models stepped one after the other --
        seq = {}
        seq_models = []
        for backend in ("athread", "cuda"):
            m = LICOMKpp(cfg, backend=backend)
            m.run_steps(STEPS)
            seq[backend] = _state_snapshot(m)
            seq_models.append(m)
        seq_totals = _ledger_snapshot(aggregate(seq_models))

        # -- same workload, one private context per model, two threads --
        contexts = {b: ExecutionContext(b) for b in ("athread", "cuda")}
        par = {}
        errors = []

        def run(backend):
            try:
                m = LICOMKpp(cfg, context=contexts[backend])
                m.run_steps(STEPS)
                par[backend] = _state_snapshot(m)
                m.close()
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append((backend, exc))

        threads = [threading.Thread(target=run, args=(b,))
                   for b in ("athread", "cuda")]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors

        # bitwise identical to the sequential run, per backend
        for backend in ("athread", "cuda"):
            for fld in STATE_FIELDS:
                assert np.array_equal(par[backend][fld], seq[backend][fld]), \
                    (backend, fld)

        # ledgers are disjoint objects, each as large as its sequential twin
        a, c = contexts["athread"].inst, contexts["cuda"].inst
        assert a is not c
        assert a.total_launches > 0 and c.total_launches > 0
        for m in seq_models:
            twin = contexts[m.space.name].inst
            assert _ledger_snapshot(twin) == _ledger_snapshot(m.context.inst)

        # merged per-context totals equal the merged sequential ledgers
        merged = aggregate(contexts.values())
        assert _ledger_snapshot(merged) == seq_totals

        # backend-specific traffic landed in the right ledger only: the
        # device model's host<->device copies never touch the athread one
        assert c.transfers.h2d_bytes > 0 and c.transfers.d2h_bytes > 0
        assert a.transfers.h2d_bytes == 0 and a.transfers.d2h_bytes == 0


class TestConcurrentTracing:
    def test_threaded_models_trace_into_private_lanes(self):
        """Two traced models stepping on their own threads: each context's
        tracer records only its own model, on a single lane, with the
        nesting invariants intact — no bleed between the two timelines."""
        cfg = demo("tiny")
        contexts = {b: ExecutionContext(b, trace=True)
                    for b in ("athread", "cuda")}
        errors = []
        state = {}

        def run(backend):
            try:
                m = LICOMKpp(cfg, context=contexts[backend])
                m.run_steps(STEPS)
                state[backend] = _state_snapshot(m)
                m.close()
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append((backend, exc))

        threads = [threading.Thread(target=run, args=(b,))
                   for b in ("athread", "cuda")]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors

        tr_a = contexts["athread"].tracer
        tr_c = contexts["cuda"].tracer
        assert tr_a is not tr_c

        for tr in (tr_a, tr_c):
            spans = tr.closed_spans()
            # every span closed, all on the one thread that stepped this
            # model, step containers present
            assert spans and len(spans) == len(tr.spans)
            assert {s.tid for s in spans} == {0}
            assert sum(1 for s in spans if s.name == "step") == STEPS
            assert all(s.dur >= 0.0 for s in spans)

        # no shared span/instant objects between the two timelines
        ids_a = {id(s) for s in tr_a.spans} | {id(i) for i in tr_a.instants}
        ids_c = {id(s) for s in tr_c.spans} | {id(i) for i in tr_c.instants}
        assert not (ids_a & ids_c)

        # only the device model moved host<->device data
        assert not any(i.name in ("H2D", "D2H") for i in tr_a.instants)
        assert any(i.name in ("H2D", "D2H") for i in tr_c.instants)

        # tracing changed no answers: bitwise equal to untraced runs
        for backend in ("athread", "cuda"):
            ref = LICOMKpp(cfg, backend=backend)
            ref.run_steps(STEPS)
            ref_state = _state_snapshot(ref)
            for fld in STATE_FIELDS:
                assert np.array_equal(state[backend][fld], ref_state[fld]), \
                    (backend, fld)


class TestPerRankLedgers:
    def test_single_and_multi_rank_athread_share_the_registration_table(self):
        """One registration table whatever the rank count: a 1-rank and
        a 2-rank athread model resolve their presets through the same
        object (no per-rank copy to fall back from)."""
        from repro.kokkos import default_registry

        cfg = demo("tiny")
        d = BlockDecomposition(cfg.ny, cfg.nx, 2, 1)
        solo = LICOMKpp(cfg, backend="athread")
        solo.run_steps(1)

        def prog(comm):
            m = LICOMKpp(cfg, backend="athread", comm=comm, decomp=d)
            m.run_steps(1)
            m.close()
            return m.space.registry

        tables = SimWorld.run(prog, d.size) + [solo.space.registry]
        solo.close()
        assert all(t is default_registry() for t in tables)

    def test_simworld_ranks_never_bleed_counters(self):
        """Regression for the record_launch thread-safety gap: per-rank
        contexts give disjoint ledgers, and their merged totals equal a
        shared-ledger run of the same decomposition."""
        cfg = demo("tiny")
        d = BlockDecomposition(cfg.ny, cfg.nx, 2, 1)

        def prog(comm):
            m = LICOMKpp(cfg, comm=comm, decomp=d)
            m.run_steps(STEPS)
            ctx = m.context
            m.close()
            return ctx

        contexts = SimWorld.run(prog, d.size)

        # one private context per rank, pairwise-disjoint ledgers
        insts = [c.inst for c in contexts]
        assert len({id(i) for i in insts}) == d.size
        for inst in insts:
            assert inst.total_launches > 0

        # identical launch sequences per rank: a bled counter would show
        # up as one rank's launches growing at another's expense
        first = {k: v.launches for k, v in insts[0].kernels.items()}
        for inst in insts[1:]:
            assert {k: v.launches for k, v in inst.kernels.items()} == first

        # shared-ledger reference: same decomposition, every rank
        # recording into one Instrumentation (the pre-refactor shape)
        from repro.kokkos import Instrumentation, SerialBackend

        shared = Instrumentation()

        def prog_shared(comm):
            m = LICOMKpp(cfg, backend=SerialBackend(inst=shared),
                         comm=comm, decomp=d)
            m.run_steps(STEPS)

        SimWorld.run(prog_shared, d.size)
        merged = aggregate(contexts)
        assert {k: v.launches for k, v in merged.kernels.items()} == \
            {k: v.launches for k, v in shared.kernels.items()}
        assert {k: v.points for k, v in merged.kernels.items()} == \
            {k: v.points for k, v in shared.kernels.items()}
        assert merged.total_points == shared.total_points

    def test_simworld_per_rank_traffic_sums_to_world_ledger(self):
        cfg = demo("tiny")
        d = BlockDecomposition(cfg.ny, cfg.nx, 1, 2)
        worlds = {}

        def prog(comm):
            worlds[comm.rank] = comm.world
            m = LICOMKpp(cfg, comm=comm, decomp=d)
            m.run_steps(STEPS)
            ctx = m.context
            m.close()
            return ctx

        contexts = SimWorld.run(prog, d.size)
        world = worlds[0].traffic
        per_rank = [c.traffic for c in contexts]
        assert all(led.messages > 0 for led in per_rank)
        assert sum(led.messages for led in per_rank) == world.messages
        assert sum(led.bytes for led in per_rank) == world.bytes
        # per-rank collective participations: world counts each epoch
        # once, every rank participated in every epoch
        for led in per_rank:
            assert led.collectives == world.collectives

    def test_balanced_ranks_measure_unit_imbalance(self):
        cfg = demo("tiny")
        d = BlockDecomposition(cfg.ny, cfg.nx, 2, 1)

        def prog(comm):
            m = LICOMKpp(cfg, comm=comm, decomp=d)
            m.run_steps(STEPS)
            return m.context

        contexts = SimWorld.run(prog, d.size)
        # the 2x1 split of the tiny grid is even: measured per-rank
        # point counts must agree and the imbalance factor is exactly 1
        assert measured_load_imbalance(contexts) == 1.0
