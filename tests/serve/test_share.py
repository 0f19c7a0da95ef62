"""Engine sharing: reset bitwise safety, cache hit/miss accounting."""

from __future__ import annotations

import threading

import numpy as np

from repro.kokkos import View
from repro.ocean import LICOMKpp, ModelParams, demo
from repro.ocean.model import STATE_FIELDS
from repro.ocean.state import LeapfrogField
from repro.serve import EngineCache, JobSpec
from repro.serve.share import SharedEngine


def _state(model):
    return {f: getattr(model.state, f).cur.raw.copy() for f in STATE_FIELDS}


class TestReset:
    def test_reset_matches_fresh_model_bitwise(self):
        """A stepped-then-reset model re-runs bitwise like a fresh one."""
        cfg = demo("tiny")
        reused = LICOMKpp(cfg)
        reused.run_steps(3)
        reused.reset()
        assert reused.nstep == 0 and reused.time_seconds == 0.0
        reused.run_steps(3)

        fresh = LICOMKpp(cfg)
        fresh.run_steps(3)
        for f in STATE_FIELDS:
            np.testing.assert_array_equal(
                getattr(reused.state, f).cur.raw,
                getattr(fresh.state, f).cur.raw, err_msg=f)
        fresh.close()
        reused.close()

    def test_reset_keeps_sealed_graphs(self):
        """Reset preserves view identity, so sealed graphs replay."""
        model = LICOMKpp(demo("tiny"))
        model.run_steps(2)
        sealed_before = {k: id(g) for k, g in model._graphs.items()}
        replays_before = sum(g.replays for g in model._graphs.values())
        model.reset()
        model.run_steps(2)
        assert {k: id(g) for k, g in model._graphs.items()} == sealed_before
        assert sum(g.replays for g in model._graphs.values()) \
            > replays_before
        model.close()


    def test_every_held_view_is_a_bound_view(self):
        """reset() zeroes, and the binding signature is made of, one
        list: a view the model holds but leaves off it would lease a
        dirty engine.  Mixed precision and a passive tracer, so the
        cast shadows and the per-tracer views are buffers of their own."""
        model = LICOMKpp(demo("tiny"),
                         params=ModelParams(precision="mixed", n_passive=1))
        bound = {id(v) for v in model._bound_views()}
        held = []
        for owner in (model, model.state):
            for name, value in vars(owner).items():
                stack = [value]
                while stack:
                    item = stack.pop()
                    if isinstance(item, LeapfrogField):
                        stack.extend((item.old, item.cur, item.new))
                    elif isinstance(item, (list, tuple)):
                        stack.extend(item)
                    elif isinstance(item, View):
                        held.append((name, item.label, id(item)))
        model.close()
        assert len(held) > 50
        assert [h[:2] for h in held if h[2] not in bound] == []


class TestSharedEngine:
    def test_lease_resets_and_relabels(self):
        spec = JobSpec(name="base", trace=True)
        engine = SharedEngine(spec.share_signature(), spec)
        with engine.lease("job-a") as model:
            model.run_steps(1)
            assert model.context.tracer.name == "job-a"
            spans_a = len(model.context.tracer.spans)
            assert spans_a > 0
        with engine.lease("job-b") as model:
            # previous job's spans were cleared with the relabel
            assert model.context.tracer.name == "job-b"
            assert len(model.context.tracer.spans) == 0
            assert model.nstep == 0
        assert engine.leases == 2
        engine.close()

    def test_second_job_on_a_leased_engine_captures_nothing(self):
        """A job of the default length seals the startup graph and the
        three leapfrog phases; reset returns to phase 0, so the next
        job replays them all."""
        spec = JobSpec(name="base")
        engine = SharedEngine(spec.share_signature(), spec)
        captures = []
        for job in ("job-a", "job-b"):
            with engine.lease(job) as model:
                before = model._graph_captures
                model.run_steps(spec.steps)
                captures.append(model._graph_captures - before)
        stats = engine.graph_stats()
        engine.close()
        assert captures == [4, 0]
        assert [g["replays"] for g in stats] == [1, 1, 1, 1]

    def test_lease_is_exclusive(self):
        spec = JobSpec(name="base", steps=1)
        engine = SharedEngine(spec.share_signature(), spec)
        active = []
        overlap = []

        def job(name):
            with engine.lease(name) as model:
                active.append(name)
                if len(active) > 1:
                    overlap.append(tuple(active))
                model.run_steps(1)
                active.remove(name)

        threads = [threading.Thread(target=job, args=(f"j{i}",))
                   for i in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not overlap
        assert engine.leases == 3
        engine.close()


class TestEngineCache:
    def test_hit_miss_counters(self):
        cache = EngineCache()
        a = cache.acquire(JobSpec(name="a"))
        b = cache.acquire(JobSpec(name="b"))
        c = cache.acquire(JobSpec(name="c", precision="single"))
        assert a is b and a is not c
        assert cache.hits == 1 and cache.misses == 2
        assert len(cache) == 2
        cache.close_all()
        assert len(cache) == 0

    def test_concurrent_same_signature_single_build(self):
        """N simultaneous acquires -> one build, N-1 hits."""
        cache = EngineCache()
        engines = []
        barrier = threading.Barrier(4)

        def acquire():
            barrier.wait()
            engines.append(cache.acquire(JobSpec(name="x")))

        threads = [threading.Thread(target=acquire) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len({id(e) for e in engines}) == 1
        assert cache.misses == 1 and cache.hits == 3
        cache.close_all()

    def test_close_all_closes_contexts(self):
        cache = EngineCache()
        engine = cache.acquire(JobSpec(name="a"))
        ctx = engine.model.context
        cache.close_all()
        assert ctx.closed
