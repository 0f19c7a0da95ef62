"""Top-level dispatch API, instrumentation, LDM/DMA models, timers."""

import numpy as np
import pytest

from repro.errors import LDMError
from repro.kokkos import (
    DMAEngine,
    Instrumentation,
    LDMAllocator,
    RangePolicy,
    SerialBackend,
    SW26010_LDM_BYTES,
    View,
    double_buffered_time,
    fence,
    kokkos_register_for,
    make_backend,
    parallel_for,
    parallel_reduce,
    parallel_scan,
)
from repro.kokkos.ldm import max_tile_points
from repro.timing import TimerRegistry


@kokkos_register_for("api_fill", ndim=1)
class Fill:
    def __init__(self, y, value):
        self.y = y
        self.value = value

    def __call__(self, i):
        self.y.data[i] = self.value

    def apply(self, slices):
        (s,) = slices
        self.y.data[s] = self.value


class TestDispatch:
    """The free functions run on — and count in — the space they are given."""

    @pytest.mark.parametrize("backend", ["serial", "athread"])
    def test_parallel_for_runs_on_given_space(self, backend):
        space = make_backend(backend)
        y = View("y", 10)
        parallel_for("fill", RangePolicy(0, 10), Fill(y, 3.0), space)
        assert np.all(y.data == 3.0)
        assert space.inst.kernels["fill"].points == 10

    def test_space_is_required(self):
        y = View("y", 4)
        with pytest.raises(TypeError):
            parallel_for("fill", RangePolicy(0, 4), Fill(y, 1.0))
        with pytest.raises(TypeError):
            parallel_reduce("fill", RangePolicy(0, 4), Fill(y, 1.0))
        with pytest.raises(TypeError):
            fence()

    def test_spaces_do_not_share_a_ledger(self):
        a, b = SerialBackend(), SerialBackend()
        y = View("y", 4)
        parallel_for("fill", RangePolicy(0, 4), Fill(y, 1.0), a)
        assert a.inst is not b.inst
        assert a.inst.total_launches == 1
        assert b.inst.total_launches == 0

    def test_parallel_reduce(self):
        class Count:
            def reduce(self, i):
                return 1.0

        assert parallel_reduce("count", RangePolicy(0, 7), Count(),
                               space=SerialBackend()) == 7.0

    def test_parallel_scan(self):
        class Prefix:
            def __init__(self):
                self.out = np.zeros(5)

            def __call__(self, i, partial, final):
                partial += i + 1
                if final:
                    self.out[i] = partial
                return partial

        f = Prefix()
        total = parallel_scan("scan", 5, f, SerialBackend())
        assert total == 15.0
        assert np.array_equal(f.out, np.array([1.0, 3.0, 6.0, 10.0, 15.0]))

    def test_fence_noop(self):
        fence(SerialBackend())  # must not raise


class TestInstrumentation:
    def test_record_launch_accumulates(self):
        inst = Instrumentation()
        inst.record_launch("k", points=100, tiles=4, flops_per_point=2.0,
                           bytes_per_point=8.0)
        inst.record_launch("k", points=100, tiles=4, flops_per_point=2.0,
                           bytes_per_point=8.0)
        k = inst.kernels["k"]
        assert k.launches == 2
        assert k.points == 200
        assert k.flops == 400.0
        assert k.bytes == 1600.0
        assert k.arithmetic_intensity == pytest.approx(0.25)

    def test_totals(self):
        inst = Instrumentation()
        inst.record_launch("a", points=10, flops_per_point=1.0, bytes_per_point=2.0)
        inst.record_launch("b", points=10, flops_per_point=3.0, bytes_per_point=4.0)
        assert inst.total_flops == 40.0
        assert inst.total_bytes == 60.0
        assert inst.total_launches == 2

    def test_disabled_records_nothing(self):
        inst = Instrumentation()
        inst.enabled = False
        inst.record_launch("a", points=10)
        assert not inst.kernels

    def test_report_contains_kernels(self):
        inst = Instrumentation()
        inst.record_launch("mykernel", points=5, bytes_per_point=8.0)
        assert "mykernel" in inst.report()

    def test_reset(self):
        inst = Instrumentation()
        inst.record_launch("a", points=1)
        inst.transfers.record_h2d(100)
        inst.reset()
        assert not inst.kernels
        assert inst.transfers.h2d_bytes == 0

    def test_backend_records_into_its_own_ledger(self):
        y = View("y", 16)
        be = SerialBackend()
        be.parallel_for("fill16", RangePolicy(0, 16), Fill(y, 1.0))
        assert be.inst.kernels["fill16"].points == 16
        inst = Instrumentation()
        SerialBackend(inst=inst).parallel_for(
            "fill16", RangePolicy(0, 16), Fill(y, 1.0))
        assert inst.kernels["fill16"].points == 16


class TestLDM:
    def test_alloc_free(self):
        ldm = LDMAllocator(capacity=1000)
        ldm.alloc("a", 400)
        ldm.alloc("b", 600)
        assert ldm.used == 1000
        ldm.free("a")
        assert ldm.used == 600
        assert ldm.high_water == 1000

    def test_overflow_raises(self):
        ldm = LDMAllocator(capacity=100)
        with pytest.raises(LDMError):
            ldm.alloc("big", 101)

    def test_duplicate_name_raises(self):
        ldm = LDMAllocator()
        ldm.alloc("a", 10)
        with pytest.raises(LDMError):
            ldm.alloc("a", 10)

    def test_free_unknown_raises(self):
        with pytest.raises(LDMError):
            LDMAllocator().free("ghost")

    def test_negative_alloc_rejected(self):
        with pytest.raises(ValueError):
            LDMAllocator().alloc("neg", -1)

    def test_fits(self):
        ldm = LDMAllocator(capacity=100)
        ldm.alloc("a", 60)
        assert ldm.fits(40)
        assert not ldm.fits(41)

    def test_default_capacity_is_sw26010(self):
        assert LDMAllocator().capacity == SW26010_LDM_BYTES == 256 * 1024

    def test_reset(self):
        ldm = LDMAllocator()
        ldm.alloc("a", 10)
        ldm.reset()
        assert ldm.used == 0


class TestDMA:
    def test_ledger(self):
        dma = DMAEngine()
        dma.get(100.0)
        dma.put(50.0)
        assert dma.total_bytes == 150.0
        assert dma.get_count == 1 and dma.put_count == 1

    def test_transfer_time(self):
        dma = DMAEngine(bandwidth=1e9, latency=1e-6)
        assert dma.transfer_time(1e9) == pytest.approx(1.0 + 1e-6)

    def test_reset(self):
        dma = DMAEngine()
        dma.get(10)
        dma.reset()
        assert dma.total_bytes == 0


class TestDoubleBuffering:
    def test_single_buffer_serialises(self):
        assert double_buffered_time(2.0, 1.0, 10, buffers=1) == pytest.approx(30.0)

    def test_double_buffer_overlaps(self):
        # steady state max(2,1)=2: 1 + 9*2 + 2 = 21
        assert double_buffered_time(2.0, 1.0, 10, buffers=2) == pytest.approx(21.0)

    def test_transfer_bound(self):
        # steady state max(1,3)=3: 3 + 9*3 + 1 = 31
        assert double_buffered_time(1.0, 3.0, 10, buffers=2) == pytest.approx(31.0)

    def test_zero_tiles(self):
        assert double_buffered_time(1.0, 1.0, 0) == 0.0

    def test_speedup_bounded_by_2x(self):
        serial = double_buffered_time(1.0, 1.0, 100, buffers=1)
        pipelined = double_buffered_time(1.0, 1.0, 100, buffers=2)
        assert 1.9 < serial / pipelined <= 2.0

    def test_max_tile_points(self):
        pts = max_tile_points(bytes_per_point=80.0)
        assert pts >= 1
        assert pts * 80.0 * 2 <= SW26010_LDM_BYTES

    def test_max_tile_points_degenerate(self):
        assert max_tile_points(0.0) >= 1


class TestTimers:
    def test_nested_timers(self):
        t = TimerRegistry()
        with t.timer("outer"):
            with t.timer("inner"):
                pass
        assert t.count("outer") == 1
        assert t.count("inner") == 1
        assert t.total("outer") >= t.total("inner")
        assert "inner" in t._nodes["outer"].child_names

    def test_mismatched_stop_raises(self):
        t = TimerRegistry()
        t.start("a")
        with pytest.raises(ValueError):
            t.stop("b")
        t.stop("a")

    def test_stop_without_start_raises(self):
        with pytest.raises(ValueError):
            TimerRegistry().stop("never")

    def test_accumulation(self):
        t = TimerRegistry()
        for _ in range(3):
            with t.timer("x"):
                pass
        assert t.count("x") == 3
        assert t._nodes["x"].mean == pytest.approx(t.total("x") / 3)

    def test_report_sorted(self):
        fake_time = [0.0]

        def clock():
            return fake_time[0]

        t = TimerRegistry(clock=clock)
        t.start("cheap")
        fake_time[0] += 1.0
        t.stop("cheap")
        t.start("costly")
        fake_time[0] += 5.0
        t.stop("costly")
        report = t.report()
        assert report.index("costly") < report.index("cheap")

    def test_unknown_names_are_zero(self):
        t = TimerRegistry()
        assert t.total("nope") == 0.0
        assert t.count("nope") == 0

    def test_reset(self):
        t = TimerRegistry()
        with t.timer("x"):
            pass
        t.reset()
        assert t.names() == []
