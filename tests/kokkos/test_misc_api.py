"""Remaining API corners: error hierarchy, functor base, presets,
Athread tiling heuristics, world timeouts."""

import numpy as np
import pytest

from repro import errors
from repro.kokkos import (
    AthreadBackend,
    DictRegistry,
    Functor,
    MDRangePolicy,
    RangePolicy,
    SerialBackend,
    Sum,
    View,
    register_functor_instance,
)
from repro.kokkos.functor import _iter_indices, _loop_elementwise
from repro.parallel import SimWorld


class TestErrorHierarchy:
    @pytest.mark.parametrize("exc", [
        errors.KokkosError, errors.OceanError, errors.ParallelError,
        errors.PerfModelError,
    ])
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, errors.ReproError)

    @pytest.mark.parametrize("exc,parent", [
        (errors.BackendError, errors.KokkosError),
        (errors.RegistrationError, errors.KokkosError),
        (errors.MemorySpaceError, errors.KokkosError),
        (errors.LDMError, errors.KokkosError),
        (errors.ConfigurationError, errors.OceanError),
        (errors.StabilityError, errors.OceanError),
        (errors.DecompositionError, errors.ParallelError),
        (errors.CommunicationError, errors.ParallelError),
        (errors.UnknownMachineError, errors.PerfModelError),
    ])
    def test_families(self, exc, parent):
        assert issubclass(exc, parent)


class TestFunctorProtocol:
    def test_base_class_is_abstract(self):
        with pytest.raises(NotImplementedError):
            Functor()(0)

    def test_base_class_cost_defaults(self):
        assert Functor.flops_per_point == 0.0
        assert Functor.bytes_per_point == 8.0

    def test_iter_indices_row_major(self):
        idx = list(_iter_indices((slice(0, 2), slice(0, 2))))
        assert idx == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_loop_elementwise_order(self):
        seen = []

        class Rec:
            def __call__(self, j, i):
                seen.append((j, i))

        _loop_elementwise(Rec(), (slice(0, 2), slice(1, 3)))
        assert seen == [(0, 1), (0, 2), (1, 1), (1, 2)]

    def test_register_functor_instance(self):
        reg = DictRegistry()

        class Ad(Functor):
            def __init__(self, y):
                self.y = y

            def __call__(self, i):
                self.y.data[i] += 1.0

        y = View("y", 8)
        f = Ad(y)
        entry = register_functor_instance(f, "for", 1, registry=reg)
        assert entry.functor_type is Ad
        be = AthreadBackend(registry=reg)
        be.parallel_for("adhoc", RangePolicy(0, 8), f)
        assert np.all(y.data == 1.0)

    def test_preset_reduce_without_reduce_apply(self):
        """The generated reduce preset falls back to elementwise."""
        reg = DictRegistry()

        class Count(Functor):
            def reduce(self, i):
                return 2.0

        f = Count()
        register_functor_instance(f, "reduce", 1, registry=reg)
        be = AthreadBackend(registry=reg)
        assert be.parallel_reduce("cnt", RangePolicy(0, 5), f, Sum) == 10.0


class TestAthreadTiling:
    def test_enough_tiles_for_all_cpes(self):
        be = AthreadBackend(num_cpes=64)

        class F(Functor):
            bytes_per_point = 8.0

            def __init__(self, y):
                self.y = y

            def apply(self, slices):
                (s,) = slices
                self.y.data[s] = 1.0

        policy = MDRangePolicy([(0, 10_000)])
        tile = be.choose_tile(policy, F(View("y", 10_000)))
        from repro.kokkos import total_tiles

        assert total_tiles(policy.extents, tile) >= 64

    def test_small_range_fewer_tiles_than_cpes_ok(self):
        be = AthreadBackend(num_cpes=64)

        class F(Functor):
            def __init__(self, y):
                self.y = y

            def apply(self, slices):
                (s,) = slices
                self.y.data[s] = 1.0

        y = View("y", 3)
        f = F(y)
        register_functor_instance(f, "for", 1)
        be.parallel_for("tiny", RangePolicy(0, 3), f)
        assert np.all(y.data == 1.0)

    def test_heavy_functor_gets_small_tiles(self):
        be = AthreadBackend()

        class Heavy(Functor):
            bytes_per_point = 4096.0

            def apply(self, slices):
                pass

        policy = MDRangePolicy([(0, 100_000)])
        tile = be.choose_tile(policy, Heavy())
        # two DMA buffers of tile working set must fit the 256 kB LDM
        assert tile[0] * 4096.0 * 2 <= be.ldm[0].capacity


class TestWorldTimeout:
    def test_stuck_recv_raises_not_hangs(self):
        def prog(comm):
            if comm.rank == 0:
                return comm.recv(source=1)  # never sent
            return None

        with pytest.raises(errors.CommunicationError):
            SimWorld.run(prog, 2, timeout=0.1)
