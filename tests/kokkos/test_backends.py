"""Backend semantics: serial oracle, OpenMP, Athread, CUDA/HIP device."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import BackendError, LDMError, RegistrationError
from repro.kokkos import (
    AthreadBackend,
    DeviceBackend,
    DeviceSpace,
    Instrumentation,
    Max,
    MDRangePolicy,
    Min,
    OpenMPBackend,
    Prod,
    RangePolicy,
    SerialBackend,
    Sum,
    View,
    create_mirror_view,
    deep_copy,
    kokkos_register_for,
    kokkos_register_reduce,
    make_backend,
)


@kokkos_register_for("test_axpy", ndim=1)
class AXPY:
    flops_per_point = 2.0
    bytes_per_point = 24.0

    def __init__(self, a, x, y):
        self.a, self.x, self.y = a, x, y

    def __call__(self, i):
        self.y.data[i] = self.a * self.x.data[i] + self.y.data[i]

    def apply(self, slices):
        (s,) = slices
        self.y.data[s] += self.a * self.x.data[s]


@kokkos_register_for("test_stencil2d", ndim=2)
class Smooth2D:
    """out[j,i] = mean of 4 neighbours of inp (interior only)."""

    bytes_per_point = 48.0

    def __init__(self, inp, out):
        self.inp, self.out = inp, out

    def __call__(self, j, i):
        a = self.inp.data
        self.out.data[j, i] = 0.25 * (a[j - 1, i] + a[j + 1, i] + a[j, i - 1] + a[j, i + 1])

    def apply(self, slices):
        sj, si = slices
        a = self.inp.data
        self.out.data[sj, si] = 0.25 * (
            a[sj.start - 1:sj.stop - 1, si]
            + a[sj.start + 1:sj.stop + 1, si]
            + a[sj, si.start - 1:si.stop - 1]
            + a[sj, si.start + 1:si.stop + 1]
        )


@kokkos_register_reduce("test_dot", ndim=1)
class Dot:
    bytes_per_point = 16.0

    def __init__(self, x, y):
        self.x, self.y = x, y

    def reduce(self, i):
        return self.x.data[i] * self.y.data[i]

    def reduce_apply(self, slices):
        (s,) = slices
        return float(np.dot(self.x.data[s], self.y.data[s]))


@kokkos_register_reduce("test_maxabs", ndim=1)
class MaxAbs:
    def __init__(self, x):
        self.x = x

    def reduce(self, i):
        return abs(self.x.data[i])

    def reduce_apply(self, slices):
        (s,) = slices
        chunk = self.x.data[s]
        return float(np.abs(chunk).max()) if chunk.size else -np.inf


def _host_backends():
    return [
        SerialBackend(),
        OpenMPBackend(threads=3),
        AthreadBackend(num_cpes=8),
        AthreadBackend(),  # full 64-CPE core group
    ]


class TestParallelForAgreement:
    @pytest.mark.parametrize("backend", _host_backends(), ids=lambda b: f"{b.name}{b.concurrency}")
    def test_axpy_matches_serial(self, backend, rng):
        n = 257
        x = View("x", n)
        y = View("y", n)
        x.raw[:] = rng.standard_normal(n)
        y.raw[:] = rng.standard_normal(n)
        expect = 2.5 * x.raw + y.raw
        backend.parallel_for("axpy", RangePolicy(0, n), AXPY(2.5, x, y))
        assert np.array_equal(y.data, expect)

    @pytest.mark.parametrize("backend", _host_backends(), ids=lambda b: f"{b.name}{b.concurrency}")
    def test_stencil_matches_serial(self, backend, rng):
        ny, nx = 33, 21
        inp = View("inp", (ny, nx))
        inp.raw[:] = rng.standard_normal((ny, nx))
        ref = View("ref", (ny, nx))
        SerialBackend().parallel_for(
            "smooth", MDRangePolicy([(1, ny - 1), (1, nx - 1)]), Smooth2D(inp, ref)
        )
        out = View("out", (ny, nx))
        backend.parallel_for(
            "smooth", MDRangePolicy([(1, ny - 1), (1, nx - 1)]), Smooth2D(inp, out)
        )
        assert np.array_equal(out.data, ref.data)

    def test_elementwise_matches_vectorised(self, rng):
        """The __call__ path (no apply) must equal the apply path."""

        class NoApply:
            def __init__(self, x, y):
                self.x, self.y = x, y

            def __call__(self, i):
                self.y.data[i] = self.x.data[i] ** 2

        n = 40
        x = View("x", n)
        x.raw[:] = rng.standard_normal(n)
        y = View("y", n)
        SerialBackend().parallel_for("sq", RangePolicy(0, n), NoApply(x, y))
        # scalar ** and vector ** may differ in the last ulp
        assert np.allclose(y.data, x.raw ** 2, rtol=1e-15, atol=1e-16)


class TestReductions:
    @pytest.mark.parametrize("backend", _host_backends(), ids=lambda b: f"{b.name}{b.concurrency}")
    def test_dot(self, backend, rng):
        n = 301
        x = View("x", n)
        y = View("y", n)
        x.raw[:] = rng.standard_normal(n)
        y.raw[:] = rng.standard_normal(n)
        got = backend.parallel_reduce("dot", RangePolicy(0, n), Dot(x, y), Sum)
        assert got == pytest.approx(float(np.dot(x.raw, y.raw)), rel=1e-12)

    @pytest.mark.parametrize("backend", _host_backends(), ids=lambda b: f"{b.name}{b.concurrency}")
    def test_max_reduction(self, backend, rng):
        n = 97
        x = View("x", n)
        x.raw[:] = rng.standard_normal(n)
        got = backend.parallel_reduce("maxabs", RangePolicy(0, n), MaxAbs(x), Max)
        assert got == pytest.approx(np.abs(x.raw).max())

    def test_min_and_prod_reducers(self):
        assert Min.reduce_array(np.array([3.0, -1.0, 2.0])) == -1.0
        assert Prod.reduce_array(np.array([2.0, 3.0])) == 6.0
        assert Sum.reduce_array(np.array([])) == 0.0

    def test_empty_range_returns_identity(self):
        x = View("x", 4)
        got = SerialBackend().parallel_reduce("dot", RangePolicy(2, 2), Dot(x, x), Sum)
        assert got == 0.0

    def test_openmp_reduction_deterministic(self, rng):
        n = 1000
        x = View("x", n)
        x.raw[:] = rng.standard_normal(n)
        be = OpenMPBackend(threads=4)
        first = be.parallel_reduce("dot", RangePolicy(0, n), Dot(x, x), Sum)
        for _ in range(5):
            assert be.parallel_reduce("dot", RangePolicy(0, n), Dot(x, x), Sum) == first
        be.shutdown()


class TestAthreadSpecifics:
    def test_requires_registration(self):
        class Unregistered:
            def __init__(self, y):
                self.y = y

            def __call__(self, i):
                self.y.data[i] = 1.0

        be = AthreadBackend()
        with pytest.raises(RegistrationError):
            be.parallel_for("nope", RangePolicy(0, 4), Unregistered(View("y", 4)))

    def test_kind_mismatch_rejected(self):
        be = AthreadBackend()
        x = View("x", 8)
        with pytest.raises(RegistrationError):
            be.parallel_reduce("axpy_as_reduce", RangePolicy(0, 8), AXPY(1.0, x, x), Sum)

    def test_unregistered_ok_when_not_required(self):
        class Unregistered:
            def __init__(self, y):
                self.y = y

            def apply(self, slices):
                (s,) = slices
                self.y.data[s] = 1.0

        be = AthreadBackend(require_registration=False)
        y = View("y", 16)
        be.parallel_for("free", RangePolicy(0, 16), Unregistered(y))
        assert np.all(y.data == 1.0)

    def test_work_distribution_follows_equations(self):
        from repro.kokkos import tiles_per_cpe, total_tiles

        be = AthreadBackend(num_cpes=64)
        n = 1000
        x = View("x", n)
        y = View("y", n)
        be.parallel_for("axpy", RangePolicy(0, n), AXPY(1.0, x, y))
        ntiles, per_cpe = be.last_distribution
        assert per_cpe == tiles_per_cpe(ntiles, 64)
        assert ntiles >= 64  # enough tiles for every CPE

    def test_dma_traffic_recorded(self):
        be = AthreadBackend()
        x = View("x", 128)
        y = View("y", 128)
        be.parallel_for("axpy", RangePolicy(0, 128), AXPY(1.0, x, y))
        assert be.dma.get_bytes > 0
        assert be.dma.put_bytes > 0
        assert be.dma.total_count == be.dma.get_count + be.dma.put_count

    def test_ldm_high_water_positive_and_bounded(self):
        be = AthreadBackend()
        x = View("x", 4096)
        y = View("y", 4096)
        be.parallel_for("axpy", RangePolicy(0, 4096), AXPY(1.0, x, y))
        assert 0 < be.ldm_high_water() <= be.ldm[0].capacity

    def test_explicit_oversized_tile_raises_ldm_error(self):
        be = AthreadBackend()
        n = 100_000
        x = View("x", n)
        y = View("y", n)
        policy = MDRangePolicy([(0, n)], tile=(n,))
        with pytest.raises(LDMError):
            be.parallel_for("axpy", policy, AXPY(1.0, x, y))

    def test_explicit_fitting_tile_honoured(self):
        be = AthreadBackend()
        n = 640
        x = View("x", n)
        y = View("y", n)
        x.fill(1.0)
        be.parallel_for("axpy", MDRangePolicy([(0, n)], tile=(10,)), AXPY(2.0, x, y))
        assert np.all(y.data == 2.0)
        assert be.last_distribution[0] == 64

    def test_reset_counters(self):
        be = AthreadBackend()
        x = View("x", 64)
        be.parallel_for("axpy", RangePolicy(0, 64), AXPY(1.0, x, x))
        be.reset_counters()
        assert be.dma.total_bytes == 0
        assert be.ldm_high_water() == 0

    def test_rejects_device_views(self):
        be = AthreadBackend()
        d = View("d", 8, space=DeviceSpace)
        with pytest.raises(BackendError):
            be.parallel_for("axpy", RangePolicy(0, 8), AXPY(1.0, d, d))


class TestDeviceBackend:
    def _device_views(self, n, rng):
        xh = View("xh", n)
        yh = View("yh", n)
        xh.raw[:] = rng.standard_normal(n)
        yh.raw[:] = rng.standard_normal(n)
        xd = View("xd", n, space=DeviceSpace)
        yd = View("yd", n, space=DeviceSpace)
        deep_copy(xd, xh)
        deep_copy(yd, yh)
        return xh, yh, xd, yd

    @pytest.mark.parametrize("kind", ["cuda", "hip"])
    def test_axpy_on_device(self, kind, rng):
        be = DeviceBackend(kind=kind)
        xh, yh, xd, yd = self._device_views(64, rng)
        be.parallel_for("axpy", RangePolicy(0, 64), AXPY(3.0, xd, yd))
        out = create_mirror_view(yd)
        deep_copy(out, yd)
        assert np.allclose(out.data, 3.0 * xh.raw + yh.raw)

    def test_rejects_host_views(self, rng):
        be = DeviceBackend()
        x = View("x", 8)
        with pytest.raises(BackendError):
            be.parallel_for("axpy", RangePolicy(0, 8), AXPY(1.0, x, x))

    def test_reduce_on_device(self, rng):
        be = DeviceBackend()
        xh, yh, xd, yd = self._device_views(50, rng)
        got = be.parallel_reduce("dot", RangePolicy(0, 50), Dot(xd, yd), Sum)
        assert got == pytest.approx(float(np.dot(xh.raw, yh.raw)))

    def test_launch_counter(self, rng):
        be = DeviceBackend()
        _, _, xd, yd = self._device_views(8, rng)
        be.parallel_for("axpy", RangePolicy(0, 8), AXPY(1.0, xd, yd))
        be.parallel_for("axpy", RangePolicy(0, 8), AXPY(1.0, xd, yd))
        assert be.kernel_launches == 2

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            DeviceBackend(kind="metal")


class TestFactory:
    @pytest.mark.parametrize("name,cls", [
        ("serial", SerialBackend),
        ("openmp", OpenMPBackend),
        ("athread", AthreadBackend),
        ("cuda", DeviceBackend),
        ("hip", DeviceBackend),
        ("device", DeviceBackend),
    ])
    def test_make_backend(self, name, cls):
        assert isinstance(make_backend(name), cls)

    def test_case_insensitive(self):
        assert isinstance(make_backend("ATHREAD"), AthreadBackend)

    def test_unknown(self):
        with pytest.raises(ValueError):
            make_backend("sycl")

    def test_programming_models_match_table1(self):
        assert make_backend("openmp").programming_model == "OpenMP"
        assert make_backend("athread").programming_model == "Athread"
        assert make_backend("cuda").programming_model == "CUDA"
        assert make_backend("hip").programming_model == "HIP"


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(1, 300),
    ncpe=st.integers(1, 64),
    seed=st.integers(0, 99),
)
def test_property_athread_equals_serial(n, ncpe, seed):
    """Any size, any CPE count: Athread result is bit-identical to Serial."""
    rng = np.random.default_rng(seed)
    data_x = rng.standard_normal(n)
    data_y = rng.standard_normal(n)

    def run(backend):
        x = View("x", n)
        y = View("y", n)
        x.raw[:] = data_x
        y.raw[:] = data_y
        backend.parallel_for("axpy", RangePolicy(0, n), AXPY(1.7, x, y))
        return y.raw.copy()

    assert np.array_equal(run(SerialBackend()), run(AthreadBackend(num_cpes=ncpe)))
