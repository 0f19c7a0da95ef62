"""Views: layouts, memory spaces, mirrors, deep_copy, subviews."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MemorySpaceError
from repro.kokkos import (
    DeviceSpace,
    HostSpace,
    Instrumentation,
    LayoutLeft,
    LayoutRight,
    View,
    create_device_view,
    create_mirror_view,
    deep_copy,
    kernel_context,
    subview,
)


class TestConstruction:
    def test_1d_from_int_shape(self):
        v = View("x", 10)
        assert v.shape == (10,)
        assert v.ndim == 1
        assert v.size == 10

    def test_default_dtype_is_double(self):
        assert View("x", 4).dtype == np.float64

    def test_3d_shape(self):
        v = View("x", (3, 4, 5))
        assert v.shape == (3, 4, 5)
        assert v.extent(0) == 3 and v.extent(2) == 5

    def test_zero_initialised(self):
        assert np.all(View("x", (4, 4)).data == 0.0)

    def test_layout_right_is_c_order(self):
        v = View("x", (6, 7), layout=LayoutRight)
        assert v.data.flags["C_CONTIGUOUS"]

    def test_layout_left_is_f_order(self):
        v = View("x", (6, 7), layout=LayoutLeft)
        assert v.data.flags["F_CONTIGUOUS"]

    def test_wrap_existing_array_shares_buffer(self):
        arr = np.zeros((3, 3))
        v = View("x", data=arr)
        v[0, 0] = 5.0
        assert arr[0, 0] == 5.0

    def test_wrap_wrong_order_copies(self):
        arr = np.asfortranarray(np.zeros((3, 4)))
        v = View("x", data=arr, layout=LayoutRight)
        assert v.data.flags["C_CONTIGUOUS"]

    def test_needs_shape_or_data(self):
        with pytest.raises(ValueError):
            View("x")

    def test_nbytes(self):
        assert View("x", (2, 3)).nbytes == 48


class TestAccess:
    def test_getset(self):
        v = View("x", (2, 2))
        v[1, 1] = 3.5
        assert v[1, 1] == 3.5

    def test_fill(self):
        v = View("x", 5)
        v.fill(2.0)
        assert np.all(v.data == 2.0)

    def test_array_protocol(self):
        v = View("x", 3)
        v.fill(1.0)
        assert np.asarray(v).sum() == 3.0

    def test_device_view_blocks_host_access(self):
        v = View("d", 4, space=DeviceSpace)
        with pytest.raises(MemorySpaceError):
            _ = v[0]
        with pytest.raises(MemorySpaceError):
            v.fill(0.0)
        with pytest.raises(MemorySpaceError):
            _ = v.data

    def test_device_view_accessible_in_kernel_context(self):
        v = View("d", 4, space=DeviceSpace)
        with kernel_context():
            v[0] = 1.0
            assert v[0] == 1.0

    def test_kernel_context_nests(self):
        v = View("d", 4, space=DeviceSpace)
        with kernel_context():
            with kernel_context():
                v[1] = 2.0
            assert v[1] == 2.0
        with pytest.raises(MemorySpaceError):
            _ = v[1]

    def test_raw_bypasses_policing(self):
        v = View("d", 4, space=DeviceSpace)
        v.raw[0] = 9.0
        assert v.raw[0] == 9.0


class TestMirrorsAndCopies:
    def test_mirror_of_host_view_is_same_object(self):
        v = View("x", 4)
        assert create_mirror_view(v) is v

    def test_mirror_of_device_view_is_host(self):
        d = View("d", 4, space=DeviceSpace)
        m = create_mirror_view(d)
        assert m is not d
        assert m.space.host_accessible
        assert m.shape == d.shape

    def test_create_device_view(self):
        h = View("h", (2, 3))
        d = create_device_view(h, DeviceSpace)
        assert d.space is DeviceSpace
        assert d.shape == h.shape

    def test_deep_copy_host_to_host(self):
        a, b = View("a", 3), View("b", 3)
        a.fill(7.0)
        deep_copy(b, a)
        assert np.all(b.data == 7.0)

    def test_deep_copy_scalar_fill(self):
        v = View("x", 3)
        deep_copy(v, 4.0)
        assert np.all(v.data == 4.0)

    def test_deep_copy_shape_mismatch(self):
        with pytest.raises(ValueError):
            deep_copy(View("a", 3), View("b", 4))

    def test_h2d_recorded(self):
        h = View("h", 8)
        d = View("d", 8, space=DeviceSpace)
        inst = Instrumentation()
        deep_copy(d, h, inst=inst)
        assert inst.transfers.h2d_bytes == 64
        assert inst.transfers.h2d_count == 1

    def test_d2h_recorded(self):
        h = View("h", 8)
        d = View("d", 8, space=DeviceSpace)
        inst = Instrumentation()
        deep_copy(h, d, inst=inst)
        assert inst.transfers.d2h_bytes == 64

    def test_roundtrip_preserves_data(self):
        h = View("h", 16)
        h.raw[:] = np.arange(16.0)
        d = create_device_view(h, DeviceSpace)
        deep_copy(d, h)
        back = create_mirror_view(d)
        deep_copy(back, d)
        assert np.array_equal(back.data, np.arange(16.0))


class TestSubview:
    def test_subview_shares_buffer(self):
        v = View("x", (4, 4))
        s = subview(v, slice(1, 3), slice(0, 2))
        s[0, 0] = 5.0
        assert v[1, 0] == 5.0

    def test_subview_keeps_space(self):
        d = View("d", (4, 4), space=DeviceSpace)
        s = subview(d, slice(0, 2))
        with pytest.raises(MemorySpaceError):
            _ = s[0]


@settings(max_examples=25, deadline=None)
@given(
    n0=st.integers(1, 8),
    n1=st.integers(1, 8),
    layout=st.sampled_from([LayoutRight, LayoutLeft]),
)
def test_property_deep_copy_roundtrip(n0, n1, layout):
    """deep_copy(host -> device -> host) is lossless for any shape/layout."""
    rng = np.random.default_rng(n0 * 100 + n1)
    data = rng.standard_normal((n0, n1))
    h = View("h", data=data.copy(), layout=layout)
    d = View("d", (n0, n1), layout=layout, space=DeviceSpace)
    deep_copy(d, h)
    out = View("o", (n0, n1), layout=layout)
    deep_copy(out, d)
    assert np.array_equal(out.data, data)
