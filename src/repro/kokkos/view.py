"""``View``: the multi-dimensional array abstraction of the portability layer.

A :class:`View` wraps a NumPy array and carries the Kokkos metadata that
matters for portability: a label, a memory space and a layout.  The key
behavioural contract reproduced from Kokkos:

* Views in :data:`~repro.kokkos.spaces.DeviceSpace` may **not** be
  dereferenced by host code — only inside a kernel body executed by the
  device backend (which sets a thread-local "in kernel" flag), or through
  a host mirror obtained with :func:`create_mirror_view` followed by
  :func:`deep_copy`.
* ``deep_copy`` across spaces records host<->device transfer bytes in the
  instrumentation ledger; these are the "daily memory copies" the paper
  includes in its timed region (§VI-C).
* The raw buffer is reachable via :attr:`View.data` — the paper's
  ``View.data`` interface that Athread DMA helpers use (§V-B).  As in
  Kokkos, a view stays bound to its one allocation for its whole life.
"""

from __future__ import annotations

import threading
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import MemorySpaceError
from .instrument import Instrumentation, TransferLedger
from .spaces import (
    HostSpace,
    Layout,
    LayoutLeft,
    LayoutRight,
    MemorySpace,
)

_TLS = threading.local()


def _in_kernel() -> bool:
    return getattr(_TLS, "in_kernel", 0) > 0


class kernel_context:
    """Context manager marking that device-space access is legal.

    Backends that own non-host-accessible memory (the simulated CUDA/HIP
    device) enter this context around functor execution, exactly as real
    device code is the only place device pointers may be dereferenced.
    """

    def __enter__(self) -> "kernel_context":
        _TLS.in_kernel = getattr(_TLS, "in_kernel", 0) + 1
        return self

    def __exit__(self, *exc) -> None:
        _TLS.in_kernel -= 1


ShapeLike = Union[int, Sequence[int]]


class View:
    """An N-dimensional array with a label, layout and memory space.

    Parameters
    ----------
    label:
        Human-readable name (shows up in instrumentation and errors).
    shape:
        Dimensions of the view.  An integer means a 1-D view.
    dtype:
        NumPy dtype; the paper reports all results in double precision,
        so the default is ``float64``.
    layout:
        :data:`LayoutRight` (C order) or :data:`LayoutLeft` (Fortran).
    space:
        Memory space the allocation lives in.
    data:
        Optional existing ndarray to wrap (it is used as-is when its
        order matches the layout, otherwise copied).
    """

    __slots__ = ("label", "space", "layout", "_array", "_host_ok")

    def __init__(
        self,
        label: str,
        shape: Optional[ShapeLike] = None,
        dtype=np.float64,
        layout: Layout = LayoutRight,
        space: MemorySpace = HostSpace,
        data: Optional[np.ndarray] = None,
    ) -> None:
        self.label = label
        self.space = space
        self.layout = layout
        # memory space is fixed for the view's lifetime, so the access
        # policing in ``data`` can branch on one cached bool (the hot
        # apply bodies read ``.data`` tens of thousands of times a step)
        self._host_ok = space.host_accessible
        if data is not None:
            arr = np.asarray(data, dtype=dtype if dtype is not None else None)
            order = layout.numpy_order
            if not _matches_order(arr, order):
                arr = np.array(arr, order=order)  # copy into requested layout
            self._array = arr
        else:
            if shape is None:
                raise ValueError(f"View {label!r}: need shape or data")
            if isinstance(shape, (int, np.integer)):
                shape = (int(shape),)
            self._array = np.zeros(tuple(int(s) for s in shape), dtype=dtype,
                                   order=layout.numpy_order)

    # -- metadata ----------------------------------------------------------

    @property
    def shape(self) -> Tuple[int, ...]:
        return self._array.shape

    @property
    def ndim(self) -> int:
        return self._array.ndim

    @property
    def size(self) -> int:
        return self._array.size

    @property
    def dtype(self):
        return self._array.dtype

    @property
    def nbytes(self) -> int:
        return self._array.nbytes

    def extent(self, dim: int) -> int:
        """Kokkos-style extent query."""
        return self._array.shape[dim]

    # -- data access -------------------------------------------------------

    def _check_access(self) -> None:
        if not self.space.host_accessible and not _in_kernel():
            raise MemorySpaceError(
                f"View {self.label!r} lives in {self.space.name} space and is "
                "not host accessible; use create_mirror_view()/deep_copy() or "
                "access it inside a kernel"
            )

    @property
    def data(self) -> np.ndarray:
        """The underlying ndarray (the paper's ``View.data`` interface).

        Access is policed by memory space: device views raise
        :class:`MemorySpaceError` outside kernel execution.
        """
        if self._host_ok:
            return self._array
        self._check_access()
        return self._array

    @property
    def raw(self) -> np.ndarray:
        """Unpoliced buffer access, for backends and deep_copy only."""
        return self._array

    def __getitem__(self, idx):
        self._check_access()
        return self._array[idx]

    def __setitem__(self, idx, value) -> None:
        self._check_access()
        self._array[idx] = value

    def fill(self, value) -> None:
        """Set every element to ``value`` (host-policed)."""
        self._check_access()
        self._array[...] = value

    def __array__(self, dtype=None, copy=None):
        self._check_access()
        if dtype is not None:
            return self._array.astype(dtype)
        return self._array

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"View({self.label!r}, shape={self.shape}, dtype={self.dtype}, "
            f"layout={self.layout.name}, space={self.space.name})"
        )


def _matches_order(arr: np.ndarray, order: str) -> bool:
    if arr.ndim <= 1:
        return arr.flags["C_CONTIGUOUS"] or arr.flags["F_CONTIGUOUS"]
    if order == "C":
        return arr.flags["C_CONTIGUOUS"]
    return arr.flags["F_CONTIGUOUS"]


def create_mirror_view(view: View, space: MemorySpace = HostSpace) -> View:
    """Return a view of the same shape in ``space``.

    Like Kokkos, when ``view`` is already in a compatible (host-accessible
    vs not) space the same view is returned — no allocation, no copy.
    Otherwise a fresh, *uninitialised-by-copy* view is created; pair it
    with :func:`deep_copy`.
    """
    if view.space.host_accessible == space.host_accessible:
        return view
    return View(
        f"{view.label}_mirror",
        shape=view.shape,
        dtype=view.dtype,
        layout=view.layout,
        space=space,
    )


def deep_copy(
    dst: View,
    src: Union[View, np.ndarray, float, int],
    inst: Optional[Instrumentation] = None,
) -> None:
    """Copy ``src`` into ``dst``, honouring memory spaces.

    Copies that cross the host/device boundary are recorded in
    ``inst``'s transfer ledger as H2D or D2H traffic (a copy made with
    no ledger is not counted anywhere).
    """
    ledger = inst.transfers if inst is not None else TransferLedger()
    if isinstance(src, View):
        if dst.shape != src.shape:
            raise ValueError(
                f"deep_copy shape mismatch: {dst.label}{dst.shape} <- "
                f"{src.label}{src.shape}"
            )
        dst.raw[...] = src.raw
        if dst.space.host_accessible and not src.space.host_accessible:
            ledger.record_d2h(src.nbytes)
        elif src.space.host_accessible and not dst.space.host_accessible:
            ledger.record_h2d(dst.nbytes)
    elif isinstance(src, np.ndarray):
        dst.raw[...] = src
        if not dst.space.host_accessible:
            ledger.record_h2d(dst.nbytes)
    else:  # scalar fill, like Kokkos' deep_copy(view, value)
        dst.raw[...] = src


def subview(view: View, *slices) -> View:
    """A non-owning slice of ``view`` sharing the same buffer and space."""
    out = View.__new__(View)
    out.label = f"{view.label}_sub"
    out.space = view.space
    out.layout = view.layout
    out._host_ok = view.space.host_accessible
    out._array = view.raw[slices if len(slices) != 1 else slices[0]]
    return out
