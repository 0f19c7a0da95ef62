"""``repro.kokkos`` — the performance-portability layer.

A Python analog of Kokkos as extended by the paper: views with layouts
and memory spaces, range/MD-range policies, dispatch on an execution
space, and — this work's contribution — an Athread backend for the
Sunway SW26010 Pro built on functor registration + callback dispatch,
LDM tiling (Eq. 1–2) and DMA accounting.

Typical use::

    from repro import kokkos as kk

    space = kk.make_backend("athread")
    x = kk.View("x", 1000)
    y = kk.View("y", 1000)

    @kk.kokkos_register_for("my_axpy", ndim=1)
    class AXPY:
        flops_per_point = 2.0
        bytes_per_point = 24.0
        def __init__(self, a, x, y):
            self.a, self.x, self.y = a, x, y
        def __call__(self, i):
            self.y[i] = self.a * self.x[i] + self.y[i]
        def apply(self, slices):
            s, = slices
            self.y.data[s] += self.a * self.x.data[s]

    space.parallel_for("axpy", kk.RangePolicy(0, 1000), AXPY(2.0, x, y))
    print(space.inst.report())
"""

from .spaces import (
    DeviceSpace,
    HostSpace,
    LDMSpace,
    Layout,
    LayoutLeft,
    LayoutRight,
    MemorySpace,
)
from .view import (
    View,
    create_mirror_view,
    deep_copy,
    kernel_context,
    subview,
)
from .policy import MDRangePolicy, RangePolicy, iter_tiles, tiles_per_cpe, total_tiles
from .functor import (
    Functor,
    kokkos_register_for,
    kokkos_register_reduce,
    register_functor_instance,
)
from .registry import (
    DictRegistry,
    RegistryEntry,
    default_registry,
)
from .backends import (
    AthreadBackend,
    DeviceBackend,
    ExecutionSpace,
    Max,
    Min,
    OpenMPBackend,
    Prod,
    Reducer,
    SerialBackend,
    Sum,
    make_backend,
)
from .graph import (
    ExchangeNode,
    FusedTileFunctor,
    KernelNode,
    LaunchGraph,
    PhaseNode,
)
from .instrument import (
    Instrumentation,
    KernelStats,
    WorkspaceStats,
)
from .workspace import Workspace
from .context import ExecutionContext
from .ldm import DMAEngine, LDMAllocator, SW26010_LDM_BYTES, double_buffered_time

__all__ = [
    # spaces / layout
    "MemorySpace", "HostSpace", "DeviceSpace", "LDMSpace",
    "Layout", "LayoutLeft", "LayoutRight",
    # views
    "View", "create_mirror_view", "deep_copy",
    "subview", "kernel_context",
    # policies
    "RangePolicy", "MDRangePolicy", "iter_tiles", "total_tiles", "tiles_per_cpe",
    # functors / registry
    "Functor", "kokkos_register_for", "kokkos_register_reduce",
    "register_functor_instance",
    "DictRegistry", "RegistryEntry", "default_registry",
    # execution contexts
    "ExecutionContext",
    # backends
    "ExecutionSpace", "SerialBackend", "OpenMPBackend", "AthreadBackend",
    "DeviceBackend", "make_backend", "Reducer", "Sum", "Prod", "Min", "Max",
    # graph capture / workspace arena
    "LaunchGraph", "KernelNode", "ExchangeNode",
    "PhaseNode", "FusedTileFunctor", "Workspace",
    # instrumentation / ldm
    "Instrumentation", "KernelStats", "WorkspaceStats",
    "LDMAllocator", "DMAEngine", "SW26010_LDM_BYTES", "double_buffered_time",
]
