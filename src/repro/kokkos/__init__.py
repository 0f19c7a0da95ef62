"""``repro.kokkos`` — the performance-portability layer.

A Python analog of Kokkos as extended by the paper: views with layouts
and memory spaces, range/MD-range policies, parallel dispatch, and —
this work's contribution — an Athread backend for the Sunway SW26010 Pro
built on functor registration + callback dispatch, LDM tiling (Eq. 1–2)
and DMA accounting.

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

    kk.parallel_for("axpy", kk.RangePolicy(0, 1000), AXPY(2.0, x, y), space)
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
from .dualview import DualView
from .view import (
    View,
    create_device_view,
    create_mirror_view,
    deep_copy,
    kernel_context,
    subview,
)
from .policy import MDRangePolicy, RangePolicy, iter_tiles, tiles_per_cpe, total_tiles
from .team import TeamMember, TeamPolicy, parallel_for_team, parallel_reduce_team
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
    RotateNode,
)
from .instrument import (
    Instrumentation,
    KernelStats,
    WorkspaceStats,
)
from .workspace import Workspace
from .context import ExecutionContext
from .ldm import DMAEngine, LDMAllocator, SW26010_LDM_BYTES, double_buffered_time
from .parallel import fence, parallel_for, parallel_reduce, parallel_scan

__all__ = [
    # spaces / layout
    "MemorySpace", "HostSpace", "DeviceSpace", "LDMSpace",
    "Layout", "LayoutLeft", "LayoutRight",
    # views
    "View", "DualView", "create_mirror_view", "create_device_view", "deep_copy",
    "subview", "kernel_context",
    # policies
    "RangePolicy", "MDRangePolicy", "iter_tiles", "total_tiles", "tiles_per_cpe",
    "TeamPolicy", "TeamMember", "parallel_for_team", "parallel_reduce_team",
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
    "LaunchGraph", "KernelNode", "ExchangeNode", "RotateNode",
    "FusedTileFunctor", "Workspace",
    # instrumentation / ldm
    "Instrumentation", "KernelStats", "WorkspaceStats",
    "LDMAllocator", "DMAEngine", "SW26010_LDM_BYTES", "double_buffered_time",
    # dispatch
    "parallel_for", "parallel_reduce", "parallel_scan", "fence",
]
