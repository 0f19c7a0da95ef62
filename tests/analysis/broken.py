"""Deliberately broken mini-functors — one golden example per rule family.

Each class violates exactly one kernelcheck rule; everything else about
it (cost declarations, stencil declarations, write patterns) is honest,
so the golden tests can assert that the verifier reports *exactly* the
intended finding and nothing else.  These are never registered with the
global registry — the tests bind them to small views and observe one
sweep directly.
"""

from __future__ import annotations

from repro.kokkos import View


class ScatterWriteFunctor:
    """race-write: the store row comes from data, not the loop indices.

    Two (j, i) iterations can land on the same output cell, which races
    on any concurrent backend even though serial execution "works".
    """

    flops_per_point = 0.0
    bytes_per_point = 2 * 8.0

    def __init__(self, idx: View, out: View) -> None:
        self.idx = idx
        self.out = out

    def __call__(self, j: int, i: int) -> None:
        self.out.data[self.idx.data[j, i], i] = 1.0


class HaloOverrunFunctor:
    """halo-overrun: reads +-2 neighbours but declares a +-1 stencil."""

    flops_per_point = 0.0
    bytes_per_point = 2 * 8.0
    stencil_halo = 1

    def __init__(self, f: View, out: View) -> None:
        self.f = f
        self.out = out

    def apply(self, slices) -> None:
        sj, si = slices
        self.out.data[sj, si] = self.f.data[sj, slice(si.start + 2, si.stop + 2)]

    def __call__(self, j: int, i: int) -> None:
        self.apply((slice(j, j + 1), slice(i, i + 1)))


class HostDerefFunctor:
    """memory-space: dereferences a view outside any kernel body.

    ``peek`` runs on the host; on a device backend ``self.out`` lives in
    DeviceSpace and the load reads unpoliced (and possibly stale) data.
    """

    flops_per_point = 1.0
    bytes_per_point = 2 * 8.0

    def __init__(self, f: View, out: View) -> None:
        self.f = f
        self.out = out

    def apply(self, slices) -> None:
        sj, si = slices
        self.out.data[sj, si] = self.f.data[sj, si] * 2.0

    def peek(self) -> float:
        return float(self.out.data[0, 0])


class RawInKernelFunctor:
    """memory-space: bypasses the space policing with ``.raw`` in the body."""

    flops_per_point = 1.0
    bytes_per_point = 2 * 8.0

    def __init__(self, f: View, out: View) -> None:
        self.f = f
        self.out = out

    def apply(self, slices) -> None:
        sj, si = slices
        self.out.data[sj, si] = self.f.raw[sj, si] * 2.0


class DishonestFlopsFunctor:
    """cost-drift: declares 40 flops/point for a one-add body."""

    flops_per_point = 40.0
    bytes_per_point = 3 * 8.0

    def __init__(self, a: View, b: View, out: View) -> None:
        self.a = a
        self.b = b
        self.out = out

    def apply(self, slices) -> None:
        sj, si = slices
        self.out.data[sj, si] = self.a.data[sj, si] + self.b.data[sj, si]


class DishonestBytesFunctor:
    """cost-drift: touches five arrays but declares two arrays' bytes."""

    flops_per_point = 3.0
    bytes_per_point = 2 * 8.0

    def __init__(self, a: View, b: View, c: View, d: View, out: View) -> None:
        self.a = a
        self.b = b
        self.c = c
        self.d = d
        self.out = out

    def apply(self, slices) -> None:
        sj, si = slices
        self.out.data[sj, si] = (self.a.data[sj, si] + self.b.data[sj, si]
                                 + self.c.data[sj, si] + self.d.data[sj, si])


class AliasHazardFunctor:
    """alias-hazard: reads a shifted neighbour after updating the view.

    The vectorised ``apply`` sees the *old* west neighbour, a pointwise
    sweep sees the freshly written one — the two bodies diverge.
    """

    flops_per_point = 2.0
    bytes_per_point = 2 * 8.0
    stencil_halo = 1

    def __init__(self, f: View, out: View) -> None:
        self.f = f
        self.out = out

    def apply(self, slices) -> None:
        sj, si = slices
        self.f.data[sj, si] = self.f.data[sj, si] * 0.5
        self.out.data[sj, si] = self.f.data[sj, slice(si.start - 1, si.stop - 1)] + 1.0


class CleanFunctor:
    """Control: honest declarations, origin-only accesses, no findings."""

    flops_per_point = 1.0
    bytes_per_point = 3 * 8.0

    def __init__(self, a: View, b: View, out: View) -> None:
        self.a = a
        self.b = b
        self.out = out

    def apply(self, slices) -> None:
        sj, si = slices
        self.out.data[sj, si] = self.a.data[sj, si] + self.b.data[sj, si]
