"""Mini-functors for seeding deliberately broken launch graphs.

The graphcheck golden tests (``test_graphcheck.py``) assemble these
into small :class:`~repro.kokkos.graph.LaunchGraph` schedules that each
violate exactly one graphcheck rule family — a stale-halo read, a
redundant exchange, a dead store, a silent precision promotion — so
the tests can assert the verifier reports *exactly* the
intended finding.  The bodies themselves are honest (kernelcheck-clean);
only the *schedules* built from them are broken.
"""

from __future__ import annotations

from repro.kokkos import View


class PointCopyFunctor:
    """Point-local full-tile copy: ``out[j, i] = f[j, i]``."""

    flops_per_point = 0.0
    bytes_per_point = 2 * 8.0

    def __init__(self, f: View, out: View) -> None:
        self.f = f
        self.out = out

    def apply(self, slices) -> None:
        sj, si = slices
        self.out.data[sj, si] = self.f.data[sj, si]

    def __call__(self, j: int, i: int) -> None:
        self.apply((slice(j, j + 1), slice(i, i + 1)))


class ColumnCopyFunctor:
    """Point-local copy of whole columns: ``out[:, j, i] = f[:, j, i]``."""

    flops_per_point = 0.0
    bytes_per_point = 2 * 8.0

    def __init__(self, f: View, out: View) -> None:
        self.f = f
        self.out = out

    def apply(self, slices) -> None:
        sj, si = slices
        self.out.data[:, sj, si] = self.f.data[:, sj, si]

    def __call__(self, j: int, i: int) -> None:
        self.apply((slice(j, j + 1), slice(i, i + 1)))


class WestReadFunctor:
    """One-wide stencil: ``out[j, i] = f[j, i-1] + 1`` (reads the ring)."""

    flops_per_point = 1.0
    bytes_per_point = 2 * 8.0
    stencil_halo = 1

    def __init__(self, f: View, out: View) -> None:
        self.f = f
        self.out = out

    def apply(self, slices) -> None:
        sj, si = slices
        self.out.data[sj, si] = \
            self.f.data[sj, slice(si.start - 1, si.stop - 1)] + 1.0

    def __call__(self, j: int, i: int) -> None:
        self.apply((slice(j, j + 1), slice(i, i + 1)))


class AccumulateFunctor:
    """Point-local accumulate: ``out[j, i] += f[j, i]`` (reads its output)."""

    flops_per_point = 1.0
    bytes_per_point = 3 * 8.0

    def __init__(self, f: View, out: View) -> None:
        self.f = f
        self.out = out

    def apply(self, slices) -> None:
        sj, si = slices
        self.out.data[sj, si] = self.out.data[sj, si] + self.f.data[sj, si]

    def __call__(self, j: int, i: int) -> None:
        self.apply((slice(j, j + 1), slice(i, i + 1)))
