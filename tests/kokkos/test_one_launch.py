"""One launch path: an eager launch is its backend's plan, run once.

On every backend, three eager ``parallel_for`` calls and three replays
of a sealed one-launch graph must leave the same bytes in the output
and the same ledgers, compared with ``==``: the kernel counters, the
device's launch count, and on Athread the DMA volumes and descriptor
counts, the per-CPE LDM high water and the tile distribution.  The
shape is one whose per-tile DMA sizes do not sum exactly in floating
point, so a path that added them in a different order would show.
"""

import numpy as np
import pytest

from repro.kokkos import (
    DeviceSpace,
    HostSpace,
    Instrumentation,
    MDRangePolicy,
    View,
    kokkos_register_for,
    make_backend,
)
from repro.kokkos.graph import LaunchGraph
from repro.kokkos.view import kernel_context

LAUNCHES = 3
SHAPE = (7, 39, 55)
RANGES = [(0, 7), (1, 38), (1, 54)]   # 7 x 37 x 53 points


@kokkos_register_for("one_launch_relax", ndim=3)
class Relax:
    """y = y / 2 + (x[i-1] + x[i+1]) / 4: a halo-1 stencil, 16 B/point."""

    flops_per_point = 4.0
    bytes_per_point = 16.0
    stencil_halo = 1

    def __init__(self, x: View, y: View) -> None:
        self.x, self.y = x, y

    def apply(self, slices) -> None:
        sk, sj, si = slices
        x, y = self.x.data, self.y.data
        y[sk, sj, si] = 0.5 * y[sk, sj, si] + 0.25 * (
            x[sk, sj, si.start - 1:si.stop - 1]
            + x[sk, sj, si.start + 1:si.stop + 1])


BACKENDS = {
    "serial": lambda inst: make_backend("serial", inst=inst),
    "openmp": lambda inst: make_backend("openmp", threads=2, inst=inst),
    "cuda": lambda inst: make_backend("cuda", inst=inst),
    "athread": lambda inst: make_backend("athread", inst=inst),
}


def _run(backend: str, graph: bool):
    space = BACKENDS[backend](Instrumentation())
    mem = DeviceSpace if backend == "cuda" else HostSpace
    rng = np.random.default_rng(44)
    x = View("x", data=rng.normal(size=SHAPE), space=mem)
    y = View("y", data=rng.normal(size=SHAPE), space=mem)
    policy = MDRangePolicy(RANGES)
    functor = Relax(x, y)
    try:
        if graph:
            g = LaunchGraph(space)
            g.add_kernel("relax", policy, functor)
            g.seal()
            for _ in range(LAUNCHES):
                g.replay()
        else:
            for _ in range(LAUNCHES):
                space.parallel_for("relax", policy, functor)
    finally:
        if backend == "openmp":
            space.shutdown()
    stats = space.inst.kernels["relax"]
    ledger = {"kernel": (stats.launches, stats.tiles, stats.points,
                         stats.flops, stats.bytes)}
    if backend == "cuda":
        ledger["kernel_launches"] = space.inst.total_launches
    if backend == "athread":
        d = space.inst.transfers
        ledger["dma"] = (d.dma_get_bytes, d.dma_put_bytes, d.dma_get_count,
                         d.dma_put_count)
        ledger["ldm"] = [a.high_water for a in space.ldm]
        ledger["distribution"] = space.last_distribution
    with kernel_context():
        out = y.data.tobytes()
    return out, ledger


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_eager_launches_and_replays_leave_the_same_bytes_and_ledgers(backend):
    eager_out, eager = _run(backend, graph=False)
    replay_out, replay = _run(backend, graph=True)
    assert eager["kernel"][0] == LAUNCHES
    assert eager_out == replay_out
    assert eager == replay
