"""Property: no kernel body depends on how its range is cut into tiles.

An Athread launch runs its body once over the whole range and charges
the tile schedule as bookkeeping, so nothing on the step path cuts a
range any more.  What the tiled sweep used to exercise is kept here:
for every kernel part of the ``tiny`` lint matrix, sweeping ``apply``
tile by tile over Athread's own ``choose_tile`` schedule must leave the
same bytes in every array the part binds as one whole-range sweep.
"""

import numpy as np

from repro.analysis.runner import lint_matrix
from repro.kokkos import AthreadBackend, MDRangePolicy, View, kernel_context
from repro.kokkos.graph import KernelNode
from repro.kokkos.policy import iter_tiles, total_tiles


def tile_mismatches(functor, ranges, arrays):
    """Names in ``arrays`` whose bytes differ between a tile-by-tile
    sweep over Athread's default tiles and one whole-range sweep, and
    the tile count.  The arrays are left as the whole-range sweep
    leaves them."""
    policy = MDRangePolicy(ranges)
    tile = AthreadBackend().choose_tile(policy, functor)
    start = {n: a.copy() for n, a in arrays.items()}
    with kernel_context(), np.errstate(all="ignore"):
        for slices in iter_tiles(ranges, tile):
            functor.apply(slices)
        tiled = {n: a.tobytes() for n, a in arrays.items()}
        for n, a in arrays.items():
            a[...] = start[n]
        functor.apply(tuple(slice(b, e) for b, e in ranges))
    bad = [n for n, a in arrays.items() if a.tobytes() != tiled[n]]
    return bad, total_tiles(policy.extents, tile)


def _bound_arrays(obs):
    out = {}
    for name, b in obs.bound.items():
        arr = b.obj.raw if isinstance(b.obj, View) else b.obj
        if isinstance(arr, np.ndarray) and arr.flags.writeable:
            out[name] = arr
    return out


def test_every_matrix_part_sweeps_the_same_tiled_and_whole():
    # parts run in schedule order, so each sees the state its
    # predecessors leave (the FCT apply reads the flux its limiter
    # stored); the matrix's buffers are restored afterwards
    seen, tiled, bad = set(), 0, []
    for case in lint_matrix():
        for graph in case.graphs:
            parts = [(functor, case.observations[
                        (id(functor), tuple(map(tuple, node.policy.ranges)),
                         label)][1])
                     for node in graph.nodes if isinstance(node, KernelNode)
                     for label, functor in node.parts()]
            held = {id(a): (a, a.copy()) for _, obs in parts
                    for a in _bound_arrays(obs).values()}
            try:
                for functor, obs in parts:
                    if obs.body != "apply":
                        continue
                    diff, ntiles = tile_mismatches(functor, obs.ranges,
                                                   _bound_arrays(obs))
                    if id(functor) not in seen:
                        seen.add(id(functor))
                        tiled += ntiles > 1
                    bad += [(case.tag, obs.label, n) for n in diff]
            finally:
                for a, copy in held.values():
                    a[...] = copy
    assert bad == []
    # every configuration's parts, each cut into many tiles
    assert len(seen) >= 100 and tiled == len(seen)


class RunningSum:
    """A planted tile-order dependence: each tile restarts the sum."""

    bytes_per_point = 16.0

    def __init__(self, x: View) -> None:
        self.x = x

    def apply(self, slices) -> None:
        sj, si = slices
        self.x.data[sj, si] = np.cumsum(self.x.data[sj, si], axis=1)


def test_a_planted_tile_order_dependence_is_caught():
    x = View("x", data=np.random.default_rng(5).normal(size=(8, 64)))
    diff, ntiles = tile_mismatches(RunningSum(x), ((0, 8), (0, 64)),
                                   {"x": x.raw})
    assert ntiles > 1 and diff == ["x"]
