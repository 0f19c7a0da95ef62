"""The sweep behind sealed launch plans (``repro.kokkos.jit``).

Covers the bound sweep's bitwise identity against eager dispatch, the
unchanged athread ledger, ``View.rebind`` visibility through a bound
sweep, and the empty-range short-circuits in the reference sweeps.
Model-level identity is in ``tests/ocean/test_graph_replay.py``.
"""

import numpy as np

from repro.kokkos import (
    AthreadBackend,
    Instrumentation,
    MDRangePolicy,
    SerialBackend,
    View,
    kokkos_register_for,
)
from repro.kokkos.functor import _loop_elementwise, _recurse_for
from repro.kokkos.graph import LaunchGraph


@kokkos_register_for("jittest_scale", ndim=2)
class ScaleFunctor:
    flops_per_point = 1.0
    bytes_per_point = 16.0
    stencil_halo = 0

    def __init__(self, x: View, a: float) -> None:
        self.x = x
        self.a = a

    def __call__(self, j: int, i: int) -> None:
        self.x.data[j, i] *= self.a

    def apply(self, slices) -> None:
        self.x.data[tuple(slices)] *= self.a


class TestCodegenTier:
    def test_serial_sweep_bitwise_identical(self):
        start = np.random.default_rng(5).normal(size=(6, 7))
        ref = start.copy()
        ref[1:5, 0:6] *= 3.0
        be = SerialBackend(inst=Instrumentation())
        x = View("x", data=start.copy())
        pol = MDRangePolicy([(1, 5), (0, 6)])
        g = LaunchGraph(be)
        g.add_kernel("scale", pol, ScaleFunctor(x, 3.0))
        g.seal()
        assert g.kernel_tiers() == [("scale", "codegen")]
        g.replay()
        np.testing.assert_array_equal(x.data, ref)

    def test_athread_compiled_ledger_matches_eager(self):
        # the sealed sweep replaces only the tile loop: DMA descriptor
        # counts, volumes and the LDM high water must not move
        start = np.random.default_rng(9).normal(size=(32, 48))
        results = {}
        for sealed in (False, True):
            be = AthreadBackend(inst=Instrumentation())
            x = View("x", data=start.copy())
            pol = MDRangePolicy([(0, 32), (0, 48)])
            if sealed:
                g = LaunchGraph(be)
                g.add_kernel("scale", pol, ScaleFunctor(x, 1.5))
                g.seal()
                g.replay()
            else:
                be.parallel_for("scale", pol, ScaleFunctor(x, 1.5))
            results[sealed] = (
                x.data.copy(), be.dma.get_count, be.dma.put_count,
                be.dma.get_bytes, be.dma.put_bytes, be.ldm_high_water(),
                be.last_distribution,
            )
        eager, swept = results[False], results[True]
        np.testing.assert_array_equal(eager[0], swept[0])
        assert eager[1:] == swept[1:]

    def test_rebind_survives_compilation(self):
        # the sweep closes over Views, not buffers: leapfrog rotation
        # via View.rebind must be visible to the bound sweep
        be = SerialBackend(inst=Instrumentation())
        a = np.ones((4, 4))
        b = np.full((4, 4), 2.0)
        x = View("x", data=a)
        g = LaunchGraph(be)
        g.add_kernel("scale", MDRangePolicy([(0, 4), (0, 4)]),
                     ScaleFunctor(x, 10.0))
        g.seal()
        g.replay()
        np.testing.assert_array_equal(a, np.full((4, 4), 10.0))
        x.rebind(b)
        g.replay()
        np.testing.assert_array_equal(b, np.full((4, 4), 20.0))


class TestEmptyRangeShortCircuit:
    class Exploding:
        def __call__(self, *idx):
            raise AssertionError("functor invoked for an empty range")

    def test_loop_elementwise_skips_empty_inner(self):
        # a huge outer range over an empty inner one must return without
        # iterating the outer range at all
        _loop_elementwise(self.Exploding(),
                          (slice(0, 10**9), slice(3, 3)))

    def test_recurse_for_skips_empty_head(self):
        _recurse_for(self.Exploding(), (slice(5, 2), slice(0, 4)), ())

    def test_parallel_for_empty_policy_runs_no_body(self):
        be = SerialBackend(inst=Instrumentation())
        x = View("x", data=np.ones((4, 0)))
        be.parallel_for("scale", MDRangePolicy([(0, 4), (0, 0)]),
                        ScaleFunctor(x, 2.0))
