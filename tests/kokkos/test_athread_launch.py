"""One Athread launch: one callback over the whole range, one tile ledger.

A ``parallel_for`` on the Athread backend, eager or replayed from a
sealed graph, calls the functor's registered callback exactly once,
with the full range, and charges the launch's tile schedule.  The
ledger it leaves — DMA get/put bytes and descriptor counts, per-CPE LDM
high water, the Eq. 1–2 distribution and ``KernelStats.tiles`` — must
equal a reference written out here tile by tile: each launch adds its
tiles' sizes summed in tile order, so the DMA floats match bit for bit.
A launch that fails (a tile that does not fit, a body that raises)
ledgers nothing, eager or replayed.
"""

import math

import numpy as np
import pytest

from repro.errors import LDMError
from repro.kokkos import (
    AthreadBackend,
    FusedTileFunctor,
    Instrumentation,
    MDRangePolicy,
    SerialBackend,
    View,
    kokkos_register_for,
)
from repro.kokkos.backends.base import functor_cost, staging_split
from repro.kokkos.graph import LaunchGraph
from repro.kokkos.ldm import haloed_tile_points
from repro.kokkos.policy import iter_tiles, tiles_per_cpe, total_tiles
from repro.kokkos.registry import DictRegistry
from repro.trace import Tracer


class Ring2D:
    """out = x + x shifted by +-h along both horizontal axes."""

    flops_per_point = 4.0
    bytes_per_point = 16.0

    def __init__(self, x: View, out: View, h: int) -> None:
        self.x, self.out, self.stencil_halo = x, out, h

    def apply(self, slices) -> None:
        sj, si = slices
        h, x = self.stencil_halo, self.x.data
        self.out.data[sj, si] = (
            x[sj, si] + x[sj.start - h:sj.stop - h, si]
            + x[sj, si.start + h:si.stop + h] * 0.5)


class Ring3D:
    """A 3-D stencil with an explicit bytes in/out split."""

    flops_per_point = 3.0
    bytes_per_point = 24.0
    bytes_in_per_point = 20.0
    bytes_out_per_point = 4.0

    def __init__(self, x: View, out: View, h: int) -> None:
        self.x, self.out, self.stencil_halo = x, out, h

    def apply(self, slices) -> None:
        sk, sj, si = slices
        h, x = self.stencil_halo, self.x.data
        self.out.data[sk, sj, si] = (
            x[sk, sj, si] * 2.0 - x[sk, sj, si.start - h:si.stop - h])


class Scale3D:
    """x *= a (point-local)."""

    flops_per_point = 1.0
    bytes_per_point = 16.0

    def __init__(self, x: View, a: float) -> None:
        self.x, self.a = x, a

    def apply(self, slices) -> None:
        self.x.data[tuple(slices)] *= self.a


class Raises:
    bytes_per_point = 8.0

    def __init__(self, x: View) -> None:
        self.x = x

    def apply(self, slices) -> None:
        raise RuntimeError("body failed")


def _registry():
    """A private registration table whose callbacks log their ranges."""
    reg = DictRegistry()
    calls = []
    for name, ftype in (("t_ring2d", Ring2D), ("t_ring3d", Ring3D),
                        ("t_scale3d", Scale3D), ("t_raises", Raises),
                        ("fused_launch", FusedTileFunctor)):
        kokkos_register_for(name, ndim=3, registry=reg)(ftype)
        entry = reg.lookup(ftype)

        def spy(functor, slices, _inner=entry.callback):
            calls.append((type(functor).__name__, tuple(slices)))
            _inner(functor, slices)

        entry.callback = spy
    return reg, calls


def _reference(be: AthreadBackend, policy: MDRangePolicy, functor, tile,
               launches: int = 1):
    """The ledger ``launches`` launches leave: per launch, its tiles'
    sizes summed in tile order, added once."""
    halo = functor.stencil_halo
    _, bpp = functor_cost(functor)
    bpp_in, bpp_out = staging_split(functor)
    get_bytes = put_bytes = 0.0
    count = 0
    peaks = [0] * be.num_cpes
    for _ in range(launches):
        launch_get = launch_put = 0.0
        for tidx, slices in enumerate(iter_tiles(policy.ranges, tile)):
            lens = [s.stop - s.start for s in slices]
            staged = haloed_tile_points(lens, halo)
            launch_get += staged * bpp_in
            launch_put += math.prod(lens) * bpp_out
            count += 1
            cpe = tidx % be.num_cpes
            peaks[cpe] = max(peaks[cpe], int(staged * bpp))
        get_bytes += launch_get
        put_bytes += launch_put
    ntiles = total_tiles(policy.extents, tile)
    assert ntiles * launches == count
    return dict(dma=(get_bytes, put_bytes, count, count), peaks=peaks,
                distribution=(ntiles, tiles_per_cpe(ntiles, be.num_cpes)),
                tiles=count)


def _ledger(be: AthreadBackend, label: str):
    d = be.inst.transfers
    stats = be.inst.kernels.get(label)
    return dict(dma=(d.dma_get_bytes, d.dma_put_bytes, d.dma_get_count,
                     d.dma_put_count),
                peaks=[a.high_water for a in be.ldm],
                distribution=be.last_distribution,
                tiles=stats.tiles if stats else 0)


def _case(ndim: int, halo: int):
    """(input view, launch ranges, stencil functor maker)."""
    rng = np.random.default_rng(7 + 10 * ndim + halo)
    if ndim == 2:
        x = View("x", data=rng.normal(size=(40, 56)))
        ranges = [(2, 38), (2, 54)]
        make = lambda x, out: Ring2D(x, out, halo)  # noqa: E731
    else:
        x = View("x", data=rng.normal(size=(5, 20, 36)))
        ranges = [(0, 5), (2, 18), (2, 34)]
        make = lambda x, out: Ring3D(x, out, halo)  # noqa: E731
    return x, ranges, make


TILES = {2: (8, 12), 3: (2, 5, 7)}


def _every_shape(test):
    """Parametrize over 2-D/3-D, halo 0-2, chosen/explicit tile and
    double/single buffering."""
    for name, values in (("ndim", [2, 3]), ("halo", [0, 1, 2]),
                         ("explicit", [False, True]),
                         ("double_buffer", [True, False])):
        test = pytest.mark.parametrize(name, values)(test)
    return test


def _launch_twice(ndim, halo, explicit, double_buffer, graph):
    x, ranges, make = _case(ndim, halo)
    policy = MDRangePolicy(ranges, tile=TILES[ndim] if explicit else None)
    reg, calls = _registry()
    be = AthreadBackend(registry=reg, double_buffer=double_buffer,
                        inst=Instrumentation())
    out = View("out", data=np.zeros_like(x.data))
    functor = make(x, out)
    tile = be.choose_tile(policy, functor)
    if explicit:
        assert tile == TILES[ndim]
    else:
        assert total_tiles(policy.extents, tile) > 1
    if graph:
        g = LaunchGraph(be)
        g.add_kernel("k", policy, functor)
        g.seal()
    assert calls == []
    for launch in (1, 2):
        # the second launch adds its schedule's totals onto the first's
        if graph:
            g.replay()
        else:
            be.parallel_for("k", policy, functor)
        assert calls == [(type(functor).__name__,
                          tuple(slice(b, e) for b, e in ranges))] * launch
        assert _ledger(be, "k") == _reference(be, policy, functor, tile, launch)
    expect = np.zeros_like(x.data)
    SerialBackend().parallel_for("k", policy, make(x, View("r", data=expect)))
    assert out.data.tobytes() == expect.tobytes()


@_every_shape
def test_eager_launch_is_one_callback_and_the_tile_ledger(
        ndim, halo, explicit, double_buffer):
    _launch_twice(ndim, halo, explicit, double_buffer, graph=False)


@_every_shape
def test_replayed_launch_is_one_callback_and_the_tile_ledger(
        ndim, halo, explicit, double_buffer):
    # a sealed plan binds the registered callback: the §V-B dispatch
    _launch_twice(ndim, halo, explicit, double_buffer, graph=True)


def test_fused_composite_is_one_callback_over_its_parts():
    _, ranges, _ = _case(3, 2)
    rng = np.random.default_rng(11)
    start = rng.normal(size=(5, 20, 36))
    policy = MDRangePolicy(ranges)

    def parts(x, out):
        # a dependent chain: the stencil reads what the scale wrote
        return [Scale3D(x, 1.5), Ring3D(x, out, 2), Scale3D(out, -0.25)]

    ref_x, ref_out = View("x", data=start.copy()), View("o", data=np.zeros_like(start))
    serial = SerialBackend()
    for i, part in enumerate(parts(ref_x, ref_out)):
        serial.parallel_for(f"p{i}", policy, part)

    reg, calls = _registry()
    be = AthreadBackend(registry=reg, inst=Instrumentation())
    x, out = View("x", data=start.copy()), View("o", data=np.zeros_like(start))
    fused = FusedTileFunctor(parts(x, out), ["p0", "p1", "p2"])
    assert fused.stencil_halo == 2
    be.parallel_for("fused", policy, fused)
    assert calls == [("FusedTileFunctor",
                      tuple(slice(b, e) for b, e in ranges))]
    assert x.data.tobytes() == ref_x.data.tobytes()
    assert out.data.tobytes() == ref_out.data.tobytes()
    tile = be.choose_tile(policy, fused)
    assert total_tiles(policy.extents, tile) > 1
    assert _ledger(be, "fused") == _reference(be, policy, fused, tile)


def test_unfit_explicit_tile_raises_before_any_write_and_ledgers_nothing():
    reg, calls = _registry()
    be = AthreadBackend(registry=reg, inst=Instrumentation())
    x = View("x", data=np.ones((40, 4000)))
    out = View("out", data=np.zeros((40, 4000)))
    policy = MDRangePolicy([(2, 38), (2, 3998)], tile=(36, 3996))
    with pytest.raises(LDMError, match="smaller MDRangePolicy tile"):
        be.parallel_for("k", policy, Ring2D(x, out, 2))
    assert calls == []
    assert not out.data.any()
    assert _ledger(be, "k") == dict(dma=(0.0, 0.0, 0, 0),
                                    peaks=[0] * be.num_cpes,
                                    distribution=(0, 0), tiles=0)


def test_double_buffering_decides_whether_an_explicit_tile_fits():
    x = View("x", data=np.ones((8, 1500)))
    policy = MDRangePolicy([(0, 8), (0, 1500)], tile=(8, 1500))
    # 12,000 points x 16 B: one 192 kB buffer fits the 256 kB LDM, two do not
    for double_buffer, fits in ((True, False), (False, True)):
        be = AthreadBackend(double_buffer=double_buffer,
                            registry=_registry()[0])
        f = Scale3D(x, 1.0)
        if fits:
            be.parallel_for("k", policy, f)
            assert be.ldm_high_water() == 8 * 1500 * 16
        else:
            with pytest.raises(LDMError, match="x 2 buffers"):
                be.parallel_for("k", policy, f)


@pytest.mark.parametrize("graph", [False, True])
def test_a_body_that_raises_ledgers_nothing(graph):
    be = AthreadBackend(registry=_registry()[0], inst=Instrumentation())
    x = View("x", data=np.ones((16, 16)))
    policy = MDRangePolicy([(0, 16), (0, 16)])
    with pytest.raises(RuntimeError, match="body failed"):
        if graph:
            g = LaunchGraph(be)
            g.add_kernel("k", policy, Raises(x))
            g.seal()
            g.replay()
        else:
            be.parallel_for("k", policy, Raises(x))
    assert _ledger(be, "k") == dict(dma=(0.0, 0.0, 0, 0),
                                    peaks=[0] * be.num_cpes,
                                    distribution=(0, 0), tiles=0)


@pytest.mark.parametrize("graph", [False, True])
def test_a_traced_launch_emits_one_batched_instant_per_direction(graph):
    be = AthreadBackend(registry=_registry()[0], inst=Instrumentation())
    tr = Tracer(enabled=True)
    be.inst.transfers.tracer = tr
    x = View("x", data=np.ones((5, 20, 36)))
    policy = MDRangePolicy([(0, 5), (0, 20), (0, 36)])
    f = Scale3D(x, 2.0)
    if graph:
        g = LaunchGraph(be)
        g.add_kernel("k", policy, f)
        g.seal()
        g.replay()
    else:
        be.parallel_for("k", policy, f)
    ntiles = be.last_distribution[0]
    assert ntiles > 1
    got = [(i.name, i.args["descriptors"]) for i in tr.instants]
    assert got == [("dma_get", ntiles), ("dma_put", ntiles)]
    assert tr.instants[0].args["bytes"] == pytest.approx(
        be.inst.transfers.dma_get_bytes)
