"""The one-round halo exchange, byte for byte and frame by frame.

``np.array_equal`` cannot see the fold turning ``0.0`` into ``-0.0``
and calls two NaNs unequal, so the identity matrix here compares raw
bytes against the topology oracle :func:`local_with_halo`: every
decomposition shape the exchange distinguishes (self wrap, self fold,
remote fold, uneven rows, diagonal corner owners), 2-D and 3-D fields
and two dtypes in one exchange, both signs and three fills, fields
seeded with signed zeros and NaNs, on thread ranks and — for the
shapes that mix own and remote moves — process ranks.  The frame tests
pin the physical schedule: one frame per peer per dtype group per
exchange, one wait per frame, each wait naming the frame it waited for.
"""

import numpy as np
import pytest

from repro.ocean.localdomain import local_with_halo
from repro.parallel import BlockDecomposition, FusedHaloExchange, SimWorld
from repro.parallel.halo import TAG_HALO
from repro.trace import Tracer

NZ = 3
#: 31 rows split unevenly over 2, 3 and 4 block rows; 48 columns split
#: mirror-symmetrically over 1, 2 and 3 block columns
NY, NX = 31, 48

#: (sign, fill, dtype, 3-D?) per field, all in one exchange
FIELDS = [
    (-1.0, 0.0, np.float64, False),
    (1.0, 1.0, np.float32, True),
    (-1.0, 2.5, np.float64, True),
    (1.0, 2.5, np.float32, False),
    (-1.0, 1.0, np.float32, True),
]

GRIDS = [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 1), (4, 1), (2, 3)]
PROCESS_GRIDS = [(1, 2), (2, 1), (1, 3)]

EXCHANGES = 3


def _globals():
    rng = np.random.default_rng(38)
    out = []
    for _, _, dtype, three_d in FIELDS:
        shape = (NZ, NY, NX) if three_d else (NY, NX)
        g = rng.standard_normal(shape).astype(dtype)
        pick = rng.random(shape)
        g[pick < 0.1] = 0.0
        g[(pick >= 0.1) & (pick < 0.2)] = -0.0
        g[(pick >= 0.2) & (pick < 0.25)] = np.nan
        # the rows the fold mirrors and the columns the wrap carries
        g[..., -1, ::3] = 0.0
        g[..., -2, 1::3] = -0.0
        g[..., -1, 2::5] = np.nan
        g[..., :, 0] = -0.0
        g[..., 1::4, -1] = np.nan
        out.append(g)
    return out


def _exchange_program(comm, decomp, globals_):
    """Module level so process ranks can unpickle it."""
    locs = [decomp.scatter_global(g, comm.rank) for g in globals_]
    fx = FusedHaloExchange(comm, decomp, comm.rank)
    specs = [(a, sign, fill) for a, (sign, fill, _, _) in zip(locs, FIELDS)]
    allocations = []
    for _ in range(EXCHANGES):
        fx.exchange(specs)
        allocations.append(fx.pool.allocations)
    return locs, allocations


@pytest.mark.parametrize("mode,grid", [("thread", g) for g in GRIDS]
                         + [("process", g) for g in PROCESS_GRIDS],
                         ids=lambda v: v if isinstance(v, str)
                         else "x".join(map(str, v)))
def test_exchange_is_the_oracle_byte_for_byte(mode, grid):
    decomp = BlockDecomposition(NY, NX, *grid)
    globals_ = _globals()
    results = SimWorld(decomp.size, mode=mode).launch(
        _exchange_program, args=(decomp, globals_))
    for r, (locs, allocations) in enumerate(results):
        for a, g, (sign, fill, _, _) in zip(locs, globals_, FIELDS):
            want = local_with_halo(g, decomp, r, sign, fill)
            assert a.dtype == want.dtype
            assert a.tobytes() == want.tobytes(), f"rank {r}"
        # the pool's fixed point: nothing allocated after the first
        assert allocations == [allocations[0]] * EXCHANGES, f"rank {r}"


def _frames_program(comm, decomp):
    """Count physical frames and waits over ``EXCHANGES`` exchanges."""
    tracer = Tracer(comm.rank, enabled=True)
    comm.tracer = tracer
    frames = []
    transmit = comm._transmit

    def spy(obj, dest, tag, *args, **kwargs):
        frames.append((dest, tag))
        transmit(obj, dest, tag, *args, **kwargs)

    comm._transmit = spy
    ly, lx = decomp.local_shape(comm.rank)
    fields = [np.zeros((ly, lx)), np.zeros((NZ, ly, lx), np.float32),
              np.zeros((NZ, ly, lx))]
    fx = FusedHaloExchange(comm, decomp, comm.rank, tracer=tracer)
    for _ in range(EXCHANGES):
        fx.exchange(fields, phase="frames")
    comm.barrier()
    waits = [sp.args for sp in tracer.spans if sp.name == "halo_wait"]
    sends = [ev.args["dest"] for ev in tracer.instants if ev.name == "send"]
    return frames, waits, sends, comm.traffic.by_phase["frames"][0]


@pytest.mark.parametrize("mode", ["thread", "process"])
def test_one_frame_per_peer_per_group(mode):
    # on 1x2 the one peer is fold partner, east and west neighbour at
    # once: one frame per dtype group each way, where the logical
    # schedule counts three messages (fold, east, west) per group
    decomp = BlockDecomposition(NY, NX, 1, 2)
    results = SimWorld(2, mode=mode).launch(_frames_program, args=(decomp,))
    groups = 2
    for rank, (frames, waits, sends, logical) in enumerate(results):
        peer = 1 - rank
        assert frames == [(peer, TAG_HALO)] * (groups * EXCHANGES)
        assert sends == [peer] * len(frames)
        assert len(waits) == len(frames)
        assert all((w["src"], w["tag"], w["who"]) == (peer, TAG_HALO, peer)
                   for w in waits)
        # the rank's own ledger, on both substrates
        assert logical == 3 * groups * EXCHANGES
