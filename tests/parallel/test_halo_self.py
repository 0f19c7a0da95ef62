"""Self-neighbour halo sides: copies that must equal the messages.

A side whose neighbour is the rank itself (the zonal wrap of a
one-column process grid, or a top-row block that is its own fold
partner) is copied in place instead of packed, posted and unpacked.
These tests pin that the copies are bitwise the topology oracle in
worlds that mix self and remote sides, on thread and process ranks;
that a copy reads the interior when its message would have been
packed (phase 1 in ``begin``, phase 2 in ``finish``); and that the
ledgers still see one message per self side.
"""

import numpy as np
import pytest

from repro.ocean.localdomain import local_with_halo
from repro.parallel import (
    BlockDecomposition,
    FusedHaloExchange,
    SimWorld,
    SingleComm,
)
from repro.parallel.halo import COPY, FILL, MESSAGE

NZ = 3
NY, NX = 30, 48

#: (sign, fill, dtype, 3-D?) per field: both ranks, both dtypes, a
#: B-grid sign flip and a non-zero closed-boundary fill in one exchange
FIELDS = [
    (-1.0, 1.0, np.float64, False),
    (1.0, 0.0, np.float32, True),
    (-1.0, 0.0, np.float64, True),
    (1.0, 1.0, np.float32, False),
]

#: (npy, npx) -> {rank: (south, north, east_west)}
SIDES = {
    # rank 0: e/w self, n remote; rank 1: e/w and fold self, s remote
    (2, 1): {0: (FILL, MESSAGE, COPY), 1: (MESSAGE, COPY, COPY)},
    # rank 1 (the middle column) is its own fold partner; e/w remote
    (1, 3): {0: (FILL, MESSAGE, MESSAGE), 1: (FILL, COPY, MESSAGE),
             2: (FILL, MESSAGE, MESSAGE)},
}


def _globals():
    rng = np.random.default_rng(33)
    out = []
    for _, _, dtype, three_d in FIELDS:
        shape = (NZ, NY, NX) if three_d else (NY, NX)
        out.append(rng.standard_normal(shape).astype(dtype))
    return out


def _exchange_program(comm, decomp, globals_):
    """Module level so process ranks can unpickle it."""
    locs = [decomp.scatter_global(g, comm.rank) for g in globals_]
    fx = FusedHaloExchange(comm, decomp, comm.rank)
    for _ in range(2):
        fx.exchange([(a, sign, fill)
                     for a, (sign, fill, _, _) in zip(locs, FIELDS)],
                    phase="halo_self")
    return locs, (fx.south, fx.north, fx.east_west)


def _messages_per_exchange(decomp, rank):
    """Logical messages one rank sends per exchange: one per dtype group
    per neighbour side, self or remote."""
    nb = decomp.neighbors(rank)
    sides = 2 + (nb["s"] is not None) + (
        nb["n"] is not None or nb["fold"] is not None)
    return 2 * sides


@pytest.mark.parametrize("mode", ["thread", "process"])
@pytest.mark.parametrize("grid", sorted(SIDES))
def test_mixed_self_and_remote_sides_match_oracle(grid, mode):
    decomp = BlockDecomposition(NY, NX, *grid)
    globals_ = _globals()
    world = SimWorld(decomp.size, mode=mode)
    results = world.launch(_exchange_program, args=(decomp, globals_))
    for r, (locs, sides) in enumerate(results):
        assert sides == SIDES[grid][r], f"rank {r}"
        for a, g, (sign, fill, _, _) in zip(locs, globals_, FIELDS):
            assert a.dtype == g.dtype
            assert np.array_equal(
                a, local_with_halo(g, decomp, r, sign, fill)), f"rank {r}"
    # a self side still counts as the message the decomposition implies
    led = world.traffic
    want = 2 * sum(_messages_per_exchange(decomp, r)
                   for r in range(decomp.size))
    assert led.messages == led.phase_messages("halo_self") == want
    assert sum(led.size_hist.values()) == want
    selfs = {r for r, ranks in SIDES[grid].items() if COPY in ranks}
    assert {src for (src, dst) in led.by_pair if src == dst} == selfs


def _expected_after_split(a0, a1, h, sign, fill):
    """The ghost ring a 1x1 world's exchange must leave, by index
    arithmetic: fold rows from the interior at ``begin`` (``a0``), then
    e/w columns over full rows from the interior at ``finish`` (``a1``)."""
    e = a1.copy()
    ly, lx = e.shape[-2:]
    e[..., :h, :] = fill
    for k in range(h):
        for c in range(h, lx - h):
            e[..., ly - h + k, c] = sign * a0[..., ly - h - 1 - k, lx - 1 - c]
    for j in range(h):
        e[..., :, j] = e[..., :, lx - 2 * h + j]
        e[..., :, lx - h + j] = e[..., :, h + j]
    return e


def test_split_exchange_copies_read_interior_at_begin_then_finish():
    decomp = BlockDecomposition(12, 16, 1, 1)
    h = decomp.halo
    ly, lx = decomp.local_shape(0)
    rng = np.random.default_rng(7)
    fields = [rng.standard_normal((ly, lx)),
              rng.standard_normal((NZ, ly, lx)).astype(np.float32)]
    fx = FusedHaloExchange(SingleComm(), decomp, 0)
    assert (fx.south, fx.north, fx.east_west) == (FILL, COPY, COPY)
    at_begin = [a.copy() for a in fields]
    pending = fx.begin([(a, -1.0, 2.5) for a in fields])
    for a in fields:   # the interior moves on while phase 1 is in flight
        a[..., h:ly - h, h:lx - h] += 100.0
    at_finish = [a.copy() for a in fields]
    fx.finish(pending)
    for a, a0, a1 in zip(fields, at_begin, at_finish):
        want = _expected_after_split(a0, a1, h, -1.0, 2.5)
        assert np.array_equal(a, want)
        # interior untouched by the exchange
        assert np.array_equal(a[..., h:ly - h, h:lx - h],
                              a1[..., h:ly - h, h:lx - h])


def test_self_sides_use_no_buffers_and_ledger_once_per_exchange():
    decomp = BlockDecomposition(12, 16, 1, 1)
    comm = SingleComm()
    fx = FusedHaloExchange(comm, decomp, 0)
    ly, lx = decomp.local_shape(0)
    fields = [np.zeros((ly, lx)), np.zeros((NZ, ly, lx), np.float32)]
    for _ in range(3):
        fx.exchange(fields, phase="halo2")
    assert (fx.pool.allocations, fx.pool.reuses) == (0, 0)
    led = comm.world.traffic
    # per exchange and dtype group: the fold, east and west messages
    assert led.messages == 3 * 2 * 3
    h = decomp.halo
    ns = (lx - 2 * h) * h * (8 + NZ * 4)
    ew = ly * h * (8 + NZ * 4)
    assert led.bytes == 3 * (ns + 2 * ew)
    assert led.by_pair == {(0, 0): led.bytes}
