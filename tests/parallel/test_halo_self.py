"""Own halo moves: in-place copies that must equal the frames.

A ghost whose source lies in the rank's own interior (the zonal wrap of
a one-column process grid, a top-row block that is its own fold
partner, a fold corner mirrored back onto the rank) is copied in place
instead of packed, transmitted and unpacked.  These tests pin that the
own moves are bitwise the topology oracle in worlds that mix own and
remote moves, on thread and process ranks; that every ghost reads the
interior as of ``begin``; and that the ledgers still see one message
per self side of the logical schedule.
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

#: (npy, npx) -> {rank: (fills, own moves, {peer: moves in its frame})}
MOVES = {
    # rank 0: the zonal wrap (west + east strips) is its own, the north
    # ghost rows come from rank 1 in three columns runs (corners from
    # rank 1's interior); rank 1: fold + wrap own, south rows from 0
    (2, 1): {0: (1, 2, {1: 3}), 1: (0, 3, {0: 3})},
    # rank 1 (the middle column) is its own fold partner; its fold
    # corners come from the other two; the outer columns get one fold
    # corner back from themselves
    (1, 3): {0: (1, 1, {1: 2, 2: 2}), 1: (1, 1, {0: 2, 2: 2}),
             2: (1, 1, {0: 2, 1: 2})},
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
    return locs, (len(fx.fills), len(fx.own),
                  {peer: len(m) for peer, m in fx.recv_moves.items()})


def _messages_per_exchange(decomp, rank):
    """Logical messages one rank sends per exchange: one per dtype group
    per neighbour side, self or remote."""
    nb = decomp.neighbors(rank)
    sides = 2 + (nb["s"] is not None) + (
        nb["n"] is not None or nb["fold"] is not None)
    return 2 * sides


@pytest.mark.parametrize("mode", ["thread", "process"])
@pytest.mark.parametrize("grid", sorted(MOVES))
def test_mixed_self_and_remote_sides_match_oracle(grid, mode):
    decomp = BlockDecomposition(NY, NX, *grid)
    globals_ = _globals()
    world = SimWorld(decomp.size, mode=mode)
    results = world.launch(_exchange_program, args=(decomp, globals_))
    for r, (locs, moves) in enumerate(results):
        assert moves == MOVES[grid][r], f"rank {r}"
        for a, g, (sign, fill, _, _) in zip(locs, globals_, FIELDS):
            assert a.dtype == g.dtype
            assert np.array_equal(
                a, local_with_halo(g, decomp, r, sign, fill)), f"rank {r}"
    # a self side still counts as the message the decomposition implies
    led = world.traffic
    want = 2 * sum(_messages_per_exchange(decomp, r)
                   for r in range(decomp.size))
    assert led.messages == led.by_phase["halo_self"][0] == want
    assert sum(led.size_hist.values()) == want
    # a self side of the logical schedule: the wrap (npx == 1) or a
    # top-row block that is its own fold partner
    selfs = {r for r in range(decomp.size)
             if decomp.npx == 1 or decomp.neighbors(r)["fold"] == r}
    assert {src for (src, dst) in led.by_pair if src == dst} == selfs


def test_split_exchange_copies_read_interior_at_begin_then_finish():
    # every ghost, wrap corners included, holds the interior as of
    # begin(); finish() on one rank has nothing left to do
    decomp = BlockDecomposition(12, 16, 1, 1)
    h = decomp.halo
    ly, lx = decomp.local_shape(0)
    rng = np.random.default_rng(7)
    fields = [rng.standard_normal((ly, lx)),
              rng.standard_normal((NZ, ly, lx)).astype(np.float32)]
    fx = FusedHaloExchange(SingleComm(), decomp, 0)
    assert (len(fx.fills), len(fx.own), fx.recv_moves) == (1, 3, {})
    at_begin = [a[..., h:ly - h, h:lx - h].copy() for a in fields]
    pending = fx.begin([(a, -1.0, 2.5) for a in fields])
    for a in fields:   # the interior moves on while the exchange is open
        a[..., h:ly - h, h:lx - h] += 100.0
    at_finish = [a.copy() for a in fields]
    fx.finish(pending)
    for a, a0, a1 in zip(fields, at_begin, at_finish):
        want = local_with_halo(a0, decomp, 0, -1.0, 2.5)
        want[..., h:ly - h, h:lx - h] = a1[..., h:ly - h, h:lx - h]
        assert a.tobytes() == want.tobytes()


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
