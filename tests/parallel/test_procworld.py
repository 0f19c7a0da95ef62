"""Process-backed SimWorld: transport, collectives, failure, shm hygiene.

Rank programs here must be module-level functions — process mode pickles
them by reference for ``multiprocessing`` spawn (``tests`` is a package,
so spawned workers can import this module).
"""

import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.errors import CommunicationError, RemoteRankError
from repro.ocean.localdomain import local_with_halo
from repro.parallel import (
    BlockDecomposition,
    HaloUpdater,
    Partitioner,
    Placement,
    SimWorld,
    TrafficLedger,
)
from repro.parallel.procworld import run_process_world
from repro.parallel.shm import SEGMENT_PREFIX, list_world_segments

TIMEOUT = 30.0


def _shm_leaks():
    try:
        entries = os.listdir("/dev/shm")
    except OSError:
        return []
    return [e for e in entries if e.startswith(SEGMENT_PREFIX)]


# -- rank programs (module level: spawn-picklable) ---------------------------


def prog_ring(comm):
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    return comm.sendrecv(comm.rank, dest=right, source=left)


def prog_move(comm):
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    buf = np.full((4, 25), float(comm.rank))
    comm.send(buf, right, tag=7, move=True, phase="halo")
    got = comm.recv(left, tag=7)
    return (got.shape, float(got[0, 0]))


def prog_collectives(comm):
    root = 1 % comm.size
    total = comm.allreduce(comm.rank)
    gathered = comm.allgather(comm.rank * 2)
    word = comm.bcast("hello" if comm.rank == root else None, root=root)
    comm.barrier()
    piece = comm.scatter(
        [f"p{r}" for r in range(comm.size)] if comm.rank == 0 else None)
    arr = comm.allreduce(np.ones(3) * comm.rank, op="max")
    return (total, gathered, word, piece, float(arr[0]))


def prog_mismatch(comm):
    if comm.rank == 0:
        return comm.allreduce(1.0)
    return comm.bcast(None, root=0)


def prog_raise(comm):
    if comm.rank == 1:
        raise ValueError("boom on rank 1")
    return comm.allreduce(comm.rank)


def prog_suicide(comm):
    # create some segments first so the sweep has real work to do
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    comm.send(np.ones(64), right, tag=3, move=True)
    comm.recv(left, tag=3)
    if comm.rank == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    # peers wedge on rank 1 and die with a receive timeout
    comm.recv(1 if comm.rank != 1 else 0, tag=99)
    return None


def prog_tagged_order(comm):
    if comm.rank == 0:
        comm.send("a", 1, tag=5)
        comm.send("b", 1, tag=6)
        comm.send("c", 1, tag=5)
        return None
    # out-of-order receive exercises the pending (unexpected) queue
    b = comm.recv(0, tag=6)
    a = comm.recv(0, tag=5)
    c = comm.recv(0, tag=5)
    return (a, b, c)


def prog_irecv(comm):
    if comm.rank == 0:
        req = comm.irecv(1, tag=2)
        polled = req.test()  # may be False: nothing sent yet is fine
        comm.send("ping", 1, tag=1)
        value = req.wait()
        return (isinstance(polled, bool), value)
    got = comm.recv(0, tag=1)
    comm.send(got + "/pong", 0, tag=2)
    return None


def prog_ledgered(comm):
    comm.ledger = TrafficLedger()
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    comm.send(np.ones(10), right, tag=1, move=True, phase="x")
    comm.recv(left, tag=1)
    comm.send([1, 2, 3], right, tag=2)
    comm.recv(left, tag=2)
    comm.allreduce(1.0)
    return None


# Buffered-send programs: each posts more than a pipe holds, or an object
# bigger than a bounded frame, *before* anyone receives.


def prog_mutual_big(comm):
    peer = 1 - comm.rank
    comm.send(np.full(1 << 18, float(comm.rank)), peer, tag=4)  # 2 MiB
    return _same(comm.recv(peer, tag=4), np.full(1 << 18, float(peer)))


def prog_many_small(comm, n):
    peer = 1 - comm.rank
    for i in range(n):
        comm.send((comm.rank, i), peer, tag=8)
    return [comm.recv(peer, tag=8) for _ in range(n)] == \
        [(peer, i) for i in range(n)]


def prog_flood_root(comm, n):
    if comm.rank != 0:
        for i in range(n):
            comm.send(i, 0, tag=9)
        return True
    time.sleep(0.3)  # let the inbox fill: senders must wait, not fail
    got = {src: [] for src in range(1, comm.size)}
    for _ in range(n):
        for src in reversed(range(1, comm.size)):
            got[src].append(comm.recv(src, tag=9))
    return all(seq == list(range(n)) for seq in got.values())


def prog_send_until_error(comm, peer_sleeps):
    """Rank 0 sends until the wire refuses; rank 1 never receives."""
    if comm.rank == 1:
        time.sleep(peer_sleeps)
        return None
    t0 = time.monotonic()
    try:
        while time.monotonic() - t0 < 15.0:
            comm.send("x" * 64, 1, tag=1)
    except CommunicationError as exc:
        return (str(exc), time.monotonic() - t0)
    return ("no error", time.monotonic() - t0)


def _uneven_globals():
    """2-D and 3-D fields in an fp64 and an fp32 group on a 17 x 26 grid
    (neither extent divides over 2 x 2 ranks)."""
    rng = np.random.default_rng(5)
    return [rng.standard_normal(shape).astype(dt)
            for dt in (np.float64, np.float32)
            for shape in ((17, 26), (3, 17, 26))]


def prog_halo_exchange(comm):
    d = BlockDecomposition(17, 26, 2, 2)
    locs = [d.scatter_global(g, comm.rank) for g in _uneven_globals()]
    hu = HaloUpdater(comm, d)
    for _ in range(2):
        hu.update_many([(a, -1.0, 2.5) for a in locs], phase="halo")
    return locs


def _big(rank):
    return (np.arange(1 << 16, dtype=np.float32) * (rank + 1)).reshape(256, -1)


def _same(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


def prog_repeated_gather(comm):
    pool = comm.make_halo_pool()
    allocations, ok = [], True
    for _ in range(20):
        got = comm.gather(_big(comm.rank), root=0)
        allocations.append(pool.allocations)
        if comm.rank == 0:
            ok = ok and all(_same(g, _big(r)) for r, g in enumerate(got))
    return allocations, ok


def prog_wire_mechanism(comm):
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    for i in range(200):
        comm.send(i, right, tag=3)
    threads = threading.active_count()
    small = [comm.recv(left, tag=3) for _ in range(200)] == list(range(200))
    comm.send(_big(comm.rank), right, tag=4)       # 256 KiB, no move=
    comm.send(list(range(5000)), right, tag=5)     # oversize non-array
    p2p = _same(comm.recv(left, tag=4), _big(left)) and \
        comm.recv(left, tag=5) == list(range(5000))
    bcast = _same(comm.bcast(_big(7) if comm.rank == 1 else None, root=1),
                  _big(7))
    got = comm.gather(_big(comm.rank), root=0)
    gather = comm.rank != 0 or all(_same(g, _big(r))
                                   for r, g in enumerate(got))
    return threads, small, p2p, bcast, gather


# -- tests -------------------------------------------------------------------


@pytest.mark.parametrize("program,size,args,groups", [
    (prog_mutual_big, 2, (), None),
    (prog_many_small, 2, (5000,), None),
    (prog_flood_root, 4, (2000,), None),
    # two rank threads per worker: concurrent writers inside one process
    (prog_flood_root, 4, (2000,), ((0, 1), (2, 3))),
], ids=["mutual-2MiB", "5000-small", "flood-rank0", "flood-rank0-threads"])
def test_send_stays_buffered(program, size, args, groups):
    """``send`` never waits for the peer to receive (a blocking pipe
    write hangs the first case, a lossy one breaks the others)."""
    got = run_process_world(
        program, size, timeout=20.0, args=args,
        placement=groups and Placement(groups=groups)).results
    assert got == [True] * size
    assert _shm_leaks() == []


class TestWireFailure:
    def test_send_to_exited_rank_raises(self):
        got = SimWorld.run(prog_send_until_error, 2, timeout=20.0,
                           args=(0.0,), mode="process")
        message, elapsed = got[0]
        assert "rank 1" in message and "exited" in message
        assert elapsed < 10.0  # the broken pipe, not the full-inbox timeout
        assert _shm_leaks() == []

    def test_send_to_full_inbox_times_out(self):
        got = SimWorld.run(prog_send_until_error, 2, timeout=1.0,
                           args=(4.0,), mode="process")
        message, elapsed = got[0]
        assert "rank 1" in message and "timed out after 1.0s" in message
        assert 1.0 <= elapsed < 4.0
        assert _shm_leaks() == []

    def test_oversize_gather_reaches_pool_fixed_point(self):
        got = SimWorld.run(prog_repeated_gather, 3, timeout=TIMEOUT,
                           mode="process")
        for allocations, ok in got:
            assert ok
            # slabs recycle: no shared-memory segment per call
            assert allocations[2:] == [allocations[2]] * 18
            assert allocations[-1] <= 3
        assert _shm_leaks() == []

    def test_no_feeder_thread_and_oversize_roundtrip(self):
        got = SimWorld.run(prog_wire_mechanism, 3, timeout=TIMEOUT,
                           mode="process")
        # sends are written by the sending thread itself
        assert got == [(1, True, True, True, True)] * 3
        assert _shm_leaks() == []


class TestProcessWorld:
    def test_ring_exchange(self):
        got = SimWorld.run(prog_ring, 3, timeout=TIMEOUT, mode="process")
        assert got == [2, 0, 1]

    def test_move_send_is_shared_memory(self):
        got = SimWorld.run(prog_move, 3, timeout=TIMEOUT, mode="process")
        assert got == [((4, 25), 2.0), ((4, 25), 0.0), ((4, 25), 1.0)]
        assert _shm_leaks() == []

    def test_halo_exchange_matches_oracle(self):
        """The one exchange over the shm buffer pool: uneven blocks, two
        dtype groups, fold sign and fill, two rounds."""
        d = BlockDecomposition(17, 26, 2, 2)
        got = SimWorld.run(prog_halo_exchange, 4, timeout=TIMEOUT,
                           mode="process")
        for r, locs in enumerate(got):
            for a, g in zip(locs, _uneven_globals()):
                assert a.dtype == g.dtype
                assert np.array_equal(
                    a, local_with_halo(g, d, r, sign=-1.0, fill=2.5))
        assert _shm_leaks() == []

    def test_collectives_match_thread_mode(self):
        thread = SimWorld.run(prog_collectives, 3, timeout=TIMEOUT)
        proc = SimWorld.run(prog_collectives, 3, timeout=TIMEOUT,
                            mode="process")
        assert proc == thread

    def test_world_ledger_matches_thread_mode(self):
        tw = SimWorld(3, timeout=TIMEOUT)
        tw.launch(prog_ledgered)
        pw = SimWorld(3, timeout=TIMEOUT, mode="process")
        pw.launch(prog_ledgered)
        t, p = tw.traffic, pw.traffic
        assert (t.messages, t.bytes, t.collectives) == \
            (p.messages, p.bytes, p.collectives)
        assert t.by_pair == p.by_pair
        assert t.by_phase == p.by_phase
        assert t.size_hist == p.size_hist

    def test_per_rank_ledgers_merge_to_world(self):
        pw = SimWorld(3, timeout=TIMEOUT, mode="process")
        pw.launch(prog_ledgered)
        from repro.perfmodel.aggregate import merge_traffic

        merged = merge_traffic(pw.rank_traffic.values())
        assert merged.messages == pw.traffic.messages
        assert merged.bytes == pw.traffic.bytes
        assert merged.by_pair == pw.traffic.by_pair
        assert merged.by_phase == pw.traffic.by_phase
        assert merged.size_hist == pw.traffic.size_hist
        # one collective on each of 3 ranks vs one world-level epoch
        assert pw.traffic.collectives == 1
        assert merged.collectives == 3

    def test_unexpected_message_queue_preserves_tag_order(self):
        got = SimWorld.run(prog_tagged_order, 2, timeout=TIMEOUT,
                           mode="process")
        assert got[1] == ("a", "b", "c")

    def test_irecv_roundtrip(self):
        got = SimWorld.run(prog_irecv, 2, timeout=TIMEOUT, mode="process")
        assert got[0] == (True, "ping/pong")

    def test_collective_mismatch_detected_across_processes(self):
        with pytest.raises(CommunicationError):
            SimWorld.run(prog_mismatch, 2, timeout=5.0, mode="process")
        assert _shm_leaks() == []

    def test_remote_exception_carries_traceback(self):
        with pytest.raises(RemoteRankError) as ei:
            SimWorld.run(prog_raise, 2, timeout=TIMEOUT, mode="process")
        err = ei.value
        assert err.rank == 1
        assert err.exc_type == "ValueError"
        assert "boom on rank 1" in str(err)
        assert "remote traceback" in str(err)
        assert 'raise ValueError("boom on rank 1")' in err.remote_traceback

    def test_killed_worker_leaves_no_segments(self):
        before = _shm_leaks()
        with pytest.raises(RemoteRankError):
            SimWorld.run(prog_suicide, 3, timeout=5.0, mode="process")
        # the parent sweep must have unlinked every world segment even
        # though rank 1 was SIGKILLed and never closed its pool
        assert _shm_leaks() == before == []

    def test_killed_worker_reported_by_exitcode(self):
        outcome = run_process_world(prog_suicide, 3, timeout=5.0,
                                    check=False)
        kinds = {e.rank: e.exc_type for e in outcome.errors}
        assert kinds.get(1) == "WorkerDied"
        dead = next(e for e in outcome.errors if e.rank == 1)
        assert "exited with code" in str(dead)
        assert dead.remote_traceback is None

    def test_single_rank_world(self):
        got = SimWorld.run(prog_collectives, 1, timeout=TIMEOUT,
                           mode="process")
        assert got[0][0] == 0

    def test_sweep_catches_unreported_segments(self):
        leftovers = list_world_segments("nonexistent-uid")
        assert leftovers == []


class TestPlacement:
    def test_one_per_rank(self):
        p = Placement.one_per_rank(4)
        assert p.n_workers == 4
        assert p.groups == ((0,), (1,), (2,), (3,))
        p.validate(4)

    def test_validate_rejects_partial_cover(self):
        from repro.errors import DecompositionError

        with pytest.raises(DecompositionError):
            Placement(groups=((0,), (1,))).validate(3)
        with pytest.raises(DecompositionError):
            Placement(groups=((0,), (0, 1))).validate(2)

    def test_partitioner_uniform(self):
        d = BlockDecomposition(16, 24, 2, 2)
        p = Partitioner(d).assign(2)
        p.validate(4)
        assert p.n_workers == 2
        assert all(len(g) == 2 for g in p.groups)

    def test_partitioner_load_driven(self):
        d = BlockDecomposition(16, 24, 2, 2)
        mask = np.zeros((16, 24), dtype=bool)
        mask[:8, :12] = True      # rank 0 owns all the ocean
        mask[:8, 12:14] = True    # rank 1 a sliver
        part = Partitioner(d, ocean_mask=mask)
        p = part.assign(2)
        p.validate(4)
        # the heavy rank 0 must sit alone-ish: LPT puts it on one
        # worker and packs the three light ranks on the other
        heavy_worker = p.worker_of(0)
        assert len(p.groups[heavy_worker]) == 1
        assert p.imbalance() >= 1.0

    def test_partitioner_more_workers_than_ranks(self):
        d = BlockDecomposition(16, 24, 2, 1)
        p = Partitioner(d).assign(8)
        p.validate(2)
        assert p.n_workers == 2

    def test_placement_drives_process_world(self):
        d = BlockDecomposition(16, 24, 2, 2)
        placement = Partitioner(d).assign(2)
        outcome = run_process_world(prog_ring, 4, timeout=TIMEOUT,
                                    placement=placement)
        assert outcome.results == [3, 0, 1, 2]
        assert not outcome.errors
