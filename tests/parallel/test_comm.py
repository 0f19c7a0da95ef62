"""Simulated MPI: point-to-point, collectives, traffic, deadlock detection."""

import os
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CommunicationError
from repro.parallel import SimComm, SimWorld, SingleComm


class TestPointToPoint:
    def test_ring_sendrecv(self):
        def prog(comm):
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            comm.send(comm.rank, dest=right)
            return comm.recv(source=left)

        assert SimWorld.run(prog, 4) == [3, 0, 1, 2]

    def test_numpy_payload_copied_on_send(self):
        def prog(comm):
            if comm.rank == 0:
                data = np.ones(4)
                comm.send(data, dest=1)
                data[:] = 999.0  # must not affect the receiver
                return None
            return comm.recv(source=0)

        results = SimWorld.run(prog, 2)
        assert np.array_equal(results[1], np.ones(4))

    def test_tags_separate_channels(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send("a", dest=1, tag=1)
                comm.send("b", dest=1, tag=2)
                return None
            # receive in reverse tag order
            second = comm.recv(source=0, tag=2)
            first = comm.recv(source=0, tag=1)
            return (first, second)

        assert SimWorld.run(prog, 2)[1] == ("a", "b")

    def test_message_order_preserved_per_channel(self):
        def prog(comm):
            if comm.rank == 0:
                for i in range(5):
                    comm.send(i, dest=1)
                return None
            return [comm.recv(source=0) for _ in range(5)]

        assert SimWorld.run(prog, 2)[1] == list(range(5))

    def test_self_send(self):
        comm = SingleComm()
        comm.send(42, dest=0)
        assert comm.recv(source=0) == 42

    def test_invalid_rank_raises(self):
        comm = SingleComm()
        with pytest.raises(CommunicationError):
            comm.send(1, dest=5)
        with pytest.raises(CommunicationError):
            comm.recv(source=-2)

    def test_recv_timeout_is_deadlock_error(self):
        world = SimWorld(1, timeout=0.05)
        comm = world.comm(0)
        with pytest.raises(CommunicationError, match="deadlock"):
            comm.recv(source=0)


class TestCollectives:
    def test_allreduce_sum(self):
        results = SimWorld.run(lambda c: c.allreduce(c.rank + 1), 4)
        assert results == [10, 10, 10, 10]

    def test_allreduce_max_min(self):
        assert SimWorld.run(lambda c: c.allreduce(c.rank, op="max"), 3) == [2, 2, 2]
        assert SimWorld.run(lambda c: c.allreduce(c.rank, op="min"), 3) == [0, 0, 0]

    def test_allreduce_arrays_elementwise(self):
        def prog(comm):
            return comm.allreduce(np.full(3, float(comm.rank)))

        for r in SimWorld.run(prog, 3):
            assert np.array_equal(r, np.full(3, 3.0))

    def test_allreduce_unknown_op(self):
        comm = SingleComm()
        with pytest.raises(CommunicationError):
            comm.allreduce(1.0, op="xor")

    def test_allgather(self):
        results = SimWorld.run(lambda c: c.allgather(c.rank), 3)
        assert results == [[0, 1, 2]] * 3

    def test_back_to_back_collectives_do_not_collide(self):
        def prog(comm):
            a = comm.allreduce(1)
            b = comm.allreduce(2)
            c = comm.allgather(comm.rank)
            return (a, b, tuple(c))

        for r in SimWorld.run(prog, 4):
            assert r == (4, 8, (0, 1, 2, 3))

    def test_barrier(self):
        def prog(comm):
            comm.barrier()
            return True

        assert all(SimWorld.run(prog, 4))


class TestWorld:
    def test_run_propagates_exceptions(self):
        def prog(comm):
            if comm.rank == 1:
                raise RuntimeError("boom")
            comm.barrier()

        with pytest.raises(RuntimeError, match="boom"):
            SimWorld.run(prog, 3)

    def test_invalid_world_size(self):
        with pytest.raises(ValueError):
            SimWorld(0)

    def test_invalid_rank(self):
        with pytest.raises(ValueError):
            SimWorld(2).comm(2)

    def test_traffic_ledger(self):
        world = SimWorld(2)

        def prog(comm):
            if comm.rank == 0:
                comm.send(np.zeros(10), dest=1)
            else:
                comm.recv(source=0)

        import threading
        threads = [threading.Thread(target=prog, args=(world.comm(r),)) for r in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert world.traffic.messages == 1
        assert world.traffic.bytes == 80.0
        assert world.traffic.by_pair[(0, 1)] == 80.0

    def test_run_with_args(self):
        def prog(comm, offset):
            return comm.rank + offset

        assert SimWorld.run(prog, 2, args=(100,)) == [100, 101]

    def test_run_prefers_real_error_over_broken_barrier(self):
        """A rank dying mid-collective aborts the barrier on every other
        rank; run() must re-raise the root cause, not the fallout."""

        def prog(comm):
            if comm.rank == 2:
                raise RuntimeError("root cause")
            comm.barrier()

        with pytest.raises(RuntimeError, match="root cause"):
            SimWorld.run(prog, 4)


class TestNonBlocking:
    def test_request_test_is_nonblocking(self):
        def prog(comm):
            if comm.rank == 0:
                req = comm.irecv(source=1)
                first = req.test()          # nothing sent yet: must not block
                comm.send("go", dest=1)
                value = req.wait()
                return first, value
            comm.recv(source=0)             # wait for the flag probe
            comm.send(42, dest=0)
            return None

        first, value = SimWorld.run(prog, 2)[0]
        assert first is False
        assert value == 42

    def test_request_test_true_after_arrival_and_caches_result(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send(np.arange(3), dest=1)
                return None
            req = comm.irecv(source=0)
            while not req.test():
                pass
            assert req.test()               # repeated test stays True
            return req.wait()               # wait after test returns payload

        out = SimWorld.run(prog, 2)[1]
        assert np.array_equal(out, np.arange(3))

    def test_send_move_transfers_ownership(self):
        def prog(comm):
            if comm.rank == 0:
                data = np.ones(4)
                comm.send(data, dest=1, move=True)
                data[:] = 999.0   # caller broke the contract: receiver sees it
                return None
            return comm.recv(source=0)

        assert np.array_equal(SimWorld.run(prog, 2)[1], np.full(4, 999.0))

class TestLedgerShape:
    def test_phase_counters_and_histogram(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send(np.zeros(16), dest=1, phase="halo3")   # 128 B
                comm.send(np.zeros(16), dest=1, phase="halo3")
                comm.send(np.zeros(2), dest=1, phase="halo2")    # 16 B
                comm.send(np.zeros(100), dest=1)                 # un-phased
            else:
                for _ in range(4):
                    comm.recv(source=0)
            comm.barrier()
            led = comm.world.traffic
            return (*led.by_phase["halo3"], led.by_phase["halo2"][0],
                    "none" in led.by_phase,
                    led.size_histogram(), led.mean_message_bytes())

        h3n, h3b, h2n, missing, hist, mean = SimWorld.run(prog, 2)[0]
        assert (h3n, h3b) == (2, 256.0)
        assert h2n == 1 and not missing
        # bins are exclusive upper bounds: 16 B -> <32, 128 B -> <256,
        # 800 B -> <1024
        assert hist == {32: 1, 256: 2, 1024: 1}
        assert mean == pytest.approx((256 + 16 + 800) / 4)

    def test_reset_clears_shape_counters(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send(np.zeros(4), dest=1, phase="p")
            else:
                comm.recv(source=0)

        world = SimWorld(2)
        import threading
        threads = [threading.Thread(target=prog, args=(world.comm(r),))
                   for r in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert world.traffic.by_phase and world.traffic.size_hist
        world.traffic.reset()
        assert not world.traffic.by_phase and not world.traffic.size_hist
        assert world.traffic.mean_message_bytes() == 0.0


@settings(max_examples=15, deadline=None)
@given(size=st.integers(1, 6), seed=st.integers(0, 50))
def test_property_allreduce_matches_numpy(size, seed):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(size)

    def prog(comm):
        return comm.allreduce(values[comm.rank])

    for r in SimWorld.run(prog, size):
        assert r == pytest.approx(values.sum())


class TestBarrierTimeout:
    def test_barrier_wait_honors_world_timeout(self):
        """A rank that never reaches the collective must not hang the
        others forever: the barrier wait times out at the world timeout
        and surfaces as a CommunicationError, not a bare
        BrokenBarrierError."""

        def prog(comm):
            if comm.rank == 1:
                return "absent"  # never calls the collective
            comm.barrier()

        with pytest.raises(CommunicationError, match="barrier wait timed out"):
            SimWorld.run(prog, 2, timeout=0.2)

    def test_collateral_break_still_prefers_root_cause(self):
        """The timeout conversion must not swallow the root-cause
        preference: a real error on one rank still wins over the
        barrier fallout on its peers."""

        def prog(comm):
            if comm.rank == 0:
                raise ValueError("the real bug")
            comm.barrier()

        with pytest.raises(ValueError, match="the real bug"):
            SimWorld.run(prog, 3, timeout=5.0)

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown world mode"):
            SimWorld(2, mode="fiber")


def _assert_world_at_rest(world):
    """Every rank thread joined and the run token handed back."""
    assert not [t.name for t in threading.enumerate()
                if t.name.startswith("rank")]
    assert world._token.owner is None
    assert not world._token._lock.locked()


class TestRunToken:
    """Thread ranks take turns: one holds the world's run token while it
    computes and gives it up only where it waits on ``comm``."""

    def test_poller_scheduled_before_the_sender_completes(self):
        """Rank 1 spin-polls while rank 0 is parked and has not sent:
        every missed poll must hand the token round, or rank 0 never
        gets to send."""

        def prog(comm):
            if comm.rank == 0:
                comm.recv(source=1)             # parks until rank 1 polls
                comm.send(np.arange(3), dest=1, tag=1)
                return None
            req = comm.irecv(source=0, tag=1)
            comm.send("polling", dest=0)
            deadline = time.monotonic() + 10.0
            while not req.test():
                assert time.monotonic() < deadline, "poller starved its peer"
            return req.wait()

        world = SimWorld(2)
        assert np.array_equal(world.launch(prog)[1], np.arange(3))
        _assert_world_at_rest(world)

    def test_mutual_recv_times_out_and_frees_the_token(self):
        world = SimWorld(2, timeout=0.2)
        t0 = time.monotonic()
        with pytest.raises(CommunicationError, match="deadlock"):
            world.launch(lambda comm: comm.recv(source=1 - comm.rank))
        assert time.monotonic() - t0 < 5.0
        _assert_world_at_rest(world)

    def test_rank_raising_while_peer_is_parked_surfaces_root_cause(self):
        def prog(comm):
            if comm.rank == 0:
                comm.recv(source=1)             # rank 1 is on its way to park
                raise ValueError("the real bug")
            comm.send("parking", dest=0)
            comm.recv(source=0)                 # never sent

        world = SimWorld(2, timeout=0.3)
        with pytest.raises(ValueError, match="the real bug"):
            world.launch(prog)
        _assert_world_at_rest(world)

    def test_helper_thread_inside_a_rank_uses_the_ranks_comm(self):
        """A thread that does not own the token passes straight through
        the places a rank gives it up — it neither releases a token it
        does not hold nor queues for one its own rank is holding."""

        def prog(comm):
            peer = 1 - comm.rank
            got = []

            def helper():
                comm.send(("hello", comm.rank), dest=peer, tag=7)
                got.append(comm.recv(source=comm.rank, tag=9))  # waits

            t = threading.Thread(target=helper)
            t.start()
            time.sleep(0.05)                    # helper is parked in recv
            comm.send("late", dest=comm.rank, tag=9)
            t.join(10.0)
            assert not t.is_alive()
            return got[0], comm.recv(source=peer, tag=7)

        world = SimWorld(2)
        assert world.launch(prog) == [("late", ("hello", 1)),
                                      ("late", ("hello", 0))]
        _assert_world_at_rest(world)

    def test_four_ranks_mixed_program_under_fast_switching(self):
        """More ranks than cores, GIL switch interval cut to 10 us: a
        rank owns the token at every point of its program, and the
        send/recv/collective results are the closed-form ones."""
        size, rounds = 4, 25

        def prog(comm):
            token = comm.world._token
            me = threading.get_ident()
            right, left = (comm.rank + 1) % size, (comm.rank - 1) % size
            acc = np.full(3, float(comm.rank))
            trail = []
            for i in range(rounds):
                req = comm.irecv(source=left, tag=i)
                comm.send(acc + i, dest=right, tag=i)
                assert token.owner == me
                acc = req.wait()
                assert token.owner == me
                total = comm.allreduce(acc, op="sum")
                assert token.owner == me
                trail.append((float(total[0]), comm.allgather(i)[i % size]))
                assert token.owner == me
            return acc, trail, comm.allgather(comm.rank)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            world = SimWorld(size, timeout=30.0)
            results = world.launch(prog)
        finally:
            sys.setswitchinterval(old)
        _assert_world_at_rest(world)
        shift = sum(range(rounds))              # every hop added its round
        for rank, (acc, trail, everyone) in enumerate(results):
            origin = (rank - rounds) % size
            assert np.array_equal(acc, np.full(3, float(origin + shift)))
            assert trail == [
                (float(sum(range(size)) + size * sum(range(i + 1))), i)
                for i in range(rounds)]
            assert everyone == list(range(size))


def _cpu_sets(comm):
    """This rank's CPU set and that of a helper thread it starts."""
    seen = {}
    helper = threading.Thread(
        target=lambda: seen.update(helper=os.sched_getaffinity(0)))
    helper.start()
    helper.join()
    return os.sched_getaffinity(0), seen["helper"]


def _ring_sum(comm):
    right, left = (comm.rank + 1) % comm.size, (comm.rank - 1) % comm.size
    comm.send(np.arange(4.0) * comm.rank, dest=right)
    got = comm.recv(source=left)
    return float(comm.allreduce(got, op="sum").sum()), comm.allgather(comm.rank)


#: This process's CPU set at import, before any world ran: a launch
#: that narrowed its launcher's set would leave it narrowed for the
#: tests after it, so they compare against this, not a fresh reading.
_ALLOWED = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else set()


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(_ALLOWED) < 2,
    reason="co-located thread ranks need sched_setaffinity and 2+ usable CPUs")
class TestCoLocation:
    """A process's thread worlds share one CPU, the one the launcher of
    its first world ran on: only the token holder is runnable, so a
    hand-off to a rank parked on another core would pay that core's
    wake-up, and worlds of one process share one GIL."""

    @pytest.mark.parametrize("size", [2, 4])
    def test_ranks_and_their_helpers_share_one_cpu(self, size):
        sets = SimWorld.run(_cpu_sets, size)
        cpus = {frozenset(s) for pair in sets for s in pair}
        assert len(cpus) == 1, sets
        (cpu,) = cpus
        assert len(cpu) == 1 and cpu <= _ALLOWED

    def test_worlds_of_one_process_share_one_cpu(self):
        (cpu,) = {frozenset(s) for pair in SimWorld.run(_cpu_sets, 2)
                  for s in pair}
        other = next(iter(_ALLOWED - cpu))
        start = threading.Barrier(2)
        sets = []

        def launch(pin):
            if pin:
                # A launcher running elsewhere still gets the process's CPU.
                os.sched_setaffinity(0, {other})
            start.wait()
            sets.extend(s for pair in SimWorld.run(_cpu_sets, 2) for s in pair)

        launchers = [threading.Thread(target=launch, args=(pin,))
                     for pin in (False, True)]
        for t in launchers:
            t.start()
        for t in launchers:
            t.join()
        assert len(sets) == 8 and all(s == cpu for s in sets), sets

    def test_launcher_cpu_set_untouched(self):
        assert os.sched_getaffinity(0) == _ALLOWED
        SimWorld.run(_ring_sum, 2)
        assert os.sched_getaffinity(0) == _ALLOWED

        def prog(comm):
            if comm.rank == 1:
                raise ValueError("rank 1 fails")
            return comm.allgather(comm.rank)

        with pytest.raises(ValueError, match="rank 1 fails"):
            SimWorld.run(prog, 2, timeout=5.0)
        assert os.sched_getaffinity(0) == _ALLOWED

    def test_world_runs_unbound_without_sched_setaffinity(self, monkeypatch):
        bound = SimWorld.run(_ring_sum, 3)
        monkeypatch.delattr(os, "sched_setaffinity")
        assert SimWorld.run(_ring_sum, 3) == bound
        assert all(s == _ALLOWED for pair in SimWorld.run(_cpu_sets, 2)
                   for s in pair)


class TestLedgerMerge:
    def _populated(self, shift=0):
        led = SimWorld(4).traffic
        led.record(0 + shift, 1, 80.0, phase="halo")
        led.record(1, 2 + shift, 1024.0, phase="halo")
        led.record(2, 3, 7.0)
        led.collectives += 2
        return led

    def test_merge_from_round_trip(self):
        """Splitting traffic across per-rank ledgers and merging them
        back must equal recording everything in one ledger."""
        whole = SimWorld(4).traffic
        parts = [SimWorld(4).traffic for _ in range(3)]
        events = [(0, 1, 80.0, "halo"), (1, 2, 1024.0, "halo"),
                  (2, 3, 7.0, None), (3, 0, 80.0, "fused_halo3"),
                  (1, 0, 512.0, None)]
        for i, (src, dst, nbytes, phase) in enumerate(events):
            whole.record(src, dst, nbytes, phase=phase)
            parts[i % 3].record(src, dst, nbytes, phase=phase)
        merged = SimWorld(4).traffic
        for part in parts:
            assert merged.merge_from(part) is merged
        assert merged.messages == whole.messages
        assert merged.bytes == whole.bytes
        assert merged.by_pair == whole.by_pair
        assert merged.by_phase == whole.by_phase
        assert merged.size_hist == whole.size_hist

    def test_merge_accumulates_collectives(self):
        a, b = self._populated(), self._populated(shift=1)
        a.merge_from(b)
        assert a.collectives == 4
        assert a.messages == 6

    def test_ledger_pickles_and_keeps_counters(self):
        import pickle

        led = self._populated()
        clone = pickle.loads(pickle.dumps(led))
        assert clone.messages == led.messages
        assert clone.bytes == led.bytes
        assert clone.by_pair == led.by_pair
        assert clone.by_phase == led.by_phase
        assert clone.size_hist == led.size_hist
        assert clone.collectives == led.collectives
        # the rebuilt lock works: recording after the round trip is fine
        clone.record(0, 1, 8.0)
        assert clone.messages == led.messages + 1
