"""Edge cases across modules + the optional long-run stability test."""

import os

import numpy as np
import pytest

from repro.kokkos import (
    MDRangePolicy,
    OpenMPBackend,
    RangePolicy,
    SerialBackend,
    View,
    kokkos_register_for,
)
from repro.ocean import LICOMKpp, demo
from repro.parallel import BlockDecomposition, SimWorld, SingleComm
from repro.parallel.comm import TrafficLedger
from tests.conftest import halo_update


@kokkos_register_for("edge_fill", ndim=1)
class _Fill:
    def __init__(self, y, value):
        self.y, self.value = y, value

    def __call__(self, i):
        self.y.data[i] = self.value

    def apply(self, slices):
        (s,) = slices
        self.y.data[s] = self.value


class TestOpenMPEdges:
    def test_fewer_points_than_threads(self):
        be = OpenMPBackend(threads=8)
        y = View("y", 3)
        be.parallel_for("fill", RangePolicy(0, 3), _Fill(y, 2.0))
        assert np.all(y.data == 2.0)
        be.shutdown()

    def test_empty_range(self):
        be = OpenMPBackend(threads=2)
        y = View("y", 4)
        be.parallel_for("fill", RangePolicy(2, 2), _Fill(y, 9.0))
        assert np.all(y.data == 0.0)
        be.shutdown()

    def test_shutdown_idempotent(self):
        be = OpenMPBackend(threads=2)
        be.shutdown()
        be.shutdown()

    def test_invalid_threads(self):
        with pytest.raises(ValueError):
            OpenMPBackend(threads=0)


class TestCommEdges:
    def test_request_test_after_completion(self):
        comm = SingleComm()
        comm.send("x", dest=0)
        req = comm.irecv(source=0)
        assert req.test()
        assert req.wait() == "x"

    def test_traffic_ledger_reset(self):
        ledger = TrafficLedger()
        ledger.record(0, 1, 100.0)
        ledger.collectives += 1
        ledger.reset()
        assert ledger.messages == 0
        assert ledger.bytes == 0.0
        assert not ledger.by_pair
        assert ledger.collectives == 0

    def test_nested_payload_copies(self):
        def prog(comm):
            if comm.rank == 0:
                payload = {"a": [np.ones(2)], "b": (1, 2)}
                comm.send(payload, dest=1)
                payload["a"][0][:] = -1
                return None
            got = comm.recv(source=0)
            return float(got["a"][0].sum())

        assert SimWorld.run(prog, 2)[1] == 2.0


class TestDecompEdges:
    def test_halo_width_one(self, rng):
        d = BlockDecomposition(16, 16, 2, 2, halo=1)
        g = rng.standard_normal((16, 16))

        def prog(comm):
            loc = d.scatter_global(g, comm.rank)
            halo_update(comm, d, loc)
            return loc

        locs = SimWorld.run(prog, 4)
        from repro.ocean.localdomain import local_with_halo

        for r, loc in enumerate(locs):
            assert np.array_equal(loc, local_with_halo(g, d, r))

    def test_many_ranks(self, rng):
        """A 3x4 decomposition stays bitwise against the oracle."""
        d = BlockDecomposition(24, 32, 3, 4)
        g = rng.standard_normal((24, 32))

        def prog(comm):
            loc = d.scatter_global(g, comm.rank)
            halo_update(comm, d, loc, sign=-1.0)
            return loc

        from repro.ocean.localdomain import local_with_halo

        for r, loc in enumerate(SimWorld.run(prog, 12)):
            assert np.array_equal(loc, local_with_halo(g, d, r, sign=-1.0))


class TestPolicyEdges:
    def test_md_policy_with_zero_extent(self):
        class Fill2D:
            def __init__(self, y):
                self.y = y

            def __call__(self, j, i):
                self.y.data[j, i] = 1.0

            def apply(self, slices):
                sj, si = slices
                self.y.data[sj, si] = 1.0

        be = SerialBackend()
        y = View("y", (4, 4))
        be.parallel_for("fill", MDRangePolicy([(2, 2), (0, 4)]), Fill2D(y))
        assert np.all(y.data == 0.0)


@pytest.mark.skipif(
    not os.environ.get("REPRO_SLOW"),
    reason="long-run stability test; set REPRO_SLOW=1 to enable",
)
class TestLongRun:
    def test_small_config_stable_half_year(self):
        """180 simulated days on the small demo config (about 30 s)."""
        m = LICOMKpp(demo("small"))
        m.run_days(180.0)
        assert not m.state.has_nan()
        sst = m.sst()
        assert -5.0 < np.nanmin(sst) < np.nanmax(sst) < 40.0
        assert np.abs(m.state.u.cur.raw).max() < 3.0
