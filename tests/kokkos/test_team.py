"""Hierarchical (team) parallelism."""

import numpy as np
import pytest

from repro.errors import LDMError
from repro.kokkos import (
    Instrumentation,
    TeamMember,
    TeamPolicy,
    parallel_for_team,
    parallel_reduce_team,
)


class TestTeamPolicy:
    def test_fields(self):
        p = TeamPolicy(league_size=8, team_size=64, scratch_bytes=1024)
        assert p.league_size == 8
        assert p.team_size == 64

    @pytest.mark.parametrize("kw", [
        dict(league_size=0, team_size=1),
        dict(league_size=1, team_size=0),
        dict(league_size=1, team_size=1, scratch_bytes=-1),
    ])
    def test_invalid(self, kw):
        with pytest.raises(ValueError):
            TeamPolicy(**kw)


class TestParallelForTeam:
    def test_each_team_runs_once_in_order(self):
        seen = []
        parallel_for_team("t", TeamPolicy(5, 4), lambda m: seen.append(m.league_rank))
        assert seen == [0, 1, 2, 3, 4]

    def test_team_scratch_is_shared_pad(self):
        out = np.zeros(3)

        def body(member: TeamMember):
            scratch = member.team_scratch()
            scratch[: member.team_size] = member.league_rank + 1
            member.team_barrier()
            out[member.league_rank] = member.team_reduce(scratch[: member.team_size])

        parallel_for_team("t", TeamPolicy(3, 4, scratch_bytes=256), body)
        assert np.array_equal(out, [4.0, 8.0, 12.0])

    def test_scratch_zeroed_between_teams(self):
        leaks = []

        def body(member: TeamMember):
            s = member.team_scratch()
            leaks.append(float(s.sum()))
            s[:] = 99.0

        parallel_for_team("t", TeamPolicy(3, 2, scratch_bytes=64), body)
        assert leaks == [0.0, 0.0, 0.0]

    def test_no_scratch_requested_raises_on_access(self):
        with pytest.raises(LDMError):
            parallel_for_team("t", TeamPolicy(1, 1),
                              lambda m: m.team_scratch())

    def test_oversized_scratch_rejected(self):
        with pytest.raises(LDMError):
            parallel_for_team("t", TeamPolicy(1, 1, scratch_bytes=10**9),
                              lambda m: None)

    def test_team_range_covers(self):
        hits = np.zeros(10)

        def body(member: TeamMember):
            for i in member.team_range(10):
                hits[i] += 1

        parallel_for_team("t", TeamPolicy(2, 4), body)
        assert np.all(hits == 2)

    def test_broadcast_identity(self):
        parallel_for_team(
            "t", TeamPolicy(1, 4),
            lambda m: (_ for _ in ()).throw(AssertionError)
            if m.team_broadcast(42) != 42 else None)

    def test_instrumented(self):
        inst = Instrumentation()
        parallel_for_team("team_kernel", TeamPolicy(4, 16), lambda m: None,
                          inst=inst)
        stats = inst.kernels["team_kernel"]
        assert stats.points == 64
        assert stats.tiles == 4


class TestParallelReduceTeam:
    def test_sum_over_league(self):
        total = parallel_reduce_team(
            "r", TeamPolicy(6, 8), lambda m: float(m.league_rank))
        assert total == 15.0

    def test_single_team(self):
        assert parallel_reduce_team("r", TeamPolicy(1, 1), lambda m: 7.5) == 7.5
