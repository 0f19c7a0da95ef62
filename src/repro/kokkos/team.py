"""Hierarchical (team) parallelism: ``TeamPolicy`` + ``TeamMember``.

Kokkos' second dispatch level: a *league* of teams, each with
``team_size`` threads sharing scratch memory, with nested
``team_range`` loops and team-wide reductions/broadcasts.  On the
simulated Sunway backend a team maps naturally to a core group's CPE
cluster sharing LDM scratch; on GPUs to a thread block sharing shared
memory (the resource the paper's GPU halo transposes use, Fig. 5).

Execution is functional and deterministic: teams run sequentially, the
team's "threads" are expressed through vectorised per-member helpers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ..errors import LDMError
from .instrument import Instrumentation
from .ldm import LDMAllocator, SW26010_LDM_BYTES


@dataclass(frozen=True)
class TeamPolicy:
    """A league of ``league_size`` teams of ``team_size`` threads."""

    league_size: int
    team_size: int
    scratch_bytes: int = 0

    def __post_init__(self) -> None:
        if self.league_size < 1 or self.team_size < 1:
            raise ValueError("league_size and team_size must be >= 1")
        if self.scratch_bytes < 0:
            raise ValueError("scratch_bytes must be non-negative")


class TeamMember:
    """Handle given to the functor for one team's execution."""

    def __init__(self, league_rank: int, policy: TeamPolicy,
                 scratch: Optional[np.ndarray]) -> None:
        self.league_rank = league_rank
        self.league_size = policy.league_size
        self.team_size = policy.team_size
        self._scratch = scratch

    def team_scratch(self) -> np.ndarray:
        """The team's shared scratch pad (bytes as float64 slots)."""
        if self._scratch is None:
            raise LDMError("TeamPolicy was created with scratch_bytes=0")
        return self._scratch

    def team_range(self, n: int) -> np.ndarray:
        """Indices 0..n-1 distributed over the team (all of them here —
        the functional model executes the whole team's share at once)."""
        return np.arange(n)

    def team_reduce(self, values: np.ndarray, op: Callable = np.sum) -> float:
        """Team-wide reduction of per-thread contributions."""
        return float(op(np.asarray(values)))

    def team_broadcast(self, value, source: int = 0):
        """Broadcast from one thread to the team (identity here)."""
        return value

    def team_barrier(self) -> None:
        """Synchronise the team (no-op: teams execute atomically)."""


def parallel_for_team(
    label: str,
    policy: TeamPolicy,
    functor: Callable[[TeamMember], None],
    inst: Optional[Instrumentation] = None,
    ldm_bytes: int = SW26010_LDM_BYTES,
) -> None:
    """Run ``functor(member)`` once per team, in league order.

    Scratch allocations are charged against an LDM-sized budget so an
    oversubscribed request fails the way real per-CG scratch does.
    """
    if policy.scratch_bytes > ldm_bytes:
        raise LDMError(
            f"team scratch {policy.scratch_bytes} B exceeds the {ldm_bytes} B "
            "per-team scratch budget"
        )
    allocator = LDMAllocator(capacity=ldm_bytes)
    for league_rank in range(policy.league_size):
        scratch = None
        if policy.scratch_bytes:
            allocator.alloc("team_scratch", policy.scratch_bytes)
            scratch = np.zeros(policy.scratch_bytes // 8)
        try:
            functor(TeamMember(league_rank, policy, scratch))
        finally:
            if policy.scratch_bytes:
                allocator.free("team_scratch")
    if inst is not None:
        inst.record_launch(
            label,
            points=policy.league_size * policy.team_size,
            tiles=policy.league_size,
            flops_per_point=float(getattr(functor, "flops_per_point", 0.0)),
            bytes_per_point=float(getattr(functor, "bytes_per_point", 8.0)),
        )


def parallel_reduce_team(
    label: str,
    policy: TeamPolicy,
    functor: Callable[[TeamMember], float],
    inst: Optional[Instrumentation] = None,
) -> float:
    """Sum one contribution per team (league order, deterministic)."""
    acc = 0.0
    for league_rank in range(policy.league_size):
        acc += float(functor(TeamMember(league_rank, policy, None)))
    if inst is not None:
        inst.record_launch(
            label, points=policy.league_size * policy.team_size,
            tiles=policy.league_size,
        )
    return acc
