"""SYPD prediction and scaling sweeps (Figs 7-9, Table V).

Combines the measured step profile (:mod:`.kernelcost`), the machine
registry (:mod:`.machines`) and the communication model
(:mod:`.network`) into end-to-end throughput predictions:

    SYPD = 86400 / (365 * steps_per_day * T_step)

with ``T_step = T_compute + T_comm`` for the slowest rank.  The same
functions drive the strong-scaling (Fig. 8 / Table V), weak-scaling
(Fig. 9), single-node portability (Fig. 7) and optimization-ablation
(§VIII, 2.7x / 3.9x) reproductions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from ..ocean.config import ModelConfig
from ..ocean.precision import resolve_precision
from .familycost import policy_halo_word, policy_profile
from .kernelcost import DEFAULT_PROFILE, StepProfile, compute_time_per_step
from .machines import MachineSpec, get_machine
from .network import block_extents, comm_time_per_step

#: Canuto load-imbalance step inflation when NOT load-balanced (§V-C1).
CANUTO_IMBALANCE = 1.12


def predict_step_time(
    cfg: ModelConfig,
    machine: MachineSpec | str,
    units: int,
    optimized: bool = True,
    fortran: bool = False,
    profile: StepProfile = DEFAULT_PROFILE,
    precision: object = "double",
    aggregation: float = 1.0,
    rank_imbalance: float = 1.0,
) -> float:
    """Wall seconds per baroclinic step on ``units`` ranks (slowest rank).

    ``precision`` (a preset name — ``"double"``, ``"single"``,
    ``"mixed"`` — a ``{family: dtype}`` mapping, or a
    :class:`~repro.ocean.precision.PrecisionPolicy`) is resolved with
    :func:`~repro.ocean.precision.resolve_precision` and priced from the
    measured per-family byte shares (:mod:`repro.perfmodel.familycost`):
    each family's share of the traffic scales with its word width, and
    the halo word becomes the boundary-volume weighted mean.  Flop rate
    and message counts are unchanged.  The uniform presets are the two
    ends: ``"double"`` leaves the profile untouched with an 8-byte wire
    word, ``"single"`` halves *all* memory traffic (compute, halos,
    polar pack) — the §VIII bound no executable policy can beat.

    ``aggregation`` (>1) models the fused multi-field halo fast path:
    the mean number of semantic halo updates sharing one wire message,
    measured from a fused run's TrafficLedger (per-field messages /
    fused messages).  It divides the per-message latency term only;
    volume is unchanged.

    ``rank_imbalance`` (>= 1) is the per-rank load imbalance
    (``max/mean`` grid points, e.g.
    :func:`repro.parallel.loadbalance.imbalance_stats`'s
    ``imbalance_factor`` from a decomposition's ocean-point counts).
    The slowest rank does that much more compute, so it scales the
    compute term; 1.0 — perfectly balanced ranks — reproduces the
    balanced prediction exactly.  This is orthogonal to the Canuto-specific ``optimized``
    inflation, which prices the *vertical-mixing* imbalance inside the
    communication model.
    """
    machine = get_machine(machine) if isinstance(machine, str) else machine
    if units < 1:
        raise ValueError("need at least one compute unit")
    if rank_imbalance < 1.0:
        raise ValueError(
            f"rank_imbalance is max/mean and must be >= 1, got {rank_imbalance}")
    policy = resolve_precision(precision)
    word = policy_halo_word(policy, cfg, profile)
    profile = policy_profile(policy, profile)
    n3 = cfg.grid_points / units
    n2 = cfg.horizontal_points / units
    nsub = cfg.barotropic_substeps
    t_comp = compute_time_per_step(profile, machine, n3, n2, nsub, fortran=fortran)
    t_comp *= rank_imbalance
    lb = 1.0 if optimized else CANUTO_IMBALANCE
    t_comm = comm_time_per_step(
        machine,
        cfg,
        units,
        profile.halo3_per_step,
        profile.halo2_per_sub,
        compute3_time=t_comp,
        optimized=optimized,
        loadbalance_factor=lb,
        word_bytes=word,
        aggregation=aggregation,
    )
    if units == 1:
        t_comm = 0.0
    return t_comp + t_comm


def sypd_from_step_time(cfg: ModelConfig, t_step: float) -> float:
    """Simulated years per wall-clock day given seconds per step."""
    steps_per_day = 86400.0 / cfg.dt_baroclinic
    wall_per_simday = steps_per_day * t_step
    return 86400.0 / (wall_per_simday * 365.0)


def predict_sypd(
    cfg: ModelConfig,
    machine: MachineSpec | str,
    units: int,
    optimized: bool = True,
    fortran: bool = False,
    profile: StepProfile = DEFAULT_PROFILE,
    precision: object = "double",
    aggregation: float = 1.0,
    rank_imbalance: float = 1.0,
) -> float:
    """End-to-end SYPD prediction."""
    m = get_machine(machine) if isinstance(machine, str) else machine
    return sypd_from_step_time(
        cfg, predict_step_time(cfg, m, units, optimized, fortran, profile,
                               precision=precision, aggregation=aggregation,
                               rank_imbalance=rank_imbalance)
    )


def policy_projection(
    cfg: ModelConfig,
    machine: MachineSpec | str,
    units: int,
    policy: object = "mixed",
    profile: StepProfile = DEFAULT_PROFILE,
) -> Tuple[float, float, float]:
    """(double SYPD, policy SYPD, speedup) from per-family byte shares.

    ``policy`` is anything :func:`~repro.ocean.precision
    .resolve_precision` accepts, and the throughput gain comes from the
    *measured* family split of the step's traffic — under the ``mixed``
    preset the fp64 barotropic/EOS/scan families keep their full byte
    cost, while ``"single"`` is the §VIII halve-everything bound.
    """
    d = predict_sypd(cfg, machine, units, profile=profile)
    p = predict_sypd(cfg, machine, units, profile=profile, precision=policy)
    return d, p, p / d


@dataclass(frozen=True)
class ScalingPoint:
    """One row of a scaling table."""

    units: int
    cores: int
    sypd: float
    efficiency: float   # relative to the sweep's first point


def strong_scaling(
    cfg: ModelConfig,
    machine: MachineSpec | str,
    unit_counts: Sequence[int],
    optimized: bool = True,
    profile: StepProfile = DEFAULT_PROFILE,
) -> List[ScalingPoint]:
    """Fixed problem, growing resources (Fig. 8 / Table V).

    Parallel efficiency is computed exactly as the paper does: the
    speedup relative to the smallest configuration divided by the
    resource ratio.
    """
    m = get_machine(machine) if isinstance(machine, str) else machine
    rows: List[ScalingPoint] = []
    base_sypd: Optional[float] = None
    base_units: Optional[int] = None
    for units in unit_counts:
        sypd = predict_sypd(cfg, m, units, optimized=optimized, profile=profile)
        if base_sypd is None:
            base_sypd, base_units = sypd, units
            eff = 1.0
        else:
            eff = (sypd / base_sypd) / (units / base_units)
        rows.append(
            ScalingPoint(units=units, cores=m.cores(units), sypd=sypd, efficiency=eff)
        )
    return rows


def weak_scaling(
    machine: MachineSpec | str,
    cases: Sequence[Tuple[ModelConfig, int]],
    optimized: bool = True,
    profile: StepProfile = DEFAULT_PROFILE,
    aggregation: float = 1.0,
) -> List[ScalingPoint]:
    """Growing problem with (nearly) fixed per-rank load (Fig. 9).

    Weak efficiency follows the paper: the per-step *grind time*
    normalised by the per-rank workload, relative to the first case —
    so a perfectly weak-scaling code scores 1.0 even though the time
    steps are identical across cases (Table IV keeps dt fixed).

    ``aggregation`` (>1) applies the fused-halo message-aggregation
    factor to every case (see :func:`predict_step_time`), so the table
    reflects the aggregated message shape of the fused fast path.
    """
    m = get_machine(machine) if isinstance(machine, str) else machine
    rows: List[ScalingPoint] = []
    base: Optional[float] = None
    for cfg, units in cases:
        t = predict_step_time(cfg, m, units, optimized=optimized, profile=profile,
                              aggregation=aggregation)
        per_rank = cfg.grid_points / units
        grind = t / per_rank          # seconds per point per step
        if base is None:
            base = grind
        eff = base / grind
        rows.append(
            ScalingPoint(
                units=units,
                cores=m.cores(units),
                sypd=sypd_from_step_time(cfg, t),
                efficiency=eff,
            )
        )
    return rows


def single_node_units(machine: MachineSpec) -> int:
    """Ranks used in the paper's single-node Fig. 7 runs."""
    return machine.units_per_node


def portability_sypd(
    cfg: ModelConfig,
    machine: MachineSpec | str,
    profile: StepProfile = DEFAULT_PROFILE,
) -> Tuple[float, float, float]:
    """(kokkos_sypd, fortran_sypd, speedup) for one platform (Fig. 7)."""
    m = get_machine(machine) if isinstance(machine, str) else machine
    units = single_node_units(m)
    kokkos = predict_sypd(cfg, m, units, profile=profile)
    fortran = predict_sypd(cfg, m, units, fortran=True, profile=profile)
    return kokkos, fortran, kokkos / fortran


def optimization_speedup(
    cfg: ModelConfig,
    machine: MachineSpec | str,
    units: int,
    profile: StepProfile = DEFAULT_PROFILE,
) -> float:
    """Optimized-vs-original step-time ratio (§VIII: 2.7x at 2 km,
    3.9x at 1 km on the near-full Sunway system)."""
    m = get_machine(machine) if isinstance(machine, str) else machine
    t_opt = predict_step_time(cfg, m, units, optimized=True, profile=profile)
    t_orig = predict_step_time(cfg, m, units, optimized=False, profile=profile)
    return t_orig / t_opt
