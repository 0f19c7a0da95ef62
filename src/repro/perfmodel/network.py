"""Communication cost model: halo updates under alpha-beta + pack/copy.

Models the three §V-D cost components of a halo update:

1. **pack/unpack** on the host (or via the Kokkos-accelerated kernels
   once optimized) — proportional to the boundary volume at host
   bandwidth, times a strategy factor;
2. **host<->device staging** — the paper's systems lack GPU-aware MPI,
   so on GPU machines every exchange crosses PCIe twice (D2H then H2D);
3. **wire time** — alpha-beta per message, with the tripolar-fold row
   contributing a *fixed* polar term that does not shrink with rank
   count (the Amdahl bottleneck of §V-D: "the cost of pack/unpack
   operations remains constant and does not benefit from
   parallelization as the computational scale increases").

The unoptimized (original) variants: element-loop pack (x ``PACK_NAIVE``
slower), per-level 3-D messages (``nz`` messages per neighbour instead
of 1), no computation-communication overlap.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt
from typing import Tuple

from ..ocean.config import ModelConfig
from .machines import MachineSpec

#: Halo width (paper: two ghost + two real layers).
HALO = 2
#: Slowdown of the naive (pre-rewrite) pack relative to the optimized one.
#: Calibrated so the optimized-vs-original Sunway speedup at 1 km matches
#: the paper's 3.9x (see EXPERIMENTS.md, ablation A4).
PACK_NAIVE_FACTOR = 64.0
#: Redundant pack traffic of the original implementation (the paper
#: "analyzed and optimized the redundant packing/unpacking operations").
PACK_REDUNDANCY = 1.5
#: Fraction of the 3-D halo wire time hidden by overlap when optimized.
OVERLAP_HIDE = 0.7


def block_extents(cfg: ModelConfig, ranks: int) -> Tuple[int, int]:
    """(nyl, nxl) of a square-ish block decomposition over ``ranks``."""
    aspect = cfg.nx / cfg.ny
    npy = max(1, round(sqrt(ranks / aspect)))
    npx = max(1, ranks // npy)
    return max(1, cfg.ny // npy), max(1, cfg.nx // npx)


@dataclass(frozen=True)
class HaloCost:
    """Cost of one halo update for one rank [seconds]."""

    pack: float
    staging: float
    wire: float
    messages: int


def halo_update_cost(
    machine: MachineSpec,
    nyl: int,
    nxl: int,
    nz: int,
    optimized: bool = True,
    word_bytes: float = 8.0,
    aggregation: float = 1.0,
) -> HaloCost:
    """Cost of one (2-D when nz == 1) halo update on one rank.

    ``optimized`` selects the paper's §V-D implementation (sliced /
    Kokkos pack, transposed single-message 3-D exchange) versus the
    original (naive pack, per-level messages).

    ``aggregation`` models the fused multi-field fast path: when F
    semantic updates travel fused, each pays the full bandwidth term but
    only 1/F of the per-message latency (F fields share one message per
    neighbour per phase).
    """
    boundary_pts = 2 * HALO * (nyl + nxl + 4 * HALO) * nz
    nbytes = boundary_pts * word_bytes

    pack_factor = 1.0 if optimized else PACK_NAIVE_FACTOR * PACK_REDUNDANCY
    pack = 2.0 * nbytes * pack_factor / machine.effective_pack_bw  # pack + unpack

    staging = 0.0
    if machine.host_device_bw is not None:
        staging = 2.0 * nbytes / machine.host_device_bw  # D2H + H2D

    messages = 4 if (optimized or nz == 1) else 4 * nz
    if aggregation > 1.0:
        messages = max(1, round(messages / aggregation))
    wire = messages * machine.net_latency + nbytes / machine.net_bw
    return HaloCost(pack=pack, staging=staging, wire=wire, messages=messages)


def ledger_message_summary(ledger) -> str:
    """Human-readable message-shape summary (for ablation artifacts)."""
    lines = [
        f"messages {ledger.messages}, volume {ledger.bytes / 1e6:.3f} MB, "
        f"mean size {ledger.mean_message_bytes():.0f} B"
    ]
    hist = ledger.size_histogram()
    if hist:
        lines.append("size histogram (upper-bound bytes: count):")
        for ub, n in hist.items():
            lines.append(f"  <= {ub:>10d}: {n}")
    for phase, (msgs, nbytes) in sorted(ledger.by_phase.items()):
        lines.append(f"phase {phase:<12s} {int(msgs):6d} msgs "
                     f"{nbytes / 1e6:10.3f} MB")
    return "\n".join(lines)


def polar_fixed_cost(
    machine: MachineSpec,
    cfg: ModelConfig,
    halo3_per_step: int,
    optimized: bool = True,
    word_bytes: float = 8.0,
) -> float:
    """The per-step serial polar-region pack term (does not scale with P).

    In polar regions the fold exchange packs O(nx * halo * nz) data per
    update regardless of rank count.  The optimized implementation cuts
    it by the pack rewrite; the original pays the naive-loop factor.
    """
    nbytes = cfg.nx * HALO * cfg.nz * word_bytes
    factor = machine.polar_factor
    if not optimized:
        factor *= PACK_NAIVE_FACTOR * PACK_REDUNDANCY
    return halo3_per_step * nbytes * factor / machine.effective_pack_bw


def comm_time_per_step(
    machine: MachineSpec,
    cfg: ModelConfig,
    ranks: int,
    halo3_per_step: int,
    halo2_per_sub: int,
    compute3_time: float = 0.0,
    optimized: bool = True,
    loadbalance_factor: float = 1.0,
    word_bytes: float = 8.0,
    aggregation: float = 1.0,
) -> float:
    """Total per-step communication time for one rank.

    ``compute3_time`` enables the overlap model: when optimized, the
    3-D halo wire+staging time partially hides behind the interior
    computation (it can never hide the pack, which is serial with the
    kernels on these systems).  ``loadbalance_factor`` (>1) inflates the
    step when the canuto imbalance is not corrected (original version).
    ``aggregation`` (>1) is the fused-halo message-aggregation factor:
    the mean number of semantic halo updates sharing one message (see
    :func:`halo_update_cost`), measured from a fused step's
    TrafficLedger as per-field messages / fused messages.
    """
    import math

    nyl, nxl = block_extents(cfg, ranks)
    nsub = cfg.barotropic_substeps

    h3 = halo_update_cost(machine, nyl, nxl, cfg.nz, optimized, word_bytes,
                          aggregation=aggregation)
    h2 = halo_update_cost(machine, nyl, nxl, 1, optimized, word_bytes,
                          aggregation=aggregation)

    # network contention grows slowly with the machine fraction in use
    nodes = max(1.0, ranks / machine.units_per_node)
    crowd = 1.0 + machine.contention * math.log2(nodes)

    wire3 = halo3_per_step * (h3.wire * crowd + h3.staging)
    if optimized:
        wire3 = max(0.0, wire3 - OVERLAP_HIDE * min(wire3, compute3_time))
    pack3 = halo3_per_step * h3.pack
    t2 = nsub * halo2_per_sub * (h2.pack + h2.staging + h2.wire * crowd)
    fixed = polar_fixed_cost(machine, cfg, halo3_per_step, optimized,
                             word_bytes)
    return (wire3 + pack3 + t2 + fixed) * loadbalance_factor
