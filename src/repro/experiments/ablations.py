"""Ablation drivers for the paper's individual optimizations.

* A1 — canuto load balancing (§V-C1, Fig. 4): measured imbalance of the
  realistic topography and the critical-path reduction of the paper's
  gather/redistribute scheme.
* A2 — halo/pack optimizations (§V-D, Fig. 5): wall-clock of the pack
  strategies and 3-D halo transpose variants on a representative slab.
* A3 — functor-registry variants (§V-B): lookup cost of the linked
  list, with/without the LDM move-to-front cache and SIMD matching,
  against a hash map.
* A4 — step-graph capture & replay: launches per step eager vs the
  sealed graph (elementwise fusion merges adjacent compatible
  launches), plus measured steps/sec for the launch-plan cache and
  workspace arena.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from ..kokkos.registry import DictRegistry, RegistryEntry
from ..ocean import demo, land_mask, make_grid
from ..parallel.comm import SimWorld, TrafficLedger
from ..parallel.decomp import BlockDecomposition, choose_process_grid
from ..parallel.halo import FusedHaloExchange
from ..parallel.loadbalance import ImbalanceStats, imbalance_stats
from .variants import (
    GHOST_HALO_TRANSPOSES,
    REAL_HALO_TRANSPOSES,
    LinkedListRegistry,
    pack_naive,
    pack_sliced,
)


# ---------------------------------------------------------------------------
# A1 — canuto load balance
# ---------------------------------------------------------------------------

def loadbalance_study(
    size: str = "medium", rank_counts: Sequence[int] = (4, 16, 64)
) -> List[Tuple[int, ImbalanceStats]]:
    """Imbalance of the realistic land-sea mask vs rank count.

    Reproduces the Fig. 4 effect: more ranks => more blocks straddle the
    coastline => worse naive imbalance => bigger balanced-scheme win.
    """
    cfg = demo(size)
    grid = make_grid(cfg.ny, cfg.nx, cfg.nz)
    ocean = ~land_mask(grid)
    out = []
    for ranks in rank_counts:
        npy, npx = choose_process_grid(cfg.ny, cfg.nx, ranks)
        decomp = BlockDecomposition(cfg.ny, cfg.nx, npy, npx, north_fold=False)
        out.append((ranks, imbalance_stats(decomp, ocean)))
    return out


def format_loadbalance(rows: List[Tuple[int, ImbalanceStats]]) -> str:
    lines = [f"{'ranks':>6s} {'max cols':>9s} {'balanced':>9s} "
             f"{'imbalance':>10s} {'speedup':>8s}"]
    for ranks, s in rows:
        lines.append(
            f"{ranks:>6d} {s.naive_max:>9d} {s.balanced_max:>9d} "
            f"{s.imbalance_factor:>9.2f}x {s.speedup:>7.2f}x"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# A2 — pack and transpose strategies
# ---------------------------------------------------------------------------

def _time(fn: Callable, *args, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def pack_study(ny: int = 400, nx: int = 400, halo: int = 2) -> Dict[str, float]:
    """Wall time of the pack strategies on one boundary slab [s]."""
    arr = np.random.default_rng(0).standard_normal((ny, nx))
    rows, cols = slice(0, ny), slice(halo, 2 * halo)
    return {
        "naive": _time(pack_naive, arr, rows, cols),
        "sliced": _time(pack_sliced, arr, rows, cols),
    }


def transpose_study(nz: int = 80, n: int = 600, halo: int = 2) -> Dict[str, Dict[str, float]]:
    """Wall time of the Fig. 5 transpose implementations [s]."""
    rng = np.random.default_rng(1)
    real = rng.standard_normal((nz, halo, n))
    out: Dict[str, Dict[str, float]] = {"real": {}, "ghost": {}}
    for name, fn in REAL_HALO_TRANSPOSES.items():
        out["real"][name] = _time(fn, real)
    vmaj = REAL_HALO_TRANSPOSES["vectorized"](real)
    for name, fn in GHOST_HALO_TRANSPOSES.items():
        out["ghost"][name] = _time(fn, vmaj)
    return out


def fused_halo_study(
    ny: int = 48,
    nx: int = 64,
    nz: int = 8,
    n_fields: int = 6,
    npy: int = 2,
    npx: int = 2,
    rounds: int = 2,
) -> Tuple[TrafficLedger, TrafficLedger, float]:
    """Measured wire-message shape: per-field vs fused halo updates.

    Runs the same ``n_fields``-field 3-D halo update on a real
    ``npy x npx`` SimWorld twice through :class:`FusedHaloExchange` —
    once one field per exchange (the unaggregated K=1 shape), once all
    fields in one exchange — and returns ``(per_field_ledger,
    fused_ledger, aggregation)`` where ``aggregation`` is the
    per-field/fused message-count ratio that feeds the network model's
    ``aggregation`` knob.
    """
    decomp = BlockDecomposition(ny, nx, npy, npx)

    def local_fields(rank: int) -> List[np.ndarray]:
        ly, lx = decomp.local_shape(rank)
        rng = np.random.default_rng(100 + rank)
        return [rng.standard_normal((nz, ly, lx)) for _ in range(n_fields)]

    def per_field(comm) -> SimWorld:
        fields = local_fields(comm.rank)
        fx = FusedHaloExchange(comm, decomp, comm.rank)
        for _ in range(rounds):
            for f in fields:
                fx.exchange([f])
        return comm.world

    def fused(comm) -> SimWorld:
        fields = local_fields(comm.rank)
        fx = FusedHaloExchange(comm, decomp, comm.rank)
        for _ in range(rounds):
            fx.exchange(fields, phase="fused_halo")
        return comm.world

    # the world's traffic sums its ranks' ledgers: read it once every
    # rank has returned
    lp = SimWorld.run(per_field, npy * npx)[0].traffic
    lf = SimWorld.run(fused, npy * npx)[0].traffic
    return lp, lf, lp.messages / max(1, lf.messages)


def format_fused_halo(
    study: Tuple[TrafficLedger, TrafficLedger, float] | None = None,
) -> str:
    from ..perfmodel.network import ledger_message_summary

    per_field, fused, agg = fused_halo_study() if study is None else study
    lines = ["fused multi-field halo (4 ranks, 6 fields, 2 rounds):",
             "  per-field exchange:"]
    lines += [f"    {l}" for l in ledger_message_summary(per_field).splitlines()]
    lines.append("  fused exchange:")
    lines += [f"    {l}" for l in ledger_message_summary(fused).splitlines()]
    lines.append(f"  message aggregation factor: {agg:.2f}x")
    return "\n".join(lines)


def format_halo_ablation() -> str:
    packs = pack_study()
    trans = transpose_study()
    lines = ["pack strategies (one boundary slab):"]
    for name, t in packs.items():
        lines.append(f"  {name:<12s} {t * 1e3:8.3f} ms "
                     f"({packs['naive'] / t:6.1f}x vs naive)")
    for direction, rows in trans.items():
        lines.append(f"{direction}-halo transpose (Fig. 5):")
        for name, t in rows.items():
            lines.append(f"  {name:<12s} {t * 1e3:8.3f} ms "
                         f"({rows['naive'] / t:6.1f}x vs naive)")
    lines.append(format_fused_halo())
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# A3 — registry variants
# ---------------------------------------------------------------------------

def _make_functor_types(n: int) -> List[type]:
    return [type(f"BenchFunctor{i}", (), {"__call__": lambda self, i: None})
            for i in range(n)]


def registry_study(
    n_functors: int = 64, lookups: int = 2000, hot_fraction: float = 0.9
) -> Dict[str, Tuple[float, int]]:
    """(wall seconds, key comparisons) per registry variant.

    ``hot_fraction`` of lookups hit a small working set — the realistic
    access pattern (a model step launches the same kernels every step),
    which is what the LDM move-to-front cache exploits.
    """
    types = _make_functor_types(n_functors)
    rng = np.random.default_rng(7)
    hot = types[: max(1, n_functors // 8)]
    seq = [
        hot[rng.integers(len(hot))] if rng.random() < hot_fraction
        else types[rng.integers(len(types))]
        for _ in range(lookups)
    ]

    variants = {
        "linked_list": LinkedListRegistry(),
        "ll_ldm_cache": LinkedListRegistry(ldm_cache=True),
        "ll_simd": LinkedListRegistry(simd_width=8),
        "ll_ldm_simd": LinkedListRegistry(ldm_cache=True, simd_width=8),
        "dict": DictRegistry(),
    }
    out: Dict[str, Tuple[float, int]] = {}
    for name, reg in variants.items():
        for t in types:
            reg.register(RegistryEntry(t.__name__, t, "for", 1))
        t0 = time.perf_counter()
        for t in seq:
            reg.lookup(t)
        elapsed = time.perf_counter() - t0
        # the hash map keeps no counter: one probe per lookup by construction
        out[name] = (elapsed, len(seq) if isinstance(reg, DictRegistry)
                     else reg.comparisons)
    return out


def format_registry_ablation() -> str:
    rows = registry_study()
    base_t, base_c = rows["linked_list"]
    lines = [f"{'registry':<14s} {'time[ms]':>9s} {'comparisons':>12s} "
             f"{'cmp reduction':>14s}"]
    for name, (t, c) in rows.items():
        lines.append(
            f"{name:<14s} {t * 1e3:>9.3f} {c:>12d} {base_c / max(c, 1):>13.2f}x"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# A4 — step-graph capture & replay
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GraphStudy:
    """Launches-per-step accounting: eager dispatch vs sealed graph."""

    eager_launches_per_step: float   # instrumented, steady state
    captured_launches: int           # nodes recorded during capture
    replay_launches: int             # launches one replay issues
    fused_groups: int                # adjacent runs merged by the pass
    eager_steps_per_sec: float
    graph_steps_per_sec: float

    @property
    def launches_saved(self) -> int:
        return self.captured_launches - self.replay_launches

    @property
    def speedup(self) -> float:
        return self.graph_steps_per_sec / max(self.eager_steps_per_sec, 1e-30)


def graph_study(size: str = "tiny", steps: int = 6) -> GraphStudy:
    """A4 — measure the launch-count and wall-clock effect of replay.

    Both runs warm up past the Euler start step and one leapfrog period
    before timing, so the graph run times pure replay (every capture
    happened during warmup) and the eager run times the same
    steady-state step sequence.
    """
    from ..kokkos import Instrumentation, SerialBackend
    from ..ocean import LICOMKpp, demo
    from ..ocean.model import ModelParams

    cfg = demo(size)

    def run(params: ModelParams):
        inst = Instrumentation()
        model = LICOMKpp(cfg, backend=SerialBackend(inst=inst), params=params)
        model.run_steps(4)          # past the Euler start and every capture
        inst.reset()
        t0 = time.perf_counter()
        model.run_steps(steps)
        dt = time.perf_counter() - t0
        return model, inst, steps / dt

    eager_model, eager_inst, eager_sps = run(ModelParams(graph=False))
    graph_model, _, graph_sps = run(ModelParams())
    steady = [g for (startup, _, _), g in graph_model._graphs.items()
              if not startup]
    graph = steady[0] if steady else next(iter(graph_model._graphs.values()))
    return GraphStudy(
        eager_launches_per_step=eager_inst.total_launches / steps,
        captured_launches=graph.captured_launches,
        replay_launches=graph.launches_per_replay,
        fused_groups=graph.fused_groups,
        eager_steps_per_sec=eager_sps,
        graph_steps_per_sec=graph_sps,
    )


def format_graph_ablation(study: GraphStudy | None = None) -> str:
    s = graph_study() if study is None else study
    lines = [
        "step-graph capture & replay (tiny, serial, steady state):",
        f"  eager launches/step:   {s.eager_launches_per_step:8.1f}",
        f"  captured launches:     {s.captured_launches:8d}",
        f"  replay launches/step:  {s.replay_launches:8d} "
        f"({s.fused_groups} fused groups, {s.launches_saved} saved)",
        f"  eager steps/sec:       {s.eager_steps_per_sec:8.2f}",
        f"  graph steps/sec:       {s.graph_steps_per_sec:8.2f} "
        f"({s.speedup:.2f}x)",
    ]
    return "\n".join(lines)
