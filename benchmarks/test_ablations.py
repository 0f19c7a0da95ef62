"""Ablation benchmarks: the paper's individual optimizations, measured.

A1  canuto load balance (Fig. 4)
A2  pack/unpack rewrite + 3-D halo transposes (Fig. 5)
A3  functor-registry matching (LDM cache / SIMD, §V-B)
A4  optimized-vs-original at scale (§VIII, via the machine model)
"""

import numpy as np
import pytest

from repro.experiments import ablations, performance
from repro.experiments.variants import (
    GHOST_HALO_TRANSPOSES,
    REAL_HALO_TRANSPOSES,
    LinkedListRegistry,
    pack_naive,
    pack_sliced,
)
from repro.kokkos.registry import DictRegistry, RegistryEntry
from repro.ocean import demo, make_grid, make_topography
from repro.parallel import (
    BlockDecomposition,
    FusedHaloExchange,
    SimWorld,
    SingleComm,
)


# ---------------------------------------------------------------------------
# A1 — load balance
# ---------------------------------------------------------------------------

def test_a1_loadbalance_study(benchmark, save_artifact):
    rows = benchmark.pedantic(
        ablations.loadbalance_study,
        kwargs=dict(size="small", rank_counts=(4, 16, 36)), rounds=1, iterations=1)
    save_artifact("ablation_a1_loadbalance", ablations.format_loadbalance(rows))
    # the paper's motivation: imbalance is material at scale
    assert rows[-1][1].imbalance_factor > 1.2


@pytest.mark.parametrize("mode", ["naive", "balanced"])
def test_a1_column_compute(benchmark, mode):
    """Wall time of the canuto column sweep, naive vs redistributed.

    The compute function is deliberately costly so the distribution
    strategy dominates, as in the real kernel.
    """
    from repro.parallel import balanced_column_compute, naive_column_compute

    cfg = demo("tiny")
    grid = make_grid(cfg.ny, cfg.nx, cfg.nz)
    mask = ~np.asarray(make_topography(grid).kmt == 0)
    mask[:, cfg.nx // 2:] = False  # skew all work onto western blocks
    d = BlockDecomposition(cfg.ny, cfg.nx, 2, 2)
    fn = {"naive": naive_column_compute, "balanced": balanced_column_compute}[mode]

    def run():
        def prog(comm):
            return len(fn(comm, d, mask, lambda c: float(np.sum(np.arange(200.0)))))

        return SimWorld.run(prog, 4)

    counts = benchmark.pedantic(run, rounds=3, iterations=1)
    assert sum(counts) == int(mask.sum())


# ---------------------------------------------------------------------------
# A2 — pack and 3-D halo strategies
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("packer", ["naive", "sliced"])
def test_a2_pack(benchmark, packer):
    arr = np.random.default_rng(0).standard_normal((600, 600))
    fn = {"naive": pack_naive, "sliced": pack_sliced}[packer]
    out = benchmark(fn, arr, slice(0, 600), slice(2, 4))
    assert out.shape == (600, 2)


@pytest.mark.parametrize("impl", ["naive", "blocked", "vectorized"])
def test_a2_real_halo_transpose(benchmark, impl):
    halo = np.random.default_rng(1).standard_normal((80, 2, 400))
    out = benchmark(REAL_HALO_TRANSPOSES[impl], halo)
    assert out.shape == (2, 400, 80)


@pytest.mark.parametrize("impl", ["naive", "blocked", "vectorized"])
def test_a2_ghost_halo_transpose(benchmark, impl):
    buf = np.random.default_rng(2).standard_normal((2, 400, 80))
    out = benchmark(GHOST_HALO_TRANSPOSES[impl], buf)
    assert out.shape == (80, 2, 400)


@pytest.mark.parametrize("method", ["per_level", "transposed"])
def test_a2_halo3d_method(benchmark, method):
    """Full 3-D halo update, per-level messages vs one message per
    neighbour — the production exchange fed one level / the whole slab."""
    ny, nx, nz = 40, 48, 30
    d = BlockDecomposition(ny, nx, 1, 1)
    g = np.random.default_rng(3).standard_normal((nz, ny, nx))
    loc = d.scatter_global(g, 0)
    fx = FusedHaloExchange(SingleComm(), d, 0)
    updates = [[loc[k]] for k in range(nz)] if method == "per_level" else [[loc]]

    def update():
        for fields in updates:
            fx.exchange(fields)

    benchmark(update)


def test_a2_artifact(benchmark, save_artifact):
    save_artifact("ablation_a2_halo", benchmark.pedantic(
        ablations.format_halo_ablation, rounds=1, iterations=1))


# ---------------------------------------------------------------------------
# A3 — registry matching
# ---------------------------------------------------------------------------

def _registry(variant):
    return {
        "linked_list": lambda: LinkedListRegistry(),
        "ll_ldm_cache": lambda: LinkedListRegistry(ldm_cache=True),
        "ll_simd": lambda: LinkedListRegistry(simd_width=8),
        "ll_ldm_simd": lambda: LinkedListRegistry(ldm_cache=True, simd_width=8),
        "dict": lambda: DictRegistry(),
    }[variant]()


@pytest.mark.parametrize(
    "variant", ["linked_list", "ll_ldm_cache", "ll_simd", "ll_ldm_simd", "dict"]
)
def test_a3_registry_lookup(benchmark, variant):
    types = [type(f"B{i}", (), {}) for i in range(64)]
    reg = _registry(variant)
    for t in types:
        reg.register(RegistryEntry(t.__name__, t, "for", 1))
    hot = types[:8]

    def lookups():
        for _ in range(20):
            for t in hot:
                reg.lookup(t)

    benchmark(lookups)


def test_a3_artifact(benchmark, save_artifact):
    save_artifact("ablation_a3_registry", benchmark.pedantic(
        ablations.format_registry_ablation, rounds=1, iterations=1))


# ---------------------------------------------------------------------------
# A4 — optimized vs original at scale
# ---------------------------------------------------------------------------

def test_a4_optimization_speedups(benchmark, save_artifact):
    text = benchmark(performance.format_optimizations)
    save_artifact("ablation_a4_optimizations", text)
    assert "km_1km" in text

