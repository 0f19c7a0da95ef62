"""§VII-D analysis artifacts: step breakdown, DMA double buffering, Fig. 3 map.

* the per-component time breakdown behind the "why is ORISE faster than
  Sunway" discussion;
* the A5 ablation: double-buffered DMA pipeline speedup vs arithmetic
  intensity (§V-C2, the advection_tracer optimization);
* the mixed-precision projection (§VIII future work);
* a textual Fig. 3 (system-overview) map: paper component -> module.
"""

import numpy as np

from repro.ocean.config import PAPER_CONFIGS
from repro.perfmodel import (
    cpe_pipeline_time,
    double_buffer_speedup,
    format_breakdown_table,
    policy_projection,
    step_breakdown,
)

CFG1 = PAPER_CONFIGS["km_1km"]


def test_step_breakdown_artifact(benchmark, save_artifact):
    def build():
        return format_breakdown_table(
            CFG1, [("orise", 16000), ("new_sunway", 590250)]
        )

    text = benchmark(build)
    save_artifact("section7d_step_breakdown", text)
    # the paper's bandwidth argument: Sunway's compute3 share dominates
    sunway = step_breakdown(CFG1, "new_sunway", 590250)
    orise = step_breakdown(CFG1, "orise", 16000)
    assert sunway.compute3 > orise.compute3


def test_a5_double_buffer_ablation(benchmark, save_artifact):
    def sweep():
        lines = [f"{'flops/byte':>11s} {'speedup':>8s} {'dma bound':>10s}"]
        for ai in (0.5, 1, 2, 5, 10, 20, 50, 100):
            sp = double_buffer_speedup(800_000, 80.0, 80.0 * ai)
            est = cpe_pipeline_time(800_000, 80.0, 80.0 * ai)
            lines.append(f"{ai:>11.1f} {sp:>7.2f}x {str(est.dma_bound):>10s}")
        return "\n".join(lines)

    text = benchmark(sweep)
    save_artifact("ablation_a5_double_buffering", text)
    # the optimization approaches 2x where DMA and compute balance
    assert double_buffer_speedup(800_000, 80.0, 800.0) > 1.7


def test_mixed_precision_projection(benchmark, save_artifact):
    def build():
        lines = [f"{'machine':<14s} {'double':>8s} {'single':>8s} {'speedup':>8s}"]
        for machine, units in (("new_sunway", 590250), ("orise", 16000)):
            d, s, sp = policy_projection(CFG1, machine, units, "single")
            lines.append(f"{machine:<14s} {d:>8.3f} {s:>8.3f} {sp:>7.2f}x")
        lines.append("(SViii: the bandwidth-bound Sunway benefits most)")
        return "\n".join(lines)

    text = benchmark(build)
    save_artifact("section8_mixed_precision", text)


def test_fig3_overview_map(benchmark, save_artifact):
    """Fig. 3 is the system-overview schematic; its reproducible content
    is the component -> implementation mapping."""

    def build():
        rows = [
            ("primitive equations", "repro.ocean (grid/baroclinic/barotropic/tracer)"),
            ("two-step shape-preserving advection", "repro.ocean.kernels_tracer"),
            ("canuto vertical mixing", "repro.ocean.vmix_canuto"),
            ("Kokkos parallel dispatch", "repro.kokkos.parallel"),
            ("KOKKOS_REGISTER_FOR macros", "repro.kokkos.functor"),
            ("linked-list functor registry", "repro.experiments.variants"),
            ("Athread backend (this work)", "repro.kokkos.backends.athread"),
            ("CUDA / HIP backends", "repro.kokkos.backends.device"),
            ("OpenMP backend", "repro.kokkos.backends.openmp"),
            ("SW26010 Pro: 6 CG x (MPE + 64 CPE)", "repro.perfmodel.machines"),
            ("LDM (256 kB) + DMA", "repro.kokkos.ldm"),
            ("MPI halo exchange + tripolar fold", "repro.parallel.halo"),
            ("3-D halo transposes (Fig. 5)", "repro.experiments.variants"),
            ("canuto load balance (Fig. 4)", "repro.parallel.loadbalance"),
        ]
        width = max(len(a) for a, _ in rows)
        return "\n".join(f"{a:<{width}s}  ->  {b}" for a, b in rows)

    text = benchmark(build)
    save_artifact("fig3_overview_map", text)
    assert "athread" in text
