#!/usr/bin/env python
"""§VII-D / §VIII analysis: where the time goes, and what would help.

Prints the per-component step-time breakdown at the paper's full-machine
scales (the quantified version of the paper's "why ORISE beats the new
Sunway" discussion), the double-buffered DMA pipeline sweep (§V-C2), and
the mixed-precision projection (§VIII).

Usage:  python examples/machine_analysis.py
"""

from repro.ocean.config import PAPER_CONFIGS
from repro.perfmodel import (
    cpe_pipeline_time,
    double_buffer_speedup,
    format_breakdown_table,
    policy_projection,
    step_breakdown,
)


def main() -> None:
    cfg = PAPER_CONFIGS["km_1km"]

    print("=" * 72)
    print("per-component step time, 1-km configuration at full scale")
    print("=" * 72)
    print(format_breakdown_table(cfg, [("orise", 16000), ("new_sunway", 590250)]))
    sunway = step_breakdown(cfg, "new_sunway", 590250)
    orise = step_breakdown(cfg, "orise", 16000)
    print(f"\nthe paper's memory-bandwidth argument: Sunway spends "
          f"{sunway.compute3 * 1e3:.1f} ms/step in 3-D kernels vs ORISE's "
          f"{orise.compute3 * 1e3:.1f} ms (51.2 GB/s per CG vs ~1 TB/s HBM)")

    print()
    print("=" * 72)
    print("double-buffered DMA pipeline (SV-C2, advection_tracer on CPEs)")
    print("=" * 72)
    print(f"{'flops/byte':>11s} {'speedup':>8s} {'bound by'}")
    for ai in (0.5, 1, 2, 5, 10, 20, 50):
        sp = double_buffer_speedup(800_000, 80.0, 80.0 * ai)
        est = cpe_pipeline_time(800_000, 80.0, 80.0 * ai)
        bound = "DMA" if est.dma_bound else "compute"
        print(f"{ai:>11.1f} {sp:>7.2f}x {bound}")

    print()
    print("=" * 72)
    print("mixed-precision projection (SViii future work)")
    print("=" * 72)
    for machine, units, label in (
        ("new_sunway", 590250, "new Sunway, 38,366,250 cores"),
        ("orise", 16000, "ORISE, 16,000 HIP GPUs"),
    ):
        d, s, sp = policy_projection(cfg, machine, units, "single")
        print(f"{label:<32s} {d:6.3f} -> {s:6.3f} SYPD  ({sp:.2f}x)")
    print("(the bandwidth-bound Sunway gains most from halved traffic)")


if __name__ == "__main__":
    main()
