#!/usr/bin/env python
"""Performance portability: one model source, four execution spaces.

The paper's central claim is that LICOMK++ runs unchanged on Sunway
(Athread), CUDA/HIP GPUs and CPUs.  This demo steps the identical model
through each simulated backend and verifies the results are *bitwise*
identical, then shows the backend-specific machinery at work: the
Athread tile distribution (Eq. 1-2 of the paper), LDM occupancy and DMA
traffic, and the CUDA/HIP host<->device transfer ledger.

Usage:  python examples/portability_demo.py
"""

import time

import numpy as np

from repro.kokkos import Instrumentation, make_backend
from repro.ocean import LICOMKpp, demo

STEPS = 4


def run_on(backend_name: str):
    inst = Instrumentation()
    backend = make_backend(backend_name, inst=inst)
    model = LICOMKpp(demo("tiny"), backend=backend)
    t0 = time.perf_counter()
    model.run_steps(STEPS)
    elapsed = time.perf_counter() - t0
    return model, backend, elapsed


def main() -> None:
    print(f"stepping the tiny config {STEPS} steps on every backend\n")
    reference = None
    print(f"{'backend':<10s} {'model':<9s} {'time':>8s} {'bitwise'}")
    for name in ("serial", "openmp", "athread", "cuda", "hip"):
        model, backend, elapsed = run_on(name)
        if reference is None:
            reference = model.state.t.cur.raw.copy()
            same = "reference"
        else:
            same = "identical" if np.array_equal(
                model.state.t.cur.raw, reference) else "DIFFERS"
        print(f"{name:<10s} {backend.programming_model:<9s} "
              f"{elapsed:7.2f}s  {same}")

    # -- Athread internals --------------------------------------------------
    model, backend, _ = run_on("athread")
    ntiles, per_cpe = backend.last_distribution
    print("\nAthread backend internals (the paper's Eq. 1-2 machinery):")
    print(f"  last kernel: {ntiles} tiles -> {per_cpe} tiles/CPE over "
          f"{backend.num_cpes} CPEs")
    print(f"  LDM high water: {backend.ldm_high_water()} / "
          f"{backend.ldm[0].capacity} bytes")
    tr = backend.inst.transfers
    print(f"  DMA traffic: {tr.dma_get_bytes / 1e6:.1f} MB in, "
          f"{tr.dma_put_bytes / 1e6:.1f} MB out, "
          f"{tr.dma_bytes / 1e6:.1f} MB total ({tr.dma_count} transfers)")
    print(f"  transfer ledger: {tr}")

    # -- device internals -----------------------------------------------------
    model, backend, _ = run_on("cuda")
    tr = backend.inst.transfers
    print("\nCUDA backend internals (no GPU-aware MPI: halos cross PCIe):")
    print(f"  kernel launches: {backend.inst.total_launches}")
    print(f"  H2D {tr.h2d_bytes / 1e6:.1f} MB / D2H {tr.d2h_bytes / 1e6:.1f} MB "
          "per run (the paper's 'daily memory copies')")


if __name__ == "__main__":
    main()
