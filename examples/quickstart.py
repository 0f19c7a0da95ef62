#!/usr/bin/env python
"""Quickstart: build a global ocean model, run it, look at the output.

Runs the small demo configuration (about 8-degree resolution, 6 levels)
for a few simulated days on the serial backend, then prints the SST
structure, the circulation, and the per-kernel instrumentation the
performance model consumes.

Usage:  python examples/quickstart.py [days]
"""

import sys

import numpy as np

from repro.ocean import LICOMKpp, demo, rossby_stats, sst_stats


def main(days: float = 5.0) -> None:
    config = demo("small")
    print(f"config: {config.name}  grid {config.nx}x{config.ny}x{config.nz}  "
          f"dt = {config.dt_barotropic:.0f}/{config.dt_baroclinic:.0f}/"
          f"{config.dt_tracer:.0f} s (barotropic/baroclinic/tracer)")

    model = LICOMKpp(config, backend="serial")
    print(f"ocean fraction: {model.topo.ocean_fraction:.2f}, "
          f"max depth: {model.topo.max_depth:.0f} m")

    print(f"\nrunning {days:.0f} simulated days "
          f"({int(days * 86400 / config.dt_baroclinic)} steps)...")
    model.run_days(days)

    s = sst_stats(model)
    print("\nsea-surface temperature:")
    print(f"  range          {s.min:6.2f} .. {s.max:6.2f} C")
    print(f"  warm pool      {s.tropical_mean:6.2f} C (|lat| < 15)")
    print(f"  polar mean     {s.polar_mean:6.2f} C (|lat| > 60)")
    print(f"  N-S gradient   {s.meridional_gradient:6.2f} C")

    ro = rossby_stats(model)
    print("\ncirculation:")
    print(f"  kinetic energy     {model.kinetic_energy():.3e}")
    print(f"  max surface speed  {model.surface_speed().max():.3f} m/s")
    print(f"  rms |Ro|           {ro.rms:.2e}")
    print(f"  ssh range          {model.state.ssh.cur.raw.min():+.2f} .. "
          f"{model.state.ssh.cur.raw.max():+.2f} m")

    print("\ntimers:")
    print(model.timers.report())

    print("\nkernel instrumentation (top rows feed the machine model):")
    print("\n".join(model.context.inst.report().splitlines()[:10]))
    model.close()


if __name__ == "__main__":
    main(float(sys.argv[1]) if len(sys.argv) > 1 else 5.0)
