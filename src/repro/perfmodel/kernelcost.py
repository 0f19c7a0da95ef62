"""Per-step kernel cost profile: measured counts -> roofline times.

The machine model never guesses what LICOMK++ does per step — it
*measures* it.  :func:`measure_step_profile` runs the real model at
laptop scale with instrumentation enabled and extracts per-grid-point
flop/byte totals plus the communication schedule (halo-update counts).
Because every kernel is resolution-independent, the per-point counts
are exact at the paper's kilometre-scale sizes; only the barotropic
subcycle length varies (Table III), which the profile keeps symbolic.

:data:`DEFAULT_PROFILE` is one such measurement, frozen so the scaling
experiments do not have to re-run the model; the benchmark suite
re-measures and asserts agreement.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from .machines import MachineSpec

#: Fraction of the per-launch fixed cost still paid when the launch is
#: replayed from a sealed graph.  A sealed plan's bound sweep
#: (repro.kokkos.jit) removes the host-side dispatch of the launch
#: (policy normalisation, registry walk, per-tile slice walks) but not
#: the launch itself — spawn/join on the CPEs or the device kernel
#: launch — so a replayed launch is modelled as a constant fraction of
#: the machine's ``launch_overhead``, calibrated against the measured
#: eager-vs-replayed step wall-clock split.
JIT_DISPATCH_FRACTION = 0.3


@dataclass(frozen=True)
class StepProfile:
    """Per-baroclinic-step cost coefficients of the model.

    * ``bytes3 / flops3`` — per 3-D grid point, from all 3-D kernels
      (independent of the barotropic subcycle length).
    * ``bytes2_sub / flops2_sub`` — per 2-D (horizontal) point *per
      barotropic substep*.
    * ``launches_fixed / launches_per_sub`` — kernel launches per step.
    * ``halo3_per_step`` — 3-D halo updates per step (momentum x2,
      post-barotropic x2, and 5 per tracer for the diffuse-then-advect
      two-step shape-preserving scheme).
    * ``halo2_per_sub`` — 2-D halo updates per barotropic substep
      (eta).
    * ``halo2_per_step`` — 2-D halo updates once per step: the
      depth-mean force (gx, gy) riding on the momentum exchange, and
      (ub, vb) after the last substep.
    """

    bytes3: float
    flops3: float
    bytes2_sub: float
    flops2_sub: float
    launches_fixed: float
    launches_per_sub: float
    halo3_per_step: int
    halo2_per_sub: int
    halo2_per_step: int
    #: Launches removed per step by the graph's fusion pass (flops/bytes
    #: are unchanged — fusion only merges launch boundaries).
    launches_fused_saved: float = 0.0

    def launches(self, nsub: int) -> float:
        return self.launches_fixed + self.launches_per_sub * nsub

    def halo2(self, nsub: int) -> int:
        """2-D halo updates per step."""
        return self.halo2_per_sub * nsub + self.halo2_per_step

    def launches_graph(self, nsub: int) -> float:
        """Launches per replayed step when the graph fusion pass is on."""
        return max(0.0, self.launches(nsub) - self.launches_fused_saved)

    def launch_overheads(self, nsub: int, graph: bool = False) -> float:
        """Equivalent full-cost launches per step.

        Under ``graph`` every one of the post-fusion launches is
        replayed from a sealed plan and pays
        :data:`JIT_DISPATCH_FRACTION` of a launch — the same discount
        predicted timelines apply to replayed kernel spans.
        """
        if not graph:
            return self.launches(nsub)
        return JIT_DISPATCH_FRACTION * self.launches_graph(nsub)


#: Frozen measurement (tiny demo config, 4 steps, serial backend); see
#: ``measure_step_profile`` for the live version.  Units: bytes / flops
#: per point per step.
DEFAULT_PROFILE = StepProfile(
    bytes3=903.0,
    flops3=284.0,
    bytes2_sub=168.5,    # momentum runs on the interior grown by its
    flops2_sub=50.6,     # south / west ring
    launches_fixed=34.0,
    launches_per_sub=2.0,
    halo3_per_step=14,   # 4 momentum + 5 per tracer (diffused field, T*,
                         # R+, R-, new) x 2 tracers
    halo2_per_sub=1,     # eta
    halo2_per_step=4,    # gx, gy, ub, vb
    launches_fused_saved=16.0,  # launches_graph(6) is the tiny steady
                                # graph's 30 launches per replay
)


def measure_step_profile(size: str = "tiny", steps: int = 4) -> StepProfile:
    """Run the real model and extract its :class:`StepProfile`.

    Warms up past the Euler start step, resets the instrumentation, runs
    ``steps`` leapfrog steps, and normalises the counters.
    """
    from ..kokkos import Instrumentation, SerialBackend
    from ..ocean import LICOMKpp, ModelParams, demo

    cfg = demo(size)
    inst = Instrumentation()
    # eager: the profile counts every kernel's own launch, which a
    # sealed graph would fuse
    model = LICOMKpp(cfg, backend=SerialBackend(inst=inst),
                     params=ModelParams(graph=False))
    model.run_steps(2)
    inst.reset()
    model.halo.updates2d = 0
    model.halo.updates3d = 0
    model.run_steps(steps)

    n3 = cfg.grid_points
    n2 = cfg.horizontal_points
    nsub = cfg.barotropic_substeps
    baro_labels = ("barotropic_continuity", "barotropic_momentum")
    bytes2 = sum(inst.kernels[k].bytes for k in baro_labels if k in inst.kernels)
    flops2 = sum(inst.kernels[k].flops for k in baro_labels if k in inst.kernels)
    bytes3 = sum(k.bytes for k in inst.kernels.values()) - bytes2
    flops3 = sum(k.flops for k in inst.kernels.values()) - flops2
    launches = inst.total_launches
    launches_per_sub = 2.0
    # every substep exchanges the same 2-D fields; the updates a step
    # makes beyond a whole number per substep (fewer than nsub) are the
    # once-per-step ones
    halo2_per_sub, halo2_per_step = divmod(
        round(model.halo.updates2d / steps), nsub)
    return StepProfile(
        bytes3=bytes3 / steps / n3,
        flops3=flops3 / steps / n3,
        bytes2_sub=bytes2 / steps / n2 / nsub,
        flops2_sub=flops2 / steps / n2 / nsub,
        launches_fixed=launches / steps - launches_per_sub * nsub,
        launches_per_sub=launches_per_sub,
        halo3_per_step=round(model.halo.updates3d / steps),
        halo2_per_sub=halo2_per_sub,
        halo2_per_step=halo2_per_step,
    )


def compute_time_per_step(
    profile: StepProfile,
    machine: MachineSpec,
    points3_per_unit: float,
    points2_per_unit: float,
    nsub: int,
    fortran: bool = False,
    graph: bool = False,
) -> float:
    """Roofline time of one rank's computation for one baroclinic step.

    The ocean model is memory-bandwidth bound on every system (§VII-D:
    "very low computation-to-memory ratio"), so the roofline is
    ``max(bytes/BW, flops/peak)`` plus kernel-launch overhead.  The
    ``fortran`` flag models the original LICOM3 baseline: host-only
    execution at the machine's host bandwidth and Fortran efficiency.
    ``graph`` models step-graph replay: the flop/byte work is
    unchanged, ``launches_fused_saved`` fewer launches are issued per
    step and each pays :data:`JIT_DISPATCH_FRACTION` of a launch
    overhead (:meth:`StepProfile.launch_overheads`).
    """
    if fortran:
        bw = machine.host_bw * machine.host_efficiency
        peak = machine.peak_flops_unit * machine.units_per_node  # unused path
        bytes_total = (
            profile.bytes3 * points3_per_unit * machine.units_per_node
            + profile.bytes2_sub * points2_per_unit * machine.units_per_node * nsub
        )
        return bytes_total / bw
    bw = machine.effective_bw_unit
    peak = machine.peak_flops_unit
    t3 = max(
        profile.bytes3 * points3_per_unit / bw,
        profile.flops3 * points3_per_unit / peak,
    )
    t2 = nsub * max(
        profile.bytes2_sub * points2_per_unit / bw,
        profile.flops2_sub * points2_per_unit / peak,
    )
    t_launch = profile.launch_overheads(nsub, graph) * machine.launch_overhead
    return t3 + t2 + t_launch
