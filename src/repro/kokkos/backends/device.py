"""Simulated CUDA/HIP device backend.

Models the discrete-GPU execution spaces of the GPU workstation (CUDA,
V100) and ORISE (HIP, GPGPU-like accelerators) from Table II.  The
simulation enforces the two behaviours that shape real ports:

* **Separate memory space.**  Functors launched on the device must hold
  only :data:`~repro.kokkos.spaces.DeviceSpace` views; host views raise
  :class:`~repro.errors.BackendError` (real device kernels cannot
  dereference pageable host memory).  Host code conversely cannot touch
  device views outside kernels — the mirror-view / ``deep_copy``
  discipline, whose H2D/D2H traffic lands in the transfer ledger (the
  paper's heterogeneous systems "lack support for GPU-aware MPI", so
  halo data crosses this boundary every exchange).
* **Launch cost.**  Each ``parallel_for`` is one kernel launch; the
  machine model charges a per-launch overhead, which is what makes many
  tiny kernels expensive on GPUs (the paper's "hotspot dispersion"
  observation, §VII-D).

Execution itself is a single whole-range tile evaluated inside a
:class:`~repro.kokkos.view.kernel_context`, so results are identical to
Serial.  A launch is :class:`_DevicePlan`, run once eagerly or replayed
by a sealed graph; both count one kernel launch, in the rank's
:class:`~repro.kokkos.instrument.Instrumentation` (the space keeps no
counter of its own).  Thread-block geometry only affects the cost model
(:mod:`repro.perfmodel.kernelcost`), not functional results.
"""

from __future__ import annotations

from typing import Optional

from ...errors import BackendError
from .. import jit as _jit
from ..instrument import Instrumentation
from ..policy import MDRangePolicy
from ..spaces import DeviceSpace
from ..view import kernel_context
from .base import (
    ExecutionSpace,
    LaunchPlan,
    Reducer,
    functor_cost,
    functor_views,
    reduce_tile,
)


class _DevicePlan(LaunchPlan):
    """Memory-space proof and block geometry precomputed.

    Every run executes inside a ``kernel_context`` and records one
    launch in ``inst`` — the simulated device semantics and the
    per-launch cost the perfmodel charges.
    """

    __slots__ = ("_blocks",)

    def __init__(self, space, label, policy, functor) -> None:
        super().__init__(space, label, policy, functor)
        space._check_device_views(functor)
        self._sweep = _jit.compile_sweep(
            functor, [space._full_slices(policy)])
        self._blocks = max(1, -(-policy.size // space.threads_per_block))

    def run(self) -> None:
        with kernel_context():
            self._sweep()
        self._record(tiles=self._blocks)


class DeviceBackend(ExecutionSpace):
    """Simulated discrete accelerator (CUDA or HIP flavour)."""

    name = "device"
    programming_model = "CUDA"
    plan_class = _DevicePlan

    def __init__(
        self,
        kind: str = "cuda",
        threads_per_block: int = 256,
        inst: Optional[Instrumentation] = None,
    ) -> None:
        super().__init__(inst)
        if kind not in ("cuda", "hip"):
            raise ValueError(f"unknown device kind {kind!r}")
        self.kind = kind
        self.name = kind
        self.programming_model = "CUDA" if kind == "cuda" else "HIP"
        self.threads_per_block = threads_per_block
        # A V100 has 80 SMs x 2048 resident threads; the model only needs
        # "very parallel", so expose a representative concurrency.
        self.concurrency = 163840
        self.memory_space = DeviceSpace

    def _check_device_views(self, functor) -> None:
        bad = [
            v.label for v in functor_views(functor) if v.space.host_accessible
        ]
        if bad:
            raise BackendError(
                f"{self.programming_model} kernels require device-space views; "
                f"functor {type(functor).__name__} holds host views: {bad}. "
                "Allocate with space=DeviceSpace and deep_copy from mirrors."
            )

    def run_reduce(self, label: str, policy: MDRangePolicy, functor, reducer: Reducer):
        self._check_device_views(functor)
        with kernel_context():
            result = reduce_tile(functor, self._full_slices(policy), reducer)
        flops, nbytes = functor_cost(functor)
        self.inst.record_launch(
            label, points=policy.size,
            tiles=max(1, -(-policy.size // self.threads_per_block)),
            flops_per_point=flops, bytes_per_point=nbytes)
        if result is None:
            result = reducer.identity
        return result
