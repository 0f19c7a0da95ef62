"""``repro.parallel`` — the distributed-memory substrate.

Simulated MPI (:mod:`.comm`), 2-D block decomposition with tripolar-fold
topology (:mod:`.decomp`), the one halo exchange — fused, persistent,
post-first; a per-field update is its K=1 case (:mod:`.halo`) — Canuto
load balancing (:mod:`.loadbalance`) and computation/communication
overlap (:mod:`.overlap`).  The unoptimized pack and transpose variants
the paper measures against live in :mod:`repro.experiments.variants`.
"""

from .comm import Request, SimComm, SimWorld, SingleComm, TrafficLedger
from .decomp import (
    DEFAULT_HALO,
    Block,
    BlockDecomposition,
    Partitioner,
    Placement,
    choose_process_grid,
)
from .halo import (
    BufferPool,
    FieldSpec,
    FusedHaloExchange,
    HaloUpdater,
    as_field_specs,
)
from .loadbalance import (
    ImbalanceStats,
    balanced_column_compute,
    imbalance_stats,
    local_ocean_columns,
    naive_column_compute,
    partition_evenly,
)
from .procworld import ProcComm, ProcessRunResult, run_process_world
from .shm import (
    SharedBufferPool,
    list_world_segments,
    sweep_world_segments,
)
from .overlap import (
    boundary_strip,
    interior_core,
    overlap_time,
    overlapped_update_fused,
)

__all__ = [
    "SimWorld", "SimComm", "SingleComm", "Request", "TrafficLedger",
    "BlockDecomposition", "Block", "choose_process_grid", "DEFAULT_HALO",
    "Placement", "Partitioner",
    "ProcComm", "ProcessRunResult", "run_process_world",
    "SharedBufferPool", "list_world_segments", "sweep_world_segments",
    "HaloUpdater", "FusedHaloExchange", "FieldSpec", "BufferPool",
    "as_field_specs",
    "balanced_column_compute", "naive_column_compute", "local_ocean_columns",
    "partition_evenly", "imbalance_stats", "ImbalanceStats",
    "overlapped_update_fused", "overlap_time",
    "interior_core", "boundary_strip",
]
