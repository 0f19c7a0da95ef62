"""Merging per-rank ledgers into the job-level view (§VI-C).

With :class:`~repro.kokkos.context.ExecutionContext` giving every rank
its own :class:`~repro.kokkos.instrument.Instrumentation`, the paper's
job-level numbers (total flops, transfer volumes, workspace traffic)
are recovered by folding the per-rank ledgers back together — and the
*spread* across ranks is exactly the measured load imbalance the
scaling model's ``rank_imbalance`` term consumes.

:func:`aggregate` accepts contexts, models, or bare ``Instrumentation``
objects interchangeably (anything exposing ``.inst`` or being one).
When ranks are balanced, predictions driven by the merged ledger equal
the single-ledger predictions exactly: merging is a pure sum and
:func:`load_imbalance` is 1.0.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

from ..kokkos.instrument import Instrumentation


def _resolve(obj) -> Instrumentation:
    if isinstance(obj, Instrumentation):
        return obj
    inst = getattr(obj, "inst", None)          # context or space
    if inst is None:                           # model
        inst = getattr(getattr(obj, "context", None), "inst", None)
    if isinstance(inst, Instrumentation):
        return inst
    raise TypeError(
        f"cannot resolve an Instrumentation from {type(obj).__name__}")


def aggregate(contexts: Iterable) -> Instrumentation:
    """Merge per-rank ledgers into one job-level ``Instrumentation``.

    ``contexts`` may hold :class:`ExecutionContext` objects, models, or
    ``Instrumentation`` instances.  The inputs are left untouched; the
    returned ledger's totals are the exact sums of the per-rank totals,
    so on a balanced workload it reproduces the single shared-ledger
    run bit for bit.
    """
    merged = Instrumentation()
    for ctx in contexts:
        merged.merge_from(_resolve(ctx))
    return merged


def merge_traffic(ledgers: Iterable):
    """Merge per-rank :class:`~repro.parallel.comm.TrafficLedger` objects
    into one fresh job-level ledger.

    The traffic analog of :func:`aggregate`: process-backed worlds hand
    back one ledger per rank (``world.rank_traffic``), and their merged
    view must equal the thread-mode world ledger exactly — every send is
    recorded once on its sending rank in both modes.
    """
    from ..parallel.comm import TrafficLedger

    merged = TrafficLedger()
    for ledger in ledgers:
        if ledger is not None:
            merged.merge_from(ledger)
    return merged


def rank_points(contexts: Iterable) -> List[int]:
    """Grid points visited per rank — the measured per-rank load."""
    return [_resolve(ctx).total_points for ctx in contexts]


def load_imbalance(counts: Sequence[float]) -> float:
    """``max / mean`` of per-rank load (1.0 when empty or all-zero).

    Matches the convention of
    :func:`repro.parallel.loadbalance.imbalance_stats`: the slowest
    rank's inflation over the balanced ideal.
    """
    counts = [float(c) for c in counts]
    if not counts:
        return 1.0
    mean = sum(counts) / len(counts)
    if mean <= 0.0:
        return 1.0
    return max(counts) / mean


def measured_load_imbalance(contexts: Iterable) -> float:
    """Load imbalance from the ranks' recorded point counts."""
    return load_imbalance(rank_points(contexts))


def decomposition_load_imbalance(decomp, ocean_mask) -> float:
    """Predicted imbalance for a decomposition before running it.

    Uses the real ocean-point counts per rank from
    :func:`repro.parallel.loadbalance.imbalance_stats` — the same
    quantity :func:`measured_load_imbalance` recovers from ledgers
    after a run — so the scaling model can price imbalance at planning
    time.
    """
    from ..parallel.loadbalance import imbalance_stats

    return imbalance_stats(decomp, ocean_mask).imbalance_factor
