"""Job-level sums of per-rank ledgers (§VI-C), for the conservation tests.

Every rank records into its own :class:`~repro.kokkos.Instrumentation`
and :class:`~repro.parallel.TrafficLedger`; folding them back together
must reproduce the totals of one shared ledger exactly, because merging
is a pure sum.
"""

from __future__ import annotations

from typing import Iterable

from repro.kokkos import Instrumentation
from repro.parallel import TrafficLedger


def _inst(obj) -> Instrumentation:
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
    """One fresh ledger summing the contexts', models' or bare
    ``Instrumentation``\\ s' counters; the inputs are left untouched."""
    merged = Instrumentation()
    for ctx in contexts:
        merged.merge_from(_inst(ctx))
    return merged


def merge_traffic(ledgers: Iterable) -> TrafficLedger:
    """One fresh traffic ledger summing per-rank ledgers (``None``\\ s
    skipped): a process world's per-rank view must equal the thread
    world's ledger, every send being recorded once on its sender."""
    merged = TrafficLedger()
    for ledger in ledgers:
        if ledger is not None:
            merged.merge_from(ledger)
    return merged
