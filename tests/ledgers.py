"""Job-level sums of per-rank ledgers (§VI-C), for the conservation tests.

Every rank records into its own :class:`~repro.kokkos.Instrumentation`
and into its comm's :class:`~repro.parallel.TrafficLedger`.  Folding
the instrumentation back together must reproduce the totals of one
shared ledger exactly, because merging is a pure sum; the world's
traffic is that sum by construction, so what is left to check of it is
that both rank substrates count the same messages.
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
    skipped), each rank's collective participations included."""
    merged = TrafficLedger()
    for ledger in ledgers:
        if ledger is not None:
            merged.merge_from(ledger)
    return merged


def assert_same_ledger(a: TrafficLedger, b: TrafficLedger) -> None:
    """Two traffic ledgers hold the same counters, collectives included
    (a thread and a process world counting one program's messages)."""
    assert (a.messages, a.bytes, a.collectives) == \
        (b.messages, b.bytes, b.collectives)
    assert a.by_pair == b.by_pair
    assert a.by_phase == b.by_phase
    assert a.size_hist == b.size_hist
