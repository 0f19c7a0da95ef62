"""From spans and counters to per-layer numbers.

Every span lands in one *bucket* (:func:`bucket_of`); a bucket's time
is the summed self time of its spans inside the timed window, so the
buckets of a lane add up to the window with nothing counted twice.
``other`` collects what no layer claims; ``budget_closed`` is the share
of the wall the named buckets account for.

Pure functions over plain data — the model is never imported here, so
the arithmetic is testable on hand-made spans.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .spans import Span
from .stats import median, percentile

FAMILIES = ("eos", "vmix", "momentum", "barotropic", "tracer", "scan")
CAST_LABELS = ("precision_cast", "precision_cast_2d")


def kernel_parts(label: str, parts: Optional[Sequence[str]] = None) -> List[str]:
    """Constituent labels of a (possibly fused) launch label."""
    if parts:
        return list(parts)
    if label.startswith("fused[") and label.endswith("]"):
        return label[len("fused["):-1].split("+")
    return [label]


def family_of(label: str, families: Mapping[str, str]) -> str:
    if label in CAST_LABELS:
        return "cast"
    return families.get(label, "other")


def family_shares(label: str, families: Mapping[str, str],
                  parts: Optional[Sequence[str]] = None) -> Dict[str, float]:
    """Split one launch over kernel families, each part weighing the
    same.  Every fused group the model seals today is single-family, so
    the split is exact; a mixed group would be shared out evenly."""
    labels = kernel_parts(label, parts)
    share = 1.0 / len(labels)
    out: Dict[str, float] = {}
    for lab in labels:
        fam = family_of(lab, families)
        out[fam] = out.get(fam, 0.0) + share
    return out


def bucket_of(span: Span) -> str:
    """The bucket a span's self time is charged to."""
    cat = span.cat
    if cat == "bench":
        return span.name
    if cat == "kernel":
        return "kernels"
    if cat == "timer":
        return "model"
    if cat == "graph":
        return {"graph_replay": "graph.replay",
                "graph_seal": "graph.seal"}.get(span.name, "other")
    if cat == "halo" and span.name.startswith("halo_"):
        return "halo." + span.name[len("halo_"):]
    return "other"


def bucket_times(spans: List[Span], selfs: Sequence[float],
                 families: Mapping[str, str], start: float, end: float,
                 ) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Summed self seconds and span counts per bucket inside the window.

    ``selfs`` is :func:`bench.spans.self_times` of *all* the spans, so a
    span straddling the window edge still shields its parent.  Kernel
    spans are broken out per family (``kernels.<family>``).
    """
    secs: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    for s, own in zip(spans, selfs):
        if s.start < start or s.end > end:
            continue
        b = bucket_of(s)
        if b == "kernels":
            for fam, share in family_shares(s.name, families, s.parts).items():
                key = f"kernels.{fam}"
                secs[key] = secs.get(key, 0.0) + own * share
                counts[key] = counts.get(key, 0) + 1
        else:
            secs[b] = secs.get(b, 0.0) + own
            counts[b] = counts.get(b, 0) + 1
    return secs, counts


def budget_closed(secs: Mapping[str, float], wall: float) -> Optional[float]:
    """Share of ``wall`` the named buckets (all but ``other``) cover."""
    if wall <= 0:
        return None
    return sum(v for k, v in secs.items() if k != "other") / wall


def durations_ms(spans: Iterable[Span]) -> Dict[str, List[float]]:
    """Durations of the benchmark's own spans, grouped by name."""
    out: Dict[str, List[float]] = {}
    for s in spans:
        if s.cat == "bench":
            out.setdefault(s.name, []).append(s.dur * 1e3)
    return out


def drift_ratio(step_ms: Sequence[float]) -> Optional[float]:
    """Median of the last quarter of the timed steps over the first."""
    q = len(step_ms) // 4
    if q < 1:
        return None
    first = median(step_ms[:q])
    return median(step_ms[-q:]) / first if first else None


def family_counts(kernels: Mapping[str, Mapping[str, float]],
                  families: Mapping[str, str]) -> Dict[str, Dict[str, float]]:
    """Per-family launches/flops/bytes from per-label kernel counters.

    ``kernels`` maps a launch label to ``{"launches", "flops",
    "bytes"}`` deltas over the timed region.
    """
    out: Dict[str, Dict[str, float]] = {}
    for label, st in kernels.items():
        for fam, share in family_shares(label, families).items():
            slot = out.setdefault(fam, {"launches": 0.0, "flops": 0.0,
                                        "bytes": 0.0})
            for key in slot:
                slot[key] += st[key] * share
    return out


def mean(values: Sequence[Optional[float]]) -> Optional[float]:
    vals = [v for v in values if v is not None]
    return sum(vals) / len(vals) if vals else None


def per_step(total: Optional[float], steps: int, scale: float = 1.0) -> Optional[float]:
    if total is None or steps <= 0:
        return None
    return total * scale / steps


def time_metrics(secs: Mapping[str, float], counts: Mapping[str, int],
                 steps: int) -> Dict[str, Optional[float]]:
    """The per-step numbers every workload derives from its buckets."""
    m: Dict[str, Optional[float]] = {
        "model.host_self_ms_per_step": per_step(secs.get("model", 0.0),
                                                steps, 1e3),
        "graph.replay_self_ms_per_step": per_step(secs.get("graph.replay"),
                                                  steps, 1e3),
        "comm.send_ms_per_step": per_step(secs.get("comm.send", 0.0),
                                          steps, 1e3),
        "halo.exchanges_per_step": per_step(counts.get("halo.update", 0),
                                            steps),
        "trace.spans_per_step": per_step(sum(counts.values()), steps),
    }
    for fam in FAMILIES + ("cast",):
        m[f"kernels.{fam}.self_ms_per_step"] = per_step(
            secs.get(f"kernels.{fam}", 0.0), steps, 1e3)
    for phase in ("pack", "post", "wait", "unpack"):
        m[f"halo.{phase}_ms_per_step"] = per_step(
            secs.get(f"halo.{phase}", 0.0), steps, 1e3)
    return m


def stepping_metrics(ranks: Sequence[Mapping[str, Any]],
                     step_ms: Sequence[float]) -> Dict[str, Optional[float]]:
    """Layer metrics of a stepping workload from per-rank aggregates.

    Each entry of ``ranks`` is what :func:`bench.workloads.rank_aggregate`
    returns.  Times and counts are per step and **per rank** (the mean
    over ranks), so a 2-rank run reads directly against a 1-rank run of
    half the domain each; ``step_ms`` is the slowest-rank series.
    """
    steps = ranks[0]["steps"]
    per_rank = [time_metrics(r["secs"], r["counts"], steps) for r in ranks]
    m: Dict[str, Optional[float]] = {
        name: mean([pr[name] for pr in per_rank]) for name in per_rank[0]}

    def c(key: str) -> Optional[float]:
        return mean([per_step(r["counters"].get(key), steps) for r in ranks])

    m["model.step_ms_p95"] = percentile(step_ms, 95)
    m["model.step_drift_ratio"] = drift_ratio(step_ms)
    m["model.graph_captures"] = mean([r["graph_captures"] for r in ranks])
    m["model.budget_closed_frac"] = mean([r["budget_closed"] for r in ranks])

    for fam in FAMILIES + ("cast",):
        fc = [r["families"].get(fam, {}) for r in ranks]
        m[f"kernels.{fam}.launches_per_step"] = mean(
            [per_step(f.get("launches", 0.0), steps) for f in fc])
        if fam != "cast":
            m[f"kernels.{fam}.flops_per_step"] = mean(
                [per_step(f.get("flops", 0.0), steps) for f in fc])
            m[f"kernels.{fam}.computed_bytes_per_step"] = mean(
                [per_step(f.get("bytes", 0.0), steps) for f in fc])

    graphs = [r["graph"] for r in ranks if r["graph"]]
    for key, name in (("launches_per_replay", "graph.launches_per_replay"),
                      ("fused_groups", "graph.fused_groups"),
                      ("jit_coverage", "jit.coverage"),
                      ("tier", "jit.tier")):
        m[name] = mean([g.get(key) for g in graphs])
    m["graph.seal_ms"] = mean([r["setup_ms"].get("graph.seal")
                               for r in ranks]) if graphs else None
    m["jit.compile_ms"] = mean([r["setup_ms"].get("jit.compile")
                                for r in ranks]) if graphs else None

    m["backends.launches_per_step"] = c("launches")
    m["backends.tiles_per_step"] = c("tiles")
    m["backends.dma_bytes_per_step"] = c("dma_bytes")
    m["backends.dma_count_per_step"] = c("dma_count")
    m["workspace.requests_per_step"] = c("ws_requests")
    m["workspace.allocations_per_step"] = c("ws_allocations")
    m["workspace.hit_rate"] = mean([
        1.0 - r["counters"]["ws_allocations"] / r["counters"]["ws_requests"]
        if r["counters"].get("ws_requests") else None for r in ranks])

    m["halo.messages_per_step"] = c("halo_messages")
    m["halo.bytes_per_step"] = c("halo_bytes")
    m["halo.mean_message_bytes"] = mean([
        r["counters"]["halo_bytes"] / r["counters"]["halo_messages"]
        if r["counters"].get("halo_messages") else None for r in ranks])

    m["comm.wait_frac"] = mean([r["secs"].get("halo.wait", 0.0) / r["wall"]
                                for r in ranks])
    busy = [sum(v for k, v in r["secs"].items() if k.startswith("kernels."))
            for r in ranks]
    m["comm.rank_imbalance"] = (max(busy) / (sum(busy) / len(busy))
                                if sum(busy) > 0 else None)
    m["comm.collectives_per_step"] = c("collectives")
    return m
