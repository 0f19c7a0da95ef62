"""Predicted timelines: a step's spans priced by the machine model.

The measured trace shows what the Python host actually did; the paper's
performance story is about what the same launch sequence costs on
SW26010-Pro or ORISE.  This module re-lays a recorded step using
:mod:`repro.perfmodel` durations instead of host wall time:

* ``kernel`` spans (which carry their ``points``/``flops``/``bytes``
  payload) are priced with the roofline —
  ``max(bytes / effective_bw, flops / peak) + launch_overhead``;
* ``halo`` spans use the alpha-beta model: pack/unpack at the
  machine's calibrated pack bandwidth, waits at
  ``net_latency + bytes / net_bw``; a self-neighbour copy is a local
  copy — a pack and an unpack's worth of traffic
  (``2 * bytes / effective_pack_bw``), no latency;
* container spans (timers, graph replay) become the sum of their
  children, laid back-to-back — the sequential-dispatch assumption the
  perfmodel's kernel-time aggregation already makes.

The output is the same Chrome trace-event JSON as the measured
exporter (category ``predicted``), so measured and predicted timelines
open side by side in Perfetto.  Each predicted span keeps its measured
host duration in ``args["wall_us"]`` for comparison.
"""

from __future__ import annotations

from typing import Any, Dict, List, Union

from .tracer import Span, Tracer

_US = 1.0e6


class _Node:
    __slots__ = ("span", "children")

    def __init__(self, span: Span) -> None:
        self.span = span
        self.children: List["_Node"] = []


def _lane_trees(spans: List[Span]) -> Dict[int, List[_Node]]:
    """Rebuild each lane's span forest from begin order + depth."""
    forests: Dict[int, List[_Node]] = {}
    stacks: Dict[int, List[_Node]] = {}
    for sp in spans:
        if sp.dur is None:
            continue
        node = _Node(sp)
        stack = stacks.setdefault(sp.tid, [])
        while stack and stack[-1].span.depth >= sp.depth:
            stack.pop()
        if stack:
            stack[-1].children.append(node)
        else:
            forests.setdefault(sp.tid, []).append(node)
        stack.append(node)
    return forests


def _leaf_duration(sp: Span, m) -> float:
    """Machine-model seconds for one leaf span."""
    args = sp.args
    nbytes = float(args.get("bytes", 0.0))
    if sp.cat == "kernel":
        flops = float(args.get("flops", 0.0))
        dtype = args.get("dtype")
        if dtype:
            # declared bytes_per_point count 8-byte words; a narrow
            # sweep moves itemsize/8 of that, a cast boundary (f4+f8)
            # the mean of its two sides
            widths = [{"f4": 4.0}.get(tag, 8.0) for tag in dtype.split("+")]
            nbytes *= (sum(widths) / len(widths)) / 8.0
        streaming = nbytes / m.effective_bw_unit if nbytes else 0.0
        compute = flops / m.peak_flops_unit if flops else 0.0
        overhead = m.launch_overhead
        if args.get("jit"):
            # swept launches of a sealed graph (args["jit"] tier label)
            # pay only the dispatch fraction — same discount as the
            # perfmodel's graph=True pricing
            from ..perfmodel.kernelcost import JIT_DISPATCH_FRACTION

            overhead *= JIT_DISPATCH_FRACTION
        return max(streaming, compute) + overhead
    if sp.cat == "halo":
        if sp.name in ("halo_pack", "halo_unpack"):
            return nbytes / m.effective_pack_bw
        if sp.name == "halo_copy":
            return 2.0 * nbytes / m.effective_pack_bw
        if sp.name == "halo_wait":
            return m.net_latency + nbytes / m.net_bw
        return 0.0  # halo_post: posting receives is free in the model
    return 0.0      # host glue the machine model does not price


def _place(node: _Node, start: float, m, pid: int,
           events: List[Dict[str, Any]]) -> float:
    """Lay ``node`` at ``start``; return its predicted duration."""
    if node.children:
        cursor = start
        for child in node.children:
            cursor += _place(child, cursor, m, pid, events)
        dur = cursor - start
    else:
        dur = _leaf_duration(node.span, m)
    sp = node.span
    args = dict(sp.args)
    args["wall_us"] = sp.dur * _US
    events.append({
        "name": sp.name, "cat": "predicted", "ph": "X",
        "ts": start * _US, "dur": dur * _US,
        "pid": pid, "tid": sp.tid, "args": args,
    })
    return dur


def predicted_timeline(tracers: Union[Tracer, List[Tracer]],
                       machine: Union[str, object],
                       ) -> Dict[str, Any]:
    """Chrome trace of the recorded spans re-priced for ``machine``.

    ``machine`` is a registry name (``"orise"``, ``"new_sunway"``, ...)
    or a :class:`~repro.perfmodel.machines.MachineSpec`.  Instant
    events are dropped — the model prices intervals, not markers.
    """
    from ..perfmodel.machines import get_machine

    m = get_machine(machine) if isinstance(machine, str) else machine
    if isinstance(tracers, Tracer):
        tracers = [tracers]
    events: List[Dict[str, Any]] = []
    for tr in tracers:
        pid = tr.rank
        events.append({
            "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": f"{tr.name} [predicted: {m.name}]"},
        })
        for tid, roots in sorted(_lane_trees(tr.spans).items()):
            cursor = 0.0
            for root in roots:
                cursor += _place(root, cursor, m, pid, events)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_predicted_timeline(path, tracers: Union[Tracer, List[Tracer]],
                             machine: Union[str, object]):
    """Export a predicted timeline to ``path`` (returns the Path)."""
    import json
    from pathlib import Path

    out = Path(path)
    out.write_text(json.dumps(predicted_timeline(tracers, machine),
                              indent=1, default=float) + "\n")
    return out
