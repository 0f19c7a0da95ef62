"""Self-time arithmetic and the wrappers that feed the span list."""

import types

import pytest

from bench.layers import bucket_times, budget_closed, family_shares
from bench.spans import Span, SpanLog, self_times


def sp(name, start, end, cat="bench", lane="t", run=0, parts=None):
    return Span(name, cat, start, end, lane, run, parts)


def test_nested_spans_subtract_children_once():
    spans = [sp("step", 0, 10), sp("replay", 1, 9), sp("k1", 2, 4),
             sp("k2", 5, 8)]
    assert self_times(spans) == [2, 3, 2, 3]
    assert [s.parent for s in spans] == [-1, 0, 1, 1]
    # the lane adds up: nothing counted twice, nothing lost
    assert sum(self_times(spans)) == 10


def test_overlapping_children_cover_their_union():
    # two children overlap on [4, 5]; one sticks out past the parent
    spans = [sp("p", 0, 10), sp("a", 2, 5), sp("b", 4, 7), sp("c", 9, 12)]
    own = self_times(spans)
    assert own[0] == 10 - (5 - 2) - (7 - 5) - (10 - 9)
    # each instant belongs to the span that started last, so the lane
    # still adds up to the 12 seconds its spans cover
    assert own == [4, 2, 3, 3]


def test_lanes_and_runs_do_not_nest_into_each_other():
    spans = [sp("a", 0, 10, lane="x"), sp("b", 1, 2, lane="y"),
             sp("c", 1, 2, lane="x", run=1)]
    assert self_times(spans) == [10, 1, 1]
    assert [s.parent for s in spans] == [-1, -1, -1]


def test_equal_start_puts_the_longer_span_outside():
    spans = [sp("inner", 0, 1), sp("outer", 0, 5)]
    assert self_times(spans) == [1, 4]
    assert spans[0].parent == 1 and spans[1].parent == -1


def test_wrap_records_and_unwrap_restores():
    class Layer:
        def call(self, x):
            return x + 1

    obj = Layer()
    log = SpanLog(run=7)
    assert log.wrap(obj, "call", "layer.call", "bench")
    assert obj.call(1) == 2
    (span,) = log.spans
    assert (span.name, span.run) == ("layer.call", 7)
    assert span.end >= span.start
    log.unwrap_all()
    assert "call" not in vars(obj) and obj.call(1) == 2 and len(log.spans) == 1


def test_wrap_module_attribute_and_exceptions():
    mod = types.SimpleNamespace(boom=lambda: 1 / 0)
    original = mod.boom
    log = SpanLog()
    log.wrap(mod, "boom", "boom", "bench")
    with pytest.raises(ZeroDivisionError):
        mod.boom()
    assert len(log.spans) == 1          # the span closes on the way out
    log.unwrap_all()
    assert mod.boom is original


def test_wrap_of_a_deleted_entry_point_costs_only_the_metric():
    log = SpanLog()
    assert log.wrap(object(), "gone", "x", "bench") is False
    assert log.spans == []


def test_fused_launch_is_shared_out_by_part():
    fams = {"a": "tracer", "b": "tracer", "c": "scan"}
    assert family_shares("fused[a+b]", fams) == {"tracer": 1.0}
    assert family_shares("fused[a+c]", fams) == {"tracer": 0.5, "scan": 0.5}
    assert family_shares("precision_cast", fams) == {"cast": 1.0}
    assert family_shares("unknown", fams) == {"other": 1.0}


def test_buckets_close_the_budget():
    fams = {"eos_density": "eos", "t1": "tracer", "t2": "tracer"}
    spans = [
        sp("model", 0, 10),
        sp("step", 0.5, 9.5, cat="timer"),
        sp("graph_replay", 1, 9, cat="graph"),
        sp("eos_density", 1, 3, cat="kernel"),
        sp("fused[t1+t2]", 3, 6, cat="kernel", parts=("t1", "t2")),
        sp("halo.update", 6, 8),
        sp("halo_wait", 6.5, 7.5, cat="halo"),
        sp("mystery", 8, 8.5, cat="weird"),
        sp("model", 10, 20),            # outside the window
    ]
    secs, counts = bucket_times(spans, self_times(spans), fams, 0, 10)
    assert secs == {"model": 2.0, "graph.replay": 0.5, "kernels.eos": 2.0,
                    "kernels.tracer": 3.0, "halo.update": 1.0,
                    "halo.wait": 1.0, "other": 0.5}
    assert counts["model"] == 2 and counts["kernels.tracer"] == 1
    assert sum(secs.values()) == 10.0
    assert budget_closed(secs, 10.0) == 0.95
