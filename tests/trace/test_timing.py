"""TimerRegistry regression tests: re-entrancy, hierarchy, exclusivity.

The original registry kept ``_start`` on the node itself, so a second
``start("a")`` while ``"a"`` was already running clobbered the outer
interval and the matching ``stop`` pair raised.  The registry now keeps
one stack entry per ``start`` call, which these tests pin down.
"""

import pytest

from repro.timing import TimerNode, TimerRegistry
from repro.trace import Tracer


class FakeClock:
    """Deterministic clock: every call advances by ``tick`` seconds."""

    def __init__(self, tick=1.0):
        self.t = 0.0
        self.tick = tick

    def __call__(self):
        t = self.t
        self.t += self.tick
        return t


class TestReentrancy:
    def test_same_name_nested_accumulates_both_intervals(self):
        clock = FakeClock()
        t = TimerRegistry(clock=clock)
        t.start("a")    # t0 = 0
        t.start("a")    # t0 = 1
        t.stop("a")     # t  = 2 -> inner interval 1s
        t.stop("a")     # t  = 3 -> outer interval 3s
        node = t._nodes["a"]
        assert node.count == 2
        assert node.total == pytest.approx(4.0)  # 1 + 3, outer NOT lost

    def test_recursive_context_manager(self):
        t = TimerRegistry(clock=FakeClock())

        def recurse(depth):
            with t.timer("f"):
                if depth:
                    recurse(depth - 1)

        recurse(3)
        assert t._nodes["f"].count == 4

    def test_self_nesting_creates_no_self_edge(self):
        t = TimerRegistry(clock=FakeClock())
        with t.timer("a"):
            with t.timer("a"):
                pass
        assert "a" not in t._nodes["a"].child_names

    def test_stop_without_start_raises(self):
        t = TimerRegistry()
        with pytest.raises(ValueError, match="no active timer"):
            t.stop("never")

    def test_mismatched_stop_names_innermost(self):
        t = TimerRegistry()
        t.start("outer")
        t.start("inner")
        with pytest.raises(ValueError, match="'inner'"):
            t.stop("outer")


class TestHierarchyReport:
    def make(self):
        t = TimerRegistry(clock=FakeClock())
        with t.timer("step"):
            with t.timer("halo"):
                pass
            with t.timer("kernels"):
                with t.timer("eos"):
                    pass
        return t

    def test_report_indents_children(self):
        report = self.make().report()
        lines = {ln.strip().split()[0]: ln for ln in report.splitlines()[1:]}
        def indent(name):
            return len(lines[name]) - len(lines[name].lstrip())
        assert indent("step") == 0
        assert indent("halo") > indent("step")
        assert indent("eos") > indent("kernels") > indent("step")

    def test_report_has_exclusive_column(self):
        report = self.make().report()
        assert "excl" in report.splitlines()[0]

    def test_exclusive_subtracts_children(self):
        t = self.make()
        node = t._nodes["step"]
        kids = sum(t._nodes[c].total for c in node.child_names)
        assert t.exclusive("step") == pytest.approx(node.total - kids)
        assert t.exclusive("halo") == pytest.approx(t._nodes["halo"].total)
        assert t.exclusive("unknown") == 0.0

    def test_report_each_timer_listed_once_per_parent(self):
        report = self.make().report()
        assert report.count("eos") == 1


class TestTracerMirroring:
    def test_timers_mirror_to_tracer_spans(self):
        tr = Tracer(enabled=True)
        t = TimerRegistry(clock=FakeClock(), tracer=tr)
        with t.timer("step"):
            with t.timer("halo"):
                pass
        spans = tr.closed_spans()
        assert [s.name for s in spans] == ["step", "halo"]
        assert spans[0].depth == 0 and spans[1].depth == 1
        assert all(s.cat == "timer" for s in spans)

    def test_disabled_tracer_records_nothing(self):
        tr = Tracer(enabled=False)
        t = TimerRegistry(tracer=tr)
        with t.timer("step"):
            pass
        assert tr.closed_spans() == []
        assert t._nodes["step"].count == 1

    def test_enable_flip_mid_interval_stays_balanced(self):
        # a timer started while tracing was off must not try to end a
        # span that was never begun
        tr = Tracer(enabled=False)
        t = TimerRegistry(tracer=tr)
        t.start("a")
        tr.enable()
        t.stop("a")            # must not raise / touch the tracer
        assert tr.closed_spans() == []


class TestCompat:
    def test_every_context_owns_its_registry(self):
        from repro.kokkos import ExecutionContext

        a, b = ExecutionContext("serial"), ExecutionContext("serial")
        assert isinstance(a.timers, TimerRegistry)
        assert a.timers is not b.timers
        with a.timers.timer("x"):
            pass
        assert a.timers.count("x") == 1
        assert b.timers.names() == []

    def test_node_mean(self):
        n = TimerNode(name="x", count=4, total=2.0)
        assert n.mean == pytest.approx(0.5)
