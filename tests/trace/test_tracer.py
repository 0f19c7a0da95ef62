"""Tracer, Chrome export, predicted timeline, and CLI integration."""

import json
import threading

import pytest

from repro.errors import TraceError
from repro.ocean import demo
from repro.perfmodel.machines import get_machine
from repro.trace import (
    Tracer,
    chrome_trace,
    predicted_timeline,
    validate_chrome_trace,
    write_chrome_trace,
)


class FakeClock:
    def __init__(self, tick=1.0):
        self.t = 0.0
        self.tick = tick

    def __call__(self):
        t = self.t
        self.t += self.tick
        return t


class TestTracerCore:
    def test_begin_end_nesting_depths(self):
        tr = Tracer(enabled=True, clock=FakeClock())
        tr.begin("outer")
        tr.begin("inner")
        tr.end("inner")
        tr.end("outer")
        spans = tr.closed_spans()
        assert [(s.name, s.depth) for s in spans] == [("outer", 0), ("inner", 1)]
        assert spans[0].dur > spans[1].dur  # outer encloses inner
        assert tr.open_depth() == 0

    def test_span_context_manager_records_args(self):
        tr = Tracer(enabled=True)
        with tr.span("k", cat="kernel", points=100, bytes=6400.0):
            pass
        (sp,) = tr.closed_spans()
        assert sp.cat == "kernel"
        assert sp.args == {"points": 100, "bytes": 6400.0}

    def test_disabled_tracer_is_inert(self):
        tr = Tracer(enabled=False)
        assert tr.begin("a") is None
        assert tr.end("a") is None
        assert tr.instant("i") is None
        with tr.span("s") as sp:
            assert sp is None
        assert tr.spans == [] and tr.instants == []

    def test_end_mismatch_raises(self):
        tr = Tracer(enabled=True)
        tr.begin("a")
        with pytest.raises(TraceError, match="'b'"):
            tr.end("b")

    def test_end_on_empty_stack_raises(self):
        tr = Tracer(enabled=True)
        with pytest.raises(TraceError, match="no open span"):
            tr.end("a")

    def test_two_threads_get_two_lanes(self):
        tr = Tracer(enabled=True)
        barrier = threading.Barrier(2)

        def work(name):
            barrier.wait()
            with tr.span(name):
                with tr.span(name + "_inner"):
                    pass

        ts = [threading.Thread(target=work, args=(f"t{i}",)) for i in range(2)]
        for t in ts:
            t.start()
        for t in ts:
            t.join()
        lanes = {s.tid for s in tr.closed_spans()}
        assert lanes == {0, 1}
        # each lane's nesting is independent
        for lane in lanes:
            depths = [s.depth for s in tr.closed_spans() if s.tid == lane]
            assert sorted(depths) == [0, 1]
        assert len(tr.lane_names()) == 2

    def test_clear_drops_events(self):
        tr = Tracer(enabled=True)
        with tr.span("a"):
            tr.instant("i")
        tr.clear()
        assert tr.spans == [] and tr.instants == []


class TestChromeExport:
    def make_tracer(self):
        tr = Tracer(rank=3, name="r3", enabled=True, clock=FakeClock())
        with tr.span("step", cat="model"):
            with tr.span("halo_pack", cat="halo", bytes=1024.0):
                pass
            tr.instant("H2D", cat="xfer", bytes=4096.0)
        return tr

    def test_schema_is_valid(self):
        trace = chrome_trace(self.make_tracer())
        assert validate_chrome_trace(trace) == []
        assert trace["displayTimeUnit"] == "ms"

    def test_events_carry_pid_tid_us(self):
        trace = chrome_trace(self.make_tracer())
        xs = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert {e["pid"] for e in xs} == {3}
        pack = next(e for e in xs if e["name"] == "halo_pack")
        assert pack["dur"] == pytest.approx(1.0e6)  # 1 fake-clock second
        inst = next(e for e in trace["traceEvents"] if e["ph"] == "i")
        assert inst["s"] == "t"
        assert inst["args"]["bytes"] == 4096.0

    def test_metadata_names_process_and_threads(self):
        trace = chrome_trace(self.make_tracer())
        md = [e for e in trace["traceEvents"] if e["ph"] == "M"]
        assert any(e["name"] == "process_name"
                   and e["args"]["name"] == "r3" for e in md)
        assert any(e["name"] == "thread_name" for e in md)

    def test_open_spans_are_skipped(self):
        tr = Tracer(enabled=True)
        tr.begin("left_open")
        trace = chrome_trace(tr)
        assert not any(e["name"] == "left_open" for e in trace["traceEvents"])
        assert validate_chrome_trace(trace) == []

    def test_multiple_tracers_distinct_pids(self):
        trs = [Tracer(rank=r, enabled=True) for r in (0, 1)]
        for t in trs:
            with t.span("s"):
                pass
        trace = chrome_trace(trs)
        pids = {e["pid"] for e in trace["traceEvents"] if e["ph"] == "X"}
        assert pids == {0, 1}

    def test_validator_flags_bad_events(self):
        bad = {"traceEvents": [
            {"name": "x", "ph": "Q", "ts": 0, "pid": 0, "tid": 0},
            {"name": "", "ph": "i", "ts": 0, "pid": 0, "tid": 0, "s": "t"},
            {"name": "y", "ph": "X", "ts": 0, "dur": -1.0, "pid": 0, "tid": 0},
            {"name": "z", "ph": "X", "pid": 0, "tid": 0, "dur": 1.0},
        ]}
        problems = validate_chrome_trace(bad)
        assert len(problems) >= 4

    def test_write_round_trip(self, tmp_path):
        path = write_chrome_trace(tmp_path / "t.json", self.make_tracer())
        trace = json.loads(path.read_text())
        assert validate_chrome_trace(trace) == []


#: Barotropic sub-steps per step of the tiny demo config.
NSUB = demo("tiny").barotropic_substeps


def continuity_spans(tr) -> int:
    return sum(1 for s in tr.closed_spans()
               if s.cat == "kernel" and s.name == "barotropic_continuity")


class TestModelTracing:
    def step_model(self, trace=True, steps=2):
        from repro.ocean import LICOMKpp, ModelParams, demo

        m = LICOMKpp(demo("tiny"), params=ModelParams(trace=trace))
        m.run_steps(steps)
        tr = m.context.tracer
        m.close()
        return tr

    def test_halo_spans_nest_inside_step_spans(self):
        tr = self.step_model()
        spans = tr.closed_spans()
        steps = [s for s in spans if s.name == "step"]
        halos = [s for s in spans if s.cat == "halo"]
        kernels = [s for s in spans if s.cat == "kernel"]
        assert len(steps) == 2 and halos and kernels
        eps = 1e-9
        for h in halos:
            assert any(st.ts - eps <= h.ts
                       and h.ts + h.dur <= st.ts + st.dur + eps
                       for st in steps)

    def test_kernel_spans_carry_counters(self):
        tr = self.step_model()
        k = next(s for s in tr.closed_spans() if s.cat == "kernel")
        assert k.args["points"] > 0
        assert k.args["bytes"] > 0

    def test_instants_include_model_markers(self):
        tr = self.step_model()
        names = {i.name for i in tr.instants}
        assert "step_begin" in names
        # a barotropic sub-step is its continuity launch
        assert continuity_spans(tr) == 2 * NSUB

    def test_graph_replay_keeps_fused_span_and_substeps(self):
        tr = self.step_model(steps=5)  # step 4 replays leapfrog phase 1
        spans = tr.closed_spans()
        assert any(s.name == "graph_replay" for s in spans)
        fused = [s for s in spans if "fused" in s.args]
        assert fused, "fused sweep should trace as one span"
        assert all(len(s.args["fused"]) >= 2 for s in fused)
        # every step has its sub-steps on the timeline, replayed or not
        assert continuity_spans(tr) == 5 * NSUB

    def test_untraced_model_records_nothing(self):
        tr = self.step_model(trace=False)
        assert tr.spans == [] and tr.instants == []
        assert not tr.enabled

    def test_model_trace_is_valid_chrome_json(self):
        assert validate_chrome_trace(chrome_trace(self.step_model())) == []


class TestPredictedTimeline:
    def test_kernel_leaf_priced_by_roofline(self):
        tr = Tracer(enabled=True, clock=FakeClock())
        with tr.span("k", cat="kernel", points=10, flops=1.0e9, bytes=1.0e8):
            pass
        m = get_machine("new_sunway")
        trace = predicted_timeline(tr, "new_sunway")
        ev = next(e for e in trace["traceEvents"] if e["name"] == "k")
        expect = (max(1.0e8 / m.effective_bw_unit,
                      1.0e9 / m.peak_flops_unit) + m.launch_overhead) * 1e6
        assert ev["dur"] == pytest.approx(expect)
        assert ev["cat"] == "predicted"
        assert ev["args"]["wall_us"] == pytest.approx(1.0e6)

    def test_halo_wait_priced_alpha_beta(self):
        tr = Tracer(enabled=True, clock=FakeClock())
        with tr.span("halo_wait", cat="halo", bytes=2.0e6):
            pass
        m = get_machine("orise")
        trace = predicted_timeline(tr, m)
        ev = next(e for e in trace["traceEvents"] if e["name"] == "halo_wait")
        assert ev["dur"] == pytest.approx(
            (m.net_latency + 2.0e6 / m.net_bw) * 1e6)

    def test_halo_copy_priced_as_local_copy(self):
        # a self-neighbour side reads and writes its bytes once each and
        # pays no network latency
        tr = Tracer(enabled=True, clock=FakeClock())
        with tr.span("halo_copy", cat="halo", who="w", bytes=3.0e6):
            pass
        m = get_machine("new_sunway")
        trace = predicted_timeline(tr, m)
        ev = next(e for e in trace["traceEvents"] if e["name"] == "halo_copy")
        assert ev["dur"] == pytest.approx(2 * 3.0e6 / m.effective_pack_bw * 1e6)

    def test_container_is_sum_of_children(self):
        tr = Tracer(enabled=True, clock=FakeClock())
        with tr.span("step", cat="timer"):
            with tr.span("a", cat="kernel", bytes=1.0e8):
                pass
            with tr.span("b", cat="kernel", flops=1.0e9):
                pass
        trace = predicted_timeline(tr, "orise")
        by = {e["name"]: e for e in trace["traceEvents"] if e["ph"] == "X"}
        assert by["step"]["dur"] == pytest.approx(
            by["a"]["dur"] + by["b"]["dur"])
        # children laid back-to-back from the container's start
        assert by["a"]["ts"] == pytest.approx(by["step"]["ts"])
        assert by["b"]["ts"] == pytest.approx(by["a"]["ts"] + by["a"]["dur"])

    def test_predicted_trace_validates(self):
        from repro.ocean import LICOMKpp, ModelParams, demo

        m = LICOMKpp(demo("tiny"), params=ModelParams(trace=True))
        m.run_steps(1)
        tr = m.context.tracer
        m.close()
        trace = predicted_timeline(tr, "orise")
        assert validate_chrome_trace(trace) == []
        assert trace["traceEvents"], "model step should produce spans"

    def test_unknown_machine_raises(self):
        from repro.errors import UnknownMachineError

        tr = Tracer(enabled=True)
        with pytest.raises(UnknownMachineError):
            predicted_timeline(tr, "cray_1")


class TestSimWorldLanes:
    def test_two_ranks_two_pids(self):
        from repro.ocean import LICOMKpp, ModelParams, demo
        from repro.parallel import BlockDecomposition, SimWorld

        cfg = demo("tiny")
        d = BlockDecomposition(cfg.ny, cfg.nx, 2, 1)

        def prog(comm):
            m = LICOMKpp(cfg, comm=comm, decomp=d,
                         params=ModelParams(trace=True))
            m.run_steps(1)
            ctx = m.context
            m.close()
            return ctx

        tracers = [c.tracer for c in SimWorld.run(prog, d.size)]
        trace = chrome_trace(tracers)
        assert validate_chrome_trace(trace) == []
        pids = {e["pid"] for e in trace["traceEvents"] if e["ph"] == "X"}
        assert pids == {0, 1}
        # both ranks saw comm instants (sends) on top of their spans
        for tr in tracers:
            assert any(i.cat == "comm" for i in tr.instants)


class TestTraceCLI:
    def test_trace_command_writes_valid_trace(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "trace.json"
        rc = main(["trace", "--size", "tiny", "--steps", "2",
                   "--ranks", "2", "--out", str(out)])
        assert rc == 0
        trace = json.loads(out.read_text())
        assert validate_chrome_trace(trace) == []
        pids = {e["pid"] for e in trace["traceEvents"] if e["ph"] == "X"}
        assert pids == {0, 1}
        assert "perfetto" in capsys.readouterr().out

    @pytest.mark.parametrize("steps,variants", [
        (0, []), (3, ["startup+canuto, phase 0", "steady+canuto, phase 1",
                      "steady+canuto, phase 2"])])
    def test_single_rank_trace_reports_its_sealed_graphs(
            self, tmp_path, capsys, steps, variants):
        """One ``graph[variant, phase]`` line per sealed graph, in replay
        order (``tiny`` runs canuto every step, so its variants read
        ``startup+canuto`` and ``steady+canuto``), and no other report
        line."""
        from repro.cli import main

        rc = main(["trace", "--size", "tiny", "--steps", str(steps),
                   "--ranks", "1", "--out", str(tmp_path / "trace.json")])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        graphs = [l for l in lines if l.startswith("graph[")]
        assert [l[len("graph["):].split("]")[0] for l in graphs] == variants
        assert len(lines) == len(graphs) + 1        # + the trace file line
        assert not [l for l in lines if l.startswith("tier")]

    def test_trace_command_predict(self, tmp_path):
        from repro.cli import main

        out = tmp_path / "trace.json"
        pout = tmp_path / "predicted.json"
        rc = main(["trace", "--size", "tiny", "--steps", "1",
                   "--out", str(out), "--predict", "orise",
                   "--predict-out", str(pout)])
        assert rc == 0
        assert validate_chrome_trace(json.loads(pout.read_text())) == []
