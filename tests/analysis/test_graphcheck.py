"""graphcheck: golden broken graphs, verifier soundness and seed-model
cleanliness.

Three layers of coverage:

* **Golden schedules** — small hand-built launch graphs each violating
  exactly one graphcheck rule family (stale-halo read, redundant
  exchange, dead store, missing fence), asserting the verifier reports
  exactly the intended finding.  Adjacent launches seal into one fused
  node, so the goldens also pin that a fused node is walked part by
  part, under each part's own label.
* **Verifier soundness** — the production model with one fence or one
  exchanged field left out: the verifier must name the host node.  The
  synchronous backends run such a model bit-for-bit like the correct
  one, so no other test can.
* **Seed model** — the tiny demo model's sealed step graphs walk clean
  on every backend, both swept (the concrete backend) and replayed
  unfused through ``run_for`` (an intercepting subclass of it).
"""

import pytest

from repro.analysis import Severity, graphcheck
from repro.analysis.graphcheck import check_graph, run_graphcheck
from repro.analysis.rules import (
    GRAPH_RULES,
    RULE_DEAD_STORE,
    RULE_GRAPH_FENCE,
    RULE_REDUNDANT_EXCHANGE,
    RULE_STALE_HALO,
)
from repro.kokkos import (
    HostEffects,
    LaunchGraph,
    MDRangePolicy,
    View,
    make_backend,
)
from tests.conftest import intercepting
from tests.analysis.broken_graph import (
    AccumulateFunctor,
    PointCopyFunctor,
    WestReadFunctor,
)

N = 8


@pytest.fixture()
def space():
    return make_backend("serial")


@pytest.fixture()
def views():
    return {name: View(name, (N, N)) for name in ("f", "g", "out")}


P_INT = MDRangePolicy([(1, N - 1), (1, N - 1)])


def sealed(space, *records):
    """Build + seal a graph from ('k', label, policy, functor) and
    ('h', label, effects) records."""
    graph = LaunchGraph(space)
    for kind, *args in records:
        if kind == "k":
            graph.add_kernel(*args)
        else:
            graph.add_host(lambda: None, args[0], args[1])
    return graph.seal()


def sink(*vs):
    """A fenced exchange of ``vs`` — keeps final writes from looking
    dead when the schedule wraps around."""
    return ("h", "sink", HostEffects(halo_refresh=vs, fences=True))


class TestGoldenSchedules:
    def test_stale_halo_read_fires(self, space, views):
        f, g, out = views["f"], views["g"], views["out"]
        graph = sealed(
            space,
            ("k", "writer", P_INT, PointCopyFunctor(g, f)),
            ("k", "reader", P_INT, WestReadFunctor(f, out)),
            sink(out))
        # one fused node, walked part by part under the parts' labels
        assert graph.kernel_tiers() == [("fused[writer+reader]", "codegen")]
        findings = check_graph(graph)
        assert [x.rule for x in findings] == [RULE_STALE_HALO]
        assert findings[0].severity == Severity.ERROR
        assert findings[0].kernel == "reader" and findings[0].view == "f"

    def test_refresh_between_write_and_read_is_clean(self, space, views):
        f, g, out = views["f"], views["g"], views["out"]
        findings = check_graph(sealed(
            space,
            ("k", "writer", P_INT, PointCopyFunctor(g, f)),
            ("h", "halo_f", HostEffects(halo_refresh=(f,), fences=True)),
            ("k", "reader", P_INT, WestReadFunctor(f, out)),
            sink(out)))
        assert findings == []

    def test_redundant_exchange_fires(self, space, views):
        f, g, out = views["f"], views["g"], views["out"]
        findings = check_graph(sealed(
            space,
            ("k", "writer", P_INT, PointCopyFunctor(g, f)),
            ("h", "halo_f", HostEffects(halo_refresh=(f,), fences=True)),
            ("h", "halo_again", HostEffects(halo_refresh=(f,), fences=True)),
            ("k", "reader", P_INT, WestReadFunctor(f, out)),
            sink(out)))
        assert [x.rule for x in findings] == [RULE_REDUNDANT_EXCHANGE]
        assert findings[0].severity == Severity.INFO
        assert findings[0].kernel == "halo_again"

    def test_missing_fence_before_host_read_fires(self, space, views):
        # an exchange packs (reads) the interior the launch still writes
        f, g = views["f"], views["g"]
        findings = check_graph(sealed(
            space,
            ("k", "writer", P_INT, PointCopyFunctor(g, f)),
            ("h", "peek", HostEffects(halo_refresh=(f,)))))
        assert [x.rule for x in findings] == [RULE_GRAPH_FENCE]
        assert findings[0].severity == Severity.ERROR
        assert "writer" in findings[0].detail

    def test_fenced_host_read_is_clean(self, space, views):
        f, g = views["f"], views["g"]
        findings = check_graph(sealed(
            space,
            ("k", "writer", P_INT, PointCopyFunctor(g, f)),
            ("h", "peek", HostEffects(halo_refresh=(f,), fences=True))))
        assert findings == []

    def test_unfenced_rotation_fires(self, space, views):
        # rotation hands the pending launch's buffers to other views:
        # it races both the launch's read (g) and its write (f)
        f, g, out = views["f"], views["g"], views["out"]

        def rotated(fences):
            return check_graph(sealed(
                space,
                ("k", "writer", P_INT, PointCopyFunctor(g, f)),
                ("h", "rotate", HostEffects(rotates=[(f, g, out)],
                                            fences=fences))))

        findings = rotated(fences=False)
        assert {x.rule for x in findings} == {RULE_GRAPH_FENCE}
        assert {(x.kernel, x.view) for x in findings} == \
            {("rotate", "f"), ("rotate", "g")}
        assert rotated(fences=True) == []

    def test_hazard_across_the_step_boundary_fires(self, space, views,
                                                   monkeypatch):
        # a sealed graph replays in a loop: the launch at the tail is
        # still pending when the next replay's head reads its output
        f, g = views["f"], views["g"]
        graph = sealed(
            space,
            ("h", "peek", HostEffects(halo_refresh=(f,))),
            ("k", "writer", P_INT, PointCopyFunctor(g, f)))
        findings = check_graph(graph)
        assert [x.rule for x in findings] == [RULE_GRAPH_FENCE]
        assert findings[0].kernel == "peek" and "writer" in findings[0].detail
        # ... which only the wrap-around passes can see
        monkeypatch.setattr(graphcheck, "PASSES", 1)
        assert check_graph(graph) == []

    def test_dead_store_fires(self, space, views):
        f, g = views["f"], views["g"]
        findings = check_graph(sealed(
            space,
            ("k", "w1", P_INT, PointCopyFunctor(g, f)),
            ("k", "w2", P_INT, PointCopyFunctor(g, f)),
            sink(f)))
        assert [x.rule for x in findings] == [RULE_DEAD_STORE]
        assert findings[0].severity == Severity.INFO
        assert findings[0].kernel == "w1"

    def test_accumulate_is_not_a_dead_store(self, space, views):
        f, g = views["f"], views["g"]
        findings = check_graph(sealed(
            space,
            ("k", "w1", P_INT, PointCopyFunctor(g, f)),
            ("k", "acc", P_INT, AccumulateFunctor(g, f)),
            sink(f)))
        assert findings == []

    def test_opaque_host_node_is_a_sound_barrier(self, space, views):
        # an undeclared host node may have read and fenced everything:
        # the stale write/read pair around it must not report
        f, g = views["f"], views["g"]
        findings = check_graph(sealed(
            space,
            ("k", "writer", P_INT, PointCopyFunctor(g, f)),
            ("h", "mystery", None),
            ("h", "peek", HostEffects(halo_refresh=(f,)))))
        assert [x.rule for x in findings if x.rule == RULE_GRAPH_FENCE] == []


def captured_graphs(model_cls):
    """(model, its two sealed step graphs) on the tiny serial config."""
    from repro.ocean import ModelParams, demo

    model = model_cls(demo("tiny"), backend="serial",
                      params=ModelParams(graph=True, check_every=0))
    model.run_steps(2)
    graphs = [g for g in model._graphs.values() if g.sealed]
    assert len(graphs) == 2  # startup + steady variants
    return model, graphs


def errors_of(model_cls):
    model, graphs = captured_graphs(model_cls)
    try:
        return [f for g in graphs for f in check_graph(g)
                if f.severity >= Severity.ERROR]
    finally:
        model.close()


def without_fence(method):
    """The model with the ``space.fence()`` of ``method`` left out."""
    from repro.ocean import LICOMKpp

    def override(self, *args):
        self.space.fence = lambda: None
        try:
            return getattr(LICOMKpp, method)(self, *args)
        finally:
            del self.space.fence

    return type("Unfenced", (LICOMKpp,), {method: override})


class TestVerifierSoundness:
    """``fence()`` is a no-op on every backend, so a model that forgets
    one runs identically: only the verifier can fail, and it must."""

    #: method that fences -> host nodes that rely on that fence
    FENCES = {
        "_halo3_group": {"halo_momentum", "halo_tracer"},
        "_halo2_group": {"halo_eta", "halo_ubvb"},
        "_rotate_state": {"rotate"},
    }

    @pytest.mark.parametrize("method", sorted(FENCES))
    def test_dropped_fence_names_the_host_node(self, method):
        errors = errors_of(without_fence(method))
        assert {f.rule for f in errors} == {RULE_GRAPH_FENCE}
        assert {f.kernel for f in errors} == self.FENCES[method]

    def test_forgotten_exchange_field_is_a_stale_halo(self):
        from repro.ocean import LICOMKpp

        class ForgetsVb(LICOMKpp):
            def _halo_ubvb(self):
                self._halo2_group([(self.state.ub, -1.0, 0.0)])

        errors = errors_of(ForgetsVb)
        assert errors
        assert {(f.rule, f.view) for f in errors} == {(RULE_STALE_HALO, "vb")}

    def test_observed_effects_match_an_independent_recount(self):
        # re-run every captured host closure under spies on the space
        # and the halo updater: what the node is recorded to do is what
        # its closure does
        from repro.kokkos.graph import HostNode
        from repro.ocean import LICOMKpp

        model, graphs = captured_graphs(LICOMKpp)
        fences, packed = [], []
        update_many = model.halo.update_many

        def spy_update(fields, phase=None):
            packed.extend(arr for arr, _, _ in fields)
            update_many(fields, phase=phase)

        model.space.fence = lambda: fences.append(1)
        model.halo.update_many = spy_update
        exchanges = []
        try:
            for graph in graphs:
                for node in graph.nodes:
                    if not isinstance(node, HostNode):
                        continue
                    del fences[:], packed[:]
                    node.fn()
                    assert node.effects is not None, node.label
                    assert node.effects.fences == bool(fences), node.label
                    refreshed = node.effects.halo_refresh
                    assert len(refreshed) == len(packed), node.label
                    assert all(v.raw is arr
                               for v, arr in zip(refreshed, packed)), node.label
                    if packed:
                        exchanges.append(node.label)
        finally:
            model.close()
        assert exchanges and all(x.startswith("halo_") for x in exchanges)


BACKENDS = ("serial", "openmp", "athread", "cuda")


class TestSeedModelClean:
    @pytest.mark.parametrize("jit", [False, True], ids=["eager", "jit"])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_sealed_step_graphs_walk_clean(self, backend, jit):
        from repro.ocean import LICOMKpp, ModelParams, demo

        # jit: the backend's own swept plans; eager: an intercepting
        # subclass, whose graphs stay unfused on the generic plan
        model = LICOMKpp(demo("tiny"),
                         backend=backend if jit else intercepting(backend),
                         params=ModelParams(graph=True, check_every=0))
        try:
            model.run_steps(2)
            graphs = [g for g in model._graphs.values() if g.sealed]
            assert len(graphs) == 2  # startup + steady variants
            for graph in graphs:
                assert graph.jit_coverage == float(jit)
                assert check_graph(graph) == []
                assert (graph.fused_groups > 0) == jit
        finally:
            model.close()

    def test_run_graphcheck_report(self):
        report = run_graphcheck(backends=("serial",))
        assert report.tool == "graphcheck"
        assert report.ok and report.errors == []
        assert report.findings == []
        assert list(report.rules_run) == list(GRAPH_RULES)
        assert report.kernels_checked > 0
        assert "graphcheck:" in report.to_text()


class TestLintCliGraphMode:
    def test_lint_graph_serial_matrix_exits_zero(self, tmp_path, monkeypatch):
        # full matrix runs in CI; keep the unit test to one backend
        import repro.analysis as analysis
        from repro.cli import main

        real = analysis.run_graphcheck
        monkeypatch.setattr(
            analysis, "run_graphcheck",
            lambda: real(backends=("serial",)))
        out = tmp_path / "graph.json"
        rc = main(["lint", "--graph", "--format", "json",
                   "--output", str(out)])
        assert rc == 0
        import json

        doc = json.loads(out.read_text())
        assert doc["tool"] == "graphcheck" and doc["ok"] is True

    def test_trace_graph_reports_missing_graph_explicitly(self, capsys):
        # `repro trace --graph` on a model that captured nothing must
        # explain itself instead of crashing on an empty graph table
        from repro.cli import _report_jit_coverage

        class GraphlessModel:
            _graphs = {}

        _report_jit_coverage(GraphlessModel())
        out = capsys.readouterr().out
        assert "no sealed graph" in out

    def test_exit_gate_errors_only_unless_strict(self, capsys):
        # a warning-severity report exits 0 by default, 1 with --strict
        from repro.analysis import Finding, Report
        from repro.cli import _cmd_lint
        import argparse

        def fake_ns(**kw):
            base = dict(baseline=None, graph=False,
                        write_baseline=None, format="text",
                        output=None, verbose=False, strict=False)
            base.update(kw)
            return argparse.Namespace(**base)

        warn = Report(findings=[Finding(
            rule="cost-drift", severity=Severity.WARNING, kernel="k",
            view=None, detail="d")], kernels_checked=1, rules_run=["x"])
        import repro.analysis as analysis

        orig = analysis.run_kernelcheck
        try:
            analysis.run_kernelcheck = lambda baseline: warn
            assert _cmd_lint(fake_ns()) == 0
            assert _cmd_lint(fake_ns(strict=True)) == 1
        finally:
            analysis.run_kernelcheck = orig
        capsys.readouterr()
