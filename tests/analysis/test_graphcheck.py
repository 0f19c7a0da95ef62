"""graphcheck: golden broken graphs, verifier soundness, node fences and
seed-model cleanliness.

Four layers of coverage:

* **Golden schedules** — small hand-built launch graphs each violating
  exactly one graphcheck rule family (stale-halo read, redundant
  exchange, dead store), asserting the verifier reports exactly the
  intended finding.  Adjacent launches seal into one fused node, so the
  goldens also pin that a fused node is walked part by part, under each
  part's own label.
* **Verifier soundness** — the production model with one exchanged
  field left out: the verifier must name the stale read from the
  sealed schedule alone, including a read one leapfrog phase graph
  inherits from another.
* **Node fences** — fences are a property of the node type, checked
  by spying on the exchange node's ``run()``: ``fence()`` is a no-op
  on the synchronous backends, so no run can miss one.
* **Seed model** — the tiny demo model's sealed step graphs, walked in
  replay order, are clean on every backend, both swept (the concrete
  backend) and replayed unfused through ``run_for`` (an intercepting
  subclass of it).
"""

import pytest

from repro.analysis import Severity, graphcheck
from repro.analysis.graphcheck import check_graph, run_graphcheck
from repro.analysis.rules import (
    GRAPH_RULES,
    RULE_DEAD_STORE,
    RULE_REDUNDANT_EXCHANGE,
    RULE_STALE_HALO,
)
from repro.kokkos import (
    ExchangeNode,
    LaunchGraph,
    MDRangePolicy,
    View,
    make_backend,
)
from tests.conftest import FakeHalo, intercepting
from tests.analysis.broken_graph import (
    AccumulateFunctor,
    ColumnCopyFunctor,
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
    """Build + seal a graph from ('k', label, policy, functor) launches
    and ('x', label, *views) exchanges over a fake halo."""
    graph = LaunchGraph(space)
    for kind, label, *args in records:
        if kind == "k":
            graph.add_kernel(label, *args)
        else:
            graph.add(ExchangeNode(label, space, FakeHalo(),
                                   [(v, 1.0, 0.0) for v in args]))
    return graph.seal()


def sink(*vs):
    """An exchange of ``vs`` — keeps final writes from looking dead when
    the schedule wraps around."""
    return ("x", "sink", *vs)


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
            ("x", "halo_f", f),
            ("k", "reader", P_INT, WestReadFunctor(f, out)),
            sink(out)))
        assert findings == []

    def test_redundant_exchange_fires(self, space, views):
        f, g, out = views["f"], views["g"], views["out"]
        findings = check_graph(sealed(
            space,
            ("k", "writer", P_INT, PointCopyFunctor(g, f)),
            ("x", "halo_f", f),
            ("x", "halo_again", f),
            ("k", "reader", P_INT, WestReadFunctor(f, out)),
            sink(out)))
        assert [x.rule for x in findings] == [RULE_REDUNDANT_EXCHANGE]
        assert findings[0].severity == Severity.INFO
        assert findings[0].kernel == "halo_again"

    def test_hazard_across_the_step_boundary_fires(self, space, views,
                                                   monkeypatch):
        # a sealed graph replays in a loop: the interior write at the
        # tail leaves the ring stale for the next replay's head reader
        f, g, out = views["f"], views["g"], views["out"]
        graph = sealed(
            space,
            ("k", "reader", P_INT, WestReadFunctor(f, out)),
            sink(out),
            ("k", "writer", P_INT, PointCopyFunctor(g, f)))
        findings = check_graph(graph)
        assert [(x.rule, x.kernel, x.view) for x in findings] == \
            [(RULE_STALE_HALO, "reader", "f")]
        assert "'writer'" in findings[0].detail
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


def captured_graphs(model_cls):
    """(model, its sealed step graphs in replay order) on the tiny
    serial config: the startup graph and the three leapfrog phases."""
    from repro.ocean import ModelParams, demo

    model = model_cls(demo("tiny"), backend="serial",
                      params=ModelParams(check_every=0))
    model.run_steps(4)
    graphs = [g for g in model._graphs.values() if g.sealed]
    assert len(graphs) == 4
    return model, graphs


def errors_of(model_cls):
    model, graphs = captured_graphs(model_cls)
    try:
        return [f for f in check_graph(graphs)
                if f.severity >= Severity.ERROR]
    finally:
        model.close()


class TestVerifierSoundness:
    """A schedule bug seeded into the production model: the verifier
    must name it from the sealed graph alone."""

    def test_stale_old_tracer_ring_reaches_the_fct_limiter(self, space):
        """An interior-only write to the limiter's ``t_old`` with no
        exchange before the real ``FCTLimitFunctor``: its Zalesak
        envelope reads ``t_old`` at ±1, so the ring it reads is stale."""
        from repro.kokkos.graph import KernelNode
        from repro.ocean import LICOMKpp
        from repro.ocean.kernels_tracer import FCTLimitFunctor

        model, graphs = captured_graphs(LICOMKpp)
        try:
            node, fct = next(
                (n, f) for g in graphs for n in g.nodes
                if isinstance(n, KernelNode)
                for _, f in n.parts() if isinstance(f, FCTLimitFunctor))
            t_old = fct.t_old
            src = View("src", t_old.shape)
            findings = check_graph(sealed(
                space,
                ("k", "writer", node.policy, ColumnCopyFunctor(src, t_old)),
                ("k", "advect_tracer_limits", node.policy, fct)))
        finally:
            model.close()
        errors = [(f.rule, f.kernel, f.view) for f in findings
                  if f.severity >= Severity.ERROR]
        assert errors == [(RULE_STALE_HALO, "advect_tracer_limits",
                           t_old.label)]

    def test_forgotten_exchange_field_is_a_stale_halo(self, monkeypatch):
        """The barotropic momentum computes the (ub, vb) ring continuity
        reads from the depth-mean force's ghosts: drop (gx, gy) from
        ``halo_momentum`` and that ring is computed from stale data.
        graphcheck names it on continuity's reads, and a rank world's
        state moves off its pin."""
        from repro.ocean import LICOMKpp
        from tests.ocean.test_world_digests import PINS, world_digest

        exchange = LICOMKpp._exchange

        def forgets_gforce(self, label, fields):
            if label == "halo_momentum":
                fields = [x for x in fields
                          if x[0] is not self.gx and x[0] is not self.gy]
            exchange(self, label, fields)

        class ForgetsGForce(LICOMKpp):
            _exchange = forgets_gforce

        errors = errors_of(ForgetsGForce)
        assert {(f.rule, f.kernel, f.view) for f in errors} == {
            (RULE_STALE_HALO, "barotropic_continuity", "ub"),
            (RULE_STALE_HALO, "barotropic_continuity", "vb")}
        monkeypatch.setattr(LICOMKpp, "_exchange", forgets_gforce)
        assert world_digest(1, 2) != PINS[(1, 2)]["double"]

    def test_forgotten_new_tracer_exchange_is_stale_two_phases_on(
            self, monkeypatch):
        """Drop the last ``halo_tracer`` exchange (the new tracer
        levels): two phases later that level is ``old``, and the
        horizontal diffusion reads its ring.  Walked alone, a phase
        graph never writes its ``old`` level; only the walk that carries
        each view from one phase graph into the next names the read."""
        from repro.ocean import LICOMKpp
        from tests.ocean.test_world_digests import PINS, world_digest

        exchange = LICOMKpp._exchange

        def forgets_new_tracers(self, label, fields):
            if label == "halo_tracer" and fields[0][0] is self.state.t.new:
                return
            exchange(self, label, fields)

        class ForgetsNewTracers(LICOMKpp):
            _exchange = forgets_new_tracers

        model, graphs = captured_graphs(ForgetsNewTracers)
        try:
            stale = {f.view for f in check_graph(graphs)
                     if (f.rule, f.kernel) == (RULE_STALE_HALO,
                                               "tracer_hdiff")}
            alone = [f for g in graphs[1:] for f in check_graph(g)
                     if f.kernel == "tracer_hdiff"]
            levels = {fld: {v.label for v in fld.levels}
                      for fld in (model.state.t, model.state.s)}
        finally:
            model.close()
        assert alone == []
        for fld, labels in levels.items():
            assert stale & labels, (fld.name, stale)
        monkeypatch.setattr(LICOMKpp, "_exchange", forgets_new_tracers)
        assert world_digest(1, 2) != PINS[(1, 2)]["double"]


class TestNodeFences:
    """The exchange node fences before it touches a buffer, so no sealed
    schedule can miss a fence.  ``fence()`` is a no-op on every backend
    and a node without one runs identically: a spy on the call order is
    the check."""

    @pytest.fixture()
    def events(self, space):
        log = []
        space.fence = lambda: log.append("fence")
        return log

    def test_exchange_node_fences_before_update_many(self, space, views,
                                                     events):
        f = views["f"]
        ExchangeNode("halo_f", space, FakeHalo(events), [(f, 1.0, 0.0)]).run()
        assert events == ["fence", ("halo2", [(f.raw, 1.0, 0.0)])]


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
                         params=ModelParams(check_every=0))
        try:
            model.run_steps(4)
            graphs = [g for g in model._graphs.values() if g.sealed]
            assert len(graphs) == 4  # startup + three leapfrog phases
            assert check_graph(graphs) == []
            for graph in graphs:
                assert graph.jit_coverage == float(jit)
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
