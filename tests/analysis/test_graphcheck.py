"""graphcheck: golden broken graphs, seed-model cleanliness, certification.

Three layers of coverage:

* **Golden schedules** — small hand-built launch graphs each violating
  exactly one graphcheck rule family (cross-launch race, stale-halo
  read, redundant exchange, dead store, missing fence), asserting the
  verifier reports exactly the intended finding.
* **Seed model** — the tiny demo model's sealed step graphs walk clean
  on every backend, both fully compiled and with lowering unavailable
  (the un-fused interpreted fallback, the only schedule whose fusion
  groups need tiling-safety), and every fusion group the seal pass
  accepted is independently certified (differential test).
* **Certification hook** — ``seal(certify=True)`` rejects a
  deliberately corrupted fusion group and accepts a legal one.
"""

import pytest

from repro.analysis import Severity
from repro.analysis.graphcheck import (
    GraphLintConfig,
    certify_fusion,
    check_fusion_legality,
    check_graph,
    run_graphcheck,
)
from repro.analysis.rules import (
    GRAPH_RULES,
    RULE_DEAD_STORE,
    RULE_GRAPH_FENCE,
    RULE_GRAPH_RACE,
    RULE_REDUNDANT_EXCHANGE,
    RULE_STALE_HALO,
)
from repro.errors import GraphCertificationError
from repro.kokkos import (
    FusedStencilFunctor,
    HostEffects,
    LaunchGraph,
    MDRangePolicy,
    View,
    make_backend,
)
from repro.kokkos.graph import KernelNode
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
    ('h', label, effects) records (fusion off: the schedule is the
    point, not the optimizer)."""
    graph = LaunchGraph(space, fuse=False, jit=False)
    for kind, *args in records:
        if kind == "k":
            graph.add_kernel(*args)
        else:
            graph.add_host(lambda: None, args[0], args[1])
    return graph.seal()


def sink(*vs):
    """A fenced host read of ``vs`` — keeps final writes from looking
    dead when the schedule wraps around."""
    return ("h", "sink", HostEffects(reads=vs, fences=True))


class TestGoldenSchedules:
    def test_stale_halo_read_fires(self, space, views):
        f, g, out = views["f"], views["g"], views["out"]
        findings = check_graph(sealed(
            space,
            ("k", "writer", P_INT, PointCopyFunctor(g, f)),
            ("k", "reader", P_INT, WestReadFunctor(f, out)),
            sink(out)))
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
        f, g = views["f"], views["g"]
        findings = check_graph(sealed(
            space,
            ("k", "writer", P_INT, PointCopyFunctor(g, f)),
            ("h", "peek", HostEffects(reads=(f,)))))
        assert [x.rule for x in findings] == [RULE_GRAPH_FENCE]
        assert findings[0].severity == Severity.ERROR
        assert "writer" in findings[0].detail

    def test_fenced_host_read_is_clean(self, space, views):
        f, g = views["f"], views["g"]
        findings = check_graph(sealed(
            space,
            ("k", "writer", P_INT, PointCopyFunctor(g, f)),
            ("h", "peek", HostEffects(reads=(f,), fences=True))))
        assert findings == []

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
            ("h", "peek", HostEffects(reads=(f,)))))
        assert [x.rule for x in findings if x.rule == RULE_GRAPH_FENCE] == []


class TestFusionLegality:
    def _corrupt_node(self, views):
        f, g, out = views["f"], views["g"], views["out"]
        fused = FusedStencilFunctor(
            [PointCopyFunctor(g, f), WestReadFunctor(f, out)],
            ["w", "r"], halo=1)
        return KernelNode("fused[w+r]", P_INT, fused)

    def test_dependent_stencil_parts_refused(self, space, views):
        graph = LaunchGraph(space, fuse=False, jit=False)
        graph.nodes.append(self._corrupt_node(views))
        graph.sealed = True
        findings = check_fusion_legality(graph)
        assert [x.rule for x in findings] == [RULE_GRAPH_RACE]
        assert findings[0].severity == Severity.ERROR
        assert findings[0].view == "f"
        assert certify_fusion(graph) == findings

    def test_seal_certify_rejects_corrupted_group(self, space, views):
        graph = LaunchGraph(space, fuse=False, jit=False)
        graph.nodes.append(self._corrupt_node(views))
        with pytest.raises(GraphCertificationError, match="graph-race"):
            graph.seal(certify=True)

    def test_seal_certify_accepts_legal_fusion(self, space, views):
        f, g, out = views["f"], views["g"], views["out"]
        graph = LaunchGraph(space, fuse=True, jit=False)
        # dependent but point-local: tiling-legal, fuses into one node
        graph.add_kernel("a", P_INT, PointCopyFunctor(g, f))
        graph.add_kernel("b", P_INT, PointCopyFunctor(f, out))
        graph.seal(certify=True)
        assert graph.fused_groups == 1

    def test_offset_zero_raw_exemption_only(self, space, views):
        # the same dependent pair with no stencil offsets passes the
        # independent proof too (per-tile capture order == eager order)
        f, g, out = views["f"], views["g"], views["out"]
        from repro.kokkos import FusedTileFunctor

        fused = FusedTileFunctor(
            [PointCopyFunctor(g, f), PointCopyFunctor(f, out)], ["a", "b"])
        node = KernelNode("fused[a+b]", P_INT, fused)
        graph = LaunchGraph(space, fuse=False, jit=False)
        graph.nodes.append(node)
        graph.sealed = True
        assert check_fusion_legality(graph) == []


BACKENDS = ("serial", "openmp", "athread", "cuda")


class TestSeedModelClean:
    @pytest.mark.parametrize("jit", [False, True], ids=["eager", "jit"])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_sealed_step_graphs_walk_clean(self, backend, jit, monkeypatch):
        from repro.kokkos import jit as jit_mod
        from repro.ocean import LICOMKpp, ModelParams, demo

        if not jit:
            # no plan lowers: every launch stays on its interpreted plan
            monkeypatch.setattr(jit_mod, "compile_sweep",
                                lambda *a, **k: None)
        model = LICOMKpp(demo("tiny"), backend=backend,
                         params=ModelParams(graph=True, check_every=0))
        try:
            model.run_steps(2)
            graphs = [g for g in model._graphs.values() if g.sealed]
            assert len(graphs) == 2  # startup + steady variants
            for graph in graphs:
                assert graph.jit_coverage == float(jit)
                assert check_graph(graph) == []
                # differential: every fusion group the seal pass
                # accepted is certified by the independent prover
                assert certify_fusion(graph) == []
                assert graph.fused_groups > 0
        finally:
            model.close()

    def test_run_graphcheck_report(self):
        report = run_graphcheck(GraphLintConfig(backends=("serial",)))
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
            lambda cfg=None: real(GraphLintConfig(backends=("serial",))))
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
            base = dict(baseline=None, graph=False, no_drivers=False,
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
            analysis.run_kernelcheck = lambda cfg: warn
            assert _cmd_lint(fake_ns()) == 0
            assert _cmd_lint(fake_ns(strict=True)) == 1
        finally:
            analysis.run_kernelcheck = orig
        capsys.readouterr()
