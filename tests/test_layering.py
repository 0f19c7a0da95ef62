"""Package layering, checked on the source (AST import scan, nothing is
executed): the production packages hold the production path and its
oracle; the paper's ablation-only variants live in ``repro.experiments``.
"""

import ast
import functools
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

#: Names that left ``repro``: moved to ``repro.experiments.variants``,
#: deleted with the per-field exchange, or deleted with the abstract
#: interpreter the verifiers' observed footprints replaced.
GONE = {
    "LinkedListRegistry", "_Node", "pack_naive", "pack_sliced",
    "REAL_HALO_TRANSPOSES", "GHOST_HALO_TRANSPOSES",
    "transpose_real_halo_naive", "transpose_real_halo_blocked",
    "transpose_real_halo_vectorized", "transpose_ghost_halo_naive",
    "transpose_ghost_halo_blocked", "transpose_ghost_halo_vectorized",
    "exchange2d", "exchange3d", "_fold_payload", "PACKERS", "pack_kernel",
    "_PackFunctor", "_PACK_REGISTERED", "_PACK_LOCK", "update2d", "update3d",
    "overlapped_update", "message_counts_3d", "ExchangeEvent",
    "record_events", "messages_sent", "halo_fused", "halo_transpose",
    "analyze_functor", "KernelAnalysis", "BodyAnalyzer", "LoopSlice",
    "build_footprint", "collect_footprints", "static_cost",
    "StaticKernelCost", "crosscheck_declared_costs", "Accumulate2DFunctor",
    "absint",
}


def _modules(package):
    """(dotted name, is-a-package, parsed AST) for every module under
    ``package``."""
    root = SRC / package.replace(".", "/")
    for path in sorted(root.rglob("*.py")):
        parts = list(path.relative_to(SRC).with_suffix("").parts)
        is_package = parts[-1] == "__init__"
        if is_package:
            parts.pop()
        yield ".".join(parts), is_package, ast.parse(path.read_text())


@functools.lru_cache(maxsize=None)
def _imports(package):
    """{(importing module, absolute imported module)} under ``package``,
    function-level imports included, relative imports resolved."""
    found = set()
    for name, is_package, tree in _modules(package):
        here = name.split(".") if is_package else name.split(".")[:-1]
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                found.update((name, alias.name) for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                base = here[:len(here) - node.level + 1] if node.level else []
                target = ".".join(base + ([node.module] if node.module else []))
                found.add((name, target))
                # ``from . import x`` / ``from repro import x`` name modules
                found.update((name, f"{target}.{alias.name}")
                             for alias in node.names)
    return found


def _importers(package, forbidden):
    return sorted((src, dst) for src, dst in _imports(package)
                  if dst == forbidden or dst.startswith(forbidden + "."))


def test_parallel_imports_nothing_from_kokkos():
    assert _importers("repro.parallel", "repro.kokkos") == []


@pytest.mark.parametrize("package", [
    "kokkos", "parallel", "ocean", "serve", "trace", "analysis", "perfmodel"])
def test_only_the_cli_imports_experiments(package):
    assert _importers(f"repro.{package}", "repro.experiments") == []


def test_kokkos_imports_no_higher_layer():
    edges = [e for up in ("parallel", "ocean", "analysis", "experiments")
             for e in _importers("repro.kokkos", f"repro.{up}")]
    # the one known edge: ExecutionContext lazily builds its rank's
    # TrafficLedger
    assert all(src == "repro.kokkos.context"
               and dst.startswith("repro.parallel.comm")
               for src, dst in edges), edges


@pytest.mark.parametrize("package", [
    "repro.kokkos", "repro.parallel", "repro.analysis", "repro.perfmodel",
    "repro.ocean"])
def test_variants_left_the_production_packages(package):
    """None of the moved or deleted names is defined, bound, imported or
    exported anywhere under the package, and the retired modules are gone."""
    seen = set()
    for name, _, tree in _modules(package):
        seen.add(name.rsplit(".", 1)[-1])
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                seen.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                seen.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                seen.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                seen.update(a.asname or a.name for a in node.names)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                seen.add(node.value)        # __all__ entries
    assert seen & GONE == set()
