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
#: deleted with the per-field exchange, deleted with the abstract
#: interpreter the verifiers' observed footprints replaced, or deleted
#: (moved to ``tests/``) because no production entry point reached them.
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
    # surface no production entry point reached (tests/test_reachability.py)
    "team", "TeamPolicy", "TeamMember", "parallel_for_team",
    "parallel_reduce_team", "dualview", "DualView", "parallel_scan",
    "overlapped_update_fused", "overlap_time", "interior_core",
    "boundary_strip", "Partitioner", "Placement", "placement", "land_blocks",
    "sendrecv", "isend", "bcast", "alltoall", "HistoryAccumulator",
    "restart_nbytes", "io_cost_estimate", "density_unesco",
    "buoyancy_frequency_sq", "meridional_overturning",
    "barotropic_streamfunction", "wind_power_input", "kinetic_energy_joules",
    "kinetic_energy_spectrum", "get_config", "ledger_wire_time",
    "validate_presets", "measured_load_imbalance",
    "decomposition_load_imbalance", "rank_points", "merge_traffic",
    "idealized", "make_channel_model", "channel_topography", "quiesce",
    "impose_ssh_bump", "impose_geostrophic_state", "gravity_wave_speed",
    "certify_precision", "create_device_view", "views_nbytes",
    "read_probes", "record_dma", "disable_tracing", "pooled_buffers",
    "phase_messages", "phase_bytes", "memory_bytes",
    # allocating kernel helpers, replaced by arena-backed bodies
    "face_u_east", "face_u_west", "face_v_north", "face_v_south",
    "t_at_u", "sh_back", "_face_volumes", "_central_fluxes",
    # a view keeps its buffer for life: the leapfrog rotates roles
    "RotateNode", "rebind", "_rot_cache", "scratch",
    # scratch belongs to an arena (one per model, one per OpenMP chunk),
    # not to the thread that takes it
    "_pools", "_pools_lock",
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
    assert edges == []


@pytest.mark.parametrize("package", [
    "repro.kokkos", "repro.parallel", "repro.analysis", "repro.perfmodel",
    "repro.ocean", "repro.serve"])
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


def test_domain_rotation_rows_are_not_cached():
    """``coriolis_rotation`` stays the Coriolis kernel's label (a string
    constant GONE would catch), so the deleted ``LocalDomain`` method of
    that name is checked here."""
    from repro.ocean.localdomain import LocalDomain

    assert not hasattr(LocalDomain, "coriolis_rotation")
