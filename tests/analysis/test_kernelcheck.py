"""Whole-tree kernelcheck: the seed kernels are clean, and stay checkable."""

import json

from repro.analysis import (
    ALL_RULES,
    collect_footprints,
    run_kernelcheck,
)
from repro.parallel.decomp import DEFAULT_HALO
from repro.perfmodel.kernelcost import crosscheck_declared_costs


class TestSeedTreeClean:
    def test_zero_findings(self):
        rep = run_kernelcheck()
        assert rep.kernels_checked >= 15
        assert list(rep.rules_run) == list(ALL_RULES)
        assert rep.findings == []
        assert rep.ok

    def test_every_kernel_analyzable(self):
        fps = collect_footprints()
        assert fps and all(fp.error is None for fp in fps)

    def test_extracted_halos_match_declarations(self):
        """Static extraction agrees with every declared ``stencil_halo``."""
        for fp in collect_footprints():
            declared = int(getattr(fp.functor_type, "stencil_halo", 0))
            assert fp.stencil_halo <= declared <= DEFAULT_HALO, fp.kernel

    def test_known_stencils(self):
        halos = {fp.kernel: fp.stencil_halo
                 for fp in collect_footprints()}
        assert halos["baroclinic_tendency"] == 2   # biharmonic = Lap o Lap
        assert halos["tracer_hdiff"] == 1          # 5-point Laplacian
        assert halos["eos_density"] == 0           # pointwise


class TestPerfmodelCrosscheck:
    def test_declared_bytes_within_static_interval(self):
        """Independent check of the roofline inputs (ISSUE satellite)."""
        assert crosscheck_declared_costs() == []

    def test_crosscheck_catches_dishonesty(self):
        offenders = crosscheck_declared_costs(bytes_lo=5.0)
        assert offenders  # an absurd lower bound must flag something


class TestJsonReport:
    def test_report_json_is_machine_readable(self):
        rep = run_kernelcheck()
        doc = json.loads(rep.to_json())
        assert doc["ok"] is True
        assert doc["kernels_checked"] == rep.kernels_checked
        assert doc["findings"] == []
        assert set(doc["rules_run"]) == set(ALL_RULES)
