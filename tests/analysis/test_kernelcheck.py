"""Whole-tree kernelcheck: the seed kernels are clean, and every one of
them is observed under the lint matrix."""

import json

from repro.analysis import ALL_RULES, kernel_footprints, run_kernelcheck
from repro.parallel.decomp import DEFAULT_HALO


class TestSeedTreeClean:
    def test_zero_findings(self):
        rep = run_kernelcheck()
        assert rep.kernels_checked >= 15
        assert list(rep.rules_run) == list(ALL_RULES)
        assert rep.findings == []
        assert rep.ok

    def test_every_kernel_analyzable(self):
        """Every registered kernel is bound by some lint-matrix launch."""
        fps = kernel_footprints()
        assert fps and all(fp.observed for fp in fps)

    def test_extracted_halos_match_declarations(self):
        """The observed reach agrees with every declared ``stencil_halo``."""
        for fp in kernel_footprints():
            declared = int(getattr(fp.functor_type, "stencil_halo", 0))
            assert fp.stencil_halo <= declared <= DEFAULT_HALO, fp.kernel

    def test_known_stencils(self):
        halos = {fp.kernel: fp.stencil_halo for fp in kernel_footprints()}
        assert halos["baroclinic_tendency"] == 2   # biharmonic = Lap o Lap
        assert halos["tracer_hdiff"] == 1          # 5-point Laplacian
        assert halos["eos_density"] == 0           # pointwise

    def test_fct_limiter_reads_its_old_tracer_ring(self):
        """The Zalesak envelope reads ``t_old`` and the mask at ±1,
        through ``_local_bounds``' loop over ``(t_old, t_star)``."""
        fp, = [fp for fp in kernel_footprints()
               if fp.kernel == "advect_tracer_limits"]
        assert fp.halo["t_old"] == 1
        assert fp.halo["dom.mask_t"] == 1


class TestJsonReport:
    def test_report_json_is_machine_readable(self):
        rep = run_kernelcheck()
        doc = json.loads(rep.to_json())
        assert doc["ok"] is True
        assert doc["kernels_checked"] == rep.kernels_checked
        assert doc["findings"] == []
        assert set(doc["rules_run"]) == set(ALL_RULES)
