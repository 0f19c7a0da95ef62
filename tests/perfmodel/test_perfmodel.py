"""Machine model: registry, profile measurement, roofline, network."""

import numpy as np
import pytest

from repro.errors import UnknownMachineError
from repro.ocean.config import PAPER_CONFIGS
from repro.perfmodel import (
    DEFAULT_PROFILE,
    HALO,
    MACHINES,
    SUPPORT_MATRIX,
    block_extents,
    comm_time_per_step,
    compute_time_per_step,
    get_machine,
    halo_update_cost,
    measure_step_profile,
    polar_fixed_cost,
    support_matrix_rows,
)


class TestMachineRegistry:
    def test_four_systems(self):
        assert set(MACHINES) == {"gpu_workstation", "orise", "new_sunway", "taishan"}

    def test_table2_facts(self):
        sunway = get_machine("new_sunway")
        assert sunway.units_per_node == 6          # 6 CGs per SW26010 Pro
        assert sunway.cores_per_unit == 65         # 1 MPE + 64 CPEs
        assert sunway.cores(6) == 390              # paper: 390 cores/processor
        assert sunway.mem_bw_unit == 51.2e9        # paper: 51.2 GB/s per CG
        assert sunway.host_device_bw is None       # unified memory space
        orise = get_machine("orise")
        assert orise.units_per_node == 4           # 4 HIP GPUs per node
        assert orise.host_device_bw == 16.0e9      # paper: 16 GB/s DMA
        assert orise.net_bw == 25.0e9              # paper: 25 GB/s network
        v100 = get_machine("gpu_workstation")
        assert v100.mem_bw_unit == pytest.approx(887.9e9)  # paper §VII-D

    def test_sunway_core_accounting_matches_paper(self):
        sunway = get_machine("new_sunway")
        # Table V: 38,366,250 cores <=> 590,250 ranks
        assert sunway.cores(590250) == 38366250

    def test_table1_matrix(self):
        rows = support_matrix_rows()
        assert rows == SUPPORT_MATRIX
        models = {arch: model for arch, model, _ in rows}
        assert models["Sunway many-cores"] == "Athread"
        assert models["NVIDIA GPUs"] == "CUDA"
        sunway_row = [r for r in rows if r[0] == "Sunway many-cores"][0]
        assert "This work" in sunway_row[2]

    def test_unknown_machine(self):
        with pytest.raises(UnknownMachineError):
            get_machine("fugaku")


class TestStepProfile:
    def test_measured_matches_frozen(self):
        """The frozen DEFAULT_PROFILE must match a live measurement."""
        live = measure_step_profile("tiny", steps=2)
        assert live.halo3_per_step == DEFAULT_PROFILE.halo3_per_step == 14
        assert live.halo2_per_sub == DEFAULT_PROFILE.halo2_per_sub == 1
        assert live.halo2_per_step == DEFAULT_PROFILE.halo2_per_step == 4
        assert live.bytes3 == pytest.approx(DEFAULT_PROFILE.bytes3, rel=0.02)
        assert live.flops3 == pytest.approx(DEFAULT_PROFILE.flops3, rel=0.02)
        assert live.bytes2_sub == pytest.approx(DEFAULT_PROFILE.bytes2_sub, rel=0.02)
        assert live.launches_fixed == pytest.approx(
            DEFAULT_PROFILE.launches_fixed, abs=2.0)

    def test_memory_bound(self):
        """LICOMK++ has a very low compute-to-memory ratio (§VII-D)."""
        ai = DEFAULT_PROFILE.flops3 / DEFAULT_PROFILE.bytes3
        assert ai < 1.0  # well below any machine's balance point

    def test_launch_count(self):
        assert DEFAULT_PROFILE.launches(10) == pytest.approx(
            DEFAULT_PROFILE.launches_fixed + 20.0)


class TestComputeTime:
    def test_scales_inversely_with_units(self):
        m = get_machine("orise")
        t1 = compute_time_per_step(DEFAULT_PROFILE, m, 1e7, 1e5, 10)
        t2 = compute_time_per_step(DEFAULT_PROFILE, m, 5e6, 5e4, 10)
        assert t1 > t2
        # the workload part halves; only launch overhead is fixed
        assert (t1 - t2) > 0.4 * (t1 - DEFAULT_PROFILE.launches(10) * m.launch_overhead)

    def test_fortran_slower_than_kokkos(self):
        """Per-node comparison on the accelerated machines (Fig. 7 shows
        7-11.5x speedups there; Taishan is near parity and excluded)."""
        for name in ("gpu_workstation", "orise", "new_sunway"):
            m = get_machine(name)
            # same node workload: kokkos splits it over the node's units
            tk = compute_time_per_step(DEFAULT_PROFILE, m, 1e6 / m.units_per_node,
                                       1e4 / m.units_per_node, 10)
            tf = compute_time_per_step(DEFAULT_PROFILE, m, 1e6 / m.units_per_node,
                                       1e4 / m.units_per_node, 10, fortran=True)
            assert tf > tk

    def test_more_substeps_cost_more(self):
        m = get_machine("new_sunway")
        t10 = compute_time_per_step(DEFAULT_PROFILE, m, 1e6, 1e4, 10)
        t20 = compute_time_per_step(DEFAULT_PROFILE, m, 1e6, 1e4, 20)
        assert t20 > t10


class TestNetworkModel:
    def test_block_extents_cover(self):
        cfg = PAPER_CONFIGS["km_1km"]
        nyl, nxl = block_extents(cfg, 16000)
        assert nyl * nxl * 16000 <= cfg.nx * cfg.ny * 1.3
        assert nyl > 0 and nxl > 0

    def test_halo_cost_positive_components(self):
        m = get_machine("orise")
        c = halo_update_cost(m, 200, 300, 80)
        assert c.pack > 0 and c.wire > 0 and c.staging > 0

    def test_unified_memory_has_no_staging(self):
        c = halo_update_cost(get_machine("new_sunway"), 200, 300, 80)
        assert c.staging == 0.0

    def test_optimized_cheaper_than_original(self):
        m = get_machine("new_sunway")
        opt = halo_update_cost(m, 100, 100, 80, optimized=True)
        orig = halo_update_cost(m, 100, 100, 80, optimized=False)
        assert (opt.pack + opt.staging + opt.wire
                < orig.pack + orig.staging + orig.wire)
        assert orig.messages == 4 * 80      # per-level messages
        assert opt.messages == 4            # transposed single message

    def test_2d_update_message_count(self):
        c = halo_update_cost(get_machine("orise"), 100, 100, 1)
        assert c.messages == 4

    def test_polar_cost_independent_of_ranks(self):
        m = get_machine("new_sunway")
        cfg = PAPER_CONFIGS["km_1km"]
        assert polar_fixed_cost(m, cfg, 12) == polar_fixed_cost(m, cfg, 12)
        small = polar_fixed_cost(m, PAPER_CONFIGS["coarse_100km"], 12)
        large = polar_fixed_cost(m, cfg, 12)
        assert large > small * 100  # scales with nx * nz

    def test_comm_time_decreases_with_block_size_then_floors(self):
        m = get_machine("orise")
        cfg = PAPER_CONFIGS["km_1km"]
        t_small_p = comm_time_per_step(m, cfg, 1000, 12, 3)
        t_large_p = comm_time_per_step(m, cfg, 16000, 12, 3)
        # surface shrinks but the fixed polar term remains
        assert t_large_p < t_small_p
        assert t_large_p > polar_fixed_cost(m, cfg, 12) * 0.99

    def test_load_imbalance_inflates(self):
        m = get_machine("new_sunway")
        cfg = PAPER_CONFIGS["km_1km"]
        base = comm_time_per_step(m, cfg, 1000, 12, 3)
        inflated = comm_time_per_step(m, cfg, 1000, 12, 3, loadbalance_factor=1.2)
        assert inflated == pytest.approx(1.2 * base)

    def test_overlap_reduces_wire_cost(self):
        m = get_machine("orise")
        cfg = PAPER_CONFIGS["km_1km"]
        hidden = comm_time_per_step(m, cfg, 4000, 12, 3, compute3_time=1.0)
        exposed = comm_time_per_step(m, cfg, 4000, 12, 3, compute3_time=0.0)
        assert hidden < exposed


class TestJitLaunchDiscount:
    def test_launch_overheads_discounts_compiled(self):
        from repro.perfmodel.kernelcost import JIT_DISPATCH_FRACTION

        p = DEFAULT_PROFILE
        base = p.launch_overheads(10)
        assert base == p.launches(10)
        # graph=True prices what graph=True runs: every replayed launch
        # is swept from a sealed plan, at the dispatch fraction
        graph = p.launch_overheads(10, graph=True)
        assert graph == JIT_DISPATCH_FRACTION * p.launches_graph(10)
        assert graph < p.launches_graph(10) < base

    def test_compiled_never_exceeds_replayed(self):
        from dataclasses import replace as dc_replace

        # fusion cannot save more launches than the step issues
        p = dc_replace(DEFAULT_PROFILE, launches_fused_saved=1e6)
        assert p.launches_graph(10) == 0.0
        assert p.launch_overheads(10, graph=True) == 0.0

    def test_default_profile_has_coverage(self):
        # coverage is 100% at every size, so the discount reaches every
        # replayed launch however long the barotropic subcycle is (it
        # used to stop at the tiny config's 30)
        from repro.perfmodel.kernelcost import JIT_DISPATCH_FRACTION

        p = DEFAULT_PROFILE
        for nsub in (6, 60, 600):
            assert p.launch_overheads(nsub, graph=True) == \
                JIT_DISPATCH_FRACTION * p.launches_graph(nsub)

    def test_measured_coverage_matches_frozen(self):
        # what pricing consumes is the post-fusion launch count the
        # discount is applied to: the frozen profile's must be the live
        # steady-state graph's launches per replay
        from repro.ocean import LICOMKpp, ModelParams, demo

        cfg = demo("tiny")
        model = LICOMKpp(cfg, params=ModelParams(check_every=0))
        try:
            model.run_steps(3)
            steady = [g for (startup, _, _), g in model._graphs.items()
                      if not startup]
            live = steady[0].launches_per_replay
        finally:
            model.close()
        nsub = cfg.barotropic_substeps
        assert DEFAULT_PROFILE.launches_graph(nsub) == live == 30

    def test_compute_time_jit_cheaper_under_graph(self):
        m = get_machine("new_sunway")
        from repro.perfmodel.kernelcost import JIT_DISPATCH_FRACTION

        te = compute_time_per_step(DEFAULT_PROFILE, m, 1e6, 1e4, 10)
        tg = compute_time_per_step(DEFAULT_PROFILE, m, 1e6, 1e4, 10,
                                   graph=True)
        saved = DEFAULT_PROFILE.launches(10) - \
            JIT_DISPATCH_FRACTION * DEFAULT_PROFILE.launches_graph(10)
        assert te - tg == pytest.approx(saved * m.launch_overhead)
