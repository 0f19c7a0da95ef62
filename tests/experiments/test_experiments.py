"""Experiment drivers: every table/figure regenerator runs and asserts
its paper claim (laptop-scale analogs for the science figures)."""

import numpy as np
import pytest

from repro.experiments import ablations, performance, science, tables


class TestTables:
    def test_table1_has_five_architectures(self):
        rows = tables.table1_rows()
        assert len(rows) == 5
        assert ("Sunway many-cores", "Athread", "Yes (This work)") in rows

    def test_table2_four_systems(self):
        assert len(tables.table2_rows()) == 4

    def test_table3_four_configs(self):
        rows = tables.table3_rows()
        assert len(rows) == 4
        assert {c.resolution_km for c in rows} == {100.0, 10.0, 2.0, 1.0}

    def test_table4_six_scales(self):
        assert len(tables.table4_rows()) == 6

    def test_formatting_renders(self):
        assert "Athread" in tables.format_table1()
        assert "SW26010" in tables.format_table2()
        assert "36000" in tables.format_table3()
        assert "38366250" in tables.format_table4()


class TestPerformanceFigures:
    def test_fig2_series(self):
        pts = performance.fig2_series()
        assert len(pts) == 10
        assert sum(1 for p in pts if p[3]) == 2  # two this-work points
        assert "Veros" in performance.format_fig2()

    def test_fig7_rows(self):
        rows = performance.fig7_rows()
        assert len(rows) == 4
        for r in rows:
            assert r.kokkos_sypd > r.fortran_sypd
            assert r.kokkos_sypd == pytest.approx(r.paper_kokkos, rel=0.15)
        assert "LICOMK++" in performance.format_fig7()

    def test_table5_sweeps(self):
        sweeps = performance.table5_sweeps()
        assert len(sweeps) == 6  # 2 machines x 3 resolutions
        for (machine, cfg), (rows, paper) in sweeps.items():
            assert len(rows) == len(paper)
        assert "km_1km" in performance.format_table5()

    def test_fig9_series(self):
        rows = performance.fig9_series("orise")
        assert len(rows) == 6
        assert rows[-1].efficiency > 0.8
        assert "weak scaling" in performance.format_fig9()

    def test_optimization_rows(self):
        rows = performance.optimization_rows()
        assert len(rows) == 2
        for name, model, paper in rows:
            assert model > 1.5
        assert "paper" in performance.format_optimizations()


class TestScienceFigures:
    @pytest.fixture(scope="class")
    def fig1(self):
        return science.run_fig1(size="tiny", days=3.0)

    def test_fig1_sst_structure(self, fig1):
        s = fig1.sst
        # the tiny demo's top layer is ~850 m thick, so absolute SSTs sit
        # below the paper's skin values; the structure is what matters
        assert s.tropical_mean > 15.0          # warm pool
        assert s.meridional_gradient > 8.0     # tropics-to-pole contrast
        assert -3.0 < s.min < s.max < 35.0

    def test_fig1_trench(self, fig1):
        """Fig. 1f: the model topography reaches below 10,000 m."""
        assert fig1.trench_max_depth > 10000.0
        assert fig1.trench_levels >= 3

    def test_fig1_abyssal_temperature(self, fig1):
        """Fig. 1g: a cold abyssal temperature structure below 6,000 m."""
        assert np.isfinite(fig1.abyssal_temperature)
        assert fig1.abyssal_temperature < 5.0

    def test_fig1_report(self, fig1):
        text = science.format_fig1(fig1)
        assert "warm pool" in text
        assert "trench" in text

    def test_fig6_resolution_enriches_rossby(self):
        """Fig. 6: the |Ro| distribution broadens with resolution."""
        stats = science.run_fig6(sizes=("tiny", "small"), days=4.0)
        assert len(stats) == 2
        coarse, fine = stats
        assert fine.resolution_km < coarse.resolution_km
        assert fine.rms > coarse.rms
        assert fine.p99 > coarse.p99
        assert "res[km]" in science.format_fig6(stats)


class TestAblations:
    def test_loadbalance_worsens_with_ranks(self):
        rows = ablations.loadbalance_study(size="tiny", rank_counts=(4, 16))
        assert len(rows) == 2
        (r4, s4), (r16, s16) = rows
        assert s16.imbalance_factor >= s4.imbalance_factor * 0.9
        assert s4.speedup >= 1.0 and s16.speedup >= 1.0
        assert "speedup" in ablations.format_loadbalance(rows)

    def test_pack_study_sliced_faster(self):
        packs = ablations.pack_study(ny=200, nx=200)
        assert packs["sliced"] < packs["naive"]

    def test_transpose_study_vectorized_fastest(self):
        trans = ablations.transpose_study(nz=20, n=100)
        assert trans["real"]["vectorized"] <= trans["real"]["naive"]
        assert trans["ghost"]["vectorized"] <= trans["ghost"]["naive"]

    def test_registry_study_comparisons_ordering(self):
        rows = ablations.registry_study(n_functors=48, lookups=500)
        _, plain_cmp = rows["linked_list"]
        _, cache_cmp = rows["ll_ldm_cache"]
        _, simd_cmp = rows["ll_simd"]
        _, both_cmp = rows["ll_ldm_simd"]
        _, dict_cmp = rows["dict"]
        # the paper's optimizations reduce matching work, the hash map wins
        assert cache_cmp < plain_cmp
        assert simd_cmp < plain_cmp
        assert both_cmp <= simd_cmp
        assert dict_cmp <= both_cmp
        assert "registry" in ablations.format_registry_ablation()

    def test_fused_halo_study_message_rows_pinned(self):
        """The deterministic rows of ``ablation_a2_halo.txt`` (the rest of
        that artifact is wall-clock)."""
        per_field, fused, agg = ablations.fused_halo_study()
        assert per_field.messages == 168
        assert f"{per_field.bytes / 1e6:.3f}" == "0.639"
        assert per_field.size_histogram() == {4096: 96, 8192: 72}
        assert fused.messages == 28
        assert fused.bytes == per_field.bytes
        assert fused.size_histogram() == {32768: 28}
        assert fused.by_phase["fused_halo"][0] == 28
        assert agg == 6.0

    def test_registry_study_comparisons_pinned(self):
        """The deterministic column of ``ablation_a3_registry.txt``."""
        rows = ablations.registry_study()
        assert {name: cmp for name, (_, cmp) in rows.items()} == {
            "linked_list": 115363, "ll_ldm_cache": 33623, "ll_simd": 15295,
            "ll_ldm_simd": 13371, "dict": 2000,
        }
