"""Executable mixed precision: policy resolution through end-to-end runs.

The PrecisionPolicy contract, layer by layer:

* **resolution** — presets, per-family overrides, error cases, identity;
* **state** — per-field dtypes follow the policy's family map;
* **execution** — a fixed policy is bitwise identical across backends
  and between the eager oracle and the production path, and the mixed
  trajectory stays within the declared budgets of fp64;
* **halos** — narrow families halve their wire bytes (>= 1.8x on the
  3-D phase), identically on thread- and process-backed ranks;
* **analysis** — the graphcheck ``precision-promotion`` rule catches a
  silent fp32->fp64 promotion, ``certify_precision`` returns it, and
  the model's own mixed graphs certify clean;
* **restart** — per-field dtypes round-trip bit-exactly and mismatches
  refuse to load;
* **perfmodel** — the per-family pricing reproduces the flat fp32
  projection for a uniform policy and stays under it for ``mixed``;
* **trace** — kernel spans carry their dtype tag.
"""

import hashlib

import numpy as np
import pytest

from repro.errors import ConfigurationError, OceanError
from repro.ocean import LICOMKpp, ModelParams, demo
from repro.ocean.model import STATE_FIELDS, run_distributed
from repro.ocean.precision import (
    FAMILIES,
    PRESETS,
    PrecisionPolicy,
    resolve_precision,
)

BACKENDS = ["serial", "openmp", "athread", "cuda"]


def _state_hash(model) -> str:
    h = hashlib.sha256()
    st = model.state
    for fld in (st.t, st.s, st.u, st.v, st.ssh, *st.passive):
        for lvl in (fld.old, fld.cur, fld.new):
            h.update(np.ascontiguousarray(lvl.raw).tobytes())
    return h.hexdigest()


def _run(backend: str, steps: int = 3, **params) -> LICOMKpp:
    model = LICOMKpp(demo("tiny"), backend=backend,
                     params=ModelParams(**params))
    model.run_steps(steps)
    return model


class TestPolicyResolution:
    def test_presets_cover_all_families(self):
        for name in ("double", "single", "mixed"):
            pol = resolve_precision(name)
            assert pol.name == name
            assert set(pol.dtypes()) == set(FAMILIES)

    def test_mixed_is_the_paper_split(self):
        pol = resolve_precision("mixed")
        for fam in ("tracer", "momentum", "vmix"):
            assert pol.family_dtype(fam) == np.float32
        for fam in ("barotropic", "eos", "scan"):
            assert pol.family_dtype(fam) == np.float64

    def test_none_is_double(self):
        assert resolve_precision(None) == resolve_precision("double")

    def test_partial_mapping_overlays_mixed(self):
        pol = resolve_precision({"vmix": np.float64})
        assert pol.family_dtype("vmix") == np.float64
        assert pol.family_dtype("tracer") == np.float32    # from mixed
        assert pol.family_dtype("barotropic") == np.float64

    def test_policy_passthrough(self):
        pol = resolve_precision("mixed")
        assert resolve_precision(pol) is pol

    def test_unknown_preset_raises_valueerror(self):
        with pytest.raises(ValueError):
            resolve_precision("half")

    def test_unknown_family_rejected(self):
        with pytest.raises(ConfigurationError):
            PrecisionPolicy("bad", {**PRESETS["double"], "nonsense": np.float32})

    def test_disallowed_dtype_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_precision({fam: np.float16 for fam in FAMILIES})

    def test_equality_follows_dtypes_not_spelling(self):
        a = resolve_precision("mixed")
        b = resolve_precision(dict(PRESETS["mixed"]))
        assert a == b and hash(a) == hash(b)
        assert a != resolve_precision("double")

    def test_uniform(self):
        assert resolve_precision("double").uniform
        assert resolve_precision("single").uniform
        assert not resolve_precision("mixed").uniform


class TestStateDtypes:
    def test_mixed_field_dtypes(self):
        m = LICOMKpp(demo("tiny"), params=ModelParams(precision="mixed"))
        st = m.state
        assert st.t.cur.dtype == np.float32
        assert st.u.cur.dtype == np.float32
        assert st.kappa_m.dtype == np.float32
        assert st.ssh.cur.dtype == np.float64
        assert st.ub.dtype == np.float64
        assert st.rho.dtype == np.float64

    def test_double_path_unchanged_by_policy_machinery(self):
        # uniform policies alias every shadow view: no cast launches
        m = _run("serial", steps=2)
        assert m.p_mom is m.state.p
        assert m.u_tr is m.state.u.cur
        m32 = _run("serial", steps=2, precision="single")
        assert m32.p_mom is m32.state.p

    def test_mixed_has_cast_shadows(self):
        m = LICOMKpp(demo("tiny"), params=ModelParams(precision="mixed"))
        assert m.p_mom is not m.state.p
        assert m.p_mom.dtype == np.float32 and m.state.p.dtype == np.float64
        # same-width families alias straight through
        assert m.u_tr is m.state.u.cur


class TestMixedBitwiseAcrossTiers:
    """One policy, one trajectory: backends, the eager oracle and the
    production path agree bitwise."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_backend_matches_serial_eager(self, backend):
        ref = _run("serial", precision="mixed")
        other = _run(backend, precision="mixed")
        assert _state_hash(other) == _state_hash(ref)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_graph_and_jit_match_eager(self, backend):
        eager = _run(backend, precision="mixed", graph=False)
        graph = _run(backend, precision="mixed", graph=True)
        assert _state_hash(graph) == _state_hash(eager)
        steady = [g for (startup, _), g in graph._graphs.items()
                  if not startup]
        assert steady and steady[0].replays >= 1
        assert steady[0].jit_coverage == 1.0

    def test_cast_launches_present_only_under_mixed(self):
        from repro.kokkos import Instrumentation, make_backend

        for precision, expected in (("double", 0), ("mixed", 1)):
            inst = Instrumentation()
            m = LICOMKpp(demo("tiny"), backend=make_backend("serial", inst=inst),
                         params=ModelParams(precision=precision))
            m.run_steps(2)
            casts = [k for k in inst.kernels if k.startswith("precision_cast")]
            assert bool(casts) == bool(expected), (precision, casts)

    def test_every_bound_shadow_is_cast_first(self):
        # a dropped _cast leaves its shadow never written while every
        # dtype still matches, so graphcheck is blind to it -- pin the
        # schedule itself.  Two dtypes cannot split momentum, vmix and
        # tracer three ways, so it takes the preset plus two overrides
        # of it to make each of the 13 shadows a separate buffer once.
        from repro.kokkos.backends.base import functor_views
        from repro.kokkos.graph import KernelNode

        names = ("p_mom", "rho_vmix", "u_vmix", "v_vmix", "kappa_m_mom",
                 "kappa_h_tr", "um_mom", "vm_mom", "ub_mom", "vb_mom",
                 "u_tr", "v_tr", "w_tr")
        covered = set()
        for precision in ("mixed", {"vmix": np.float64},
                          {"momentum": np.float64}):
            m = _run("serial", steps=2, precision=precision, graph=True)
            st = m.state
            sources = {id(v) for v in (
                st.p, st.rho, st.u.cur, st.v.cur, st.w, st.kappa_m,
                st.kappa_h, st.ub, st.vb, m.um, m.vm)}
            shadows = {id(getattr(m, name)): name for name in names
                       if id(getattr(m, name)) not in sources}  # not aliases
            assert len(m._graphs) == 2
            for graph in m._graphs.values():
                cast, bound = set(), set()
                parts = [part for node in graph.nodes
                         if isinstance(node, KernelNode)
                         for part in node.parts()]
                for label, functor in parts:
                    if label.startswith("precision_cast"):
                        cast.add(id(functor.dst))
                        continue
                    for view in functor_views(functor):
                        name = shadows.get(id(view))
                        if name is not None:
                            bound.add(name)
                            assert id(view) in cast, (
                                f"{precision}: {label!r} binds {name} "
                                f"before any cast fills it")
                assert bound == set(shadows.values())
            covered |= bound
        assert covered == set(names)

    def test_stability_and_nan_free(self):
        m = _run("serial", steps=8, precision="mixed")
        assert not m.state.has_nan()
        assert np.isfinite(m.kinetic_energy())


class TestToleranceVsFp64:
    @pytest.mark.parametrize("preset", ["mixed", "single"])
    def test_within_declared_budgets(self, preset):
        from repro.ocean.validate_precision import validate_policy

        report = validate_policy(preset, size="tiny", steps=8)
        assert report.ok, "\n" + report.format()
        assert report.mass_drift["t"] < report.mass_budget

    def test_double_vs_double_is_exact(self):
        from repro.ocean.validate_precision import validate_policy

        report = validate_policy("double", size="tiny", steps=4)
        assert all(f.linf == 0.0 for f in report.fields)
        assert report.energy_drift == 0.0

    def test_impossible_budget_fails(self):
        from repro.ocean.validate_precision import (
            FieldBudget,
            validate_policy,
        )

        report = validate_policy(
            "mixed", size="tiny", steps=8,
            budgets={"t": FieldBudget(linf_floor=1.0e-30, rel_l2=1.0e-30)})
        assert not report.ok


class TestHaloBytes:
    RANKS = 2
    STEPS = 3

    def _phase_bytes(self, world, phase):
        msgs, nbytes = world.traffic.by_phase[phase]
        return nbytes

    @pytest.mark.parametrize("mode", ["thread", "process"])
    def test_tracer_halo_bytes_halve(self, mode):
        cfg = demo("tiny")
        _, w64 = run_distributed(cfg, self.RANKS, self.STEPS,
                                 params=ModelParams(precision="double"),
                                 mode=mode)
        _, w32 = run_distributed(cfg, self.RANKS, self.STEPS,
                                 params=ModelParams(precision="mixed"),
                                 mode=mode)
        ratio = self._phase_bytes(w64, "halo3") / self._phase_bytes(w32, "halo3")
        assert ratio >= 1.8, f"3-D halo byte reduction only {ratio:.2f}x"
        # the barotropic 2-D phase stays fp64 under mixed
        assert self._phase_bytes(w64, "halo2") == \
            self._phase_bytes(w32, "halo2")

    def test_thread_process_bitwise_identical_mixed(self):
        cfg = demo("tiny")
        tres, tworld = run_distributed(cfg, self.RANKS, self.STEPS,
                                       params=ModelParams(precision="mixed"),
                                       mode="thread")
        pres, pworld = run_distributed(cfg, self.RANKS, self.STEPS,
                                       params=ModelParams(precision="mixed"),
                                       mode="process")
        for tr, pr in zip(tres, pres):
            for fld in STATE_FIELDS:
                t, p = tr.state[fld], pr.state[fld]
                assert t.dtype == p.dtype
                assert np.array_equal(t, p), \
                    f"rank {tr.rank} field {fld} differs between modes"
        t, p = tworld.traffic, pworld.traffic
        assert (t.messages, t.bytes) == (p.messages, p.bytes)
        assert t.by_phase == p.by_phase

    def test_multirank_mixed_matches_single_rank(self):
        cfg = demo("tiny")
        res, _ = run_distributed(cfg, 1, self.STEPS,
                                 params=ModelParams(precision="mixed"))
        solo = _run("serial", steps=self.STEPS, precision="mixed")
        np.testing.assert_array_equal(
            res[0].state["t"], solo.state.t.cur.raw)


def _sink(space, view):
    """An exchange of ``view`` over a fake halo: keeps the graph's final
    write from looking dead when the schedule wraps around."""
    from repro.kokkos import ExchangeNode
    from tests.conftest import FakeHalo

    return ExchangeNode("sink", space, FakeHalo(), [(view, 1.0, 0.0)])


class TestPrecisionPromotionRule:
    """Golden graphs for the precision-promotion rule family."""

    N = 8

    def _sealed(self, records):
        from repro.kokkos import LaunchGraph, make_backend

        graph = LaunchGraph(make_backend("serial"))
        for kind, *args in records:
            if kind == "k":
                graph.add_kernel(*args)
            else:
                graph.add(_sink(graph.space, *args))
        return graph.seal()

    def _mixed_copy_records(self, boundary: bool):
        from repro.kokkos import MDRangePolicy, View
        from tests.analysis.broken_graph import PointCopyFunctor

        src = View("src", (self.N, self.N), dtype=np.float32)
        dst = View("dst", (self.N, self.N), dtype=np.float64)
        functor = (CastLikeCopy if boundary else PointCopyFunctor)(src, dst)
        pol = MDRangePolicy([(1, self.N - 1), (1, self.N - 1)])
        return [("k", "copy", pol, functor), ("x", dst)]

    def test_silent_promotion_is_error(self):
        from repro.analysis.graphcheck import check_precision
        from repro.analysis.rules import RULE_PRECISION

        findings = check_precision(self._sealed(self._mixed_copy_records(False)))
        assert [f.rule for f in findings] == [RULE_PRECISION]
        assert findings[0].kernel == "copy"
        assert "precision_boundary" in findings[0].detail

    def test_declared_boundary_is_clean(self):
        from repro.analysis.graphcheck import check_precision

        assert check_precision(
            self._sealed(self._mixed_copy_records(True))) == []

    def test_seal_certify_refuses_silent_promotion(self):
        from repro.analysis.graphcheck import certify_precision
        from repro.analysis.rules import RULE_PRECISION
        from repro.kokkos import LaunchGraph, MDRangePolicy, View, make_backend
        from tests.analysis.broken_graph import PointCopyFunctor

        src = View("src", (self.N, self.N), dtype=np.float32)
        dst = View("dst", (self.N, self.N), dtype=np.float64)
        graph = LaunchGraph(make_backend("serial"))
        graph.add_kernel("copy", MDRangePolicy([(1, self.N - 1), (1, self.N - 1)]),
                         PointCopyFunctor(src, dst))
        graph.add(_sink(graph.space, dst))
        refused = certify_precision(graph.seal())
        assert [f.rule for f in refused] == [RULE_PRECISION]
        assert refused[0].kernel == "copy" and "promotion" in refused[0].detail

    def test_fp32_accumulation_is_warning_not_error(self):
        from repro.analysis import Severity
        from repro.analysis.graphcheck import certify_precision, check_precision
        from repro.kokkos import MDRangePolicy, View
        from tests.analysis.broken_graph import AccumulateFunctor

        f = View("f", (self.N, self.N), dtype=np.float32)
        out = View("out", (self.N, self.N), dtype=np.float32)
        functor = AccumulateFunctor(f, out)
        type(functor).accumulates = True
        try:
            graph = self._sealed([
                ("k", "acc", MDRangePolicy([(1, self.N - 1), (1, self.N - 1)]),
                 functor),
                ("x", out)])
            findings = check_precision(graph)
            assert [f.severity for f in findings] == [Severity.WARNING]
            assert certify_precision(graph) == []
        finally:
            del type(functor).accumulates

    @pytest.mark.parametrize("precision", ["double", "mixed"])
    def test_model_graphs_certify_clean(self, precision):
        from repro.analysis.graphcheck import certify_precision

        m = _run("serial", precision=precision, graph=True)
        for graph in m._graphs.values():
            assert certify_precision(graph) == []


class TestMixedRestart:
    def test_mixed_save_load_continue_bitwise(self, tmp_path):
        from repro.ocean.restart import load_restart, save_restart

        a = _run("serial", steps=4, precision="mixed")
        path = save_restart(a, tmp_path / "mixed.npz")
        a.run_steps(4)

        b = LICOMKpp(demo("tiny"), params=ModelParams(precision="mixed"))
        load_restart(b, path)
        b.run_steps(4)
        for name in STATE_FIELDS:
            x = getattr(a.state, name).cur.raw
            y = getattr(b.state, name).cur.raw
            assert x.dtype == y.dtype
            assert np.array_equal(x, y), name

    def test_restart_preserves_field_dtypes_on_disk(self, tmp_path):
        from repro.ocean.restart import save_restart

        m = _run("serial", steps=2, precision="mixed")
        path = save_restart(m, tmp_path / "mixed.npz")
        with np.load(path) as data:
            assert data["t_cur"].dtype == np.float32
            assert data["ssh_cur"].dtype == np.float64
            assert "policy" in data.files

    @pytest.mark.parametrize("writer,reader", [("mixed", "double"),
                                               ("double", "mixed")])
    def test_dtype_mismatch_refuses_silent_cast(self, tmp_path, writer, reader):
        from repro.ocean.restart import load_restart, save_restart

        m = _run("serial", steps=2, precision=writer)
        path = save_restart(m, tmp_path / "rst.npz")
        other = LICOMKpp(demo("tiny"), params=ModelParams(precision=reader))
        with pytest.raises(OceanError, match="precision policy"):
            load_restart(other, path)


class TestPerfmodelFamilyPricing:
    def test_frozen_shares_match_live_measurement(self):
        from repro.perfmodel import DEFAULT_FAMILY_SHARES, measure_family_shares

        live = measure_family_shares()
        for fam, frac in live.bytes3.items():
            assert abs(frac - DEFAULT_FAMILY_SHARES.bytes3[fam]) < 0.02, fam
        for fam, frac in live.flops3.items():
            assert abs(frac - DEFAULT_FAMILY_SHARES.flops3[fam]) < 0.02, fam

    def test_double_policy_is_identity(self):
        from repro.perfmodel import DEFAULT_PROFILE, policy_profile

        assert policy_profile(resolve_precision("double")) == DEFAULT_PROFILE

    def test_uniform_single_is_the_explicit_halving(self):
        """The SViii bound, pinned against an independent statement of
        it: halve every byte, ship 4-byte halo words — and ``mixed``,
        which keeps some families wide, lands strictly inside."""
        from dataclasses import replace

        from repro.ocean.config import PAPER_CONFIGS
        from repro.perfmodel import (DEFAULT_PROFILE, policy_halo_word,
                                     policy_profile, policy_projection,
                                     predict_sypd)

        cfg = PAPER_CONFIGS["km_1km"]
        single = resolve_precision("single")
        halved = replace(DEFAULT_PROFILE,
                         bytes3=DEFAULT_PROFILE.bytes3 * 0.5,
                         bytes2_sub=DEFAULT_PROFILE.bytes2_sub * 0.5)
        assert policy_profile(single) == halved
        assert policy_halo_word(single, cfg) == 4.0
        for machine, units in (("new_sunway", 590250), ("orise", 16000)):
            # preset name and resolved policy price identically
            assert predict_sypd(cfg, machine, units, precision="single") \
                == predict_sypd(cfg, machine, units, precision=single)
            d, s, sp_single = policy_projection(cfg, machine, units, "single")
            _, m, sp_mixed = policy_projection(cfg, machine, units, "mixed")
            assert d < m < s
            assert 1.0 < sp_mixed < sp_single

    def test_policy_halo_word_bounds(self):
        from repro.ocean.config import PAPER_CONFIGS
        from repro.perfmodel import policy_halo_word

        cfg = PAPER_CONFIGS["km_1km"]
        assert policy_halo_word(resolve_precision("double"), cfg) == 8.0
        assert policy_halo_word(resolve_precision("single"), cfg) == 4.0
        mixed = policy_halo_word(resolve_precision("mixed"), cfg)
        assert 4.0 < mixed < 8.0

    def test_shares_must_sum_to_one(self):
        from repro.perfmodel import FamilyShares

        with pytest.raises(ValueError):
            FamilyShares(bytes3={"tracer": 0.5}, flops3={"tracer": 1.0})

    def test_predict_rejects_unknown_precision_string(self):
        from repro.ocean.config import PAPER_CONFIGS
        from repro.perfmodel import predict_step_time

        with pytest.raises(ValueError):
            predict_step_time(PAPER_CONFIGS["km_1km"], "orise", 16000,
                              precision="half")


class TestSpanDtypeLabels:
    def test_mixed_spans_carry_dtype_tags(self):
        m = LICOMKpp(demo("tiny"), params=ModelParams(precision="mixed"))
        tr = m.context.enable_tracing()
        m.run_steps(2)
        tags = {s.args.get("dtype") for s in tr.spans
                if s.cat == "kernel" and s.dur is not None}
        assert "f4" in tags and "f4+f8" in tags and "f8" in tags

    def test_double_spans_are_all_f8(self):
        m = LICOMKpp(demo("tiny"))
        tr = m.context.enable_tracing()
        m.run_steps(2)
        tags = {s.args.get("dtype") for s in tr.spans
                if s.cat == "kernel" and s.dur is not None}
        assert tags == {"f8"}

    def test_predicted_timeline_prices_narrow_sweeps_cheaper(self):
        from repro.trace.predicted import _leaf_duration
        from repro.perfmodel import get_machine
        from repro.trace.tracer import Span

        m = get_machine("orise")
        wide = Span("k", "kernel", 0.0, 0, 0,
                    {"bytes": 1.0e9, "flops": 0.0, "dtype": "f8"})
        wide.dur = 1.0
        narrow = Span("k", "kernel", 0.0, 0, 0,
                      {"bytes": 1.0e9, "flops": 0.0, "dtype": "f4"})
        narrow.dur = 1.0
        t_wide = _leaf_duration(wide, m)
        t_narrow = _leaf_duration(narrow, m)
        assert t_narrow < t_wide
        assert (t_narrow - m.launch_overhead) == \
            pytest.approx((t_wide - m.launch_overhead) / 2.0)


class TestPrecisionCLI:
    def test_precision_subcommand_passes(self, capsys):
        from repro.cli import main

        assert main(["precision", "--steps", "4", "--no-project"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "policy=mixed" in out

    def test_run_accepts_mixed(self, capsys):
        from repro.cli import main

        assert main(["run", "--size", "tiny", "--days", "0.1",
                     "--precision", "mixed"]) == 0


class CastLikeCopy:
    """PointCopy with the boundary declared (for the golden clean case)."""

    flops_per_point = 0.0
    bytes_per_point = 2 * 8.0
    precision_boundary = True

    def __init__(self, f, out) -> None:
        self.f = f
        self.out = out

    def apply(self, slices) -> None:
        sj, si = slices
        self.out.data[sj, si] = self.f.data[sj, si]

    def __call__(self, j: int, i: int) -> None:
        self.apply((slice(j, j + 1), slice(i, i + 1)))
