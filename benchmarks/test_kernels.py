"""Kernel microbenchmarks: the hotspots the paper optimizes.

``advection_tracer`` (the paper's top bottleneck) and the canuto
parameterization (second), timed through the portability layer on
different backends, plus the halo pack pipeline.
"""

import numpy as np
import pytest

from repro.kokkos import MDRangePolicy, OpenMPBackend, SerialBackend, View
from repro.ocean import LICOMKpp, demo
from repro.ocean.kernels_scalar import EOSFunctor, WFunctor
from repro.ocean.kernels_tracer import AdvectPredictorFunctor, FCTLimitFunctor
from repro.ocean.vmix_canuto import CanutoMixFunctor


@pytest.fixture(scope="module")
def model():
    m = LICOMKpp(demo("medium"))
    m.run_steps(2)
    return m


def _int2(m):
    d = m.domain
    h = d.halo
    return MDRangePolicy([(h, d.ly - h), (h, d.lx - h)])


def _full3(m):
    d = m.domain
    return MDRangePolicy([(0, d.nz), (0, d.ly), (0, d.lx)])


@pytest.mark.parametrize("backend_name", ["serial", "openmp"])
def test_advection_predictor(benchmark, model, backend_name):
    """The paper's #1 hotspot: the two-step advection predictor."""
    st = model.state
    be = SerialBackend() if backend_name == "serial" else OpenMPBackend(threads=4)
    f = AdvectPredictorFunctor(st.t.cur, st.u.cur, st.v.cur, st.w,
                               model.tstar, model.domain, 3600.0)
    benchmark(be.parallel_for, "advect_pred", _int2(model), f)
    if backend_name == "openmp":
        be.shutdown()


def test_fct_limiter(benchmark, model):
    st = model.state
    f = FCTLimitFunctor(st.t.cur, model.tstar, st.u.cur, st.v.cur, st.w,
                        model.rplus, model.rminus, *model.aflux_all[0],
                        model.domain, 3600.0)
    benchmark(SerialBackend().parallel_for, "fct_limits", _int2(model), f)


def test_canuto_kernel(benchmark, model):
    """The paper's #2 hotspot: the canuto vertical-mixing columns."""
    st = model.state
    f = CanutoMixFunctor(st.u.cur, st.v.cur, st.rho, st.kappa_m, st.kappa_h,
                         model.domain)
    benchmark(SerialBackend().parallel_for, "canuto", _int2(model), f)


def test_eos_kernel(benchmark, model):
    st = model.state
    f = EOSFunctor(st.t.cur, st.s.cur, st.rho, model.domain)
    benchmark(SerialBackend().parallel_for, "eos", _full3(model), f)


def test_w_diagnostic(benchmark, model):
    st = model.state
    f = WFunctor(st.u.cur, st.v.cur, st.w, model.domain)
    benchmark(SerialBackend().parallel_for, "w", _int2(model), f)


def test_barotropic_subcycle(benchmark, model):
    """The communication-dense external mode (nsub FB substeps)."""
    benchmark(model._barotropic_cycle, 2 * model.config.dt_baroclinic)
