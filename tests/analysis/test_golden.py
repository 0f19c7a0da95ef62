"""Golden tests: each broken mini-functor trips exactly its one rule.

Every functor is bound to fresh ``N x N`` views and observed over the
interior range, as a lint-matrix launch would be.
"""

import inspect

import numpy as np
import pytest

from repro.analysis import (
    KernelFootprint,
    RuleConfig,
    Severity,
    observe_part,
    run_rules,
)
from repro.kokkos import View
from tests.analysis import broken

CASES = [
    (broken.ScatterWriteFunctor, "race-write"),
    (broken.HaloOverrunFunctor, "halo-overrun"),
    (broken.HostDerefFunctor, "memory-space"),
    (broken.RawInKernelFunctor, "memory-space"),
    (broken.DishonestFlopsFunctor, "cost-drift"),
    (broken.DishonestBytesFunctor, "cost-drift"),
    (broken.AliasHazardFunctor, "alias-hazard"),
]

N = 8
RANGE = ((2, N - 2), (2, N - 2))


def bind(cls):
    """``cls`` over one float view per parameter; ``idx`` is all zeros,
    so every iteration of the scatter functor stores to row 0."""
    rng = np.random.default_rng(0)
    return cls(*(View(name, (N, N), dtype=np.int64) if name == "idx"
                 else View(name, data=rng.random((N, N)))
                 for name in inspect.signature(cls).parameters))


def footprint(cls):
    return KernelFootprint(cls.__name__, cls, [observe_part(bind(cls), RANGE)])


@pytest.mark.parametrize("cls,rule", CASES, ids=[c.__name__ for c, _ in CASES])
def test_broken_functor_trips_exactly_its_rule(cls, rule):
    fp = footprint(cls)
    assert fp.observed
    findings = run_rules(fp, RuleConfig())
    assert [f.rule for f in findings] == [rule]
    assert findings[0].severity >= Severity.WARNING
    assert findings[0].kernel == cls.__name__


def test_clean_functor_has_no_findings():
    findings = run_rules(footprint(broken.CleanFunctor), RuleConfig())
    assert findings == []


def test_scatter_write_names_the_view():
    findings = run_rules(footprint(broken.ScatterWriteFunctor), RuleConfig())
    assert findings[0].view == "out"


def test_halo_footprint_is_extracted_not_declared():
    fp = footprint(broken.HaloOverrunFunctor)
    assert fp.stencil_halo == 2        # what the body actually reads
    assert broken.HaloOverrunFunctor.stencil_halo == 1  # what it claims


def test_dishonest_flops_reports_both_numbers():
    findings = run_rules(footprint(broken.DishonestFlopsFunctor), RuleConfig())
    assert "40" in findings[0].detail and "1" in findings[0].detail


def test_unbound_kernel_is_an_error():
    findings = run_rules(
        KernelFootprint("clean", broken.CleanFunctor), RuleConfig())
    assert [(f.rule, f.severity) for f in findings] == \
        [("unobserved", Severity.ERROR)]
