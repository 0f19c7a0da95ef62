"""Every arena-backed kernel body is byte-identical to its historical
allocating expressions (``tests/ocean/reference_bodies.py``).

A wrapping backend intercepts the first launch of every label whose
functor has a reference, seeds every view it binds with random values
that include ``+0.0`` and ``-0.0`` (the domain's land stays land), and
runs the production ``apply`` and the reference ``apply`` over the
launch range and over random sub-tiles.  Results are compared as raw
bytes, so a ``-0.0`` where the oracle has ``+0.0`` fails.  The FCT apply
reads the flux its limiter stored, so before each apply check a
production limiter refreshes that store over the launch range, and the
stored flux itself is checked against the historical builder.
"""

import copy

import numpy as np
import pytest

from repro.kokkos import SerialBackend, View
from repro.kokkos.workspace import Workspace
from repro.ocean import LICOMKpp, demo
from repro.ocean.kernel_utils import thomas_solve
from repro.ocean.kernels_tracer import FCTApplyFunctor, FCTLimitFunctor
from repro.ocean.kernels_vdiff import _diffusion_matrix
from repro.ocean.model import ModelParams
from tests.ocean import reference_bodies as ref

FLUX = ("a_e", "a_n", "a_t")


def _seed(rng, arr: np.ndarray) -> None:
    """Normal values with about a tenth ``+0.0`` and a tenth ``-0.0``."""
    vals = rng.standard_normal(arr.shape)
    pick = rng.random(arr.shape)
    vals[pick < 0.1] = 0.0
    vals[pick > 0.9] = -0.0
    arr[...] = vals


def _tiles(rng, ranges, n):
    """The launch range, then ``n`` random sub-tiles of 1-3 points a side."""
    yield tuple(slice(lo, hi) for lo, hi in ranges)
    for _ in range(n):
        tile = []
        for lo, hi in ranges:
            start = int(rng.integers(lo, hi))
            tile.append(slice(start, min(hi, start + int(rng.integers(1, 4)))))
        yield tuple(tile)


def _reference(functor, refcls):
    """A shallow copy of ``functor`` running the historical body, on a
    domain copy whose arena allocates per request."""
    out = copy.copy(functor)
    out.__class__ = refcls
    if hasattr(out, "dom"):
        out.dom = copy.copy(out.dom)
        out.dom.workspace = Workspace(enabled=False)
    return out


class BodyIdentityBackend(SerialBackend):
    """Serial backend that checks each referenced body against its oracle."""

    def __init__(self, rng, references=ref.REFERENCES, subtiles=2) -> None:
        super().__init__()
        self.rng = rng
        self.references = references
        self.subtiles = subtiles
        self.checked = set()
        self.types = set()
        self.mismatches = []

    def run_for(self, label, policy, functor):
        refcls = self.references.get(type(functor))
        if refcls is not None and label not in self.checked:
            self.checked.add(label)
            self.types.add(type(functor))
            views = {n: v for n, v in vars(functor).items()
                     if isinstance(v, View)}
            live = {n: v.raw.copy() for n, v in views.items()}
            try:
                self._check(label, policy, functor, refcls, views)
            finally:
                for n, v in views.items():
                    v.raw[...] = live[n]
        return super().run_for(label, policy, functor)

    def _check(self, label, policy, functor, refcls, views) -> None:
        bufs = {id(v.raw): v.raw for v in views.values()}
        compare = [n for n in views
                   if not (isinstance(functor, FCTLimitFunctor) and n in FLUX)]
        for tile in _tiles(self.rng, policy.ranges, self.subtiles):
            for buf in bufs.values():
                _seed(self.rng, buf)
            if isinstance(functor, FCTApplyFunctor):
                self._store_flux(label, policy, functor)
            start = {n: v.raw.copy() for n, v in views.items()}
            with np.errstate(all="ignore"):
                functor.apply(tile)
                got = {n: views[n].raw.copy() for n in compare}
                for n, v in views.items():
                    v.raw[...] = start[n]
                _reference(functor, refcls).apply(tile)
            for n in compare:
                if views[n].raw.tobytes() != got[n].tobytes():
                    self.mismatches.append((label, n, tile))
            for n, v in views.items():
                v.raw[...] = start[n]

    def _store_flux(self, label, policy, apply) -> None:
        """Refresh the stored flux with a production limiter over the
        launch range, and check it against the historical builder."""
        d = apply.dom
        scratch = [View(f"r{k}", apply.r_plus.shape, dtype=apply.r_plus.dtype)
                   for k in range(2)]
        limiter = FCTLimitFunctor(apply.t_star, apply.t_star, apply.u, apply.v,
                                  apply.w, *scratch, apply.a_e, apply.a_n,
                                  apply.a_t, d, apply.dt)
        sj, si = (slice(lo, hi) for lo, hi in policy.ranges)
        with np.errstate(all="ignore"):
            limiter.apply((sj, si))
            odom = copy.copy(d)
            odom.workspace = Workspace(enabled=False)
            want = ref._antidiffusive(apply.t_star.data, apply.u.data,
                                      apply.v.data, apply.w.data, odom, sj, si)
        for name, stored, full in zip(FLUX, (apply.a_e, apply.a_n, apply.a_t),
                                      want):
            own = {"a_e": full[:, :, 1:], "a_n": full[:, 1:, :]}.get(name, full)
            if stored.raw[:, sj, si].tobytes() != own.tobytes():
                self.mismatches.append((label, name, "stored flux"))


@pytest.mark.parametrize("precision", ["double", "mixed"])
def test_bodies_match_their_references(precision):
    backend = BodyIdentityBackend(np.random.default_rng(20261017))
    model = LICOMKpp(demo("tiny"), backend=backend,
                     params=ModelParams(precision=precision))
    try:
        model.run_steps(2)
    finally:
        model.close()
    assert backend.mismatches == []
    # every rewritten body ran under the check
    assert backend.types == set(ref.REFERENCES)


def test_harness_catches_a_planted_sign_of_zero():
    """A body equal to its oracle in value but not in the sign of zero
    (its land density is ``-0.0``, the oracle's ``+0.0``) must fail."""
    from repro.ocean.kernels_scalar import EOSFunctor

    class SignBlindEOS(ref.RefEOS):
        def apply(self, slices):
            super().apply(slices)
            rho = self.rho.data[tuple(slices)]
            np.negative(rho, out=rho, where=rho == 0.0)

    backend = BodyIdentityBackend(np.random.default_rng(5),
                                  references={EOSFunctor: SignBlindEOS},
                                  subtiles=0)
    model = LICOMKpp(demo("tiny"), backend=backend)
    try:
        model.step()
    finally:
        model.close()
    assert [m[:2] for m in backend.mismatches] == [("eos_density", "rho")]


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_thomas_solve_matches_the_allocating_oracle(dtype):
    rng = np.random.default_rng(3)
    shape = (9, 5, 4)
    lower = (-rng.uniform(0.0, 0.45, shape)).astype(dtype)
    upper = (-rng.uniform(0.0, 0.45, shape)).astype(dtype)
    diag = (1.0 - lower - upper).astype(dtype)
    rhs = np.empty(shape, dtype)
    _seed(rng, rhs)
    got = thomas_solve(lower, diag, upper, rhs, Workspace())
    want = ref.thomas_solve(lower, diag, upper, rhs)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("precision", ["double", "mixed"])
def test_diffusion_matrix_matches_the_allocating_oracle(precision):
    model = LICOMKpp(demo("tiny"), params=ModelParams(precision=precision))
    try:
        d = model.dom_tracer
        rng = np.random.default_rng(4)
        kappa = np.empty((d.nz, d.ly, d.lx), d.mask_t.dtype)
        _seed(rng, kappa)
        got = _diffusion_matrix(kappa, d.mask_t, d.dz, d.z_t, 7200.0,
                                Workspace())
        want = ref._diffusion_matrix(kappa, d.mask_t, d.dz, d.z_t, 7200.0)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            assert g.tobytes() == w.tobytes()
    finally:
        model.close()
