"""Property: every launched functor's ``apply`` is elementwise.

The vectorised tile body ``apply(slices)`` must equal running
``__call__`` point by point over the same tile — the contract the
alias-hazard rule of ``repro.analysis`` checks on one observed sweep
per launch, verified here on random sub-tiles.  A wrapping backend intercepts every ``parallel_for``
the real model issues, replays a few random sub-tiles both ways on
identical input state, and demands byte-identical results (so a ``-0.0``
where the point body gives ``+0.0`` is a mismatch) before letting the
launch proceed.
"""

import numpy as np

from repro.kokkos import SerialBackend, View
from repro.ocean import LICOMKpp, demo


class ApplyEquivalenceBackend(SerialBackend):
    """Serial backend that differentially tests each launch's functor."""

    def __init__(self, rng, tiles_per_label: int = 2) -> None:
        super().__init__()
        self.rng = rng
        self.tiles_per_label = tiles_per_label
        self.checked = set()
        self.mismatches = []

    def run_for(self, label, policy, functor):
        ft = type(functor)
        if label not in self.checked and \
                getattr(ft, "apply", None) and getattr(ft, "__call__", None):
            self.checked.add(label)
            self._differential_check(label, policy, functor)
        return super().run_for(label, policy, functor)

    def _differential_check(self, label, policy, functor) -> None:
        views = {n: v for n, v in vars(functor).items() if isinstance(v, View)}
        before = {n: v.raw.copy() for n, v in views.items()}
        try:
            for _ in range(self.tiles_per_label):
                tile = []
                for lo, hi in policy.ranges:
                    if hi - lo < 1:
                        return
                    start = int(self.rng.integers(lo, hi))
                    stop = min(hi, start + int(self.rng.integers(1, 4)))
                    tile.append((start, stop))

                functor.apply(tuple(slice(a, b) for a, b in tile))
                after_apply = {n: v.raw.copy() for n, v in views.items()}
                for n, v in views.items():
                    v.raw[...] = before[n]

                for point in np.ndindex(*[b - a for a, b in tile]):
                    functor(*[a + p for (a, _), p in zip(tile, point)])
                for n, v in views.items():
                    if v.raw.tobytes() != after_apply[n].tobytes():
                        self.mismatches.append((label, n))
                for n, v in views.items():
                    v.raw[...] = before[n]
        finally:
            for n, v in views.items():
                v.raw[...] = before[n]


def test_apply_matches_pointwise_call_on_random_tiles():
    cfg = demo("tiny")
    backend = ApplyEquivalenceBackend(np.random.default_rng(20260806))
    model = LICOMKpp(cfg, backend=backend)
    model.run_steps(3)
    assert backend.mismatches == []
    # the step must actually have exercised a broad set of kernels
    assert len(backend.checked) >= 10


def test_backend_catches_a_planted_alias_hazard():
    """The harness itself must be able to fail: a non-elementwise apply."""
    from repro.kokkos import MDRangePolicy

    class BadFunctor:
        def __init__(self, f: View) -> None:
            self.f = f

        def __call__(self, j: int, i: int) -> None:
            self.apply((slice(j, j + 1), slice(i, i + 1)))

        def apply(self, slices) -> None:
            sj, si = slices
            shifted = slice(si.start - 1, si.stop - 1)
            self.f.data[sj, si] = self.f.data[sj, shifted] + 1.0

    backend = ApplyEquivalenceBackend(np.random.default_rng(7),
                                      tiles_per_label=8)
    f = View("f", data=np.random.default_rng(11).standard_normal((8, 8)))
    backend.parallel_for("bad", MDRangePolicy([(1, 7), (1, 7)]),
                         BadFunctor(f))
    assert backend.mismatches


def test_backend_catches_a_planted_sign_of_zero():
    """A tile body that differs from the point body only in the sign of
    zero is a mismatch: ``np.array_equal(0.0, -0.0)`` is true, bytes are
    not."""
    from repro.kokkos import MDRangePolicy

    class SignFlipFunctor:
        def __init__(self, f: View) -> None:
            self.f = f

        def __call__(self, j: int, i: int) -> None:
            self.f.data[j, i] = 0.0

        def apply(self, slices) -> None:
            self.f.data[tuple(slices)] = -0.0

    backend = ApplyEquivalenceBackend(np.random.default_rng(7))
    f = View("f", (8, 8))
    backend.parallel_for("flip", MDRangePolicy([(1, 7), (1, 7)]),
                         SignFlipFunctor(f))
    assert backend.mismatches == [("flip", "f")] * 2
