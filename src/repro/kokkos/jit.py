"""``repro.kokkos.jit`` — the sweep a launch plan runs.

Every launch, eager or sealed, is a
:class:`~repro.kokkos.backends.base.LaunchPlan` that front-loads the
dispatch work (policy normalisation, registry walks, tiling, ledger
sizes).  What the plan then *executes* is its sweep: the vectorised
body of each of its parts, bound once to precomputed slices and run in
capture order.  A fused plan's parts each cover the whole range before
the next part starts, which is exactly the eager launch sequence — so
fusing a dependent chain is legal by construction, with no per-tile
Python left on the replay path.  (An Athread plan binds the registered
preset callback instead, which runs the same body.)

:func:`compile_sweep` is that binding step.  It is plain closure
construction: nothing is generated, cached or keyed.  :func:`_part_stage`
is the one place that picks a part's body — ``apply``, or the reference
loop over ``operator()`` — for the sweep, the fused composite and the
registered ``for`` preset alike.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Optional, Sequence, Tuple

Slices = Tuple[slice, ...]


def _part_stage(part) -> Callable[[Slices], None]:
    """The vectorised body of one part (``apply`` or the reference loop)."""
    apply = getattr(part, "apply", None)
    if apply is not None:
        return apply
    from .functor import _loop_elementwise

    return partial(_loop_elementwise, part)


def compile_sweep(functor, chunks: Sequence[Slices],
                  submit: Optional[Callable] = None) -> Callable[[], None]:
    """Bind one plan's launch body to its iteration range.

    ``chunks`` are the slice tuples every part covers: one whole-range
    tuple on the serial and device plans (and the athread plan of a
    space that does not require registration).  The threaded OpenMP
    plan passes its per-thread split together with its pool's
    ``submit``; each part then runs as one *stage* — all chunks
    submitted, all joined — before the next part starts, so the stage
    barrier orders dependent parts exactly as separate launches would.
    """
    if submit is None:
        (whole,) = chunks
        return partial(_part_stage(functor), whole)

    def run_stage(stage) -> None:
        for future in [submit(stage, ch) for ch in chunks]:
            future.result()

    bound = [partial(run_stage, _part_stage(p))
             for p in getattr(functor, "parts", (functor,))]
    if len(bound) == 1:
        return bound[0]

    def sweep() -> None:
        for stage in bound:
            stage()

    return sweep
