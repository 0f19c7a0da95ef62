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

import copy
from dataclasses import fields, is_dataclass
from functools import partial
from typing import Callable, Optional, Sequence, Tuple

from .workspace import Workspace

Slices = Tuple[slice, ...]


def _part_stage(part) -> Callable[[Slices], None]:
    """The vectorised body of one part (``apply`` or the reference loop)."""
    apply = getattr(part, "apply", None)
    if apply is not None:
        return apply
    from .functor import _loop_elementwise

    return partial(_loop_elementwise, part)


def bind_chunk(part, c: int):
    """``part`` as concurrent chunk ``c`` runs it: itself for chunk 0, else
    a shallow copy whose arenas, bound directly (the Asselin functors'
    ``ws``) or as a field of a bound dataclass (a ``LocalDomain``), are
    ``ws.chunk(c)``."""
    if c == 0:
        return part
    clone = copy.copy(part)
    for name, val in getattr(part, "__dict__", {}).items():
        if isinstance(val, Workspace):
            setattr(clone, name, val.chunk(c))
        elif is_dataclass(val) and not isinstance(val, type):
            arenas = {f.name: getattr(val, f.name).chunk(c) for f in fields(val)
                      if isinstance(getattr(val, f.name), Workspace)}
            if arenas:
                setattr(clone, name, copy.copy(val))
                vars(getattr(clone, name)).update(arenas)
    return clone


def compile_sweep(functor, chunks: Sequence[Slices],
                  submit: Optional[Callable] = None) -> Callable[[], None]:
    """Bind one plan's launch body to its iteration range.

    ``chunks`` are the slice tuples every part covers: one whole-range
    tuple on the serial and device plans (and the athread plan of a
    space that does not require registration).  The threaded OpenMP
    plan passes its concurrent chunks together with its pool's
    ``submit``; each part is then bound once per chunk, on that chunk's
    arena (:func:`bind_chunk`), and runs as one *stage* — all chunks
    submitted, all joined — before the next part starts, so the stage
    barrier orders dependent parts exactly as separate launches would.
    """
    if submit is None:
        (whole,) = chunks
        return partial(_part_stage(functor), whole)

    def run_stage(stage) -> None:
        for future in [submit(body, ch) for body, ch in stage]:
            future.result()

    bound = [partial(run_stage, [(_part_stage(bind_chunk(p, c)), ch)
                                 for c, ch in enumerate(chunks)])
             for p in getattr(functor, "parts", (functor,))]
    if len(bound) == 1:
        return bound[0]

    def sweep() -> None:
        for stage in bound:
            stage()

    return sweep
