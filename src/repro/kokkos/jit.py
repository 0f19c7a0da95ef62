"""``repro.kokkos.jit`` — the compiled execution tier behind sealed graphs.

A sealed :class:`~repro.kokkos.graph.LaunchGraph` already removed the
per-launch dispatch work (policy normalisation, registry walks, tiling).
What remains on the hot path is Python itself: every replayed launch
still enters ``plan.run()``, walks per-tile slice lists and bounces
through ``apply_tile``.  This module lowers each sealed plan into a
*compiled sweep* — a single specialised callable replacing that
interpretation.  There is one compiled tier, ``codegen``: it generates
(``compile``/``exec``) a driver whose body is the unrolled sequence of
the plan's part sweeps over precomputed whole-range slices (or, on the
chunked OpenMP backend, a stage-barriered chunk submission per part).
No per-tile Python remains: one replayed launch is one call into N
pre-bound vectorised part bodies.

Lowered artifacts are cached per execution space — and the space is
owned by one :class:`~repro.kokkos.context.ExecutionContext`, so ranks
never share compilation state — keyed by (functor signature, dtypes,
iteration extents, backend).  A cache *hit* re-binds the cached factory
to the new functor instances in microseconds, which is what makes
re-capture after binding invalidation cheap.

Degradation is structural, not exceptional: any failure to lower logs
one structured warning per cache key and leaves the plan on its eager
tier; ``LaunchPlan.tier`` records the outcome so ``repro trace
--graph`` can report coverage.
"""

from __future__ import annotations

import logging
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .view import View

LOG = logging.getLogger("repro.kokkos.jit")

#: Tier names recorded on :class:`~repro.kokkos.backends.base.LaunchPlan`.
TIER_EAGER = "eager"
TIER_CODEGEN = "codegen"


class CompiledSweep:
    """One plan's compiled launch body, bound and ready to run."""

    __slots__ = ("fn", "tier", "source", "key")

    def __init__(self, fn: Callable[[], None], tier: str, source: str,
                 key: tuple) -> None:
        self.fn = fn
        self.tier = tier
        self.source = source
        self.key = key


class JitCache:
    """Per-execution-space cache of lowered kernels.

    Values are *factories* (:class:`_LoweredCodegen`), not bound
    sweeps: re-sealing after a re-capture binds fresh functor instances
    against the cached artifact (a hit), it never recompiles.
    ``ExecutionContext.close`` clears the cache with the rest of the
    per-rank state.
    """

    __slots__ = ("entries", "hits", "misses", "failures", "_warned")

    def __init__(self) -> None:
        self.entries: Dict[tuple, object] = {}
        self.hits = 0
        self.misses = 0
        self.failures = 0
        self._warned: set = set()

    def __len__(self) -> int:
        return len(self.entries)

    def clear(self) -> None:
        self.entries.clear()
        self._warned.clear()

    def warn_once(self, key, label: str, reason: str) -> None:
        """Structured, once-per-key degradation warning."""
        self.failures += 1
        if key in self._warned:
            return
        self._warned.add(key)
        LOG.warning("jit: kernel=%r tier=eager reason=%s", label, reason)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"JitCache(entries={len(self.entries)}, hits={self.hits}, "
                f"misses={self.misses}, failures={self.failures})")


def sweep_key(space, policy, functor) -> tuple:
    """Cache key: (functor signature, dtypes, extents, backend)."""
    from .backends.base import functor_views

    parts = getattr(functor, "parts", None) or [functor]
    sig = tuple(type(p).__qualname__ for p in parts)
    dtypes = set()
    for p in parts:
        for v in functor_views(p):
            dtypes.add(v.raw.dtype.str)
    return (sig, tuple(sorted(dtypes)), tuple(policy.extents), space.name)


# -- lowering: codegen tier -------------------------------------------------


def _part_stage(part) -> Callable[[Tuple[slice, ...]], None]:
    """The vectorised body of one part (``apply`` or the reference loop)."""
    apply = getattr(part, "apply", None)
    if apply is not None:
        return apply
    from functools import partial

    from .functor import _loop_elementwise

    return partial(_loop_elementwise, part)


def _gen_whole_source(nparts: int) -> str:
    """Driver source: unrolled part sweeps over one constant slice tuple."""
    lines = ["def _make(applies, slices):"]
    for i in range(nparts):
        lines.append(f"    _a{i} = applies[{i}]")
    lines.append("    def _sweep():")
    for i in range(nparts):
        lines.append(f"        _a{i}(slices)")
    lines.append("    return _sweep")
    return "\n".join(lines) + "\n"


def _gen_chunked_source(nparts: int) -> str:
    """Driver source for chunked backends: one stage barrier per part."""
    lines = ["def _make(applies, run_stage):"]
    for i in range(nparts):
        lines.append(f"    _a{i} = applies[{i}]")
    lines.append("    def _sweep():")
    for i in range(nparts):
        lines.append(f"        run_stage(_a{i})")
    lines.append("    return _sweep")
    return "\n".join(lines) + "\n"


class _LoweredCodegen:
    """Cached generated driver; ``bind`` attaches instances + ranges."""

    __slots__ = ("tier", "source", "make", "chunked")

    def __init__(self, nparts: int, chunked: bool, label: str) -> None:
        self.tier = TIER_CODEGEN
        self.chunked = chunked
        self.source = (_gen_chunked_source(nparts) if chunked
                       else _gen_whole_source(nparts))
        ns: dict = {}
        exec(compile(self.source, f"<repro-jit:{label}>", "exec"), ns)
        self.make = ns["_make"]

    def bind(self, space, policy, functor) -> Callable[[], None]:
        parts = getattr(functor, "parts", None) or [functor]
        applies = tuple(_part_stage(p) for p in parts)
        if not self.chunked:
            slices = tuple(slice(b, e) for b, e in policy.ranges)
            return self.make(applies, slices)
        chunks = space._chunks(policy)
        if len(chunks) == 1:
            one = chunks[0]

            def run_stage(stage, _slices=one):
                stage(_slices)
        else:
            pool = space._executor()
            submit = pool.submit

            def run_stage(stage):
                futures = [submit(stage, ch) for ch in chunks]
                for f in futures:
                    f.result()
        return self.make(applies, run_stage)


# -- lowering entry point ---------------------------------------------------


def compile_sweep(space, label: str, policy, functor,
                  cache: JitCache) -> Optional[CompiledSweep]:
    """Lower (or re-bind) one plan; ``None`` means stay eager."""
    try:
        key = sweep_key(space, policy, functor)
    except Exception as exc:
        cache.warn_once((type(functor).__qualname__,), label,
                        f"keying-failed {exc!r}")
        return None
    entry = cache.entries.get(key)
    if entry is None:
        try:
            parts = getattr(functor, "parts", None) or [functor]
            chunked = space.name == "openmp" and space.concurrency > 1
            entry = _LoweredCodegen(len(parts), chunked, label)
        except Exception as exc:
            cache.warn_once(key, label, f"lowering-failed {exc!r}")
            return None
        cache.entries[key] = entry
        cache.misses += 1
    else:
        cache.hits += 1
    try:
        fn = entry.bind(space, policy, functor)
    except Exception as exc:
        cache.warn_once(key, label, f"bind-failed {exc!r}")
        return None
    return CompiledSweep(fn, entry.tier, entry.source, key)


# -- stencil-fusion dependency analysis -------------------------------------

#: (functor_type, ndim) -> kernelcheck footprint (None on analyzer crash).
_FP_CACHE: Dict[Tuple[type, int], object] = {}

#: (functor_type, ndim) -> (read attr names, written attr names) or None
#: when the static analysis could not prove anything (conservative).
_RW_CACHE: Dict[Tuple[type, int], Optional[Tuple[frozenset, frozenset]]] = {}


def part_footprint(ftype: type, ndim: int):
    """Cached kernelcheck footprint of one plan part.

    Every sealed plan's per-part read/write/offset sets come from here:
    the fusion pass consumes the name sets (:func:`parts_independent`)
    and the whole-graph verifier (``repro.analysis.graphcheck``)
    consumes the full footprint.  Returns ``None`` when the static
    analyzer itself fails (callers must stay conservative); a footprint
    whose ``error`` is set means the body resisted analysis.
    """
    key = (ftype, ndim)
    if key in _FP_CACHE:
        return _FP_CACHE[key]
    fp = None
    try:
        from ..analysis.footprint import build_footprint

        fp = build_footprint(ftype.__name__, ftype, ndim=ndim, kind="for")
    except Exception:
        fp = None
    _FP_CACHE[key] = fp
    return fp


def _rw_attr_names(ftype: type, ndim: int):
    key = (ftype, ndim)
    if key in _RW_CACHE:
        return _RW_CACHE[key]
    result = None
    fp = part_footprint(ftype, ndim)
    if fp is not None and fp.error is None:
        reads, writes = set(), set()
        for name, vf in fp.views.items():
            if vf.kind == "attr":
                continue  # scalar parameters cannot alias arrays
            if vf.reads or vf.raw_reads:
                reads.add(name)
            if vf.writes or vf.aug_writes:
                writes.add(name)
        result = (frozenset(reads), frozenset(writes))
    _RW_CACHE[key] = result
    return result


def _resolve_array(functor, dotted: str) -> Optional[np.ndarray]:
    obj = functor
    for attr in dotted.split("."):
        obj = getattr(obj, attr, None)
        if obj is None:
            return None
    if isinstance(obj, View):
        return obj.raw
    if isinstance(obj, np.ndarray):
        return obj
    return None


def parts_independent(parts: Sequence, ndim: int) -> Optional[bool]:
    """Can these kernel bodies be reordered / tiled together safely?

    ``True`` when no part reads or writes an array a *previous* part
    writes (no cross-part RAW/WAW/WAR through written state), proven
    from the kernelcheck footprints plus ``np.shares_memory`` on the
    live buffers.  ``False`` on a proven hazard, ``None`` when the
    static analysis cannot tell (callers must treat ``None`` as
    dependent).
    """
    resolved: List[Tuple[List[np.ndarray], List[np.ndarray]]] = []
    for p in parts:
        rw = _rw_attr_names(type(p), ndim)
        if rw is None:
            return None
        reads, writes = rw
        rarrs, warrs = [], []
        for name in reads | writes:
            arr = _resolve_array(p, name)
            if arr is None:
                return None  # unresolvable name: stay conservative
            if name in reads:
                rarrs.append(arr)
            if name in writes:
                warrs.append(arr)
        resolved.append((rarrs, warrs))

    written: List[np.ndarray] = []
    for rarrs, warrs in resolved:
        for w in written:
            for a in rarrs + warrs:
                if a is w or np.shares_memory(a, w):
                    return False
        written.extend(warrs)
    return True
