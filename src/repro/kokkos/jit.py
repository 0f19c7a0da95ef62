"""``repro.kokkos.jit`` — the compiled execution tier behind sealed graphs.

A sealed :class:`~repro.kokkos.graph.LaunchGraph` already removed the
per-launch dispatch work (policy normalisation, registry walks, tiling).
What remains on the hot path is Python itself: every replayed launch
still enters ``plan.run()``, walks per-tile slice lists and bounces
through ``apply_tile``.  This module lowers each sealed plan into a
*compiled sweep* — a single specialised callable replacing that
interpretation — in two tiers:

``njit``
    When numba is importable **and** the functor class declares a
    ``jit_spec`` (explicit-loop source over ``View.raw`` ndarrays), the
    source is compiled with ``numba.njit``.  Elementwise bodies lower
    bitwise-identically; numba is never a hard dependency — without it
    the same spec is ignored and the next tier applies.

``codegen``
    Always available.  Generates (``compile``/``exec``) a driver whose
    body is the unrolled sequence of the plan's part sweeps over
    precomputed whole-range slices (or, on the chunked OpenMP backend,
    a stage-barriered chunk submission per part).  No per-tile Python
    remains: one replayed launch is one call into N pre-bound
    vectorised part bodies.

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

This module must not hold module-level references to the library's
``GLOBAL_*`` singletons (kernelcheck's global-state rule); everything
is reached through the space / functor instances handed in.
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
TIER_NJIT = "njit"

_NUMBA_OK: Optional[bool] = None


def numba_available() -> bool:
    """True when ``numba`` is importable (probed once per process)."""
    global _NUMBA_OK
    if _NUMBA_OK is None:
        try:
            import numba  # noqa: F401
            _NUMBA_OK = True
        except Exception:
            _NUMBA_OK = False
    return _NUMBA_OK


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

    Values are *factories* (:class:`_LoweredCodegen` /
    :class:`_LoweredNjit`), not bound sweeps: re-sealing after a
    re-capture binds fresh functor instances against the cached
    artifact (a hit), it never recompiles.  ``ExecutionContext.close``
    clears the cache with the rest of the per-rank state.
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


# -- lowering: njit tier ----------------------------------------------------


_LOWERED_TYPES: Dict[type, type] = {}


def make_lowered_type(source_type: type) -> type:
    """Derived-artifact class for a lowered kernel.

    kernelcheck lints the *declared source functor*, not the generated
    body — the artifact advertises its provenance through
    ``__kernelcheck_source__`` and ``repro.analysis`` follows it.
    """
    cached = _LOWERED_TYPES.get(source_type)
    if cached is None:
        cached = type(f"Lowered_{source_type.__name__}", (), {
            "__kernelcheck_source__": source_type,
            "__module__": source_type.__module__,
        })
        _LOWERED_TYPES[source_type] = cached
    return cached


class _LoweredNjit:
    """A ``jit_spec`` compiled once; ``bind`` closes over live views.

    The bound sweep reads ``View.raw`` at *call* time, so leapfrog
    rotation (``View.rebind``) keeps working exactly as it does for the
    interpreted tiers.
    """

    __slots__ = ("tier", "source", "kernel", "arrays", "scalars", "artifact")

    def __init__(self, source_type: type, spec: dict, label: str,
                 force_python: bool = False) -> None:
        self.tier = TIER_NJIT
        self.source = spec["source"]
        self.arrays = tuple(spec["arrays"])
        self.scalars = tuple(spec.get("scalars", ()))
        self.artifact = make_lowered_type(source_type)
        ns: dict = {}
        exec(compile(self.source, f"<repro-jit:{label}>", "exec"), ns)
        fn = ns["kernel"]
        if not force_python:
            import numba

            fn = numba.njit(cache=False)(fn)
        self.kernel = fn

    def bind(self, space, policy, functor) -> Callable[[], None]:
        views = tuple(getattr(functor, name) for name in self.arrays)
        for name, v in zip(self.arrays, views):
            if not isinstance(v, View):
                raise TypeError(
                    f"jit_spec array {type(functor).__name__}.{name} "
                    "is not a View")
        scalars = tuple(getattr(functor, name) for name in self.scalars)
        bounds = tuple(x for r in policy.ranges for x in r)
        kern = self.kernel

        def _sweep():
            kern(*(v.raw for v in views), *scalars, *bounds)

        return _sweep


# -- lowering entry point ---------------------------------------------------


def _all_float64_views(part) -> bool:
    """True when every View the part binds is float64."""
    from .backends.base import functor_views

    return all(v.raw.dtype == np.float64 for v in functor_views(part))


def _lower(space, label: str, policy, functor, cache: JitCache):
    """Produce the cached lowering artifact for one plan."""
    parts = getattr(functor, "parts", None) or [functor]
    if len(parts) == 1:
        spec = getattr(type(parts[0]), "jit_spec", None)
        if spec is not None:
            if not _all_float64_views(parts[0]):
                # numba types python-float scalars as float64 inside the
                # loop, so an fp32 jit_spec body would compute in fp64
                # and break bitwise tier identity for narrow families —
                # degrade to the codegen tier, which re-executes the
                # numpy apply body (bitwise identical at any dtype).
                cache.warn_once((sweep_key(space, policy, functor), "f32"),
                                label, "narrow-dtype-views tier=codegen")
            elif numba_available():
                return _LoweredNjit(type(parts[0]), spec, label)
            else:
                cache.warn_once(("numba",), label,
                                "numba-not-importable tier=codegen")
    chunked = space.name == "openmp" and space.concurrency > 1
    return _LoweredCodegen(len(parts), chunked, label)


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
            entry = _lower(space, label, policy, functor, cache)
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
