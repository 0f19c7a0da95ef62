"""Signature-keyed engine sharing: one sealed graph, many jobs.

Building a model is the expensive part of a tiny serving job — grid and
topography construction, view allocation, and (with ``graph=True``) the
first-step capture/seal/compile of the launch graphs.  MALI-style
campaigns run *many* configurations over one portable core, and within
a campaign most jobs share a configuration signature; re-paying
capture per job would waste exactly the cost graph replay exists to
amortise.

A :class:`SharedEngine` wraps one :class:`~repro.ocean.model.LICOMKpp`
and leases it to one job at a time.  The lease protocol is what makes
sharing *bitwise safe*:

* every lease starts with :meth:`LICOMKpp.reset` — all views zeroed,
  analytic initial conditions re-applied — so each job sees a state
  bitwise identical to a freshly constructed model;
* view **objects** survive reset, so the sealed ``LaunchGraph``\\ s
  (whose binding signatures are made of view identities) stay valid:
  job 2 replays the plans job 1 captured;
* the engine lock serialises leases — two same-signature jobs run one
  after the other on the engine, while different-signature jobs hold
  their own engines at once: their steps interleave one at a time under
  the scheduler's run token and their I/O overlaps.

The :class:`EngineCache` keys engines by
:meth:`~repro.serve.jobs.JobSpec.share_signature` and counts hits and
misses; engines are built *under the cache lock* so two simultaneous
submits of the same signature deterministically produce one build and
one hit.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, Iterator, List, Tuple

from ..ocean.model import LICOMKpp
from .jobs import JobSpec


class SharedEngine:
    """One cached model instance, leased to one job at a time."""

    def __init__(self, signature: Tuple, spec: JobSpec) -> None:
        self.signature = signature
        self.model = LICOMKpp(spec.config(), backend=spec.backend,
                              params=spec.params(), seed=spec.seed)
        self.leases = 0
        self._lock = threading.Lock()

    @contextmanager
    def lease(self, job_name: str) -> Iterator[LICOMKpp]:
        """Exclusive, pristine use of the engine for one job.

        Resets the model to its bitwise post-construction state and
        relabels/clears the tracer timeline so the exported trace
        belongs to this job alone.
        """
        with self._lock:
            self.leases += 1
            self.model.reset()
            tracer = self.model.context.tracer
            tracer.relabel(job_name)
            tracer.clear()
            yield self.model

    def graph_stats(self) -> List[Dict[str, object]]:
        """Stats of every sealed step-graph variant this engine holds."""
        return [g.stats() for g in self.model._graphs.values() if g.sealed]

    def close(self) -> None:
        self.model.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SharedEngine(leases={self.leases}, sig={self.signature})"


class EngineCache:
    """Signature-keyed cache of shared engines with hit/miss counters."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._engines: Dict[Tuple, SharedEngine] = {}
        self.hits = 0
        self.misses = 0

    def acquire(self, spec: JobSpec) -> SharedEngine:
        """The engine for ``spec``'s signature, building on first use.

        The build happens under the cache lock: a second submit of the
        same signature blocks until the engine exists and is counted as
        a hit, never as a duplicate build.
        """
        sig = spec.share_signature()
        with self._lock:
            engine = self._engines.get(sig)
            if engine is not None:
                self.hits += 1
                return engine
            self.misses += 1
            engine = SharedEngine(sig, spec)
            self._engines[sig] = engine
            return engine

    def stats(self) -> Dict[str, object]:
        with self._lock:
            return {
                "engines": len(self._engines),
                "hits": self.hits,
                "misses": self.misses,
                "leases": {str(sig): eng.leases
                           for sig, eng in self._engines.items()},
            }

    def close_all(self) -> None:
        """Close every cached engine (serve shutdown)."""
        with self._lock:
            engines = list(self._engines.values())
            self._engines.clear()
        for engine in engines:
            engine.close()

    def __len__(self) -> int:
        with self._lock:
            return len(self._engines)
