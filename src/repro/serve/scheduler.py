"""The serving scheduler: admission pricing, worker pool, durability.

``ServeScheduler`` is the composition point of everything the previous
PRs built — the §VIII "many concurrent model instances as a production
system" story:

* **Admission** — every submitted :class:`~repro.serve.jobs.JobSpec`
  is priced with :func:`repro.perfmodel.quote_job` (modelled ETA and
  unit-seconds cost on the spec's machine) *before* it is queued.  A
  configurable budget turns the quote into a gate: an over-budget job
  is refused with :class:`~repro.errors.AdmissionError` carrying the
  numbers, and recorded as REJECTED for status listings.
* **Sharing** — every shareable job (single-rank, thread substrate)
  leases an engine from a signature-keyed
  :class:`~repro.serve.share.EngineCache`, so same-configuration jobs
  replay one sealed launch graph (hit/miss counters prove it).
* **Execution** — a bounded pool of worker threads drains the queue.
  Workers share one interpreter, so they do not step in parallel: a
  worker holds the scheduler's :class:`~repro.parallel.comm.RunToken`
  around each ``model.step()`` and nowhere else.  Steps of different
  jobs interleave one at a time; probes, checkpoints (fsync), final
  snapshots and engine builds of one worker overlap another's step.
  Multi-rank and isolated jobs run through
  :func:`repro.ocean.model.run_distributed` (``mode="process"`` spawns
  one OS process per rank via SimWorld); generic ``program`` jobs run
  on their own SimWorld.  Per-job ``timeout`` deadlines are threaded
  into the world, so a wedged job dies with
  :class:`~repro.errors.CommunicationError` as a FAILED status while
  the pool keeps serving.
* **Durability** — long jobs checkpoint every ``checkpoint_every``
  steps through the atomic :func:`repro.ocean.restart.save_restart`;
  a killed job resubmitted with ``resume=True`` continues from its
  latest checkpoint bit-exactly.
* **Artifacts** — each job owns ``<root>/<name>/``: streamed
  ``probes.jsonl`` rows, a Chrome ``trace.json`` (when tracing), the
  rolling ``checkpoint.npz`` and the final state snapshot.

Shutdown closes every cached engine, joins the workers, and sweeps any
stray ``/dev/shm`` world segments a killed process-mode driver may
have orphaned.
"""

from __future__ import annotations

import pathlib
import queue
import threading
import time
from typing import Any, Dict, List, Optional, Union

import numpy as np

from ..errors import AdmissionError, JobTimeout, ReproError
from ..ocean.model import LICOMKpp, STATE_FIELDS, run_distributed
from ..ocean.restart import load_restart, save_restart
from ..parallel.comm import DEFAULT_TIMEOUT, RunToken, SimWorld
from ..parallel.procworld import sweep_stray_worlds
from ..perfmodel import quote_job
from ..trace import write_chrome_trace
from .jobs import Job, JobSpec, JobStatus
from .probes import ProbeStream
from .share import EngineCache

_SENTINEL = None


class ServeScheduler:
    """Bounded-pool job scheduler for concurrent model instances.

    Parameters
    ----------
    workers:
        Worker threads draining the queue (>= 1).  More than one buys
        I/O overlapped with stepping, not parallel stepping.
    budget:
        Admission budget in unit-seconds of modelled cost
        (``JobQuote.cost_unit_seconds``); ``None`` admits everything.
    artifacts:
        Root directory; each job streams into ``<artifacts>/<name>/``.
    """

    def __init__(
        self,
        workers: int = 2,
        budget: Optional[float] = None,
        artifacts: Union[str, pathlib.Path] = "serve_artifacts",
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.budget = budget
        self.artifacts = pathlib.Path(artifacts)
        self.cache = EngineCache()
        self.jobs: Dict[int, Job] = {}
        self._queue: "queue.Queue" = queue.Queue()
        self._lock = threading.Lock()
        #: Held around ``model.step()``: workers step one at a time.
        self._run = RunToken()
        self._next_id = 0
        self._closed = False
        self._workers = [
            threading.Thread(target=self._worker_loop, name=f"serve{i}",
                             daemon=True)
            for i in range(workers)
        ]
        for t in self._workers:
            t.start()

    # -- submission --------------------------------------------------------

    def submit(self, spec: JobSpec) -> Job:
        """Validate, price, and enqueue one job.

        Returns the :class:`Job` record (its ``quote`` is set for every
        accepted job).  Raises :class:`AdmissionError` on a malformed
        spec or a quote over budget; the refused job is recorded with
        REJECTED status so operators can see what was turned away.
        """
        if self._closed:
            raise AdmissionError("scheduler is shut down")
        spec.validate()
        with self._lock:
            job = Job(self._next_id, spec, self.artifacts / spec.name)
            self._next_id += 1
            self.jobs[job.id] = job
        if spec.program is None:
            job.quote = quote_job(
                spec.config(), machine=spec.machine, units=spec.ranks,
                steps=spec.steps, precision=spec.precision)
            if self.budget is not None \
                    and job.quote.cost_unit_seconds > self.budget:
                job.error = (
                    f"over budget: modelled cost "
                    f"{job.quote.cost_unit_seconds:.3g} unit-seconds "
                    f"({spec.steps} steps on {spec.machine} x {spec.ranks}) "
                    f"exceeds the configured budget {self.budget:.3g}")
                job.finish(JobStatus.REJECTED)
                raise AdmissionError(f"job {spec.name!r} {job.error}",
                                     job=job)
        self._queue.put(job)
        return job

    def submit_many(self, specs: List[JobSpec]) -> List[Job]:
        """Submit a batch; rejected jobs are recorded, not raised."""
        out: List[Job] = []
        for spec in specs:
            try:
                out.append(self.submit(spec))
            except AdmissionError as exc:
                if exc.job is not None:
                    out.append(exc.job)
        return out

    # -- queries -----------------------------------------------------------

    def status(self) -> Dict[str, Any]:
        """Scheduler vitals plus one summary row per job."""
        with self._lock:
            jobs = list(self.jobs.values())
        counts: Dict[str, int] = {}
        for j in jobs:
            counts[j.status.value] = counts.get(j.status.value, 0) + 1
        return {
            "workers": len(self._workers),
            "budget": self.budget,
            "counts": counts,
            "cache": self.cache.stats(),
            "jobs": [j.summary() for j in jobs],
        }

    def wait_all(self, timeout: Optional[float] = None) -> bool:
        """Block until every submitted job is terminal."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            jobs = list(self.jobs.values())
        for j in jobs:
            left = None if deadline is None else deadline - time.monotonic()
            if left is not None and left <= 0:
                return False
            if not j.wait(left):
                return False
        return True

    # -- worker pool ---------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            job = self._queue.get()
            if job is _SENTINEL:
                return
            job.status = JobStatus.RUNNING
            try:
                job.result = self._run_job(job)
            except Exception as exc:
                job.error = f"{type(exc).__name__}: {exc}"
                job.finish(JobStatus.FAILED)
            else:
                job.finish(JobStatus.DONE)

    def _run_job(self, job: Job) -> Dict[str, Any]:
        spec = job.spec
        job.artifacts.mkdir(parents=True, exist_ok=True)
        if spec.program is not None:
            return self._run_program_job(job)
        if spec.shareable:
            return self._run_engine_job(job)
        return self._run_world_job(job)

    def _run_program_job(self, job: Job) -> Dict[str, Any]:
        """A generic SimWorld program on its own world.

        The per-job deadline *is* the world timeout: a wedged program
        dies with CommunicationError (thread mode) or RemoteRankError
        (process mode) and the worker records a FAILED status.
        """
        spec = job.spec
        timeout = DEFAULT_TIMEOUT if spec.timeout is None else spec.timeout
        world = SimWorld(spec.ranks, timeout=timeout, mode=spec.mode)
        results = world.launch(spec.program, args=spec.args)
        return {"ranks": spec.ranks, "results": results}

    def _run_world_job(self, job: Job) -> Dict[str, Any]:
        """A multi-rank (or process-isolated) model run."""
        spec = job.spec
        results, world = run_distributed(
            spec.config(), spec.ranks, spec.steps, backend=spec.backend,
            params=spec.params(), mode=spec.mode, timeout=spec.timeout)
        state = {f: results[0].state[f] for f in STATE_FIELDS}
        return {
            "nstep": results[0].nstep,
            "state": state,
            "ranks": spec.ranks,
            "mode": spec.mode,
            "messages": world.traffic.messages,
        }

    def _run_engine_job(self, job: Job) -> Dict[str, Any]:
        """A shareable job, on a leased signature-shared engine."""
        spec = job.spec
        engine = self.cache.acquire(spec)
        job.shared_engine = True
        with engine.lease(spec.name) as model:
            return self._step_model(job, model, engine.graph_stats)

    def _step_model(self, job: Job, model: LICOMKpp,
                    graph_stats) -> Dict[str, Any]:
        """The per-step serving loop: probes, checkpoints, deadline."""
        spec = job.spec
        ckpt = job.artifacts / "checkpoint.npz"
        resumed_from = None
        if spec.resume and ckpt.exists():
            load_restart(model, ckpt)
            resumed_from = model.nstep
        deadline = None if spec.timeout is None \
            else time.monotonic() + spec.timeout
        probes = None
        if spec.probe_every:
            probes = ProbeStream(job.artifacts / "probes.jsonl",
                                 append=resumed_from is not None)
        try:
            while model.nstep < spec.steps:
                if deadline is not None and time.monotonic() > deadline:
                    raise JobTimeout(
                        f"job {spec.name!r} exceeded its {spec.timeout}s "
                        f"deadline at step {model.nstep}/{spec.steps}")
                with self._run:
                    model.step()
                if probes is not None and model.nstep % spec.probe_every == 0:
                    probes.sample(model)
                if spec.checkpoint_every and (
                        model.nstep % spec.checkpoint_every == 0
                        or model.nstep == spec.steps):
                    save_restart(model, ckpt)
        finally:
            if probes is not None:
                probes.close()
        state = {f: getattr(model.state, f).cur.raw.copy()
                 for f in STATE_FIELDS}
        if spec.save_final:
            np.savez_compressed(job.artifacts / "final.npz", **state)
        if spec.trace:
            write_chrome_trace(job.artifacts / "trace.json",
                               model.context.tracer)
        return {
            "nstep": model.nstep,
            "state": state,
            "resumed_from": resumed_from,
            "probe_rows": probes.rows_written if probes is not None else 0,
            "graphs": graph_stats(),
        }

    # -- lifecycle -----------------------------------------------------------

    def shutdown(self, timeout: float = 30.0) -> Dict[str, Any]:
        """Stop the pool, close engines, sweep stray world segments.

        Idempotent.  Returns a small report (cache stats, swept
        segment names) so callers/tests can assert cleanliness.
        """
        if self._closed:
            return {"cache": self.cache.stats(), "swept": []}
        self._closed = True
        for _ in self._workers:
            self._queue.put(_SENTINEL)
        for t in self._workers:
            t.join(timeout)
        self.cache.close_all()
        swept = sweep_stray_worlds()
        return {"cache": self.cache.stats(), "swept": swept}

    def __enter__(self) -> "ServeScheduler":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


# re-exported for callers that want to map failures to statuses
__all__ = ["ServeScheduler", "JobTimeout", "AdmissionError", "ReproError"]
