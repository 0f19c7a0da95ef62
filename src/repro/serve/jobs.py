"""Job specifications and lifecycle records for the serving layer.

A :class:`JobSpec` is the *what* of one serving job — an ensemble
member, a parameter-sweep point, or a multi-backend run — expressed in
plain data so specs can travel as JSON (``load_jobspecs``) or be built
inline.  A :class:`Job` is the *lifecycle* record the scheduler hands
back on submit: status, the perfmodel admission quote, the result
payload, the error text of a failed run, and the artifact directory
the job streamed probes / traces / checkpoints into.

Sharing is keyed on :meth:`JobSpec.share_signature`: two specs with the
same signature produce bitwise-identical engines (same config, backend,
precision, tracer count and seed), so the
scheduler can lease one :class:`~repro.serve.share.SharedEngine` to both.
"""

from __future__ import annotations

import json
import pathlib
import threading
from dataclasses import dataclass, fields
from enum import Enum
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from ..errors import AdmissionError, DecompositionError
from ..ocean.config import ModelConfig, demo
from ..ocean.model import ModelParams
from ..parallel.decomp import BlockDecomposition, choose_process_grid


@dataclass
class JobSpec:
    """One serving job, as plain data.

    Parameters mirror the CLI run knobs; everything has a default so a
    jobspec JSON only names what it changes.  ``program`` admits a
    generic SimWorld program (a picklable module-level callable taking
    ``(comm, *args)``) instead of a model run — the escape hatch the
    tests use for deterministic wedge/failure jobs.
    """

    name: str
    #: Demo-config size ("tiny"/"small"/"medium"/"large").
    size: str = "tiny"
    backend: str = "serial"
    steps: int = 4
    ranks: int = 1
    #: Execution substrate for multi-rank / isolated jobs.
    mode: str = "thread"
    precision: str = "double"
    n_passive: int = 0
    seed: int = 2024
    #: Probe-row cadence in steps (0 disables streaming diagnostics).
    probe_every: int = 1
    #: Checkpoint cadence in steps (0 disables; the checkpoint file is
    #: a single atomically-replaced ``checkpoint.npz`` per job).
    checkpoint_every: int = 0
    #: Start from the job's latest checkpoint when one exists.
    resume: bool = False
    #: Per-job wall-clock deadline in seconds (None = no deadline).
    timeout: Optional[float] = None
    trace: bool = False
    #: Machine the admission quote is priced on (perfmodel registry).
    machine: str = "gpu_workstation"
    save_final: bool = True
    #: Generic SimWorld program job (tests, custom collectives).
    program: Optional[Callable] = None
    args: Tuple = ()

    def validate(self) -> None:
        """Reject malformed specs before they reach the queue."""
        if not self.name or "/" in self.name:
            raise AdmissionError(
                f"job name {self.name!r} must be a non-empty path-safe token")
        if self.steps < 1 and self.program is None:
            raise AdmissionError(f"job {self.name!r}: steps must be >= 1")
        if self.ranks < 1:
            raise AdmissionError(f"job {self.name!r}: ranks must be >= 1")
        if self.mode not in ("thread", "process"):
            raise AdmissionError(
                f"job {self.name!r}: unknown mode {self.mode!r}")
        if self.timeout is not None and self.timeout <= 0:
            raise AdmissionError(
                f"job {self.name!r}: timeout must be positive, "
                f"got {self.timeout}")
        if self.probe_every < 0 or self.checkpoint_every < 0:
            raise AdmissionError(
                f"job {self.name!r}: cadences must be >= 0")
        if self.ranks > 1 and self.program is None:
            # the decomposition run_distributed will build: a grid the
            # tripolar fold cannot pair up is refused here, not on a rank
            cfg = self.config()
            try:
                npy, npx = choose_process_grid(cfg.ny, cfg.nx, self.ranks)
                BlockDecomposition(cfg.ny, cfg.nx, npy, npx)
            except DecompositionError as exc:
                raise AdmissionError(f"job {self.name!r}: {exc}") from None

    def config(self) -> ModelConfig:
        return demo(self.size)

    def params(self) -> ModelParams:
        return ModelParams(
            precision=self.precision,
            n_passive=self.n_passive,
            trace=self.trace,
        )

    @property
    def shareable(self) -> bool:
        """Can this job run on a cached, signature-shared engine?

        Sharing leases one in-process model; multi-rank jobs, isolated
        (process-mode) jobs and generic program jobs each own their
        world instead.
        """
        return (self.ranks == 1 and self.mode == "thread"
                and self.program is None)

    def share_signature(self) -> Tuple:
        """Everything that shapes the engine (and its sealed graphs).

        Two specs with equal signatures step bitwise identically on the
        same engine; steps / cadences / timeouts are per-job and
        deliberately excluded.
        """
        return (self.size, self.backend, self.precision, self.n_passive,
                self.seed, self.trace)


class JobStatus(Enum):
    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    REJECTED = "rejected"


class Job:
    """One submitted job's lifecycle record (scheduler-owned)."""

    def __init__(self, job_id: int, spec: JobSpec,
                 artifacts: pathlib.Path) -> None:
        self.id = job_id
        self.spec = spec
        self.status = JobStatus.PENDING
        #: Admission-time :class:`~repro.perfmodel.JobQuote`.
        self.quote = None
        #: Result payload of a DONE job (state arrays, graph stats, ...).
        self.result: Optional[Dict[str, Any]] = None
        #: Error text ("ExcType: message") of a FAILED/REJECTED job.
        self.error: Optional[str] = None
        #: Per-job artifact directory (probes, trace, checkpoints).
        self.artifacts = artifacts
        #: True when this job leased a cached engine (cache hit or miss).
        self.shared_engine = False
        self._done = threading.Event()

    def finish(self, status: JobStatus) -> None:
        self.status = status
        self._done.set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the job reaches a terminal status."""
        return self._done.wait(timeout)

    @property
    def finished(self) -> bool:
        return self._done.is_set()

    def summary(self) -> Dict[str, Any]:
        """Status row: JSON-serialisable, no field arrays."""
        out: Dict[str, Any] = {
            "id": self.id,
            "name": self.spec.name,
            "status": self.status.value,
            "artifacts": str(self.artifacts),
        }
        if self.quote is not None:
            out["quote"] = self.quote.as_dict()
        if self.error is not None:
            out["error"] = self.error
        if self.result is not None:
            out["nstep"] = self.result.get("nstep")
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Job(id={self.id}, name={self.spec.name!r}, "
                f"status={self.status.value})")


_SPEC_FIELDS = {f.name for f in fields(JobSpec)}


def spec_from_dict(data: Dict[str, Any]) -> JobSpec:
    """Build a JobSpec from a plain dict, rejecting unknown keys."""
    unknown = sorted(set(data) - _SPEC_FIELDS)
    if unknown:
        raise AdmissionError(
            f"jobspec {data.get('name', '?')!r}: unknown keys {unknown}; "
            f"valid keys are {sorted(_SPEC_FIELDS)}")
    if "name" not in data:
        raise AdmissionError("jobspec without a name")
    if "args" in data:
        data = dict(data, args=tuple(data["args"]))
    spec = JobSpec(**data)
    spec.validate()
    return spec


def load_jobspecs(path: Union[str, pathlib.Path]) -> List[JobSpec]:
    """Load a jobspec file: a JSON list of dicts or ``{"jobs": [...]}``."""
    with open(path) as fh:
        data = json.load(fh)
    if isinstance(data, dict):
        data = data.get("jobs", [])
    if not isinstance(data, list):
        raise AdmissionError(
            f"jobspec file {path}: expected a list or a 'jobs' list")
    return [spec_from_dict(dict(item)) for item in data]
