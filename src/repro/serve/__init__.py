"""``repro.serve`` — many concurrent model instances as a service.

The ROADMAP north-star past single runs: admit ensemble members and
parameter sweeps as jobs, price each on admission with the calibrated
machine model, share sealed launch graphs across identical-signature
jobs, stream per-job diagnostics and traces, and checkpoint long jobs
atomically so a kill resumes bit-exactly.  See DESIGN.md §2.16.
"""

from .jobs import Job, JobSpec, JobStatus, load_jobspecs, spec_from_dict
from .probes import ProbeStream
from .scheduler import ServeScheduler
from .share import EngineCache, SharedEngine

__all__ = [
    "Job", "JobSpec", "JobStatus", "load_jobspecs", "spec_from_dict",
    "ProbeStream",
    "ServeScheduler",
    "EngineCache", "SharedEngine",
]
