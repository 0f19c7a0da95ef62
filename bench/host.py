"""The host fingerprint stored with every result."""

from __future__ import annotations

import importlib.util
import os
import pathlib
import platform
import subprocess
import sys
from typing import Any, Dict

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Thread pools a numpy build may start; pinned to 1 in every worker so
#: at most ``nproc`` threads or processes are busy.
PINNED_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _version(module: str) -> Any:
    """Installed version of ``module`` without importing it here."""
    if importlib.util.find_spec(module) is None:
        return None
    from importlib import metadata

    try:
        return metadata.version(module)
    except metadata.PackageNotFoundError:
        return "present"


def fingerprint() -> Dict[str, Any]:
    return {
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "numpy": _version("numpy"),
        "numba_present": _version("numba") is not None,
        "REPRO_NUM_THREADS": os.environ.get("REPRO_NUM_THREADS"),
        "REPRO_JIT": os.environ.get("REPRO_JIT"),
        "pinned_threads": {k: "1" for k in PINNED_ENV},
        "git_commit": _git_commit(),
    }
