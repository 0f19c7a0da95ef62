"""Production reaches every function under ``src/repro``.

Two subprocesses drive what the package ships, side by side: one calls
:func:`repro.cli.main` in process for every subcommand (every backend
and precision, restart in and out, the lint baseline round trip, trace
on thread and process ranks, both serve modes), the other runs each
``examples/*.py`` through :mod:`runpy`.  A ``sitecustomize`` put first
on ``PYTHONPATH`` installs a profiler in every interpreter, spawned
process-rank workers included, and in every thread; it writes each
``(file, first line)`` it sees the moment it first sees it, so a
worker its parent terminates after the last report still counts.

Functions are keyed from the AST as ``path::qualname``; a function's
first line is its first decorator's, as ``co_firstlineno`` says.  A
function nested in an unreached function is not listed on its own.
Every key is reached or stands in :data:`ALLOWED` with a category and
a reason; an allowlisted key that production starts to reach fails the
gate too, so the list only shrinks.
"""

from __future__ import annotations

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PKG = SRC / "repro"

#: Runs the whole examples/ tree except these, with the reason.
SKIP_EXAMPLES = {
    # 40 s on a 2-core host, and it reaches nothing the other examples
    # and the CLI do not
    "submesoscale_rossby.py",
}

#: ``(argv, expected exit status)`` of each in-process CLI call; ``{tmp}``
#: is the drive's scratch directory.
_TINY = ["--size", "tiny", "--days", "0.25"]
CLI_DRIVE: List[Tuple[List[str], int]] = [
    (["info"], 0),
    *((["run", *_TINY, "--backend", b], 0)
      for b in ("serial", "openmp", "athread", "cuda", "hip")),
    *((["run", *_TINY, "--precision", p], 0) for p in ("single", "mixed")),
    (["run", *_TINY, "--full-depth", "--timers",
      "--restart-out", "{tmp}/restart.npz"], 0),
    (["run", *_TINY, "--full-depth", "--restart-in", "{tmp}/restart.npz"], 0),
    (["experiments", "all"], 0),
    (["lint", "--write-baseline", "{tmp}/baseline.txt"], 0),
    (["lint", "--baseline", "{tmp}/baseline.txt", "--format", "json",
      "--output", "{tmp}/lint.json"], 0),
    (["lint", "--graph", "--strict"], 0),
    # five steps: four capture the startup graph and the three leapfrog
    # phases, one replays
    (["trace", "--ranks", "1", "--steps", "5", "--backend",
      "athread", "--predict", "new_sunway", "--out", "{tmp}/trace1.json"], 0),
    *((["trace", "--ranks", "1", "--steps", "5", "--backend", b,
        "--out", "{tmp}/trace1-%s.json" % b], 0) for b in ("openmp", "cuda")),
    (["trace", "--ranks", "2", "--out", "{tmp}/trace2.json"], 0),
    (["trace", "--ranks", "2", "--mode", "process",
      "--out", "{tmp}/trace2p.json"], 0),
    (["precision", "--steps", "4"], 0),
    (["serve", "--demo", "--artifacts", "{tmp}/serve-demo"], 0),
    # the priced-out job is rejected by the budget, so the exit is 1
    (["serve", "--jobs", str(ROOT / "examples" / "jobs_demo.json"),
      "--budget", "1e4", "--artifacts", "{tmp}/serve-jobs"], 1),
]


def _why(category: str, reason: str, *names: str) -> Dict[str, str]:
    return {name: f"{category}: {reason}" for name in names}


#: Every function no drive reaches, ``path::qualname -> "category:
#: reason"``.  Categories are a closed set (:data:`CATEGORIES`).
ALLOWED: Dict[str, str] = {
    **_why("oracle", "elementwise point body the vectorised apply() is "
           "tested against; production sweeps run apply()",
           "repro/ocean/kernel_utils.py::TileFunctor.__call__",
           "repro/ocean/kernel_utils.py::point_slices",
           "repro/ocean/precision.py::CastFunctor.__call__",
           "repro/ocean/precision.py::CastFunctor2D.__call__"),
    **_why("oracle", "row-major reference sweep for a functor without "
           "apply(); every production functor has one",
           "repro/kokkos/functor.py::_loop_elementwise",
           "repro/kokkos/functor.py::_recurse_for"),
    **_why("oracle", "array-level EOS the eos kernel tests compare against",
           "repro/ocean/eos.py::density_linear"),
    **_why("oracle", "message-free scatter of a global field: the halo "
           "tests' reference for every rank's block",
           "repro/parallel/decomp.py::BlockDecomposition.scatter_global"),
    **_why("oracle", "eager-allocation workspace the arena-vs-fresh test "
           "swaps in", "repro/kokkos/context.py::ExecutionContext.null_workspace"),
    **_why("seam", "run_for-intercepting spaces get the eager generic "
           "plan, so a differential-testing wrapper sees every launch",
           "repro/kokkos/backends/base.py::_GenericPlan.run"),
    **_why("seam", "tests reset counters between measured windows "
           "(the step-call budget, the ledger pins)",
           "repro/kokkos/backends/athread.py::AthreadBackend.reset_counters",
           "repro/kokkos/ldm.py::LDMAllocator.reset",
           "repro/parallel/comm.py::TrafficLedger.reset"),
    **_why("seam", "tests observe the scratch an arena and its chunk "
           "arenas hold",
           "repro/kokkos/workspace.py::Workspace.pooled_nbytes"),
    **_why("seam", "tests read the exchange's persistent pool to pin the "
           "zero-allocation steady state",
           "repro/parallel/halo.py::HaloUpdater.pool"),
    **_why("seam", "tests check spans stay balanced per thread",
           "repro/trace/tracer.py::Tracer.open_depth"),
    **_why("seam", "tests time ad-hoc regions, read one region's count "
           "and total, and clear a registry; production opens the step's "
           "regions through phase nodes and prints report()",
           "repro/timing.py::TimerRegistry.count",
           "repro/timing.py::TimerRegistry.reset",
           "repro/timing.py::TimerRegistry.timer",
           "repro/timing.py::TimerRegistry.total"),
    **_why("seam", "a JobSpec program stands in for the ocean step so "
           "the timeout, kill and failure tests can wedge a job",
           "repro/serve/scheduler.py::ServeScheduler._run_program_job"),
    **_why("error-path", "runs only when a verifier reports a finding; "
           "the production tree lints clean",
           "repro/analysis/findings.py::Baseline.matches",
           "repro/analysis/findings.py::Finding.format",
           "repro/analysis/findings.py::Finding.key",
           "repro/analysis/findings.py::Finding.to_dict",
           "repro/analysis/footprint.py::KernelFootprint.file",
           "repro/analysis/footprint.py::KernelFootprint.line",
           "repro/analysis/graphcheck.py::_Walker._find",
           "repro/analysis/rules.py::_finding",
           "repro/analysis/rules.py::_ldm_detail"),
    **_why("error-path", "records a kernel body touching .raw, which only "
           "a rule-breaking kernel does",
           "repro/analysis/observe.py::_ObservedView.raw"),
    **_why("error-path", "a rank failed or died",
           "repro/errors.py::RemoteRankError.__init__",
           "repro/parallel/comm.py::_primary_error"),
    **_why("error-path", "oversize frames: an object frame larger than "
           "PIPE_BUF",
           "repro/parallel/shm.py::SharedBufferPool.acquire_bytes"),
    **_why("protocol", "dunder, abstract or interface method no drive "
           "happens to call",
           "repro/analysis/findings.py::Severity.__str__",
           "repro/experiments/variants.py::LinkedListRegistry.__len__",
           "repro/kokkos/backends/base.py::ExecutionSpace.__repr__",
           "repro/kokkos/backends/base.py::ExecutionSpace.run_reduce",
           "repro/kokkos/backends/base.py::LaunchPlan.run",
           "repro/kokkos/backends/base.py::Reducer.__repr__",
           "repro/kokkos/context.py::ExecutionContext.__enter__",
           "repro/kokkos/context.py::ExecutionContext.__exit__",
           "repro/kokkos/context.py::ExecutionContext.__repr__",
           "repro/kokkos/functor.py::Functor.__call__",
           "repro/kokkos/graph.py::LaunchGraph.__repr__",
           "repro/kokkos/registry.py::DictRegistry.__len__",
           "repro/kokkos/spaces.py::Layout.__repr__",
           "repro/kokkos/spaces.py::MemorySpace.__repr__",
           "repro/kokkos/view.py::View.__array__",
           "repro/kokkos/view.py::View.__getitem__",
           "repro/kokkos/view.py::View.__repr__",
           "repro/kokkos/view.py::View.__setitem__",
           "repro/ocean/kernel_utils.py::TileFunctor.apply",
           "repro/ocean/precision.py::PrecisionPolicy.__eq__",
           "repro/ocean/precision.py::PrecisionPolicy.__hash__",
           "repro/ocean/precision.py::PrecisionPolicy.__repr__",
           "repro/parallel/loadbalance.py::ImbalanceStats.__str__",
           "repro/serve/jobs.py::Job.__repr__",
           "repro/serve/probes.py::ProbeStream.__enter__",
           "repro/serve/probes.py::ProbeStream.__exit__",
           "repro/serve/scheduler.py::ServeScheduler.__enter__",
           "repro/serve/scheduler.py::ServeScheduler.__exit__",
           "repro/serve/share.py::EngineCache.__len__",
           "repro/serve/share.py::SharedEngine.__repr__",
           "repro/trace/tracer.py::Instant.__repr__",
           "repro/trace/tracer.py::Span.__repr__",
           "repro/trace/tracer.py::Tracer.__repr__"),
    **_why("protocol", "the registry interface both registries answer "
           "(the A3 ablation swaps one for the other)",
           "repro/experiments/variants.py::LinkedListRegistry.clear",
           "repro/experiments/variants.py::LinkedListRegistry.contains",
           "repro/kokkos/registry.py::DictRegistry.clear",
           "repro/kokkos/registry.py::DictRegistry.contains"),
    **_why("protocol", "ledgered send and blocking receive of the "
           "communicator interface; the halo path posts irecv, transmits "
           "un-ledgered frames and waits",
           "repro/parallel/comm.py::SimComm.send",
           "repro/parallel/comm.py::SimComm.recv"),
    **_why("bench", "the stop agreement's barrier / allreduce on thread "
           "and process ranks",
           "repro/parallel/comm.py::SimComm._broadcast_result",
           "repro/parallel/comm.py::SimComm._collective",
           "repro/parallel/comm.py::SimComm._next_seq",
           "repro/parallel/comm.py::SimComm.allreduce",
           "repro/parallel/comm.py::SimComm.barrier",
           "repro/parallel/comm.py::_copy_payload",
           "repro/parallel/comm.py::_reduce_values",
           "repro/parallel/wire.py::ObjFrame.__init__"),
    **_why("bench", "leak checks and layer counters of the workloads",
           "repro/kokkos/context.py::ExecutionContext.live_contexts",
           "repro/kokkos/context.py::ExecutionContext.live_count",
           "repro/kokkos/instrument.py::WorkspaceStats.hit_rate",
           "repro/serve/jobs.py::Job.finished"),
    **_why("regenerates", "benchmarks/ re-measures the frozen step and "
           "family profiles it asserts",
           "repro/perfmodel/familycost.py::measure_family_shares",
           "repro/perfmodel/kernelcost.py::measure_step_profile"),
    **_why("paper §V-B", "Kokkos parallel_reduce on every backend, with "
           "its reducers and registration macro; no step kernel reduces",
           "repro/kokkos/backends/athread.py::AthreadBackend.run_reduce",
           "repro/kokkos/backends/base.py::ExecutionSpace.parallel_reduce",
           "repro/kokkos/backends/base.py::Reducer.reduce_array",
           "repro/kokkos/backends/base.py::reduce_tile",
           "repro/kokkos/backends/device.py::DeviceBackend.run_reduce",
           "repro/kokkos/backends/openmp.py::OpenMPBackend.run_reduce",
           "repro/kokkos/backends/serial.py::SerialBackend.run_reduce",
           "repro/kokkos/functor.py::_iter_indices",
           "repro/kokkos/functor.py::_loop_reduce",
           "repro/kokkos/functor.py::_make_preset.preset_reduce",
           "repro/kokkos/functor.py::kokkos_register_reduce",
           "repro/kokkos/functor.py::register_functor_instance"),
    **_why("paper §V-B", "Kokkos view and policy interface: mirrors, "
           "deep_copy, subviews, extents, wrapped caller memory, the 1-D "
           "RangePolicy",
           "repro/kokkos/view.py::create_mirror_view",
           "repro/kokkos/view.py::deep_copy",
           "repro/kokkos/view.py::subview",
           "repro/kokkos/view.py::View.extent",
           "repro/kokkos/view.py::View.fill",
           "repro/kokkos/view.py::View.nbytes",
           "repro/kokkos/view.py::View.size",
           "repro/kokkos/view.py::_matches_order",
           "repro/kokkos/policy.py::MDRangePolicy.ndim",
           "repro/kokkos/policy.py::RangePolicy.__post_init__",
           "repro/kokkos/policy.py::RangePolicy.ndim",
           "repro/kokkos/policy.py::RangePolicy.ranges",
           "repro/kokkos/policy.py::RangePolicy.size"),
    **_why("paper §V-C1", "canuto load balance; benchmarks/ regenerates "
           "A1 from imbalance_stats, the model does not balance yet",
           "repro/parallel/comm.py::SimComm.allgather",
           "repro/parallel/loadbalance.py::balanced_column_compute",
           "repro/parallel/loadbalance.py::local_ocean_columns",
           "repro/parallel/loadbalance.py::naive_column_compute",
           "repro/parallel/loadbalance.py::partition_evenly"),
    **_why("roadmap 11", "graph-mode launch pricing; item 11 prices the "
           "sealed graph every run now steps",
           "repro/perfmodel/kernelcost.py::StepProfile.launches_graph"),
    **_why("roadmap 13", "per-rank ledger merge and the scheduler status "
           "export item 13 folds into one metrics spine",
           "repro/kokkos/instrument.py::Instrumentation.merge_from",
           "repro/serve/scheduler.py::ServeScheduler.status",
           "repro/serve/jobs.py::Job.summary",
           "repro/perfmodel/scheduler.py::JobQuote.as_dict"),
}

#: The closed set of allowlist categories.
CATEGORIES = re.compile(
    r"(oracle|seam|error-path|protocol|bench|regenerates"
    r"|paper §[IVX]+(-[A-Z][0-9]*)?|roadmap \d+): \S")

#: The profiler every drive interpreter loads first.
SITECUSTOMIZE = '''
import os, sys, threading

_ROOT = {root!r}
_OUT = {out!r}
_fd = None
_seen = set()


def _prof(frame, event, arg):
    global _fd
    if event != "call":
        return
    code = frame.f_code
    if code in _seen:
        return
    _seen.add(code)
    if code.co_filename.startswith(_ROOT):
        if _fd is None:
            _fd = os.open(os.path.join(_OUT, "%d.keys" % os.getpid()),
                          os.O_WRONLY | os.O_CREAT | os.O_APPEND)
        os.write(_fd, ("%s\\t%d\\n" % (code.co_filename,
                                      code.co_firstlineno)).encode())


sys.setprofile(_prof)
threading.setprofile(_prof)
'''

CLI_SCRIPT = '''
import json, sys
from repro.cli import main

bad = []
for argv, want in json.loads(sys.argv[1]):
    try:
        got = main(argv)
    except SystemExit as exc:
        got = exc.code
    if got != want:
        bad.append((argv, got, want))
sys.exit("unexpected exit status: %r" % bad if bad else 0)
'''

EXAMPLES_SCRIPT = '''
import runpy, sys

for path in sys.argv[1:]:
    sys.argv = [path]
    runpy.run_path(path, run_name="__main__")
'''


# -- the static side: every function under src/repro ------------------------

def _defs(node: ast.AST, prefix: str, parent, out: list, path: Path) -> None:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = prefix + child.name
            first = min([d.lineno for d in child.decorator_list]
                        + [child.lineno])
            out.append((name, (str(path), first), parent))
            _defs(child, name + ".", name, out, path)
        elif isinstance(child, ast.ClassDef):
            _defs(child, prefix + child.name + ".", parent, out, path)
        else:
            _defs(child, prefix, parent, out, path)


def functions() -> List[Tuple[str, Tuple[str, int], Optional[str]]]:
    """Every function under ``src/repro`` as ``(path::qualname, (file,
    first line), enclosing function's path::qualname or None)``."""
    out: list = []
    for path in sorted(PKG.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        found: list = []
        _defs(ast.parse(path.read_text(), str(path)), "", None, found, path)
        out += [(f"{rel}::{name}", key,
                 parent and f"{rel}::{parent}") for name, key, parent in found]
    return out


def unreached(reached: Set[Tuple[str, int]]) -> List[str]:
    """Keys never reached whose enclosing function (if any) was."""
    fns = functions()
    hit = {name for name, key, _ in fns if key in reached}
    return [name for name, key, parent in fns
            if name not in hit and (parent is None or parent in hit)]


# -- the dynamic side: what the drive reached --------------------------------

@pytest.fixture(scope="module")
def reached(tmp_path_factory) -> Set[Tuple[str, int]]:
    tmp = tmp_path_factory.mktemp("reach")
    site, keys = tmp / "site", tmp / "keys"
    site.mkdir()
    keys.mkdir()
    (site / "sitecustomize.py").write_text(
        SITECUSTOMIZE.format(root=str(PKG), out=str(keys)))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(site), str(SRC)]))
    argv = [([a.format(tmp=tmp) for a in args], want)
            for args, want in CLI_DRIVE]
    examples = [str(p) for p in sorted((ROOT / "examples").glob("*.py"))
                if p.name not in SKIP_EXAMPLES]
    drives = []
    for name, cmd in (("cli", [CLI_SCRIPT, json.dumps(argv)]),
                      ("examples", [EXAMPLES_SCRIPT, *examples])):
        with open(tmp / f"{name}.err", "w") as err:
            drives.append((name, subprocess.Popen(
                [sys.executable, "-c", *cmd], cwd=tmp, env=env,
                stdout=subprocess.DEVNULL, stderr=err)))
    try:
        for name, proc in drives:
            code = proc.wait(timeout=300)
            assert code == 0, (tmp / f"{name}.err").read_text()[-4000:]
    finally:
        for _, proc in drives:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    out = set()
    for f in keys.iterdir():
        for line in f.read_text().splitlines():
            path, first = line.rsplit("\t", 1)
            out.add((path, int(first)))
    return out


def test_every_function_is_reached_or_allowlisted(reached):
    missing = sorted(set(unreached(reached)) - set(ALLOWED))
    assert not missing, "unreached and not allowlisted:\n" + "\n".join(missing)


def test_no_allowlisted_function_is_reached(reached):
    """A production caller retires the entry: the list only shrinks."""
    keys = {name: key for name, key, _ in functions()}
    now_reached = sorted(n for n in ALLOWED if keys.get(n) in reached)
    assert not now_reached, "reached, drop from ALLOWED:\n" + "\n".join(now_reached)


def test_every_allowlisted_function_exists():
    names = {name for name, _, _ in functions()}
    assert sorted(set(ALLOWED) - names) == []


def test_every_allowlist_entry_has_a_category_and_reason():
    bad = sorted(n for n, why in ALLOWED.items() if not CATEGORIES.match(why))
    assert not bad


def test_process_rank_workers_were_profiled(reached):
    """The spawned workers ran the profiler too (their keys reached the
    dump), so what only process ranks run is judged, not assumed."""
    keys = {name: key for name, key, _ in functions()}
    for name in ("repro/parallel/procworld.py::_worker_main",
                 "repro/parallel/procworld.py::ProcComm._post"):
        assert keys[name] in reached, name
