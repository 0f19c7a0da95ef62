"""The five workloads and the code that runs one of them in a worker.

Everything here executes inside a fresh worker process (``bench.worker``)
— and, for process ranks, inside the rank processes the program spawns,
which is why the rank body is a module-level function of an importable
module.  ``repro`` is imported inside the functions so that merely
importing this module (``run.py`` does, for the table) stays cheap.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from .inputs import build_tolerant, serve_job
from .layers import (FAMILIES, bucket_times, budget_closed, durations_ms,
                     family_counts, per_step, stepping_metrics, time_metrics)
from .spans import Span, SpanLog, self_times
from .stats import median, percentile

#: Steps run before the timed region: the Euler start step, graph
#: capture and seal, codegen and the first arena fill.  Part of set-up.
WARMUP_STEPS = 4
#: Model step whose state every stepping workload snapshots for the
#: output check (compared with a 16-step eager serial 1-rank oracle).
DIGEST_STEP = 16
#: Steps between looks at the clock; ranks agree on stopping through one
#: allreduce per chunk, which is not counted as a model collective.
CHUNK = 10

#: What "production path" asks ModelParams for (fields the dataclass no
#: longer has are dropped by ``build_tolerant``).
PRODUCTION = {"graph": True, "jit": True, "arena": True, "halo_fused": True}


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str            # "step" | "serve"
    size: str = "small"
    backend: str = "serial"
    production: bool = True
    ranks: int = 1
    mode: str = "thread"
    min_cores: int = 1


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("single-athread-small", "step", backend="athread"),
    Workload("single-serial-medium", "step", size="medium", production=False),
    Workload("ranks2-thread-small", "step", ranks=2, min_cores=2),
    Workload("ranks2-process-small", "step", ranks=2, mode="process",
             min_cores=2),
    Workload("serve-ensemble-small", "serve"),
)}

SERVE_WORKERS = 2       # the CLI default
SERVE_OUTSTANDING = 2   # closed loop: jobs in flight
#: The scheduler keeps every finished job's result, so its memory grows
#: with the jobs served; peak RSS is read when this many are done (or
#: at the end, if fewer), not after however many a fast host got to.
SERVE_RSS_AT_JOBS = 20


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def state_digest(states: Sequence[Mapping[str, Any]], decomp) -> str:
    """sha256 over the gathered global prognostic fields.

    ``states`` is rank-ordered; each maps a ``STATE_FIELDS`` name to
    that rank's local array (halo included, stripped by the gather).
    """
    import numpy as np
    from repro.ocean.model import STATE_FIELDS

    h = hashlib.sha256()
    for name in STATE_FIELDS:
        arr = np.ascontiguousarray(
            decomp.gather_global([s[name] for s in states]))
        h.update(f"{name}:{arr.dtype.str}:{arr.shape}".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def _snapshot(model) -> Dict[str, Any]:
    from repro.ocean.model import STATE_FIELDS

    return {f: getattr(model.state, f).cur.raw.copy() for f in STATE_FIELDS}


def _single_decomp(cfg):
    from repro.parallel.decomp import BlockDecomposition

    return BlockDecomposition(cfg.ny, cfg.nx, 1, 1)


def oracle(size: str, seed: int, precision: str, at_steps: Sequence[int],
           restarts: Optional[Mapping[int, str]] = None) -> Dict[str, Any]:
    """Digests of the eager, serial, 1-rank reference at ``at_steps``.

    ``restarts`` maps a step to a checkpoint path written at that step;
    each is loaded back into the reference model (timed), and must
    reproduce the reference digest of its step.
    """
    from repro.ocean import LICOMKpp, demo
    from repro.ocean.model import ModelParams
    from repro.ocean.restart import load_restart

    cfg = demo(size)
    params, _, _ = build_tolerant(ModelParams, graph=False,
                                  precision=precision)
    decomp = _single_decomp(cfg)
    model = LICOMKpp(cfg, backend="serial", params=params, seed=seed)
    digests: Dict[int, str] = {}
    loads: List[Dict[str, Any]] = []
    try:
        for step in sorted(at_steps):
            model.run_steps(step - model.nstep)
            digests[step] = state_digest([_snapshot(model)], decomp)
        for step, path in (restarts or {}).items():
            t0 = time.perf_counter()
            load_restart(model, path)
            ms = (time.perf_counter() - t0) * 1e3
            loads.append({"ms": ms, "ok": state_digest(
                [_snapshot(model)], decomp) == digests[step]})
    finally:
        model.close()
    return {"digests": digests, "loads": loads}


def _check(name: str, ok: bool, detail: str = "") -> Dict[str, Any]:
    return {"name": name, "ok": bool(ok), "detail": detail}


def _shm_entries() -> set:
    from repro.parallel.shm import SEGMENT_PREFIX

    try:
        return {e for e in os.listdir("/dev/shm")
                if e.startswith(SEGMENT_PREFIX)}
    except OSError:
        return set()


def leak_checks(shm_before: set) -> Tuple[List[Dict[str, Any]], int]:
    """Every workload ends clean: no open context, no stray segment.

    Returns the two checks and the number of leaked segments.
    """
    from repro.kokkos import ExecutionContext

    live = ExecutionContext.live_count()
    leaked = sorted(_shm_entries() - shm_before)
    return [
        _check("no_live_context", live == 0, f"{live} open"),
        _check("no_shm_leak", not leaked, ",".join(leaked)),
    ], len(leaked)


# ---------------------------------------------------------------------------
# stepping workloads (one body for 1 rank, thread ranks and process ranks)
# ---------------------------------------------------------------------------

def _counters(model) -> Dict[str, Any]:
    """The program's public counters, flattened for a before/after diff."""
    inst = model.context.inst
    ledger = model.context.traffic
    halo_msgs = halo_bytes = 0.0
    for phase, (count, nbytes) in ledger.by_phase.items():
        if phase.startswith("halo"):
            halo_msgs += count
            halo_bytes += nbytes
    # the athread space keeps its LDM staging ledger on the space itself
    dma = getattr(model.space, "dma", None)
    return {
        "kernels": {k: {"launches": v.launches, "flops": v.flops,
                        "bytes": v.bytes} for k, v in inst.kernels.items()},
        "launches": inst.total_launches,
        "tiles": sum(k.tiles for k in inst.kernels.values()),
        "dma_bytes": inst.transfers.dma_bytes
        + (dma.total_bytes if dma is not None else 0.0),
        "dma_count": inst.transfers.dma_count
        + (dma.total_count if dma is not None else 0),
        "ws_requests": inst.workspace.requests,
        "ws_allocations": inst.workspace.allocations,
        "halo_messages": halo_msgs,
        "halo_bytes": halo_bytes,
        "collectives": ledger.collectives,
    }


def _diff(after: Dict[str, Any], before: Dict[str, Any]) -> Dict[str, Any]:
    out: Dict[str, Any] = {}
    for key, val in after.items():
        if key == "kernels":
            out[key] = {
                lab: {f: st[f] - before[key].get(lab, {}).get(f, 0)
                      for f in st} for lab, st in val.items()}
        else:
            out[key] = val - before[key]
    return out


_TIERS = {"eager": 0.0, "codegen": 1.0, "njit": 2.0}


def _graph_stats(model) -> Optional[Dict[str, Any]]:
    """Stats of the steady-state sealed graph (the most replayed one)."""
    graphs = [g for scope in model.context.graph_cache.values()
              for g in scope.values() if getattr(g, "sealed", False)]
    if not graphs:
        return None
    g = max(graphs, key=lambda g: g.replays)
    stats = dict(g.stats())
    stats["tier"] = max((_TIERS.get(t, 0.0) for _, t in g.kernel_tiers()),
                        default=0.0)
    return stats


def _kernel_families() -> Dict[str, str]:
    from repro.ocean.precision import KERNEL_FAMILIES

    return dict(KERNEL_FAMILIES)


_COLLECTIVES = ("barrier", "allreduce", "reduce", "bcast", "allgather",
                "gather", "scatter", "alltoall")


def _instrument_model(log: SpanLog, model) -> None:
    """Wrap the calls into each layer on the instances this run built."""
    log.wrap(model, "step", "model", "bench")
    for attr in ("update2d", "update3d", "update_many"):
        log.wrap(model.halo, attr, "halo.update", "bench")
    comm = model.comm
    log.wrap(comm, "send", "comm.send", "bench")
    log.wrap(comm, "recv", "comm.recv", "bench")
    for attr in _COLLECTIVES:
        log.wrap(comm, attr, "comm.collective", "bench")


def dump_spans(spans: List[Span], path: str) -> None:
    with open(path, "w") as fh:
        for s in spans:
            fh.write(json.dumps(s.as_row()) + "\n")


def rank_aggregate(log: SpanLog, model, t_entry: float, t_start: float,
                   t_end: float, steps: int, counters: Dict[str, Any],
                   ) -> Dict[str, Any]:
    """One rank's traced measurements, small enough to ship home."""
    tracer = model.context.tracer
    log.add_tracer(tracer)
    families = _kernel_families()
    selfs = self_times(log.spans)
    secs, counts = bucket_times(log.spans, selfs, families, t_start, t_end)
    setup_secs, _ = bucket_times(log.spans, selfs, families, t_entry, t_start)
    captures = sum(1 for ev in tracer.instants
                   if ev.name == "graph_capture"
                   and t_start <= tracer.epoch + ev.ts <= t_end)
    wall = t_end - t_start
    return {
        "steps": steps,
        "wall": wall,
        "secs": secs,
        "counts": counts,
        "setup_ms": {k: v * 1e3 for k, v in setup_secs.items()},
        "budget_closed": budget_closed(secs, wall),
        "graph_captures": captures,
        "graph": _graph_stats(model),
        "families": family_counts(counters["kernels"], families),
        "counters": {k: v for k, v in counters.items() if k != "kernels"},
    }


def step_rank(comm, spec: Dict[str, Any]) -> Dict[str, Any]:
    """Per-rank body: build, warm up, step for ``seconds``, report.

    ``comm`` is ``None`` for the single-rank workloads (the model then
    builds its own 1x1 world, exactly as ``repro run`` does).
    """
    import numpy as np
    from repro.kokkos import ExecutionContext
    from repro.kokkos import jit as jit_module
    from repro.ocean import LICOMKpp, demo
    from repro.ocean.model import ModelParams, STATE_FIELDS

    traced = spec["traced"]
    rank = comm.rank if comm is not None else 0
    size = comm.size if comm is not None else 1
    wanted = dict(PRODUCTION) if spec["production"] else {}
    params, effective, dropped = build_tolerant(
        ModelParams, trace=traced, **wanted)
    out: Dict[str, Any] = {"rank": rank, "params": effective,
                           "dropped": dropped}
    log = SpanLog(run=rank)
    if traced:
        log.wrap(jit_module, "compile_sweep", "jit.compile", "bench")
    model = None
    try:
        model = LICOMKpp(demo(spec["size"]), backend=spec["backend"],
                         comm=comm, decomp=spec.get("decomp"),
                         params=params, seed=spec["seed"])
        if traced:
            _instrument_model(log, model)
        step = model.step
        for _ in range(WARMUP_STEPS):
            step()
        if size > 1:
            comm.barrier()
        before = _counters(model)
        t_start = out["t_start"] = time.perf_counter()
        if not spec["setup_only"]:
            times: List[tuple] = []
            snap = None
            own_collectives = 0
            while True:
                for _ in range(CHUNK):
                    a = time.perf_counter()
                    step()
                    times.append((a, time.perf_counter()))
                    if model.nstep == DIGEST_STEP:
                        snap = _snapshot(model)
                elapsed = time.perf_counter() - t_start
                if size > 1:
                    elapsed = comm.allreduce(elapsed, "max")
                    own_collectives += 1
                if elapsed >= spec["seconds"] \
                        or len(times) >= spec["max_steps"]:
                    break
            t_end = time.perf_counter()
            counters = _diff(_counters(model), before)
            counters["collectives"] -= own_collectives
            final = _snapshot(model)
            out.update({
                "t_end": t_end,
                "times": times,
                "snapshot": snap,
                "finite": all(bool(np.isfinite(final[f]).all())
                              for f in STATE_FIELDS),
            })
            if traced:
                out["agg"] = rank_aggregate(log, model, spec["t_entry"],
                                            t_start, t_end, len(times),
                                            counters)
                if spec.get("spans_path"):
                    dump_spans(log.spans, f"{spec['spans_path']}.r{rank}")
    finally:
        log.unwrap_all()
        if model is not None:
            model.close()
    if spec["mode"] == "process" and comm is not None:
        # a rank process audits itself; the worker audits everything else
        out["live_contexts"] = ExecutionContext.live_count()
        out["rss_mb"] = _rss_mb()
    return out


def run_step_workload(w: Workload, spec: Dict[str, Any]) -> Dict[str, Any]:
    """Worker-side driver of a stepping workload."""
    from repro.ocean import demo

    cfg = demo(w.size)
    spec = dict(spec, size=w.size, backend=w.backend, mode=w.mode,
                production=w.production)
    shm_before = _shm_entries()
    procworld: Dict[str, Optional[float]] = {}
    if w.ranks == 1:
        decomp = _single_decomp(cfg)
        results = [step_rank(None, spec)]
    else:
        from repro.parallel.comm import SimWorld
        from repro.parallel.decomp import (BlockDecomposition,
                                           choose_process_grid)

        npy, npx = choose_process_grid(cfg.ny, cfg.nx, w.ranks)
        decomp = BlockDecomposition(cfg.ny, cfg.nx, npy, npx)
        world = SimWorld(w.ranks, mode=w.mode)
        t_launch = time.perf_counter()
        results = world.launch(step_rank, args=(dict(spec, decomp=decomp),))
        t_back = time.perf_counter()
        if w.mode == "process" and not spec["setup_only"]:
            procworld = {
                "procworld.spawn_ms":
                    (min(r["t_start"] for r in results) - t_launch) * 1e3,
                "procworld.teardown_ms":
                    (t_back - max(r["t_end"] for r in results)) * 1e3,
            }
    t_ready = max(r["t_start"] for r in results)
    out: Dict[str, Any] = {
        "setup_s": t_ready - spec["t_entry"],
        "params": results[0]["params"],
        "dropped": results[0]["dropped"],
    }
    if spec["setup_only"]:
        return out

    n = min(len(r["times"]) for r in results)
    step_ms = [max(r["times"][i][1] - r["times"][i][0] for r in results) * 1e3
               for i in range(n)]
    wall = max(r["t_end"] for r in results) - min(r["t_start"] for r in results)
    child_rss = max((r.get("rss_mb", 0.0) for r in results), default=0.0)
    out.update({
        "steps": n,
        "wall_s": wall,
        "steps_per_s": n / wall,
        "step_ms_p50": median(step_ms),
        "step_samples": n,
        "peak_rss_mb": _rss_mb() + child_rss,
        "attempted": n,
        "failed": 0,
    })

    # -- output checks (after the RSS reading: the oracle is ours) ---------
    checks = [_check("finite_state", all(r["finite"] for r in results))]
    if all(r["snapshot"] is not None for r in results):
        digest = state_digest([r["snapshot"] for r in results], decomp)
        ref = oracle(w.size, spec["seed"], "double", [DIGEST_STEP])
        checks.append(_check(
            "digest_step16_vs_oracle",
            digest == ref["digests"][DIGEST_STEP], digest))
        out["digest"] = digest
    else:
        checks.append(_check("digest_step16_vs_oracle", False,
                             f"run ended before step {DIGEST_STEP}"))
    live_children = sum(r.get("live_contexts", 0) for r in results)
    checks.append(_check("no_live_context_in_ranks", live_children == 0,
                         f"{live_children} open"))
    leaks, n_leaked = leak_checks(shm_before)
    out["checks"] = checks + leaks

    if spec["traced"]:
        out["layer"] = stepping_metrics([r["agg"] for r in results], step_ms)
        if w.mode == "process":
            out["layer"].update(
                procworld, **{"procworld.shm_segments_leaked": float(n_leaked)})
    return out


# ---------------------------------------------------------------------------
# the serving workload
# ---------------------------------------------------------------------------

class _ServeTrace:
    """Wrappers for the serving layer's entry points (traced run only)."""

    def __init__(self, log: SpanLog) -> None:
        self.log = log
        self._seen: set = set()
        self._lock = threading.Lock()
        self.restart_bytes: List[int] = []

    def patch_modules(self) -> None:
        """Entry points that are plain functions or classes are wrapped
        in the namespace the scheduler resolves them in."""
        from repro.kokkos import jit as jit_module
        from repro.serve import probes, scheduler

        log = self.log
        log.wrap(jit_module, "compile_sweep", "jit.compile", "bench")
        log.wrap(scheduler, "quote_job", "perfmodel.quote", "bench")
        log.wrap(scheduler, "load_restart", "restart.load", "bench")
        log.wrap(scheduler, "save_restart", "restart.save", "bench",
                 after=self._saved)
        log.wrap(probes.ProbeStream, "sample", "probes.sample", "bench")

    def _saved(self, path, *args, **kwargs) -> None:
        try:
            self.restart_bytes.append(os.path.getsize(path))
        except OSError:
            pass

    def instrument(self, sched) -> None:
        self.log.wrap(sched, "submit", "serve.submit", "bench")
        acquire = sched.cache.acquire
        log = self.log

        def traced_acquire(spec):
            t0 = time.perf_counter()
            engine = acquire(spec)
            t1 = time.perf_counter()
            with self._lock:
                first = id(engine) not in self._seen
                self._seen.add(id(engine))
            log.record("share.build" if first else "share.hit", "bench",
                       t0, t1)
            if first:
                self._instrument_engine(engine)
            return engine

        sched.cache.acquire = traced_acquire

    def _instrument_engine(self, engine) -> None:
        from contextlib import contextmanager

        log = self.log
        model = engine.model
        model.context.enable_tracing()
        _instrument_model(log, model)
        log.wrap(model, "reset", "share.reset", "bench")
        lease = engine.lease

        @contextmanager
        def traced_lease(job_name):
            with lease(job_name) as leased:
                try:
                    yield leased
                finally:
                    # the next lease clears the timeline: keep this job's
                    log.add_tracer(leased.context.tracer)

        engine.lease = traced_lease


def run_serve_workload(w: Workload, spec: Dict[str, Any]) -> Dict[str, Any]:
    """Closed loop of seeded jobs against ``ServeScheduler``."""
    import numpy as np
    from repro.serve import JobSpec, JobStatus, ServeScheduler

    traced = spec["traced"]
    seed = spec["seed"]
    shm_before = _shm_entries()
    log = SpanLog(run="serve")
    trace = _ServeTrace(log) if traced else None
    if trace:
        trace.patch_modules()
    sched = ServeScheduler(workers=SERVE_WORKERS,
                           artifacts=os.path.join(spec["workdir"], "jobs"))
    try:
        if trace:
            trace.instrument(sched)
        t_start = time.perf_counter()
        out: Dict[str, Any] = {"setup_s": t_start - spec["t_entry"]}
        if spec["setup_only"]:
            return out

        records: List[Dict[str, Any]] = []   # one per submitted job
        flight: List[Dict[str, Any]] = []
        index = 0
        finished = 0
        rss = None
        effective: Dict[str, Any] = {}
        dropped: List[str] = []
        while True:
            now = time.perf_counter()
            open_for_more = (now - t_start < spec["seconds"]
                             and index < spec["max_jobs"])
            while open_for_more and len(flight) < SERVE_OUTSTANDING:
                jobspec, effective, dropped = build_tolerant(
                    JobSpec, **serve_job(seed, index))
                rec = {"spec": jobspec, "t_submit": time.perf_counter()}
                rec["job"] = sched.submit(jobspec)
                records.append(rec)
                flight.append(rec)
                index += 1
            if not flight:
                break
            flight[0]["job"].wait(0.001)
            now = time.perf_counter()
            for rec in [r for r in flight if r["job"].finished]:
                rec["t_done"] = now
                flight.remove(rec)
                finished += 1
                if finished == SERVE_RSS_AT_JOBS:
                    rss = _rss_mb()
        t_end = max(r["t_done"] for r in records)
        wall = t_end - t_start
        if rss is None:
            rss = _rss_mb()

        done = [r for r in records if r["job"].status is JobStatus.DONE]
        job_ms = [(r["t_done"] - r["t_submit"]) * 1e3 for r in done]
        steps = sum(r["spec"].steps for r in done)
        cache = sched.cache.stats()
    finally:
        report = sched.shutdown()
        log.unwrap_all()

    out.update({
        "params": effective,
        "dropped": dropped,
        "steps": steps,
        "jobs": len(records),
        "wall_s": wall,
        "steps_per_s": steps / wall,
        "step_ms_p50": median([ms / r["spec"].steps
                               for ms, r in zip(job_ms, done)]),
        "step_samples": len(done),
        "jobs_per_s": len(done) / wall,
        "job_ms_p50": median(job_ms),
        "peak_rss_mb": rss,
        "attempted": len(records),
        "failed": len(records) - len(done),
    })

    # -- output checks ------------------------------------------------------
    from repro.ocean import demo

    decomp = _single_decomp(demo(w.size))
    checks = [_check("all_jobs_done", len(done) == len(records),
                     "; ".join(f"{r['spec'].name}: {r['job'].error}"
                               for r in records if r not in done))]
    firsts: Dict[tuple, Dict[str, Any]] = {}
    for r in done:
        s = r["spec"]
        firsts.setdefault((s.backend, s.precision, s.seed), r)
    by_oracle: Dict[tuple, List[Dict[str, Any]]] = {}
    for r in firsts.values():
        by_oracle.setdefault((r["spec"].precision, r["spec"].seed),
                             []).append(r)
    load_ms: List[float] = []
    finite = True
    for (precision, model_seed), recs in sorted(by_oracle.items()):
        restarts = {r["spec"].steps: str(r["job"].artifacts / "checkpoint.npz")
                    for r in recs}
        ref = oracle(w.size, model_seed, precision,
                     sorted({r["spec"].steps for r in recs}), restarts)
        for r in recs:
            state = r["job"].result["state"]
            finite &= all(bool(np.isfinite(a).all()) for a in state.values())
            digest = state_digest([state], decomp)
            checks.append(_check(
                f"solo_digest_{r['spec'].backend}_{precision}_{model_seed}",
                digest == ref["digests"][r["spec"].steps], digest))
        load_ms += [ld["ms"] for ld in ref["loads"]]
        checks.append(_check(f"restart_roundtrip_{precision}_{model_seed}",
                             all(ld["ok"] for ld in ref["loads"])))
    checks.append(_check("finite_state", finite))
    checks.append(_check("no_swept_worlds", not report["swept"],
                         ",".join(report["swept"])))
    out["checks"] = checks + leak_checks(shm_before)[0]

    if traced:
        out["layer"] = _serve_metrics(log, trace, records, done, job_ms,
                                      steps, t_start, t_end, cache, load_ms)
        if spec.get("spans_path"):
            dump_spans(log.spans, f"{spec['spans_path']}.serve")
    return out


def _serve_metrics(log: SpanLog, trace: _ServeTrace, records, done, job_ms,
                   steps: int, t_start: float, t_end: float,
                   cache: Mapping[str, Any], load_ms: List[float],
                   ) -> Dict[str, Optional[float]]:
    spans = log.spans
    secs, counts = bucket_times(spans, self_times(spans), _kernel_families(),
                                t_start, t_end)
    wall = t_end - t_start
    ms = durations_ms(spans)
    m = time_metrics(secs, counts, steps)

    step_ms = ms.get("model", [])
    m["model.step_ms_p95"] = percentile(step_ms, 95)
    m["model.graph_captures"] = float(counts.get("graph.seal", 0))
    # two workers share the wall; a closed loop keeps both busy
    m["model.budget_closed_frac"] = budget_closed(secs, wall * SERVE_WORKERS)
    for fam in FAMILIES + ("cast",):
        m[f"kernels.{fam}.launches_per_step"] = per_step(
            counts.get(f"kernels.{fam}", 0), steps)
    # per engine built (each seals its start-up and its steady graph)
    built = counts.get("share.build", 0)
    m["graph.seal_ms"] = per_step(secs.get("graph.seal"), built, 1e3)
    m["jit.compile_ms"] = per_step(secs.get("jit.compile"), built, 1e3)

    save_ms = ms.get("restart.save", [])
    m["restart.save_ms_p50"] = median(save_ms)
    m["restart.load_ms_p50"] = median(load_ms)
    m["restart.bytes"] = median(trace.restart_bytes)
    if save_ms and trace.restart_bytes:
        m["restart.save_mb_per_s"] = (
            sum(trace.restart_bytes) / 2 ** 20) / (sum(save_ms) / 1e3)

    m["serve.submit_ms_p50"] = median(ms.get("serve.submit", []))
    m["serve.job_ms_p75"] = percentile(job_ms, 75)
    m["serve.jobs_per_s"] = len(done) / wall
    m["serve.job_ms_p50"] = median(job_ms)
    m["serve.overhead_frac"] = (1.0 - sum(step_ms) / sum(job_ms)
                                if job_ms else None)
    m["share.hits"] = float(cache["hits"])
    m["share.misses"] = float(cache["misses"])
    m["share.build_ms_p50"] = median(ms.get("share.build", []))
    m["share.lease_reset_ms_p50"] = median(ms.get("share.reset", []))
    m["probes.sample_ms_p50"] = median(ms.get("probes.sample", []))
    m["probes.rows"] = float(sum(r["job"].result.get("probe_rows", 0)
                                 for r in done))
    m["perfmodel.quote_ms_p50"] = median(ms.get("perfmodel.quote", []))
    m["perfmodel.quote_ratio_p50"] = median(
        [j / 1e3 / r["job"].quote.eta_seconds
         for j, r in zip(job_ms, done) if r["job"].quote is not None])
    return m
