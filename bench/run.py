#!/usr/bin/env python3
"""The benchmark's one command.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py [--workload NAME] [--seed N] [--runs K]
                         [--traced] [--out FILE] [--smoke]

The first form is what the benchmark driver calls: one workload, one
run, and a last line of standard output holding exactly ``correct``,
``attempted``, ``failed`` and ``metrics`` — the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The second
form runs a *set*: every workload (or one), ``K`` runs each on seeds
``N .. N+K-1``, medians printed by name and the whole set written to
``FILE`` for ``bench/compare.py``.

Each run executes in fresh worker processes with numpy's thread pools
pinned to 1.  An untraced run sets up ``SETUPS`` times (``setup_s`` is
the median) and measures once; a traced run measures the same inputs
twice — tracing off, then on — and the difference between the two is
the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys
from typing import Any, Dict, List, Optional

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from bench import host, spec as benchspec  # noqa: E402
from bench.stats import median, quartile_spread  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: One worker must end well inside the driver's 180 s per-run limit.
WORKER_TIMEOUT = 170.0
#: ``--smoke``: at most 20 timed steps or 4 jobs, one set-up.
SMOKE = {"seconds": 60.0, "max_steps": 20, "max_jobs": 4}
WORK = ROOT / ".bench_work"


class WorkerFailed(RuntimeError):
    pass


def worker_env() -> Dict[str, str]:
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    for key in host.PINNED_ENV:
        env[key] = "1"
    return env


def run_worker(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Run one worker process and return its JSON result."""
    proc = subprocess.run(
        [sys.executable, "-m", "bench.worker", json.dumps(spec)],
        cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True,
        timeout=WORKER_TIMEOUT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(
            f"worker for {spec['workload']} exited {proc.returncode}")
    return json.loads(lines[-1])


def measure(name: str, seed: int, seconds: float, traced: bool,
            smoke: bool, workdir: pathlib.Path,
            spans_path: Optional[str] = None) -> Dict[str, Any]:
    """One run of one workload -> a run record."""
    w = WORKLOADS[name]
    record: Dict[str, Any] = {"workload": name, "seed": seed,
                              "seconds": seconds, "traced": traced}
    cores = host.nproc()
    if cores < w.min_cores:
        record.update(status="skipped",
                      reason=f"needs {w.min_cores} cores, host has {cores}")
        return record
    base = {"workload": name, "seed": seed, "seconds": seconds,
            "traced": False, "setup_only": False,
            "max_steps": SMOKE["max_steps"] if smoke else 10 ** 9,
            "max_jobs": SMOKE["max_jobs"] if smoke else 10 ** 9}

    def go(tag: str, **over: Any) -> Dict[str, Any]:
        sub = workdir / f"{name}-{seed}-{tag}"
        sub.mkdir(parents=True, exist_ok=True)
        return run_worker(dict(base, workdir=str(sub), **over))

    if traced:
        ref = go("ref")
        main = go("traced", traced=True, spans_path=spans_path)
        layer = main["layer"]
        layer["trace.overhead_frac"] = \
            main["step_ms_p50"] / ref["step_ms_p50"] - 1.0
        record["metrics"] = layer
        parts = [ref, main]
    else:
        setups = [go(f"setup{i}", setup_only=True)["setup_s"]
                  for i in range(0 if smoke else SETUPS - 1)]
        main = go("main")
        setups.append(main["setup_s"])
        record["metrics"] = {
            "steps_per_s": main["steps_per_s"],
            "step_ms_p50": main["step_ms_p50"],
            "peak_rss_mb": main["peak_rss_mb"],
            "setup_s": median(setups),
        }
        record["setup_samples"] = setups
        parts = [main]
    checks = [dict(c, part="ref" if p is not main else "main")
              for p in parts for c in p["checks"]]
    record.update(
        status="ok",
        attempted=sum(p["attempted"] for p in parts) + len(checks),
        failed=sum(p["failed"] for p in parts)
        + sum(1 for c in checks if not c["ok"]),
        checks=checks,
        steps=main["steps"],
        step_samples=main["step_samples"],
        wall_s=main["wall_s"],
        digest=main.get("digest"),
        params=main["params"],
        dropped=main["dropped"],
        extra={k: main[k] for k in ("jobs", "jobs_per_s", "job_ms_p50")
               if k in main},
    )
    return record


def result_line(record: Dict[str, Any], bench: Dict[str, Any]) -> Dict[str, Any]:
    """The contract's last line.  A layer metric this run could not
    produce is ``null`` in the set file and ``0`` here, because the
    driver reads every value as a number."""
    metrics = {}
    for m in benchspec.metrics(bench, record["traced"]):
        value = record["metrics"].get(m["name"])
        metrics[m["name"]] = {"value": 0.0 if value is None else value,
                              "unit": m["unit"]}
    return {"correct": record["failed"] == 0,
            "attempted": int(record["attempted"]),
            "failed": int(record["failed"]),
            "metrics": metrics}


def null_reason(name: str) -> str:
    if name.rsplit("_", 1)[-1] in ("p75", "p95"):
        return ("layer not exercised, or fewer than 10 samples beyond "
                "the percentile")
    return "layer not exercised by this workload"


def print_record(record: Dict[str, Any], bench: Dict[str, Any]) -> None:
    head = f"[{record['workload']} seed={record['seed']}"
    head += " traced]" if record["traced"] else "]"
    if record["status"] == "skipped":
        print(f"{head} skipped: {record['reason']}")
        return
    print(f"{head} {record['steps']} steps in {record['wall_s']:.2f} s "
          f"(percentiles over n={record['step_samples']}); "
          f"{record['failed']} of {record['attempted']} operations and "
          f"checks failed")
    for m in benchspec.metrics(bench, record["traced"]):
        value = record["metrics"].get(m["name"])
        if value is None:
            print(f"  {m['name']} = null  ({null_reason(m['name'])})")
        else:
            print(f"  {m['name']} = {value:.6g} {m['unit']}")
    for key, value in record["extra"].items():
        print(f"  ({key} = {value:.6g})")
    for c in record["checks"]:
        if not c["ok"]:
            print(f"  CHECK FAILED [{c['part']}] {c['name']}: {c['detail']}")
    if record["dropped"]:
        print(f"  knobs no longer present, dropped: {record['dropped']}")


def summarise(records: List[Dict[str, Any]], bench: Dict[str, Any],
              traced: bool) -> Dict[str, Any]:
    """Per workload and metric: the values of every run and their median."""
    out: Dict[str, Any] = {}
    for rec in records:
        if rec["status"] != "ok":
            out.setdefault(rec["workload"], {"status": rec["status"],
                                             "reason": rec.get("reason")})
            continue
        slot = out.setdefault(rec["workload"], {"status": "ok", "metrics": {}})
        for m in benchspec.metrics(bench, traced):
            entry = slot["metrics"].setdefault(
                m["name"], {"unit": m["unit"], "values": []})
            entry["values"].append(rec["metrics"].get(m["name"]))
    for slot in out.values():
        for entry in slot.get("metrics", {}).values():
            values = [v for v in entry["values"] if v is not None]
            entry["median"] = median(values)
            entry["quartile_spread"] = quartile_spread(values)
    return out


def print_summary(summary: Dict[str, Any]) -> None:
    """A set's medians, with the run-to-run spread beside each."""
    for name, slot in summary.items():
        if slot["status"] != "ok":
            print(f"{name}: {slot['status']} ({slot['reason']})")
            continue
        print(f"{name}:")
        for metric, e in slot["metrics"].items():
            if e["median"] is None:
                print(f"  {metric} = null")
                continue
            spread = e["quartile_spread"]
            tail = "" if spread is None else \
                f", quartile spread {spread:.1%} of it"
            n = sum(v is not None for v in e["values"])
            print(f"  {metric} = {e['median']:.6g} {e['unit']} "
                  f"(median of {n}{tail})")


def cross_checks(records: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Thread ranks and process ranks must agree with each other."""
    by = {(r["workload"], r["seed"]): r.get("digest") for r in records
          if r["status"] == "ok"}
    out = []
    for (name, seed), digest in sorted(by.items()):
        peer = by.get(("ranks2-process-small", seed))
        if name == "ranks2-thread-small" and digest and peer:
            out.append({"name": "thread_vs_process_digest", "seed": seed,
                        "ok": digest == peer})
    return out


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS),
                    help="one workload (default: all five)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="timed region (default: run_seconds of "
                         "BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--traced", action="store_true",
                    help="same as --trace 1")
    ap.add_argument("--runs", type=int, default=1,
                    help="runs per workload, on seeds N..N+K-1")
    ap.add_argument("--out", type=pathlib.Path, help="write the set here")
    ap.add_argument("--spans", type=pathlib.Path,
                    help="traced run: also write the raw spans here "
                         "(one .rN/.serve file per rank)")
    ap.add_argument("--smoke", action="store_true",
                    help="seconds-long pass over the code paths: at most "
                         "20 timed steps or 4 jobs, one set-up")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print("bench: the program's sources (src/repro) are not here",
              file=sys.stderr)
        return 2
    bench = benchspec.load()
    problems = benchspec.validate_spec(bench)
    if problems:
        print("bench: BENCHMARK.json: " + "; ".join(problems), file=sys.stderr)
        return 2
    traced = bool(args.trace or args.traced)
    seconds = args.seconds if args.seconds is not None else (
        SMOKE["seconds"] if args.smoke else float(bench["run_seconds"]))
    names = [args.workload] if args.workload else \
        [w["name"] for w in bench["workloads"]]
    single = len(names) == 1 and args.runs == 1

    workdir = WORK / str(os.getpid())
    records: List[Dict[str, Any]] = []
    try:
        # run k of every workload before run k+1 of any: a host whose
        # speed drifts over minutes then spreads over all workloads alike
        for k in range(args.runs):
            for name in names:
                rec = measure(name, args.seed + k, seconds, traced,
                              args.smoke, workdir,
                              str(args.spans) if args.spans else None)
                print_record(rec, bench)
                records.append(rec)
    except (WorkerFailed, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    crosses = cross_checks(records)
    for c in crosses:
        if not c["ok"]:
            print(f"CHECK FAILED {c['name']} seed={c['seed']}")
    summary = summarise(records, bench, traced)
    if not single:
        print_summary(summary)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({
            "schema": 1,
            "host": host.fingerprint(),
            "run_seconds": seconds,
            "traced": traced,
            "smoke": args.smoke,
            "summary": summary,
            "cross_checks": crosses,
            "runs": records,
        }, indent=1) + "\n")
        print(f"wrote {args.out}")

    ok = [r for r in records if r["status"] == "ok"]
    if single:
        if not ok:
            return 3   # skipped: neither passed nor failed, so no result
        line = result_line(ok[0], bench)
        problems = benchspec.validate_result(line, bench, traced)
        if problems:
            print("bench: malformed result: " + "; ".join(problems),
                  file=sys.stderr)
            return 1
        print(json.dumps(line))
        return 0
    failed = sum(r["failed"] for r in ok) + sum(1 for c in crosses
                                                if not c["ok"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in ok) + len(crosses),
        "failed": failed,
        "metrics": {name: slot.get("metrics", {})
                    for name, slot in summary.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
