"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``run``
    Integrate the model: ``python -m repro run --size small --days 5
    --backend athread [--precision single] [--restart-out file.npz]``.
``experiments``
    Regenerate a paper artifact: ``python -m repro experiments fig7``
    (any of table1..table5, fig1, fig2, fig6, fig7, fig8, fig9,
    ablations, validation, all).
``info``
    Print the machine registry and the paper configurations.
``lint``
    Verify every registered kernel (kernelcheck) against its observed
    sweeps under the lint matrix:
    ``python -m repro lint [--format json] [--baseline file]``; with
    ``--graph``, whole-schedule verification of the matrix's sealed
    launch graphs (graphcheck).  The exit
    code fails on error findings only; ``--strict`` fails on warnings.
``trace``
    Step a small model with span tracing on and export a Chrome
    trace-event JSON timeline (open in Perfetto / ``chrome://tracing``):
    ``python -m repro trace --size tiny --steps 2 --ranks 2 --out
    trace.json [--predict new_sunway]``.
``precision``
    Validate a precision policy against the fp64 reference under the
    declared per-field/energy/mass budgets, then print the perfmodel's
    per-family throughput projection: ``python -m repro precision
    [--policy mixed] [--steps 16] [--backend serial]``.  Exits 1 when
    the divergence exceeds a budget.
``serve``
    Ensemble serving: admit jobs from a jobspec file (priced on
    admission with the machine model, engine-shared by configuration
    signature, checkpointed atomically): ``python -m repro serve
    --jobs jobs.json [--workers 4] [--budget 10]``; ``--demo`` runs
    the built-in shared-pair + kill-and-resume smoke.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional


def _cmd_run(args: argparse.Namespace) -> int:
    import numpy as np

    from .ocean import LICOMKpp, ModelParams, demo, rossby_stats, sst_stats
    from .ocean.restart import load_restart, save_restart

    cfg = demo(args.size, full_depth=args.full_depth)
    params = ModelParams(precision=args.precision)
    model = LICOMKpp(cfg, backend=args.backend, params=params)
    try:
        if args.restart_in:
            load_restart(model, args.restart_in)
            print(f"restarted from {args.restart_in} at step {model.nstep}")
        print(f"running {cfg.name} ({cfg.nx}x{cfg.ny}x{cfg.nz}) on "
              f"{args.backend} for {args.days} days...")
        model.run_days(args.days)
        s = sst_stats(model)
        ro = rossby_stats(model)
        print(f"day {model.time_seconds / 86400:.1f}: "
              f"SST {s.min:.2f}..{s.max:.2f} C "
              f"(gradient {s.meridional_gradient:.1f}), "
              f"KE {model.kinetic_energy():.3e}, rms|Ro| {ro.rms:.2e}")
        if args.timers:
            print(model.timers.report())
        if args.restart_out:
            path = save_restart(model, args.restart_out)
            print(f"restart written to {path}")
    finally:
        # a failed run (bad restart file, NaN blow-up) must not leak
        # the context's arenas and graph plans
        model.close()
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    from .experiments import ablations, performance, science, tables

    producers = {
        "table1": tables.format_table1,
        "table2": tables.format_table2,
        "table3": tables.format_table3,
        "table4": tables.format_table4,
        "table5": performance.format_table5,
        "fig2": performance.format_fig2,
        "fig7": performance.format_fig7,
        "fig8": performance.format_table5,
        "fig9": performance.format_fig9,
        "ablations": lambda: "\n\n".join([
            ablations.format_loadbalance(ablations.loadbalance_study("tiny", (4, 16))),
            ablations.format_halo_ablation(),
            ablations.format_registry_ablation(),
            ablations.format_graph_ablation(),
            performance.format_optimizations(),
        ]),
        "fig1": lambda: science.format_fig1(science.run_fig1("tiny", days=2.0)),
        "fig6": lambda: science.format_fig6(
            science.run_fig6(sizes=("tiny", "small"), days=3.0)),
    }

    def validation() -> str:
        from .perfmodel.calibration import validation_report

        return validation_report()

    def breakdown() -> str:
        from .ocean.config import PAPER_CONFIGS
        from .perfmodel import format_breakdown_table

        return format_breakdown_table(
            PAPER_CONFIGS["km_1km"],
            [("orise", 16000), ("new_sunway", 590250)])

    def schedule() -> str:
        from .ocean.config import PAPER_CONFIGS
        from .perfmodel import format_schedule

        return format_schedule(
            PAPER_CONFIGS["km_1km"],
            {"orise": 16000, "new_sunway": 590250, "gpu_workstation": 64},
            1.0)

    producers["validation"] = validation
    producers["breakdown"] = breakdown
    producers["schedule"] = schedule

    if args.which == "all":
        for name, fn in producers.items():
            print(f"\n===== {name} =====")
            print(fn())
        return 0
    if args.which not in producers:
        print(f"unknown artifact {args.which!r}; choose from "
              f"{sorted(producers) + ['all']}", file=sys.stderr)
        return 2
    print(producers[args.which]())
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from .analysis import Baseline, run_kernelcheck

    baseline = None
    if args.baseline:
        try:
            baseline = Baseline.load(args.baseline)
        except OSError as exc:
            print(f"cannot read baseline {args.baseline!r}: {exc}",
                  file=sys.stderr)
            return 2
    if args.graph:
        # whole-schedule verification: walk each sealed launch graph of
        # the lint matrix (the production-path demo model, every backend)
        from .analysis import run_graphcheck

        report = run_graphcheck()
        if baseline is not None:
            baseline.apply(report.findings)
    else:
        report = run_kernelcheck(baseline)
    if args.write_baseline:
        Baseline().save(args.write_baseline, report.unsuppressed)
        print(f"baseline with {len(report.unsuppressed)} entries written "
              f"to {args.write_baseline}")
        return 0
    # the exit gate fails on errors only; --strict restores the historic
    # warnings-fail behaviour (optimization findings never gate)
    gate = report.failures if args.strict else report.errors
    out = (report.to_json() if args.format == "json"
           else report.to_text(verbose=args.verbose)
           + ("\nOK" if not gate else ""))
    if args.output:
        from pathlib import Path

        Path(args.output).write_text(out + "\n")
    else:
        print(out)
    return 0 if not gate else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    from .ocean import LICOMKpp, ModelParams, demo
    from .trace import (
        chrome_trace,
        validate_chrome_trace,
        write_chrome_trace,
        write_predicted_timeline,
    )

    cfg = demo(args.size)
    params = ModelParams(trace=True, graph=args.graph)
    tracers = []
    if args.ranks <= 1:
        model = LICOMKpp(cfg, backend=args.backend, params=params)
        try:
            model.run_steps(args.steps)
            tracers.append(model.context.tracer)
            if args.graph:
                _report_jit_coverage(model)
        finally:
            model.close()
    else:
        # multi-rank: thread mode runs ranks in-process, process mode
        # spawns one OS process per rank (shared-memory halo traffic)
        # and ships each rank's tracer home in its exit report
        from .ocean.model import run_distributed

        results, _world = run_distributed(
            cfg, args.ranks, args.steps, backend=args.backend,
            params=params, mode=args.mode)
        tracers = [r.tracer for r in results]

    trace = chrome_trace(tracers)
    problems = validate_chrome_trace(trace)
    if problems:
        for p in problems[:20]:
            print(f"schema error: {p}", file=sys.stderr)
        return 1
    path = write_chrome_trace(args.out, tracers)
    nspans = sum(len(t.closed_spans()) for t in tracers)
    ninst = sum(len(t.instants) for t in tracers)
    print(f"{path}: {len(trace['traceEvents'])} events "
          f"({nspans} spans, {ninst} instants, {len(tracers)} rank lane(s)) "
          f"— open at https://ui.perfetto.dev")
    if args.predict:
        pout = args.predict_out or str(path).replace(
            ".json", f".predicted-{args.predict}.json")
        ppath = write_predicted_timeline(pout, tracers, args.predict)
        print(f"{ppath}: predicted timeline for {args.predict}")
    return 0


def _report_jit_coverage(model) -> None:
    """Shape of each sealed step graph (the satellite of `trace --graph`)."""
    sealed = {key: g for key, g in model._graphs.items() if g.sealed}
    if not sealed:
        print("no sealed graph: the model recorded no launch graph "
              "(graph capture off, or no step has run)")
        return
    from .kokkos.graph import ExchangeNode, RotateNode

    for (startup, canuto), graph in sorted(sealed.items()):
        variant = ("startup" if startup else "steady") + \
            ("+canuto" if canuto else "")
        exchanges = sum(isinstance(n, ExchangeNode) for n in graph.nodes)
        rotates = sum(isinstance(n, RotateNode) for n in graph.nodes)
        print(f"graph[{variant}]: {graph.launches_per_replay} launches per "
              f"replay ({graph.captured_launches} captured, "
              f"{graph.fused_groups} fused groups), {exchanges} exchanges "
              f"+ {rotates} rotate")
    # one space seals every variant, so the graphs share one tier
    tiers = {tier for g in sealed.values() for _, tier in g.kernel_tiers()}
    print(f"tier: {', '.join(sorted(tiers))}")


def _cmd_precision(args: argparse.Namespace) -> int:
    from .ocean.validate_precision import validate_policy

    report = validate_policy(args.policy, size=args.size, steps=args.steps,
                             backend=args.backend)
    print(report.format())
    if args.project:
        from .ocean.config import PAPER_CONFIGS
        from .perfmodel import policy_projection

        print()
        for machine, units in (("orise", 16000), ("new_sunway", 590250)):
            d, p, sp = policy_projection(
                PAPER_CONFIGS["km_1km"], machine, units, args.policy)
            _, _, bound = policy_projection(
                PAPER_CONFIGS["km_1km"], machine, units, "single")
            print(f"{machine}: fp64 {d:.3f} SYPD -> {args.policy} "
                  f"{p:.3f} SYPD ({sp:.2f}x; uniform fp32 bound "
                  f"{bound:.2f}x)")
    return 0 if report.ok else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serve import ServeScheduler, load_jobspecs

    if not args.demo and not args.jobs:
        print("serve: pass --jobs FILE or --demo", file=sys.stderr)
        return 2
    sched = ServeScheduler(workers=args.workers, budget=args.budget,
                           artifacts=args.artifacts)
    try:
        if args.demo:
            return _serve_demo(sched)
        specs = load_jobspecs(args.jobs)
        jobs = sched.submit_many(specs)
        sched.wait_all()
        failed = 0
        for job in jobs:
            line = f"[{job.status.value:>8s}] {job.spec.name}"
            if job.quote is not None:
                line += (f"  eta {job.quote.eta_seconds:.3g}s on "
                         f"{job.quote.machine} "
                         f"(cost {job.quote.cost_unit_seconds:.3g} unit-s)")
            if job.error:
                line += f"  -- {job.error}"
            if job.status.value in ("failed", "rejected"):
                failed += 1
            print(line)
        cache = sched.cache.stats()
        print(f"engines {cache['engines']}, cache hits {cache['hits']}, "
              f"misses {cache['misses']}; artifacts in {sched.artifacts}")
        return 1 if failed else 0
    finally:
        sched.shutdown()


def _serve_demo(sched) -> int:
    """The two-part serving smoke CI runs on the tiny config.

    Part 1: a shared-signature pair — two identical jobs must lease one
    engine (>= 1 cache hit) and produce bitwise-identical states.
    Part 2: kill-and-resume — a job checkpointed mid-run and resumed
    must finish bitwise identical to the uninterrupted run.
    """
    import numpy as np

    from .ocean.model import STATE_FIELDS
    from .serve import JobSpec

    failures = []

    def check(cond: bool, what: str) -> None:
        print(("ok   " if cond else "FAIL ") + what)
        if not cond:
            failures.append(what)

    def bitwise(a, b) -> bool:
        return all(np.array_equal(a["state"][f], b["state"][f])
                   for f in STATE_FIELDS)

    pair0 = sched.submit(JobSpec(name="pair0", steps=4))
    pair1 = sched.submit(JobSpec(name="pair1", steps=4))
    solo = sched.submit(JobSpec(name="solo", steps=4))
    sched.wait_all(300)
    done = all(j.status.value == "done" for j in (pair0, pair1, solo))
    check(done, "pair + solo jobs completed")
    if not done:
        for j in (pair0, pair1, solo):
            if j.error:
                print(f"  {j.spec.name}: {j.error}", file=sys.stderr)
        sched.shutdown()
        return 1
    for j in (pair0, pair1, solo):
        print(f"  {j.spec.name}: eta {j.quote.eta_seconds:.3g}s "
              f"on {j.quote.machine}")
    cache = sched.cache.stats()
    check(cache["hits"] >= 1,
          f"shared-signature cache hit (hits={cache['hits']}, "
          f"misses={cache['misses']})")
    check(bitwise(pair0.result, pair1.result),
          "pair results bitwise identical")
    check(bitwise(pair0.result, solo.result),
          "shared-engine result bitwise identical to solo")

    first = sched.submit(JobSpec(name="resume", steps=2, checkpoint_every=1))
    first.wait(300)
    check(first.status.value == "done",
          "interrupted leg completed with checkpoints")
    second = sched.submit(JobSpec(name="resume", steps=4, checkpoint_every=1,
                                  resume=True))
    second.wait(300)
    check(second.status.value == "done"
          and second.result["resumed_from"] == 2,
          "resumed from step-2 checkpoint")
    if second.result is not None:
        check(bitwise(second.result, solo.result),
              "resumed run bitwise identical to uninterrupted run")
    return 1 if failures else 0


def _cmd_info(args: argparse.Namespace) -> int:
    from .experiments import tables
    from .ocean.config import PAPER_CONFIGS

    print(tables.format_table2())
    print()
    print(tables.format_table3())
    print()
    total = PAPER_CONFIGS["km_1km"].grid_points
    print(f"1-km configuration: {total:,} grid points "
          f"(the paper's '> 63 billion')")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="LICOMK++ reproduction: run the model, regenerate the paper",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="integrate the ocean model")
    run.add_argument("--size", default="small",
                     choices=["tiny", "small", "medium", "large"])
    run.add_argument("--days", type=float, default=5.0)
    run.add_argument("--backend", default="serial",
                     choices=["serial", "openmp", "athread", "cuda", "hip"])
    run.add_argument("--precision", default="double",
                     choices=["double", "single", "mixed"])
    run.add_argument("--full-depth", action="store_true",
                     help="full-depth (Mariana-capable) configuration")
    run.add_argument("--timers", action="store_true", help="print GPTL timers")
    run.add_argument("--restart-in", default=None, help="restart file to resume")
    run.add_argument("--restart-out", default=None, help="write a restart file")
    run.set_defaults(func=_cmd_run)

    exp = sub.add_parser("experiments", help="regenerate a paper artifact")
    exp.add_argument("which", help="table1..table5, fig1/2/6/7/8/9, "
                                   "ablations, validation, breakdown, "
                                   "schedule, all")
    exp.set_defaults(func=_cmd_experiments)

    info = sub.add_parser("info", help="machines and configurations")
    info.set_defaults(func=_cmd_info)

    lint = sub.add_parser(
        "lint", help="verify the registered kernels (kernelcheck)")
    lint.add_argument("--format", default="text", choices=["text", "json"],
                      help="output format (json feeds CI annotations)")
    lint.add_argument("--output", default=None,
                      help="write the report to a file instead of stdout")
    lint.add_argument("--baseline", default=None,
                      help="suppression file (rule:kernel:view per line)")
    lint.add_argument("--write-baseline", default=None,
                      help="write current unsuppressed findings as a baseline "
                           "and exit")
    lint.add_argument("--graph", action="store_true",
                      help="verify sealed launch graphs (graphcheck) instead "
                           "of the per-kernel rules: halo freshness, dead "
                           "work and precision boundaries of the production "
                           "schedule on every backend")
    lint.add_argument("--strict", action="store_true",
                      help="fail on warnings too (default: errors only)")
    lint.add_argument("-v", "--verbose", action="store_true",
                      help="also show suppressed findings")
    lint.set_defaults(func=_cmd_lint)

    tr = sub.add_parser(
        "trace", help="step a small model and export a Chrome trace timeline")
    tr.add_argument("--size", default="tiny",
                    choices=["tiny", "small", "medium", "large"])
    tr.add_argument("--steps", type=int, default=2,
                    help="baroclinic steps to record")
    tr.add_argument("--backend", default="serial",
                    choices=["serial", "openmp", "athread", "cuda", "hip"])
    tr.add_argument("--ranks", type=int, default=1,
                    help="SimWorld ranks (one trace lane group per rank)")
    tr.add_argument("--mode", default="thread",
                    choices=["thread", "process"],
                    help="rank substrate: in-process threads (default) or "
                         "one OS process per rank with shared-memory halos")
    tr.add_argument("--graph", action="store_true",
                    help="capture/replay the step graph while tracing")
    tr.add_argument("--out", default="trace.json",
                    help="output path for the Chrome trace-event JSON")
    tr.add_argument("--predict", default=None,
                    choices=["gpu_workstation", "orise", "new_sunway", "taishan"],
                    help="also write a perfmodel-predicted timeline for "
                         "this machine")
    tr.add_argument("--predict-out", default=None,
                    help="output path for the predicted timeline")
    tr.set_defaults(func=_cmd_trace)

    prec = sub.add_parser(
        "precision",
        help="validate a precision policy against fp64 under declared budgets")
    prec.add_argument("--policy", default="mixed",
                      choices=["mixed", "single", "double"])
    prec.add_argument("--size", default="tiny",
                      choices=["tiny", "small", "medium", "large"])
    prec.add_argument("--steps", type=int, default=16,
                      help="baroclinic steps to integrate both runs")
    prec.add_argument("--backend", default="serial",
                      choices=["serial", "openmp", "athread", "cuda", "hip"])
    prec.add_argument("--no-project", dest="project", action="store_false",
                      help="skip the perfmodel throughput projection")
    prec.set_defaults(func=_cmd_precision)

    sv = sub.add_parser(
        "serve",
        help="ensemble serving: admit, price, and run a jobspec file")
    sv.add_argument("--jobs", default=None,
                    help="jobspec JSON file (a list of job dicts or "
                         "{'jobs': [...]})")
    sv.add_argument("--demo", action="store_true",
                    help="run the built-in smoke: a shared-signature pair "
                         "and a kill-and-resume cycle on the tiny config")
    sv.add_argument("--workers", type=int, default=2,
                    help="worker threads in the bounded pool")
    sv.add_argument("--budget", type=float, default=None,
                    help="admission budget in modelled unit-seconds "
                         "(over-quote jobs are rejected)")
    sv.add_argument("--artifacts", default="serve_artifacts",
                    help="root directory for per-job artifact directories")
    sv.set_defaults(func=_cmd_serve)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
