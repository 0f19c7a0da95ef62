#!/usr/bin/env python3
"""Compare two benchmark sets: ``python3 bench/compare.py A.json B.json``.

``A`` is the parent's set and ``B`` the change's, both written by
``bench/run.py --runs K --out FILE`` with tracing off.  One row per
workload and end-to-end metric, judged by the bounds fixed in
``BENCHMARK.json`` and the pairs rule of the choosing-metrics guide:

``regressed``   B's median is worse than A's by more than the bound.
``improved``    at least ten pairs were run, B wins nine tenths of them
                (ties count for neither side) and the medians differ by
                more than the distance between A's quartiles.
``unresolved``  neither of the above, A's own quartile spread is wider
                than the bound, and not every run of B beats every run
                of A.
``unchanged``   otherwise.

Run *i* of A is paired with run *i* of B (same seed).  Every ratio is
printed with its base.  Exit status 1 when any row regressed.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import sys
from typing import Any, Dict, List, Optional, Sequence

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from bench import spec as benchspec  # noqa: E402
from bench.stats import quartile_spread  # noqa: E402

MIN_PAIRS = 10
WIN_SHARE = 0.9


def better(x: float, y: float, direction: str) -> bool:
    """Is ``x`` better than ``y`` for a metric of this direction?"""
    return x < y if direction == "lower" else x > y


def judge(a: Sequence[float], b: Sequence[float], direction: str,
          bound: float) -> Dict[str, Any]:
    """Verdict for one workload x metric from the two sets' run values."""
    med_a = statistics.median(a)
    med_b = statistics.median(b)
    gap = med_b - med_a
    worse = (gap if direction == "lower" else -gap) / abs(med_a)
    spread_a = quartile_spread(a) or 0.0
    iqr_a = spread_a * abs(med_a)
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if better(y, x, direction))
    losses = sum(1 for x, y in pairs if better(x, y, direction))
    all_better = all(better(y, x, direction) for x in a for y in b)
    if worse > bound:
        verdict = "regressed"
    elif (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
          and abs(gap) > iqr_a):
        verdict = "improved"
    elif spread_a > bound and not all_better:
        verdict = "unresolved"
    else:
        verdict = "unchanged"
    return {"verdict": verdict, "median_a": med_a, "median_b": med_b,
            "ratio": med_b / med_a, "worse": worse,
            "spread_a": spread_a, "wins": wins, "losses": losses,
            "ties": len(pairs) - wins - losses, "pairs": len(pairs)}


def _values(summary: Dict[str, Any], workload: str,
            metric: str) -> Optional[List[float]]:
    slot = summary.get(workload)
    if not slot or slot.get("status") != "ok":
        return None
    values = slot["metrics"].get(metric, {}).get("values", [])
    return [v for v in values if v is not None] or None


def compare(set_a: Dict[str, Any], set_b: Dict[str, Any],
            bench: Dict[str, Any]) -> List[Dict[str, Any]]:
    rows = []
    for w in bench["workloads"]:
        for m in bench["end_to_end"]:
            a = _values(set_a["summary"], w["name"], m["name"])
            b = _values(set_b["summary"], w["name"], m["name"])
            row: Dict[str, Any] = {"workload": w["name"], "metric": m["name"],
                                   "unit": m["unit"], "bound": m["bound"]}
            if a is None or b is None:
                row["verdict"] = "skipped"
            else:
                row.update(judge(a, b, m["better"], m["bound"]))
            rows.append(row)
    return rows


def format_row(r: Dict[str, Any]) -> str:
    head = f"{r['workload']:<22} {r['metric']:<12}"
    if r["verdict"] == "skipped":
        return f"{head} skipped (not measured in both sets)"
    return (f"{head} B/A = {r['ratio']:.3f} of {r['median_a']:.5g} "
            f"{r['unit']} (B {r['median_b']:.5g}); worse by "
            f"{r['worse']:+.1%} of A, bound {r['bound']:.0%}; A's quartile "
            f"spread {r['spread_a']:.1%} of {r['median_a']:.5g}; B wins "
            f"{r['wins']}/{r['pairs']} pairs, loses {r['losses']}: "
            f"{r['verdict']}")


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    set_a, set_b = (json.loads(pathlib.Path(p).read_text()) for p in argv)
    for s, p in ((set_a, argv[0]), (set_b, argv[1])):
        if s.get("traced"):
            print(f"{p} is a traced set; end-to-end metrics come from "
                  "runs with tracing off", file=sys.stderr)
            return 2
    for label, s in (("A", set_a), ("B", set_b)):
        h = s["host"]
        print(f"{label}: commit {h['git_commit']}, {h['nproc']} x "
              f"{h['cpu_model']}, python {h['python']}, numpy {h['numpy']}, "
              f"numba {'yes' if h['numba_present'] else 'no'}, "
              f"{s['run_seconds']} s runs")
    rows = compare(set_a, set_b, benchspec.load())
    for r in rows:
        print(format_row(r))
    counts: Dict[str, int] = {}
    for r in rows:
        counts[r["verdict"]] = counts.get(r["verdict"], 0) + 1
    print(", ".join(f"{n} {v}" for v, n in sorted(counts.items())))
    return 1 if counts.get("regressed") else 0


if __name__ == "__main__":
    sys.exit(main())
