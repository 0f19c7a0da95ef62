"""``BENCHMARK.json`` is the single list of metric and workload names.

The harness reads names, units, directions and bounds from it, so the
file the driver checks and the numbers the harness prints cannot drift
apart; :func:`validate_result` is the schema gate for what ``run.py``
prints as its last line.
"""

from __future__ import annotations

import json
import re
from typing import Any, Dict, List

from .host import ROOT

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def metrics(spec: Dict[str, Any], traced: bool) -> List[Dict[str, Any]]:
    """The metrics one run reports: end-to-end untraced, per-layer traced."""
    return spec["per_layer" if traced else "end_to_end"]


def validate_spec(spec: Dict[str, Any]) -> List[str]:
    """Problems with the names and units in ``BENCHMARK.json`` itself."""
    errors = []
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in spec[key]]
    for name in names:
        if not NAME_RE.match(name):
            errors.append(f"bad name {name!r}")
    if len(set(names)) != len(names):
        errors.append("a name is used twice")
    for key in ("end_to_end", "per_layer"):
        for m in spec[key]:
            if not UNIT_RE.match(m["unit"]):
                errors.append(f"bad unit {m['unit']!r} on {m['name']}")
            if m["better"] not in ("lower", "higher"):
                errors.append(f"bad direction on {m['name']}")
    if not any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in spec["end_to_end"]):
        errors.append("end_to_end lacks setup_s [s, lower]")
    return errors


def validate_result(result: Any, spec: Dict[str, Any], traced: bool) -> List[str]:
    """Problems with one result line (the contract's four keys)."""
    if not isinstance(result, dict):
        return ["result is not an object"]
    errors = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"keys are {sorted(result)}")
        return errors
    if not isinstance(result["correct"], bool):
        errors.append("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            errors.append(f"{key} is not a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        errors.append("attempted < 1")
    want = {m["name"]: m["unit"] for m in metrics(spec, traced)}
    got = result["metrics"]
    if sorted(got) != sorted(want):
        errors.append(f"metric names differ: missing "
                      f"{sorted(set(want) - set(got))}, extra "
                      f"{sorted(set(got) - set(want))}")
        return errors
    for name, entry in got.items():
        if sorted(entry) != ["unit", "value"]:
            errors.append(f"{name}: keys are {sorted(entry)}")
            continue
        value = entry["value"]
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or value != value or value in (float("inf"), float("-inf")):
            errors.append(f"{name}: value {value!r} is not a finite number")
        if entry["unit"] != want[name]:
            errors.append(f"{name}: unit {entry['unit']!r} != {want[name]!r}")
    return errors
