"""Generated inputs: knob-tolerant parameter objects and the job mix.

The workload seed feeds only what is generated here — the model seed
(bathymetry and land mask) and, for the serving workload, which jobs
arrive in which order.  The program never sees the seed itself.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Any, Dict, List, Tuple


def build_tolerant(cls: type, **wanted: Any) -> Tuple[Any, Dict[str, Any], List[str]]:
    """Build dataclass ``cls`` passing only the fields it still has.

    ROADMAP plans PRs that delete ``ModelParams``/``JobSpec`` knobs;
    those PRs may not edit the benchmark, so a knob this file asks for
    and the dataclass no longer has is dropped and reported instead of
    raising.  Returns ``(instance, effective, dropped)``: ``effective``
    maps every field of the built instance to a JSON-friendly value, so
    each result records the parameters that actually ran.
    """
    names = {f.name for f in dataclasses.fields(cls)}
    dropped = sorted(k for k in wanted if k not in names)
    obj = cls(**{k: v for k, v in wanted.items() if k in names})
    effective = {f.name: _plain(getattr(obj, f.name))
                 for f in dataclasses.fields(cls)}
    return obj, effective, dropped


def _plain(value: Any) -> Any:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _plain(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    return repr(value)


#: The serving mix varies what an engine signature is made of.
SERVE_BACKENDS = ("serial", "athread")
SERVE_PRECISIONS = ("double", "mixed")
SERVE_STEPS = (10, 20)


def serve_signatures(seed: int) -> List[Tuple[str, str, int]]:
    """The eight (backend, precision, model seed) engine signatures."""
    return [(b, p, s) for b in SERVE_BACKENDS for p in SERVE_PRECISIONS
            for s in (seed, seed + 1)]


def serve_job(seed: int, index: int) -> Dict[str, Any]:
    """The ``index``-th job of the seeded stream, as ``JobSpec`` fields.

    The first eight jobs visit every signature once in a seeded order
    (each is an engine-cache miss, so every run pays the same eight
    builds); later jobs draw signatures at random and hit the cache.
    Job ``index`` depends only on ``(seed, index)``, so a run that gets
    further into the stream sees the same prefix.
    """
    sigs = serve_signatures(seed)
    if index < len(sigs):
        order = list(range(len(sigs)))
        random.Random(f"{seed}:order").shuffle(order)
        backend, precision, model_seed = sigs[order[index]]
    else:
        backend, precision, model_seed = \
            random.Random(f"{seed}:sig:{index}").choice(sigs)
    steps = random.Random(f"{seed}:steps:{index}").choice(SERVE_STEPS)
    return {
        "name": f"job{index:04d}",
        "size": "small",
        "backend": backend,
        "precision": precision,
        "seed": model_seed,
        "steps": steps,
        "probe_every": 5,
        "checkpoint_every": 10,
        "save_final": True,
    }
