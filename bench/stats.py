"""Order statistics the benchmark reports, in plain Python.

Kept free of numpy so ``run.py`` and ``compare.py`` (which never import
the model) stay light.
"""

from __future__ import annotations

import statistics
from typing import Optional, Sequence

#: A percentile is reported only with at least this many samples
#: beyond it (choosing-metrics guide, section 1).
MIN_BEYOND = 10


def median(values: Sequence[float]) -> Optional[float]:
    return statistics.median(values) if values else None


def percentile(values: Sequence[float], p: float) -> Optional[float]:
    """The ``p``-th percentile (linear interpolation), or ``None`` when
    fewer than :data:`MIN_BEYOND` samples lie beyond it.

    The median (``p == 50``) is exempt from the rule: it is the
    statistic the guide asks for at every sample size.
    """
    n = len(values)
    if n == 0:
        return None
    if p != 50 and samples_beyond(n, p) < MIN_BEYOND:
        return None
    ordered = sorted(values)
    pos = (n - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def samples_beyond(n: int, p: float) -> int:
    """How many of ``n`` samples lie above the ``p``-th percentile."""
    return int(n * (100.0 - p) / 100.0 + 1e-9)


def quartile_spread(values: Sequence[float]) -> Optional[float]:
    """Distance between the first and third quartile as a share of the
    median — the steadiness figure the benchmark contract uses."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / abs(mid) if mid else None
