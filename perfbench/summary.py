"""Sample summaries and metric-name rules shared by the benchmark."""

from __future__ import annotations

import math
import re
import statistics
from typing import Dict, Optional, Sequence

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

# Percentiles considered for the tail figure, highest last.
TAIL_PERCENTILES = (75.0, 90.0, 95.0, 99.0, 99.9)


def valid_name(name: str) -> bool:
    return NAME_RE.fullmatch(name) is not None


def valid_unit(unit: str) -> bool:
    return UNIT_RE.fullmatch(unit) is not None


def tail_percentile(n: int) -> Optional[float]:
    """The highest percentile with at least ten samples beyond it, or
    ``None`` when ``n`` samples support none above the median."""
    best = None
    for p in TAIL_PERCENTILES:
        if round(n * (100.0 - p) / 100.0, 9) >= 10:
            best = p
    return best


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles (``statistics.quantiles(n=4)``), sample count
    and, when the sample supports one, the tail percentile."""
    if not values:
        raise ValueError("no samples")
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    out = {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
    }
    tail = tail_percentile(len(values))
    if tail is not None:
        out["p%g" % tail] = percentile(values, tail)
    return out
