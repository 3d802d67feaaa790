"""Sample summaries shared by the ledger, its worker and ``compare``."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Sequence, Tuple


def quartiles(values: Sequence[float]) -> Tuple[float, float]:
    """First and third quartile, as ``statistics.quantiles(n=4)`` gives
    them; a single sample is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile.  Works with ``inf`` entries, which is
    how a failed request counts."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def summarize(values: Sequence[float], unit: str) -> Dict[str, object]:
    """Median, quartiles, count and every raw sample of one metric."""
    q1, q3 = quartiles(values)
    return {"value": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "unit": unit, "samples": list(values)}
