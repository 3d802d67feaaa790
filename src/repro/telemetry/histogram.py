"""Streaming log2-bucket histograms.

The telemetry layer must answer tail questions (p99, p99.9, max) over
millions of latency samples without retaining them.  A
:class:`Log2Histogram` keeps *exact* counts in logarithmic buckets --
bucket ``b`` covers ``[2^(b-1), 2^b)`` cycles (bucket 0 covers
``[0, 1)``) -- plus the exact running sum, minimum and maximum.
Percentiles are estimated deterministically by linear interpolation
inside the covering bucket, so two runs that feed identical sample
streams (the engine-identity contract) report byte-identical summaries.
Samples must be finite: an infinite or NaN sample has no bucket, and
would make the sum, the extremes and the JSON summary meaningless.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import reduce
from operator import add
from typing import Dict, Mapping, Sequence, Tuple


def bucket_of(value: float) -> int:
    """The log2 bucket covering ``value`` (negatives clamp to 0)."""
    if value < 1.0:
        return 0
    # frexp: value = m * 2**e with m in [0.5, 1)  =>  value in [2^(e-1), 2^e)
    return math.frexp(value)[1]


def bucket_bounds(bucket: int) -> Tuple[float, float]:
    """``[lower, upper)`` edges of ``bucket`` in sample units."""
    if bucket < 0:
        raise ValueError(f"bucket must be >= 0, got {bucket}")
    lower = 0.0 if bucket == 0 else 2.0 ** (bucket - 1)
    return lower, 2.0 ** bucket


class Log2Histogram:
    """Exact-count log2 histogram with deterministic quantile summaries.

    ``add`` is O(1) and allocation-free after a bucket exists; the
    bucket table is sparse (a dict), so the footprint is bounded by the
    dynamic range of the data (~60 buckets for picosecond spans), not
    the sample count.
    """

    __slots__ = ("buckets", "count", "total", "min_value", "max_value")

    def __init__(self) -> None:
        self.buckets: Dict[int, int] = {}
        self.count = 0
        self.total = 0.0
        self.min_value = math.inf
        self.max_value = -math.inf

    # ------------------------------------------------------------ feeding

    def add(self, value: float) -> None:
        if not math.isfinite(value):
            raise ValueError(f"histogram sample must be finite, got {value!r}")
        b = bucket_of(value)
        self.buckets[b] = self.buckets.get(b, 0) + 1
        self.count += 1
        self.total += value
        if value < self.min_value:
            self.min_value = value
        if value > self.max_value:
            self.max_value = value

    def add_many(self, values: Sequence[float]) -> None:
        """Add ``values`` in order, leaving the state one :meth:`add` per
        value would.

        The sum accumulates left to right, as the single adds do (not
        ``sum()``, which compensates float sums on Python >= 3.12).  The
        buckets and extremes are read from the distinct values: latency
        samples are whole clock periods, so a few hundred distinct values
        cover tens of thousands of samples.  ``Counter`` keeps the first
        of equal values, as :meth:`add`'s strict compares do.  A
        non-finite value raises before any state changes.
        """
        if not values:
            return
        total = reduce(add, values, self.total)
        counts = Counter(values)
        if not math.isfinite(total):
            for value in counts:
                if not math.isfinite(value):
                    raise ValueError(
                        f"histogram sample must be finite, got {value!r}")
        buckets = self.buckets
        for value, n in counts.items():
            b = bucket_of(value)
            buckets[b] = buckets.get(b, 0) + n
        self.count += len(values)
        self.total = total
        low = min(counts)
        if low < self.min_value:
            self.min_value = low
        high = max(counts)
        if high > self.max_value:
            self.max_value = high

    # ------------------------------------------------------------ queries

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def minimum(self) -> float:
        return self.min_value if self.count else 0.0

    @property
    def maximum(self) -> float:
        return self.max_value if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Deterministic percentile estimate.

        The covering bucket is found by cumulative count; the value is
        linearly interpolated inside its ``[lower, upper)`` range and
        clamped to the exact observed ``[min, max]`` (so p=100 is the
        exact maximum and low percentiles never undershoot the
        minimum).
        """
        if not 0.0 < p <= 100.0:
            raise ValueError(f"percentile must be in (0, 100], got {p}")
        if self.count == 0:
            return 0.0
        target = p / 100.0 * self.count
        cumulative = 0
        estimate = self.max_value
        for b in sorted(self.buckets):
            n = self.buckets[b]
            cumulative += n
            if cumulative >= target:
                lower, upper = bucket_bounds(b)
                frac = (target - (cumulative - n)) / n
                estimate = lower + frac * (upper - lower)
                break
        if estimate < self.min_value:
            return self.min_value
        if estimate > self.max_value:
            return self.max_value
        return estimate

    def summary(self, percentiles: Sequence[float]) -> Dict[str, float]:
        """``{"p50": ..., "p99": ..., "max": ...}`` summary dict (keys
        ordered by the requested percentiles; ``max`` is exact)."""
        out = {f"p{_fmt_p(p)}": self.percentile(p) for p in percentiles}
        out["max"] = self.maximum
        return out

    # ------------------------------------------------------ serialization

    def to_dict(self, percentiles: Sequence[float] = ()) -> Dict[str, object]:
        d: Dict[str, object] = {
            "count": self.count,
            "sum": self.total,
            "min": self.minimum,
            "max": self.maximum,
            "buckets": {str(b): self.buckets[b]
                        for b in sorted(self.buckets)},
        }
        if percentiles:
            d["percentiles"] = self.summary(percentiles)
        return d

    @classmethod
    def from_dict(cls, d: Mapping[str, object]) -> "Log2Histogram":
        """Rebuild the streaming state from :meth:`to_dict` output.

        Exact for counts/buckets/sum/min/max (everything the summaries
        are computed from), so ``h.to_dict(ps) ==
        Log2Histogram.from_dict(h.to_dict(ps)).to_dict(ps)``.
        """
        h = cls()
        h.count = int(d["count"])            # type: ignore[arg-type]
        h.total = float(d["sum"])            # type: ignore[arg-type]
        if h.count:
            h.min_value = float(d["min"])    # type: ignore[arg-type]
            h.max_value = float(d["max"])    # type: ignore[arg-type]
        h.buckets = {int(b): int(n)
                     for b, n in d["buckets"].items()}  # type: ignore[union-attr]
        if sum(h.buckets.values()) != h.count:
            raise ValueError("histogram bucket counts disagree with count")
        return h


def _fmt_p(p: float) -> str:
    """Percentile label fragment: 99 -> "99", 99.9 -> "99.9"."""
    return f"{p:g}"
