"""Unit tests for the streaming log2 histogram."""

import json
import math
import random

import pytest

from repro.telemetry import Log2Histogram
from repro.telemetry.histogram import bucket_bounds, bucket_of


# ------------------------------------------------------------- buckets

def test_bucket_edges():
    assert bucket_of(0.0) == 0
    assert bucket_of(0.999) == 0
    assert bucket_of(1.0) == 1
    assert bucket_of(1.999) == 1
    assert bucket_of(2.0) == 2
    assert bucket_of(3.999) == 2
    assert bucket_of(4.0) == 3
    assert bucket_of(-5.0) == 0  # clamped


def test_bucket_bounds_cover_their_values():
    rng = random.Random(7)
    for _ in range(500):
        v = rng.uniform(0, 10_000)
        lo, hi = bucket_bounds(bucket_of(v))
        assert lo <= v < hi


def test_bucket_bounds_rejects_negative():
    with pytest.raises(ValueError, match="bucket"):
        bucket_bounds(-1)


# ---------------------------------------------------------- streaming

def test_exact_counts_sum_min_max():
    h = Log2Histogram()
    values = [0.0, 0.5, 1.0, 3.0, 3.5, 100.0, 100.0]
    for v in values:
        h.add(v)
    assert h.count == len(values)
    assert h.total == sum(values)
    assert h.minimum == 0.0
    assert h.maximum == 100.0
    assert h.buckets == {0: 2, 1: 1, 2: 2, 7: 2}
    assert sum(h.buckets.values()) == h.count


@pytest.mark.parametrize("bad", (math.inf, -math.inf, math.nan))
def test_non_finite_samples_are_refused(bad):
    """An infinite sample used to land in bucket 0 (p99 31.52 beside
    max inf, and ``inf`` in the JSON); a NaN one was counted in bucket
    0, turned the sum into NaN and was skipped by min/max."""
    h = Log2Histogram()
    h.add(10.0)
    with pytest.raises(ValueError, match=repr(bad)):
        h.add(bad)
    with pytest.raises(ValueError, match=repr(bad)):
        h.add_many([20.0, bad, 30.0])
    assert h.to_dict() == {"count": 1, "sum": 10.0, "min": 10.0,
                           "max": 10.0, "buckets": {"4": 1}}


def _samples(rng, n):
    """Latency-like samples: sub-cycle, integral, repeated and wide."""
    pool = [0.0, 0.5, 1.0, 2.0, 3.0, 10.5, 14.25]
    return [rng.choice((rng.choice(pool), rng.uniform(0, 3),
                        rng.uniform(0, 1e6), float(rng.randrange(64)),
                        rng.randrange(1000)))
            for _ in range(n)]


@pytest.mark.parametrize("seed", range(20))
def test_bulk_add_equals_single_adds(seed):
    """Buckets, count, min, max and the left-to-right float sum match one
    ``add`` per value, including across several bulk calls."""
    rng = random.Random(seed)
    chunks = [_samples(rng, rng.randrange(0, 200))
              for _ in range(rng.randrange(1, 5))]
    single, bulk = Log2Histogram(), Log2Histogram()
    for chunk in chunks:
        for v in chunk:
            single.add(v)
        bulk.add_many(chunk)
    assert json.dumps(bulk.to_dict((50.0, 99.0))) == \
        json.dumps(single.to_dict((50.0, 99.0)))


def test_bulk_sum_is_not_compensated():
    """The bulk sum rounds at every step, as single adds do (``sum()``
    compensates on Python >= 3.12 and would read 2.0 here)."""
    h = Log2Histogram()
    h.add_many([1.0, 1e100, 1.0, -1e100])
    assert h.total == 0.0


def test_empty_histogram_is_neutral():
    h = Log2Histogram()
    assert h.count == 0
    assert h.mean == 0.0
    assert h.minimum == 0.0 and h.maximum == 0.0
    assert h.percentile(99.0) == 0.0
    d = h.to_dict((50.0,))
    assert d["count"] == 0 and d["buckets"] == {}


# --------------------------------------------------------- percentiles

def test_percentiles_monotone_and_bounded():
    rng = random.Random(2005)
    h = Log2Histogram()
    samples = [rng.expovariate(1 / 50.0) for _ in range(5000)]
    for v in samples:
        h.add(v)
    ps = [10, 50, 90, 99, 99.9, 100]
    estimates = [h.percentile(p) for p in ps]
    assert estimates == sorted(estimates)
    assert all(h.minimum <= e <= h.maximum for e in estimates)
    assert h.percentile(100.0) == max(samples)
    # log2 buckets: the estimate is within its covering bucket, i.e.
    # within a factor of 2 of the exact rank statistic (for values >= 1)
    exact = sorted(samples)
    for p, est in zip(ps, estimates):
        want = exact[min(len(exact) - 1,
                         max(0, math.ceil(p / 100 * len(exact)) - 1))]
        if want >= 1.0:
            assert est / want < 2.0 and want / est < 2.0, (p, est, want)


def test_percentile_validates_range():
    h = Log2Histogram()
    h.add(1.0)
    for bad in (0.0, -1.0, 100.1):
        with pytest.raises(ValueError, match="percentile"):
            h.percentile(bad)


def test_single_sample_percentiles_are_that_sample():
    h = Log2Histogram()
    h.add(42.0)
    for p in (1, 50, 99.9, 100):
        assert h.percentile(p) == 42.0


def test_summary_keys_and_exact_max():
    h = Log2Histogram()
    for v in (1.0, 10.0, 1000.0):
        h.add(v)
    s = h.summary((50.0, 99.9))
    assert list(s) == ["p50", "p99.9", "max"]
    assert s["max"] == 1000.0


# ------------------------------------------------------- serialization

def test_dict_round_trip_is_exact():
    rng = random.Random(11)
    h = Log2Histogram()
    for _ in range(1000):
        h.add(rng.uniform(0, 1e6))
    ps = (50.0, 90.0, 99.0, 99.9)
    d = h.to_dict(ps)
    back = Log2Histogram.from_dict(d)
    assert back.to_dict(ps) == d
    # and byte-exact through JSON (floats included)
    assert json.loads(json.dumps(d)) == d


def test_from_dict_rejects_inconsistent_counts():
    h = Log2Histogram()
    h.add(3.0)
    d = h.to_dict()
    d["count"] = 2
    with pytest.raises(ValueError, match="disagree"):
        Log2Histogram.from_dict(d)


def test_bucket_keys_serialized_sorted():
    h = Log2Histogram()
    for v in (1000.0, 1.0, 30.0):
        h.add(v)
    assert list(h.to_dict()["buckets"]) == \
        sorted(h.to_dict()["buckets"], key=int)
