"""Metric catalogue: what ``BENCHMARK.json`` declares, plus the
workload-specific end-to-end metrics it cannot hold.

``BENCHMARK.json`` declares the end-to-end metrics every workload reports
(with their regression bounds) and every per-layer metric.  The metrics
below exist on some workloads only, so they live here, with the same
``(unit, better, bound)`` fields; an *absolute* bound is in the metric's
own unit instead of a share of the base median.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, NamedTuple

from benchmarks.ledger.layers import LAYER_NAMES

ROOT = Path(__file__).resolve().parents[2]
DECLARATION = ROOT / "BENCHMARK.json"


class Metric(NamedTuple):
    unit: str
    better: str
    bound: float
    absolute: bool = False


#: End-to-end metrics of some workloads only.
WORKLOAD_METRICS: Dict[str, Metric] = {
    "error_rate": Metric("fraction", "lower", 0.0, absolute=True),
    "paper_delta_pct": Metric("%", "lower", 0.1, absolute=True),
    "uncached_p50_ms": Metric("ms", "lower", 0.10),
    "uncached_p90_ms": Metric("ms", "lower", 0.15),
    "cached_p50_ms": Metric("ms", "lower", 0.10),
    "cached_p99_ms": Metric("ms", "lower", 0.15),
}

#: Layer boundaries of the serving path, timed by wrapping the function
#: each caller looks up.
SERVE_SPANS = ("serve.submit", "serve.execute", "serve.cache_get",
               "serve.cache_put", "checkpoint.run_tasks")


def load_declaration() -> Dict[str, Any]:
    with open(DECLARATION, encoding="utf-8") as fh:
        doc: Dict[str, Any] = json.load(fh)
    return doc


def end_to_end_metrics(declaration: Dict[str, Any]) -> Dict[str, Metric]:
    """Every end-to-end metric with its bound: declared ones first."""
    metrics = {m["name"]: Metric(m["unit"], m["better"], m["bound"])
               for m in declaration["end_to_end"]}
    metrics.update(WORKLOAD_METRICS)
    return metrics


def per_layer_metrics() -> Dict[str, Any]:
    """``name -> (unit, better)`` of every per-layer metric, in the order
    ``BENCHMARK.json`` lists them.  Every workload reports all of them;
    one a workload does not exercise reads 0."""
    metrics: Dict[str, Any] = {}
    for layer in LAYER_NAMES:
        metrics[f"{layer}.self_share"] = ("fraction", "lower")
        metrics[f"{layer}.calls"] = ("count", "lower")
    metrics["trace_overhead"] = ("fraction", "lower")
    metrics["cold_iter_s"] = ("s", "lower")
    for span in SERVE_SPANS:
        metrics[f"{span}_ms"] = ("ms", "lower")
        metrics[f"{span}.calls"] = ("count", "lower")
    metrics["serve.worker_share"] = ("fraction", "higher")
    metrics["serve.cache_hit_ratio"] = ("fraction", "higher")
    for part in ("fifo", "exec", "data"):
        metrics[f"mms.{part}_cycles"] = ("cycles", "lower")
    metrics["policies.drop_rate"] = ("fraction", "lower")
    metrics["policies.pushed_out_segments"] = ("segments", "lower")
    return metrics
