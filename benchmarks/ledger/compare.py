"""Compare two ledger result documents, one row per (workload, metric).

    python -m benchmarks.ledger.compare BASE.json NEW.json

Both documents come from ``python -m benchmarks.ledger --json PATH``.
Each end-to-end metric gets a verdict:

* ``worse`` -- the new median is worse than the base median by more than
  the metric's bound (``BENCHMARK.json``, or the workload-specific table
  in ``catalogue.py``);
* ``unresolved`` -- either side's quartile spread is wider than the
  bound, and the runs do not separate (not every new sample better, or
  worse beyond the bound, than every base sample);
* ``better`` -- the median improved by more than the spread of either
  side (by more than the bound when a side has fewer than three samples);
* ``same`` -- anything else.

Every ratio is printed with its base.  A changed simulated digest is
flagged.  Exits 1 if any row is worse.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Any, Dict, List, Optional

from benchmarks.ledger.catalogue import (Metric, end_to_end_metrics,
                                         load_declaration)

VERDICTS = ("better", "same", "worse", "unresolved")


def _spread(m: Dict[str, Any], absolute: bool) -> float:
    width = m["q3"] - m["q1"]
    if absolute:
        return float(width)
    return float(width / m["value"]) if m["value"] else 0.0


def verdict(base: Dict[str, Any], new: Dict[str, Any], metric: Metric) -> str:
    """The verdict on one metric; ``base``/``new`` are the documents'
    ``{"value", "q1", "q3", "n", "samples"}`` summaries."""
    sign = 1.0 if metric.better == "lower" else -1.0
    change = sign * (new["value"] - base["value"])  # > 0 is worse
    if not metric.absolute and change:
        change = (change / base["value"] if base["value"]
                  else math.copysign(math.inf, change))
    spread = max(_spread(base, metric.absolute),
                 _spread(new, metric.absolute))
    pairs = [sign * (n - b) for n in new["samples"] for b in base["samples"]]
    if spread > metric.bound:
        if all(p < 0 for p in pairs):
            return "better"
        if change > metric.bound and all(p > 0 for p in pairs):
            return "worse"
        return "unresolved"
    if change > metric.bound:
        return "worse"
    few = min(len(base["samples"]), len(new["samples"])) < 3
    threshold = metric.bound if few else spread
    if -change > threshold:
        return "better"
    return "same"


def compare(base: Dict[str, Any], new: Dict[str, Any],
            metrics: Dict[str, Metric]) -> List[Dict[str, Any]]:
    """One row per (workload, metric) present in both documents."""
    rows = []
    for workload, b_entry in base["workloads"].items():
        n_entry = new["workloads"].get(workload)
        if n_entry is None:
            continue
        for name, metric in metrics.items():
            b, n = b_entry["metrics"].get(name), n_entry["metrics"].get(name)
            if b is None or n is None:
                continue
            rows.append({
                "workload": workload, "metric": name, "unit": b["unit"],
                "base": b["value"], "new": n["value"],
                "ratio": n["value"] / b["value"] if b["value"] else None,
                "verdict": verdict(b, n, metric),
            })
    return rows


def digest_changes(base: Dict[str, Any], new: Dict[str, Any]) -> List[str]:
    """Workloads whose simulated digest differs (same seed on both sides)."""
    changed = []
    for workload, b_entry in base["workloads"].items():
        n_entry = new["workloads"].get(workload)
        if (n_entry is not None and b_entry["seed"] == n_entry["seed"]
                and b_entry["digest"] != n_entry["digest"]):
            changed.append(workload)
    return changed


def _fmt(value: Optional[float]) -> str:
    return "-" if value is None else f"{value:.6g}"


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(prog="python -m benchmarks.ledger.compare",
                                 description=__doc__.splitlines()[0])
    ap.add_argument("base", help="results of the base commit")
    ap.add_argument("new", help="results of the new commit")
    args = ap.parse_args(argv)
    docs = []
    for path in (args.base, args.new):
        with open(path, encoding="utf-8") as fh:
            docs.append(json.load(fh))
    base, new = docs
    rows = compare(base, new, end_to_end_metrics(load_declaration()))
    print(f"{'workload':<14} {'metric':<16} {'unit':<9} {'base':>12} "
          f"{'new':>12} {'new/base':>9}  verdict")
    for r in rows:
        print(f"{r['workload']:<14} {r['metric']:<16} {r['unit']:<9} "
              f"{_fmt(r['base']):>12} {_fmt(r['new']):>12} "
              f"{_fmt(r['ratio']):>9}  {r['verdict']}")
    for workload in digest_changes(base, new):
        print(f"DIGEST CHANGED: {workload} -- simulated results differ")
    counts = {v: sum(r["verdict"] == v for r in rows) for v in VERDICTS}
    print(" ".join(f"{v}={c}" for v, c in counts.items()))
    return 1 if counts["worse"] else 0


if __name__ == "__main__":
    sys.exit(main())
