"""One workload in a fresh process: warm up, time, then trace.

    python -m benchmarks.ledger.worker WORKLOAD --seed N --out PATH \\
        [--iterations N] [--trace] [--smoke]
    python -m benchmarks.ledger.worker WORKLOAD --seed N --ready [--smoke]

``python -m benchmarks.ledger`` starts it with ``src`` on ``PYTHONPATH``.
The first iteration is discarded (a fresh process runs it up to 40%
slower), the timed iterations run with tracing off, and the traced
iteration runs last, separately.  ``--ready`` only sets the workload up,
prints ``ready`` and exits: that is how set-up time is measured.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import tempfile
from typing import Any, Dict, List, Optional

from benchmarks.ledger.catalogue import per_layer_metrics
from benchmarks.ledger.workloads import WORKLOADS, Iteration


def measure(name: str, seed: int, *, tmpdir: str, iterations: int,
            trace: bool = False, smoke: bool = False) -> Dict[str, Any]:
    """Run one workload; every raw sample and what the checks found."""
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    workload = WORKLOADS[name]
    workload.setup(seed, smoke, tmpdir)
    try:
        cold = None if smoke else workload.iteration()
        timed = [workload.iteration() for _ in range(iterations)]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        traced: List[Iteration] = []
        layers: Optional[Dict[str, float]] = None
        if trace:
            traced, measured = workload.trace(smoke)
            layers = dict.fromkeys(per_layer_metrics(), 0)
            layers.update(measured)
            layers["trace_overhead"] = (
                statistics.median(it.wall_s for it in traced)
                / statistics.median(it.wall_s for it in timed) - 1.0)
            layers["cold_iter_s"] = cold.wall_s if cold is not None else 0.0
    finally:
        workload.teardown()

    every = ([cold] if cold is not None else []) + timed + traced
    digest = every[0].digest
    failures: List[str] = []
    failed = 0
    for it in every:
        failures.extend(it.failures)
        if it.digest == digest:
            failed += len(it.failures)
        else:  # every operation of the iteration fails the identity check
            failures.append("simulated digest differs from the first "
                            "iteration's")
            failed += it.attempted
    return {
        "workload": name,
        "seed": seed,
        "smoke": smoke,
        "iterations": len(timed),
        "cold_iter_s": cold.wall_s if cold is not None else None,
        "wall_s": [it.wall_s for it in timed],
        "peak_rss_mb": peak_rss_mb,
        "attempted": sum(it.attempted for it in every),
        "failed": failed,
        "failures": failures[:20],
        "digest": digest,
        "paper_delta_pct": [it.paper_delta_pct for it in timed
                            if it.paper_delta_pct is not None],
        "uncached_ms": [ms for it in timed for ms in it.uncached_ms],
        "cached_ms": [ms for it in timed for ms in it.cached_ms],
        "layers": layers,
    }


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", help="where to write the result document")
    ap.add_argument("--iterations", type=int, default=1)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--ready", action="store_true",
                    help="set up, print 'ready' and exit")
    args = ap.parse_args(argv)
    tmpdir = tempfile.mkdtemp(prefix=f"{args.workload}-")
    if args.ready:
        workload = WORKLOADS[args.workload]
        workload.setup(args.seed, args.smoke, tmpdir)
        print("ready", flush=True)
        workload.teardown()
        return 0
    if args.out is None:
        ap.error("--out is required unless --ready")
    doc = measure(args.workload, args.seed, tmpdir=tmpdir,
                  iterations=args.iterations, trace=args.trace,
                  smoke=args.smoke)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
