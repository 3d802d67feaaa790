"""The performance floors the ledger cannot express, each one a hard gate.

    python benchmarks/gates.py

The ledger (``python -m benchmarks.ledger``) holds the metrics of
record.  This module times the four floors it has no field for and
exits 1 if any of them is violated:

* Table 1 (fast budget): the DDR bank fastpath at least 11x faster than
  the reference walk (about 0.75x the lowest of 12 readings, 14.7-18.2x,
  on a 2-vCPU Xeon box).  The reading is the median of per-pair
  reference/fast ratios over alternating pairs, so one slow leg cannot
  decide it; both engines must report ``==`` metrics.
* Table 5 (full budget): the stream machine at least 3x faster than the
  reference kernel, read the same way.
* Table 2: the DES-free IXP machine at least 10x faster than the
  generator model on the kernel, read the same way.  The machine jumps
  whole steady-state periods to the horizon; without the jump it is
  about 3x.
* Serve: at least 20 cached requests per second, each a submit and a
  result fetch over HTTP against a daemon on an ephemeral port.  A
  cache hit must stay a lookup, never a re-simulation.

:func:`verdict` maps readings to failures without timing anything; the
tests drive it with synthetic readings.  With telemetry, tracing and
monitoring off, a run is the plain call, so no timing can tell it from
itself; that they cost nothing when off is held structurally by
``tests/scenarios/test_off_path.py``.
"""

from __future__ import annotations

import asyncio
import json
import statistics
import sys
import tempfile
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.scenarios import Runner                                 # noqa: E402

TABLE1_SPEEDUP_FLOOR = 11.0
TABLE5_STREAM_SPEEDUP_FLOOR = 3.0
TABLE2_SPEEDUP_FLOOR = 10.0
SERVE_CACHED_RPS_FLOOR = 20.0

#: Alternating reference/fast pairs per speedup reading.
PAIRS = 3
#: Cached submit + result round trips in the serve reading.
RESUBMITS = 20

#: ``(reading, floor, what it guards)``
GATES = (
    ("table1_speedup", TABLE1_SPEEDUP_FLOOR,
     "Table 1 DDR fastpath vs the reference walk (x)"),
    ("table5_stream_speedup", TABLE5_STREAM_SPEEDUP_FLOOR,
     "Table 5 stream machine vs the reference kernel (x)"),
    ("table2_speedup", TABLE2_SPEEDUP_FLOOR,
     "Table 2 IXP machine vs the reference kernel (x)"),
    ("serve_cached_rps", SERVE_CACHED_RPS_FLOOR,
     "cached serve throughput (req/s)"),
)


def verdict(readings: dict) -> list:
    """One failure message per violated gate; empty when all hold."""
    return [f"{name} = {readings[name]:.4g} is below the {floor:g} "
            f"floor: {what}"
            for name, floor, what in GATES if readings[name] < floor]


def report(readings: dict) -> int:
    """Print every reading and every failure; the process exit code."""
    for name, floor, _what in GATES:
        print(f"{name}: {readings[name]:.4g} (floor {floor:g})")
    failures = verdict(readings)
    for message in failures:
        print(f"FAIL: {message}", file=sys.stderr)
    return 1 if failures else 0


def _timed(fn):
    t0 = time.perf_counter()
    result = fn()
    return time.perf_counter() - t0, result


def speedup(scenario: str, fast: bool) -> float:
    """Median reference/fast time ratio over ``PAIRS`` alternating pairs."""
    runner = Runner()
    ratios = []
    for i in range(PAIRS):
        legs = {}
        for engine in ("reference", "fast") if i % 2 == 0 \
                else ("fast", "reference"):
            legs[engine] = _timed(
                lambda: runner.run(scenario, fast=fast, engine=engine))
        if legs["fast"][1].metrics != legs["reference"][1].metrics:
            raise SystemExit(f"{scenario}: engines disagree on simulated "
                             f"values")
        ratios.append(legs["reference"][0] / legs["fast"][0])
    return statistics.median(ratios)


def serve_cached_rps() -> float:
    """Cached requests per second against a live daemon."""
    from repro.serve import ScenarioService, ServeClient, ServeServer

    with tempfile.TemporaryDirectory(prefix="repro-gates-serve-") as tmp:
        service = ScenarioService(str(Path(tmp) / "spool"),
                                  cache_dir=str(Path(tmp) / "cache"))
        server = ServeServer(service, port=0, jobs=2)
        ready = threading.Event()

        async def serve():
            await server.start()
            ready.set()
            await server.serve_until_shutdown()

        thread = threading.Thread(target=lambda: asyncio.run(serve()),
                                  daemon=True)
        thread.start()
        if not ready.wait(30):
            raise SystemExit("serve: daemon did not start")
        client = ServeClient("127.0.0.1", server.port, timeout_s=300.0)
        try:
            fresh, _frames = client.run_and_wait("latency-lqd-burst",
                                                 budget="fast")
            t0 = time.perf_counter()
            for _ in range(RESUBMITS):
                summary = client.submit("latency-lqd-burst", budget="fast")
                if not summary["cached"]:
                    raise SystemExit("serve: a resubmit missed the cache")
                cached = client.result(summary["run_id"])
            elapsed = time.perf_counter() - t0
        finally:
            client.shutdown()
            thread.join(60)
        if thread.is_alive():
            raise SystemExit("serve: daemon did not shut down")
    if json.dumps(cached, sort_keys=True) != json.dumps(fresh,
                                                        sort_keys=True):
        raise SystemExit("serve: cached result diverged from the fresh run")
    return RESUBMITS / elapsed


def measure() -> dict:
    return {
        "table1_speedup": speedup("table1", fast=True),
        "table5_stream_speedup": speedup("table5", fast=False),
        "table2_speedup": speedup("table2", fast=False),
        "serve_cached_rps": serve_cached_rps(),
    }


if __name__ == "__main__":
    sys.exit(report(measure()))
