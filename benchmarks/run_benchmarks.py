"""Record the fast-path perf trajectory to ``BENCH_<n>.json``.

Runs each benchmark workload on its *reference* engine and on its *fast*
engine through the unified scenario API, verifies the simulated results
are identical (and that Table 1 still matches the paper within the
suite's tolerances), then appends a timestamped entry to the trajectory
file so successive PRs accumulate a wall-clock history::

    PYTHONPATH=src python benchmarks/run_benchmarks.py             # full
    PYTHONPATH=src python benchmarks/run_benchmarks.py --quick     # CI smoke

Benchmarks
----------
* ``bench_table1`` -- the full Table 1 regeneration (5 bank rows x 4
  scheduler configs): batched bank engine vs per-access reference walk.
* ``bench_table5_stream`` -- the full-budget Table 5 regeneration: the
  DES-free command-stream machine (``repro.engines``) vs the heapq
  reference kernel.  Always run at the full budget (the acceptance
  criterion is defined there); ``--quick`` only lowers the repeat count.
* ``bench_ablation_threads`` -- the IXP1200 multithreading ablation
  scenario: the DES-free IXP machine (``repro.ixp.machine``) vs the
  generator model on the heapq reference kernel.
* ``bench_overload`` -- one overload policy scenario: stream machine vs
  heapq kernel, byte-identical drop/accept counters enforced.
* ``bench_telemetry`` -- the telemetry subsystem's cost contract on
  full-budget Table 5 (stream engine): probes-off must stay within 2%
  of the plain run (structural absence) and keep the 3x stream floor;
  the probes-on overhead is recorded for the trajectory.
* ``bench_trace`` -- the same contract for the span tracer: trace-off
  must stay within 2% of the plain run (the stage hooks are
  structurally absent when no probe wants them) and keep the 3x
  stream floor; the trace-on overhead and span count are recorded.
* ``bench_monitor`` -- the same contract for the operational monitoring
  layer (``repro.monitor``): with monitoring disabled the full-budget
  Table 5 stream run must stay within 2% of the plain run and
  ``repro.monitor`` must never have been imported (structural absence
  checked against ``sys.modules``); the monitored leg (resource
  profiling + event sink) records its overhead, event count and the
  run's rusage profile for the trajectory.

Every recorded number carries the engine it came from
(``reference_engine`` / ``fast_engine``).  Exits non-zero if any engine
pair disagrees on simulated results, the headline ``bench_table1``
speedup drops below its 2x floor, or the ``bench_table5_stream``
speedup drops below its 3x floor.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis import paper_data as paper                     # noqa: E402
from repro.scenarios import Runner                                 # noqa: E402

#: Headline requirement: the batched engine must keep Table 1 at least
#: this much faster than the reference walk.
TABLE1_SPEEDUP_FLOOR = 2.0

#: Acceptance criterion of the command-stream engine: full-budget
#: Table 5 must run at least this much faster than the heapq reference.
TABLE5_STREAM_SPEEDUP_FLOOR = 3.0

#: Telemetry cost contract: with probes *disabled* the full-budget
#: Table 5 stream run must stay within this fraction of the plain run
#: (probes are structurally absent, so anything beyond timer noise is a
#: regression) -- and the 3x stream floor above must still hold.
TELEMETRY_OFF_OVERHEAD_CEILING = 0.02

#: Same contract for the span tracer: the stage-transition hooks are
#: structurally absent when no probe asks for them, so a trace-off run
#: must stay within this fraction of the plain run.
TRACE_OFF_OVERHEAD_CEILING = 0.02

#: And for the monitoring layer: with no event sink and no resource
#: profiling a run must stay within this fraction of the plain run
#: (repro.monitor is never even imported -- asserted structurally).
MONITOR_OFF_OVERHEAD_CEILING = 0.02

#: Serving floor: the daemon must sustain at least this many *cached*
#: requests per second end-to-end over HTTP (submit + result fetch --
#: a cache hit must stay O(lookup), never a re-simulation).
SERVE_CACHED_RPS_FLOOR = 20.0


def _best_of(fn, repeats: int) -> tuple[float, object]:
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def bench_table1(quick: bool, repeats: int) -> dict:
    """Full Table 1 on both DDR engines; results must be identical."""
    runner = Runner()
    fast_flag = quick  # quick mode shrinks access counts, same workload shape
    ref_s, ref_result = _best_of(
        lambda: runner.run("table1", fast=fast_flag, engine="reference"),
        repeats)
    fast_s, fast_result = _best_of(
        lambda: runner.run("table1", fast=fast_flag, engine="fast"), repeats)
    if fast_result.metrics != ref_result.metrics:
        raise SystemExit("bench_table1: engines disagree on simulated values")
    # The suite's own tolerance: conflict-only columns within 0.03.
    for banks, row in paper.PAPER_TABLE1.items():
        ours = fast_result.metrics[f"banks{banks}"]
        for col in (0, 2):
            if abs(ours[col] - row[col]) > 0.03:
                raise SystemExit(
                    f"bench_table1: banks={banks} col={col} drifted from the "
                    f"paper ({ours[col]:.3f} vs {row[col]:.3f})")
    return {
        "reference_s": round(ref_s, 4),
        "fast_s": round(fast_s, 4),
        "speedup": round(ref_s / fast_s, 2),
        "identical_results": True,
        "reference_engine": "ddr reference walk (mem.sched)",
        "fast_engine": "ddr batched bank model (mem.fastpath)",
    }


def bench_table5_stream(quick: bool, repeats: int) -> dict:
    """Full-budget Table 5: command-stream machine vs heapq kernel.

    The acceptance criterion of ``repro.engines`` lives here: results
    must be identical and the machine at least 3x faster *at the full
    budget* -- so the budget is never shrunk; ``--quick`` only lowers
    the repeat count (the pair costs a few seconds).
    """
    runner = Runner()
    table5_repeats = 1 if quick else repeats
    ref_s, ref_result = _best_of(
        lambda: runner.run("table5", engine="reference"), table5_repeats)
    fast_s, fast_result = _best_of(
        lambda: runner.run("table5", engine="fast"), table5_repeats)
    if fast_result.metrics != ref_result.metrics:
        raise SystemExit(
            "bench_table5_stream: engines disagree on simulated values")
    # Sanity: linear-region rows must stay near the paper (the knee rows
    # near saturation are calibration-sensitive and are not re-gated
    # here -- the accuracy suite owns them).
    for load, row in paper.PAPER_TABLE5.items():
        if load > 4.5:
            continue
        total_ours = fast_result.metrics[f"load{load}"][3]
        if abs(total_ours - row[3]) / row[3] > 0.15:
            raise SystemExit(
                f"bench_table5_stream: load={load} total drifted from the "
                f"paper ({total_ours:.1f} vs {row[3]:.1f} cycles)")
    return {
        "reference_s": round(ref_s, 4),
        "fast_s": round(fast_s, 4),
        "speedup": round(ref_s / fast_s, 2),
        "identical_results": True,
        "budget": "full",
        "reference_engine": "DES kernel (sim.kernel.Simulator)",
        "fast_engine": "command-stream machine (repro.engines.StreamMms)",
    }


def bench_ablation_threads(quick: bool, repeats: int) -> dict:
    """IXP multithreading ablation scenario: IXP machine vs heapq kernel."""
    runner = Runner()

    def sweep(engine: str):
        return runner.run("ablation-multithreading", fast=quick,
                          engine=engine)

    ref_s, ref_result = _best_of(lambda: sweep("reference"), repeats)
    fast_s, fast_result = _best_of(lambda: sweep("fast"), repeats)
    if fast_result.metrics != ref_result.metrics:
        raise SystemExit(
            "bench_ablation_threads: engines disagree on simulated rates")
    return {
        "reference_s": round(ref_s, 4),
        "fast_s": round(fast_s, 4),
        "speedup": round(ref_s / fast_s, 2),
        "identical_results": True,
        "reference_engine": "DES kernel (sim.kernel.Simulator)",
        "fast_engine": "DES-free IXP machine (ixp.machine.IxpMachine)",
    }


def bench_overload(quick: bool, repeats: int) -> dict:
    """Overload policy scenario on both engines.

    Records the policy-scenario provenance (policy family, traffic
    shape, drop/accept counters) alongside the usual engine timings and
    enforces that both engines report byte-identical counters.
    """
    runner = Runner()
    name = "overload-lqd-burst"

    def run(engine: str):
        return runner.run(name, fast=quick, engine=engine)

    ref_s, ref_result = _best_of(lambda: run("reference"), repeats)
    fast_s, fast_result = _best_of(lambda: run("fast"), repeats)
    if fast_result.metrics != ref_result.metrics:
        raise SystemExit(
            "bench_overload: engines disagree on drop/accept counters")
    m = fast_result.metrics
    return {
        "reference_s": round(ref_s, 4),
        "fast_s": round(fast_s, 4),
        "speedup": round(ref_s / fast_s, 2),
        "identical_results": True,
        "reference_engine": "DES kernel (sim.kernel.Simulator)",
        "fast_engine": "command-stream machine (repro.engines.StreamMms)",
        "scenario": name,
        "policy": m["policy"],
        "shape": m["shape"],
        "counters": {
            "offered_segments": m["offered_segments"],
            "accepted_segments": m["accepted_segments"],
            "dropped_segments": m["dropped_segments"],
            "pushed_out_segments": m["pushed_out_segments"],
            "drop_rate": round(m["drop_rate"], 4),
        },
    }


def _assert_probes_structurally_absent() -> None:
    """The real structural-absence check (timings cannot see it).

    With no probe, the telemetry layer must leave zero call sites on
    the hot paths: the kernel DQM must not have the probed dispatch
    installed as an instance attribute (nor any finalize override), and
    the stream machine must carry no probe.  With a probe, the dispatch
    swap must be in place.  A per-command ``if probe is not None`` creeping
    back into the execute path would pass any same-code timing
    comparison -- this assertion is what fails instead.
    """
    from repro.core.mms import MMS, MmsConfig
    from repro.engines import StreamMms
    from repro.telemetry import MmsTelemetry

    cfg = MmsConfig(num_flows=16, num_segments=64, num_descriptors=64)
    plain = MMS(cfg)
    if "_dispatch" in plain.dqm.__dict__ or "_finalize" in plain.dqm.__dict__:
        raise SystemExit(
            "bench_telemetry: probes-off DQM carries probed variants")
    probed = MMS(cfg, probe=MmsTelemetry())
    if "_dispatch" not in probed.dqm.__dict__:
        raise SystemExit(
            "bench_telemetry: probed DQM did not swap in its dispatch")
    if StreamMms(cfg).probe is not None:
        raise SystemExit("bench_telemetry: probes-off StreamMms has a probe")


def bench_telemetry(quick: bool, repeats: int, table5: dict) -> dict:
    """Telemetry cost contract on full-budget Table 5 (stream engine).

    Two checks and two recordings.  Checks: probes-off is *structural
    absence* (:func:`_assert_probes_structurally_absent` -- the check a
    timing cannot make, since the disabled path is byte-identical code
    to the pre-telemetry baseline), and the 3x stream floor still holds
    with probes disabled.  Recordings: the telemetry-off overhead
    against a plain run (interleaved A/B best-of so machine drift
    cancels; gated at 2%, which bounds residual noise plus any
    disabled-path cost that ever appears) and the probes-on overhead
    (not gated -- probing disables the stream engine's inlined opcode
    branches by design).  Probing must not perturb simulated results.
    Always full budget; --quick only lowers the repeat count (floored
    at 3 so best-of is meaningful).
    """
    _assert_probes_structurally_absent()
    runner = Runner()
    tele_repeats = max(3, 1 if quick else repeats)
    # interleave the plain and telemetry-off timings (same invocation
    # by construction; alternating cancels warm-up/throttle drift that
    # a comparison against bench_table5_stream's earlier number had)
    base_s = off_s = float("inf")
    off_result = None
    for _ in range(tele_repeats):
        t0 = time.perf_counter()
        runner.run("table5", engine="fast")
        base_s = min(base_s, time.perf_counter() - t0)
        t0 = time.perf_counter()
        off_result = runner.run("table5", engine="fast")
        off_s = min(off_s, time.perf_counter() - t0)
    on_s, on_result = _best_of(
        lambda: runner.run("table5", engine="fast", telemetry=True),
        tele_repeats)
    on_metrics = dict(on_result.metrics)
    telemetry_payload = on_metrics.pop("telemetry")
    if on_metrics != off_result.metrics:
        raise SystemExit(
            "bench_telemetry: probing perturbed the simulated results")
    if not telemetry_payload:
        raise SystemExit("bench_telemetry: telemetry run carried no payload")
    off_overhead = off_s / base_s - 1.0
    stream_floor_off = table5["reference_s"] / off_s
    return {
        "plain_s": round(base_s, 4),
        "telemetry_off_s": round(off_s, 4),
        "telemetry_on_s": round(on_s, 4),
        "off_overhead": round(off_overhead, 4),
        "on_overhead": round(on_s / base_s - 1.0, 4),
        "stream_speedup_with_telemetry_off": round(stream_floor_off, 2),
        "structurally_absent_when_disabled": True,
        "identical_results": True,
        "budget": "full",
        "engine": "command-stream machine (repro.engines.StreamMms)",
    }


def _assert_stage_hooks_structurally_absent() -> None:
    """The tracer's structural-absence check.

    The DQM has one finalize (it appends the command's record; the
    ``on_record``/``on_stages`` channels are replayed from those
    records after the run) and one probed dispatch, picked once at
    construction time.  A telemetry probe and a span tracer must both
    get exactly that dispatch and no finalize override: a per-command
    ``if wants_stages`` or a stage hook creeping into the execute path
    would pass any timing comparison -- this assertion is what fails
    instead.
    """
    from repro.core.dqm import DataQueueManager
    from repro.core.mms import MMS, MmsConfig
    from repro.telemetry import MmsTelemetry
    from repro.trace import TraceCollector, TraceSpec

    cfg = MmsConfig(num_flows=16, num_segments=64, num_descriptors=64)
    for probe in (MmsTelemetry(), TraceCollector(TraceSpec())):
        dqm = MMS(cfg, probe=probe).dqm
        if dqm._dispatch.__func__ \
                is not DataQueueManager._dispatch_probed \
                or "_finalize" in dqm.__dict__:
            raise SystemExit(
                f"bench_trace: {type(probe).__name__} DQM left the "
                f"probed dispatch / plain finalize path")


def bench_trace(quick: bool, repeats: int, table5: dict) -> dict:
    """Span-tracing cost contract on full-budget Table 5 (stream engine).

    Mirrors :func:`bench_telemetry` for the tracer: the structural
    check above, an interleaved plain vs trace-off A/B (gated at 2%),
    the trace-on overhead recorded for the trajectory (not gated --
    tracing implies probing, which disables the inlined opcode
    branches), results unperturbed, and the 3x stream floor intact
    with tracing disabled.
    """
    _assert_stage_hooks_structurally_absent()
    runner = Runner()
    # the A/B legs are *identical invocations* (no probe either way), so
    # any measured gap is machine noise: best-of-5 floors it and the
    # alternating leg order cancels within-pair drift bias
    reps = max(5, 1 if quick else repeats)
    base_s = off_s = float("inf")
    off_result = None
    for i in range(reps):
        for leg in ("base", "off") if i % 2 == 0 else ("off", "base"):
            t0 = time.perf_counter()
            result = runner.run("table5", engine="fast")
            elapsed = time.perf_counter() - t0
            if leg == "base":
                base_s = min(base_s, elapsed)
            else:
                off_s = min(off_s, elapsed)
                off_result = result
    on_s, on_result = _best_of(
        lambda: runner.run("table5", engine="fast", trace=True), reps)
    on_metrics = dict(on_result.metrics)
    trace_payload = on_metrics.pop("trace")
    if on_metrics != off_result.metrics:
        raise SystemExit(
            "bench_trace: tracing perturbed the simulated results")
    spans = sum(t["counters"]["spans"] for t in trace_payload.values())
    if not spans:
        raise SystemExit("bench_trace: traced run recorded no spans")
    return {
        "plain_s": round(base_s, 4),
        "trace_off_s": round(off_s, 4),
        "trace_on_s": round(on_s, 4),
        "off_overhead": round(off_s / base_s - 1.0, 4),
        "on_overhead": round(on_s / base_s - 1.0, 4),
        "stream_speedup_with_trace_off": round(
            table5["reference_s"] / off_s, 2),
        "spans": spans,
        "structurally_absent_when_disabled": True,
        "identical_results": True,
        "budget": "full",
        "engine": "command-stream machine (repro.engines.StreamMms)",
    }


def _assert_monitor_structurally_absent() -> None:
    """The monitoring layer's structural-absence check.

    Monitoring is slow-path machinery behind explicit knobs
    (``Runner(events=...)``, ``resources=True``, journaled pool
    sweeps); a plain run must not merely skip it but never import it.
    A stray top-level ``import repro.monitor`` creeping into the
    runner, the engines or the scenario registry would pass any timing
    comparison -- this assertion is what fails instead.  It must run
    before the monitored leg below pulls the module in for real.
    """
    Runner().run("table5", engine="fast")
    offenders = [m for m in sys.modules
                 if m == "repro.monitor" or m.startswith("repro.monitor.")]
    if offenders:
        raise SystemExit(
            f"bench_monitor: plain run imported {sorted(offenders)} "
            f"(monitoring must be structurally absent when disabled)")


def bench_monitor(quick: bool, repeats: int, table5: dict) -> dict:
    """Monitoring cost contract on full-budget Table 5 (stream engine).

    Mirrors :func:`bench_telemetry` / :func:`bench_trace` for the
    monitoring layer: the structural sys.modules check above, an
    interleaved plain vs monitoring-off A/B (gated at 2%; the two legs
    are identical invocations, so the gate bounds timer noise plus any
    disabled-path cost that ever appears), and a monitored leg --
    resource profiling on, run lifecycle events to a sink -- whose
    overhead, event count and rusage profile are recorded for the
    trajectory (not gated).  Monitoring must not perturb simulated
    results.
    """
    _assert_monitor_structurally_absent()
    runner = Runner()
    reps = max(3, 1 if quick else repeats)
    base_s = off_s = float("inf")
    off_result = None
    for i in range(reps):
        for leg in ("base", "off") if i % 2 == 0 else ("off", "base"):
            t0 = time.perf_counter()
            result = runner.run("table5", engine="fast")
            elapsed = time.perf_counter() - t0
            if leg == "base":
                base_s = min(base_s, elapsed)
            else:
                off_s = min(off_s, elapsed)
                off_result = result

    import tempfile

    from repro.monitor.events import EventSink, read_events
    from repro.monitor.resources import validate_resources_dict

    with tempfile.TemporaryDirectory(prefix="repro-bench-monitor-") as tmp:
        events_file = str(Path(tmp) / "events.jsonl")
        with EventSink(events_file) as sink:
            monitored = Runner(events=sink)
            on_s, on_result = _best_of(
                lambda: monitored.run("table5", engine="fast",
                                      resources=True), reps)
        events = read_events(events_file, strict=True)
    if not any(e.kind == "run" and e.action == "finish" for e in events):
        raise SystemExit("bench_monitor: monitored run emitted no "
                         "run.finish event")
    on_metrics = dict(on_result.metrics)
    profile = on_metrics.pop("resources")
    problems = validate_resources_dict(profile)
    if problems:
        raise SystemExit(f"bench_monitor: invalid resource profile: "
                         f"{'; '.join(problems)}")
    if on_metrics != off_result.metrics:
        raise SystemExit(
            "bench_monitor: monitoring perturbed the simulated results")
    return {
        "plain_s": round(base_s, 4),
        "monitor_off_s": round(off_s, 4),
        "monitor_on_s": round(on_s, 4),
        "off_overhead": round(off_s / base_s - 1.0, 4),
        "on_overhead": round(on_s / base_s - 1.0, 4),
        "stream_speedup_with_monitor_off": round(
            table5["reference_s"] / off_s, 2),
        "events": len(events),
        "resources": {k: profile[k] for k in
                      ("cpu_user_s", "cpu_sys_s", "cpu_s", "max_rss_kb",
                       "wall_s")},
        "structurally_absent_when_disabled": True,
        "identical_results": True,
        "budget": "full",
        "engine": "command-stream machine (repro.engines.StreamMms)",
    }


def bench_serve(quick: bool, repeats: int) -> dict:
    """Serving-path cost on a live daemon: cached vs uncached requests.

    Boots a real :class:`~repro.serve.ServeServer` on an ephemeral
    port, runs ``latency-lqd-burst`` (fast budget) once uncached while
    consuming its frame stream, then hammers the content-addressed
    cache with resubmits -- each one a full submit + result-fetch HTTP
    round trip.  Gated: a cache hit must stay O(lookup), so the daemon
    has to sustain ``SERVE_CACHED_RPS_FLOOR`` cached requests/s.  Also
    proves the cache contract end to end: the cached ``RunResult``
    JSON must be byte-identical to a fresh run of the same
    (spec, seed, engine) executed by a second service with a cold
    cache.
    """
    import asyncio
    import tempfile
    import threading

    from repro.monitor.metrics import parse_prometheus_text
    from repro.serve import ScenarioService, ServeClient, ServeServer

    resubmits = 20 if quick else 50
    with tempfile.TemporaryDirectory(prefix="repro-bench-serve-") as tmp:
        service = ScenarioService(str(Path(tmp) / "spool"),
                                  cache_dir=str(Path(tmp) / "cache"))
        server = ServeServer(service, port=0, jobs=2)
        ready = threading.Event()

        def _loop():
            async def _main():
                await server.start()
                ready.set()
                await server.serve_until_shutdown()
            asyncio.run(_main())

        thread = threading.Thread(target=_loop, daemon=True)
        thread.start()
        if not ready.wait(30):
            raise SystemExit("bench_serve: daemon did not start")
        client = ServeClient("127.0.0.1", server.port, timeout_s=300.0)

        t0 = time.perf_counter()
        fresh, frames = client.run_and_wait("latency-lqd-burst",
                                            budget="fast")
        uncached_s = time.perf_counter() - t0
        if not frames or frames[-1]["type"] != "done":
            raise SystemExit("bench_serve: stream delivered no done frame")

        cached = None
        t0 = time.perf_counter()
        for _ in range(resubmits):
            summary = client.submit("latency-lqd-burst", budget="fast")
            if not summary["cached"]:
                raise SystemExit("bench_serve: a resubmit missed the cache")
            cached = client.result(summary["run_id"])
        cached_elapsed = time.perf_counter() - t0
        if json.dumps(cached, sort_keys=True) != \
                json.dumps(fresh, sort_keys=True):
            raise SystemExit(
                "bench_serve: cached result diverged from the fresh run")

        values = parse_prometheus_text(client.metrics_text())
        hits = values["repro_serve_cache_hits_total"]
        misses = values["repro_serve_cache_misses_total"]
        client.shutdown()
        thread.join(60)
        if thread.is_alive():
            raise SystemExit("bench_serve: daemon did not shut down")

        # byte-identity against a genuinely fresh run: a second service
        # with a cold cache must reproduce the exact same JSON
        cold = ScenarioService(str(Path(tmp) / "spool2"),
                               cache_dir=str(Path(tmp) / "cache2"))
        record = cold.submit("latency-lqd-burst", budget="fast")
        cold.execute(record.run_id)
        refreshed = cold.result(record.run_id)
        if json.dumps(refreshed, sort_keys=True) != \
                json.dumps(fresh, sort_keys=True):
            raise SystemExit("bench_serve: a cold-cache rerun did not "
                             "reproduce the served result byte for byte")

    return {
        "uncached_run_s": round(uncached_s, 4),
        "uncached_requests_per_s": round(1.0 / uncached_s, 2),
        "cached_requests_per_s": round(resubmits / cached_elapsed, 2),
        "cached_request_s": round(cached_elapsed / resubmits, 5),
        "resubmits": resubmits,
        "cache_hit_rate": round(hits / (hits + misses), 4),
        "stream_frames": len(frames),
        "byte_identical_cached_vs_fresh": True,
        "scenario": "latency-lqd-burst (fast budget)",
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--output", default=str(REPO_ROOT / "BENCH_1.json"),
                    help="trajectory file to append to (default: BENCH_1.json)")
    ap.add_argument("--quick", action="store_true",
                    help="CI smoke subset: shrunken workloads, 1 repeat")
    ap.add_argument("--repeats", type=int, default=None,
                    help="timing repeats per engine (best-of; default 3, 1 with --quick)")
    args = ap.parse_args(argv)
    repeats = args.repeats or (1 if args.quick else 3)

    benches = {
        "bench_table1": bench_table1,
        "bench_table5_stream": bench_table5_stream,
        "bench_ablation_threads": bench_ablation_threads,
        "bench_overload": bench_overload,
    }
    results = {}
    for name, fn in benches.items():
        results[name] = fn(args.quick, repeats)
        r = results[name]
        print(f"{name}: reference={r['reference_s']}s fast={r['fast_s']}s "
              f"-> {r['speedup']}x")
    results["bench_telemetry"] = bench_telemetry(
        args.quick, repeats, results["bench_table5_stream"])
    t = results["bench_telemetry"]
    print(f"bench_telemetry: off={t['telemetry_off_s']}s "
          f"(overhead {t['off_overhead'] * 100:+.1f}%) "
          f"on={t['telemetry_on_s']}s "
          f"(overhead {t['on_overhead'] * 100:+.1f}%)")
    results["bench_trace"] = bench_trace(
        args.quick, repeats, results["bench_table5_stream"])
    tr = results["bench_trace"]
    print(f"bench_trace: off={tr['trace_off_s']}s "
          f"(overhead {tr['off_overhead'] * 100:+.1f}%) "
          f"on={tr['trace_on_s']}s "
          f"(overhead {tr['on_overhead'] * 100:+.1f}%, "
          f"{tr['spans']} spans)")
    results["bench_monitor"] = bench_monitor(
        args.quick, repeats, results["bench_table5_stream"])
    mo = results["bench_monitor"]
    print(f"bench_monitor: off={mo['monitor_off_s']}s "
          f"(overhead {mo['off_overhead'] * 100:+.1f}%) "
          f"on={mo['monitor_on_s']}s "
          f"(overhead {mo['on_overhead'] * 100:+.1f}%, "
          f"{mo['events']} events, "
          f"cpu {mo['resources']['cpu_s']:.2f}s, "
          f"rss {mo['resources']['max_rss_kb'] // 1024}MB)")
    results["bench_serve"] = bench_serve(args.quick, repeats)
    sv = results["bench_serve"]
    print(f"bench_serve: uncached={sv['uncached_run_s']}s "
          f"cached={sv['cached_requests_per_s']} req/s "
          f"(hit rate {sv['cache_hit_rate'] * 100:.0f}%, "
          f"{sv['stream_frames']} frames streamed)")

    entry = {
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "python": platform.python_version(),
        "quick": args.quick,
        "repeats": repeats,
        "benchmarks": results,
    }
    out = Path(args.output)
    trajectory = {"schema": 1, "runs": []}
    if out.exists():
        try:
            trajectory = json.loads(out.read_text())
        except json.JSONDecodeError:
            print(f"warning: {out} was unreadable, starting fresh")
    trajectory.setdefault("runs", []).append(entry)
    from repro.checkpoint.atomic import write_text_atomic
    write_text_atomic(str(out), json.dumps(trajectory, indent=2) + "\n")
    print(f"appended run #{len(trajectory['runs'])} to {out}")

    headline = results["bench_table1"]["speedup"]
    if headline < TABLE1_SPEEDUP_FLOOR:
        print(f"FAIL: bench_table1 speedup {headline}x is below the "
              f"{TABLE1_SPEEDUP_FLOOR}x floor", file=sys.stderr)
        return 1
    stream = results["bench_table5_stream"]["speedup"]
    if stream < TABLE5_STREAM_SPEEDUP_FLOOR:
        print(f"FAIL: bench_table5_stream speedup {stream}x is below the "
              f"{TABLE5_STREAM_SPEEDUP_FLOOR}x floor", file=sys.stderr)
        return 1
    tele = results["bench_telemetry"]
    if tele["off_overhead"] > TELEMETRY_OFF_OVERHEAD_CEILING:
        # The structural-absence assertion inside bench_telemetry is
        # the real regression detector; this wall-clock comparison of
        # two identical invocations mostly bounds timer noise.  Hard
        # failure only on full runs (quiet machines, best-of >= 3);
        # --quick CI runners get a warning, not a red build.
        msg = (f"telemetry-off overhead {tele['off_overhead'] * 100:.1f}% "
               f"exceeds the {TELEMETRY_OFF_OVERHEAD_CEILING * 100:.0f}% "
               f"ceiling (probes must be structurally absent when disabled)")
        if args.quick:
            print(f"WARNING: {msg} -- likely runner noise; the structural "
                  f"check passed", file=sys.stderr)
        else:
            print(f"FAIL: {msg}", file=sys.stderr)
            return 1
    if tele["stream_speedup_with_telemetry_off"] < TABLE5_STREAM_SPEEDUP_FLOOR:
        print(f"FAIL: stream speedup with telemetry disabled "
              f"{tele['stream_speedup_with_telemetry_off']}x is below the "
              f"{TABLE5_STREAM_SPEEDUP_FLOOR}x floor", file=sys.stderr)
        return 1
    trace = results["bench_trace"]
    if trace["off_overhead"] > TRACE_OFF_OVERHEAD_CEILING:
        msg = (f"trace-off overhead {trace['off_overhead'] * 100:.1f}% "
               f"exceeds the {TRACE_OFF_OVERHEAD_CEILING * 100:.0f}% "
               f"ceiling (stage hooks must be structurally absent when "
               f"disabled)")
        if args.quick:
            print(f"WARNING: {msg} -- likely runner noise; the structural "
                  f"check passed", file=sys.stderr)
        else:
            print(f"FAIL: {msg}", file=sys.stderr)
            return 1
    if trace["stream_speedup_with_trace_off"] < TABLE5_STREAM_SPEEDUP_FLOOR:
        print(f"FAIL: stream speedup with tracing disabled "
              f"{trace['stream_speedup_with_trace_off']}x is below the "
              f"{TABLE5_STREAM_SPEEDUP_FLOOR}x floor", file=sys.stderr)
        return 1
    monitor = results["bench_monitor"]
    if monitor["off_overhead"] > MONITOR_OFF_OVERHEAD_CEILING:
        msg = (f"monitor-off overhead {monitor['off_overhead'] * 100:.1f}% "
               f"exceeds the {MONITOR_OFF_OVERHEAD_CEILING * 100:.0f}% "
               f"ceiling (monitoring must be structurally absent when "
               f"disabled)")
        if args.quick:
            print(f"WARNING: {msg} -- likely runner noise; the structural "
                  f"check passed", file=sys.stderr)
        else:
            print(f"FAIL: {msg}", file=sys.stderr)
            return 1
    if monitor["stream_speedup_with_monitor_off"] \
            < TABLE5_STREAM_SPEEDUP_FLOOR:
        print(f"FAIL: stream speedup with monitoring disabled "
              f"{monitor['stream_speedup_with_monitor_off']}x is below the "
              f"{TABLE5_STREAM_SPEEDUP_FLOOR}x floor", file=sys.stderr)
        return 1
    serve_rps = results["bench_serve"]["cached_requests_per_s"]
    if serve_rps < SERVE_CACHED_RPS_FLOOR:
        print(f"FAIL: bench_serve cached throughput {serve_rps} req/s is "
              f"below the {SERVE_CACHED_RPS_FLOOR} req/s floor (a cache "
              f"hit must stay O(lookup), never a re-simulation)",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
