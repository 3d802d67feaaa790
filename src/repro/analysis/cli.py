"""Command-line entry point: ``repro-analysis`` / ``python -m repro.analysis``.

The CLI is a thin front-end over the scenario registry
(:mod:`repro.scenarios`)::

    repro-analysis list                         # every scenario
    repro-analysis list --kind sweep            # one category
    repro-analysis list --kind overload --json -  # machine-readable
    repro-analysis run table1 --engine reference --seed 7
    repro-analysis run all --fast --json out.json
    repro-analysis sweep all --fast             # just the sweeps
    repro-analysis sweep all --jobs 4 --timeout 300 --retries 2
    repro-analysis run all --journal .journal   # crash-safe resume
    repro-analysis checkpoint-run latency-lqd-burst \\
        --checkpoint-every 2000000000 --checkpoint-dir ckpts
    repro-analysis checkpoint-run --resume-from ckpts/latency-....json
    repro-analysis run latency-lqd-burst --trace --json run.json
    repro-analysis run table5 --resources --json run.json  # rusage profile
    repro-analysis trace-export run.json trace.json   # -> ui.perfetto.dev
    repro-analysis trace-diff a.json b.json           # first divergence
    repro-analysis report run.json                    # human summary
    repro-analysis watch .journal                     # live sweep progress
    repro-analysis watch --once .journal              # one render, exit
    repro-analysis sweep-status .journal              # one-shot summary
    repro-analysis sweep-status .journal --prometheus -  # metrics text
    repro-analysis report .journal                    # sweep timeline

``run``/``sweep`` accept ``--engine fast|reference`` and ``--seed N``;
each scenario honors the knobs it declares (closed-form scenarios have
no engine, for example) and silently keeps its defaults for the rest.
``--json PATH`` additionally writes the typed results (schema-valid
:class:`repro.scenarios.RunResult` dicts) to a file, or to stdout with
``--json -``; file writes are atomic (temp + rename), so a crash never
leaves a torn document.

Robustness (:mod:`repro.checkpoint`): ``--jobs N`` runs scenarios on a
fault-tolerant process pool with per-scenario ``--timeout``, bounded
``--retries`` with ``--backoff``, and worker-crash recovery;
``--journal DIR`` persists each finished scenario atomically so an
interrupted ``run all``/``sweep`` resumes by skipping completed work.
``SIGINT``/``SIGTERM`` drain gracefully (finished results are kept) and
exit ``128 + signum``; partial failures print a per-scenario table on
stderr and exit 3.  ``checkpoint-run`` drives a single simulation with
periodic state checkpoints and can resume one from its JSON file.

Monitoring (:mod:`repro.monitor`): journaled sweeps stream structured
lifecycle events to ``DIR/events.jsonl``; ``watch`` renders a live (or
``--once``) per-task progress table from the journal, ``sweep-status``
prints a one-shot summary with optional JSON / Prometheus-text metrics
exposition, and ``report DIR`` (or ``report events.jsonl``) renders the
sweep timeline with per-task wall/CPU and retry provenance.
``--resources`` profiles each scenario's rusage delta into
``metrics.resources``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal as _signal
import sys
from typing import Any, Dict, List, Optional

from repro.scenarios import (
    ENGINES,
    KINDS,
    Runner,
    all_scenarios,
    render,
    scenario_names,
    scenarios_of_kind,
)
#: Envelope schema version for --json documents.
DOCUMENT_SCHEMA = 1

#: Exit code for a run/sweep that finished with per-scenario failures.
EXIT_PARTIAL_FAILURE = 3


# ---------------------------------------------------- flag validators
#
# Parse-time validation (mirroring TrafficSpec.pattern's style): reject
# nonsense with a message naming the constraint, before any scenario
# runs.

def _jobs_value(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be >= 1 (a pool needs at least one worker), got {value}")
    return value


def _timeout_value(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be a number of seconds, got {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"must be positive (a zero/negative timeout would kill every "
            f"task at start), got {value}")
    return value


def _retries_value(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be an integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be >= 0 (0 disables retry), got {value}")
    return value


def _backoff_value(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be a number of seconds, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be >= 0, got {value}")
    return value


def _period_ps_value(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be an integer picosecond count, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be >= 1 ps, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-analysis",
        description=(
            "Regenerate the tables, figures, sweeps and ablations of "
            "'Queue Management in Network Processors' (DATE 2005) from "
            "the behavioral models."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="enumerate registered scenarios")
    p_list.add_argument("--kind", choices=KINDS, default=None,
                        help="only scenarios of one category")
    p_list.add_argument("--json", dest="json_path", metavar="PATH",
                        default=None,
                        help="write the listing as JSON ('-' for stdout) "
                             "instead of the text table")

    def add_jobs_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--jobs", type=_jobs_value, default=1, metavar="N",
                       help="run scenarios on a fault-tolerant process "
                            "pool of N workers (results stay in scenario "
                            "order and are seed-deterministic; crashed "
                            "workers are re-queued; default: 1, "
                            "in-process)")
        p.add_argument("--timeout", type=_timeout_value, default=None,
                       metavar="SECONDS",
                       help="per-scenario wall-clock budget on the pool; "
                            "a scenario exceeding it is terminated and "
                            "retried (default: none)")
        p.add_argument("--retries", type=_retries_value, default=1,
                       metavar="N",
                       help="re-queue a crashed/timed-out/failed scenario "
                            "up to N more times (default: 1)")
        p.add_argument("--backoff", type=_backoff_value, default=0.1,
                       metavar="SECONDS",
                       help="delay before a retry, scaled by the attempt "
                            "number (default: 0.1)")
        p.add_argument("--fault-plan", metavar="PATH", default=None,
                       help="inject deterministic worker faults from a "
                            "JSON plan (CI recovery smoke; see "
                            "repro.checkpoint.faults)")

    def add_run_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--fast", action="store_true",
                       help="fast run-length budget (CI mode; noisier numbers)")
        p.add_argument("--engine", choices=ENGINES, default=None,
                       help="execution engine for scenarios that support it")
        p.add_argument("--seed", type=int, default=None,
                       help="RNG seed for scenarios that support it")
        p.add_argument("--json", dest="json_path", metavar="PATH",
                       default=None,
                       help="write typed results as JSON ('-' for stdout)")
        p.add_argument("--telemetry", action="store_true",
                       help="enable streaming telemetry (latency "
                            "histograms, occupancy series) for scenarios "
                            "that support it; the snapshot lands in "
                            "metrics.telemetry of the --json document")
        p.add_argument("--trace", action="store_true",
                       help="enable per-packet lifecycle span tracing "
                            "for scenarios that support it; the snapshot "
                            "lands in metrics.trace of the --json "
                            "document (see trace-export / trace-diff)")
        p.add_argument("--journal", dest="journal_dir", metavar="DIR",
                       default=None,
                       help="persist each finished scenario atomically to "
                            "DIR and skip already-journaled scenarios "
                            "(crash-safe resume of run all / sweep); also "
                            "streams lifecycle events to DIR/events.jsonl "
                            "for `watch` / `sweep-status`")
        p.add_argument("--resources", action="store_true",
                       help="profile each scenario's rusage delta (CPU "
                            "seconds, max RSS, wall) into "
                            "metrics.resources of the result")
        p.add_argument("--quiet", action="store_true",
                       help="suppress the rendered tables")

    p_run = sub.add_parser("run", help="run one scenario (or 'all')")
    p_run.add_argument("scenario",
                       choices=scenario_names() + ["all"],
                       help="which scenario to run")
    add_run_flags(p_run)
    add_jobs_flags(p_run)

    sweep_names = [s.spec.name for s in scenarios_of_kind("sweep")]
    p_sweep = sub.add_parser("sweep",
                             help="run one parameter sweep (or 'all')")
    p_sweep.add_argument("scenario", choices=sweep_names + ["all"],
                         help="which sweep to run")
    add_run_flags(p_sweep)
    add_jobs_flags(p_sweep)

    ckpt_names = [s.spec.name for s in all_scenarios().values()
                  if s.spec.kind in ("overload", "latency")]
    p_ckpt = sub.add_parser(
        "checkpoint-run",
        help="run one simulation with periodic state checkpoints, or "
             "resume one from a checkpoint file")
    p_ckpt.add_argument("scenario", nargs="?", choices=ckpt_names,
                        help="which scenario to run (omit with "
                             "--resume-from)")
    p_ckpt.add_argument("--resume-from", metavar="PATH", default=None,
                        help="continue from a checkpoint file instead of "
                             "starting fresh")
    p_ckpt.add_argument("--seed", type=int, default=None,
                        help="policy RNG seed")
    p_ckpt.add_argument("--fast", action="store_true",
                        help="fast run-length budget")
    p_ckpt.add_argument("--checkpoint-every", type=_period_ps_value,
                        metavar="PS", default=None,
                        help="checkpoint the simulation every PS "
                             "picoseconds of simulated time")
    p_ckpt.add_argument("--checkpoint-dir", metavar="DIR", default=".",
                        help="where checkpoint files land (default: .)")
    p_ckpt.add_argument("--json", dest="json_path", metavar="PATH",
                        default=None,
                        help="write the run summary as JSON ('-' for "
                             "stdout)")
    p_ckpt.add_argument("--events", dest="events_path", metavar="PATH",
                        default=None,
                        help="append checkpoint lifecycle events "
                             "(start/progress/finish) to an events.jsonl "
                             "file at PATH")
    p_ckpt.add_argument("--quiet", action="store_true",
                        help="suppress the result summary")

    p_texp = sub.add_parser(
        "trace-export",
        help="convert a traced run/result document to Chrome trace-event "
             "JSON (viewable at https://ui.perfetto.dev)")
    p_texp.add_argument("input", help="run/result/trace JSON document "
                                      "(from run --trace --json)")
    p_texp.add_argument("output", help="Chrome trace-event JSON path "
                                       "(atomic write)")
    p_texp.add_argument("--label", default=None, metavar="NAME",
                        help="which trace to export when the document "
                             "carries several (labels are listed on "
                             "error)")

    p_tdiff = sub.add_parser(
        "trace-diff",
        help="locate the first divergent span between two traced "
             "documents (exit 0 identical, 1 divergent, 2 error)")
    p_tdiff.add_argument("a", help="first run/result/trace JSON document")
    p_tdiff.add_argument("b", help="second run/result/trace JSON document")
    p_tdiff.add_argument("--label", default=None, metavar="NAME",
                         help="which trace to compare when a document "
                              "carries several")
    p_tdiff.add_argument("--context", type=int, default=3, metavar="N",
                         help="surrounding spans to show around the "
                              "divergence (default: 3)")

    p_report = sub.add_parser(
        "report",
        help="render a human-readable summary of any results document "
             "(telemetry percentiles, cycle attribution, drops), or of "
             "a journal directory / events.jsonl (sweep timeline)")
    p_report.add_argument("input",
                          help="run/result/trace JSON document, journal "
                               "directory, or events.jsonl file")

    p_watch = sub.add_parser(
        "watch",
        help="live per-task progress table for a journaled sweep "
             "(reads DIR/events.jsonl; refreshes until the sweep "
             "finishes)")
    p_watch.add_argument("journal_dir", metavar="JOURNAL_DIR",
                         help="the sweep's --journal directory")
    p_watch.add_argument("--once", action="store_true",
                         help="render the table once and exit")
    p_watch.add_argument("--interval", type=_timeout_value, default=2.0,
                         metavar="SECONDS",
                         help="refresh period (default: 2)")

    p_status = sub.add_parser(
        "sweep-status",
        help="one-shot summary of a journaled sweep, with optional "
             "metrics exposition")
    p_status.add_argument("journal_dir", metavar="JOURNAL_DIR",
                          help="the sweep's --journal directory")
    p_status.add_argument("--json", dest="json_path", metavar="PATH",
                          default=None,
                          help="also write the status + metrics document "
                               "as JSON ('-' for stdout)")
    p_status.add_argument("--prometheus", dest="prometheus_path",
                          metavar="PATH", default=None,
                          help="also write the metrics in Prometheus "
                               "text exposition format ('-' for stdout)")

    p_serve = sub.add_parser(
        "serve",
        help="long-running scenario-serving daemon: POST /runs, live "
             "chunked frame streaming at /runs/<id>/stream, Prometheus "
             "/metrics, content-addressed result cache")
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="bind address (default: 127.0.0.1)")
    p_serve.add_argument("--port", type=int, default=8787,
                         help="bind port; 0 picks an ephemeral one "
                              "(default: 8787)")
    p_serve.add_argument("--jobs", type=_jobs_value, default=2,
                         metavar="N",
                         help="concurrently executing runs (each run "
                              "still gets its own fault-isolated worker "
                              "process; default: 2)")
    p_serve.add_argument("--spool-dir", metavar="DIR", default=None,
                         help="per-run journal/frames directory "
                              "(default: a fresh temporary directory)")
    p_serve.add_argument("--cache-dir", metavar="DIR", default=None,
                         help="content-addressed result cache location "
                              "(default: SPOOL_DIR/cache; point at a "
                              "persistent path to reuse results across "
                              "daemon restarts)")
    p_serve.add_argument("--publish-every", type=_jobs_value,
                         metavar="N", default=None,
                         help="worker publishes a telemetry frame every "
                              "N dispatched commands (default: 256)")
    p_serve.add_argument("--timeout", type=_timeout_value, default=None,
                         metavar="SECONDS",
                         help="per-run wall-clock budget; an exceeding "
                              "run is terminated and retried "
                              "(default: none)")
    p_serve.add_argument("--retries", type=_retries_value, default=1,
                         metavar="N",
                         help="re-run a crashed/timed-out run up to N "
                              "more times (default: 1)")
    p_serve.add_argument("--quiet", action="store_true",
                         help="suppress the listening/shutdown banner")

    return parser


def _write_document(json_path: str, doc: Dict[str, Any]) -> None:
    """Emit a --json document ('-' = stdout, else an atomic file
    write: a crash mid-write never leaves a torn document)."""
    text = json.dumps(doc, indent=2) + "\n"
    if json_path == "-":
        sys.stdout.write(text)
    else:
        from repro.checkpoint.atomic import write_text_atomic
        write_text_atomic(json_path, text)


def _cmd_list(args: argparse.Namespace) -> int:
    specs = [scenario.spec for scenario in all_scenarios().values()
             if not args.kind or scenario.spec.kind == args.kind]
    specs.sort(key=lambda s: (KINDS.index(s.kind), s.name))
    if args.json_path is not None:
        doc = {
            "schema": DOCUMENT_SCHEMA,
            "scenarios": [{
                "name": spec.name,
                "kind": spec.kind,
                "workload": spec.workload,
                "title": spec.title,
                "description": spec.description,
                "supports": sorted(spec.supports),
                "fastpath": spec.fastpath,
                "telemetry": spec.telemetry is not None,
                "trace": spec.trace is not None,
                "engine": spec.effective_engine,
                "budget": spec.budget,
                "seed": spec.seed,
            } for spec in specs],
        }
        _write_document(args.json_path, doc)
        return 0
    rows = [(spec.name, spec.kind, spec.workload,
             ",".join(sorted(spec.supports)) or "-", spec.description)
            for spec in specs]
    widths = [max(len(str(r[i])) for r in rows) for i in range(4)]
    for r in rows:
        print(f"{r[0]:<{widths[0]}}  {r[1]:<{widths[1]}}  "
              f"{r[2]:<{widths[2]}}  {r[3]:<{widths[3]}}  {r[4]}")
    return 0


def _run_one_serialized(payload) -> dict:
    """Run one scenario in a pool worker; returns the serialized result.

    Module-level (picklable) on purpose; seeds and the parent's import
    path travel with the payload, so a pool run is exactly as
    deterministic as a serial one.
    """
    paths, name, engine, seed, fast, telemetry, trace, resources = payload
    sys.path[:] = paths
    result = Runner().run(name, engine=engine, seed=seed, fast=fast,
                          telemetry=telemetry, trace=trace,
                          resources=resources)
    return result.to_dict()


def _print_failures(failures) -> None:
    """The per-scenario failure table, on stderr."""
    print("\nFAILED SCENARIOS", file=sys.stderr)
    width = max(len(f.name) for f in failures)
    profiled = any(getattr(f, "cpu_s", None) is not None
                   or getattr(f, "max_rss_kb", None) is not None
                   for f in failures)
    for f in failures:
        wall = getattr(f, "wall_clock_s", None)
        wall_text = "-" if wall is None else f"{wall:.2f}s"
        usage = ""
        if profiled:
            cpu = getattr(f, "cpu_s", None)
            rss = getattr(f, "max_rss_kb", None)
            cpu_text = "-" if cpu is None else f"{cpu:.2f}s"
            rss_text = "-" if not rss else f"{rss / 1024:.0f}MB"
            usage = f"cpu={cpu_text:<8} rss={rss_text:<7} "
        print(f"  {f.name:<{width}}  attempts={f.attempts}  "
              f"wall={wall_text:<9} {usage} {f.reason}",
              file=sys.stderr)


def _cmd_run(args: argparse.Namespace, names: List[str]) -> int:
    from repro.checkpoint.pool import TaskFailure, run_tasks
    from repro.scenarios import RunResult

    jobs = getattr(args, "jobs", 1)
    resources = getattr(args, "resources", False)
    payloads = [(list(sys.path), name, args.engine, args.seed,
                 args.fast or None, args.telemetry or None,
                 args.trace or None, resources)
                for name in names]

    pool_resources: Dict[str, Any] = {}
    if jobs > 1 and len(names) > 1:
        outcome = run_tasks(
            _run_one_serialized, list(zip(names, payloads)),
            jobs=min(jobs, len(names)),
            timeout_s=getattr(args, "timeout", None),
            retries=getattr(args, "retries", 1),
            backoff_s=getattr(args, "backoff", 0.1),
            journal_dir=args.journal_dir,
            fault_plan=getattr(args, "fault_plan", None),
            resources=resources)
        results = [None if d is None else RunResult.from_dict(d)
                   for d in outcome.results]
        failures = outcome.failures
        interrupted = outcome.interrupted
        pool_resources = outcome.resources
    else:
        # serial path: same journal semantics, in-process execution
        results = [None] * len(names)
        failures = []
        interrupted = None
        journal = args.journal_dir
        if journal is not None:
            os.makedirs(journal, exist_ok=True)
        runner = Runner()
        for idx, (name, payload) in enumerate(zip(names, payloads)):
            doc = _journal_lookup(journal, name)
            if doc is not None:
                results[idx] = RunResult.from_dict(doc)
                continue
            try:
                result = runner.run(name, engine=args.engine,
                                    seed=args.seed,
                                    fast=args.fast or None,
                                    telemetry=args.telemetry or None,
                                    trace=args.trace or None,
                                    resources=resources)
            except KeyboardInterrupt:
                interrupted = _signal.SIGINT
                failures.extend(
                    TaskFailure(name=n, attempts=0,
                                reason="interrupted before completion")
                    for n in names[idx:])
                break
            except Exception as exc:  # noqa: BLE001 -- keep sweeping
                failures.append(TaskFailure(
                    name=name, attempts=1,
                    reason=f"{type(exc).__name__}: {exc}"))
                continue
            results[idx] = result
            if journal is not None:
                from repro.checkpoint.atomic import write_json_atomic
                write_json_atomic(
                    os.path.join(journal, f"{name}.json"),
                    result.to_dict())

    if not args.quiet:
        for result in results:
            if result is not None:
                print(render(result))
                print()
    if args.json_path is not None:
        doc: Dict[str, Any] = {
            "schema": DOCUMENT_SCHEMA,
            "runs": [r.to_dict() for r in results if r is not None],
        }
        if failures:
            doc["failures"] = [{"name": f.name, "attempts": f.attempts,
                                "reason": f.reason,
                                "wall_clock_s": getattr(f, "wall_clock_s",
                                                        None),
                                "cpu_s": getattr(f, "cpu_s", None),
                                "max_rss_kb": getattr(f, "max_rss_kb",
                                                      None)}
                               for f in failures]
        if pool_resources:
            doc["resources"] = pool_resources
        _write_document(args.json_path, doc)
    if failures:
        _print_failures(failures)
    if interrupted is not None:
        return 128 + interrupted
    return EXIT_PARTIAL_FAILURE if failures else 0


def _journal_lookup(journal: Optional[str], name: str) -> Optional[dict]:
    if journal is None:
        return None
    from repro.checkpoint.pool import ERROR_KEY, _journaled
    doc = _journaled(os.path.join(journal, f"{name}.json"))
    if doc is None or ERROR_KEY in doc:
        return None
    return doc


# ------------------------------------------------------ checkpoint-run

def _checkpoint_build(args: argparse.Namespace):
    """Build the (fresh or resumed) checkpointable run plus its file
    stem."""
    import dataclasses as _dc

    from repro.checkpoint import Checkpoint, StreamRun, overload_params
    from repro.policies.harness import OVERLOAD_MMS_CFG

    if args.resume_from is not None:
        ckpt = Checkpoint.load(args.resume_from)
        run = StreamRun.resume(ckpt)
        stem = ckpt.params.get("scenario") or ckpt.workload
        return run, stem

    if args.scenario is None:
        raise SystemExit("checkpoint-run needs a scenario name or "
                         "--resume-from PATH")
    spec = all_scenarios()[args.scenario].spec.with_options(
        seed=args.seed, budget="fast" if args.fast else None)
    cfg = _dc.replace(spec.mms or OVERLOAD_MMS_CFG, policy=spec.policy,
                      policy_seed=spec.seed, policy_records=False)
    params = overload_params(
        cfg, spec.traffic.pattern,
        num_arrivals=spec.pick(spec.traffic.num_commands),
        active_flows=spec.traffic.active_flows,
        telemetry=spec.telemetry,
        trace=spec.trace)
    params["scenario"] = spec.name
    return StreamRun.fresh("overload", params), spec.name


def _cmd_checkpoint_run(args: argparse.Namespace) -> int:
    from repro.checkpoint import run_with_checkpoints

    run, stem = _checkpoint_build(args)
    saved: List[str] = []
    events = None
    if args.events_path is not None:
        from repro.monitor.events import EventSink
        events = EventSink(args.events_path)

    if args.checkpoint_every is not None:
        os.makedirs(args.checkpoint_dir, exist_ok=True)

        def sink(ckpt) -> None:
            path = os.path.join(args.checkpoint_dir,
                                f"{stem}-{ckpt.at_ps}.json")
            ckpt.save(path)
            saved.append(path)

        run_with_checkpoints(run, args.checkpoint_every, sink,
                             events=events)
    result = run.finish()
    if events is not None:
        events.close()

    counters = result.counters() if hasattr(result, "counters") \
        else dict(result)
    if not args.quiet:
        print(f"{stem}: finished at {run.now} ps (stream engine, "
              f"{len(saved)} checkpoint(s))")
        for key, value in counters.items():
            print(f"  {key:<20} {value}")
    if args.json_path is not None:
        _write_document(args.json_path, {
            "schema": DOCUMENT_SCHEMA,
            "scenario": stem,
            "engine": "stream",
            "result": counters,
            "checkpoints": saved,
        })
    return 0


# ------------------------------------------------- trace/report tools

def _load_json_doc(path: str):
    """``(document, error)`` -- exactly one is None."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh), None
    except (OSError, ValueError) as exc:
        return None, f"cannot read {path}: {exc}"


def _pick_trace(path: str, label: Optional[str]):
    """``((label, payload), error)`` for the one trace to operate on
    (documents can carry several, e.g. a per-load table5 run or a
    sweep)."""
    from repro.trace.export import extract_traces
    doc, err = _load_json_doc(path)
    if err is not None:
        return None, err
    try:
        traces = extract_traces(doc)
    except ValueError as exc:
        return None, f"{path}: {exc}"
    if label is not None:
        for lab, payload in traces:
            if lab == label:
                return (lab, payload), None
        known = ", ".join(lab for lab, _t in traces)
        return None, (f"{path}: no trace labelled {label!r} "
                      f"(document carries: {known})")
    if len(traces) > 1:
        known = ", ".join(lab for lab, _t in traces)
        return None, (f"{path} carries {len(traces)} traces; pick one "
                      f"with --label (one of: {known})")
    return traces[0], None


def _cmd_trace_export(args: argparse.Namespace) -> int:
    from repro.trace.export import export_chrome_trace
    picked, err = _pick_trace(args.input, args.label)
    if err is not None:
        print(err, file=sys.stderr)
        return 2
    label, payload = picked
    try:
        doc = export_chrome_trace(payload, args.output,
                                  process_name=label)
    except ValueError as exc:
        print(f"{args.input}: {exc}", file=sys.stderr)
        return 2
    spans = sum(1 for e in doc["traceEvents"] if e.get("ph") == "X")
    print(f"wrote {args.output}: {spans} spans from {label!r} "
          f"(open at https://ui.perfetto.dev)")
    return 0


def _cmd_trace_diff(args: argparse.Namespace) -> int:
    from repro.trace.diff import first_divergence
    from repro.trace.diff import render as render_divergence
    sides = []
    for path in (args.a, args.b):
        picked, err = _pick_trace(path, args.label)
        if err is not None:
            print(err, file=sys.stderr)
            return 2
        sides.append((path, picked))
    (path_a, (label_a, trace_a)), (path_b, (label_b, trace_b)) = sides
    div = first_divergence(trace_a, trace_b,
                           context=max(args.context, 0))
    print(render_divergence(div, f"{path_a}:{label_a}",
                            f"{path_b}:{label_b}"))
    return 0 if div is None else 1


def _cmd_report(args: argparse.Namespace) -> int:
    # Journal directories and bare event logs get the sweep timeline;
    # everything else is a results document.
    if os.path.isdir(args.input) or args.input.endswith(".jsonl"):
        from repro.monitor.progress import (
            load_sweep,
            render_timeline,
            status_from_events,
        )
        try:
            if os.path.isdir(args.input):
                status = load_sweep(args.input)
            else:
                status = status_from_events(args.input)
        except (OSError, ValueError) as exc:
            print(f"{args.input}: {exc}", file=sys.stderr)
            return 2
        print(render_timeline(status))
        return 0
    from repro.trace.report import render_report
    doc, err = _load_json_doc(args.input)
    if err is not None:
        print(err, file=sys.stderr)
        return 2
    try:
        print(render_report(doc, source=args.input))
    except ValueError as exc:
        print(f"{args.input}: {exc}", file=sys.stderr)
        return 2
    return 0


# ----------------------------------------------------- live monitoring

def _cmd_watch(args: argparse.Namespace) -> int:
    import time as _time

    from repro.monitor.progress import load_sweep, render_watch

    first = True
    while True:
        try:
            status = load_sweep(args.journal_dir)
        except (OSError, ValueError) as exc:
            print(f"{args.journal_dir}: {exc}", file=sys.stderr)
            return 2
        if not first and sys.stdout.isatty():  # pragma: no cover -- tty
            sys.stdout.write("\x1b[2J\x1b[H")
        print(render_watch(status))
        first = False
        if args.once or status.finished:
            return 0
        try:
            _time.sleep(args.interval)
        except KeyboardInterrupt:  # pragma: no cover -- interactive
            return 128 + _signal.SIGINT


def _cmd_sweep_status(args: argparse.Namespace) -> int:
    from repro.monitor.progress import (
        build_registry,
        load_sweep,
        render_status,
    )

    try:
        status = load_sweep(args.journal_dir)
    except (OSError, ValueError) as exc:
        print(f"{args.journal_dir}: {exc}", file=sys.stderr)
        return 2
    if args.prometheus_path != "-":   # keep stdout exposition parseable
        print(render_status(status))
    registry = build_registry(status)
    if args.json_path is not None:
        _write_document(args.json_path, {
            "schema": DOCUMENT_SCHEMA,
            "journal_dir": status.journal_dir,
            "counts": status.counts(),
            "metrics": registry.to_dict(),
        })
    if args.prometheus_path is not None:
        text = registry.to_prometheus()
        if args.prometheus_path == "-":
            sys.stdout.write(text)
        else:
            from repro.checkpoint.atomic import write_text_atomic
            write_text_atomic(args.prometheus_path, text)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import tempfile

    from repro.serve.server import serve_forever
    from repro.serve.service import ScenarioService

    spool_dir = args.spool_dir
    if spool_dir is None:
        spool_dir = tempfile.mkdtemp(prefix="repro-serve-")
    kwargs: Dict[str, Any] = {
        "timeout_s": args.timeout,
        "retries": args.retries,
    }
    if args.publish_every is not None:
        kwargs["publish_every"] = args.publish_every
    service = ScenarioService(spool_dir, args.cache_dir, **kwargs)
    return serve_forever(service, args.host, args.port,
                         jobs=args.jobs, quiet=args.quiet)


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(list(argv))
    if args.command == "list":
        return _cmd_list(args)
    if args.command == "checkpoint-run":
        return _cmd_checkpoint_run(args)
    if args.command == "trace-export":
        return _cmd_trace_export(args)
    if args.command == "trace-diff":
        return _cmd_trace_diff(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "watch":
        return _cmd_watch(args)
    if args.command == "sweep-status":
        return _cmd_sweep_status(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "sweep":
        sweep_names = [s.spec.name for s in scenarios_of_kind("sweep")]
        names = sweep_names if args.scenario == "all" else [args.scenario]
        return _cmd_run(args, names)
    names = scenario_names() if args.scenario == "all" else [args.scenario]
    return _cmd_run(args, names)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
