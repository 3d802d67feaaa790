"""Live sweep progress: journal-directory state, tables, metrics.

:func:`load_sweep` folds a journal directory's monitoring artifacts --
the shared ``events.jsonl`` and the journaled result documents --
into one
:class:`SweepStatus`: per-task terminal/live state, attempts, wall/CPU,
stragglers and an ETA.  The renderers turn that into the ``watch``
table, the ``sweep-status`` summary and the ``report`` timeline;
:func:`build_registry` turns it into a metrics registry for Prometheus
/ JSON exposition.

Everything here is read-side tooling: it observes a sweep another
process is running (or ran), so it works on live directories, finished
ones and crash leftovers alike -- a torn final event line or a missing
finish event (the pool died) degrade to honest "running/unknown" rows
rather than errors.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.monitor.events import (
    EVENTS_FILENAME,
    Event,
    events_path,
    read_events,
)
from repro.monitor.metrics import MetricsRegistry

#: Task states a sweep can report.  ``done``/``failed`` are terminal.
TASK_STATES: Tuple[str, ...] = ("queued", "running", "retrying", "done",
                                "failed")

#: A running task this much slower than the median finished task is
#: flagged as a straggler (given at least _STRAGGLER_MIN_DONE samples).
_STRAGGLER_FACTOR = 2.0
_STRAGGLER_MIN_DONE = 2

#: Result-document key the pool uses for a task exception (kept in
#: sync by tests/monitor; duplicated here so the read-side tooling
#: does not import the pool it observes).
_ERROR_KEY = "__error__"


def safe_name(name: str) -> str:
    """Filesystem-safe task filename stem (the pool's convention)."""
    return re.sub(r"[^A-Za-z0-9._-]", "_", name)


@dataclass
class TaskProgress:
    """One task's folded lifecycle."""

    name: str
    state: str = "queued"
    attempts: int = 0
    #: Total seconds spent actually running, across attempts (live
    #: tasks include the open attempt, measured against ``now_wall``).
    wall_s: float = 0.0
    cpu_s: Optional[float] = None
    max_rss_kb: Optional[int] = None
    #: Last failure/retry reason seen.
    reason: str = ""
    straggler: bool = False
    #: Wall timestamp of the open attempt's start (running tasks).
    _open_since: Optional[float] = None
    #: Retry provenance: one ``(attempt, reason)`` per requeue.
    retries: List[Tuple[int, str]] = field(default_factory=list)

    @property
    def terminal(self) -> bool:
        return self.state in ("done", "failed")


@dataclass
class SweepStatus:
    """Everything the watch/status renderers need about one sweep."""

    journal_dir: str
    source: str                      # "events"
    tasks: List[TaskProgress]
    events: List[Event]
    total: int
    jobs: Optional[int] = None
    skipped_from_journal: int = 0
    interrupted: Optional[int] = None
    #: Distinct (scenario, engine, seed, budget) hashes with a valid
    #: journaled result -- the warm-cache inventory a serving layer
    #: could answer from without re-running anything.
    cache_ready_specs: int = 0
    now_wall: float = 0.0

    def counts(self) -> Dict[str, int]:
        c = {state: 0 for state in TASK_STATES}
        for task in self.tasks:
            c[task.state] += 1
        return c

    @property
    def finished(self) -> bool:
        return all(task.terminal for task in self.tasks)

    def events_per_second(self, window_s: float = 60.0) -> float:
        if not self.events:
            return 0.0
        newest = max(e.t_wall for e in self.events)
        edge = newest - window_s
        hits = sum(1 for e in self.events if e.t_wall >= edge)
        span = min(window_s,
                   max(newest - min(e.t_wall for e in self.events), 1e-9))
        return round(hits / span, 6)

    def eta_s(self) -> Optional[float]:
        """Rough time-to-done from finished-task durations (None until
        at least one task finished, or once everything is terminal)."""
        done = [t.wall_s for t in self.tasks if t.state == "done"]
        if not done or self.finished:
            return None
        mean = sum(done) / len(done)
        workers = max(self.jobs or 1, 1)
        pending = sum(1 for t in self.tasks
                      if t.state in ("queued", "retrying"))
        running = [max(mean - t.wall_s, 0.0) for t in self.tasks
                   if t.state == "running"]
        return round((pending * mean + sum(running)) / workers, 3)


# ------------------------------------------------------------- loading

def _fold_events(events: List[Event], now_wall: float
                 ) -> Tuple[List[TaskProgress], Optional[int],
                            List[str], int, Optional[int]]:
    """Replay task events into per-task progress.

    Returns ``(tasks, jobs, names_from_sweep_start, skipped,
    interrupted)``; task order is sweep-start order when known, else
    first-appearance order.
    """
    by_name: Dict[str, TaskProgress] = {}
    order: List[str] = []
    jobs: Optional[int] = None
    skipped = 0
    interrupted: Optional[int] = None
    announced: List[str] = []

    def task(name: str) -> TaskProgress:
        if name not in by_name:
            by_name[name] = TaskProgress(name=name)
            order.append(name)
        return by_name[name]

    for event in events:
        if event.kind == "sweep":
            if event.action == "start":
                jobs = event.extra.get("jobs", jobs)
                skipped = event.extra.get("skipped_from_journal", skipped)
                for name in event.extra.get("names", []):
                    task(str(name))
                    announced.append(str(name))
            elif event.action in ("finish", "fail"):
                interrupted = event.extra.get("interrupted", interrupted)
            continue
        if event.kind != "task":
            continue
        t = task(event.name)
        if event.attempt is not None:
            t.attempts = max(t.attempts, event.attempt)
        if event.action == "start":
            t.state = "running"
            t._open_since = event.t_wall
        elif event.action in ("retry", "finish", "fail"):
            if t._open_since is not None:
                t.wall_s += max(event.t_wall - t._open_since, 0.0)
                t._open_since = None
            if event.action == "retry":
                t.state = "retrying"
                reason = str(event.extra.get("reason", ""))
                t.reason = reason
                t.retries.append((event.attempt or t.attempts, reason))
            elif event.action == "finish":
                t.state = "done"
                resources = event.extra.get("resources")
                if isinstance(resources, dict):
                    t.cpu_s = resources.get("cpu_s")
                    t.max_rss_kb = resources.get("max_rss_kb")
            else:
                t.state = "failed"
                t.reason = str(event.extra.get("reason", t.reason))
                resources = event.extra.get("resources")
                if isinstance(resources, dict):
                    t.cpu_s = resources.get("cpu_s")
                    t.max_rss_kb = resources.get("max_rss_kb")

    for t in by_name.values():
        if t._open_since is not None:   # still running: live elapsed
            t.wall_s += max(now_wall - t._open_since, 0.0)
        t.wall_s = round(t.wall_s, 3)
    return [by_name[n] for n in order], jobs, announced, skipped, \
        interrupted


def _result_doc(journal_dir: str, name: str) -> Optional[Dict[str, Any]]:
    path = os.path.join(journal_dir, safe_name(name) + ".json")
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError):
        return None
    return doc if isinstance(doc, dict) else None


def _spec_hash(doc: Dict[str, Any]) -> str:
    key = json.dumps([doc.get("scenario"), doc.get("engine"),
                      doc.get("seed"), doc.get("budget")],
                     sort_keys=True)
    return hashlib.sha256(key.encode("utf-8")).hexdigest()[:16]


def load_sweep(journal_dir: str,
               now_wall: Optional[float] = None) -> SweepStatus:
    """Fold one journal directory into a :class:`SweepStatus`.

    Raises :class:`ValueError` when the directory carries no (or an
    empty) ``events.jsonl`` -- not a monitored journal.
    """
    if not os.path.isdir(journal_dir):
        raise ValueError(f"{journal_dir}: not a directory")
    now = time.time() if now_wall is None else now_wall

    ev_path = events_path(journal_dir)
    if not os.path.exists(ev_path):
        raise ValueError(
            f"{journal_dir}: no {EVENTS_FILENAME} -- not a monitored "
            f"journal directory")
    events = read_events(ev_path)
    if not events:
        raise ValueError(
            f"{journal_dir}: empty {EVENTS_FILENAME} -- not a monitored "
            f"journal directory")
    tasks, jobs, _announced, skipped, interrupted = _fold_events(
        events, now)

    # Cross-check against the journaled result documents: a task whose
    # result landed is done even if its finish event was lost (and the
    # valid results are the sweep's warm cache).
    cache: set[str] = set()
    for task in tasks:
        doc = _result_doc(journal_dir, task.name)
        if doc is None:
            continue
        if _ERROR_KEY in doc:
            if not task.terminal:
                task.state = "failed"
                task.reason = str(doc[_ERROR_KEY])
        else:
            if not task.terminal:
                task.state = "done"
            cache.add(_spec_hash(doc))

    status = SweepStatus(journal_dir=journal_dir, source="events",
                         tasks=tasks, events=events, total=len(tasks),
                         jobs=jobs, skipped_from_journal=skipped,
                         interrupted=interrupted,
                         cache_ready_specs=len(cache), now_wall=now)
    _flag_stragglers(status)
    return status


def status_from_events(path: str,
                       now_wall: Optional[float] = None) -> SweepStatus:
    """A :class:`SweepStatus` from a bare ``events.jsonl`` file (no
    journal directory context: no result-doc cross-check)."""
    now = time.time() if now_wall is None else now_wall
    events = read_events(path)
    tasks, jobs, _announced, skipped, interrupted = _fold_events(
        events, now)
    status = SweepStatus(journal_dir=os.path.dirname(path) or ".",
                         source="events", tasks=tasks, events=events,
                         total=len(tasks), jobs=jobs,
                         skipped_from_journal=skipped,
                         interrupted=interrupted, now_wall=now)
    _flag_stragglers(status)
    return status


def _flag_stragglers(status: SweepStatus) -> None:
    done = sorted(t.wall_s for t in status.tasks if t.state == "done")
    if len(done) < _STRAGGLER_MIN_DONE:
        return
    median = done[len(done) // 2]
    threshold = max(median * _STRAGGLER_FACTOR, 1e-3)
    for task in status.tasks:
        if task.state == "running" and task.wall_s > threshold:
            task.straggler = True


# ------------------------------------------------------------- metrics

def build_registry(status: SweepStatus) -> MetricsRegistry:
    """The sweep's operational state as a metrics registry."""
    reg = MetricsRegistry()
    counts = status.counts()
    reg.gauge("repro_sweep_tasks_total",
              "tasks known to this sweep").set(status.total)
    for state in TASK_STATES:
        reg.gauge(f"repro_sweep_tasks_{state}",
                  f"tasks currently {state}").set(counts[state])
    reg.counter("repro_sweep_retries_total",
                "task attempts beyond the first").inc(
        sum(len(t.retries) for t in status.tasks))
    reg.counter("repro_sweep_events_total",
                "lifecycle events recorded").inc(len(status.events))
    rate = reg.rate("repro_sweep_events_per_second",
                    "event rate over the trailing window")
    for event in status.events:
        rate.record(event.t_wall)
    reg.gauge("repro_sweep_cache_ready_specs",
              "distinct spec hashes with a valid journaled result").set(
        status.cache_ready_specs)
    reg.counter("repro_sweep_cpu_seconds_total",
                "task CPU seconds (user+sys), where profiled").inc(
        round(sum(t.cpu_s or 0.0 for t in status.tasks), 6))
    reg.gauge("repro_sweep_max_rss_kb",
              "largest task RSS high-water mark, where profiled").set(
        max((t.max_rss_kb or 0 for t in status.tasks), default=0))
    return reg


# ----------------------------------------------------------- rendering

def _fmt_s(seconds: Optional[float]) -> str:
    if seconds is None:
        return "-"
    if seconds >= 100:
        return f"{seconds:.0f}s"
    return f"{seconds:.2f}s"


def _fmt_rss(kb: Optional[int]) -> str:
    if not kb:
        return "-"
    return f"{kb / 1024:.0f}MB"


def render_watch(status: SweepStatus) -> str:
    """The per-task progress table (the ``watch`` screen)."""
    counts = status.counts()
    head = (f"sweep {status.journal_dir}: {status.total} task(s)"
            + (f", jobs={status.jobs}" if status.jobs else "")
            + (f", {status.skipped_from_journal} resumed from journal"
               if status.skipped_from_journal else "")
            + f"  [{status.source}: {len(status.events)} events, "
              f"{status.events_per_second():.2f}/s]")
    lines = [head]
    width = max([len(t.name) for t in status.tasks] + [4])
    lines.append(f"  {'TASK':<{width}}  {'STATE':<8} {'ATT':>3} "
                 f"{'WALL':>8} {'CPU':>8} {'RSS':>7}  NOTE")
    for task in status.tasks:
        note = ""
        if task.straggler:
            note = "straggler"
        elif task.state == "failed" and task.reason:
            note = task.reason
        elif task.retries:
            note = f"{len(task.retries)} retr" + \
                ("y" if len(task.retries) == 1 else "ies")
        lines.append(
            f"  {task.name:<{width}}  {task.state:<8} "
            f"{task.attempts or '-':>3} {_fmt_s(task.wall_s):>8} "
            f"{_fmt_s(task.cpu_s):>8} {_fmt_rss(task.max_rss_kb):>7}  "
            f"{note}".rstrip())
    summary = ", ".join(f"{counts[s]} {s}" for s in TASK_STATES
                        if counts[s])
    eta = status.eta_s()
    if eta is not None:
        summary += f"  eta ~{_fmt_s(eta)}"
    if status.interrupted:
        summary += f"  (interrupted by signal {status.interrupted})"
    lines.append(f"  {summary}")
    return "\n".join(lines)


def render_status(status: SweepStatus) -> str:
    """The one-shot ``sweep-status`` summary."""
    counts = status.counts()
    done = [t.wall_s for t in status.tasks if t.state == "done"]
    lines = [f"journal: {status.journal_dir}"]
    summary = ", ".join(f"{counts[s]} {s}" for s in TASK_STATES
                        if counts[s]) or "no tasks"
    retries = sum(len(t.retries) for t in status.tasks)
    lines.append(f"tasks: {status.total} total -- {summary}"
                 + (f" ({retries} retries)" if retries else ""))
    lines.append(f"events: {len(status.events)} from {status.source}, "
                 f"{status.events_per_second():.2f}/s; "
                 f"cache-ready specs: {status.cache_ready_specs}")
    if done:
        mean = sum(done) / len(done)
        cpu = sum(t.cpu_s or 0.0 for t in status.tasks)
        peak = max((t.max_rss_kb or 0 for t in status.tasks), default=0)
        lines.append(
            f"done tasks: mean wall {_fmt_s(mean)}, "
            f"slowest {_fmt_s(max(done))}"
            + (f"; cpu total {_fmt_s(cpu)}" if cpu else "")
            + (f"; peak rss {_fmt_rss(peak)}" if peak else ""))
    eta = status.eta_s()
    if eta is not None:
        lines.append(f"eta: ~{_fmt_s(eta)}")
    failed = [t for t in status.tasks if t.state == "failed"]
    if failed:
        lines.append("failures:")
        for task in failed:
            lines.append(f"  {task.name}: {task.reason or '?'} "
                         f"(attempts={task.attempts})")
    if status.interrupted:
        lines.append(f"interrupted by signal {status.interrupted}")
    return "\n".join(lines)


def render_timeline(status: SweepStatus) -> str:
    """The ``report`` view of a journal: chronological sweep timeline,
    per-task wall/CPU table and retry provenance."""
    lines = [f"sweep timeline ({status.source}, "
             f"{len(status.events)} events):"]
    for event in status.events:
        detail = ""
        if event.kind == "task":
            detail = f" {event.name}"
            if event.attempt is not None:
                detail += f" (attempt {event.attempt})"
            reason = event.extra.get("reason")
            if reason:
                detail += f": {reason}"
        elif event.extra:
            cells = "  ".join(
                f"{k}={v}" for k, v in sorted(event.extra.items())
                if not isinstance(v, (dict, list)))
            detail = f"  {cells}" if cells else ""
        lines.append(f"  {event.elapsed_s:>9.3f}s  {event.kind}."
                     f"{event.action}{detail}")
    lines.append("per-task:")
    width = max([len(t.name) for t in status.tasks] + [4])
    for task in status.tasks:
        lines.append(
            f"  {task.name:<{width}}  {task.state:<8} "
            f"attempts={task.attempts}  wall={_fmt_s(task.wall_s)}"
            + (f"  cpu={_fmt_s(task.cpu_s)}" if task.cpu_s is not None
               else "")
            + (f"  rss={_fmt_rss(task.max_rss_kb)}"
               if task.max_rss_kb else ""))
    provenance = [(t.name, a, r) for t in status.tasks
                  for a, r in t.retries]
    if provenance:
        lines.append("retry provenance:")
        for name, attempt, reason in provenance:
            lines.append(f"  {name}: attempt {attempt} requeued"
                         + (f" ({reason})" if reason else ""))
    return "\n".join(lines)
