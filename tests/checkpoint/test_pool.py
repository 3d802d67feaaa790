"""The fault-tolerant worker pool: recovery, journaling, interrupts."""

import json
import os
import signal
import threading
import time

import pytest

from repro.checkpoint.faults import _claim, write_plan
from repro.checkpoint.pool import PoolOutcome, TaskFailure, run_tasks
from repro.monitor.events import events_path, read_events


def _double(payload):
    return {"value": payload * 2}


def _slow_double(payload):
    time.sleep(0.05 * (payload % 3))
    return {"value": payload * 2}


def _sleep_forever(_payload):
    time.sleep(600)
    return {}


def _fail_once(payload):
    """Raises on the first execution, succeeds on the retry (the
    marker file is the cross-process attempt counter)."""
    marker = payload + ".attempted"
    try:
        fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return {"value": "recovered"}
    os.close(fd)
    raise RuntimeError("transient failure")


def _explode(_payload):
    raise RuntimeError("boom")


TASKS = [(f"t{i}", i) for i in range(8)]
WANT = [{"value": i * 2} for i in range(8)]


# ------------------------------------------------------------ happy path

def test_results_are_submission_ordered():
    out = run_tasks(_slow_double, TASKS, jobs=4)
    assert out.ok
    assert out.results == WANT


def test_serial_and_parallel_agree():
    assert run_tasks(_double, TASKS, jobs=1).results == \
        run_tasks(_double, TASKS, jobs=8).results


# -------------------------------------------------------------- recovery

def test_killed_worker_is_requeued_and_results_match_clean_run(tmp_path):
    plan = str(tmp_path / "faults.json")
    write_plan(plan, kill={"t3": 1})
    out = run_tasks(_double, TASKS, jobs=3, retries=2, backoff_s=0.0,
                    fault_plan=plan)
    assert out.ok
    assert out.results == WANT            # identical to a fault-free run


def test_exhausted_retries_produce_a_failure_entry(tmp_path):
    plan = str(tmp_path / "faults.json")
    write_plan(plan, kill={"t2": 3})
    out = run_tasks(_double, TASKS, jobs=2, retries=1, backoff_s=0.0,
                    fault_plan=plan)
    assert not out.ok
    assert out.results[2] is None
    assert [r for i, r in enumerate(out.results) if i != 2] == \
        [w for i, w in enumerate(WANT) if i != 2]
    (failure,) = out.failures
    assert failure.name == "t2" and failure.attempts == 2
    assert "killed by signal SIGKILL" in failure.reason


def test_hung_worker_trips_timeout_and_retry_recovers(tmp_path):
    plan = str(tmp_path / "faults.json")
    write_plan(plan, hang={"t1": 1}, hang_seconds=30.0)
    out = run_tasks(_double, TASKS[:3], jobs=3, timeout_s=0.5,
                    retries=1, backoff_s=0.0, fault_plan=plan)
    assert out.ok
    assert out.results == WANT[:3]


def test_task_exception_is_reported_not_fatal():
    out = run_tasks(_explode, [("bad", 0)], jobs=1, retries=0)
    assert not out.ok
    (failure,) = out.failures
    assert failure.name == "bad"
    assert "RuntimeError: boom" in failure.reason


def test_task_exception_is_retried(tmp_path):
    out = run_tasks(_fail_once, [("flaky", str(tmp_path / "m"))],
                    jobs=1, retries=1, backoff_s=0.0)
    assert out.ok
    assert out.results == [{"value": "recovered"}]


# -------------------------------------------------------------- journal

def test_journal_skips_completed_work(tmp_path):
    journal = str(tmp_path / "journal")
    os.makedirs(journal)
    for name, i in TASKS[:5]:
        with open(os.path.join(journal, name + ".json"), "w") as fh:
            json.dump({"value": i * 2}, fh)
    # _explode would fail every task: only the three unjournaled ones
    # run, so the outcome proves the journaled five were skipped
    out = run_tasks(_explode, TASKS, jobs=2, retries=0,
                    journal_dir=journal)
    assert out.skipped_from_journal == 5
    assert out.results[:5] == WANT[:5]
    assert len(out.failures) == 3


def test_torn_journal_entries_rerun(tmp_path):
    journal = str(tmp_path / "journal")
    os.makedirs(journal)
    with open(os.path.join(journal, "t0.json"), "w") as fh:
        fh.write('{"value": 0')             # torn write
    with open(os.path.join(journal, "t1.json"), "w") as fh:
        json.dump({"__error__": "old failure"}, fh)
    out = run_tasks(_double, TASKS[:3], jobs=2, journal_dir=journal)
    assert out.ok
    assert out.skipped_from_journal == 0    # torn + error docs re-ran
    assert out.results == WANT[:3]
    # and the journal now holds the clean results, atomically written
    with open(os.path.join(journal, "t1.json")) as fh:
        assert json.load(fh) == {"value": 2}


# ---------------------------------------------------- lifecycle events

def _task_events(journal, name):
    """``(action, attempt)`` of one task's lifecycle events, plus their
    elapsed stamps, from the journal's ``events.jsonl``."""
    events = [e for e in read_events(events_path(journal))
              if e.kind == "task" and e.name == name]
    return ([(e.action, e.attempt) for e in events],
            [e.elapsed_s for e in events])


def test_events_record_task_lifecycle(tmp_path):
    journal = str(tmp_path / "journal")
    plan = str(tmp_path / "faults.json")
    write_plan(plan, kill={"t1": 1})
    out = run_tasks(_double, TASKS[:3], jobs=2, retries=2,
                    backoff_s=0.0, journal_dir=journal, fault_plan=plan)
    assert out.ok
    events, elapsed = _task_events(journal, "t1")
    assert events == [("start", 1), ("retry", 1), ("start", 2),
                      ("finish", 2)]
    assert elapsed == sorted(elapsed) and elapsed[0] >= 0
    smooth, _elapsed = _task_events(journal, "t0")
    assert [action for action, _attempt in smooth] == ["start", "finish"]
    assert not [p for p in os.listdir(journal)
                if p.endswith(".heartbeat.json")]


def test_events_mark_exhausted_tasks_failed(tmp_path):
    journal = str(tmp_path / "journal")
    out = run_tasks(_explode, [("bad", 0)], jobs=1, retries=1,
                    backoff_s=0.0, journal_dir=journal)
    assert not out.ok
    events, _elapsed = _task_events(journal, "bad")
    assert events == [("start", 1), ("retry", 1), ("start", 2),
                      ("fail", 2)]


def test_failures_carry_wall_clock():
    out = run_tasks(_explode, [("bad", 0)], jobs=1, retries=0)
    (failure,) = out.failures
    assert failure.wall_clock_s is not None
    assert failure.wall_clock_s >= 0


# ------------------------------------------------------------ interrupts

def _quick_then_slow(payload):
    if payload == 1:
        return {"value": 2}
    time.sleep(600)
    return {}


def test_sigint_keeps_finished_results_and_reports_the_rest():
    def interrupt_soon():
        time.sleep(0.4)
        os.kill(os.getpid(), signal.SIGINT)

    threading.Thread(target=interrupt_soon, daemon=True).start()
    tasks = [("quick", 1)] + [(f"slow{i}", i) for i in range(4)]
    out = run_tasks(_quick_then_slow, tasks, jobs=1)
    assert out.interrupted == signal.SIGINT
    assert not out.ok
    assert out.results[0] == {"value": 2}   # finished before the signal
    interrupted = {f.name for f in out.failures}
    assert interrupted and interrupted <= {f"slow{i}" for i in range(4)}


# ------------------------------------------------------------ validation

@pytest.mark.parametrize("kwargs, match", [
    (dict(jobs=0), "jobs must be >= 1"),
    (dict(jobs=2, timeout_s=-5), "timeout must be positive"),
    (dict(jobs=2, retries=-1), "retries must be >= 0"),
    (dict(jobs=2, backoff_s=-0.1), "backoff must be >= 0"),
])
def test_argument_validation(kwargs, match):
    with pytest.raises(ValueError, match=match):
        run_tasks(_double, TASKS, **kwargs)


def test_outcome_ok_semantics():
    assert PoolOutcome(results=[]).ok
    assert not PoolOutcome(results=[],
                           failures=[TaskFailure("x", 1, "r")]).ok
    assert not PoolOutcome(results=[], interrupted=2).ok


# ------------------------------------------------------- fault claiming

def test_fault_claims_are_exactly_once(tmp_path):
    plan = str(tmp_path / "faults.json")
    write_plan(plan, kill={"t": 1})
    assert _claim(plan, "kill", "t", 0) is True
    assert _claim(plan, "kill", "t", 0) is False   # second taker loses
    assert _claim(plan, "kill", "t", 1) is True    # distinct occurrence
