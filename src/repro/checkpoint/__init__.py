"""Checkpoint/resume and fault tolerance for the repro runs.

:class:`StreamRun` (:mod:`.runs`) drives the DES-free command-stream
engine with **exact** snapshots -- every scalar actor, the wake heap,
the policy books and the telemetry collectors serialize precisely,
and feeders resume by observation-tape replay (:mod:`.feeders`).  A
run split at any rest point and resumed from the JSON
:class:`Checkpoint` envelope produces byte-identical traces, drop
records, telemetry and results (fuzzed over random split points by
``tests/checkpoint/``).  The DES kernel is the unbroken reference the
stream machine is checked against, so it takes no checkpoints.  The
checkpoint machinery is structurally absent from plain harness runs:
only this driver wraps feeders, the same gating discipline as
telemetry probes.

Around the checkpoints sits the sweep robustness layer: atomic
artifact persistence (:mod:`.atomic`), the fault-tolerant worker pool
with per-task timeouts, bounded retries, a crash-safe journal and
graceful interrupts (:mod:`.pool`), and the deterministic
fault-injection harness CI uses to prove the recovery paths
(:mod:`.faults`).
"""

from repro.checkpoint.atomic import (
    read_json,
    write_json_atomic,
    write_text_atomic,
)
from repro.checkpoint.faults import maybe_fault, write_plan
from repro.checkpoint.feeders import (
    CountedFeeder,
    CounterView,
    Tape,
    TapeMismatchError,
)
from repro.checkpoint.pool import (
    ERROR_KEY,
    PoolOutcome,
    TaskFailure,
    run_tasks,
)
from repro.checkpoint.runs import (
    STREAM_WORKLOADS,
    StreamRun,
    overload_params,
    run_with_checkpoints,
    script_params,
)
from repro.checkpoint.snapshot import (
    CHECKPOINT_ENGINES,
    CHECKPOINT_SCHEMA,
    Checkpoint,
    CheckpointError,
    config_from_dict,
    config_to_dict,
    telemetry_spec_from_dict,
    telemetry_spec_to_dict,
    trace_spec_from_dict,
    trace_spec_to_dict,
    validate_checkpoint_dict,
)
from repro.checkpoint.stream_state import restore_stream, snapshot_stream

__all__ = [
    "CHECKPOINT_ENGINES",
    "CHECKPOINT_SCHEMA",
    "Checkpoint",
    "CheckpointError",
    "CountedFeeder",
    "CounterView",
    "ERROR_KEY",
    "PoolOutcome",
    "STREAM_WORKLOADS",
    "StreamRun",
    "Tape",
    "TapeMismatchError",
    "TaskFailure",
    "config_from_dict",
    "config_to_dict",
    "maybe_fault",
    "overload_params",
    "read_json",
    "restore_stream",
    "run_tasks",
    "run_with_checkpoints",
    "script_params",
    "snapshot_stream",
    "telemetry_spec_from_dict",
    "telemetry_spec_to_dict",
    "trace_spec_from_dict",
    "trace_spec_to_dict",
    "validate_checkpoint_dict",
    "write_json_atomic",
    "write_plan",
    "write_text_atomic",
]
