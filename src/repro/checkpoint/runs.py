"""Checkpoint-aware drivers for the command-stream engine.

A :class:`StreamRun` owns one :class:`~repro.engines.stream.StreamMms`
workload end to end -- build, incremental execution, snapshot, resume,
result assembly -- for the ``overload`` family and free-form
``script`` runs (the fuzz suite's mixed-op streams).  It is the *only*
place the checkpoint machinery touches the feeder path: it wraps every
workload generator in a :class:`~repro.checkpoint.feeders.CountedFeeder`
with an observation :class:`~repro.checkpoint.feeders.Tape`, while the
plain harnesses keep handing raw generators to the engine -- so
checkpoint support is structurally absent from normal runs, the same
gating discipline as telemetry probes.

The resume-identity contract: a run split at any rest point and resumed
from the JSON checkpoint produces byte-identical traces, DropRecords,
telemetry and results to an unbroken run (``tests/checkpoint/``
fuzzes this over random split points).  Three ingredients deliver it:

* the machine state restores exactly (:mod:`.stream_state`),
* the feeders re-reach their suspension points by tape replay
  (:mod:`.feeders`),
* the overload feeders, horizon and result come from the *same*
  functions the plain driver uses
  (:func:`repro.engines.harnesses.overload_feeders`,
  :func:`~repro.engines.harnesses.assemble_overload_result`), so there
  is no second copy of the wiring or counter arithmetic to drift.

Params are plain JSON dicts (built by the ``*_params`` helpers) and
ride inside the :class:`~repro.checkpoint.snapshot.Checkpoint`
envelope, which is what makes a checkpoint file self-contained: resume
needs nothing but the file.
"""

from __future__ import annotations

from typing import (
    Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple,
)

from repro.checkpoint.feeders import CountedFeeder, CounterView, Tape
from repro.checkpoint.snapshot import (
    Checkpoint,
    CheckpointError,
    config_from_dict,
    config_to_dict,
    telemetry_spec_from_dict,
    telemetry_spec_to_dict,
    trace_spec_from_dict,
    trace_spec_to_dict,
)
from repro.checkpoint.stream_state import (
    FeederFactory,
    restore_stream,
    snapshot_stream,
)
from repro.core.commands import CommandType
from repro.core.mms import MmsConfig
from repro.core.workloads import Counters
from repro.engines import harnesses
from repro.engines.stream import StreamMms
from repro.telemetry.collector import MmsTelemetry
from repro.telemetry.probe import Probe, ProbeChain, TelemetrySpec
from repro.trace.spans import TraceCollector, TraceSpec

#: Workload families a StreamRun can drive.
STREAM_WORKLOADS = ("overload", "script")


# ==================================================== params builders

def overload_params(config: MmsConfig, shape: str, *, num_arrivals: int,
                    active_flows: int,
                    telemetry: Optional[TelemetrySpec] = None,
                    trace: Optional[TraceSpec] = None) -> Dict[str, Any]:
    """Params dict for an overload run.  ``config`` is the resolved
    build (policy spec, seed and record retention folded in, as
    :func:`repro.policies.harness.run_overload` does)."""
    if config.policy is None:
        raise CheckpointError("overload runs need a buffer policy in "
                              "the config")
    return {
        "config": config_to_dict(config),
        "telemetry": None if telemetry is None
        else telemetry_spec_to_dict(telemetry),
        "trace": None if trace is None else trace_spec_to_dict(trace),
        "shape": shape,
        "num_arrivals": num_arrivals,
        "active_flows": active_flows,
    }


def script_params(config: MmsConfig, scripts: Sequence[Sequence[Any]], *,
                  horizon_ps: int, mark_done: bool = False,
                  drain: bool = False, drain_period_ps: int = 0,
                  drain_active_flows: int = 0,
                  telemetry: Optional[TelemetrySpec] = None,
                  trace: Optional[TraceSpec] = None
                  ) -> Dict[str, Any]:
    """Params dict for a free-form script run: one micro-op list per
    port (``int`` = delay in ps, tuple = submit op).  With ``drain``,
    an overload-style drain port follows the scripts; the drain's
    termination handshake needs exactly three ``mark_done`` scripts
    (the :func:`~repro.core.workloads.overload_drain_ops` contract)."""
    if drain and (not mark_done or len(scripts) != 3):
        raise CheckpointError(
            "a drained script run needs exactly 3 mark_done scripts "
            "(the overload drain terminates on feeders_done == 3)")
    return {
        "config": config_to_dict(config),
        "telemetry": None if telemetry is None
        else telemetry_spec_to_dict(telemetry),
        "trace": None if trace is None else trace_spec_to_dict(trace),
        "scripts": [[_encode_op(op) for op in ops] for ops in scripts],
        "horizon_ps": horizon_ps,
        "mark_done": mark_done,
        "drain": drain,
        "drain_period_ps": drain_period_ps,
        "drain_active_flows": drain_active_flows,
    }


def _encode_op(op: Any) -> Any:
    if type(op) is int:
        return op
    kind, flow, dst, eop, length = op
    return [kind.value, flow, dst, eop, length]


def _decode_op(op: Any) -> Any:
    if type(op) is int:
        return op
    return (CommandType(op[0]), op[1], op[2], op[3], op[4])


def _script_feeder(ops: Sequence[Any], counters: Counters,
                   mark_done: bool) -> Iterator[Any]:
    """A decoded script as a feeder generator, with the overload
    feeders' trailing done-handshake when requested."""
    for op in ops:
        yield op
    if mark_done:
        counters["feeders_done"] = counters.get("feeders_done", 0) + 1


def _script_factory(ops: Sequence[Any],
                    mark_done: bool) -> harnesses.FeederFactory:
    def factory(wrap: harnesses.Wrap, counters: Counters) -> Iterator[Any]:
        return _script_feeder(ops, counters, mark_done)
    return factory


def _build_probes(params: Dict[str, Any]) -> Tuple[
        Optional[MmsTelemetry], Optional[TraceCollector], Optional[Probe]]:
    """``(telemetry, tracer, combined probe)`` from a params dict.

    The driver keeps the individual collectors because checkpoint state
    is per-collector (``"probe"`` holds the telemetry fold, ``"trace"``
    the span tracer's), while the engine wants one probe -- a
    :class:`~repro.telemetry.probe.ProbeChain` when both are on."""
    tele_spec = params.get("telemetry")
    telemetry = None if tele_spec is None \
        else MmsTelemetry(telemetry_spec_from_dict(tele_spec))
    trace_spec = params.get("trace")
    tracer = None if trace_spec is None \
        else TraceCollector(trace_spec_from_dict(trace_spec))
    children: List[Probe] = [p for p in (telemetry, tracer)
                             if p is not None]
    probe: Optional[Probe] = None
    if len(children) == 1:
        probe = children[0]
    elif children:
        probe = ProbeChain(children)
    return telemetry, tracer, probe


# ======================================================== the driver

class StreamRun:
    """One checkpointable command-stream run (see module docstring).

    Build with :meth:`fresh` or :meth:`resume`, advance with
    :meth:`run`, snapshot with :meth:`checkpoint` at any rest point
    (between :meth:`run` calls), and finish with :meth:`finish` --
    which runs to the workload's :attr:`horizon` and assembles the
    exact harness result object.
    """

    def __init__(self, workload: str, params: Dict[str, Any], *,
                 _resume_state: Optional[Dict[str, Any]] = None) -> None:
        if workload not in STREAM_WORKLOADS:
            raise CheckpointError(f"unknown stream workload {workload!r} "
                                  f"(choose from {STREAM_WORKLOADS})")
        self.workload = workload
        self.params = params
        self.config = config_from_dict(params["config"])
        self.telemetry, self.tracer, self.probe = _build_probes(params)
        self.eng = StreamMms(self.config, probe=self.probe)
        self.store: Dict[str, int] = {}
        wiring, self.horizon = self._wiring()
        self._factories = [(port, self._taped(factory))
                           for port, factory in wiring]

        if _resume_state is None:
            self._build_fresh()
        else:
            self._restore(_resume_state)

    # ------------------------------------------------------ constructors

    @classmethod
    def fresh(cls, workload: str, params: Dict[str, Any]) -> "StreamRun":
        """Start the workload from scratch."""
        return cls(workload, params)

    @classmethod
    def resume(cls, ckpt: Checkpoint) -> "StreamRun":
        """Continue the workload from a checkpoint."""
        return cls(ckpt.workload, dict(ckpt.params),
                   _resume_state=ckpt.state)

    # ---------------------------------------------------------- plumbing

    def _wiring(self) -> Tuple[List[Tuple[int, harnesses.FeederFactory]],
                               int]:
        """The workload's ``(port, factory)`` list in attach order, and
        its run horizon: the plain overload driver's own wiring, or the
        scripts (plus an overload drain) and the horizon in the
        params."""
        p = self.params
        if self.workload == "overload":
            return harnesses.overload_feeders(
                self.eng, p["shape"], p["num_arrivals"], p["active_flows"])
        wiring = [(port, _script_factory([_decode_op(op) for op in encoded],
                                         p["mark_done"]))
                  for port, encoded in enumerate(p["scripts"])]
        if p["drain"]:
            wiring.append((len(p["scripts"]), harnesses.overload_drain(
                self.eng, p["drain_active_flows"], p["drain_period_ps"])))
        horizon: int = p["horizon_ps"]
        return wiring, horizon

    def _taped(self, factory: harnesses.FeederFactory) -> FeederFactory:
        """``factory`` with every environment read wired through the
        feeder's tape, so a rebuilt feeder replays to its recorded
        suspension point."""
        def build(tape: Tape) -> Iterator[Any]:
            return factory(tape.wrap, CounterView(self.store, tape))
        return build

    def _build_fresh(self) -> None:
        if self.workload == "overload" or self.params["drain"]:
            self.store["dequeued"] = 0
        for port, factory in self._factories:
            tape = Tape()
            self.eng.add_feeder(port, CountedFeeder(factory(tape), tape))

    def _restore(self, state: Dict[str, Any]) -> None:
        self.store.update(state.get("counters") or {})
        probe_state = state.get("probe")
        if (probe_state is None) != (self.telemetry is None):
            raise CheckpointError(
                "checkpoint and params disagree about telemetry")
        if self.telemetry is not None:
            self.telemetry.load_state(probe_state)
        trace_state = state.get("trace")
        if (trace_state is None) != (self.tracer is None):
            raise CheckpointError(
                "checkpoint and params disagree about tracing")
        if self.tracer is not None:
            self.tracer.load_state(trace_state)
        restore_stream(self.eng, state["machine"],
                       [factory for _port, factory in self._factories])

    # ----------------------------------------------------------- running

    @property
    def now(self) -> int:
        return self.eng.now

    def run(self, until_ps: int) -> None:
        """Advance the machine to ``until_ps`` (a rest point: safe to
        checkpoint after)."""
        self.eng.run(until_ps)

    def checkpoint(self) -> Checkpoint:
        """Snapshot the run at the current rest point."""
        return Checkpoint(
            engine="stream",
            workload=self.workload,
            at_ps=self.eng.now,
            params=self.params,
            state={
                "machine": snapshot_stream(self.eng),
                "counters": dict(self.store) if self.store else None,
                "probe": None if self.telemetry is None
                else self.telemetry.state_dict(),
                "trace": None if self.tracer is None
                else self.tracer.state_dict(),
            },
        )

    def finish(self) -> Any:
        """Run to the horizon and assemble the workload's result with
        the harness assembly functions (probe records are replayed
        there, as in the plain harnesses).  Overload params written
        when the DES kernel could checkpoint too may carry an
        ``engine_label`` key; it is ignored."""
        horizon = self.horizon
        eng, probe = self.eng, self.probe
        eng.run(horizon)
        if self.workload == "overload":
            return harnesses.assemble_overload_result(
                eng, self.config, self.params["shape"], self.store,
                horizon, probe=probe)
        if probe is not None:
            harnesses.replay_records(eng, probe, horizon)
        return {
            "commands_executed": eng.commands_executed,
            "elapsed_ps": eng.now,
            "counters": dict(self.store),
        }


def run_with_checkpoints(run: StreamRun, every_ps: int,
                         sink: Callable[[Checkpoint], None],
                         until_ps: Optional[int] = None,
                         events: Optional[Any] = None) -> int:
    """Advance ``run`` to its horizon (or ``until_ps``), invoking
    ``sink`` with a checkpoint at every ``every_ps`` boundary short of
    the end.  Returns the number of checkpoints sunk.  The final state
    is *not* checkpointed -- the caller holds the finished run.

    ``events`` is an optional :class:`repro.monitor.events.EventSink`:
    when present, the drive emits ``checkpoint.start``, one
    ``checkpoint.progress`` per sunk checkpoint (simulated position and
    running count in ``extra``) and ``checkpoint.finish`` -- the
    monitoring view of a long checkpointed run."""
    if every_ps <= 0:
        raise CheckpointError(f"checkpoint period must be positive, "
                              f"got {every_ps}")
    end = run.horizon if until_ps is None else min(until_ps, run.horizon)
    count = 0
    boundary = run.now
    if events is not None:
        events.emit("checkpoint", "start", run.workload,
                    extra={"from_ps": run.now, "until_ps": end,
                           "every_ps": every_ps})
    while boundary < end:
        boundary = min(boundary + every_ps, end)
        run.run(boundary)
        if boundary < end:
            sink(run.checkpoint())
            count += 1
            if events is not None:
                events.emit("checkpoint", "progress", run.workload,
                            extra={"at_ps": boundary, "count": count})
    if events is not None:
        events.emit("checkpoint", "finish", run.workload,
                    extra={"at_ps": run.now, "count": count})
    return count
