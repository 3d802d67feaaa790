"""The probe protocol and the declarative telemetry knob.

A :class:`Probe` observes the two event streams every MMS execution
path emits at its command boundaries:

* ``on_command`` -- one call per DQM dispatch, at the pop instant, with
  the functional result and the post-dispatch occupancy.  The kernel
  path emits it from the probed ``DataQueueManager`` dispatch; the
  stream engine from the probed dispatch of its inlined loop.
* ``on_records`` -- one call per run with the latency records in
  delivery order (a record is delivered when the data transfer
  completes, or at the end of execution for pointer-only commands),
  each with the full cycle decomposition.  Both engines record their
  deliveries during the run and the workload drivers
  (:func:`repro.engines.harnesses.replay_records`) hand the list over
  after it; ``on_stages`` is replayed one call per record.

The channels carry no ordering contract *between* each other (every
``on_command`` call arrives before the records are replayed), so
probes must keep their per-channel state independent.
Within a channel, call order and every argument are byte-identical
across engines -- that is the identity contract ``tests/engines``
asserts, and what makes telemetry an engine-agnostic layer.

Probes are *structurally absent* when disabled: the execution paths
swap in their probed dispatch only when a probe is installed at
construction time, so the probes-off hot path contains no telemetry
call sites (and no per-command branches) at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.core.commands import CommandType


@dataclass(frozen=True)
class TelemetrySpec:
    """Declarative telemetry configuration (scenario-spec payload).

    Carried by :class:`~repro.scenarios.ScenarioSpec.telemetry`; its
    presence enables telemetry for a run, its fields tune the standard
    :class:`~repro.telemetry.MmsTelemetry` probe.
    """

    #: Occupancy time-series stride: one sample every N dispatched
    #: commands (peaks are still tracked at every command).
    sample_every: int = 32
    #: Percentile summaries reported per histogram.
    percentiles: Tuple[float, ...] = (50.0, 90.0, 99.0, 99.9)

    def __post_init__(self) -> None:
        if self.sample_every < 1:
            raise ValueError(
                f"sample_every must be >= 1, got {self.sample_every}")
        if not self.percentiles:
            raise ValueError("percentiles must be non-empty")
        for p in self.percentiles:
            if not 0.0 < p <= 100.0:
                raise ValueError(
                    f"percentiles must be in (0, 100], got {p}")


class Probe:
    """Observation protocol (no-op base class).

    Subclass and override the hooks you need;
    :class:`~repro.telemetry.MmsTelemetry` is the standard
    implementation.  Probes are passive: they must not mutate any
    simulation state (the engines share functional state with the
    probe's arguments).
    """

    #: Stage-transition opt-in: the record replay emits ``on_stages``
    #: only when this is True, so telemetry-only probes skip it.
    wants_stages: bool = False

    def on_command(self, time_ps: int, op: CommandType, flow: int,
                   result: object, queue_depth: int,
                   total_segments: int) -> None:
        """One DQM dispatch: ``op`` on ``flow`` at ``time_ps`` returned
        ``result``; ``queue_depth`` is the flow's post-dispatch segment
        occupancy and ``total_segments`` the aggregate buffer
        occupancy."""

    def on_records(self, records: Sequence[tuple]) -> None:
        """The run's latency records in delivery order, each a tuple
        ``(time_ps, fifo_cycles, execution_cycles, data_cycles,
        end_to_end_cycles, op)``: the delivery instant, the Table 5
        decomposition plus the true submit-to-completion latency, and
        the command type."""

    def on_stages(self, time_ps: int, seq: int, op: CommandType, flow: int,
                  submit_ps: int, start_ps: int, end_ps: int,
                  data_submit_ps: int, data_done_ps: int) -> None:
        """One command's lifecycle stage bounds, delivered at its
        latency-record instant (``time_ps``), in record-delivery order.

        ``seq`` is the command's dispatch index -- the DQM is serial, so
        dispatch order is a total order shared by both engines even
        though records complete out of it.  ``submit_ps`` is -1 for
        commands never staged through a port FIFO;
        ``data_submit_ps``/``data_done_ps`` are -1 for pointer-only
        commands.  Emitted only when :attr:`wants_stages` is True.
        """


class ProbeChain(Probe):
    """Fan a single probe slot out to several independent probes.

    The execution paths take exactly one probe at construction; chaining
    keeps that contract while letting a run carry both the telemetry
    collector and the span tracer.  Each hook forwards to every child in
    chain order; :attr:`wants_stages` is the OR of the children's, so a
    telemetry-only chain still skips stage bookkeeping.
    """

    def __init__(self, probes: Sequence[Probe]) -> None:
        if not probes:
            raise ValueError("ProbeChain requires at least one probe")
        self.probes: Tuple[Probe, ...] = tuple(probes)
        self.wants_stages = any(
            getattr(p, "wants_stages", False) for p in self.probes)

    def on_command(self, time_ps: int, op: CommandType, flow: int,
                   result: object, queue_depth: int,
                   total_segments: int) -> None:
        for probe in self.probes:
            probe.on_command(time_ps, op, flow, result, queue_depth,
                             total_segments)

    def on_records(self, records: Sequence[tuple]) -> None:
        for probe in self.probes:
            probe.on_records(records)

    def on_stages(self, time_ps: int, seq: int, op: CommandType, flow: int,
                  submit_ps: int, start_ps: int, end_ps: int,
                  data_submit_ps: int, data_done_ps: int) -> None:
        for probe in self.probes:
            probe.on_stages(time_ps, seq, op, flow, submit_ps, start_ps,
                            end_ps, data_submit_ps, data_done_ps)
