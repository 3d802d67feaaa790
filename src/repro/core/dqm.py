"""Data Queue Manager: the pointer-manipulation engine of the MMS.

"The DQM organizes the incoming packets into queues.  It handles and
updates the data structures kept in the Pointer memory."  One command
executes at a time; its microcode schedule (:mod:`repro.core.microcode`)
defines the execution latency, which "defines the time interval between
two successive commands; in other words it states the MMS processing
rate".

Data accesses overlap execution: the first pointer access of every
schedule yields the data-memory address, and the DMC is handed the
transfer one cycle later -- "the actual data accesses at the Data Memory
can be done, almost, in parallel with the pointer handling".
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Dict, List, Optional, Tuple

from repro.core.commands import Command, CommandType
from repro.core.dmc import DataMemoryController
from repro.core.microcode import SCHEDULE_COSTS
from repro.policies.base import DroppedSegment
from repro.queueing import AccessRecord, PacketQueueManager
from repro.sim import Clock, Simulator

#: Per-command timing tuple used on the execute hot path:
#: (handoff_ps, tail_ps, latency_cycles, execution_cycles_f, ptr_accesses)
_CmdTiming = Tuple[int, int, int, float, int]


@lru_cache(maxsize=None)
def _timing_table(period_ps: int, overlap_data: bool) -> Dict[CommandType, _CmdTiming]:
    """Memoized per-clock expansion of every command schedule.

    The schedule is a pure function of ``(CommandType, overlap flag)``
    and the clock period, so the picosecond conversions are done once
    per configuration instead of once per executed command.
    """
    table: Dict[CommandType, _CmdTiming] = {}
    for cmd, costs in SCHEDULE_COSTS.items():
        handoff_cycles = (costs.overlap_handoff_cycles if overlap_data
                          else costs.latency_cycles)
        handoff_ps = handoff_cycles * period_ps
        tail_ps = (costs.latency_cycles - handoff_cycles) * period_ps
        table[cmd] = (handoff_ps, tail_ps, costs.latency_cycles,
                      costs.execution_cycles_f, costs.ptr_accesses)
    return table


#: Public name of the memoized per-clock schedule expansion.  The DQM
#: uses it per command; the batched command-stream engine
#: (:mod:`repro.engines`) folds the same rows into its cumulative-sum
#: accounting, so both paths price commands from one table.
command_timing_table = _timing_table


class MicrocodeMismatchError(AssertionError):
    """Strict mode: a functional trace disagreed with the schedule."""


def dispatch_command(pqm: PacketQueueManager, op: CommandType, flow: int,
                     dst_flow: Optional[int], eop: bool, length: int,
                     pid: int = -1, index: int = 0
                     ) -> Tuple[Any, List[AccessRecord], Optional[int]]:
    """Run one command's functional operation on ``pqm``.

    The one mapping from command type to :class:`PacketQueueManager`
    operation and DMC slot, shared by the kernel DQM and the
    command-stream machine.  Returns ``(result, trace, data_slot)``:
    ``data_slot`` is the segment buffer the DMC transfers, or None for
    pointer-only commands and policy drops (a dropped enqueue still
    executes and is timed, but writes no buffer).
    """
    if op is CommandType.ENQUEUE:
        slot, trace = pqm.admit_enqueue(flow, eop=eop, length=length,
                                        pid=pid, index=index)
        return slot, trace, (None if isinstance(slot, DroppedSegment)
                             else slot)
    if op is CommandType.DEQUEUE:
        info, trace = pqm.dequeue_segment(flow)
        return info, trace, info.slot
    if op is CommandType.READ:
        info, trace = pqm.read_segment(flow)
        return info, trace, info.slot
    if op is CommandType.OVERWRITE:
        info, trace = pqm.overwrite_segment(flow)
        return info, trace, info.slot
    if op is CommandType.DELETE:
        info, trace = pqm.delete_segment(flow)
        return info, trace, None
    if op is CommandType.DELETE_PACKET:
        return None, pqm.delete_packet(flow), None
    if op is CommandType.MOVE:
        return None, pqm.move_packet(flow, dst_flow), None
    if op is CommandType.OVERWRITE_LENGTH:
        info, trace = pqm.overwrite_segment_length(flow, length)
        return info, trace, None
    if op is CommandType.OVERWRITE_LENGTH_MOVE:
        return None, pqm.overwrite_length_and_move(flow, dst_flow,
                                                   length), None
    if op is CommandType.OVERWRITE_MOVE:
        info, trace = pqm.overwrite_and_move(flow, dst_flow)
        return info, trace, info.slot
    if op is CommandType.APPEND_HEAD:
        slot, trace = pqm.append_head(flow, pid=pid)
        return slot, trace, (None if isinstance(slot, DroppedSegment)
                             else slot)
    if op is CommandType.APPEND_TAIL:
        slot, trace = pqm.append_tail(flow, length=length, pid=pid)
        return slot, trace, (None if isinstance(slot, DroppedSegment)
                             else slot)
    raise ValueError(f"unknown command type {op}")


class DataQueueManager:
    """Executes MMS commands over the two-level queue structure."""

    def __init__(self, sim: Simulator, clock: Clock,
                 pqm: PacketQueueManager, dmc: Optional[DataMemoryController],
                 strict_microcode: bool = False,
                 overlap_data: bool = True,
                 probe: Optional[Any] = None) -> None:
        self.sim = sim
        self.clock = clock
        self.pqm = pqm
        self.dmc = dmc
        self.strict_microcode = strict_microcode
        #: Ablation A5: when False, the data access is issued only after
        #: the pointer work completes (what the MMS design avoids --
        #: Section 6.1 credits the overlap for the 10.5-cycle overhead).
        self.overlap_data = overlap_data
        self.commands_executed = 0
        #: One record per retired command, in delivery order:
        #: ``(time_ps, seq, op, flow, submit_ps, start_ps, end_ps,
        #: data_submit_ps, data_done_ps, data_cycles)`` -- the data
        #: fields are -1 / 0.0 for commands that never reached the DMC.
        #: :class:`~repro.core.mms.MMS` derives its latency and stage
        #: records from it.
        self.records: List[tuple] = []
        # Memoized per-command timing for this clock domain; both overlap
        # variants are kept so flipping the ablation flag stays valid.
        self._timing_overlap = _timing_table(clock.period_ps, True)
        self._timing_serial = _timing_table(clock.period_ps, False)
        #: Optional telemetry probe (:mod:`repro.telemetry`).  The
        #: probed dispatch is swapped in as an instance attribute *only*
        #: when a probe exists, so the probes-off hot path carries no
        #: telemetry call sites at all (structural absence, not an inert
        #: per-command branch).  ``on_records``/``on_stages`` are
        #: fed from :attr:`records` after the run.
        self.probe = probe
        if probe is not None:
            self._dispatch = self._dispatch_probed  # type: ignore[assignment]

    # ----------------------------------------------------------- execute

    def execute(self, cmd: Command):
        """Generator: run one command to completion (DQM-side).

        The DQM is busy for the schedule length; the data transfer (if
        any) is issued to the DMC after the first pointer access and
        completes asynchronously.  The latency record is finalized when
        both execution and data transfer are done.
        """
        timing = (self._timing_overlap if self.overlap_data
                  else self._timing_serial)
        handoff_ps, tail_ps, latency_cycles, exec_cycles_f, ptr_accesses = \
            timing[cmd.type]
        cmd.start_exec_ps = self.sim.now
        # the DQM is serial: the executed count at the pop instant is the
        # dispatch index both engines share
        cmd.trace_seq = self.commands_executed
        result, trace_len, data_slot = self._dispatch(cmd)
        # A policy-dropped enqueue generates no pointer traffic at all
        # (the schedule assumes an accepted segment), so the strict
        # cross-check only applies to commands that actually executed.
        # Accepted enqueues -- including accept-after-push-out, whose
        # returned trace is the enqueue's own -- are still checked.
        dropped = isinstance(result, DroppedSegment)
        if self.strict_microcode and not dropped \
                and trace_len != ptr_accesses:
            raise MicrocodeMismatchError(
                f"{cmd.type.value}: functional trace has {trace_len} pointer "
                f"accesses, schedule has {ptr_accesses}"
            )
        cmd.result = result  # type: ignore[attr-defined]

        yield handoff_ps

        data_event = None
        if cmd.touches_data_memory and self.dmc is not None \
                and data_slot is not None:
            data_event = self.dmc.submit(cmd.is_data_write, data_slot,
                                         tag=cmd.cid)
        yield tail_ps
        cmd.end_exec_ps = self.sim.now
        self.commands_executed += 1
        if cmd.completion is not None:
            cmd.completion.trigger(result)
        self.sim.spawn(self._finalize(cmd, data_event),
                       name=f"fin{cmd.cid}")

    def _finalize(self, cmd: Command, data_event):
        """Wait for the data transfer, then append the command's record
        at the delivery instant."""
        if data_event is not None:
            req = yield data_event
            cmd.data_done_ps = data_done_ps = self.sim.now
            data_submit_ps = req.submit_ps
            data_cycles = req.total_ps / self.clock.period_ps
        else:
            cmd.data_done_ps = cmd.end_exec_ps
            data_submit_ps = data_done_ps = -1
            data_cycles = 0.0
            yield 0
        self.records.append((self.sim.now, cmd.trace_seq, cmd.type,
                             cmd.flow, cmd.submit_ps, cmd.start_exec_ps,
                             cmd.end_exec_ps, data_submit_ps, data_done_ps,
                             data_cycles))

    # ---------------------------------------------------------- dispatch

    def _dispatch(self, cmd: Command):
        """Run the functional operation; returns (result, ptr-accesses,
        data slot for the DMC)."""
        result, trace, data_slot = dispatch_command(
            self.pqm, cmd.type, cmd.flow, cmd.dst_flow, cmd.eop,
            cmd.length, cmd.pid, cmd.seg_index)
        return result, len(trace), data_slot

    def _dispatch_probed(self, cmd: Command):
        """Telemetry variant of :meth:`_dispatch`: the functional
        operation, then the probe's ``on_command`` with the
        post-dispatch occupancy (the stream engine emits the identical
        call at the identical pop instant)."""
        out = DataQueueManager._dispatch(self, cmd)
        pqm = self.pqm
        self.probe.on_command(self.sim.now, cmd.type, cmd.flow, out[0],
                              pqm.queued_segments(cmd.flow),
                              pqm.num_segments - pqm.free_segments)
        return out
