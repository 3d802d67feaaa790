"""The DES-free MMS/DQM command-stream machine.

:class:`StreamMms` executes an MMS command workload -- port feeders,
per-port command FIFOs, the serial DQM, and the DMC's bank-aware reorder
window -- without the discrete-event kernel.  Where the kernel round-trips
every command through generator processes, event objects and an event
heap (a dozen kernel events per command), the machine advances a handful
of scalar actor states over preallocated structures: FIFO occupancy is a
deque per port, the DQM is a round-robin cursor plus one in-flight
command, the DMC is the bank release array plus the write-after-read
turnaround pair, and the memoized :func:`repro.core.dqm.command_timing_table`
picosecond costs are folded into cumulative-sum accounting per command.
The whole machine runs as one inlined loop over a tiny wake heap plus
one register: the DMC is a singleton actor with at most one pending
wake, so that wake is held as ``(time, seq, kind)`` beside the heap
rather than pushed onto it, and the loop serves whichever of the heap
top and the register is earlier by ``(time, seq)`` (the same
structure-over-speed trade the kernel's run loop makes, one level
lower).

Fidelity is not statistical: the machine reproduces the kernel's
``(time, sequence)`` ordering contract for every interaction that is
observable through the published results -- deposit visibility at DQM pop
instants, feeder backpressure resume order, DMC pick instants -- so the
per-command access traces, drop/accept counters and picosecond totals are
*identical* to the reference path, not merely close (asserted by
``tests/engines/``).  The functional work itself (pointer-memory
operations, buffer-policy decisions) runs through the very same
:class:`~repro.queueing.PacketQueueManager` code as the kernel path,
which is what makes trace identity a structural property rather than a
re-implementation hazard.

Every port arrangement is modelled: per-port FIFO depths, priorities
and the feeder's pending-command backpressure slot.  The one workload
the machine cannot replay exactly (a DMC completion grid that collides
with the MMS clock grid) is declared by :func:`stream_supports`, and the
workload drivers (:mod:`repro.engines.harnesses`) run it on the DES
kernel.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from operator import itemgetter
from typing import Callable, Iterator, List, Optional, Tuple

from repro.core.commands import (
    DATA_READ_COMMANDS,
    DATA_WRITE_COMMANDS,
    CommandType,
)
from repro.core.dqm import (
    MicrocodeMismatchError,
    command_timing_table,
    dispatch_command,
)
from repro.core.mms import MmsConfig, flow_queues
from repro.core.workloads import FeederOp
from repro.mem.timing import DdrTiming
from repro.policies import BufferPolicy
from repro.policies.base import DroppedSegment
from repro.sim.clock import NS, Clock

#: A feeder: generator of micro-ops (see
#: :data:`repro.core.workloads.FeederOp`).
Feeder = Iterator[FeederOp]

# Wake kinds (heap entries are ``(time_ps, seq, kind, arg)``; ``seq``
# replicates the kernel's monotonic push-order tie-break within a
# timestamp).  The two DMC kinds never enter the heap: the DMC's one
# pending wake lives in the ``(time, seq, kind)`` register, with its
# ``seq`` drawn from the same counter.
_W_FEEDER = 0        # resume a feeder generator (arg = feeder index)
_W_SERVE_POP = 1     # the DQM was kicked out of its idle wait
_W_SERVE_HANDOFF = 2  # first-pointer-access handoff: issue the DMC transfer
_W_SERVE_TAIL = 3    # command execution complete; serve the next one
_W_DMC_TOP = 4       # DMC loop top (queue check + slot alignment + issue)
_W_DMC_ISSUE = 5     # DMC reached the earliest legal issue slot
#: The wake kinds the DMC register holds (checkpoints store them in the
#: document's wake list; see :mod:`repro.checkpoint.stream_state`).
DMC_WAKE_KINDS = (_W_DMC_TOP, _W_DMC_ISSUE)

#: Sort key of the record passes: delivery instant, then the
#: completion-before-finalize tie (see :meth:`StreamMms.latency_records`).
_BY_DELIVERY = itemgetter(0, 1)

_DATA_COMMANDS = DATA_READ_COMMANDS | DATA_WRITE_COMMANDS

# Command records are plain lists (allocation-cheap; one per command):
# [op, flow, dst, eop, length, port, submit_ps, start_ps, end_ps,
#  data_slot, req, execution_cycles], the last stamped at the pop
#  instant.  DMC requests likewise: [submit_ps, is_write, bank,
#  complete_ps] with complete_ps = -1 until issued.
C_OP, C_FLOW, C_DST, C_EOP, C_LEN, C_PORT = 0, 1, 2, 3, 4, 5
C_SUBMIT, C_START, C_END, C_SLOT, C_REQ, C_EXEC = 6, 7, 8, 9, 10, 11
R_SUBMIT, R_WRITE, R_BANK, R_COMPLETE = 0, 1, 2, 3


def stream_supports(config: MmsConfig) -> Optional[str]:
    """Why the machine cannot replay ``config`` (None = it can).

    The machine requires the DMC completion grid to stay off the MMS
    clock grid (true for every paper configuration), which is what makes
    the latency-record ordering reproducible without a kernel.
    """
    period_ps = Clock(config.clock_mhz).period_ps
    timing = DdrTiming()
    cycle_ps = timing.access_cycle_ns * NS
    if cycle_ps % period_ps != 0:
        return "DDR access cycle not a multiple of the MMS clock period"
    pipeline_ps = config.dmc_pipeline_ns * NS
    for delay_ns in (timing.read_delay_ns, timing.write_delay_ns):
        if (delay_ns * NS + pipeline_ps) % period_ps == 0:
            return ("DMC completion grid collides with the MMS clock grid "
                    "(record ordering would need the kernel)")
    return None


class StreamMms:
    """A batched MMS instance: same functional state, no DES kernel.

    Mirrors the :class:`~repro.core.mms.MMS` construction contract
    (policy built from ``config.policy`` sized to the segment buffer,
    ``now_fn`` wired to simulated time) so policy decisions and
    pointer-memory state are bit-compatible with the kernel path.
    """

    def __init__(self, config: MmsConfig = MmsConfig(),
                 policy: Optional[BufferPolicy] = None,
                 probe=None) -> None:
        reason = stream_supports(config)
        if reason is not None:
            raise ValueError(f"stream engine cannot replay this config: "
                             f"{reason}")
        self.config = config
        self.clock = Clock(config.clock_mhz)
        self.pqm = flow_queues(config, lambda: self.now, policy)
        self.policy = self.pqm.policy
        #: Per-op fused cost row: (handoff_ps, tail_ps, execution_cycles_f,
        #: ptr_accesses, touches_data, is_data_write).
        self._opinfo = {
            op: (handoff_ps, tail_ps, execf, ptr,
                 op in _DATA_COMMANDS, op in DATA_WRITE_COMMANDS)
            for op, (handoff_ps, tail_ps, _lat, execf, ptr)
            in command_timing_table(self.clock.period_ps,
                                    config.overlap_data).items()
        }
        self._strict = config.strict_microcode
        # ---- actor clock / wake heap --------------------------------
        self.now = 0
        self._seq = 0
        self._wakes: List[Tuple[int, int, int, Optional[int]]] = []
        # ---- per-port command FIFOs ---------------------------------
        ports = config.ports
        self._num_ports = len(ports)
        self._prios = [p.priority for p in ports]
        self._caps = [p.fifo_depth for p in ports]
        self._fifos = [deque() for _ in ports]
        self._pending: List[Optional[Tuple[int, list]]] = [None] * len(ports)
        # ---- DQM (serve) --------------------------------------------
        self._rr_next = 0
        self._serve_waiting = True
        self._cur: Optional[list] = None
        self._cur_info: Optional[tuple] = None
        self.commands_executed = 0
        self._done: List[list] = []
        # ---- DMC ----------------------------------------------------
        timing = DdrTiming()
        self._cycle_ps = timing.access_cycle_ns * NS
        self._busy_cycles = timing.bank_busy_cycles
        self._war_cycles = timing.write_after_read_penalty_cycles
        pipeline_ps = config.dmc_pipeline_ns * NS
        self._read_delay_ps = timing.read_delay_ns * NS + pipeline_ps
        self._write_delay_ps = timing.write_delay_ns * NS + pipeline_ps
        self._num_banks = config.num_banks
        self._window = config.reorder_window
        self._bank_free = [0] * config.num_banks
        self._last_islot = 0
        self._last_was_read = False
        self._dmc_queue: List[list] = []
        self._dmc_req: Optional[list] = None
        #: The DMC's pending wake ``(time, seq, kind)``; kind None = the
        #: DMC is idle, waiting for a handoff to kick it.
        self._dmc_t = 0
        self._dmc_seq = 0
        self._dmc_kind: Optional[int] = None
        # ---- feeders ------------------------------------------------
        self._feeders: List[Feeder] = []
        self._feeder_port: List[int] = []
        #: Optional per-operation log hook (fuzz/diagnostics): called
        #: with (cmd_record, result, trace) after every dispatch.  While
        #: set, full access traces are materialized.
        self.trace_hook: Optional[Callable] = None
        #: Optional telemetry probe (:mod:`repro.telemetry`).  Mirrors
        #: the kernel DQM's contract: when set, the run loop selects the
        #: probed dispatch (emitting ``on_command`` at the pop instant)
        #: and disables the inlined opcode branches; when None, the hot
        #: loop carries no telemetry call sites (structural absence).
        #: ``on_record`` is replayed from :meth:`latency_records` by the
        #: workload drivers after the run, as on the kernel.
        self.probe = probe

    # --------------------------------------------------------- wiring

    def add_feeder(self, port: int, gen: Feeder) -> None:
        """Attach a feeder generator to ``port`` and schedule its first
        step now (the kernel's ``spawn`` contract: spawn order is resume
        order at equal times)."""
        if not 0 <= port < self._num_ports:
            raise ValueError(f"port {port} out of range "
                             f"[0, {self._num_ports})")
        idx = len(self._feeders)
        self._feeders.append(gen)
        self._feeder_port.append(port)
        self._seq += 1
        heappush(self._wakes, (self.now, self._seq, _W_FEEDER, idx))

    def prefill(self, flows, packets_per_flow: int,
                segments_per_packet: int = 1) -> int:
        """Functionally preload queues; see
        :meth:`repro.core.mms.MMS.prefill` (identical state, identical
        access counters)."""
        return self.pqm.bulk_prefill(flows, packets_per_flow,
                                     segments_per_packet)

    # ------------------------------------------------------------ run

    def run(self, until_ps: int) -> int:
        """Drain the pending wakes up to ``until_ps`` (kernel ``run``
        contract: the first wake beyond the horizon ends the run).

        The body is one fused loop over every actor -- feeders, the
        DQM's pop/handoff/tail points from the wake heap, and the DMC's
        aligned pick/issue points from its one-wake register -- with
        machine state held in locals; the inline blocks are the
        hand-compiled equivalents of the kernel processes they replace
        (named in the comments).
        """
        mem = self.pqm.mem
        count_restore = mem.count_only_traces
        if self.trace_hook is None:
            # the published scenarios consult only trace lengths and
            # counters; skip materializing AccessRecord objects
            mem.count_only_traces = True
        try:
            return self._run(until_ps)
        finally:
            mem.count_only_traces = count_restore

    def _run(self, until_ps: int) -> int:
        wakes = self._wakes
        seq = self._seq
        dispatch = self._dispatch if self.probe is None \
            else self._dispatch_probed
        opinfo = self._opinfo
        strict = self._strict
        heappush_ = heappush
        heappop_ = heappop
        pqm = self.pqm
        # the two dominant Table 5 / overload opcodes take an inlined
        # dispatch branch below (identical calls, minus the indirection)
        enq_op = CommandType.ENQUEUE
        deq_op = CommandType.DEQUEUE
        inline_ok = self.trace_hook is None and self.probe is None
        policy_none = self.policy is None
        # scheduler / serve state
        fifos = self._fifos
        prios = self._prios
        caps = self._caps
        nports = self._num_ports
        pending = self._pending
        rr_next = self._rr_next
        serve_waiting = self._serve_waiting
        cur = self._cur
        cur_info = self._cur_info
        done = self._done
        # feeder state
        feeders = self._feeders
        fports = self._feeder_port
        # DMC state
        dmc_queue = self._dmc_queue
        dmc_req = self._dmc_req
        dmc_t = self._dmc_t
        dmc_seq = self._dmc_seq
        dmc_kind = self._dmc_kind
        bank_free = self._bank_free
        cycle = self._cycle_ps
        busy = self._busy_cycles
        war = self._war_cycles
        rdelay = self._read_delay_ps
        wdelay = self._write_delay_ps
        nbanks = self._num_banks
        reorder = self._window
        last_islot = self._last_islot
        last_was_read = self._last_was_read

        kind: Optional[int]
        try:
            while True:
                # the next wake is the earlier by (time, seq) of the
                # heap top and the DMC register; seq is unique, so this
                # is the kernel's total order over one merged queue
                if wakes:
                    top = wakes[0]
                    t = top[0]
                    from_heap = dmc_kind is None or t < dmc_t or (
                        t == dmc_t and top[1] < dmc_seq)
                elif dmc_kind is not None:
                    from_heap = False
                else:
                    break
                if not from_heap:
                    t = dmc_t
                if t > until_ps:
                    # leave the over-horizon wake scheduled (kernel run
                    # contract: a later run() call resumes from it)
                    self.now = until_ps
                    return until_ps
                if from_heap:
                    _t, _s, kind, arg = heappop_(wakes)
                else:
                    kind = dmc_kind
                    dmc_kind = None
                self.now = now = t
                pop_now = False

                if kind == _W_SERVE_TAIL:
                    # -- DataQueueManager.execute, after the schedule
                    # tail: finalize the command, serve the next -------
                    cur[C_END] = now
                    self.commands_executed += 1
                    done.append(cur)
                    cur = None
                    pop_now = True

                elif kind == _W_SERVE_HANDOFF:
                    # -- the first-pointer-access handoff: the DMC gets
                    # the transfer one cycle later ("almost in
                    # parallel"); then the schedule tail runs ----------
                    slot = cur[C_SLOT]
                    if slot is not None and cur_info[4]:
                        req = [now, cur_info[5], slot % nbanks, -1]
                        cur[C_REQ] = req
                        dmc_queue.append(req)
                        if dmc_kind is None:
                            seq += 1
                            dmc_t, dmc_seq, dmc_kind = now, seq, _W_DMC_TOP
                    seq += 1
                    heappush_(wakes, (now + cur_info[1], seq,
                                     _W_SERVE_TAIL, None))

                elif kind == _W_DMC_TOP or kind == _W_DMC_ISSUE:
                    # -- DdrController._serve: align to the access
                    # cycle, pick within the reorder window, wait out
                    # the bank/turnaround constraint, issue ------------
                    if kind == _W_DMC_ISSUE:
                        req, dmc_req = dmc_req, None
                    else:
                        if not dmc_queue:
                            continue  # idle until the next handoff
                        rem = now % cycle
                        if rem:
                            seq += 1
                            dmc_t, dmc_seq, dmc_kind = \
                                now + cycle - rem, seq, _W_DMC_TOP
                            continue
                        slot_no = now // cycle
                        window = reorder if reorder < len(dmc_queue) \
                            else len(dmc_queue)
                        idx = 0
                        for i in range(window):
                            if bank_free[dmc_queue[i][R_BANK]] <= slot_no:
                                idx = i
                                break
                        req = dmc_queue.pop(idx)
                        # DdrModel.earliest_issue_slot: bank reuse +
                        # write-after-read turnaround overlap (max)
                        islot = bank_free[req[R_BANK]]
                        if islot < slot_no:
                            islot = slot_no
                        if req[R_WRITE] and last_was_read:
                            turnaround_free = last_islot + 1 + war
                            if turnaround_free > islot:
                                islot = turnaround_free
                        if islot > slot_no:
                            dmc_req = req
                            seq += 1
                            dmc_t, dmc_seq, dmc_kind = \
                                islot * cycle, seq, _W_DMC_ISSUE
                            continue
                    # issue at the current instant
                    islot = now // cycle
                    bank_free[req[R_BANK]] = islot + busy
                    last_islot = islot
                    last_was_read = not req[R_WRITE]
                    req[R_COMPLETE] = now + (wdelay if req[R_WRITE]
                                             else rdelay)
                    seq += 1
                    dmc_t, dmc_seq, dmc_kind = now + cycle, seq, _W_DMC_TOP

                elif kind == _W_FEEDER:
                    # -- a port process: pull micro-ops until it sleeps,
                    # blocks on a full FIFO, or finishes ---------------
                    gen = feeders[arg]
                    port = fports[arg]
                    fifo = fifos[port]
                    cap = caps[port]
                    while True:
                        try:
                            op = next(gen)
                        except StopIteration:
                            break
                        if type(op) is int:
                            if op < 0:
                                raise ValueError(
                                    f"feeder {arg} yielded a negative "
                                    f"sleep {op}")
                            seq += 1
                            heappush_(wakes, (now + op, seq, _W_FEEDER, arg))
                            break
                        cmd = [op[0], op[1], op[2], op[3], op[4], port,
                               now, -1, -1, None, None, 0.0]
                        if len(fifo) >= cap:
                            # backpressure: the port holds the command;
                            # the DQM's next pop from this FIFO deposits
                            # it and resumes us
                            pending[port] = (arg, cmd)
                            break
                        fifo.append(cmd)
                        if serve_waiting:
                            serve_waiting = False
                            seq += 1
                            heappush_(wakes, (now, seq, _W_SERVE_POP, None))

                else:  # _W_SERVE_POP: kicked out of the idle wait
                    pop_now = True

                if pop_now:
                    # -- InternalScheduler.pop_next + the head of
                    # DataQueueManager.execute: strict priority between
                    # classes, round-robin within a class; dispatch the
                    # functional operation at the pop instant ----------
                    best = -1
                    best_prio = 0
                    for off in range(nports):
                        i = rr_next + off
                        if i >= nports:
                            i -= nports
                        if not fifos[i]:
                            continue
                        if best < 0 or prios[i] < best_prio:
                            best = i
                            best_prio = prios[i]
                    if best < 0:
                        serve_waiting = True
                        continue
                    rr_next = 0 if best + 1 >= nports else best + 1
                    fifo = fifos[best]
                    cmd = fifo.popleft()
                    pend = pending[best]
                    if pend is not None:
                        # the freed slot admits the backpressured
                        # command at the pop instant; its feeder resumes
                        # at this timestamp after the queued wakes
                        # (kernel gate-trigger order)
                        pending[best] = None
                        fidx, pcmd = pend
                        pcmd[C_SUBMIT] = now
                        fifo.append(pcmd)
                        seq += 1
                        heappush_(wakes, (now, seq, _W_FEEDER, fidx))
                    cmd[C_START] = now
                    op = cmd[C_OP]
                    if inline_ok and op is deq_op:
                        info_seg, trace = pqm.dequeue_segment(cmd[C_FLOW])
                        result = info_seg
                        trace_len = len(trace)
                        data_slot = info_seg.slot
                    elif inline_ok and op is enq_op and policy_none:
                        result, trace = pqm.enqueue_segment(
                            cmd[C_FLOW], eop=cmd[C_EOP], length=cmd[C_LEN])
                        trace_len = len(trace)
                        data_slot = result
                    else:
                        result, trace_len, data_slot = dispatch(cmd)
                    info = opinfo[op]
                    if strict \
                            and not isinstance(result, DroppedSegment) \
                            and trace_len != info[3]:
                        raise MicrocodeMismatchError(
                            f"{cmd[C_OP].value}: functional trace has "
                            f"{trace_len} pointer accesses, schedule has "
                            f"{info[3]}")
                    cmd[C_SLOT] = data_slot
                    cmd[C_EXEC] = info[2]
                    cur = cmd
                    cur_info = info
                    seq += 1
                    heappush_(wakes, (now + info[0], seq,
                                     _W_SERVE_HANDOFF, None))
            if self.now < until_ps:
                self.now = until_ps
            return self.now
        finally:
            self._seq = seq
            self._rr_next = rr_next
            self._serve_waiting = serve_waiting
            self._cur = cur
            self._cur_info = cur_info
            self._dmc_req = dmc_req
            self._dmc_t = dmc_t
            self._dmc_seq = dmc_seq
            self._dmc_kind = dmc_kind
            self._last_islot = last_islot
            self._last_was_read = last_was_read

    # ------------------------------------------------------- dispatch

    def _dispatch(self, cmd: list):
        """Functional execution through the DQM's opcode switch
        (:func:`repro.core.dqm.dispatch_command`, with the
        :class:`~repro.core.commands.Command` defaults for ``pid`` and
        the segment index); returns ``(result, trace_len, data_slot)``."""
        result, trace, data = dispatch_command(
            self.pqm, cmd[C_OP], cmd[C_FLOW], cmd[C_DST], cmd[C_EOP],
            cmd[C_LEN])
        hook = self.trace_hook
        if hook is not None:
            hook(cmd, result, trace)
        return result, len(trace), data

    def _dispatch_probed(self, cmd: list):
        """Telemetry variant of :meth:`_dispatch`: the functional
        operation, then the probe's ``on_command`` with the
        post-dispatch occupancy -- the identical call the kernel DQM's
        probed dispatch emits at the identical pop instant."""
        out = self._dispatch(cmd)
        pqm = self.pqm
        self.probe.on_command(self.now, cmd[C_OP], cmd[C_FLOW], out[0],
                              pqm.queued_segments(cmd[C_FLOW]),
                              pqm.num_segments - pqm.free_segments)
        return out

    # -------------------------------------------------------- records

    def latency_records(self, horizon_ps: int, with_ops: bool = False
                        ) -> List[tuple]:
        """Per-command latency records in kernel delivery order.

        Each entry is ``(record_time_ps, fifo_cycles, execution_cycles,
        data_cycles, end_to_end_cycles)`` -- exactly what
        :meth:`MMS.latency_records <repro.core.mms.MMS.latency_records>`
        derives from the kernel DQM's finalize processes, in the order
        those processes resume.  With ``with_ops`` each entry
        additionally carries the :class:`CommandType` as a sixth field
        (the telemetry replay keys histograms by it).  Records are
        delivered when the data transfer completes (data commands) or
        at end of execution (pointer-only and policy-dropped commands);
        the kernel's within-timestamp FIFO contract puts a completion
        resume (pushed at issue time) ahead of a finalize spawned in
        that timestamp, which is the ``tie`` sort key below;
        ``stream_supports`` rules out configurations where the two
        grids could otherwise collide.
        """
        period = self.clock.period_ps
        entries = []
        for cmd in self._done:
            req = cmd[C_REQ]
            end_ps = cmd[C_END]
            if req is None:
                record_time = end_ps
                data_cycles = 0.0
                tie = 1
            else:
                complete = req[R_COMPLETE]
                if complete < 0:
                    continue  # never issued inside the horizon
                data_cycles = (complete - req[R_SUBMIT]) / period
                if complete > end_ps:
                    record_time = complete
                    tie = 0
                else:
                    # the transfer finished while the DQM still
                    # executed: the finalize finds it done and delivers
                    # at the end of execution
                    record_time = end_ps
                    tie = 1
            if record_time > horizon_ps:
                continue
            submit = cmd[C_SUBMIT]
            fifo_cycles = (cmd[C_START] - submit) / period if submit >= 0 \
                else 0.0
            base = submit if submit >= 0 else cmd[C_START]
            rec = (record_time, fifo_cycles, cmd[C_EXEC], data_cycles,
                   (record_time - base) / period)
            entries.append((record_time, tie,
                            rec + (cmd[C_OP],) if with_ops else rec))
        entries.sort(key=_BY_DELIVERY)
        return [e[2] for e in entries]

    def stage_records(self, horizon_ps: int) -> List[tuple]:
        """Per-command lifecycle stage bounds in kernel delivery order.

        Each entry is ``(record_time_ps, seq, op, flow, submit_ps,
        start_ps, end_ps, data_submit_ps, data_done_ps)`` -- exactly
        what the kernel DQM's finalize processes record, in the order
        those processes resume.  ``seq`` is the dispatch
        index: the DQM is serial, so completion (append) order in
        ``_done`` *is* dispatch order, shared with the kernel's
        ``commands_executed`` stamp.  Delivery instants and skip rules
        mirror :meth:`latency_records` record for record; the data
        bounds are -1 for commands that never reached the DMC.
        """
        entries = []
        for seq, cmd in enumerate(self._done):
            req = cmd[C_REQ]
            end_ps = cmd[C_END]
            if req is None:
                record_time = end_ps
                data_submit = -1
                data_done = -1
                tie = 1
            else:
                complete = req[R_COMPLETE]
                if complete < 0:
                    continue  # never issued inside the horizon
                data_submit = req[R_SUBMIT]
                if complete > end_ps:
                    record_time = data_done = complete
                    tie = 0
                else:  # done before execution ended (see above)
                    record_time = data_done = end_ps
                    tie = 1
            if record_time > horizon_ps:
                continue
            entries.append((record_time, tie, seq, cmd[C_OP], cmd[C_FLOW],
                            cmd[C_SUBMIT], cmd[C_START], end_ps,
                            data_submit, data_done))
        entries.sort(key=_BY_DELIVERY)
        return [(e[0], e[2], e[3], e[4], e[5], e[6], e[7], e[8], e[9])
                for e in entries]
