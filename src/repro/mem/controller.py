"""DES-integrated memory controllers.

The raw model in :mod:`repro.mem.ddr` is a passive timing/state
machine, and so are the ZBT timing parameters in :mod:`repro.mem.timing`.  The platform models (reference NPU, MMS)
need *controllers*: blocks that queue requests from concurrent processes,
issue them respecting the device timing, and signal completion.  These
run as kernel processes and expose per-request latency decomposition,
which the Table 5 experiment reports as "data delay".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.mem.ddr import Access, DdrModel, MemOp
from repro.mem.timing import DdrTiming
from repro.sim import Clock, LatencyRecorder, NS, Simulator
from repro.sim.kernel import Event


@dataclass
class MemRequest:
    """A queued memory request and its life-cycle timestamps."""

    op: MemOp
    bank: int
    tag: int = 0
    submit_ps: int = 0
    issue_ps: int = 0
    complete_ps: int = 0

    @property
    def queue_wait_ps(self) -> int:
        return self.issue_ps - self.submit_ps

    @property
    def service_ps(self) -> int:
        return self.complete_ps - self.issue_ps

    @property
    def total_ps(self) -> int:
        return self.complete_ps - self.submit_ps


class DdrController:
    """Request-queued DDR controller with optional bank-aware reordering.

    Parameters
    ----------
    sim:
        Owning simulator.
    num_banks:
        Banks on the attached device.
    timing:
        DDR timing (paper defaults).
    reorder_window:
        How many queued requests the issue stage may look past the head
        to find one whose bank is idle.  ``1`` = strict FIFO.  The MMS
        DMC "issues interleaved commands so as to minimize bank
        conflicts", i.e. a window > 1.
    pipeline_overhead_ns:
        Fixed controller/datapath pipeline latency added to every
        request's service time (command decode, clock-domain crossing,
        burst framing).  Calibrated per platform.
    """

    def __init__(self, sim: Simulator, num_banks: int = 8,
                 timing: DdrTiming = DdrTiming(),
                 reorder_window: int = 4,
                 pipeline_overhead_ns: int = 0,
                 name: str = "ddr") -> None:
        if reorder_window < 1:
            raise ValueError(f"reorder_window must be >= 1, got {reorder_window}")
        self.sim = sim
        self.name = name
        self.timing = timing
        self.model = DdrModel(timing=timing, num_banks=num_banks,
                              model_rw_turnaround=True)
        self.reorder_window = reorder_window
        self.pipeline_overhead_ps = pipeline_overhead_ns * NS
        # Completion delay is a pure function of the op; precompute both
        # directions instead of re-deriving them per request.
        self._complete_delay_ps = {
            MemOp.READ: timing.read_delay_ns * NS + self.pipeline_overhead_ps,
            MemOp.WRITE: timing.write_delay_ns * NS + self.pipeline_overhead_ps,
        }
        self._queue: List[tuple[MemRequest, Event]] = []
        self._kick: Optional[Event] = None
        self.queue_wait = LatencyRecorder(f"{name}.queue_wait")
        self.service = LatencyRecorder(f"{name}.service")
        self.completed = 0
        self._proc = sim.spawn(self._serve(), name=f"{name}.serve")

    # ------------------------------------------------------------- client

    def submit(self, op: MemOp, bank: int, tag: int = 0) -> Event:
        """Queue a 64-byte access; the returned event triggers with the
        finished :class:`MemRequest` when data transfer completes."""
        if not 0 <= bank < self.model.num_banks:
            raise ValueError(
                f"bank {bank} out of range [0, {self.model.num_banks})"
            )
        req = MemRequest(op=op, bank=bank, tag=tag, submit_ps=self.sim.now)
        done = self.sim.event(name=f"{self.name}.done")
        self._queue.append((req, done))
        if self._kick is not None and not self._kick.triggered:
            self._kick.trigger()
        return done

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    # ------------------------------------------------------------- server

    def _serve(self):
        """Issue stage: one access per 40 ns access cycle; completions
        (device delay + controller pipeline) run asynchronously so that
        issues pipeline behind in-flight data, as the device allows."""
        access_cycle_ps = self.timing.access_cycle_ns * NS
        while True:
            if not self._queue:
                self._kick = self.sim.event(name=f"{self.name}.kick")
                yield self._kick
                self._kick = None
            # Align to the next access-cycle boundary.
            rem = self.sim.now % access_cycle_ps
            if rem:
                yield access_cycle_ps - rem
            slot = self.sim.now // access_cycle_ps

            idx = self._pick(slot)
            req, done = self._queue.pop(idx)
            access = Access(op=req.op, bank=req.bank, tag=req.tag)
            issue_slot = self.model.earliest_issue_slot(access, slot)
            if issue_slot > slot:
                yield (issue_slot - slot) * access_cycle_ps
            req.issue_ps = self.sim.now
            self.model.issue(access, issue_slot)
            # Data valid after the device delay plus the fixed controller
            # pipeline; the issue stage only holds the access cycle.
            delay_ps = self._complete_delay_ps[req.op]
            self.sim.spawn(self._complete(req, done, delay_ps),
                           name=f"{self.name}.data")
            yield access_cycle_ps

    def _complete(self, req: MemRequest, done: Event, delay_ps: int):
        yield delay_ps
        req.complete_ps = self.sim.now
        self.queue_wait.record(req.queue_wait_ps)
        self.service.record(req.service_ps)
        self.completed += 1
        done.trigger(req)

    def _pick(self, slot: int) -> int:
        """Index of the request to issue next (bank-aware within window)."""
        window = min(self.reorder_window, len(self._queue))
        for i in range(window):
            req, _done = self._queue[i]
            if not self.model.bank_busy_at(req.bank, slot):
                return i
        return 0


class SramController:
    """Pipelined ZBT SRAM port as a DES resource.

    One access per clock cycle, fixed read latency, no turnaround: a
    request stream of N accesses completes in ``N + read_latency``
    cycles.  Concurrent clients are serialized in submit order.
    """

    def __init__(self, sim: Simulator, clock: Clock,
                 read_latency_cycles: int = 2,
                 name: str = "zbt") -> None:
        if read_latency_cycles < 0:
            raise ValueError("read_latency_cycles must be >= 0")
        self.sim = sim
        self.clock = clock
        self.read_latency_cycles = read_latency_cycles
        self.name = name
        self._next_free_ps = 0
        self.accesses = 0

    def access(self, is_read: bool = True):
        """Blocking single-word access; generator for ``yield from``.

        Returns the completion time.  Writes are posted (complete at the
        slot); reads complete ``read_latency_cycles`` later.
        """
        period = self.clock.period_ps
        start = max(self.sim.now, self._next_free_ps)
        start = self.clock.next_edge(start)
        self._next_free_ps = start + period
        self.accesses += 1
        latency = self.read_latency_cycles * period if is_read else period
        finish = start + latency
        if finish > self.sim.now:
            yield finish - self.sim.now
        return finish

    def burst(self, num_accesses: int, reads: int = 0):
        """Blocking pipelined burst of ``num_accesses`` accesses.

        The burst occupies one slot per access; the result is available
        after the last access plus the read latency when the burst ends
        in reads.
        """
        if num_accesses <= 0:
            return self.sim.now
        period = self.clock.period_ps
        start = max(self.sim.now, self._next_free_ps)
        start = self.clock.next_edge(start)
        self._next_free_ps = start + num_accesses * period
        self.accesses += num_accesses
        tail = self.read_latency_cycles * period if reads else 0
        finish = start + num_accesses * period + tail
        if finish > self.sim.now:
            yield finish - self.sim.now
        return finish
