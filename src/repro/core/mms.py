"""The assembled Memory Management System (Figure 2) and load harness.

The MMS couples the Internal Scheduler (per-port command FIFOs), the DQM
(one command in execution at a time -- the execution latency *is* the
processing rate) and the DMC (data transfers overlapped with pointer
work).  The load harness reproduces the Table 5 experiment: four ports
submit synchronized command volleys at a configured aggregate Gbps, and
every command's delay is decomposed into FIFO + execution + data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional

from repro.core.commands import Command
from repro.core.dmc import DataMemoryController
from repro.core.dqm import DataQueueManager, command_timing_table
from repro.core.reassembly import ReassemblyBlock
from repro.core.scheduler import DEFAULT_PORTS, InternalScheduler, PortConfig
from repro.core.segmentation import SegmentationBlock
from repro.core.workloads import FeederOp, drive_port
from repro.policies import BufferPolicy, PolicySpec, make_policy
from repro.queueing import PacketQueueManager
from repro.sim import Clock, Simulator
from repro.sim.clock import SEC

#: Bits moved per MMS operation (one 64-byte segment).
BITS_PER_OP = 512


@dataclass(frozen=True)
class MmsConfig:
    """MMS build-time configuration.

    Defaults are the paper's: 125 MHz conservative FPGA clock, 32 K
    flows, 8-bank DDR data memory, small per-port command FIFOs.
    """

    clock_mhz: int = 125
    num_flows: int = 32 * 1024
    num_segments: int = 64 * 1024
    num_descriptors: int = 32 * 1024
    num_banks: int = 8
    reorder_window: int = 4
    dmc_pipeline_ns: int = 135
    ports: tuple[PortConfig, ...] = DEFAULT_PORTS
    strict_microcode: bool = False
    keep_samples: bool = False
    #: Ablation A5: overlap data transfers with pointer work (the MMS
    #: design point); False serializes them.
    overlap_data: bool = True
    #: Buffer-management policy (None = legacy: enqueue-on-full raises
    #: OutOfBuffersError).  Sized to ``num_segments`` at build time.
    policy: Optional[PolicySpec] = None
    #: Seed for stochastic policies (RED's private RNG).
    policy_seed: int = 2005
    #: Retain the full DropRecord stream, not just counters.
    policy_records: bool = False

    def __post_init__(self) -> None:
        if self.clock_mhz <= 0:
            raise ValueError("clock_mhz must be positive")
        if self.num_flows < 1 or self.num_segments < 1:
            raise ValueError("num_flows and num_segments must be >= 1")


def flow_queues(config: MmsConfig, now_fn: Callable[[], int],
                policy: Optional[BufferPolicy] = None) -> PacketQueueManager:
    """The functional flow queues of ``config``: a
    :class:`PacketQueueManager` with its buffer-management policy.  An
    explicit ``policy`` instance wins, else one is built from
    ``config.policy`` sized to the segment buffer; its clock reads
    ``now_fn``.  Every machine builds its queues here."""
    if policy is None and config.policy is not None:
        policy = make_policy(config.policy, capacity=config.num_segments,
                             seed=config.policy_seed,
                             keep_records=config.policy_records)
    if policy is not None:
        policy.now_fn = now_fn
    return PacketQueueManager(num_flows=config.num_flows,
                              num_segments=config.num_segments,
                              num_descriptors=config.num_descriptors,
                              policy=policy)


class MMS:
    """The Memory Management System block."""

    def __init__(self, config: MmsConfig = MmsConfig(),
                 sim: Optional[Simulator] = None,
                 policy: Optional[BufferPolicy] = None,
                 probe=None) -> None:
        self.config = config
        self.sim = sim or Simulator()
        self.clock = Clock(config.clock_mhz)
        self.pqm = flow_queues(config, lambda: self.sim.now, policy)
        #: Buffer-management policy (see :func:`flow_queues`).
        self.policy = self.pqm.policy
        self.dmc = DataMemoryController(self.sim, self.clock,
                                        num_banks=config.num_banks,
                                        reorder_window=config.reorder_window,
                                        pipeline_overhead_ns=config.dmc_pipeline_ns)
        #: Optional telemetry probe (:mod:`repro.telemetry`); forwarded
        #: to the DQM, which swaps in its probed dispatch only when one
        #: is present.
        self.probe = probe
        self.dqm = DataQueueManager(self.sim, self.clock, self.pqm, self.dmc,
                                    strict_microcode=config.strict_microcode,
                                    overlap_data=config.overlap_data,
                                    probe=probe)
        self.scheduler = InternalScheduler(self.sim, config.ports)
        self.segmentation = SegmentationBlock(config.num_flows)
        self.reassembly = ReassemblyBlock()
        self._serve_proc = self.sim.spawn(self._serve(), name="mms.dqm")

    # ----------------------------------------------------------- serving

    def _serve(self):
        while True:
            if not self.scheduler.has_pending:
                yield self.scheduler.wait_for_command()
                continue
            cmd = self.scheduler.pop_next()
            yield from self.dqm.execute(cmd)

    # -------------------------------------------------------------- API

    def submit(self, port: int, cmd: Command):
        """Blocking command submit (generator; backpressure-aware)."""
        yield from self.scheduler.submit(port, cmd)

    def try_submit(self, port: int, cmd: Command) -> bool:
        """Non-blocking command submit."""
        return self.scheduler.try_submit(port, cmd)

    def submit_and_wait(self, port: int, cmd: Command):
        """Blocking submit that also waits for execution (generator).

        ``result = yield from mms.submit_and_wait(port, cmd)`` returns
        the command's functional result (e.g. the dequeued
        :class:`~repro.queueing.packet_queues.SegmentInfo`) once the DQM
        has executed it.
        """
        cmd.completion = self.sim.event(name=f"cmd{cmd.cid}.done")
        yield from self.scheduler.submit(port, cmd)
        result = yield cmd.completion
        return result

    def apply(self, cmd: Command):
        """Zero-time functional application of a command (no simulated
        clock, no FIFO/DMC): the command's effect on the flow queues,
        for scripted walkthroughs such as ``examples/quickstart.py``.
        Throughput questions go through :meth:`submit` instead."""
        result, _trace_len, _slot = self.dqm._dispatch(cmd)
        return result

    def prefill(self, flows: Iterator[int], packets_per_flow: int,
                segments_per_packet: int = 1) -> int:
        """Functionally preload queues (no simulated time): the steady
        state backlog the Table 5 experiment dequeues from.  Delegates
        to :meth:`PacketQueueManager.bulk_prefill`, whose closed form
        is state-identical to the historical per-segment loop."""
        return self.pqm.bulk_prefill(flows, packets_per_flow,
                                     segments_per_packet)

    # ------------------------------------------------- driver surface
    # The workload drivers (repro.engines.harnesses) run on this block
    # and on the command-stream StreamMms through the same names:
    # prefill, now, add_feeder, run, latency_records, stage_records.

    @property
    def now(self) -> int:
        return self.sim.now

    def add_feeder(self, port: int, ops: Iterator[FeederOp]) -> None:
        """Attach a micro-op feeder (:mod:`repro.core.workloads`) to
        ``port`` as a kernel process; spawn order is resume order at
        equal times."""
        self.sim.spawn(drive_port(self, port, ops), name=f"port{port}")

    def run(self, until_ps: int) -> int:
        """Advance the kernel to ``until_ps``."""
        return self.sim.run(until_ps=until_ps)

    def latency_records(self, horizon_ps: int, with_ops: bool = False
                        ) -> List[tuple]:
        """Per-command latency records in delivery order:
        ``(record_time_ps, fifo_cycles, execution_cycles, data_cycles,
        end_to_end_cycles)``, plus the :class:`CommandType` as a sixth
        field with ``with_ops`` (:meth:`StreamMms.latency_records
        <repro.engines.stream.StreamMms.latency_records>`' format)."""
        period = self.clock.period_ps
        timing = command_timing_table(period, self.config.overlap_data)
        out = []
        for (time_ps, _seq, op, _flow, submit, start, end, _dsub, ddone,
             data_cycles) in self.dqm.records:
            if time_ps > horizon_ps:
                break
            fifo_cycles = (start - submit) / period if submit >= 0 else 0.0
            base = submit if submit >= 0 else start
            e2e_cycles = ((ddone if ddone > end else end) - base) / period
            if with_ops:
                out.append((time_ps, fifo_cycles, timing[op][3],
                            data_cycles, e2e_cycles, op))
            else:
                out.append((time_ps, fifo_cycles, timing[op][3],
                            data_cycles, e2e_cycles))
        return out

    def stage_records(self, horizon_ps: int) -> List[tuple]:
        """Per-command lifecycle stage bounds in delivery order:
        ``(record_time_ps, seq, op, flow, submit_ps, start_ps, end_ps,
        data_submit_ps, data_done_ps)`` (:meth:`StreamMms.stage_records
        <repro.engines.stream.StreamMms.stage_records>`' format)."""
        return [record[:9] for record in self.dqm.records
                if record[0] <= horizon_ps]

    @property
    def commands_executed(self) -> int:
        return self.dqm.commands_executed

    @property
    def drop_stats(self):
        """The policy's accept/drop/push-out counters (None without a
        policy)."""
        return self.policy.stats if self.policy is not None else None

    def ops_per_second(self, elapsed_ps: int) -> float:
        if elapsed_ps <= 0:
            return 0.0
        return self.commands_executed * SEC / elapsed_ps

    def achieved_gbps(self, elapsed_ps: int) -> float:
        return self.ops_per_second(elapsed_ps) * BITS_PER_OP / 1e9


# ======================================================== load experiment

@dataclass
class MmsLoadResult:
    """One Table 5 row: delay decomposition at an offered load."""

    offered_gbps: float
    completed_ops: int
    elapsed_ps: int
    fifo_cycles: float
    execution_cycles: float
    data_cycles: float
    #: True mean submit-to-completion latency (completion = the later of
    #: execution end and data-transfer end); equals the additive total
    #: only when pointer/data work serializes.
    end_to_end_cycles: float = 0.0
    #: Engine knob the run used ("fast" = command-stream machine, or the
    #: DES kernel for configs it declines; "reference" = the DES kernel);
    #: results are identical.
    engine: str = "fast"

    @property
    def total_cycles(self) -> float:
        return self.fifo_cycles + self.execution_cycles + self.data_cycles

    @property
    def achieved_gbps(self) -> float:
        if self.elapsed_ps <= 0:
            return 0.0
        return self.completed_ops * SEC / self.elapsed_ps * BITS_PER_OP / 1e9

    @property
    def achieved_mops(self) -> float:
        if self.elapsed_ps <= 0:
            return 0.0
        return self.completed_ops * SEC / self.elapsed_ps / 1e6

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MmsLoadResult({self.offered_gbps} Gbps: fifo={self.fifo_cycles:.1f} "
            f"exec={self.execution_cycles:.1f} data={self.data_cycles:.1f} "
            f"total={self.total_cycles:.1f})"
        )


def run_load(offered_gbps: float, num_volleys: int = 2500,
             config: MmsConfig = MmsConfig(),
             active_flows: int = 512,
             warmup_volleys: int = 200,
             burst_len: int = 4,
             burst_prob: float = 0.25,
             seed: int = 2005,
             engine: str = "fast",
             probe=None) -> MmsLoadResult:
    """The Table 5 experiment at one offered load.

    Four ports submit synchronized volleys -- one command per port per
    volley period, the arrival pattern that motivates the per-port FIFOs
    ("bursts of commands that may arrive simultaneously").  With
    probability ``burst_prob`` a port emits ``burst_len`` back-to-back
    commands and skips the corresponding later volleys (same average
    rate, burstier arrivals -- real interfaces deliver segments in
    clumps).  The In and CPU0 ports enqueue, the Out and CPU1 ports
    dequeue, so the command mix is half 10-cycle enqueues, half 11-cycle
    dequeues: the paper's 10.5-cycle average execution latency.  Queues
    are prefilled so dequeues always find data.  Burst parameters and the
    DMC pipeline constant are calibrated per EXPERIMENTS.md.

    ``engine`` selects the machine (see
    :func:`repro.engines.harnesses.make_machine`): ``"fast"`` (default)
    runs the command-stream machine when it claims ``config`` and the
    DES kernel otherwise, ``"reference"`` always the DES kernel; any
    other name raises :class:`ValueError`.  Every engine runs the one
    driver body (:func:`repro.engines.harnesses.drive_load`), so the
    results are equal; only wall-clock differs.
    """
    if offered_gbps <= 0:
        raise ValueError(f"offered_gbps must be positive, got {offered_gbps}")
    if active_flows < 4:
        raise ValueError("active_flows must be >= 4")
    if not 0.0 <= burst_prob <= 1.0:
        raise ValueError(f"burst_prob must be in [0,1], got {burst_prob}")
    if burst_len < 1:
        raise ValueError(f"burst_len must be >= 1, got {burst_len}")
    from repro.engines.harnesses import drive_load
    return drive_load(offered_gbps, num_volleys=num_volleys, config=config,
                      active_flows=active_flows,
                      warmup_volleys=warmup_volleys, burst_len=burst_len,
                      burst_prob=burst_prob, seed=seed, engine=engine,
                      probe=probe)


def run_saturation(num_commands: int = 8000,
                   config: MmsConfig = MmsConfig(),
                   active_flows: int = 512,
                   engine: str = "fast",
                   probe=None) -> MmsLoadResult:
    """Headline experiment: backlogged ports, maximum command rate.

    Reproduces "The MMS can handle one operation per 84 ns or 12 Mops/sec
    operating at 125MHz ... the overall bandwidth the MMS supports is
    6.145 Gbps" (our model: 1/10.5 cycles = 11.9 Mops ~ 6.1 Gbps).
    ``engine`` works as in :func:`run_load`.
    """
    from repro.engines.harnesses import drive_saturation
    return drive_saturation(num_commands=num_commands, config=config,
                            active_flows=active_flows, engine=engine,
                            probe=probe)


def figure2_diagram() -> str:
    """ASCII rendering of Figure 2 (the MMS architecture)."""
    return """\
               Figure 2: MMS Architecture

            +--------+        +--------+
            |  DRAM  |        |  SRAM  |
            | (data) |        | (ptrs) |
            +---+----+        +----+---+
                |                  |
          +-----+-----+      +-----+------+
          |    DMC    |<---->|    Data    |
          | (data mem |      |   Queue    |
          |  control) |      |  Manager   |
          +-----+-----+      +-----+------+
                |                  ^
   =============|==================|==== MMS ====
      |         |            +-----+------+     |
 +----+------+  |            |  Internal  |     |
 | Segmenta- |  |            | Scheduler  |     |
 |   tion    |  |            +-+--+--+--+-+     |
 +----+------+  |              |1 |2 |3 |4      |
      |    +----+-----+        |  |  |  |       |
      |    | Reassem- |     [command FIFOs]     |
      |    |   bly    |        |  |  |  |       |
      |    +----+-----+        |  |  |  |       |
 -----+---------+--------------+--+--+--+-------
     IN        OUT            IN OUT CPU CPU
              DATA ===        COMMANDS ---  BACKPRESSURE <-->
"""
